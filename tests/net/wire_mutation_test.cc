// Seeded mutation sweep over every wire decoder. Each of 1,000 seeds
// mutates one field or a few bytes of a valid payload of every message
// type (meta, query, fetch and the cover-session frames) and reseals the
// frame CRC, so the damage reaches the decoders instead of stopping at the
// checksum. Every Decode* call, RecvFrame, the shard's ConnectionHandler
// and the router's step validation (DecodeCoverCounts /
// DecodeCoverDecrements against the router's count array) must answer OK —
// with the shard's own status, where the payload carries one — or
// kCorruption: never throw, crash or trip a sanitizer. The valid payloads
// come from a real QueryService over the committed layout fixture
// (tests/index/testdata/layout_v2: 120 vertices, 2 topics).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "serving/query_service.h"

namespace kbtim {
namespace net {
namespace {

constexpr uint64_t kSeeds = 1000;

std::string FixtureDir() {
  return std::string(KBTIM_SOURCE_DIR) + "/tests/index/testdata/layout_v2";
}

/// One field or a few bytes of `p`, damaged.
std::string Mutate(std::string p, Rng& rng) {
  static constexpr uint64_t kValues[] = {
      0, 1, 2, 0x7F, 0xFF, 0xFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
      uint64_t{1} << 32, uint64_t{1} << 62, ~uint64_t{0},
      0x7FF0000000000000,   // +inf
      0x7FF8000000000000,   // NaN
      0x7FEFFFFFFFFFFFFF,   // the largest double
      0xBFF0000000000000};  // -1.0
  const uint32_t kind = rng.NextU32Below(5);
  if (kind <= 1) {  // a u32 or u64 field: a boundary value or a neighbour
    const size_t width = kind == 0 ? 4 : 8;
    if (p.size() >= width) {
      const size_t at = rng.NextU32Below(p.size() - width + 1);
      uint64_t v = 0;
      std::memcpy(&v, p.data() + at, width);
      switch (rng.NextU32Below(3)) {
        case 0: v += 1; break;
        case 1: v -= 1; break;
        default: v = kValues[rng.NextU32Below(std::size(kValues))];
      }
      std::memcpy(p.data() + at, &v, width);
      return p;
    }
  }
  if (kind == 2 && !p.empty()) {  // flip one to three bytes
    for (uint32_t i = 0, n = 1 + rng.NextU32Below(3); i < n; ++i) {
      p[rng.NextU32Below(p.size())] ^=
          static_cast<char>(1 + rng.NextU32Below(255));
    }
    return p;
  }
  if (kind == 3 && !p.empty()) {  // cut the tail
    p.resize(rng.NextU32Below(p.size()));
    return p;
  }
  for (uint32_t i = 0, n = 1 + rng.NextU32Below(8); i < n; ++i) {
    p.push_back(static_cast<char>(rng.NextU32Below(256)));
  }
  return p;
}

bool IsResponse(MsgType type) {
  switch (type) {
    case MsgType::kMetaResponse:
    case MsgType::kQueryResponse:
    case MsgType::kFetchResponse:
    case MsgType::kCoverCounts:
    case MsgType::kCoverDecrements:
      return true;
    default:
      return false;
  }
}

/// The payload's leading Status, when it is a response that carries one.
Status RemoteStatus(MsgType type, const std::string& payload) {
  if (!IsResponse(type)) return Status::OK();
  WireReader r(payload);
  Status remote;
  if (!DecodeStatus(&r, &remote).ok()) return Status::OK();
  return remote;
}

class WireMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryServiceOptions options;
    options.num_workers = 1;
    options.cache.prefetch_threads = 0;
    auto service = QueryService::Create(FixtureDir(), options);
    ASSERT_TRUE(service.ok()) << service.status();
    service_ = std::move(*service);
    handler_ = std::make_unique<ConnectionHandler>(*service_, sessions_);
    const IndexMeta& meta = service_->meta();
    n_ = meta.num_vertices;

    ServiceRequest query{Query{{0, 1}, 3}, QueryEngine::kRr};
    open_.topics = {0, 1};
    open_.budgets = {meta.topics[0].theta / 2, meta.topics[1].theta};
    const StatusOr<SeedSetResult> answer = service_->Execute(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    const StatusOr<RrFetchResult> fetched = service_->ExecuteFetch(open_);
    ASSERT_TRUE(fetched.ok()) << fetched.status();

    valid_[MsgType::kMetaRequest] = "";
    valid_[MsgType::kMetaResponse] = EncodeMetaResponse(meta);
    valid_[MsgType::kQueryRequest] = EncodeQueryRequest(query);
    valid_[MsgType::kQueryResponse] = EncodeQueryResponse(answer);
    valid_[MsgType::kFetchRequest] = EncodeFetchRequest(open_);
    valid_[MsgType::kFetchResponse] = EncodeFetchResponse(fetched);
    valid_[MsgType::kCoverOpen] = EncodeFetchRequest(open_);

    // A session's replies, and the router's counts after the open.
    std::string frame;
    ASSERT_TRUE(handler_->Handle(MsgType::kCoverOpen,
                                 valid_[MsgType::kCoverOpen], &frame)
                    .ok());
    valid_[MsgType::kCoverCounts] = frame.substr(kFrameHeaderSize);
    counts_.assign(n_, 0);
    Status remote;
    std::vector<TopicId> dropped;
    ASSERT_TRUE(DecodeCoverCounts(valid_[MsgType::kCoverCounts], &remote,
                                  &dropped, &counts_)
                    .ok());
    ASSERT_TRUE(remote.ok()) << remote;
    const VertexId top = static_cast<VertexId>(
        std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
    ASSERT_GT(counts_[top], 0u);
    std::string step;
    WireWriter w(&step);
    EncodeCoverStep(top, &w);
    valid_[MsgType::kCoverStep] = step;
    ASSERT_TRUE(handler_->Handle(MsgType::kCoverStep, step, &frame).ok());
    valid_[MsgType::kCoverDecrements] = frame.substr(kFrameHeaderSize);
  }

  /// Decodes `payload` as a message of `type` the way its reader would.
  Status DecodeAs(MsgType type, const std::string& payload) {
    switch (type) {
      case MsgType::kMetaRequest:
        return Status::OK();
      case MsgType::kMetaResponse:
        return DecodeMetaResponse(payload).status();
      case MsgType::kQueryRequest:
        return DecodeQueryRequest(payload).status();
      case MsgType::kQueryResponse:
        return DecodeQueryResponse(payload).status();
      case MsgType::kFetchRequest:
      case MsgType::kCoverOpen:
        return DecodeFetchRequest(payload).status();
      case MsgType::kFetchResponse:
        return DecodeFetchResponse(payload, n_).status();
      case MsgType::kCoverCounts: {
        Status remote;
        std::vector<TopicId> dropped;
        std::vector<uint32_t> count(n_, 0);
        KBTIM_RETURN_IF_ERROR(
            DecodeCoverCounts(payload, &remote, &dropped, &count));
        return remote;
      }
      case MsgType::kCoverStep:
        return DecodeCoverStep(payload).status();
      case MsgType::kCoverDecrements: {
        // The router's step validation, against its counts after the open.
        Status remote;
        std::vector<uint32_t> count = counts_;
        KBTIM_RETURN_IF_ERROR(DecodeCoverDecrements(payload, &remote, &count));
        return remote;
      }
    }
    return Status::Internal("unknown message type");
  }

  /// OK, kCorruption, or the shard's own status carried by the payload.
  void ExpectClean(const Status& got, MsgType type, const std::string& payload,
                   const char* where) {
    if (got.ok() || got.code() == StatusCode::kCorruption) {
      ++outcomes_[{where, got.ok()}];
      return;
    }
    const Status remote = RemoteStatus(type, payload);
    EXPECT_TRUE(!remote.ok() && remote == got)
        << where << " type " << static_cast<int>(type) << " seed " << seed_
        << ": " << got;
    ++outcomes_[{where, true}];
  }

  /// Sends `frame` through a socket pair and reads it back with RecvFrame.
  void SweepRecvFrame(std::string frame) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket reader = Socket::Adopt(fds[0], "pair");
    Socket writer = Socket::Adopt(fds[1], "pair");
    ASSERT_TRUE(writer.SendAll(frame.data(), frame.size(), 1000.0).ok());
    writer.Close();
    FrameHeader header;
    std::string payload;
    const Status got = RecvFrame(reader, 1000.0, &header, &payload);
    EXPECT_TRUE(got.ok() || got.code() == StatusCode::kCorruption)
        << "RecvFrame seed " << seed_ << ": " << got;
    ++outcomes_[{"RecvFrame", got.ok()}];
    if (got.ok()) {
      ExpectClean(DecodeAs(header.type, payload), header.type, payload,
                  "decode after RecvFrame");
    }
  }

  /// A frame of `type` around `payload` (CRC resealed), its header
  /// sometimes damaged too. A damaged length is either past the bound or
  /// within the bytes sent, so the stream never ends mid-frame.
  std::string MutatedFrame(MsgType type, const std::string& payload,
                           Rng& rng) {
    std::string frame = EncodeFrame(type, payload);
    switch (rng.NextU32Below(5)) {
      case 0:
        frame[rng.NextU32Below(4)] ^= static_cast<char>(1 + rng.NextU32Below(255));
        break;
      case 1:
        frame[4] = static_cast<char>(rng.NextU32Below(16));
        break;
      case 2: {
        const uint32_t len =
            rng.NextU32Below(2) == 0
                ? kMaxFramePayload + 1 + rng.NextU32Below(1000)
                : rng.NextU32Below(static_cast<uint32_t>(payload.size()) + 1);
        std::memcpy(frame.data() + 8, &len, sizeof(len));
        break;
      }
      case 3:
        frame[12 + rng.NextU32Below(4)] ^= static_cast<char>(1 + rng.NextU32Below(255));
        break;
      default:
        break;  // the payload's damage alone
    }
    return frame;
  }

  std::unique_ptr<QueryService> service_;
  std::atomic<uint32_t> sessions_{0};
  std::unique_ptr<ConnectionHandler> handler_;
  VertexId n_ = 0;
  RrFetchRequest open_;
  std::map<MsgType, std::string> valid_;
  std::vector<uint32_t> counts_;
  uint64_t seed_ = 0;
  std::map<std::pair<std::string, bool>, uint64_t> outcomes_;
};

TEST_F(WireMutationTest, EveryDecoderAnswersOkOrCorruption) {
  for (seed_ = 0; seed_ < kSeeds; ++seed_) {
    Rng rng(0x5EED0000 + seed_);
    for (const auto& [type, payload] : valid_) {
      const std::string mutated = Mutate(payload, rng);
      ExpectClean(DecodeAs(type, mutated), type, mutated, "decoder");
    }

    // Frame level: one message per seed, through RecvFrame.
    auto it = valid_.begin();
    std::advance(it, rng.NextU32Below(static_cast<uint32_t>(valid_.size())));
    SweepRecvFrame(MutatedFrame(it->first, Mutate(it->second, rng), rng));

    // The shard's handler, on every request type; a step needs a session.
    std::string response;
    ASSERT_TRUE(handler_->Handle(MsgType::kCoverOpen,
                                 valid_[MsgType::kCoverOpen], &response)
                    .ok());
    for (MsgType type :
         {MsgType::kCoverStep, MsgType::kMetaRequest, MsgType::kQueryRequest,
          MsgType::kFetchRequest, MsgType::kCoverOpen}) {
      const std::string mutated = Mutate(valid_[type], rng);
      const Status handled = handler_->Handle(type, mutated, &response);
      EXPECT_TRUE(handled.ok() || handled.code() == StatusCode::kCorruption)
          << "handler type " << static_cast<int>(type) << " seed " << seed_
          << ": " << handled;
      ++outcomes_[{"handler", handled.ok()}];
      if (!handled.ok()) continue;
      // Whatever the handler answers must itself decode cleanly.
      auto header = DecodeFrameHeader(response.data(), response.size());
      ASSERT_TRUE(header.ok()) << header.status();
      const std::string payload = response.substr(kFrameHeaderSize);
      ASSERT_TRUE(VerifyFramePayload(*header, payload).ok());
      const Status decoded = header->type == MsgType::kCoverDecrements
                                 ? Status::OK()  // counts_ predate this step
                                 : DecodeAs(header->type, payload);
      EXPECT_TRUE(decoded.ok() || RemoteStatus(header->type, payload) == decoded)
          << "handler reply to type " << static_cast<int>(type) << " seed "
          << seed_ << ": " << decoded;
    }
  }
  // The sweep reached both outcomes everywhere: damage was caught, and
  // benign damage (a flipped message byte, a neighbouring budget) passed.
  for (const char* where : {"decoder", "RecvFrame", "handler"}) {
    EXPECT_GT((outcomes_[{where, true}]), 0u) << where;
    EXPECT_GT((outcomes_[{where, false}]), 0u) << where;
  }
  handler_.reset();
  EXPECT_EQ(sessions_.load(), 0u);
}

TEST_F(WireMutationTest, HandlerRefusesResponseTypesAndStrayVertices) {
  std::string response;
  for (MsgType type : {MsgType::kMetaResponse, MsgType::kCoverCounts,
                       MsgType::kCoverDecrements}) {
    EXPECT_EQ(handler_->Handle(type, valid_[type], &response).code(),
              StatusCode::kCorruption);
  }
  std::string step;
  WireWriter w(&step);
  EncodeCoverStep(n_, &w);  // one past the last vertex
  EXPECT_EQ(handler_->Handle(MsgType::kCoverStep, step, &response).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace net
}  // namespace kbtim
