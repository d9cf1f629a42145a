// Wire codec: every message round-trips bit-exactly, and every corruption
// a flaky link can produce — flipped payload bytes, truncated frames, bad
// magic, hostile lengths — is DETECTED (kCorruption) rather than decoded
// into a silently-wrong answer.
#include "net/wire_format.h"

#include <gtest/gtest.h>

#include <memory>

namespace kbtim {
namespace net {
namespace {

TEST(WireFrame, RoundTrip) {
  const std::string payload = "hello shard";
  const std::string frame = EncodeFrame(MsgType::kQueryRequest, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->type, MsgType::kQueryRequest);
  EXPECT_EQ(header->payload_len, payload.size());
  EXPECT_TRUE(
      VerifyFramePayload(*header, frame.substr(kFrameHeaderSize)).ok());
}

TEST(WireFrame, DetectsPayloadCorruption) {
  const std::string payload(64, 'x');
  std::string frame = EncodeFrame(MsgType::kFetchResponse, payload);
  auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  // Flip one payload byte: the masked CRC must catch it.
  std::string corrupted = frame.substr(kFrameHeaderSize);
  corrupted[17] ^= 0x20;
  const Status s = VerifyFramePayload(*header, corrupted);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
}

TEST(WireFrame, RejectsBadMagicAndHostileLength) {
  std::string frame = EncodeFrame(MsgType::kMetaRequest, "");
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeFrameHeader(frame.data(), frame.size()).status().code(),
            StatusCode::kCorruption);

  // A desynchronized or hostile length field must be rejected before any
  // allocation happens.
  std::string huge = EncodeFrame(MsgType::kMetaRequest, "");
  const uint32_t bad_len = kMaxFramePayload + 1;
  std::memcpy(huge.data() + 8, &bad_len, sizeof(bad_len));
  EXPECT_EQ(DecodeFrameHeader(huge.data(), huge.size()).status().code(),
            StatusCode::kCorruption);

  EXPECT_EQ(DecodeFrameHeader(frame.data(), 7).status().code(),
            StatusCode::kCorruption);
}

TEST(WireStatus, RoundTripsOkAndError) {
  for (const Status original :
       {Status::OK(), Status::Unavailable("queue full"),
        Status::DeadlineExceeded("expired 12.5ms ago")}) {
    std::string buf;
    WireWriter w(&buf);
    EncodeStatus(original, &w);
    WireReader r(buf);
    Status decoded = Status::OK();
    ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
    EXPECT_EQ(decoded, original);
  }
}

TEST(WireMeta, RoundTripsEveryBudgetRelevantField) {
  IndexMeta meta;
  meta.format_version = kIndexFormatV2;
  meta.epsilon = 0.37;
  meta.max_k = 42;
  meta.partition_size = 17;
  meta.num_vertices = 12345;
  meta.num_topics = 3;
  meta.has_rr = true;
  meta.has_irr = true;
  meta.topics.resize(3);
  meta.topics[0] = {1000, 1.5, 2.25, 0.125, 64, 128};
  meta.topics[1] = {0, 0.0, 0.0, 0.0, 0, 0};
  meta.topics[2] = {77, 3.875, 9.0e-3, 1.0 / 3.0, 32, 96};

  auto decoded = DecodeMetaResponse(EncodeMetaResponse(meta));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_vertices, meta.num_vertices);
  EXPECT_EQ(decoded->num_topics, meta.num_topics);
  EXPECT_EQ(decoded->max_k, meta.max_k);
  EXPECT_TRUE(decoded->has_rr);
  ASSERT_EQ(decoded->topics.size(), meta.topics.size());
  for (size_t i = 0; i < meta.topics.size(); ++i) {
    EXPECT_EQ(decoded->topics[i].theta, meta.topics[i].theta);
    // Bit-exact doubles: ComputeQueryBudget on the router must see the
    // same p_w the shard's builder wrote, or budgets diverge.
    EXPECT_EQ(decoded->topics[i].tf_sum, meta.topics[i].tf_sum);
    EXPECT_EQ(decoded->topics[i].phi, meta.topics[i].phi);
  }

  // A remote error response decodes back to that error.
  auto remote = DecodeMetaResponse(
      EncodeMetaResponse(Status::IOError("meta unreadable")));
  EXPECT_EQ(remote.status().code(), StatusCode::kIOError);
}

TEST(WireQuery, RequestAndResponseRoundTrip) {
  ServiceRequest request;
  request.query = Query{{4, 1, 7}, 9};
  request.engine = QueryEngine::kRr;
  request.priority = RequestPriority::kHigh;
  request.queue_deadline_ms = 12.5;
  request.max_theta = 1u << 20;
  request.request_deadline_ms = 250.0;
  auto req = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->query.topics, request.query.topics);
  EXPECT_EQ(req->query.k, request.query.k);
  EXPECT_EQ(req->engine, QueryEngine::kRr);
  EXPECT_EQ(req->priority, RequestPriority::kHigh);
  EXPECT_EQ(req->request_deadline_ms, 250.0);

  SeedSetResult result;
  result.seeds = {5, 9, 2};
  result.marginal_gains = {3.5, 1.25, 0.725};
  result.estimated_influence = 5.475;
  result.degraded = true;
  result.dropped_keywords = {7};
  result.stats.theta = 4096;
  result.stats.rr_sets_loaded = 2048;
  auto res = DecodeQueryResponse(EncodeQueryResponse(result));
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->seeds, result.seeds);
  EXPECT_EQ(res->marginal_gains, result.marginal_gains);
  EXPECT_EQ(res->estimated_influence, result.estimated_influence);
  EXPECT_TRUE(res->degraded);
  EXPECT_EQ(res->dropped_keywords, result.dropped_keywords);
  EXPECT_EQ(res->stats.theta, result.stats.theta);
  EXPECT_EQ(res->stats.rr_sets_loaded, result.stats.rr_sets_loaded);
}

TEST(WireFetch, RoundTripsBlocksAndDrops) {
  RrFetchRequest request;
  request.topics = {2, 4};
  request.budgets = {100, 250};
  request.request_deadline_ms = 75.0;
  auto req = DecodeFetchRequest(EncodeFetchRequest(request));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->topics, request.topics);
  EXPECT_EQ(req->budgets, request.budgets);

  auto block = std::make_shared<RrKeywordBlock>();
  block->loaded_budget = 2;
  block->set_offsets = {0, 2, 3};
  block->set_items = {10, 20, 30};
  block->list_vertex = {10, 20, 30};
  block->list_offsets = {0, 1, 2, 3};
  block->list_ids = {0, 0, 1};
  block->bytes = 99;

  RrFetchResult result;
  result.blocks = {block, nullptr};
  result.dropped = {4};
  auto res = DecodeFetchResponse(EncodeFetchResponse(result));
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_EQ(res->blocks.size(), 2u);
  ASSERT_NE(res->blocks[0], nullptr);
  EXPECT_EQ(res->blocks[1], nullptr);
  EXPECT_EQ(res->dropped, result.dropped);
  EXPECT_EQ(res->blocks[0]->loaded_budget, block->loaded_budget);
  EXPECT_EQ(res->blocks[0]->set_offsets, block->set_offsets);
  EXPECT_EQ(res->blocks[0]->set_items, block->set_items);
  EXPECT_EQ(res->blocks[0]->list_vertex, block->list_vertex);
  EXPECT_EQ(res->blocks[0]->list_offsets, block->list_offsets);
  EXPECT_EQ(res->blocks[0]->list_ids, block->list_ids);
}

TEST(WireFetch, RejectsInconsistentOffsets) {
  auto block = std::make_shared<RrKeywordBlock>();
  block->loaded_budget = 2;
  block->set_offsets = {0, 2, 5};  // back() != set_items.size()
  block->set_items = {10, 20, 30};
  block->list_offsets = {0};
  RrFetchResult result;
  result.blocks = {block};
  auto res = DecodeFetchResponse(EncodeFetchResponse(result));
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(WireEmptyVectors, RoundTripWithoutDroppedKeywords) {
  // The common case on a healthy fleet: nothing dropped. Decoding an empty
  // vector must not hand memcpy the vector's null data().
  auto block = std::make_shared<RrKeywordBlock>();
  block->loaded_budget = 1;
  block->set_offsets = {0, 1};
  block->set_items = {3};
  block->list_vertex = {3};
  block->list_offsets = {0, 1};
  block->list_ids = {0};
  RrFetchResult fetch;
  fetch.blocks = {block};
  auto fetched = DecodeFetchResponse(EncodeFetchResponse(fetch));
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  ASSERT_EQ(fetched->blocks.size(), 1u);
  EXPECT_EQ(fetched->blocks[0]->set_items, block->set_items);
  EXPECT_TRUE(fetched->dropped.empty());

  SeedSetResult result;
  result.seeds = {5, 9};
  result.marginal_gains = {2.0, 1.0};
  result.estimated_influence = 3.0;
  auto answered = DecodeQueryResponse(EncodeQueryResponse(result));
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->seeds, result.seeds);
  EXPECT_FALSE(answered->degraded);
  EXPECT_TRUE(answered->dropped_keywords.empty());
}

TEST(WireFrame, BuiltInPlaceMatchesPinnedBytes) {
  // A fetch-request frame as the wire carries it: header (magic, type 5,
  // length 57, masked CRC32C of the payload) then the payload. Built in
  // place in a reused buffer holding older bytes, or from the payload
  // alone, the frame must come out byte for byte the same.
  static const char kPinned[] =
      "\x4b\x42\x4e\x31\x05\x00\x00\x00\x39\x00\x00\x00\xd3\x7f\x7f\x49"
      "\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00"
      "\x02\x00\x00\x00\x00\x00\x00\x00\x64\x00\x00\x00\x00\x00\x00\x00"
      "\xfa\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\xc0\x52\x40";
  const std::string pinned(kPinned, sizeof(kPinned) - 1);
  RrFetchRequest request;
  request.topics = {2, 4};
  request.budgets = {100, 250};
  request.request_deadline_ms = 75.0;

  std::string frame(4096, 'x');
  EncodeFrame(MsgType::kFetchRequest,
              [&](WireWriter* w) { EncodeFetchRequest(request, w); }, &frame);
  EXPECT_EQ(frame, pinned);
  EXPECT_EQ(EncodeFrame(MsgType::kFetchRequest, EncodeFetchRequest(request)),
            pinned);

  auto header = DecodeFrameHeader(pinned.data(), pinned.size());
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->type, MsgType::kFetchRequest);
  const std::string payload = pinned.substr(kFrameHeaderSize);
  EXPECT_TRUE(VerifyFramePayload(*header, payload).ok());
  auto decoded = DecodeFetchRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->budgets, request.budgets);
}

TEST(WireReader, TruncationIsCorruptionNeverOverread) {
  const std::string payload = EncodeQueryRequest(
      ServiceRequest{Query{{1, 2, 3}, 5}, QueryEngine::kRr});
  // Every prefix of a valid payload must decode to an error, not a crash.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeQueryRequest(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << cut;
  }
}

}  // namespace
}  // namespace net
}  // namespace kbtim
