// Length-prefixed binary framing for the KB-TIM network serving tier.
//
// Every message on a shard connection is one frame:
//
//   offset  size  field
//   0       4     magic "KBN1" (little-endian u32 0x314E424B)
//   4       1     MsgType
//   5       3     reserved (zero)
//   8       4     payload length n (little-endian)
//   12      4     masked CRC32C of payload bytes (storage/crc32c.h)
//   16      n     payload
//
// The CRC covers the payload only; the type and length are checked by
// range, by the type the reader expects and by the length bound. It reuses
// the index format's masked-CRC32C convention, so a frame that crosses a
// flaky link gets the same integrity treatment as a block that crosses a
// flaky disk. A frame whose magic, length bound or CRC does not check out
// is a TRANSPORT failure: the peer cannot resynchronize a byte stream
// mid-frame, so readers surface kCorruption and the connection is closed
// (clients then treat it exactly like a dropped socket — reconnect, retry,
// or hedge; never a silently-wrong answer).
//
// Payload encoding is flat little-endian via WireWriter/WireReader:
// u8/u32/u64 as fixed-width, doubles as their 8-byte IEEE-754 bit pattern
// (byte-identical round trip — the golden-equality suites depend on it),
// strings and vectors as a u32/u64 count plus elements. Every reader
// bounds-checks and returns kCorruption on truncation; a decoder never
// reads past the frame.
//
// Every frame is built in place by EncodeFrame: a header placeholder, the
// payload appended after one exact-size reservation (a counting pass of the
// same encoder sizes it), then the length and CRC sealed into the header.
// Every frame is read by RecvFrame. Both work in caller-owned buffers, so a
// connection that keeps its buffers across frames stops allocating once
// they have grown to its largest message.
#ifndef KBTIM_NET_WIRE_FORMAT_H_
#define KBTIM_NET_WIRE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "index/index_format.h"
#include "index/keyword_cache.h"
#include "net/socket.h"
#include "sampling/solver_result.h"
#include "serving/service_request.h"
#include "topics/query.h"

namespace kbtim {
namespace net {

/// Frame magic ("KBN1" in little-endian byte order).
inline constexpr uint32_t kFrameMagic = 0x314E424Bu;

/// Fixed frame header size in bytes.
inline constexpr size_t kFrameHeaderSize = 16;

/// Upper bound on a frame payload. RR blocks for a whole keyword are the
/// largest payloads; 1 GiB is far above any index this system builds and
/// small enough to reject a desynchronized / hostile length field before
/// allocating.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

/// Message types carried in the frame header.
enum class MsgType : uint8_t {
  kMetaRequest = 1,    ///< -> shard: send me your IndexMeta.
  kMetaResponse = 2,   ///< <- shard: Status + IndexMeta.
  kQueryRequest = 3,   ///< -> shard: full solve (ServiceRequest).
  kQueryResponse = 4,  ///< <- shard: Status + SeedSetResult.
  kFetchRequest = 5,   ///< -> shard: per-keyword RR block fetch.
  kFetchResponse = 6,  ///< <- shard: Status + RrFetchResult blocks.
  kCoverOpen = 7,        ///< -> shard: open a cover session (fetch request).
  kCoverCounts = 8,      ///< <- shard: Status + dropped + initial counts.
  kCoverStep = 9,        ///< -> shard: cover one vertex, or end the session.
  kCoverDecrements = 10, ///< <- shard: Status + the step's count decrements.
};

// ---- Flat little-endian primitives -----------------------------------------

/// Appends primitives to a growing byte string, or, default-constructed,
/// only counts the bytes it would append (the sizing pass).
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { AppendRaw(&v, sizeof(v)); }
  void U32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    AppendRaw(s.data(), s.size());
  }
  template <typename T>
  void VecU32(const std::vector<T>& v) {
    static_assert(sizeof(T) == 4, "element must be 32-bit");
    U64(v.size());
    if (!v.empty()) AppendRaw(v.data(), v.size() * sizeof(T));
  }
  void VecU64(const std::vector<uint64_t>& v) {
    U64(v.size());
    if (!v.empty()) AppendRaw(v.data(), v.size() * sizeof(uint64_t));
  }
  void VecDouble(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) Double(d);
  }
  /// Raw bytes, no count.
  void Bytes(const std::string& s) { AppendRaw(s.data(), s.size()); }

  /// Bytes appended (or counted) so far.
  size_t size() const { return size_; }

 private:
  void AppendRaw(const void* data, size_t n) {
    size_ += n;
    if (out_ != nullptr) out_->append(static_cast<const char*>(data), n);
  }
  std::string* out_ = nullptr;
  size_t size_ = 0;
};

/// Reads primitives from a fixed byte span; every read bounds-checks.
class WireReader {
 public:
  WireReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& s) : data_(s.data()), size_(s.size()) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status Double(double* v);
  Status Str(std::string* s);
  template <typename T>
  Status VecU32(std::vector<T>* v) {
    static_assert(sizeof(T) == 4, "element must be 32-bit");
    uint64_t n = 0;
    KBTIM_RETURN_IF_ERROR(U64(&n));
    KBTIM_RETURN_IF_ERROR(CheckCount(n, sizeof(T)));
    v->resize(n);
    return ReadRaw(v->data(), n * sizeof(T));
  }
  Status VecU64(std::vector<uint64_t>* v);
  Status VecDouble(std::vector<double>* v);
  /// Consumes n elements of elem_size bytes without copying them: *data
  /// points at the first one inside the payload.
  Status InPlace(uint64_t n, size_t elem_size, const char** data);

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }

 private:
  Status ReadRaw(void* out, size_t n);
  Status CheckCount(uint64_t n, size_t elem_size) const;

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- Framing ---------------------------------------------------------------

/// Appends one message's payload through the writer it is given. Encoders
/// run it twice, first on a counting writer, so it must write the same
/// bytes both times.
using PayloadEncoder = std::function<void(WireWriter*)>;

/// Builds one frame of `type` in `*frame`, replacing its contents but
/// keeping its capacity: header placeholder, payload appended after one
/// exact-size reservation, then length and masked payload CRC sealed into
/// the header. Every message type is framed here.
void EncodeFrame(MsgType type, const PayloadEncoder& encode,
                 std::string* frame);

/// One frame carrying `payload` verbatim.
std::string EncodeFrame(MsgType type, const std::string& payload);

/// Parsed frame header.
struct FrameHeader {
  MsgType type = MsgType::kMetaRequest;
  uint32_t payload_len = 0;
  uint32_t masked_crc = 0;
};

/// Validates the 16 header bytes (magic, type, length bound). kCorruption
/// on any mismatch — callers must close the connection.
StatusOr<FrameHeader> DecodeFrameHeader(const char* data, size_t size);

/// Verifies the payload against the header's masked CRC. kCorruption on
/// mismatch — callers must close the connection.
Status VerifyFramePayload(const FrameHeader& header, const std::string& payload);

/// Reads one frame from `conn`: its header into `*header` and its payload
/// into `*payload` (resized to fit; capacity kept), CRC verified. Any
/// failure leaves the stream unusable — callers must close the connection.
Status RecvFrame(Socket& conn, double timeout_ms, FrameHeader* header,
                 std::string* payload);

// ---- Message payload codecs ------------------------------------------------

/// Status: code u8 + message. OK round-trips as code 0, empty message.
void EncodeStatus(const Status& status, WireWriter* w);
Status DecodeStatus(WireReader* r, Status* out);

// Each message has a writer form, which frames use, and a form returning
// the payload alone, which is the same encoder behind one exact-size
// reservation.

/// IndexMeta with the full per-topic table (the router computes query
/// budgets locally from it, so every field ComputeQueryBudget touches must
/// survive the round trip bit-exactly).
void EncodeMetaResponse(const StatusOr<IndexMeta>& meta, WireWriter* w);
std::string EncodeMetaResponse(const StatusOr<IndexMeta>& meta);
StatusOr<IndexMeta> DecodeMetaResponse(const std::string& payload);

/// Full solve request/response (ServiceRequest <-> SeedSetResult). The
/// response carries the result's answer fields plus the wire-relevant
/// stats (theta, rr_sets_loaded, io_reads, io_bytes, batch_size).
void EncodeQueryRequest(const ServiceRequest& request, WireWriter* w);
std::string EncodeQueryRequest(const ServiceRequest& request);
StatusOr<ServiceRequest> DecodeQueryRequest(const std::string& payload);
void EncodeQueryResponse(const StatusOr<SeedSetResult>& result, WireWriter* w);
std::string EncodeQueryResponse(const StatusOr<SeedSetResult>& result);
StatusOr<SeedSetResult> DecodeQueryResponse(const std::string& payload);

/// RR block fetch (RrFetchRequest <-> RrFetchResult). A decoded block is
/// refused unless its offsets are consistent, each inverted list holds
/// ascending ids below loaded_budget, list vertices ascend strictly, and
/// every set member and list vertex is below `num_vertices` (the index
/// meta's; the default bounds nothing but the id type).
void EncodeFetchRequest(const RrFetchRequest& request, WireWriter* w);
std::string EncodeFetchRequest(const RrFetchRequest& request);
StatusOr<RrFetchRequest> DecodeFetchRequest(const std::string& payload);
void EncodeFetchResponse(const StatusOr<RrFetchResult>& result, WireWriter* w);
std::string EncodeFetchResponse(const StatusOr<RrFetchResult>& result);
StatusOr<RrFetchResult> DecodeFetchResponse(
    const std::string& payload,
    VertexId num_vertices = std::numeric_limits<VertexId>::max());

// ---- Cover sessions (shard_server.h, router.h) -----------------------------
//
// kCoverOpen carries an RrFetchRequest (the fetch request codec above).
// kCoverCounts answers it: a Status, then the topics the shard dropped and
// the sparse sum of the session's initial counts. kCoverStep names the
// vertex the router selected, or kEndCoverSession; kCoverDecrements
// answers it: a Status, then the sparse count decrements of the sets the
// step covered. Sparse counts travel as one u32 vector of (vertex, value)
// pairs, [v0, x0, v1, x1, ...].
//
// The two reply decoders apply the pairs to the caller's dense count array
// (one entry per vertex) as they read them. They return kCorruption for a
// malformed payload, a vertex past count->size(), an initial count that
// would carry a sum past 2^32 - 1 or a decrement above the current count,
// leaving *count partly updated (the caller discards it); the shard's own
// Status lands in *remote.

/// Step vertex that ends the session instead of covering a vertex.
inline constexpr VertexId kEndCoverSession =
    std::numeric_limits<VertexId>::max();

void EncodeCoverCounts(const Status& status,
                       const std::vector<TopicId>& dropped,
                       const std::vector<uint32_t>& pairs, WireWriter* w);
Status DecodeCoverCounts(const std::string& payload, Status* remote,
                         std::vector<TopicId>* dropped,
                         std::vector<uint32_t>* count);
void EncodeCoverStep(VertexId v, WireWriter* w);
StatusOr<VertexId> DecodeCoverStep(const std::string& payload);
void EncodeCoverDecrements(const Status& status,
                           const std::vector<uint32_t>& pairs, WireWriter* w);
Status DecodeCoverDecrements(const std::string& payload, Status* remote,
                             std::vector<uint32_t>* count);

}  // namespace net
}  // namespace kbtim

#endif  // KBTIM_NET_WIRE_FORMAT_H_
