#include "net/wire_format.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "storage/crc32c.h"

namespace kbtim {
namespace net {
namespace {

Status Truncated(const char* what) {
  return Status::Corruption(std::string("wire payload truncated reading ") +
                            what);
}

/// Appends the payload `encode` writes after one exact-size reservation.
void AppendPayload(const PayloadEncoder& encode, std::string* out) {
  WireWriter sizer;
  encode(&sizer);
  out->reserve(out->size() + sizer.size());
  WireWriter w(out);
  encode(&w);
}

std::string EncodePayload(const PayloadEncoder& encode) {
  std::string payload;
  AppendPayload(encode, &payload);
  return payload;
}

// Shared sub-codecs -----------------------------------------------------------

void EncodeRrBlock(const RrKeywordBlock& block, WireWriter* w) {
  w->U64(block.loaded_budget);
  w->VecU64(block.set_offsets);
  w->VecU32(block.set_items);
  w->VecU32(block.list_vertex);
  w->VecU64(block.list_offsets);
  w->VecU32(block.list_ids);
  w->U64(block.bytes);
}

/// A wire deadline in milliseconds: finite, non-negative and at most a
/// day, so converting it to a clock duration cannot overflow.
Status CheckDeadline(double ms) {
  if (!std::isfinite(ms) || ms < 0.0 || ms > 86400000.0) {
    return Status::Corruption("wire deadline out of range");
  }
  return Status::OK();
}

Status DecodeRrBlock(WireReader* r, VertexId num_vertices,
                     RrKeywordBlock* block) {
  KBTIM_RETURN_IF_ERROR(r->U64(&block->loaded_budget));
  KBTIM_RETURN_IF_ERROR(r->VecU64(&block->set_offsets));
  KBTIM_RETURN_IF_ERROR(r->VecU32(&block->set_items));
  KBTIM_RETURN_IF_ERROR(r->VecU32(&block->list_vertex));
  KBTIM_RETURN_IF_ERROR(r->VecU64(&block->list_offsets));
  KBTIM_RETURN_IF_ERROR(r->VecU32(&block->list_ids));
  KBTIM_RETURN_IF_ERROR(r->U64(&block->bytes));
  // The offset directories must stay internally consistent, and every id
  // in range — a greedy that trusts them indexes its count array by
  // vertex and its covered bitsets by RR id.
  if (block->set_offsets.empty() || block->set_offsets.front() != 0 ||
      block->set_offsets.back() != block->set_items.size() ||
      block->set_offsets.size() != block->loaded_budget + 1) {
    return Status::Corruption("RR block set_offsets inconsistent");
  }
  if (block->list_offsets.empty() || block->list_offsets.front() != 0 ||
      block->list_offsets.back() != block->list_ids.size() ||
      block->list_offsets.size() != block->list_vertex.size() + 1) {
    return Status::Corruption("RR block list_offsets inconsistent");
  }
  for (size_t i = 1; i < block->set_offsets.size(); ++i) {
    if (block->set_offsets[i] < block->set_offsets[i - 1]) {
      return Status::Corruption("RR block set_offsets not monotone");
    }
  }
  for (size_t i = 1; i < block->list_offsets.size(); ++i) {
    if (block->list_offsets[i] < block->list_offsets[i - 1]) {
      return Status::Corruption("RR block list_offsets not monotone");
    }
  }
  // Order and bounds, without a data-dependent branch per element: list
  // ids ascend (so the last is the largest) and list vertices ascend (so
  // the last is the largest vertex a list names).
  bool ordered = true;
  for (size_t i = 0; i < block->list_vertex.size(); ++i) {
    const RrId* ids = block->list_ids.data() + block->list_offsets[i];
    const uint64_t len = block->list_offsets[i + 1] - block->list_offsets[i];
    for (uint64_t j = 1; j < len; ++j) ordered &= ids[j - 1] < ids[j];
    if (len > 0) ordered &= ids[len - 1] < block->loaded_budget;
    if (i > 0) ordered &= block->list_vertex[i - 1] < block->list_vertex[i];
  }
  if (!ordered) {
    return Status::Corruption(
        "RR block lists out of order or past loaded_budget");
  }
  VertexId top = block->list_vertex.empty() ? 0 : block->list_vertex.back();
  for (VertexId v : block->set_items) top = std::max(top, v);
  if (top >= num_vertices &&
      !(block->list_vertex.empty() && block->set_items.empty())) {
    return Status::Corruption("RR block vertex past the index");
  }
  return Status::OK();
}

/// Reads a session reply's sparse pairs in place and hands each to
/// `apply(vertex, value)`, refusing a vertex past `num_vertices`.
template <typename Apply>
Status DecodePairs(WireReader* r, size_t num_vertices, Apply apply) {
  uint64_t words = 0;
  const char* data = nullptr;
  KBTIM_RETURN_IF_ERROR(r->U64(&words));
  if (words % 2 != 0) return Status::Corruption("odd sparse pair vector");
  KBTIM_RETURN_IF_ERROR(r->InPlace(words, sizeof(uint32_t), &data));
  for (uint64_t i = 0; i < words; i += 2) {
    uint32_t pair[2];
    std::memcpy(pair, data + i * sizeof(uint32_t), sizeof(pair));
    if (pair[0] >= num_vertices) {
      return Status::Corruption("sparse pair vertex out of range");
    }
    KBTIM_RETURN_IF_ERROR(apply(pair[0], pair[1]));
  }
  return Status::OK();
}

}  // namespace

// ---- WireReader -------------------------------------------------------------

Status WireReader::ReadRaw(void* out, size_t n) {
  if (size_ - pos_ < n) return Truncated("raw bytes");
  if (n == 0) return Status::OK();  // an empty vector's data() may be null
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::CheckCount(uint64_t n, size_t elem_size) const {
  // A count that cannot fit in the remaining payload is corrupt; checking
  // BEFORE resize keeps a flipped length byte from allocating gigabytes.
  if (n > (size_ - pos_) / elem_size) return Truncated("vector");
  return Status::OK();
}

Status WireReader::U8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
Status WireReader::U32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
Status WireReader::U64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }

Status WireReader::Double(double* v) {
  uint64_t bits = 0;
  KBTIM_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status WireReader::Str(std::string* s) {
  uint32_t n = 0;
  KBTIM_RETURN_IF_ERROR(U32(&n));
  if (n > size_ - pos_) return Truncated("string");
  s->assign(data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::VecU64(std::vector<uint64_t>* v) {
  uint64_t n = 0;
  KBTIM_RETURN_IF_ERROR(U64(&n));
  KBTIM_RETURN_IF_ERROR(CheckCount(n, sizeof(uint64_t)));
  v->resize(n);
  return ReadRaw(v->data(), n * sizeof(uint64_t));
}

Status WireReader::InPlace(uint64_t n, size_t elem_size, const char** data) {
  KBTIM_RETURN_IF_ERROR(CheckCount(n, elem_size));
  *data = data_ + pos_;
  pos_ += n * elem_size;
  return Status::OK();
}

Status WireReader::VecDouble(std::vector<double>* v) {
  uint64_t n = 0;
  KBTIM_RETURN_IF_ERROR(U64(&n));
  KBTIM_RETURN_IF_ERROR(CheckCount(n, sizeof(double)));
  v->resize(n);
  for (double& d : *v) KBTIM_RETURN_IF_ERROR(Double(&d));
  return Status::OK();
}

// ---- Framing ---------------------------------------------------------------

void EncodeFrame(MsgType type, const PayloadEncoder& encode,
                 std::string* frame) {
  frame->assign(kFrameHeaderSize, '\0');  // placeholder, sealed below
  AppendPayload(encode, frame);
  const uint32_t payload_len =
      static_cast<uint32_t>(frame->size() - kFrameHeaderSize);
  const uint32_t masked_crc = crc32c::Mask(
      crc32c::Value(frame->data() + kFrameHeaderSize, payload_len));
  char* header = frame->data();
  std::memcpy(header, &kFrameMagic, 4);
  header[4] = static_cast<char>(type);
  std::memcpy(header + 8, &payload_len, 4);
  std::memcpy(header + 12, &masked_crc, 4);
}

std::string EncodeFrame(MsgType type, const std::string& payload) {
  std::string frame;
  EncodeFrame(type, [&](WireWriter* w) { w->Bytes(payload); }, &frame);
  return frame;
}

StatusOr<FrameHeader> DecodeFrameHeader(const char* data, size_t size) {
  if (size < kFrameHeaderSize) {
    return Status::Corruption("short frame header");
  }
  WireReader r(data, size);
  uint32_t magic = 0;
  uint8_t type = 0, reserved = 0;
  FrameHeader header;
  KBTIM_RETURN_IF_ERROR(r.U32(&magic));
  KBTIM_RETURN_IF_ERROR(r.U8(&type));
  for (int i = 0; i < 3; ++i) KBTIM_RETURN_IF_ERROR(r.U8(&reserved));
  KBTIM_RETURN_IF_ERROR(r.U32(&header.payload_len));
  KBTIM_RETURN_IF_ERROR(r.U32(&header.masked_crc));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic (stream desynchronized)");
  }
  if (type < static_cast<uint8_t>(MsgType::kMetaRequest) ||
      type > static_cast<uint8_t>(MsgType::kCoverDecrements)) {
    return Status::Corruption("unknown frame type");
  }
  if (header.payload_len > kMaxFramePayload) {
    return Status::Corruption("frame payload exceeds bound");
  }
  header.type = static_cast<MsgType>(type);
  return header;
}

Status VerifyFramePayload(const FrameHeader& header,
                          const std::string& payload) {
  if (payload.size() != header.payload_len) {
    return Status::Corruption("frame payload length mismatch");
  }
  const uint32_t actual =
      crc32c::Mask(crc32c::Value(payload.data(), payload.size()));
  if (actual != header.masked_crc) {
    return Status::Corruption("frame payload CRC mismatch");
  }
  return Status::OK();
}

Status RecvFrame(Socket& conn, double timeout_ms, FrameHeader* header,
                 std::string* payload) {
  char raw[kFrameHeaderSize];
  KBTIM_RETURN_IF_ERROR(conn.RecvAll(raw, sizeof(raw), timeout_ms));
  KBTIM_ASSIGN_OR_RETURN(*header, DecodeFrameHeader(raw, sizeof(raw)));
  payload->resize(header->payload_len);
  KBTIM_RETURN_IF_ERROR(
      conn.RecvAll(payload->data(), payload->size(), timeout_ms));
  return VerifyFramePayload(*header, *payload);
}

// ---- Status ----------------------------------------------------------------

void EncodeStatus(const Status& status, WireWriter* w) {
  w->U8(static_cast<uint8_t>(status.code()));
  w->Str(status.message());
}

Status DecodeStatus(WireReader* r, Status* out) {
  uint8_t code = 0;
  std::string message;
  KBTIM_RETURN_IF_ERROR(r->U8(&code));
  KBTIM_RETURN_IF_ERROR(r->Str(&message));
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Corruption("unknown status code on wire");
  }
  *out = code == 0
             ? Status::OK()
             : Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// ---- IndexMeta -------------------------------------------------------------

void EncodeMetaResponse(const StatusOr<IndexMeta>& meta, WireWriter* w) {
  EncodeStatus(meta.status(), w);
  if (!meta.ok()) return;
  const IndexMeta& m = *meta;
  w->U32(m.format_version);
  w->U8(static_cast<uint8_t>(m.model));
  w->U8(static_cast<uint8_t>(m.codec));
  w->U8(static_cast<uint8_t>(m.bound));
  w->Double(m.epsilon);
  w->U32(m.max_k);
  w->U32(m.partition_size);
  w->U32(m.num_vertices);
  w->U32(m.num_topics);
  w->U8(m.has_rr ? 1 : 0);
  w->U8(m.has_irr ? 1 : 0);
  w->U64(m.topics.size());
  for (const IndexMeta::TopicMeta& t : m.topics) {
    w->U64(t.theta);
    w->Double(t.tf_sum);
    w->Double(t.phi);
    w->Double(t.opt_bound);
    w->U64(t.irr_preamble);
    w->U64(t.rr_preamble);
  }
}

std::string EncodeMetaResponse(const StatusOr<IndexMeta>& meta) {
  return EncodePayload([&](WireWriter* w) { EncodeMetaResponse(meta, w); });
}

StatusOr<IndexMeta> DecodeMetaResponse(const std::string& payload) {
  WireReader r(payload);
  Status remote;
  KBTIM_RETURN_IF_ERROR(DecodeStatus(&r, &remote));
  KBTIM_RETURN_IF_ERROR(remote);
  IndexMeta m;
  uint8_t model = 0, codec = 0, bound = 0, has_rr = 0, has_irr = 0;
  uint64_t num_topic_rows = 0;
  KBTIM_RETURN_IF_ERROR(r.U32(&m.format_version));
  KBTIM_RETURN_IF_ERROR(r.U8(&model));
  KBTIM_RETURN_IF_ERROR(r.U8(&codec));
  KBTIM_RETURN_IF_ERROR(r.U8(&bound));
  KBTIM_RETURN_IF_ERROR(r.Double(&m.epsilon));
  KBTIM_RETURN_IF_ERROR(r.U32(&m.max_k));
  KBTIM_RETURN_IF_ERROR(r.U32(&m.partition_size));
  KBTIM_RETURN_IF_ERROR(r.U32(&m.num_vertices));
  KBTIM_RETURN_IF_ERROR(r.U32(&m.num_topics));
  KBTIM_RETURN_IF_ERROR(r.U8(&has_rr));
  KBTIM_RETURN_IF_ERROR(r.U8(&has_irr));
  KBTIM_RETURN_IF_ERROR(r.U64(&num_topic_rows));
  if (model > static_cast<uint8_t>(PropagationModel::kLinearThreshold) ||
      codec > static_cast<uint8_t>(CodecKind::kGroupVarint) ||
      bound > static_cast<uint8_t>(ThetaBoundKind::kCompact)) {
    return Status::Corruption("meta enum out of range");
  }
  m.model = static_cast<PropagationModel>(model);
  m.codec = static_cast<CodecKind>(codec);
  m.bound = static_cast<ThetaBoundKind>(bound);
  m.has_rr = has_rr != 0;
  m.has_irr = has_irr != 0;
  // Six 8-byte fields per row: a row count the payload cannot hold is
  // refused before the table is allocated.
  constexpr size_t kTopicRowBytes = 48;
  if (num_topic_rows != m.num_topics ||
      num_topic_rows > r.remaining() / kTopicRowBytes) {
    return Status::Corruption("meta topic table size mismatch");
  }
  m.topics.resize(num_topic_rows);
  for (IndexMeta::TopicMeta& t : m.topics) {
    KBTIM_RETURN_IF_ERROR(r.U64(&t.theta));
    KBTIM_RETURN_IF_ERROR(r.Double(&t.tf_sum));
    KBTIM_RETURN_IF_ERROR(r.Double(&t.phi));
    KBTIM_RETURN_IF_ERROR(r.Double(&t.opt_bound));
    KBTIM_RETURN_IF_ERROR(r.U64(&t.irr_preamble));
    KBTIM_RETURN_IF_ERROR(r.U64(&t.rr_preamble));
  }
  return m;
}

// ---- Query solve -----------------------------------------------------------

void EncodeQueryRequest(const ServiceRequest& request, WireWriter* w) {
  w->VecU32(request.query.topics);
  w->U32(request.query.k);
  w->U8(static_cast<uint8_t>(request.engine));
  w->U8(static_cast<uint8_t>(request.irr_mode));
  w->U8(static_cast<uint8_t>(request.priority));
  w->Double(request.queue_deadline_ms);
  w->U64(request.max_theta);
  w->Double(request.request_deadline_ms);
}

std::string EncodeQueryRequest(const ServiceRequest& request) {
  return EncodePayload([&](WireWriter* w) { EncodeQueryRequest(request, w); });
}

StatusOr<ServiceRequest> DecodeQueryRequest(const std::string& payload) {
  WireReader r(payload);
  ServiceRequest request;
  uint8_t engine = 0, irr_mode = 0, priority = 0;
  KBTIM_RETURN_IF_ERROR(r.VecU32(&request.query.topics));
  KBTIM_RETURN_IF_ERROR(r.U32(&request.query.k));
  KBTIM_RETURN_IF_ERROR(r.U8(&engine));
  KBTIM_RETURN_IF_ERROR(r.U8(&irr_mode));
  KBTIM_RETURN_IF_ERROR(r.U8(&priority));
  KBTIM_RETURN_IF_ERROR(r.Double(&request.queue_deadline_ms));
  KBTIM_RETURN_IF_ERROR(r.U64(&request.max_theta));
  KBTIM_RETURN_IF_ERROR(r.Double(&request.request_deadline_ms));
  if (engine > static_cast<uint8_t>(QueryEngine::kWris) ||
      irr_mode > static_cast<uint8_t>(IrrQueryMode::kEager) ||
      priority >= kNumPriorities) {
    return Status::Corruption("query request enum out of range");
  }
  KBTIM_RETURN_IF_ERROR(CheckDeadline(request.queue_deadline_ms));
  KBTIM_RETURN_IF_ERROR(CheckDeadline(request.request_deadline_ms));
  request.engine = static_cast<QueryEngine>(engine);
  request.irr_mode = static_cast<IrrQueryMode>(irr_mode);
  request.priority = static_cast<RequestPriority>(priority);
  return request;
}

void EncodeQueryResponse(const StatusOr<SeedSetResult>& result, WireWriter* w) {
  EncodeStatus(result.status(), w);
  if (!result.ok()) return;
  const SeedSetResult& res = *result;
  w->VecU32(res.seeds);
  w->VecDouble(res.marginal_gains);
  w->Double(res.estimated_influence);
  w->U8(res.degraded ? 1 : 0);
  w->VecU32(res.dropped_keywords);
  w->U64(res.stats.theta);
  w->U64(res.stats.rr_sets_loaded);
  w->U64(res.stats.io_reads);
  w->U64(res.stats.io_bytes);
  w->U32(res.stats.batch_size);
}

std::string EncodeQueryResponse(const StatusOr<SeedSetResult>& result) {
  return EncodePayload([&](WireWriter* w) { EncodeQueryResponse(result, w); });
}

StatusOr<SeedSetResult> DecodeQueryResponse(const std::string& payload) {
  WireReader r(payload);
  Status remote;
  KBTIM_RETURN_IF_ERROR(DecodeStatus(&r, &remote));
  KBTIM_RETURN_IF_ERROR(remote);
  SeedSetResult res;
  uint8_t degraded = 0;
  KBTIM_RETURN_IF_ERROR(r.VecU32(&res.seeds));
  KBTIM_RETURN_IF_ERROR(r.VecDouble(&res.marginal_gains));
  KBTIM_RETURN_IF_ERROR(r.Double(&res.estimated_influence));
  KBTIM_RETURN_IF_ERROR(r.U8(&degraded));
  KBTIM_RETURN_IF_ERROR(r.VecU32(&res.dropped_keywords));
  KBTIM_RETURN_IF_ERROR(r.U64(&res.stats.theta));
  KBTIM_RETURN_IF_ERROR(r.U64(&res.stats.rr_sets_loaded));
  KBTIM_RETURN_IF_ERROR(r.U64(&res.stats.io_reads));
  KBTIM_RETURN_IF_ERROR(r.U64(&res.stats.io_bytes));
  KBTIM_RETURN_IF_ERROR(r.U32(&res.stats.batch_size));
  res.degraded = degraded != 0;
  return res;
}

// ---- RR block fetch --------------------------------------------------------

void EncodeFetchRequest(const RrFetchRequest& request, WireWriter* w) {
  w->VecU32(request.topics);
  w->VecU64(request.budgets);
  w->U8(static_cast<uint8_t>(request.priority));
  w->Double(request.queue_deadline_ms);
  w->Double(request.request_deadline_ms);
}

std::string EncodeFetchRequest(const RrFetchRequest& request) {
  return EncodePayload([&](WireWriter* w) { EncodeFetchRequest(request, w); });
}

StatusOr<RrFetchRequest> DecodeFetchRequest(const std::string& payload) {
  WireReader r(payload);
  RrFetchRequest request;
  uint8_t priority = 0;
  KBTIM_RETURN_IF_ERROR(r.VecU32(&request.topics));
  KBTIM_RETURN_IF_ERROR(r.VecU64(&request.budgets));
  KBTIM_RETURN_IF_ERROR(r.U8(&priority));
  KBTIM_RETURN_IF_ERROR(r.Double(&request.queue_deadline_ms));
  KBTIM_RETURN_IF_ERROR(r.Double(&request.request_deadline_ms));
  if (priority >= kNumPriorities) {
    return Status::Corruption("fetch request priority out of range");
  }
  KBTIM_RETURN_IF_ERROR(CheckDeadline(request.queue_deadline_ms));
  KBTIM_RETURN_IF_ERROR(CheckDeadline(request.request_deadline_ms));
  request.priority = static_cast<RequestPriority>(priority);
  return request;
}

void EncodeFetchResponse(const StatusOr<RrFetchResult>& result, WireWriter* w) {
  EncodeStatus(result.status(), w);
  if (!result.ok()) return;
  const RrFetchResult& res = *result;
  w->U64(res.blocks.size());
  for (const std::shared_ptr<const RrKeywordBlock>& block : res.blocks) {
    w->U8(block != nullptr ? 1 : 0);
    if (block != nullptr) EncodeRrBlock(*block, w);
  }
  w->VecU32(res.dropped);
}

std::string EncodeFetchResponse(const StatusOr<RrFetchResult>& result) {
  return EncodePayload([&](WireWriter* w) { EncodeFetchResponse(result, w); });
}

StatusOr<RrFetchResult> DecodeFetchResponse(const std::string& payload,
                                            VertexId num_vertices) {
  WireReader r(payload);
  Status remote;
  KBTIM_RETURN_IF_ERROR(DecodeStatus(&r, &remote));
  KBTIM_RETURN_IF_ERROR(remote);
  RrFetchResult res;
  uint64_t num_blocks = 0;
  KBTIM_RETURN_IF_ERROR(r.U64(&num_blocks));
  if (num_blocks > r.remaining()) {  // each block takes a presence byte
    return Status::Corruption("fetch response block count out of range");
  }
  res.blocks.reserve(num_blocks);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    uint8_t present = 0;
    KBTIM_RETURN_IF_ERROR(r.U8(&present));
    if (present == 0) {
      res.blocks.push_back(nullptr);
      continue;
    }
    auto block = std::make_shared<RrKeywordBlock>();
    KBTIM_RETURN_IF_ERROR(DecodeRrBlock(&r, num_vertices, block.get()));
    res.blocks.push_back(std::move(block));
  }
  KBTIM_RETURN_IF_ERROR(r.VecU32(&res.dropped));
  return res;
}

// ---- Cover sessions --------------------------------------------------------

void EncodeCoverCounts(const Status& status,
                       const std::vector<TopicId>& dropped,
                       const std::vector<uint32_t>& pairs, WireWriter* w) {
  EncodeStatus(status, w);
  if (!status.ok()) return;
  w->VecU32(dropped);
  w->VecU32(pairs);
}

Status DecodeCoverCounts(const std::string& payload, Status* remote,
                         std::vector<TopicId>* dropped,
                         std::vector<uint32_t>* count) {
  WireReader r(payload);
  KBTIM_RETURN_IF_ERROR(DecodeStatus(&r, remote));
  if (!remote->ok()) return Status::OK();
  KBTIM_RETURN_IF_ERROR(r.VecU32(dropped));
  return DecodePairs(&r, count->size(), [&](VertexId v, uint32_t c) {
    uint32_t& slot = (*count)[v];
    if (c > UINT32_MAX - slot) {
      return Status::Corruption("initial count overflows 32 bits");
    }
    slot += c;
    return Status::OK();
  });
}

void EncodeCoverStep(VertexId v, WireWriter* w) { w->U32(v); }

StatusOr<VertexId> DecodeCoverStep(const std::string& payload) {
  WireReader r(payload);
  VertexId v = 0;
  KBTIM_RETURN_IF_ERROR(r.U32(&v));
  return v;
}

void EncodeCoverDecrements(const Status& status,
                           const std::vector<uint32_t>& pairs, WireWriter* w) {
  EncodeStatus(status, w);
  if (status.ok()) w->VecU32(pairs);
}

Status DecodeCoverDecrements(const std::string& payload, Status* remote,
                             std::vector<uint32_t>* count) {
  WireReader r(payload);
  KBTIM_RETURN_IF_ERROR(DecodeStatus(&r, remote));
  if (!remote->ok()) return Status::OK();
  return DecodePairs(&r, count->size(), [&](VertexId v, uint32_t d) {
    uint32_t& slot = (*count)[v];
    if (d > slot) return Status::Corruption("decrement above the count");
    slot -= d;
    return Status::OK();
  });
}

}  // namespace net
}  // namespace kbtim
