#include "net/shard_client.h"

#include <utility>

namespace kbtim {
namespace net {

Status ShardClient::Send() {
  if (!conn_.valid()) {
    KBTIM_ASSIGN_OR_RETURN(
        conn_, Socket::Connect(host_, port_, options_.connect_timeout_ms));
  }
  Status io =
      conn_.SendAll(request_.data(), request_.size(), options_.io_timeout_ms);
  // A failed send leaves the stream in an unknown state: it cannot carry
  // another request.
  if (!io.ok()) conn_.Close();
  return io;
}

Status ShardClient::Recv(MsgType expect) {
  FrameHeader header;
  Status io = RecvFrame(conn_, options_.io_timeout_ms, &header, &response_);
  if (io.ok() && header.type != expect) {
    io = Status::Corruption("unexpected response type");
  }
  if (!io.ok()) {
    conn_.Close();
    return io;
  }
  received_bytes_ += kFrameHeaderSize + response_.size();
  return io;
}

Status ShardClient::RoundTripOnce(MsgType expect) {
  KBTIM_RETURN_IF_ERROR(Send());
  return Recv(expect);
}

Status ShardClient::RoundTrip(MsgType expect, bool* transport_failed) {
  return Retry(RoundTripOnce(expect), expect, transport_failed);
}

Status ShardClient::Retry(Status first, MsgType expect,
                          bool* transport_failed) {
  if (transport_failed != nullptr) *transport_failed = false;
  Status last = std::move(first);
  for (uint32_t attempt = 0; !last.ok() && attempt < options_.max_reconnects;
       ++attempt) {
    last = RoundTripOnce(expect);
  }
  if (last.ok()) return last;
  // Normalize to kUnavailable: the router keys breaker verdicts and
  // hedging off "this shard is unreachable", not the flavor of socket
  // error the last attempt happened to hit.
  if (transport_failed != nullptr) *transport_failed = true;
  return Status::Unavailable("shard " + host_ + ":" + std::to_string(port_) +
                             " unreachable: " + last.message());
}

StatusOr<IndexMeta> ShardClient::FetchMeta(bool* transport_failed) {
  EncodeFrame(MsgType::kMetaRequest, [](WireWriter*) {}, &request_);
  KBTIM_RETURN_IF_ERROR(RoundTrip(MsgType::kMetaResponse, transport_failed));
  return DecodeMetaResponse(response_);
}

StatusOr<SeedSetResult> ShardClient::Query(const ServiceRequest& request,
                                           bool* transport_failed) {
  EncodeFrame(MsgType::kQueryRequest,
              [&](WireWriter* w) { EncodeQueryRequest(request, w); },
              &request_);
  KBTIM_RETURN_IF_ERROR(RoundTrip(MsgType::kQueryResponse, transport_failed));
  return DecodeQueryResponse(response_);
}

StatusOr<RrFetchResult> ShardClient::FetchRr(const RrFetchRequest& request,
                                             bool* transport_failed) {
  EncodeFrame(MsgType::kFetchRequest,
              [&](WireWriter* w) { EncodeFetchRequest(request, w); },
              &request_);
  KBTIM_RETURN_IF_ERROR(RoundTrip(MsgType::kFetchResponse, transport_failed));
  return DecodeFetchResponse(response_);
}

void ShardClient::StartCoverOpen(const RrFetchRequest& request) {
  EncodeFrame(MsgType::kCoverOpen,
              [&](WireWriter* w) { EncodeFetchRequest(request, w); },
              &request_);
  open_sent_ = Send();
}

Status ShardClient::FinishCoverOpen(std::vector<TopicId>* dropped,
                                    std::vector<uint32_t>* count,
                                    bool* transport_failed) {
  Status first = std::move(open_sent_);
  if (first.ok()) first = Recv(MsgType::kCoverCounts);
  KBTIM_RETURN_IF_ERROR(
      Retry(std::move(first), MsgType::kCoverCounts, transport_failed));
  Status remote;
  const Status decoded = DecodeCoverCounts(response_, &remote, dropped, count);
  if (!decoded.ok()) {
    conn_.Close();
    if (transport_failed != nullptr) *transport_failed = true;
    return decoded;
  }
  return remote;
}

Status ShardClient::SendCoverStep(VertexId v) {
  EncodeFrame(MsgType::kCoverStep,
              [v](WireWriter* w) { EncodeCoverStep(v, w); }, &request_);
  Status io =
      conn_.SendAll(request_.data(), request_.size(), options_.io_timeout_ms);
  if (!io.ok()) conn_.Close();
  return io;
}

Status ShardClient::RecvCoverStep(std::vector<uint32_t>* count) {
  KBTIM_RETURN_IF_ERROR(Recv(MsgType::kCoverDecrements));
  Status remote;
  Status applied = DecodeCoverDecrements(response_, &remote, count);
  if (applied.ok()) applied = std::move(remote);
  if (!applied.ok()) conn_.Close();
  return applied;
}

}  // namespace net
}  // namespace kbtim
