#include "net/shard_client.h"

#include <utility>

namespace kbtim {
namespace net {

Status ShardClient::RoundTripOnce(MsgType expect) {
  if (!conn_.valid()) {
    KBTIM_ASSIGN_OR_RETURN(
        conn_, Socket::Connect(host_, port_, options_.connect_timeout_ms));
  }
  Status io =
      conn_.SendAll(request_.data(), request_.size(), options_.io_timeout_ms);
  FrameHeader header;
  if (io.ok()) {
    io = RecvFrame(conn_, options_.io_timeout_ms, &header, &response_);
  }
  if (io.ok() && header.type != expect) {
    io = Status::Corruption("unexpected response type");
  }
  if (io.ok()) return io;
  // Transport or framing failure: this connection's stream state is
  // unknown, so it cannot carry another request.
  conn_.Close();
  return io;
}

Status ShardClient::RoundTrip(MsgType expect, bool* transport_failed) {
  if (transport_failed != nullptr) *transport_failed = false;
  Status last = Status::OK();
  for (uint32_t attempt = 0; attempt <= options_.max_reconnects; ++attempt) {
    last = RoundTripOnce(expect);
    if (last.ok()) return last;
  }
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

}  // namespace net
}  // namespace kbtim
