#include "net/shard_server.h"

#include <utility>

#include "common/logging.h"
#include "net/wire_format.h"

namespace kbtim {
namespace net {

StatusOr<std::unique_ptr<ShardServer>> ShardServer::Start(
    const std::string& dir, ShardServerOptions options) {
  KBTIM_ASSIGN_OR_RETURN(std::unique_ptr<QueryService> service,
                         QueryService::Create(dir, options.service));
  KBTIM_ASSIGN_OR_RETURN(ServerSocket listener,
                         ServerSocket::Listen(options.port));
  return std::unique_ptr<ShardServer>(new ShardServer(
      std::move(options), std::move(listener), std::move(service)));
}

ShardServer::ShardServer(ShardServerOptions options, ServerSocket listener,
                         std::unique_ptr<QueryService> service)
    : options_(std::move(options)),
      listener_(std::move(listener)),
      service_(std::move(service)) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

ShardServer::~ShardServer() {
  stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    MutexLock lock(&conn_mu_);
    handlers.swap(conn_threads_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  // QueryService teardown (fail queued, finish in-flight) happens in
  // service_'s destructor after every handler released its futures.
}

void ShardServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    StatusOr<Socket> conn = listener_.Accept(options_.accept_poll_ms);
    if (!conn.ok()) continue;  // timeout poll or transient accept error
    MutexLock lock(&conn_mu_);
    if (stop_.load(std::memory_order_relaxed)) break;
    conn_threads_.emplace_back(
        [this, c = std::make_shared<Socket>(std::move(*conn))]() mutable {
          ServeConnection(std::move(*c));
        });
  }
}

void ShardServer::ServeConnection(Socket conn) {
  FrameHeader header;
  std::string request;
  std::string response;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Short readable-polls between stop checks: a quiet connection must
    // not pin this handler past ~accept_poll_ms at shutdown.
    StatusOr<bool> readable = conn.PollReadable(options_.accept_poll_ms);
    if (!readable.ok()) return;
    if (!*readable) continue;
    // A torn, desynchronized or corrupt frame closes the connection.
    if (!RecvFrame(conn, options_.io_timeout_ms, &header, &request).ok()) {
      return;
    }
    if (!HandleFrame(header.type, request, &response).ok()) return;
    if (!conn.SendAll(response.data(), response.size(),
                      options_.io_timeout_ms)
             .ok()) {
      return;
    }
  }
}

Status ShardServer::HandleFrame(MsgType type, const std::string& payload,
                                std::string* response) {
  switch (type) {
    case MsgType::kMetaRequest: {
      const StatusOr<IndexMeta> meta = service_->meta();
      EncodeFrame(MsgType::kMetaResponse,
                  [&](WireWriter* w) { EncodeMetaResponse(meta, w); },
                  response);
      return Status::OK();
    }
    case MsgType::kQueryRequest: {
      StatusOr<ServiceRequest> request = DecodeQueryRequest(payload);
      if (!request.ok()) return request.status();  // parse error: close
      // Execute on the service's worker pool: admission control, lanes,
      // deadlines and failure domains all apply as in-process.
      const StatusOr<SeedSetResult> result = service_->Execute(*request);
      EncodeFrame(MsgType::kQueryResponse,
                  [&](WireWriter* w) { EncodeQueryResponse(result, w); },
                  response);
      return Status::OK();
    }
    case MsgType::kFetchRequest: {
      StatusOr<RrFetchRequest> request = DecodeFetchRequest(payload);
      if (!request.ok()) return request.status();
      const StatusOr<RrFetchResult> result =
          service_->ExecuteFetch(std::move(*request));
      EncodeFrame(MsgType::kFetchResponse,
                  [&](WireWriter* w) { EncodeFetchResponse(result, w); },
                  response);
      return Status::OK();
    }
    default:
      // Response types arriving on the server side mean the peer lost
      // frame sync; close rather than guess.
      return Status::Corruption("unexpected frame type on server");
  }
}

}  // namespace net
}  // namespace kbtim
