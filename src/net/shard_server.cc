#include "net/shard_server.h"

#include <iterator>
#include <utility>

#include "common/logging.h"
#include "net/wire_format.h"

namespace kbtim {
namespace net {

// ---- ConnectionHandler -------------------------------------------------------

ConnectionHandler::ConnectionHandler(QueryService& service,
                                     std::atomic<uint32_t>& open_sessions)
    : service_(service),
      open_sessions_(open_sessions),
      num_vertices_(service.meta().num_vertices) {}

Status ConnectionHandler::Handle(MsgType type, const std::string& payload,
                                 std::string* response) {
  switch (type) {
    case MsgType::kMetaRequest: {
      const StatusOr<IndexMeta> meta = service_.meta();
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
      const StatusOr<SeedSetResult> result = service_.Execute(*request);
      EncodeFrame(MsgType::kQueryResponse,
                  [&](WireWriter* w) { EncodeQueryResponse(result, w); },
                  response);
      return Status::OK();
    }
    case MsgType::kFetchRequest: {
      StatusOr<RrFetchRequest> request = DecodeFetchRequest(payload);
      if (!request.ok()) return request.status();
      const StatusOr<RrFetchResult> result =
          service_.ExecuteFetch(std::move(*request));
      EncodeFrame(MsgType::kFetchResponse,
                  [&](WireWriter* w) { EncodeFetchResponse(result, w); },
                  response);
      return Status::OK();
    }
    case MsgType::kCoverOpen: {
      StatusOr<RrFetchRequest> request = DecodeFetchRequest(payload);
      if (!request.ok()) return request.status();
      OpenSession(*request, response);
      return Status::OK();
    }
    case MsgType::kCoverStep: {
      StatusOr<VertexId> v = DecodeCoverStep(payload);
      if (!v.ok()) return v.status();
      if (*v == kEndCoverSession) {
        EndSession();
        pairs_.clear();
        EncodeFrame(MsgType::kCoverDecrements,
                    [&](WireWriter* w) {
                      EncodeCoverDecrements(Status::OK(), pairs_, w);
                    },
                    response);
        return Status::OK();
      }
      return Step(*v, response);
    }
    default:
      // Response types arriving on the server side mean the peer lost
      // frame sync; close rather than guess.
      return Status::Corruption("unexpected frame type on server");
  }
}

void ConnectionHandler::OpenSession(const RrFetchRequest& request,
                                    std::string* response) {
  EndSession();
  // Admitted exactly like a fetch; the blocks it returns stay pinned in
  // cover_ until the session ends.
  const StatusOr<RrFetchResult> fetched = service_.ExecuteFetch(request);
  pairs_.clear();
  if (fetched.ok()) {
    for (size_t i = 0; i < request.topics.size(); ++i) {
      if (fetched->blocks[i] != nullptr && request.budgets[i] > 0) {
        cover_.Add(fetched->blocks[i], request.budgets[i]);
      }
    }
    scratch_.resize(num_vertices_, 0);
    touched_.resize(size_t{num_vertices_} + 1);
    cover_.AddCounts(scratch_);
    // One pass over every vertex, branch-free: each slot is written, and
    // kept only when its count is non-zero.
    pairs_.resize(2 * size_t{num_vertices_});
    size_t kept = 0;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      pairs_[2 * kept] = v;
      pairs_[2 * kept + 1] = scratch_[v];
      kept += scratch_[v] != 0 ? 1 : 0;
      scratch_[v] = 0;
    }
    pairs_.resize(2 * kept);
    session_open_ = true;
    open_sessions_.fetch_add(1, std::memory_order_acq_rel);
  }
  static const std::vector<TopicId> kNone;
  EncodeFrame(MsgType::kCoverCounts,
              [&](WireWriter* w) {
                EncodeCoverCounts(fetched.status(),
                                  fetched.ok() ? fetched->dropped : kNone,
                                  pairs_, w);
              },
              response);
}

Status ConnectionHandler::Step(VertexId v, std::string* response) {
  if (v >= num_vertices_) {
    return Status::Corruption("cover step vertex out of range");
  }
  pairs_.clear();
  Status status = Status::OK();
  if (session_open_) {
    // Sum the decrements per vertex. A vertex is listed the first time
    // its sum leaves 0; the slot is written either way, so the hot loop
    // has no data-dependent branch (touched_ holds num_vertices + 1).
    size_t listed = 0;
    cover_.Cover(v, [&](VertexId u) {
      touched_[listed] = u;
      listed += scratch_[u]++ == 0 ? 1 : 0;
    });
    pairs_.resize(2 * listed);
    for (size_t i = 0; i < listed; ++i) {
      const VertexId u = touched_[i];
      pairs_[2 * i] = u;
      pairs_[2 * i + 1] = scratch_[u];
      scratch_[u] = 0;
    }
  } else {
    status = Status::FailedPrecondition("no cover session on this connection");
  }
  EncodeFrame(MsgType::kCoverDecrements,
              [&](WireWriter* w) { EncodeCoverDecrements(status, pairs_, w); },
              response);
  return Status::OK();
}

void ConnectionHandler::EndSession() {
  if (!session_open_) return;
  cover_.Clear();
  session_open_ = false;
  open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

// ---- ShardServer -------------------------------------------------------------

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
  std::list<Handler> handlers;
  {
    MutexLock lock(&conn_mu_);
    handlers.swap(handlers_);
  }
  for (Handler& h : handlers) h.thread.join();
  // QueryService teardown (fail queued, finish in-flight) happens in
  // service_'s destructor after every handler released its futures.
}

size_t ShardServer::connection_handlers() const {
  MutexLock lock(&conn_mu_);
  return handlers_.size();
}

void ShardServer::ReapHandlers() {
  std::list<Handler> finished;
  {
    MutexLock lock(&conn_mu_);
    for (auto it = handlers_.begin(); it != handlers_.end();) {
      const auto next = std::next(it);
      if (it->done.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), handlers_, it);
      }
      it = next;
    }
  }
  for (Handler& h : finished) h.thread.join();
}

void ShardServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    ReapHandlers();
    StatusOr<Socket> conn = listener_.Accept(options_.accept_poll_ms);
    if (!conn.ok()) continue;  // timeout poll or transient accept error
    MutexLock lock(&conn_mu_);
    if (stop_.load(std::memory_order_relaxed)) break;
    // A list node stays put until its own handler is reaped, so the
    // thread may hold a reference to it.
    Handler& h = handlers_.emplace_back();
    h.thread = std::thread(
        [this, &h, c = std::make_shared<Socket>(std::move(*conn))]() mutable {
          ServeConnection(std::move(*c));
          h.done.store(true, std::memory_order_release);
        });
  }
}

void ShardServer::ServeConnection(Socket conn) {
  ConnectionHandler handler(*service_, open_sessions_);
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
    if (!handler.Handle(header.type, request, &response).ok()) return;
    if (!conn.SendAll(response.data(), response.size(),
                      options_.io_timeout_ms)
             .ok()) {
      return;
    }
  }
}

}  // namespace net
}  // namespace kbtim
