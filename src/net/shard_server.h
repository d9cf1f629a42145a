// ShardServer: one QueryService exposed over the framed TCP protocol.
//
// A shard process opens ONE index directory and serves, on a loopback
// listener (wire_format.h):
//   * kMetaRequest — its IndexMeta, so a router can compute query budgets
//     locally;
//   * kQueryRequest — a full solve through QueryService::Submit, deadlines
//     and admission control included;
//   * kFetchRequest — raw per-keyword RR blocks (warm-up and probes);
//   * cover sessions, the unit a router's greedy runs on (router.h).
//
// Cover sessions. kCoverOpen carries an RrFetchRequest, which QueryService
// admits exactly like a fetch (admission, lanes, wire deadlines and
// per-topic breakers all apply). The handler then pins the fetched blocks
// in an RrCover (index/rr_greedy.h) and answers kCoverCounts: the topics
// the shard dropped and the sparse sum of the session's initial counts.
// Each kCoverStep names the vertex the router's greedy selected: the
// handler marks its sets covered in every session keyword and answers
// kCoverDecrements, the sparse per-vertex sums of the count decrements.
// A step naming kEndCoverSession ends the session. A session lives in
// its connection's handler, one at a time (a new open replaces it), and
// ends when the router ends it or the connection closes; a step on a
// connection with no session is answered FailedPrecondition.
//
// Threading: one accept-loop thread polls the listener with a short
// timeout so Stop() is prompt, and joins the handlers of connections that
// have closed; each accepted connection gets a handler thread that serves
// frames sequentially until the peer closes or a frame fails to parse
// (parse failures close the connection — the stream cannot be
// resynchronized, and the client treats it as a transport failure). A
// handler keeps its request and response buffers and its session's
// scratch for the life of the connection, so it stops allocating after
// the largest message. Solves and fetches run on the QueryService's own
// worker pool, so the service's lane scheduler and admission control
// govern multi-client fairness exactly as in-process.
//
// Every shard process opens the FULL index directory: keyword ownership
// is the router's cache-affinity contract, not a data-placement one, so a
// hedged session on a non-owner shard is always answerable (colder, never
// wrong) and a dead shard degrades availability, not correctness.
#ifndef KBTIM_NET_SHARD_SERVER_H_
#define KBTIM_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "index/rr_greedy.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "serving/query_service.h"

namespace kbtim {
namespace net {

struct ShardServerOptions {
  /// Listen port; 0 binds a kernel-assigned port (see port()).
  uint16_t port = 0;

  /// Accept-loop poll granularity (Stop() latency bound).
  double accept_poll_ms = 50.0;

  /// Per-socket-op timeout for request/response I/O with a client.
  double io_timeout_ms = 5000.0;

  /// The wrapped service's configuration.
  QueryServiceOptions service;
};

/// One connection's side of the protocol: executes each request frame
/// against `service` and holds the connection's cover session. Not
/// thread-safe; a connection serves one frame at a time.
class ConnectionHandler {
 public:
  /// `open_sessions` counts the sessions open across all handlers.
  ConnectionHandler(QueryService& service,
                    std::atomic<uint32_t>& open_sessions);
  ~ConnectionHandler() { EndSession(); }

  ConnectionHandler(const ConnectionHandler&) = delete;
  ConnectionHandler& operator=(const ConnectionHandler&) = delete;

  /// Decodes and executes one request frame and builds the response frame
  /// in `*response`. Non-OK (kCorruption) when the request cannot be
  /// parsed or names a vertex past the index: the caller must close the
  /// connection.
  Status Handle(MsgType type, const std::string& payload,
                std::string* response);

 private:
  void OpenSession(const RrFetchRequest& request, std::string* response);
  Status Step(VertexId v, std::string* response);
  void EndSession();

  QueryService& service_;
  std::atomic<uint32_t>& open_sessions_;
  const VertexId num_vertices_;

  bool session_open_ = false;
  RrCover cover_;
  /// Per-vertex sums, all zero between frames, and the vertices a step
  /// made non-zero (sized num_vertices + 1 at the first open).
  std::vector<uint32_t> scratch_;
  std::vector<VertexId> touched_;
  /// The sparse (vertex, value) pairs of the reply being built.
  std::vector<uint32_t> pairs_;
};

/// One serving shard: an index directory behind a TCP listener.
class ShardServer {
 public:
  /// Opens `dir`, starts the QueryService and the accept loop.
  static StatusOr<std::unique_ptr<ShardServer>> Start(
      const std::string& dir, ShardServerOptions options = {});

  /// Stops accepting, joins connection handlers, destroys the service
  /// (queued requests fail Unavailable, in-flight ones finish).
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound port (== options.port unless that was 0).
  uint16_t port() const { return listener_.port(); }

  /// The wrapped service — tests read its stats() through this.
  QueryService& service() { return *service_; }

  /// Connection handler threads not yet joined: live connections plus
  /// closed ones the accept loop has not reaped yet.
  size_t connection_handlers() const EXCLUDES(conn_mu_);

  /// Cover sessions open across all connections.
  uint32_t open_cover_sessions() const {
    return open_sessions_.load(std::memory_order_acquire);
  }

 private:
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  ShardServer(ShardServerOptions options, ServerSocket listener,
              std::unique_ptr<QueryService> service);

  void AcceptLoop();
  void ServeConnection(Socket conn);
  /// Joins the handlers whose connections have ended.
  void ReapHandlers() EXCLUDES(conn_mu_);

  const ShardServerOptions options_;
  ServerSocket listener_;
  std::unique_ptr<QueryService> service_;
  std::atomic<uint32_t> open_sessions_{0};

  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  mutable Mutex conn_mu_;
  std::list<Handler> handlers_ GUARDED_BY(conn_mu_);
};

}  // namespace net
}  // namespace kbtim

#endif  // KBTIM_NET_SHARD_SERVER_H_
