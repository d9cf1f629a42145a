// ShardServer: one QueryService exposed over the framed TCP protocol.
//
// A shard process opens ONE index directory and serves three RPCs on a
// loopback listener (wire_format.h): kMetaRequest (its IndexMeta, so a
// router can compute query budgets locally), kQueryRequest (a full solve
// through QueryService::Submit, deadlines and admission control included)
// and kFetchRequest (raw per-keyword RR blocks — the scatter-gather unit
// the router runs the shared greedy over).
//
// Threading: one accept-loop thread polls the listener with a short
// timeout so Stop() is prompt; each accepted connection gets a handler
// thread that serves frames sequentially until the peer closes or a frame
// fails to parse (parse failures close the connection — the stream cannot
// be resynchronized, and the client treats it as a transport failure).
// A handler keeps its request and response buffers for the life of the
// connection, so serving multi-MB RR blocks stops allocating after the
// largest one.
// Request execution happens on the QueryService's own worker pool, so a
// slow solve never blocks frame handling for OTHER connections, and the
// service's lane scheduler / admission control govern multi-client
// fairness exactly as in-process.
//
// Every shard process opens the FULL index directory: keyword ownership
// is the router's cache-affinity contract, not a data-placement one, so a
// hedged fetch to a non-owner shard is always answerable (colder, never
// wrong) and a dead shard degrades availability, not correctness.
#ifndef KBTIM_NET_SHARD_SERVER_H_
#define KBTIM_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
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

 private:
  ShardServer(ShardServerOptions options, ServerSocket listener,
              std::unique_ptr<QueryService> service);

  void AcceptLoop();
  void ServeConnection(Socket conn);

  /// Decodes + executes one request frame and builds the response frame
  /// in `*response`. Non-OK only for parse errors that must close the
  /// socket.
  Status HandleFrame(MsgType type, const std::string& payload,
                     std::string* response);

  const ShardServerOptions options_;
  ServerSocket listener_;
  std::unique_ptr<QueryService> service_;

  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  Mutex conn_mu_;
  std::vector<std::thread> conn_threads_ GUARDED_BY(conn_mu_);
};

}  // namespace net
}  // namespace kbtim

#endif  // KBTIM_NET_SHARD_SERVER_H_
