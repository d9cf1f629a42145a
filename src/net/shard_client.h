// ShardClient: one logical connection to a ShardServer with bounded
// timeouts and bounded reconnects.
//
// The client is a thin request/response pipe: it frames a message, sends
// it, and waits for the matching response frame. Failure semantics are
// what the router's breaker logic feeds on:
//
//   * Any socket-op failure (connect refused, send/recv timeout, peer
//     closed, frame CRC mismatch) is a TRANSPORT failure. The client
//     drops the connection, and — because every RPC here is idempotent
//     (meta reads, query solves, block fetches; shards mutate nothing) —
//     redials and resends up to max_reconnects times before surfacing
//     kUnavailable.
//   * A response frame that parses but carries a non-OK remote Status is
//     an APPLICATION error (admission drop, deadline, bad query...). It
//     is returned as-is, the connection stays up, and the router must NOT
//     count it against the shard's failure domain — a shard saying
//     "queue full" is alive.
//
// Not thread-safe: one conversation at a time per client. The router
// keeps one client per (shard, in-flight attempt) and pools them, so the
// request and response buffers a client keeps across RPCs stop allocating
// once they have grown to the largest message the client has seen.
#ifndef KBTIM_NET_SHARD_CLIENT_H_
#define KBTIM_NET_SHARD_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "index/index_format.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "sampling/solver_result.h"
#include "serving/service_request.h"

namespace kbtim {
namespace net {

struct ShardClientOptions {
  double connect_timeout_ms = 1000.0;
  /// Per-socket-op budget for request/response I/O. A full solve must
  /// finish within one op timeout once the response starts arriving;
  /// callers bound end-to-end time with request deadlines.
  double io_timeout_ms = 5000.0;
  /// Redials after a transport failure before giving up (the op that
  /// failed is resent — all shard RPCs are idempotent reads).
  uint32_t max_reconnects = 1;
};

class ShardClient {
 public:
  ShardClient(std::string host, uint16_t port, ShardClientOptions options = {})
      : host_(std::move(host)), port_(port), options_(options) {}

  /// `transport_failed` (optional): set true when the RPC died in
  /// TRANSPORT (unreachable / torn frames after max_reconnects) and false
  /// when it completed — even with an application error. The router's
  /// breaker verdicts hang on this bit: a shard answering "queue full" is
  /// alive; a shard that cannot answer is the failure-domain signal.
  StatusOr<IndexMeta> FetchMeta(bool* transport_failed = nullptr);
  StatusOr<SeedSetResult> Query(const ServiceRequest& request,
                                bool* transport_failed = nullptr);
  StatusOr<RrFetchResult> FetchRr(const RrFetchRequest& request,
                                  bool* transport_failed = nullptr);

  /// Drops the connection (the next RPC redials). Tests use this to
  /// exercise the reconnect path explicitly.
  void Disconnect() { conn_.Close(); }

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

 private:
  /// Sends request_ (already framed) and reads one response frame of
  /// type `expect` into response_, redialing on transport failures per
  /// max_reconnects.
  Status RoundTrip(MsgType expect, bool* transport_failed);

  /// One attempt over the current connection (dials if needed).
  Status RoundTripOnce(MsgType expect);

  std::string host_;
  uint16_t port_;
  ShardClientOptions options_;
  Socket conn_;
  std::string request_;   ///< The frame being sent.
  std::string response_;  ///< The last response payload, decoded in place.
};

}  // namespace net
}  // namespace kbtim

#endif  // KBTIM_NET_SHARD_CLIENT_H_
