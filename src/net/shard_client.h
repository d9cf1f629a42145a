// ShardClient: one logical connection to a ShardServer with bounded
// timeouts and bounded reconnects.
//
// The client is a thin request/response pipe: it frames a message, sends
// it, and waits for the matching response frame. Failure semantics are
// what the router's breaker logic feeds on:
//
//   * Any socket-op failure (connect refused, send/recv timeout, peer
//     closed, frame CRC mismatch) is a TRANSPORT failure. The client
//     drops the connection, and — because meta reads, query solves, block
//     fetches and cover-session opens are idempotent on a fresh
//     connection — redials and resends up to max_reconnects times before
//     surfacing kUnavailable.
//   * Cover-session steps are not idempotent: a session lives on the one
//     connection that opened it. A step is never redialed or resent; any
//     failure closes the connection, which ends the session on the shard,
//     and the caller must treat the session as lost.
//   * A response frame that parses but carries a non-OK remote Status is
//     an APPLICATION error (admission drop, deadline, bad query...). It
//     is returned as-is, the connection stays up, and the router must NOT
//     count it against the shard's failure domain — a shard saying
//     "queue full" is alive.
//
// Not thread-safe: one conversation at a time per client. The router
// keeps one client per (shard, in-flight query) and pools them, so the
// request and response buffers a client keeps across RPCs stop allocating
// once they have grown to the largest message the client has seen.
#ifndef KBTIM_NET_SHARD_CLIENT_H_
#define KBTIM_NET_SHARD_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

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
  /// failed is resent; cover-session steps never are).
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

  /// Opens a cover session (shard_server.h) in two halves, so a router
  /// can open sessions on several shards at once: StartCoverOpen sends the
  /// request, FinishCoverOpen waits for the reply, lists the topics the
  /// shard dropped in *dropped and adds its initial counts into *count
  /// (one entry per vertex). A transport failure redials and resends as
  /// for any RPC; a malformed reply also sets *transport_failed and
  /// closes the connection. A non-OK Status from the shard is returned
  /// with the connection kept.
  void StartCoverOpen(const RrFetchRequest& request);
  Status FinishCoverOpen(std::vector<TopicId>* dropped,
                         std::vector<uint32_t>* count,
                         bool* transport_failed = nullptr);

  /// Sends one step of the open session: the vertex to cover, or
  /// kEndCoverSession. Never dials.
  Status SendCoverStep(VertexId v);

  /// Receives a step's reply and subtracts its decrements from *count (an
  /// end-of-session reply carries none; pass an empty vector to require
  /// that). Any failure — transport, a malformed or out-of-range reply,
  /// or a non-OK Status from the shard — closes the connection.
  Status RecvCoverStep(std::vector<uint32_t>* count);

  /// Bytes of response frames received so far, headers included.
  uint64_t received_bytes() const { return received_bytes_; }

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

  /// Finishes an RPC whose first attempt ended in `first`: redials and
  /// resends up to max_reconnects times, then normalizes a transport
  /// failure to kUnavailable.
  Status Retry(Status first, MsgType expect, bool* transport_failed);

  /// One attempt over the current connection (dials if needed).
  Status RoundTripOnce(MsgType expect);

  /// Sends request_, dialing if needed. Closes the connection on failure.
  Status Send();

  /// Reads one response frame of type `expect` into response_. Closes
  /// the connection on failure.
  Status Recv(MsgType expect);

  std::string host_;
  uint16_t port_;
  ShardClientOptions options_;
  Socket conn_;
  std::string request_;   ///< The frame being sent.
  std::string response_;  ///< The last response payload, decoded in place.
  Status open_sent_;      ///< How StartCoverOpen's send went.
  uint64_t received_bytes_ = 0;
};

}  // namespace net
}  // namespace kbtim

#endif  // KBTIM_NET_SHARD_CLIENT_H_
