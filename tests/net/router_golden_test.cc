// Router golden equality + chaos degradation: a healthy fleet of ANY
// shard count returns answers byte-identical to the single-process RR
// index and ends every cover session before it answers; a dead shard
// degrades (never hangs, never silently-wrong); open breakers shed in
// O(1); replicas absorb a kill with a full answer; a shard lost at the
// first, a middle or the last step of the greedy is hedged (or degraded
// without a replica) and the greedy restarts; and a restarted shard is
// re-admitted within one probe cycle.
#include "net/router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/rr_index.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "storage/fault_injector.h"
#include "testing/scoped_fault_injection.h"

namespace kbtim {
namespace net {
namespace {

using Fleet = std::vector<std::unique_ptr<ShardServer>>;

class RouterGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("kbtim_router_golden_" + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*dir_);

    DatasetSpec spec;
    spec.name = "router";
    spec.graph.num_vertices = 1000;
    spec.graph.avg_degree = 5.0;
    spec.graph.num_communities = 5;
    spec.graph.seed = 91;
    spec.profiles.num_topics = 5;
    spec.profiles.seed = 92;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());

    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 12;
    opts.partition_size = 20;
    opts.num_threads = 2;
    opts.seed = 93;
    opts.max_theta_per_keyword = 20000;
    opts.opt_estimate.pilot_initial = 512;
    IndexBuilder builder((*env)->graph(), (*env)->tfidf(),
                         (*env)->weights(opts.model), opts);
    ASSERT_TRUE(builder.Build(*dir_).ok());
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static ShardServerOptions ShardOptions() {
    ShardServerOptions options;
    options.service.num_workers = 1;
    options.service.cache.prefetch_threads = 0;
    options.service.failure.retry_backoff_ms = 0.0;
    options.service.failure.breaker.backoff_ms = 0.0;
    return options;
  }

  static Fleet StartFleet(size_t n) {
    Fleet fleet;
    for (size_t i = 0; i < n; ++i) {
      auto server = ShardServer::Start(*dir_, ShardOptions());
      EXPECT_TRUE(server.ok()) << server.status();
      if (!server.ok()) return {};
      fleet.push_back(std::move(*server));
    }
    return fleet;
  }

  static std::vector<ShardAddress> Addresses(const Fleet& fleet) {
    std::vector<ShardAddress> addrs;
    for (const auto& server : fleet) {
      addrs.push_back({"127.0.0.1", server->port()});
    }
    return addrs;
  }

  /// Fast-failing transport so a dead shard costs milliseconds per test,
  /// not multi-second timeouts.
  static RouterOptions FastFailOptions() {
    RouterOptions options;
    options.client.connect_timeout_ms = 300.0;
    options.client.io_timeout_ms = 1000.0;
    options.client.max_reconnects = 1;
    return options;
  }

  static void ExpectGoldenEqual(const SeedSetResult& got,
                                const SeedSetResult& golden) {
    EXPECT_EQ(got.seeds, golden.seeds);
    EXPECT_EQ(got.marginal_gains, golden.marginal_gains);
    EXPECT_EQ(got.estimated_influence, golden.estimated_influence);
  }

  static std::string* dir_;
};

std::string* RouterGoldenTest::dir_ = nullptr;

TEST_F(RouterGoldenTest, GoldenEqualAcrossShardCounts) {
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());
  const std::vector<Query> queries = {
      Query{{0}, 6}, Query{{1, 3}, 6}, Query{{2, 4}, 12},
      Query{{0, 1, 2, 3, 4}, 6}};

  for (size_t num_shards : {1u, 2u, 4u}) {
    Fleet fleet = StartFleet(num_shards);
    ASSERT_EQ(fleet.size(), num_shards);
    auto router = Router::Create(Addresses(fleet), FastFailOptions());
    ASSERT_TRUE(router.ok()) << router.status();

    for (const Query& query : queries) {
      auto golden = rr->Query(query);
      ASSERT_TRUE(golden.ok());
      auto remote = (*router)->Query(query);
      ASSERT_TRUE(remote.ok())
          << num_shards << " shards: " << remote.status();
      EXPECT_FALSE(remote->degraded);
      ExpectGoldenEqual(*remote, *golden);
    }
    const RouterStats stats = (*router)->stats();
    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_EQ(stats.full_answers, queries.size());
    EXPECT_EQ(stats.degraded_answers, 0u);
    EXPECT_EQ(stats.failed_queries, 0u);
    EXPECT_EQ(stats.transport_failures, 0u);
    EXPECT_EQ(stats.hedged_rpcs, 0u);
    EXPECT_GE(stats.scatter_rpcs, queries.size());
  }
}

TEST_F(RouterGoldenTest, DeadOwnerDegradesToReducedGolden) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  auto router = Router::Create(Addresses(fleet), FastFailOptions());
  ASSERT_TRUE(router.ok()) << router.status();

  // Aim at topic 0's owner and pick a survivor topic the dead shard does
  // NOT own (rendezvous placement is deterministic, so this always finds
  // the same pair — or proves the fleet degenerate).
  const uint32_t dead = (*router)->ReplicasOf(0)[0];
  TopicId survivor = 0;
  bool found = false;
  for (TopicId t = 1; t < 5; ++t) {
    if ((*router)->ReplicasOf(t)[0] != dead) {
      survivor = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "one shard owns every topic; rehash the fleet";
  fleet[dead].reset();  // SIGKILL-equivalent: the port goes dead

  auto degraded = (*router)->Query(Query{{0, survivor}, 6});
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->dropped_keywords, std::vector<TopicId>{0});

  // The degraded answer IS the full answer of the reduced query.
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());
  auto reduced_golden = rr->Query(Query{{survivor}, 6});
  ASSERT_TRUE(reduced_golden.ok());
  ExpectGoldenEqual(*degraded, *reduced_golden);

  const RouterStats stats = (*router)->stats();
  EXPECT_EQ(stats.degraded_answers, 1u);
  EXPECT_EQ(stats.keywords_dropped, 1u);
  EXPECT_GE(stats.transport_failures, 1u);
  EXPECT_EQ(stats.failed_queries, 0u);

  // Every keyword lost => kUnavailable, not a hang and not an empty
  // "full" answer.
  std::vector<TopicId> only_dead;
  for (TopicId t = 0; t < 5; ++t) {
    if ((*router)->ReplicasOf(t)[0] == dead) only_dead.push_back(t);
  }
  auto unavailable = (*router)->Query(Query{only_dead, 6});
  ASSERT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.status().code(), StatusCode::kUnavailable);
}

TEST_F(RouterGoldenTest, OpenBreakerShedsWithoutTouchingTransport) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  RouterOptions options = FastFailOptions();
  options.breaker.failure_threshold = 1;   // one strike opens the domain
  options.breaker.backoff_ms = 60000.0;    // and it stays open all test
  options.client.max_reconnects = 0;
  auto router = Router::Create(Addresses(fleet), options);
  ASSERT_TRUE(router.ok()) << router.status();

  const uint32_t dead = (*router)->ReplicasOf(0)[0];
  fleet[dead].reset();

  // First query pays the transport attempt and trips the breaker.
  auto first = (*router)->Query(Query{{0, 1, 2, 3, 4}, 6});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->degraded);
  const RouterStats after_first = (*router)->stats();
  EXPECT_GE(after_first.transport_failures, 1u);
  EXPECT_EQ(after_first.breaker_opens, 1u);
  EXPECT_EQ((*router)->ShardState(dead), BreakerState::kOpen);

  // Second query sheds the dead shard in O(1): its keywords are dropped
  // WITHOUT a single further transport attempt.
  auto second = (*router)->Query(Query{{0, 1, 2, 3, 4}, 6});
  const RouterStats after_second = (*router)->stats();
  EXPECT_GE(after_second.breaker_sheds, 1u);
  EXPECT_EQ(after_second.transport_failures, after_first.transport_failures);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->degraded);
}

TEST_F(RouterGoldenTest, ReplicaHedgeAbsorbsAKilledShard) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  RouterOptions options = FastFailOptions();
  options.replication_factor = 2;  // every keyword has a hedge target
  auto router = Router::Create(Addresses(fleet), options);
  ASSERT_TRUE(router.ok()) << router.status();

  const Query query{{0, 1, 2, 3, 4}, 6};
  const uint32_t dead = (*router)->ReplicasOf(0)[0];
  fleet[dead].reset();

  // The dead shard's keywords hedge to the surviving replica: the answer
  // stays FULL and golden-equal — replication turned the kill into
  // latency, not degradation.
  auto hedged = (*router)->Query(query);
  ASSERT_TRUE(hedged.ok()) << hedged.status();
  EXPECT_FALSE(hedged->degraded);
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());
  auto golden = rr->Query(query);
  ASSERT_TRUE(golden.ok());
  ExpectGoldenEqual(*hedged, *golden);

  const RouterStats stats = (*router)->stats();
  EXPECT_EQ(stats.full_answers, 1u);
  EXPECT_GE(stats.hedged_rpcs, 1u);
  EXPECT_GE(stats.transport_failures, 1u);
  EXPECT_EQ(stats.keywords_dropped, 0u);
}

TEST_F(RouterGoldenTest, RestartedShardReAdmittedWithinOneProbeCycle) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  RouterOptions options = FastFailOptions();
  options.breaker.failure_threshold = 1;
  options.breaker.backoff_ms = 0.0;  // probe eligible immediately
  options.breaker.jitter_fraction = 0.0;
  auto router = Router::Create(Addresses(fleet), options);
  ASSERT_TRUE(router.ok()) << router.status();

  const Query query{{0, 1, 2, 3, 4}, 6};
  auto golden = (*router)->Query(query);
  ASSERT_TRUE(golden.ok());
  ASSERT_FALSE(golden->degraded);

  const uint32_t dead = (*router)->ReplicasOf(0)[0];
  const uint16_t dead_port = fleet[dead]->port();
  fleet[dead].reset();

  auto during = (*router)->Query(query);
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_TRUE(during->degraded);
  EXPECT_EQ((*router)->ShardState(dead), BreakerState::kOpen);

  // Restart on the SAME port (the real deployment shape: supervisor
  // respawns the shard in place).
  ShardServerOptions restart = ShardOptions();
  restart.port = dead_port;
  auto revived = ShardServer::Start(*dir_, restart);
  ASSERT_TRUE(revived.ok()) << revived.status();
  fleet[dead] = std::move(*revived);

  // Zero backoff: the very next query IS the half-open probe. It lands,
  // closes the breaker, and the answer is already golden-equal full.
  auto recovered = (*router)->Query(query);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->degraded);
  ExpectGoldenEqual(*recovered, *golden);
  EXPECT_EQ((*router)->ShardState(dead), BreakerState::kClosed);

  const RouterStats stats = (*router)->stats();
  EXPECT_GE(stats.breaker_probes, 1u);
  EXPECT_GE(stats.breaker_closes, 1u);
}

/// Waits (bounded) until no shard of `fleet` holds a cover session: a
/// session whose connection the router closed ends when its handler sees
/// the close.
void ExpectNoSessions(const Fleet& fleet) {
  for (const auto& server : fleet) {
    for (int i = 0; i < 200 && server->open_cover_sessions() > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server->open_cover_sessions(), 0u);
  }
}

TEST_F(RouterGoldenTest, EveryQueryEndsItsSessions) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  auto router = Router::Create(Addresses(fleet), FastFailOptions());
  ASSERT_TRUE(router.ok()) << router.status();
  const Query query{{0, 1, 2, 3, 4}, 12};
  for (int i = 0; i < 3; ++i) {
    auto answer = (*router)->Query(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    // The router ends every session before it answers: no shard holds
    // one, or pins a block, between queries.
    for (const auto& server : fleet) {
      EXPECT_EQ(server->open_cover_sessions(), 0u);
    }
  }
  const RouterStats stats = (*router)->stats();
  EXPECT_EQ(stats.greedy_restarts, 0u);
  EXPECT_EQ(stats.transport_failures, 0u);
  // One step per selected seed on every session.
  EXPECT_GE(stats.cover_steps, 3u * query.k);
  EXPECT_LE(stats.cover_steps, 3u * query.k * fleet.size());
  EXPECT_GT(stats.response_bytes, 0u);
}

/// Where a transport fault lands in the owner's session: a step's send
/// (kNetWrite) or the header read of its reply (kNetRead). On a fresh
/// router the owner's connection carries the open (write 0, reads 0-1),
/// then step s (writes s, reads 2s and 2s+1), then the end.
struct StepFault {
  const char* where;
  FaultOp op;
  uint64_t step;
};

std::vector<StepFault> StepFaults(uint32_t k) {
  return {{"first step send", FaultOp::kNetWrite, 1},
          {"first step reply", FaultOp::kNetRead, 1},
          {"middle step send", FaultOp::kNetWrite, k / 2},
          {"middle step reply", FaultOp::kNetRead, k / 2},
          {"last step send", FaultOp::kNetWrite, k},
          {"last step reply", FaultOp::kNetRead, k}};
}

FaultPlan StepFaultPlan(const StepFault& fault, uint16_t port) {
  FaultPlan plan;
  const uint64_t op =
      fault.op == FaultOp::kNetWrite ? fault.step : 2 * fault.step;
  plan.rules.push_back({"127.0.0.1:" + std::to_string(port), fault.op,
                        FaultKind::kIOError, op, /*max_faults=*/1});
  return plan;
}

TEST_F(RouterGoldenTest, ShardLostMidGreedyHedgesAndRestarts) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());
  const Query query{{0, 1, 2, 3, 4}, 12};
  auto golden = rr->Query(query);
  ASSERT_TRUE(golden.ok());

  for (const StepFault& fault : StepFaults(query.k)) {
    SCOPED_TRACE(fault.where);
    RouterOptions options = FastFailOptions();
    options.replication_factor = 2;
    auto router = Router::Create(Addresses(fleet), options);
    ASSERT_TRUE(router.ok()) << router.status();
    const uint32_t owner = (*router)->ReplicasOf(query.topics[0])[0];
    StatusOr<SeedSetResult> answer = Status::Internal("unset");
    {
      testing::ScopedFaultInjection faults(
          StepFaultPlan(fault, fleet[owner]->port()));
      answer = (*router)->Query(query);
      EXPECT_EQ(FaultInjector::Instance().stats().io_errors, 1u);
    }
    ASSERT_TRUE(answer.ok()) << answer.status();
    // The owner's keywords moved to their second replica and the greedy
    // ran again from scratch: the answer is full and golden-equal.
    EXPECT_FALSE(answer->degraded);
    ExpectGoldenEqual(*answer, *golden);
    const RouterStats stats = (*router)->stats();
    EXPECT_EQ(stats.full_answers, 1u);
    EXPECT_GE(stats.hedged_rpcs, 1u);
    EXPECT_GE(stats.greedy_restarts, 1u);
    EXPECT_EQ(stats.transport_failures, 1u);
    ExpectNoSessions(fleet);
  }
}

TEST_F(RouterGoldenTest, ShardLostMidGreedyWithoutReplicaDegrades) {
  Fleet fleet = StartFleet(2);
  ASSERT_EQ(fleet.size(), 2u);
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());
  const Query query{{0, 1, 2, 3, 4}, 12};

  for (const StepFault& fault : StepFaults(query.k)) {
    SCOPED_TRACE(fault.where);
    auto router = Router::Create(Addresses(fleet), FastFailOptions());
    ASSERT_TRUE(router.ok()) << router.status();
    const uint32_t owner = (*router)->ReplicasOf(query.topics[0])[0];
    Query reduced{{}, query.k};
    std::vector<TopicId> lost;
    for (TopicId t : query.topics) {
      ((*router)->ReplicasOf(t)[0] == owner ? lost : reduced.topics)
          .push_back(t);
    }
    ASSERT_FALSE(reduced.topics.empty()) << "one shard owns every topic";
    StatusOr<SeedSetResult> answer = Status::Internal("unset");
    {
      testing::ScopedFaultInjection faults(
          StepFaultPlan(fault, fleet[owner]->port()));
      answer = (*router)->Query(query);
    }
    ASSERT_TRUE(answer.ok()) << answer.status();
    // No replica to hedge to: the owner's keywords are dropped and the
    // answer is the in-process answer to the reduced query.
    EXPECT_TRUE(answer->degraded);
    EXPECT_EQ(answer->dropped_keywords, lost);
    auto reduced_golden = rr->Query(reduced);
    ASSERT_TRUE(reduced_golden.ok());
    ExpectGoldenEqual(*answer, *reduced_golden);
    const RouterStats stats = (*router)->stats();
    EXPECT_EQ(stats.degraded_answers, 1u);
    EXPECT_EQ(stats.hedged_rpcs, 0u);
    EXPECT_GE(stats.greedy_restarts, 1u);
    EXPECT_EQ(stats.budget_recomputes, 1u);
    ExpectNoSessions(fleet);
  }
}

/// A shard that opens sessions but answers every step with one
/// (vertex, decrement) pair the router must refuse.
class LyingShard {
 public:
  LyingShard(VertexId vertex, uint32_t decrement)
      : listener_(Listen()), pair_{vertex, decrement} {
    thread_ = std::thread([this] { Serve(); });
  }
  ~LyingShard() {
    stop_.store(true);
    thread_.join();
  }
  uint16_t port() const { return listener_.port(); }

 private:
  static ServerSocket Listen() {
    StatusOr<ServerSocket> listener = ServerSocket::Listen(0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    return listener.ok() ? std::move(*listener) : ServerSocket();
  }

  void Serve() {
    while (!stop_.load()) {
      StatusOr<Socket> conn = listener_.Accept(20.0);
      if (!conn.ok()) continue;
      FrameHeader header;
      std::string payload, frame;
      while (!stop_.load()) {
        StatusOr<bool> readable = conn->PollReadable(20.0);
        if (!readable.ok()) break;
        if (!*readable) continue;
        if (!RecvFrame(*conn, 1000.0, &header, &payload).ok()) break;
        if (header.type == MsgType::kCoverOpen) {
          EncodeFrame(MsgType::kCoverCounts, [](WireWriter* w) {
            EncodeCoverCounts(Status::OK(), {}, {0, 1}, w);
          }, &frame);
        } else {
          EncodeFrame(MsgType::kCoverDecrements, [this](WireWriter* w) {
            EncodeCoverDecrements(Status::OK(), pair_, w);
          }, &frame);
        }
        if (!conn->SendAll(frame.data(), frame.size(), 1000.0).ok()) break;
      }
    }
  }

  ServerSocket listener_;
  const std::vector<uint32_t> pair_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST_F(RouterGoldenTest, StepReplyFailingValidationIsATransportFailure) {
  Fleet fleet = StartFleet(1);
  ASSERT_EQ(fleet.size(), 1u);
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());
  const Query query{{0, 1, 2, 3, 4}, 6};
  auto golden = rr->Query(query);
  ASSERT_TRUE(golden.ok());
  const VertexId n = fleet[0]->service().meta().num_vertices;
  // A vertex past the index, and a decrement above any count.
  for (const auto& [vertex, decrement] :
       {std::pair<VertexId, uint32_t>{n, 1}, {0, 0xFFFFFFFFu}}) {
    SCOPED_TRACE("vertex " + std::to_string(vertex));
    LyingShard liar(vertex, decrement);
    RouterOptions options = FastFailOptions();
    options.replication_factor = 2;
    // The real shard first: the router reads the meta from it.
    auto router = Router::Create(
        {{"127.0.0.1", fleet[0]->port()}, {"127.0.0.1", liar.port()}},
        options);
    ASSERT_TRUE(router.ok()) << router.status();
    bool liar_owns = false;
    for (TopicId t : query.topics) liar_owns |= (*router)->ReplicasOf(t)[0] == 1;
    ASSERT_TRUE(liar_owns) << "the real shard owns every topic; rehash";

    auto answer = (*router)->Query(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_FALSE(answer->degraded);
    ExpectGoldenEqual(*answer, *golden);
    const RouterStats stats = (*router)->stats();
    EXPECT_EQ(stats.transport_failures, 1u);
    EXPECT_GE(stats.greedy_restarts, 1u);
    EXPECT_GE(stats.hedged_rpcs, 1u);
  }
}

}  // namespace
}  // namespace net
}  // namespace kbtim
