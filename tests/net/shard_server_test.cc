// ShardServer + ShardClient: framed RPCs against a real QueryService —
// meta shipping, full solves equal to the in-process engine, RR block
// fetches (and the refusal of over-budget ones), cover sessions that ship
// the in-process counts and decrements, wire-deadline shedding at
// dequeue, client reconnects (never for a cover step), and the release of
// closed connections' handlers.
#include "net/shard_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/rr_greedy.h"
#include "index/rr_index.h"
#include "net/shard_client.h"
#include "storage/io_counter.h"

namespace kbtim {
namespace net {
namespace {

class ShardServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("kbtim_shard_server_" + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*dir_);

    DatasetSpec spec;
    spec.name = "shardsrv";
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

  static ShardServerOptions DeterministicOptions() {
    ShardServerOptions options;
    options.service.num_workers = 1;
    options.service.cache.prefetch_threads = 0;
    options.service.failure.retry_backoff_ms = 0.0;
    options.service.failure.breaker.backoff_ms = 0.0;
    return options;
  }

  static std::string* dir_;
};

std::string* ShardServerTest::dir_ = nullptr;

TEST_F(ShardServerTest, ServesMetaOverTheWire) {
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_GT((*server)->port(), 0);

  ShardClient client("127.0.0.1", (*server)->port());
  auto meta = client.FetchMeta();
  ASSERT_TRUE(meta.ok()) << meta.status();

  const IndexMeta& local = (*server)->service().meta();
  EXPECT_EQ(meta->num_vertices, local.num_vertices);
  EXPECT_EQ(meta->num_topics, local.num_topics);
  EXPECT_TRUE(meta->has_rr);
  ASSERT_EQ(meta->topics.size(), local.topics.size());
  for (size_t t = 0; t < local.topics.size(); ++t) {
    EXPECT_EQ(meta->topics[t].theta, local.topics[t].theta);
    EXPECT_EQ(meta->topics[t].phi, local.topics[t].phi);
    EXPECT_EQ(meta->topics[t].tf_sum, local.topics[t].tf_sum);
  }
}

TEST_F(ShardServerTest, WireQueryEqualsInProcessRrIndex) {
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  auto rr = RrIndex::Open(*dir_);
  ASSERT_TRUE(rr.ok());

  ShardClient client("127.0.0.1", (*server)->port());
  for (const std::vector<TopicId> topics :
       {std::vector<TopicId>{0}, {1, 3}, {0, 1, 2, 3, 4}}) {
    ServiceRequest request;
    request.query = Query{topics, 6};
    request.engine = QueryEngine::kRr;
    auto remote = client.Query(request);
    ASSERT_TRUE(remote.ok()) << remote.status();
    auto local = rr->Query(Query{topics, 6});
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(remote->seeds, local->seeds);
    EXPECT_EQ(remote->marginal_gains, local->marginal_gains);
    EXPECT_EQ(remote->estimated_influence, local->estimated_influence);
    EXPECT_FALSE(remote->degraded);
  }
}

TEST_F(ShardServerTest, ServesRrBlocksAtRequestedBudget) {
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  const IndexMeta& meta = (*server)->service().meta();

  ShardClient client("127.0.0.1", (*server)->port());
  RrFetchRequest fetch;
  for (TopicId t = 0; t < meta.num_topics; ++t) {
    if (meta.topics[t].theta == 0) continue;
    fetch.topics.push_back(t);
    fetch.budgets.push_back(std::min<uint64_t>(meta.topics[t].theta, 64));
  }
  ASSERT_FALSE(fetch.topics.empty());
  auto result = client.FetchRr(fetch);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->blocks.size(), fetch.topics.size());
  EXPECT_TRUE(result->dropped.empty());
  for (size_t i = 0; i < result->blocks.size(); ++i) {
    ASSERT_NE(result->blocks[i], nullptr) << "topic " << fetch.topics[i];
    EXPECT_GE(result->blocks[i]->loaded_budget, fetch.budgets[i]);
    EXPECT_EQ(result->blocks[i]->set_offsets.size(),
              result->blocks[i]->loaded_budget + 1);
  }
  EXPECT_GE((*server)->service().stats().rr_fetches, 1u);
}

TEST_F(ShardServerTest, OverBudgetFetchIsRejectedWithoutHarmingTopic) {
  // A budget past θ_w is the caller's error. It must come back as
  // kInvalidArgument and leave the topic's cached blocks, its breaker and
  // its answers alone; read as disk corruption, it would invalidate a
  // healthy topic and count against its breaker.
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  const IndexMeta& meta = (*server)->service().meta();
  TopicId topic = 0;
  while (topic < meta.num_topics && meta.topics[topic].theta == 0) ++topic;
  ASSERT_LT(topic, meta.num_topics);
  const uint64_t theta = meta.topics[topic].theta;
  const std::shared_ptr<KeywordCache>& cache = (*server)->service().cache();

  ShardClient client("127.0.0.1", (*server)->port());
  RrFetchRequest in_budget;
  in_budget.topics = {topic};
  in_budget.budgets = {std::min<uint64_t>(theta, 64)};
  auto before = client.FetchRr(in_budget);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_TRUE(before->dropped.empty());

  RrFetchRequest over_budget = in_budget;
  over_budget.budgets = {theta + 1};
  for (int i = 0; i < 3; ++i) {
    bool transport_failed = true;
    auto result = client.FetchRr(over_budget, &transport_failed);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
    EXPECT_FALSE(transport_failed);
  }
  // The cache refuses such a budget itself, before it touches the topic.
  auto direct = cache->GetRrKeyword(topic, theta + 1);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument)
      << direct.status();
  EXPECT_EQ(cache->stats().topic_invalidations, 0u);
  EXPECT_EQ(cache->stats().decode_failures, 0u);

  // The block fetched before is still resident: the repeat reads nothing.
  const IoStats io_before = IoCounter::Snapshot();
  auto after = client.FetchRr(in_budget);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->dropped.empty());
  EXPECT_EQ((IoCounter::Snapshot() - io_before).read_ops, 0u);

  ServiceRequest request;
  request.query = Query{{topic}, 6};
  request.engine = QueryEngine::kRr;
  auto answer = client.Query(request);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_FALSE(answer->degraded);
}

TEST_F(ShardServerTest, WireDeadlineShedsAtDequeue) {
  // Paused service: the request sits queued past its wire deadline, so
  // the worker must drop it at dequeue instead of solving it.
  ShardServerOptions options = DeterministicOptions();
  options.service.start_paused = true;
  auto server = ShardServer::Start(*dir_, options);
  ASSERT_TRUE(server.ok()) << server.status();

  std::future<StatusOr<SeedSetResult>> response =
      std::async(std::launch::async, [port = (*server)->port()] {
        ShardClient client("127.0.0.1", port);
        ServiceRequest request;
        request.query = Query{{0, 1}, 4};
        request.engine = QueryEngine::kRr;
        request.request_deadline_ms = 20.0;
        return client.Query(request);
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  (*server)->service().Resume();

  StatusOr<SeedSetResult> result = response.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_EQ((*server)->service().stats().deadline_expired_at_dequeue, 1u);
}

TEST_F(ShardServerTest, ClientReconnectsAfterDisconnect) {
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  ShardClient client("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.FetchMeta().ok());
  client.Disconnect();
  // The next RPC redials transparently (reads are idempotent).
  bool transport_failed = true;
  auto meta = client.FetchMeta(&transport_failed);
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_FALSE(transport_failed);
}

TEST_F(ShardServerTest, ClosedConnectionsReleaseTheirHandlers) {
  // Every closed connection's handler thread is joined: a server that kept
  // them until shutdown kept each one's thread stack mapped, and ran out
  // of address space after a few hundred connections.
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  size_t most = 0;
  for (int i = 0; i < 300; ++i) {
    ShardClient client("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.FetchMeta().ok()) << "connection " << i;
    most = std::max(most, (*server)->connection_handlers());
  }
  EXPECT_LE(most, 16u);
  for (int i = 0; i < 200 && (*server)->connection_handlers() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*server)->connection_handlers(), 0u);
}

/// The request of a cover session over every topic with index mass, at
/// budgets below θ_w so the inverted lists are cut.
RrFetchRequest SessionRequest(const IndexMeta& meta) {
  RrFetchRequest request;
  for (TopicId t = 0; t < meta.num_topics; ++t) {
    if (meta.topics[t].theta == 0) continue;
    request.topics.push_back(t);
    request.budgets.push_back(std::max<uint64_t>(1, meta.topics[t].theta / 2));
  }
  return request;
}

TEST_F(ShardServerTest, CoverSessionShipsTheLocalCountsAndDecrements) {
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  const IndexMeta& meta = (*server)->service().meta();
  const RrFetchRequest request = SessionRequest(meta);
  ASSERT_FALSE(request.topics.empty());

  // The same keywords covered in-process.
  RrCover local;
  for (size_t i = 0; i < request.topics.size(); ++i) {
    auto block = (*server)->service().cache()->GetRrKeyword(
        request.topics[i], request.budgets[i]);
    ASSERT_TRUE(block.ok()) << block.status();
    local.Add(*block, request.budgets[i]);
  }
  std::vector<uint32_t> want(meta.num_vertices, 0);
  local.AddCounts(want);

  ShardClient client("127.0.0.1", (*server)->port());
  std::vector<uint32_t> got(meta.num_vertices, 0);
  std::vector<TopicId> dropped;
  client.StartCoverOpen(request);
  ASSERT_TRUE(client.FinishCoverOpen(&dropped, &got).ok());
  EXPECT_TRUE(dropped.empty());
  EXPECT_EQ(got, want);
  EXPECT_EQ((*server)->open_cover_sessions(), 1u);

  // Cover the three vertices with the most sets, one step each.
  for (int step = 0; step < 3; ++step) {
    const VertexId v = static_cast<VertexId>(
        std::max_element(want.begin(), want.end()) - want.begin());
    local.Cover(v, [&](VertexId u) { --want[u]; });
    ASSERT_TRUE(client.SendCoverStep(v).ok());
    ASSERT_TRUE(client.RecvCoverStep(&got).ok());
    EXPECT_EQ(got, want) << "step " << step;
  }

  std::vector<uint32_t> none;
  ASSERT_TRUE(client.SendCoverStep(kEndCoverSession).ok());
  ASSERT_TRUE(client.RecvCoverStep(&none).ok());
  EXPECT_EQ((*server)->open_cover_sessions(), 0u);

  // A step with no session open is refused, and closes the connection.
  ASSERT_TRUE(client.SendCoverStep(0).ok());
  EXPECT_EQ(client.RecvCoverStep(&got).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ShardServerTest, CoverStepIsNeverResentOnANewConnection) {
  auto server = ShardServer::Start(*dir_, DeterministicOptions());
  ASSERT_TRUE(server.ok()) << server.status();
  const IndexMeta& meta = (*server)->service().meta();
  ShardClient client("127.0.0.1", (*server)->port());
  std::vector<uint32_t> count(meta.num_vertices, 0);
  std::vector<TopicId> dropped;
  client.StartCoverOpen(SessionRequest(meta));
  ASSERT_TRUE(client.FinishCoverOpen(&dropped, &count).ok());
  EXPECT_EQ((*server)->open_cover_sessions(), 1u);

  // The session lives on the connection: once it is gone, a step fails
  // in the client instead of reaching a shard with no session.
  client.Disconnect();
  EXPECT_FALSE(client.SendCoverStep(0).ok());
  EXPECT_FALSE(client.RecvCoverStep(&count).ok());
  // Closing the connection ended the session on the shard.
  for (int i = 0; i < 200 && (*server)->open_cover_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*server)->open_cover_sessions(), 0u);
  // Idempotent RPCs still redial.
  EXPECT_TRUE(client.FetchMeta().ok());
}

TEST_F(ShardServerTest, DeadServerIsTransportFailureNotHang) {
  uint16_t port = 0;
  {
    auto server = ShardServer::Start(*dir_, DeterministicOptions());
    ASSERT_TRUE(server.ok());
    port = (*server)->port();
  }  // server destroyed: the port is dead
  ShardClientOptions options;
  options.connect_timeout_ms = 300.0;
  options.io_timeout_ms = 300.0;
  ShardClient client("127.0.0.1", port, options);
  bool transport_failed = false;
  auto meta = client.FetchMeta(&transport_failed);
  ASSERT_FALSE(meta.ok());
  EXPECT_EQ(meta.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(transport_failed);
}

}  // namespace
}  // namespace net
}  // namespace kbtim
