// Chaos bench for the sharded network serving tier: a 4-process shard
// fleet behind the Router, with a shard SIGKILLed and restarted
// MID-BURST, writes BENCH_net.json (burst outcomes, chaos deltas and the
// router's session counters: opens, cover steps, greedy restarts and
// reply bytes).
//
//   1. Golden phase: fault-free answers per query from an in-process
//      RrIndex — the byte-equality reference for everything below.
//   2. Pre-kill burst: C clients × iters queries through the router over
//      the healthy fleet. Every answer must equal its golden; p50/p99
//      recorded.
//   3. Kill burst: the same load, but one shard process (the rendezvous
//      owner of the first query keyword) is SIGKILLed once ~25% of the
//      burst has completed and respawned ON THE SAME PORT at ~60%. With
//      replication_factor 2 the dead shard's keywords hedge to their
//      surviving replica: every request must resolve OK (golden-equal) or
//      degraded (equal to the reduced-query golden) — never hang, never
//      silently-wrong, and with the hedge in play, never fail.
//   4. Recovery probe: after the burst, query until the router serves a
//      full golden-equal answer with the victim's breaker CLOSED — the
//      "one probe cycle after restart" contract; attempts and wall time
//      land in the JSON.
//   5. Post-recovery burst: identical to phase 2 over the healed fleet.
//
// Flags on top of bench_common.h:
//   --workers N              QueryService workers per shard (default 2)
//   --iters N                queries per client per burst (default 4x
//                            --queries)
//   --assert-shard-recovery  CI gate: every kill-burst request resolves
//                            OK or degraded (zero failed, zero
//                            undetected-wrong), the fleet returns to
//                            golden-equal full answers, and the
//                            post-recovery p99 is <= 1.5x the pre-kill
//                            p99 (+3ms absolute slack for short runs)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "index/rr_index.h"
#include "net/router.h"

namespace kbtim {
namespace bench {
namespace {

/// One forked shard process serving `dir` on `port`.
struct ShardProc {
  pid_t pid = -1;
  uint16_t port = 0;
};

/// Forks + execs the shard binary; blocks until the child prints its
/// "LISTENING <port>" readiness line (so the fleet is connectable on
/// return). The child dies with the bench (PDEATHSIG) even if we crash.
StatusOr<ShardProc> SpawnShard(const std::string& binary,
                               const std::string& dir, uint16_t port,
                               uint32_t workers) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IOError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string port_arg = std::to_string(port);
    const std::string workers_arg = std::to_string(workers);
    ::execl(binary.c_str(), binary.c_str(), "--dir", dir.c_str(), "--port",
            port_arg.c_str(), "--workers", workers_arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::close(fds[1]);
  std::string line;
  char ch = 0;
  while (::read(fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  ::close(fds[0]);
  unsigned bound = 0;
  if (std::sscanf(line.c_str(), "LISTENING %u", &bound) != 1) {
    ::kill(pid, SIGKILL);
    int ignored = 0;
    ::waitpid(pid, &ignored, 0);
    return Status::Unavailable("shard process failed to start: '" + line +
                               "'");
  }
  ShardProc proc;
  proc.pid = pid;
  proc.port = static_cast<uint16_t>(bound);
  return proc;
}

void KillShard(ShardProc* proc, int sig) {
  if (proc->pid <= 0) return;
  ::kill(proc->pid, sig);
  int status = 0;
  ::waitpid(proc->pid, &status, 0);
  proc->pid = -1;
}

/// One classified router answer (classification happens after the burst,
/// against goldens computed single-threaded).
struct Sample {
  size_t query_idx = 0;
  double latency_ms = 0.0;
  StatusOr<SeedSetResult> result{Status::Unavailable("unset")};
};

struct BurstOutcome {
  uint64_t requests = 0;
  uint64_t ok_full = 0;     ///< Non-degraded, equal to the full golden.
  uint64_t ok_degraded = 0; ///< Degraded, equal to the reduced golden.
  uint64_t failed = 0;      ///< Non-OK status (availability loss).
  uint64_t wrong = 0;       ///< The invariant breaker: served but != golden.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t n = sorted_in_place->size();
  size_t idx = static_cast<size_t>(p * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return (*sorted_in_place)[idx];
}

bool SameAnswer(const SeedSetResult& a, const SeedSetResult& b) {
  return a.seeds == b.seeds && a.marginal_gains == b.marginal_gains &&
         a.estimated_influence == b.estimated_influence;
}

/// Drives `clients` threads × `iters` queries through the router,
/// recording every answer. `watch` (optional) runs on the calling thread
/// while the clients run and reads the global completed count — the
/// kill/restart trigger. Chaos must run on the calling thread: a shard
/// forked from a client thread would get that thread as its
/// PR_SET_PDEATHSIG parent and die when the burst ends.
std::vector<Sample> RunBurst(
    net::Router& router, const std::vector<Query>& queries, uint32_t clients,
    uint32_t iters,
    const std::function<void(const std::atomic<uint64_t>&)>& watch) {
  std::vector<std::vector<Sample>> per_client(clients);
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      per_client[c].reserve(iters);
      for (uint32_t i = 0; i < iters; ++i) {
        Sample sample;
        sample.query_idx = (c + i) % queries.size();
        WallTimer timer;
        sample.result = router.Query(queries[sample.query_idx]);
        sample.latency_ms = timer.ElapsedSeconds() * 1e3;
        per_client[c].push_back(std::move(sample));
        completed.fetch_add(1);
      }
    });
  }
  if (watch) watch(completed);
  for (auto& thread : threads) thread.join();
  std::vector<Sample> all;
  for (auto& v : per_client) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  return all;
}

/// Scores a burst against the per-query full goldens; degraded answers
/// are verified against a freshly computed reduced-query golden.
StatusOr<BurstOutcome> Classify(const std::vector<Sample>& samples,
                                const std::vector<Query>& queries,
                                const std::vector<SeedSetResult>& goldens,
                                RrIndex& rr) {
  BurstOutcome out;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const Sample& sample : samples) {
    ++out.requests;
    latencies.push_back(sample.latency_ms);
    if (!sample.result.ok()) {
      ++out.failed;
      continue;
    }
    const SeedSetResult& got = *sample.result;
    if (!got.degraded) {
      if (SameAnswer(got, goldens[sample.query_idx])) {
        ++out.ok_full;
      } else {
        ++out.wrong;
      }
      continue;
    }
    // Degraded: correct means "exactly the answer the reduced query
    // gets" — recompute that golden from the in-process index.
    Query reduced = queries[sample.query_idx];
    std::vector<TopicId> kept;
    for (TopicId t : reduced.topics) {
      if (std::find(got.dropped_keywords.begin(),
                    got.dropped_keywords.end(),
                    t) == got.dropped_keywords.end()) {
        kept.push_back(t);
      }
    }
    reduced.topics = std::move(kept);
    if (reduced.topics.empty()) {
      ++out.wrong;  // a degraded answer with every keyword dropped
      continue;
    }
    KBTIM_ASSIGN_OR_RETURN(SeedSetResult reduced_golden, rr.Query(reduced));
    if (SameAnswer(got, reduced_golden)) {
      ++out.ok_degraded;
    } else {
      ++out.wrong;
    }
  }
  out.p50_ms = Percentile(&latencies, 0.50);
  out.p99_ms = Percentile(&latencies, 0.99);
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace kbtim

int main(int argc, char** argv) {
  using namespace kbtim;
  using namespace kbtim::bench;
  BenchFlags flags = ParseFlags(argc, argv);
  bool assert_recovery = false;
  uint32_t workers = 2;
  uint32_t iters = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-shard-recovery") == 0) {
      assert_recovery = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    }
  }
  if (iters == 0) iters = flags.queries * 4;
  PrintHeader("Network serving: shard kill + recovery under live load",
              flags);

  const DatasetSpec spec =
      ScaleSpec(DefaultNewsSpec(flags.topics), flags.scale);
  auto env_or = Environment::Create(spec);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto env = std::move(*env_or);
  IndexBuildOptions build = DefaultBuildOptions(flags);
  IndexBuildReport report;
  const std::string tag = spec.name + "_net_e" +
                          FormatDouble(flags.epsilon, 2) + "_t" +
                          std::to_string(flags.topics);
  auto dir = EnsureIndex(*env, build, tag, flags.no_cache, &report);
  if (!dir.ok()) {
    std::fprintf(stderr, "%s\n", dir.status().ToString().c_str());
    return 1;
  }

  QueryGeneratorOptions qopts;
  qopts.queries_per_length = flags.queries;
  qopts.min_keywords = 2;
  qopts.max_keywords = 2;
  qopts.k = 20;
  qopts.seed = 2027;
  auto queries = env->Queries(qopts);
  if (!queries.ok() || queries->empty()) return 1;

  // Phase 1: in-process goldens — the distributed tier must match these
  // byte for byte.
  auto rr_or = RrIndex::Open(*dir);
  if (!rr_or.ok()) {
    std::fprintf(stderr, "%s\n", rr_or.status().ToString().c_str());
    return 1;
  }
  RrIndex rr = std::move(*rr_or);
  std::vector<SeedSetResult> goldens;
  for (const Query& q : *queries) {
    auto golden = rr.Query(q);
    if (!golden.ok()) {
      std::fprintf(stderr, "%s\n", golden.status().ToString().c_str());
      return 1;
    }
    goldens.push_back(std::move(*golden));
  }

  // Fleet of 4 shard processes (kernel-assigned ports).
  const std::string binary =
      (std::filesystem::path(argv[0]).parent_path() /
       "example_shard_server_main")
          .string();
  constexpr uint32_t kNumShards = 4;
  std::vector<ShardProc> fleet;
  std::vector<net::ShardAddress> addresses;
  for (uint32_t s = 0; s < kNumShards; ++s) {
    auto proc = SpawnShard(binary, *dir, /*port=*/0, workers);
    if (!proc.ok()) {
      std::fprintf(stderr, "%s\n", proc.status().ToString().c_str());
      for (ShardProc& p : fleet) KillShard(&p, SIGTERM);
      return 1;
    }
    fleet.push_back(*proc);
    addresses.push_back({"127.0.0.1", proc->port});
  }

  net::RouterOptions ropts;
  ropts.replication_factor = 2;  // the hedge target the kill phase needs
  ropts.attempt_timeout_ms = 2000.0;
  ropts.client.connect_timeout_ms = 300.0;
  ropts.client.io_timeout_ms = 1000.0;
  ropts.client.max_reconnects = 1;
  ropts.breaker.failure_threshold = 2;
  ropts.breaker.backoff_ms = 100.0;  // a probe cycle is 100ms
  auto router_or = net::Router::Create(addresses, ropts);
  if (!router_or.ok()) {
    std::fprintf(stderr, "%s\n", router_or.status().ToString().c_str());
    for (ShardProc& p : fleet) KillShard(&p, SIGTERM);
    return 1;
  }
  net::Router& router = **router_or;
  const uint32_t clients = 4;
  const uint64_t burst_total = uint64_t{clients} * iters;

  // Phase 2: pre-kill burst over the healthy fleet.
  auto pre_samples = RunBurst(router, *queries, clients, iters, nullptr);
  auto pre = Classify(pre_samples, *queries, goldens, rr);
  if (!pre.ok()) {
    std::fprintf(stderr, "%s\n", pre.status().ToString().c_str());
    return 1;
  }

  // Phase 3: the chaos burst. The victim owns the first query's first
  // keyword, dies at ~25% of the burst, and respawns on its OLD port at
  // ~60% — both transitions land under live load.
  const uint32_t victim = router.ReplicasOf((*queries)[0].topics[0])[0];
  const uint16_t victim_port = fleet[victim].port;
  std::atomic<bool> killed{false}, restarted{false};
  std::atomic<bool> restart_failed{false};
  const net::RouterStats before_kill = router.stats();
  auto kill_samples = RunBurst(
      router, *queries, clients, iters,
      [&](const std::atomic<uint64_t>& completed) {
        for (;;) {
          const uint64_t done = completed.load();
          if (done >= burst_total / 4 && !killed.exchange(true)) {
            KillShard(&fleet[victim], SIGKILL);
            std::printf("  [chaos] shard %u (port %u) SIGKILLed after %llu "
                        "requests\n",
                        victim, victim_port,
                        static_cast<unsigned long long>(done));
          }
          if (done >= (burst_total * 3) / 5 && killed.load() &&
              !restarted.exchange(true)) {
            auto revived = SpawnShard(binary, *dir, victim_port, workers);
            if (revived.ok()) {
              fleet[victim] = *revived;
              std::printf("  [chaos] shard %u respawned on port %u after "
                          "%llu requests\n",
                          victim, victim_port,
                          static_cast<unsigned long long>(done));
            } else {
              restart_failed.store(true);
              std::fprintf(stderr, "shard restart failed: %s\n",
                           revived.status().ToString().c_str());
            }
          }
          if (restarted.load() || done >= burst_total) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  auto kill = Classify(kill_samples, *queries, goldens, rr);
  if (!kill.ok()) {
    std::fprintf(stderr, "%s\n", kill.status().ToString().c_str());
    return 1;
  }
  const net::RouterStats after_kill = router.stats();
  if (!restarted.load() && !restart_failed.load()) {
    // Tiny --iters can finish the burst before the 60% trigger; restart
    // now so recovery still gets measured.
    auto revived = SpawnShard(binary, *dir, victim_port, workers);
    if (revived.ok()) {
      fleet[victim] = *revived;
    } else {
      restart_failed.store(true);
    }
  }

  // Phase 4: recovery probe — how many queries until a full golden-equal
  // answer with the victim's breaker closed again.
  uint64_t recovery_queries = 0;
  bool recovered = false;
  WallTimer recovery_timer;
  for (int attempt = 0; attempt < 500 && !restart_failed.load();
       ++attempt) {
    const size_t qi = static_cast<size_t>(attempt) % queries->size();
    auto probe = router.Query((*queries)[qi]);
    ++recovery_queries;
    if (probe.ok() && !probe->degraded && SameAnswer(*probe, goldens[qi]) &&
        router.ShardState(victim) == BreakerState::kClosed) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double recovery_seconds = recovery_timer.ElapsedSeconds();

  // Phase 5: post-recovery burst over the healed fleet.
  auto post_samples = RunBurst(router, *queries, clients, iters, nullptr);
  auto post = Classify(post_samples, *queries, goldens, rr);
  if (!post.ok()) {
    std::fprintf(stderr, "%s\n", post.status().ToString().c_str());
    return 1;
  }
  const net::RouterStats final_stats = router.stats();

  for (ShardProc& p : fleet) KillShard(&p, SIGTERM);

  // ---- Report -------------------------------------------------------------
  const auto print_outcome = [](const char* name, const BurstOutcome& o) {
    std::printf(
        "%-11s %llu requests: %llu full, %llu degraded, %llu failed, "
        "%llu WRONG | p50 %.3f ms p99 %.3f ms\n",
        name, static_cast<unsigned long long>(o.requests),
        static_cast<unsigned long long>(o.ok_full),
        static_cast<unsigned long long>(o.ok_degraded),
        static_cast<unsigned long long>(o.failed),
        static_cast<unsigned long long>(o.wrong), o.p50_ms, o.p99_ms);
  };
  print_outcome("pre-kill:", *pre);
  print_outcome("kill-burst:", *kill);
  print_outcome("post:", *post);
  std::printf(
      "chaos deltas: %llu transport failures, %llu hedged rpcs, %llu "
      "breaker opens, %llu sheds\n",
      static_cast<unsigned long long>(after_kill.transport_failures -
                                      before_kill.transport_failures),
      static_cast<unsigned long long>(after_kill.hedged_rpcs -
                                      before_kill.hedged_rpcs),
      static_cast<unsigned long long>(after_kill.breaker_opens -
                                      before_kill.breaker_opens),
      static_cast<unsigned long long>(after_kill.breaker_sheds -
                                      before_kill.breaker_sheds));
  std::printf(
      "router: %llu queries, %llu session opens, %llu cover steps, %llu "
      "greedy restarts, %.1f KB of replies per query\n",
      static_cast<unsigned long long>(final_stats.queries),
      static_cast<unsigned long long>(final_stats.scatter_rpcs),
      static_cast<unsigned long long>(final_stats.cover_steps),
      static_cast<unsigned long long>(final_stats.greedy_restarts),
      final_stats.queries > 0
          ? static_cast<double>(final_stats.response_bytes) / 1024.0 /
                static_cast<double>(final_stats.queries)
          : 0.0);
  std::printf("recovery: %s after %llu probe queries (%.3f s)\n",
              recovered ? "golden-equal + breaker closed" : "NOT RECOVERED",
              static_cast<unsigned long long>(recovery_queries),
              recovery_seconds);
  const double p99_budget =
      std::max(1.5 * pre->p99_ms, pre->p99_ms + 3.0);
  std::printf("p99 pre-kill %.3f ms -> post-recovery %.3f ms (budget %.3f "
              "ms)\n",
              pre->p99_ms, post->p99_ms, p99_budget);

  std::FILE* json = std::fopen("BENCH_net.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_net.json\n");
    return 1;
  }
  const auto emit_outcome = [json](const char* name, const BurstOutcome& o,
                                   const char* trailing) {
    std::fprintf(
        json,
        "  \"%s\": {\"requests\": %llu, \"ok_full\": %llu, "
        "\"ok_degraded\": %llu, \"failed\": %llu, \"wrong\": %llu, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
        name, static_cast<unsigned long long>(o.requests),
        static_cast<unsigned long long>(o.ok_full),
        static_cast<unsigned long long>(o.ok_degraded),
        static_cast<unsigned long long>(o.failed),
        static_cast<unsigned long long>(o.wrong), o.p50_ms, o.p99_ms,
        trailing);
  };
  std::fprintf(json,
               "{\n"
               "  \"params\": {\"scale\": %.2f, \"topics\": %u, "
               "\"epsilon\": %.2f, \"queries\": %u, \"iters\": %u, "
               "\"clients\": %u, \"shards\": %u, \"workers\": %u, "
               "\"replication_factor\": %u},\n",
               flags.scale, flags.topics, flags.epsilon, flags.queries,
               iters, clients, kNumShards, workers,
               ropts.replication_factor);
  emit_outcome("pre_kill", *pre, ",");
  emit_outcome("kill_burst", *kill, ",");
  emit_outcome("post_recovery", *post, ",");
  std::fprintf(
      json,
      "  \"chaos\": {\"victim_shard\": %u, \"transport_failures\": %llu, "
      "\"hedged_rpcs\": %llu, \"breaker_opens\": %llu, "
      "\"breaker_sheds\": %llu, \"breaker_probes\": %llu, "
      "\"breaker_closes\": %llu, \"scatter_rpcs\": %llu, "
      "\"greedy_restarts\": %llu},\n"
      "  \"router\": {\"queries\": %llu, \"scatter_rpcs\": %llu, "
      "\"cover_steps\": %llu, \"greedy_restarts\": %llu, "
      "\"response_bytes\": %llu},\n"
      "  \"recovery\": {\"recovered\": %s, \"probe_queries\": %llu, "
      "\"seconds\": %.4f},\n"
      "  \"p99_pre_ms\": %.4f,\n"
      "  \"p99_post_ms\": %.4f,\n"
      "  \"p99_budget_ms\": %.4f\n"
      "}\n",
      victim,
      static_cast<unsigned long long>(after_kill.transport_failures -
                                      before_kill.transport_failures),
      static_cast<unsigned long long>(after_kill.hedged_rpcs -
                                      before_kill.hedged_rpcs),
      static_cast<unsigned long long>(after_kill.breaker_opens -
                                      before_kill.breaker_opens),
      static_cast<unsigned long long>(after_kill.breaker_sheds -
                                      before_kill.breaker_sheds),
      static_cast<unsigned long long>(final_stats.breaker_probes),
      static_cast<unsigned long long>(final_stats.breaker_closes),
      static_cast<unsigned long long>(final_stats.scatter_rpcs),
      static_cast<unsigned long long>(after_kill.greedy_restarts -
                                      before_kill.greedy_restarts),
      static_cast<unsigned long long>(final_stats.queries),
      static_cast<unsigned long long>(final_stats.scatter_rpcs),
      static_cast<unsigned long long>(final_stats.cover_steps),
      static_cast<unsigned long long>(final_stats.greedy_restarts),
      static_cast<unsigned long long>(final_stats.response_bytes),
      recovered ? "true" : "false",
      static_cast<unsigned long long>(recovery_queries), recovery_seconds,
      pre->p99_ms, post->p99_ms, p99_budget);
  std::fclose(json);
  std::printf("wrote BENCH_net.json\n");

  if (assert_recovery) {
    bool ok = true;
    const uint64_t total_wrong = pre->wrong + kill->wrong + post->wrong;
    if (total_wrong != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu answers served that match NO golden "
                   "(silently wrong)\n",
                   static_cast<unsigned long long>(total_wrong));
      ok = false;
    }
    if (pre->failed != 0 || post->failed != 0) {
      std::fprintf(stderr,
                   "FAIL: healthy-fleet bursts had failures (pre %llu, "
                   "post %llu)\n",
                   static_cast<unsigned long long>(pre->failed),
                   static_cast<unsigned long long>(post->failed));
      ok = false;
    }
    if (kill->failed != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu kill-burst requests failed outright — with "
                   "a replica per keyword every request must resolve OK "
                   "or degraded\n",
                   static_cast<unsigned long long>(kill->failed));
      ok = false;
    }
    if (kill->requests !=
        kill->ok_full + kill->ok_degraded + kill->failed + kill->wrong) {
      std::fprintf(stderr, "FAIL: kill-burst requests went unaccounted "
                           "(hang or lost reply)\n");
      ok = false;
    }
    if (after_kill.transport_failures == before_kill.transport_failures) {
      std::fprintf(stderr, "FAIL: the kill produced no transport failures "
                           "— the chaos phase proved nothing\n");
      ok = false;
    }
    if (!recovered) {
      std::fprintf(stderr, "FAIL: fleet never returned to golden-equal "
                           "full answers after the restart\n");
      ok = false;
    }
    if (post->p99_ms > p99_budget) {
      std::fprintf(stderr,
                   "FAIL: post-recovery p99 %.3f ms exceeds budget %.3f "
                   "ms (1.5x pre-kill %.3f ms)\n",
                   post->p99_ms, p99_budget, pre->p99_ms);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("shard-recovery contract: PASS\n");
  }
  return 0;
}
