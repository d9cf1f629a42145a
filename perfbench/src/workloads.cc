// The three workloads. Each one builds its index from scratch, opens
// kbtim's public serving entry point, drives one closed-loop client
// through it for the measured phase, and then checks every answer it
// got. A traced run also makes direct probes into single layers.
//
//   irr_pressured  IRR (Algorithm 4, lazy) through QueryService::Execute
//                  on the news-like graph, block cache a quarter of the
//                  mix's working set.
//   rr_routed      RR (Algorithm 2) through net::Router::Query over two
//                  in-process ShardServers on loopback, warm caches.
//   wris_online    online WRIS (§3.2) through QueryService::Execute on
//                  the twitter-like graph.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "coverage/flat_celf.h"
#include "coverage/rr_collection.h"
#include "expr/datasets.h"
#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/index_verifier.h"
#include "index/keyword_cache.h"
#include "index/rr_greedy.h"
#include "index/rr_index.h"
#include "net/router.h"
#include "net/shard_client.h"
#include "net/shard_server.h"
#include "net/wire_format.h"
#include "propagation/rr_sampler.h"
#include "sampling/opt_estimator.h"
#include "sampling/theta_bounds.h"
#include "sampling/vertex_sampler.h"
#include "serving/query_service.h"
#include "simulate.h"
#include "storage/io_counter.h"
#include "trace.h"

namespace perfbench {
namespace {

using kbtim::Environment;
using kbtim::IndexBuildReport;
using kbtim::Query;
using kbtim::QueryEngine;
using kbtim::SeedSetResult;
using kbtim::Status;
using kbtim::StatusOr;
using kbtim::TopicId;
using kbtim::VertexId;

// ---- Inputs (README.md "Workloads") ----------------------------------------

constexpr double kEpsilon = 0.5;          // index and WRIS
constexpr uint32_t kNumTopics = 30;
constexpr uint32_t kK = 30;               // seeds per query
constexpr uint32_t kMaxK = 100;           // index K
constexpr uint32_t kQueriesPerLength = 5;
constexpr uint32_t kMaxKeywords = 6;      // mix: 1..6 keywords
constexpr uint32_t kNewsVertices = 35000;     // news-like, quarter scale
constexpr uint32_t kTwitterVertices = 10000;  // twitter-like, quarter scale
constexpr uint32_t kBuildThreads = 2;
/// The measured phase ends at the first pass boundary past --seconds that
/// has at least this many answers, so p90 has ten samples beyond it.
constexpr uint64_t kMinAnswers = 100;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr double kMiB = 1024.0 * 1024.0;
/// irr_pressured block cache: a quarter of the mix's working set, the
/// 133 MiB of decoded blocks one pass of the mix leaves in an unbounded
/// cache (README.md "Workloads").
constexpr uint64_t kBlockCacheBytes = uint64_t{33} << 20;
/// Warm-up ends when one pass's hit ratio is within this of the last's.
constexpr double kHitRatioLevel = 0.01;
constexpr int kMaxWarmPasses = 6;
/// WRIS solves made to warm the solver's pool and scratch.
constexpr int kWrisWarmSolves = 3;
/// Queries of the fixed subset (the first `kSubsetPerLength` of each
/// keyword count) that the simulation, the spread metric and the probes
/// use.
constexpr uint32_t kSubsetPerLength = 1;
/// Forward simulations per answer in the estimate and spread checks.
constexpr uint32_t kSimRuns = 1000;
/// Partitions per keyword the storage probe loads on a dropped cache.
constexpr uint64_t kProbePartitions = 4;

/// Seed of the query generator. Like the dataset it is fixed: across
/// seeds a query's cost follows its keywords' masses and the graph far more
/// than anything sampled, so a seeded dataset or mix moved every timing
/// (and the spread) by 10-20% with the draw.
constexpr uint64_t kMixSeed = 11;

enum class Kind { kIrrPressured, kRrRouted, kWrisOnline };

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The repository's default presets (their own generator seeds) at a
/// quarter of their vertex count. The dataset and the query mix define the
/// workload; the run's seed drives everything sampled on top of them.
kbtim::DatasetSpec Spec(Kind kind) {
  kbtim::DatasetSpec spec = kind == Kind::kWrisOnline
                                ? kbtim::DefaultTwitterSpec(kNumTopics)
                                : kbtim::DefaultNewsSpec(kNumTopics);
  spec.graph.num_vertices =
      kind == Kind::kWrisOnline ? kTwitterVertices : kNewsVertices;
  return spec;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Machine-wide steal time in seconds (the 8th field of /proc/stat's cpu
/// line); -1 when unreadable.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (uint64_t& f : fields) {
    if (!(in >> f)) return -1.0;
  }
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

using kbtim::Mean;
using kbtim::Percentile;

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Shuffle(std::vector<size_t>& v, kbtim::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextU32Below(static_cast<uint32_t>(i))]);
  }
}

/// Durations in ms of every span named `name` below a span named `under`.
std::vector<double> SpanMs(const Tracer& tracer, const std::string& name,
                           const std::string& under) {
  std::vector<double> out;
  const std::vector<Span>& spans = tracer.spans();
  for (const Span& s : spans) {
    if (s.name != name) continue;
    bool inside = false;
    for (int32_t a = s.parent; !inside && a >= 0; a = spans[a].parent) {
      inside = spans[a].name == under;
    }
    if (inside) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

/// Index directory removed on destruction (after everything that reads it,
/// since it is the first member of Setup).
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One set-up: dataset, index, the serving entry point, warm caches.
/// Members are destroyed in reverse order: engines, then the dataset they
/// point into, then the index directory.
struct Setup {
  explicit Setup(std::string dir) : dir(std::move(dir)) {}

  ScopedDir dir;
  std::unique_ptr<Environment> env;
  IndexBuildReport report;
  std::vector<Query> mix;
  std::vector<size_t> order;   // current pass order, indices into mix
  std::vector<size_t> subset;  // the fixed subset, indices into mix

  std::vector<std::unique_ptr<kbtim::net::ShardServer>> shards;
  std::unique_ptr<kbtim::net::Router> router;
  std::unique_ptr<kbtim::QueryService> service;

  int warm_passes = 0;
  double seconds = 0.0;  // wall time of this set-up
};

// ---- Set-up ----------------------------------------------------------------

kbtim::IndexBuildOptions BuildOptions(uint64_t seed) {
  kbtim::IndexBuildOptions opts;
  opts.epsilon = kEpsilon;
  opts.max_k = kMaxK;
  opts.num_threads = kBuildThreads;
  opts.partition_size = 100;
  opts.seed = Mix(seed, 3);
  opts.max_theta_per_keyword = uint64_t{1} << 22;
  opts.opt_estimate.pilot_initial = 2048;
  return opts;
}

kbtim::OnlineSolverOptions WrisOptions(uint64_t seed) {
  kbtim::OnlineSolverOptions opts;
  opts.epsilon = kEpsilon;
  opts.num_threads = 1;
  opts.seed = Mix(seed, 5);
  return opts;
}

/// IndexBuilder::Build in a child process, as an offline build runs apart
/// from the server, so that its memory and threads stay out of the serving
/// process, whose peak RSS is reported. The child sends back the numbers
/// of its IndexBuildReport that the metrics use.
StatusOr<IndexBuildReport> BuildIndex(const Environment& env,
                                      const std::string& dir, uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IOError("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError("fork failed");
  }
  uint64_t numbers[5] = {};
  if (pid == 0) {
    ::close(fds[0]);
    kbtim::IndexBuilder builder(env.graph(), env.tfidf(), env.ic_probs(),
                                BuildOptions(seed));
    const StatusOr<IndexBuildReport> built = builder.Build(dir);
    bool sent = false;
    if (built.ok()) {
      const uint64_t out[5] = {built->total_theta, built->rr_bytes,
                               built->lists_bytes, built->irr_bytes,
                               built->total_bytes};
      sent = ::write(fds[1], out, sizeof(out)) ==
             static_cast<ssize_t>(sizeof(out));
    } else {
      std::fprintf(stderr, "index build: %s\n",
                   built.status().ToString().c_str());
    }
    std::fflush(stderr);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  const ssize_t got = ::read(fds[0], numbers, sizeof(numbers));
  ::close(fds[0]);
  int status = 0;
  const bool reaped = ::waitpid(pid, &status, 0) == pid;
  if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      got != static_cast<ssize_t>(sizeof(numbers))) {
    return Status::Internal("index build process failed");
  }
  IndexBuildReport report;
  report.total_theta = numbers[0];
  report.rr_bytes = numbers[1];
  report.lists_bytes = numbers[2];
  report.irr_bytes = numbers[3];
  report.total_bytes = numbers[4];
  return report;
}

/// Each keyword's first owner gets one fetch of it at the largest budget
/// any mix query needs, so every later query hits. One keyword per fetch
/// keeps the warm-up's payloads no larger than a query's.
Status WarmShards(Setup& s) {
  std::map<TopicId, uint64_t> need;
  for (const Query& q : s.mix) {
    KBTIM_ASSIGN_OR_RETURN(kbtim::QueryBudget budget,
                           kbtim::ComputeQueryBudget(s.router->meta(), q));
    for (const auto& [topic, tw] : budget.per_keyword) {
      if (tw > 0) need[topic] = std::max(need[topic], tw);
    }
  }
  for (const auto& [topic, tw] : need) {
    kbtim::RrFetchRequest req;
    req.topics.push_back(topic);
    req.budgets.push_back(tw);
    const uint32_t owner = s.router->ReplicasOf(topic)[0];
    kbtim::net::ShardClient client("127.0.0.1", s.shards[owner]->port());
    KBTIM_ASSIGN_OR_RETURN(kbtim::RrFetchResult got, client.FetchRr(req));
    if (!got.dropped.empty()) return Status::Internal("warm fetch dropped");
  }
  return Status::OK();
}

/// IRR warm-up: whole passes over the mix until the pass hit ratio levels.
Status WarmIrr(Setup& s) {
  kbtim::KeywordCacheStats last = s.service->cache()->stats();
  double last_ratio = -1.0;
  for (int pass = 1; pass <= kMaxWarmPasses; ++pass) {
    for (size_t qi : s.order) {
      KBTIM_RETURN_IF_ERROR(
          s.service->Execute({s.mix[qi], QueryEngine::kIrr}).status());
    }
    s.service->cache()->WaitForPrefetches();
    const kbtim::KeywordCacheStats now = s.service->cache()->stats();
    const double ratio =
        Ratio(static_cast<double>(now.hits - last.hits),
              static_cast<double>(now.hits - last.hits + now.misses -
                                  last.misses));
    s.warm_passes = pass;
    if (pass >= 2 && std::fabs(ratio - last_ratio) <= kHitRatioLevel) break;
    last = now;
    last_ratio = ratio;
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Setup>> DoSetup(Kind kind, const RunOptions& o,
                                         int repeat, int64_t start_ns,
                                         Tracer& tracer) {
  auto s = std::make_unique<Setup>(o.work_dir + "/index-" +
                                   std::to_string(::getpid()) + "-" +
                                   std::to_string(repeat));
  Tracer::Scope setup_span(tracer, "bench.setup");
  {
    Tracer::Scope span(tracer, "expr.environment");
    KBTIM_ASSIGN_OR_RETURN(s->env, Environment::Create(Spec(kind)));
  }
  kbtim::QueryGeneratorOptions qopts;
  qopts.queries_per_length = kQueriesPerLength;
  qopts.min_keywords = 1;
  qopts.max_keywords = kMaxKeywords;
  qopts.k = kK;
  qopts.seed = kMixSeed;
  KBTIM_ASSIGN_OR_RETURN(s->mix, s->env->Queries(qopts));
  // The generator orders the mix by keyword count; the subset takes the
  // head of each count, warm-up a seeded shuffle.
  for (size_t i = 0; i < s->mix.size(); ++i) {
    if (i % kQueriesPerLength < kSubsetPerLength) s->subset.push_back(i);
    s->order.push_back(i);
  }
  kbtim::Rng rng(Mix(o.seed, 6));
  Shuffle(s->order, rng);
  {
    Tracer::Scope span(tracer, "index.build");
    KBTIM_ASSIGN_OR_RETURN(s->report,
                           BuildIndex(*s->env, s->dir.path(), o.seed));
  }
  {
    Tracer::Scope span(tracer, "serving.open");
    if (kind == Kind::kRrRouted) {
      std::vector<kbtim::net::ShardAddress> addresses;
      for (int i = 0; i < 2; ++i) {
        kbtim::net::ShardServerOptions so;
        so.service.num_workers = 1;
        so.service.cache.block_cache_bytes = uint64_t{1} << 40;
        so.service.cache.prefetch_threads = 0;
        KBTIM_ASSIGN_OR_RETURN(
            std::unique_ptr<kbtim::net::ShardServer> shard,
            kbtim::net::ShardServer::Start(s->dir.path(), so));
        addresses.push_back({"127.0.0.1", shard->port()});
        s->shards.push_back(std::move(shard));
      }
      KBTIM_ASSIGN_OR_RETURN(s->router,
                             kbtim::net::Router::Create(addresses));
    } else {
      kbtim::QueryServiceOptions so;
      so.num_workers = 1;
      if (kind == Kind::kIrrPressured) {
        so.cache.block_cache_bytes = kBlockCacheBytes;
        KBTIM_ASSIGN_OR_RETURN(s->service,
                               kbtim::QueryService::Create(s->dir.path(), so));
      } else {
        so.wris = WrisOptions(o.seed);
        kbtim::QueryService::OnlineBackend online;
        online.graph = &s->env->graph();
        online.tfidf = &s->env->tfidf();
        online.model = kbtim::PropagationModel::kIndependentCascade;
        online.in_edge_weights = &s->env->ic_probs();
        KBTIM_ASSIGN_OR_RETURN(
            s->service,
            kbtim::QueryService::Create(s->dir.path(), so, online));
      }
    }
  }
  {
    Tracer::Scope span(tracer, "serving.warm");
    switch (kind) {
      case Kind::kIrrPressured:
        KBTIM_RETURN_IF_ERROR(WarmIrr(*s));
        break;
      case Kind::kRrRouted:
        KBTIM_RETURN_IF_ERROR(WarmShards(*s));
        for (const auto& shard : s->shards) {
          shard->service().ResetLatencyWindow();
        }
        s->warm_passes = 1;
        break;
      case Kind::kWrisOnline:
        for (int i = 0; i < kWrisWarmSolves; ++i) {
          KBTIM_RETURN_IF_ERROR(
              s->service->Execute({s->mix[s->order[i]], QueryEngine::kWris})
                  .status());
        }
        s->warm_passes = 1;
        break;
    }
    if (s->service != nullptr) s->service->ResetLatencyWindow();
  }
  s->seconds = static_cast<double>(NowNs() - start_ns) / 1e9;
  return s;
}

// ---- Measured phase --------------------------------------------------------

struct QueryRecord {
  size_t query = 0;
  bool traced = false;
  bool ok = false;
  double latency_ms = 0.0;
  kbtim::SolverStats stats;
};

struct Counters {
  kbtim::IoStats io;
  kbtim::KeywordCacheStats cache;
  kbtim::ServiceStats service;
  kbtim::net::RouterStats router;
  uint64_t retries = 0;
  double queue_ms = 0.0;
};

Counters ReadCounters(const Setup& s) {
  Counters c;
  c.io = kbtim::IoCounter::Snapshot();
  if (s.service != nullptr) {
    c.cache = s.service->cache()->stats();
    c.service = s.service->stats();
    c.retries = c.service.transient_retries;
    c.queue_ms = c.service.mean_queue_ms;
  }
  if (s.router != nullptr) {
    c.router = s.router->stats();
    for (const auto& shard : s.shards) {
      const kbtim::ServiceStats st = shard->service().stats();
      c.retries += st.transient_retries;
      c.queue_ms += st.mean_queue_ms / static_cast<double>(s.shards.size());
    }
  }
  return c;
}

struct Measured {
  std::vector<QueryRecord> records;
  /// The first answer each mix query got; later answers must equal it.
  std::vector<std::optional<SeedSetResult>> first;
  std::vector<std::string> mismatches;
  uint64_t answered = 0;
  uint64_t failed = 0;
  uint64_t passes = 0;
  /// Answers per second, and process CPU ms per answer, of each pass over
  /// the mix.
  std::vector<double> pass_qps;
  std::vector<double> pass_cpu_ms;
  std::vector<bool> pass_traced;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = -1.0;
  double peak_rss_mb = 0.0;
  Counters before;
  Counters after;
};

StatusOr<SeedSetResult> Execute(Kind kind, Setup& s, size_t qi) {
  if (kind == Kind::kRrRouted) return s.router->Query(s.mix[qi]);
  kbtim::ServiceRequest request;
  request.query = s.mix[qi];
  request.engine =
      kind == Kind::kWrisOnline ? QueryEngine::kWris : QueryEngine::kIrr;
  return s.service->Execute(std::move(request));
}

Measured Measure(Kind kind, Setup& s, const RunOptions& o, Tracer& tracer) {
  Measured m;
  m.first.resize(s.mix.size());
  const char* span_name =
      kind == Kind::kRrRouted ? "net.router_query" : "serving.execute";
  // A traced run alternates untraced and traced passes and stops on an
  // even count, so both halves see the same queries.
  const uint64_t pass_step = tracer.enabled() ? 2 : 1;
  const uint64_t min_answers = kMinAnswers * pass_step;
  // Every pass takes the mix in a fresh seeded order, so a run's cache
  // behaviour is an average over many orders rather than one draw.
  kbtim::Rng order_rng(Mix(o.seed, 7));
  m.before = ReadCounters(s);
  const double steal0 = StealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const auto budget_ns = static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t pass = 0;; ++pass) {
    if (pass > 0 && pass % pass_step == 0 && NowNs() - t0 >= budget_ns &&
        m.answered + m.failed >= min_answers) {
      break;
    }
    const bool traced = tracer.enabled() && pass % 2 == 1;
    Shuffle(s.order, order_rng);
    tracer.SetRecording(traced);
    Tracer::Scope pass_span(tracer, "bench.pass", pass);
    const int64_t pass_start = NowNs();
    const double pass_cpu = ProcessCpuSeconds();
    const uint64_t answered_before = m.answered;
    for (size_t pos = 0; pos < s.order.size(); ++pos) {
      const size_t qi = s.order[pos];
      QueryRecord rec;
      rec.query = qi;
      rec.traced = traced;
      const int64_t q0 = NowNs();
      StatusOr<SeedSetResult> got = [&] {
        Tracer::Scope span(tracer, span_name,
                           pass * s.order.size() + pos + 1);
        return Execute(kind, s, qi);
      }();
      rec.latency_ms = static_cast<double>(NowNs() - q0) / 1e6;
      rec.ok = got.ok();
      if (!got.ok()) {
        ++m.failed;
        m.records.push_back(rec);
        continue;
      }
      ++m.answered;
      rec.stats = got->stats;
      m.records.push_back(rec);
      if (!m.first[qi].has_value()) {
        m.first[qi] = std::move(*got);
      } else if (std::string diff = CheckSameAnswer(*got, *m.first[qi]);
                 !diff.empty() && m.mismatches.size() < 8) {
        m.mismatches.push_back("query " + std::to_string(qi) +
                               " repeated answer: " + diff);
      }
    }
    m.passes = pass + 1;
    const auto answered = static_cast<double>(m.answered - answered_before);
    m.pass_qps.push_back(
        Ratio(answered, static_cast<double>(NowNs() - pass_start) / 1e9));
    m.pass_cpu_ms.push_back(
        Ratio((ProcessCpuSeconds() - pass_cpu) * 1e3, answered));
    m.pass_traced.push_back(traced);
  }
  tracer.SetRecording(true);
  m.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  m.cpu_s = ProcessCpuSeconds() - cpu0;
  m.steal_s = StealSeconds() - steal0;
  m.peak_rss_mb = PeakRssMb();
  if (kind == Kind::kIrrPressured) s.service->cache()->WaitForPrefetches();
  m.after = ReadCounters(s);
  return m;
}

// ---- Checks ----------------------------------------------------------------

/// φ(v, Q) for every vertex.
std::vector<double> DensePhi(const Environment& env, const Query& q) {
  std::vector<double> phi(env.graph().num_vertices(), 0.0);
  for (const auto& [v, w] : env.tfidf().SparsePhi(q)) phi[v] = w;
  return phi;
}

struct Checked {
  std::vector<std::string> failures;
  double spread = 0.0;  // mean simulated spread over the subset
};

void Fail(Checked& c, const std::string& what) {
  if (c.failures.size() < 32) c.failures.push_back(what);
}

/// VerifyIndex on a set-up's index; empty when it passes.
std::string VerifyBuilt(const Setup& s, Tracer& tracer) {
  Tracer::Scope span(tracer, "index.verify");
  StatusOr<kbtim::IndexVerification> verified = kbtim::VerifyIndex(s.dir.path());
  return verified.ok() ? "" : "VerifyIndex: " + verified.status().ToString();
}

Checked RunChecks(Kind kind, Setup& s, const Measured& m, uint64_t seed,
                  Tracer& tracer) {
  Tracer::Scope check_span(tracer, "bench.check");
  Checked c;
  for (const std::string& diff : m.mismatches) Fail(c, diff);
  const VertexId n = s.env->graph().num_vertices();
  for (size_t qi = 0; qi < s.mix.size(); ++qi) {
    if (!m.first[qi].has_value()) continue;
    if (std::string bad = CheckAnswerShape(*m.first[qi], s.mix[qi].k, n);
        !bad.empty()) {
      Fail(c, "query " + std::to_string(qi) + ": " + bad);
    }
  }

  // RR reference: Theorem 3 for IRR answers, byte equality for routed ones.
  if (kind != Kind::kWrisOnline) {
    StatusOr<kbtim::RrIndex> rr = kbtim::RrIndex::Open(s.dir.path());
    if (!rr.ok()) {
      Fail(c, "open RR index: " + rr.status().ToString());
    } else {
      for (size_t qi = 0; qi < s.mix.size(); ++qi) {
        if (!m.first[qi].has_value()) continue;
        StatusOr<SeedSetResult> want = [&] {
          Tracer::Scope span(tracer, "index.rr_query", qi + 1);
          return rr->Query(s.mix[qi]);
        }();
        if (!want.ok()) {
          Fail(c, "RR reference failed: " + want.status().ToString());
          continue;
        }
        if (std::string diff = CheckSameAnswer(*m.first[qi], *want);
            !diff.empty()) {
          Fail(c, "query " + std::to_string(qi) + " against RR: " + diff);
        }
      }
    }
  }
  if (kind == Kind::kRrRouted) {
    const kbtim::IoStats io = m.after.io - m.before.io;
    if (io.read_bytes != 0) {
      Fail(c, "measured phase read " + std::to_string(io.read_bytes) +
                  " index bytes from warm shards");
    }
  }

  // Forward simulation on the fixed subset.
  StatusOr<CascadeSimulator> sim =
      CascadeSimulator::Create(s.env->graph(), s.env->ic_probs());
  if (!sim.ok()) {
    Fail(c, sim.status().ToString());
    return c;
  }
  std::vector<double> spreads;
  for (size_t qi : s.subset) {
    if (!m.first[qi].has_value()) {
      Fail(c, "subset query " + std::to_string(qi) + " has no answer");
      continue;
    }
    const SeedSetResult& answer = *m.first[qi];
    const std::vector<double> phi = DensePhi(*s.env, s.mix[qi]);
    const SpreadEstimate got = [&] {
      Tracer::Scope span(tracer, "bench.simulate", qi + 1);
      return sim->Run(answer.seeds, phi, kSimRuns, Mix(seed, 100 + qi));
    }();
    spreads.push_back(got.mean);
    if (std::string bad =
            CheckEstimate(answer.estimated_influence, got, kEpsilon);
        !bad.empty()) {
      Fail(c, "query " + std::to_string(qi) + ": " + bad);
    }
    if (kind != Kind::kWrisOnline) continue;
    // WRIS against the IRR answer from the set-up index, same graph.
    StatusOr<SeedSetResult> irr = [&] {
      Tracer::Scope span(tracer, "serving.execute", qi + 1);
      return s.service->Execute({s.mix[qi], QueryEngine::kIrr});
    }();
    if (!irr.ok()) {
      Fail(c, "IRR reference failed: " + irr.status().ToString());
      continue;
    }
    if (std::string bad = CheckAnswerShape(*irr, s.mix[qi].k, n);
        !bad.empty()) {
      Fail(c, "IRR reference " + std::to_string(qi) + ": " + bad);
    }
    const SpreadEstimate ref = [&] {
      Tracer::Scope span(tracer, "bench.simulate", qi + 1);
      return sim->Run(irr->seeds, phi, kSimRuns, Mix(seed, 200 + qi));
    }();
    if (std::string bad = CheckApproximation(got, ref, kEpsilon);
        !bad.empty()) {
      Fail(c, "query " + std::to_string(qi) + ": " + bad);
    }
  }
  c.spread = Mean(spreads);

  if (std::string bad = VerifyBuilt(s, tracer); !bad.empty()) Fail(c, bad);
  return c;
}

// ---- Probes (traced run only) ----------------------------------------------

/// Times KeywordCache::GetIrrPartition (read, CRC check, decode) on a
/// cache dropped before every load, for the subset's keywords.
Status ProbeStorage(Setup& s, Tracer& tracer) {
  kbtim::KeywordCacheOptions opts;
  opts.prefetch_threads = 0;
  KBTIM_ASSIGN_OR_RETURN(std::shared_ptr<kbtim::KeywordCache> cache,
                         kbtim::KeywordCache::Create(s.dir.path(), opts));
  for (size_t qi : s.subset) {
    Tracer::Scope probe(tracer, "probe.irr", qi + 1);
    for (TopicId topic : s.mix[qi].topics) {
      KBTIM_ASSIGN_OR_RETURN(auto entry, cache->GetIrrKeyword(topic));
      const uint64_t parts = std::min(entry->num_partitions, kProbePartitions);
      for (uint64_t p = 0; p < parts; ++p) {
        cache->DropBlocks();
        Tracer::Scope span(tracer, "storage.partition_load", qi + 1);
        KBTIM_RETURN_IF_ERROR(cache->GetIrrPartition(*entry, p).status());
      }
    }
  }
  return Status::OK();
}

struct NetProbe {
  uint64_t payload_bytes = 0;
  uint64_t queries = 0;
};

/// Re-enacts a routed query from outside: one FetchRr per owning shard,
/// the wire encode and decode of what came back, the router's greedy over
/// it, plus Router::Query and in-process RrIndex::Query on the same query.
StatusOr<NetProbe> ProbeNet(Setup& s, Tracer& tracer) {
  NetProbe out;
  KBTIM_ASSIGN_OR_RETURN(kbtim::RrIndex local,
                         kbtim::RrIndex::Open(s.dir.path()));
  for (size_t qi : s.subset) {  // warm the local cache like the shards'
    KBTIM_RETURN_IF_ERROR(local.Query(s.mix[qi]).status());
  }
  std::vector<std::unique_ptr<kbtim::net::ShardClient>> clients;
  for (const auto& shard : s.shards) {
    clients.push_back(std::make_unique<kbtim::net::ShardClient>(
        "127.0.0.1", shard->port()));
  }
  for (size_t qi : s.subset) {
    const Query& q = s.mix[qi];
    Tracer::Scope probe(tracer, "probe.routed", qi + 1);
    {
      Tracer::Scope span(tracer, "net.router_query", qi + 1);
      KBTIM_RETURN_IF_ERROR(s.router->Query(q).status());
    }
    {
      Tracer::Scope span(tracer, "index.rr_query", qi + 1);
      KBTIM_RETURN_IF_ERROR(local.Query(q).status());
    }
    KBTIM_ASSIGN_OR_RETURN(kbtim::QueryBudget budget,
                           kbtim::ComputeQueryBudget(s.router->meta(), q));
    std::map<uint32_t, kbtim::RrFetchRequest> by_shard;
    for (const auto& [topic, tw] : budget.per_keyword) {
      if (tw == 0) continue;
      kbtim::RrFetchRequest& req = by_shard[s.router->ReplicasOf(topic)[0]];
      req.topics.push_back(topic);
      req.budgets.push_back(tw);
    }
    std::unordered_map<TopicId, std::shared_ptr<const kbtim::RrKeywordBlock>>
        blocks;
    for (const auto& [shard, req] : by_shard) {
      StatusOr<kbtim::RrFetchResult> fetched = [&] {
        Tracer::Scope span(tracer, "net.fetch_rpc", qi + 1);
        return clients[shard]->FetchRr(req);
      }();
      KBTIM_RETURN_IF_ERROR(fetched.status());
      const std::string payload = [&] {
        Tracer::Scope span(tracer, "net.encode", qi + 1);
        return kbtim::net::EncodeFetchResponse(*fetched);
      }();
      out.payload_bytes += payload.size();
      StatusOr<kbtim::RrFetchResult> decoded = [&] {
        Tracer::Scope span(tracer, "net.decode", qi + 1);
        return kbtim::net::DecodeFetchResponse(payload);
      }();
      KBTIM_RETURN_IF_ERROR(decoded.status());
      for (size_t j = 0; j < req.topics.size(); ++j) {
        blocks.emplace(req.topics[j], decoded->blocks[j]);
      }
    }
    Tracer::Scope span(tracer, "index.rr_greedy", qi + 1);
    const SeedSetResult greedy =
        kbtim::RunRrGreedy(q, budget, blocks, s.router->meta().num_vertices);
    if (greedy.seeds.size() != q.k) return Status::Internal("probe greedy");
    ++out.queries;
  }
  return out;
}

struct WrisProbe {
  uint64_t rr_sets = 0;
  uint64_t rr_items = 0;
};

/// Re-enacts a WRIS solve from outside with kbtim's public pieces: root
/// distribution, OPT pilot, θ RR sets on one thread, CELF over them.
StatusOr<WrisProbe> ProbeWris(Setup& s, uint64_t seed, Tracer& tracer) {
  WrisProbe out;
  const kbtim::Graph& graph = s.env->graph();
  std::unique_ptr<kbtim::RrSampler> sampler =
      kbtim::MakeRrSampler(kbtim::PropagationModel::kIndependentCascade,
                           graph, s.env->ic_probs());
  kbtim::CoverageWorkspace workspace;
  const kbtim::OnlineSolverOptions wris = WrisOptions(seed);
  for (size_t qi : s.subset) {
    const Query& q = s.mix[qi];
    Tracer::Scope probe(tracer, "probe.wris", qi + 1);
    std::vector<std::pair<VertexId, double>> sparse;
    kbtim::WeightedVertexSampler roots;
    {
      Tracer::Scope span(tracer, "sampling.roots", qi + 1);
      sparse = s.env->tfidf().SparsePhi(q);
      KBTIM_ASSIGN_OR_RETURN(
          roots, kbtim::WeightedVertexSampler::FromWeightedVertices(sparse));
    }
    std::vector<double> phis;
    for (const auto& [v, phi] : sparse) phis.push_back(phi);
    const size_t topk = std::min<size_t>(q.k, phis.size());
    std::partial_sort(phis.begin(), phis.begin() + topk, phis.end(),
                      std::greater<>());
    kbtim::OptEstimateOptions opt = wris.opt_estimate;
    opt.k = q.k;
    opt.seed = Mix(seed, 300 + qi);
    for (size_t i = 0; i < topk; ++i) opt.floor += phis[i];
    double opt_lb = 0.0;
    {
      Tracer::Scope span(tracer, "sampling.opt_estimate", qi + 1);
      KBTIM_ASSIGN_OR_RETURN(
          opt_lb, kbtim::EstimateOptLowerBound(graph, *sampler, roots, opt));
    }
    const uint64_t theta = std::clamp<uint64_t>(
        kbtim::ThetaForQuery(kEpsilon, roots.total_weight(),
                             graph.num_vertices(), q.k, opt_lb),
        1, wris.max_theta);
    kbtim::RrCollection sets;
    {
      Tracer::Scope span(tracer, "propagation.rr_sample", qi + 1);
      kbtim::Rng rng(Mix(seed, 400 + qi));
      std::vector<VertexId> scratch;
      for (uint64_t i = 0; i < theta; ++i) {
        sampler->Sample(roots.Sample(rng), rng, &scratch);
        sets.Add(scratch);
      }
    }
    out.rr_sets += sets.size();
    out.rr_items += sets.total_items();
    Tracer::Scope span(tracer, "coverage.celf", qi + 1);
    const kbtim::MaxCoverResult cover =
        workspace.Solve(sets, graph.num_vertices(), q.k);
    if (cover.seeds.size() != q.k) return Status::Internal("probe CELF");
  }
  return out;
}

// ---- Metrics ---------------------------------------------------------------

/// Wall-clock figures of the passes that were not traced: answers per
/// second (median over passes) and client latency percentiles.
std::vector<Metric> ClientMetrics(const Measured& m, const char* prefix) {
  std::vector<double> latencies;
  for (const QueryRecord& r : m.records) {
    if (!r.traced) latencies.push_back(r.latency_ms);
  }
  std::vector<double> qps;
  for (size_t p = 0; p < m.pass_qps.size(); ++p) {
    if (!m.pass_traced[p]) qps.push_back(m.pass_qps[p]);
  }
  const std::string pre = prefix;
  return {
      {pre + "qps", Median(qps), "1/s"},
      {pre + "p50_ms", Percentile(latencies, 50.0), "ms"},
      {pre + "p90_ms", Percentile(latencies, 90.0), "ms"},
  };
}

/// The gated metrics: those that hold steady across runs on a shared
/// host. Wall-clock qps and latency are printed beside them (see main.cc)
/// and reported per layer by the traced run.
std::vector<Metric> EndToEnd(const IndexBuildReport& report,
                             const Measured& m,
                             const std::vector<double>& setups,
                             const Checked& c) {
  return {
      {"setup_s", Median(setups), "s"},
      {"cpu_ms_per_query", Median(m.pass_cpu_ms), "ms"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"index_mb", static_cast<double>(report.total_bytes) / kMiB, "MB"},
      {"spread", c.spread, "users"},
  };
}

std::vector<Metric> PerLayer(Kind kind, const IndexBuildReport& report,
                             const Measured& m,
                             const Tracer& tracer, const NetProbe& net,
                             const WrisProbe& wris) {
  // Set-up spans give medians over the run's set-ups; probe spans means
  // over the fixed subset.
  auto median = [&](const char* name) {
    return Median(SpanMs(tracer, name, "bench.setup"));
  };
  auto mean = [&](const char* name) {
    return Mean(SpanMs(tracer, name, "bench.probe"));
  };
  std::vector<double> traced_latency, overhead, engine_ms, rr_loaded,
      sampling_ms, greedy_ms, pre_ms, theta;
  for (const QueryRecord& r : m.records) {
    if (!r.traced) continue;
    traced_latency.push_back(r.latency_ms);
    if (!r.ok) continue;
    const double total = r.stats.total_seconds * 1e3;
    engine_ms.push_back(total);
    if (kind != Kind::kRrRouted) overhead.push_back(r.latency_ms - total);
    rr_loaded.push_back(static_cast<double>(r.stats.rr_sets_loaded));
    sampling_ms.push_back(r.stats.sampling_seconds * 1e3);
    greedy_ms.push_back(r.stats.greedy_seconds * 1e3);
    pre_ms.push_back(total - (r.stats.sampling_seconds +
                              r.stats.greedy_seconds) * 1e3);
    theta.push_back(static_cast<double>(r.stats.theta));
  }
  const double queries = static_cast<double>(m.answered);
  const kbtim::IoStats io = m.after.io - m.before.io;
  const kbtim::KeywordCacheStats& c0 = m.before.cache;
  const kbtim::KeywordCacheStats& c1 = m.after.cache;
  const double build_s = median("index.build") / 1e3;
  const std::vector<Metric> client = ClientMetrics(m, "client.");
  const double traced_p50 = Percentile(traced_latency, 50.0);
  const double untraced_p50 = client[1].value;
  const bool irr = kind == Kind::kIrrPressured;
  const bool routed = kind == Kind::kRrRouted;
  const bool online = kind == Kind::kWrisOnline;
  auto only = [](bool applies, double value) { return applies ? value : 0.0; };
  const std::vector<double> sample_ms =
      SpanMs(tracer, "propagation.rr_sample", "bench.probe");
  const double sample_s =
      std::accumulate(sample_ms.begin(), sample_ms.end(), 0.0) / 1e3;
  std::vector<Metric> out = client;
  std::vector<Metric> layers = {
      // Set-up, every workload.
      {"expr.environment_s", median("expr.environment") / 1e3, "s"},
      {"index.build_s", build_s, "s"},
      {"index.build_rr_sets_per_s",
       Ratio(static_cast<double>(report.total_theta), build_s), "1/s"},
      {"serving.open_s", median("serving.open") / 1e3, "s"},
      {"serving.warm_s", median("serving.warm") / 1e3, "s"},
      {"index.total_theta", static_cast<double>(report.total_theta),
       "count"},
      {"index.rr_mb", static_cast<double>(report.rr_bytes) / kMiB, "MB"},
      {"index.lists_mb", static_cast<double>(report.lists_bytes) / kMiB,
       "MB"},
      {"index.irr_mb", static_cast<double>(report.irr_bytes) / kMiB, "MB"},
      // Serving, every workload.
      {"serving.overhead_ms", Mean(overhead), "ms"},
      {"serving.queue_ms", m.after.queue_ms, "ms"},
      {"serving.retries",
       static_cast<double>(m.after.retries - m.before.retries), "count"},
      // Index and storage (irr_pressured).
      {"index.irr_query_ms", only(irr, Mean(engine_ms)), "ms"},
      {"index.irr_rr_sets_loaded", only(irr, Mean(rr_loaded)), "count"},
      {"index.cache_hit_ratio",
       Ratio(static_cast<double>(c1.hits - c0.hits),
             static_cast<double>(c1.hits - c0.hits + c1.misses - c0.misses)),
       "ratio"},
      {"index.cache_evictions_per_query",
       Ratio(static_cast<double>(c1.evictions - c0.evictions), queries),
       "count"},
      {"index.prefetch_useful_ratio",
       Ratio(static_cast<double>(c1.prefetches_served - c0.prefetches_served),
             static_cast<double>(c1.prefetches_issued - c0.prefetches_issued)),
       "ratio"},
      {"storage.read_ops_per_query",
       Ratio(static_cast<double>(io.read_ops), queries), "count"},
      {"storage.read_mb_per_query",
       Ratio(static_cast<double>(io.read_bytes) / kMiB, queries), "MB"},
      {"storage.crc_checks_per_query",
       Ratio(static_cast<double>(c1.crc_checks - c0.crc_checks), queries),
       "count"},
      {"storage.partition_load_ms", mean("storage.partition_load"), "ms"},
      // Net (rr_routed).
      {"net.fetch_rpc_ms", mean("net.fetch_rpc"), "ms"},
      {"net.encode_ms", mean("net.encode"), "ms"},
      {"net.decode_ms", mean("net.decode"), "ms"},
      {"net.payload_mb_per_query",
       Ratio(static_cast<double>(net.payload_bytes) / kMiB,
             static_cast<double>(net.queries)),
       "MB"},
      {"net.scatter_rpcs_per_query",
       Ratio(static_cast<double>(m.after.router.scatter_rpcs -
                                 m.before.router.scatter_rpcs),
             queries),
       "count"},
      {"net.hedged_rpcs",
       static_cast<double>(m.after.router.hedged_rpcs -
                           m.before.router.hedged_rpcs),
       "count"},
      {"net.overhead_ms",
       only(routed, mean("net.router_query") - mean("index.rr_query")), "ms"},
      {"index.rr_query_ms", only(routed, mean("index.rr_query")), "ms"},
      {"index.rr_greedy_ms", mean("index.rr_greedy"), "ms"},
      // Sampling, coverage and propagation (wris_online).
      {"sampling.wris_solve_ms", only(online, Mean(engine_ms)), "ms"},
      {"sampling.wris_sampling_ms", only(online, Mean(sampling_ms)), "ms"},
      {"sampling.wris_pre_ms", only(online, Mean(pre_ms)), "ms"},
      {"sampling.opt_estimate_ms", mean("sampling.opt_estimate"), "ms"},
      {"sampling.theta_per_query", only(online, Mean(theta)), "count"},
      {"coverage.wris_greedy_ms", only(online, Mean(greedy_ms)), "ms"},
      {"coverage.celf_ms", mean("coverage.celf"), "ms"},
      {"propagation.rr_sets_per_s",
       Ratio(static_cast<double>(wris.rr_sets), sample_s),
       "1/s"},
      {"propagation.mean_rr_size",
       Ratio(static_cast<double>(wris.rr_items),
             static_cast<double>(wris.rr_sets)),
       "count"},
      // Tracing overhead: traced passes against the untraced ones
      // (client.p50_ms) of this run.
      {"trace.p50_ms", traced_p50, "ms"},
      {"trace.overhead_pct",
       untraced_p50 > 0.0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                          : 0.0,
       "%"},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

Kind ParseKind(const std::string& name) {
  if (name == "rr_routed") return Kind::kRrRouted;
  if (name == "wris_online") return Kind::kWrisOnline;
  return Kind::kIrrPressured;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"irr_pressured", "rr_routed",
                                                 "wris_online"};
  return names;
}

StatusOr<RunResult> RunWorkload(const RunOptions& o) {
  const Kind kind = ParseKind(o.workload);
  Tracer tracer(o.trace);
  // The first set-up serves the measured phase; the repeats come after the
  // checks, so that peak_rss_mb (read at the end of the measured phase)
  // covers one set-up, as a user would see it.
  std::vector<double> setups;
  KBTIM_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup,
                         DoSetup(kind, o, 0, o.start_ns, tracer));
  setups.push_back(setup->seconds);
  Setup& s = *setup;
  std::fprintf(stderr,
               "setup: %zu queries, theta %llu, index %.1f MB, warm passes "
               "%d, %.3f s\n",
               s.mix.size(),
               static_cast<unsigned long long>(s.report.total_theta),
               static_cast<double>(s.report.total_bytes) / kMiB, s.warm_passes,
               s.seconds);

  Measured m;
  {
    Tracer::Scope span(tracer, "bench.measure");
    m = Measure(kind, s, o, tracer);
  }
  std::fprintf(stderr,
               "measured: %llu passes, %llu answered, %llu failed, %.3f s "
               "wall, %.3f s cpu\n  pass qps:",
               static_cast<unsigned long long>(m.passes),
               static_cast<unsigned long long>(m.answered),
               static_cast<unsigned long long>(m.failed), m.wall_s, m.cpu_s);
  for (double q : m.pass_qps) std::fprintf(stderr, " %.1f", q);
  std::fprintf(stderr, "\n  pass cpu ms/query:");
  for (double c : m.pass_cpu_ms) std::fprintf(stderr, " %.2f", c);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "steal_s=%.3f over the measured phase\n", m.steal_s);

  NetProbe net;
  WrisProbe wris;
  if (o.trace) {
    Tracer::Scope span(tracer, "bench.probe");
    if (kind == Kind::kIrrPressured) {
      KBTIM_RETURN_IF_ERROR(ProbeStorage(s, tracer));
    } else if (kind == Kind::kRrRouted) {
      KBTIM_ASSIGN_OR_RETURN(net, ProbeNet(s, tracer));
    } else {
      KBTIM_ASSIGN_OR_RETURN(wris, ProbeWris(s, o.seed, tracer));
    }
  }

  Checked checked = RunChecks(kind, s, m, o.seed, tracer);
  const IndexBuildReport report = s.report;
  setup.reset();
  for (int r = 1; r < kSetupRepeats; ++r) {
    KBTIM_ASSIGN_OR_RETURN(std::unique_ptr<Setup> repeat,
                           DoSetup(kind, o, r, NowNs(), tracer));
    setups.push_back(repeat->seconds);
    std::fprintf(stderr, "setup repeat %d: %.3f s\n", r, repeat->seconds);
    if (std::string bad = VerifyBuilt(*repeat, tracer); !bad.empty()) {
      Fail(checked, bad);
    }
  }
  RunResult result;
  result.attempted = m.answered + m.failed;
  result.failed = m.failed;
  result.check_failures = checked.failures;
  if (o.trace) {
    result.metrics = PerLayer(kind, report, m, tracer, net, wris);
    KBTIM_RETURN_IF_ERROR(tracer.Write(o.trace_path));
    std::fprintf(stderr, "spans: %zu written to %s\n", tracer.spans().size(),
                 o.trace_path.c_str());
    for (const auto& [name, t] : tracer.Totals()) {
      std::fprintf(stderr, "  %-28s n=%-6llu total %10.3f ms  self %10.3f ms\n",
                   name.c_str(), static_cast<unsigned long long>(t.count),
                   t.total_ms, t.self_ms);
    }
  } else {
    result.metrics = EndToEnd(report, m, setups, checked);
    result.ungated = ClientMetrics(m, "");
  }
  return result;
}

}  // namespace perfbench
