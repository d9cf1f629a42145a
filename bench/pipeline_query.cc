// Query-pipeline benchmark: measures the hot-path stages of the query
// engine on the laptop-scale news dataset and writes BENCH_pipeline.json.
//
//   1. Cold IRR queries with the partition prefetch window off and on.
//   2. Warm repeat queries through a prefetching handle: must still
//      perform 0 read ops (--assert-warm-zero-io turns a violation into a
//      nonzero exit for CI).
//   3. Seed selection over one WRIS-style RR sample: PR-1's
//      InvertedRrIndex + priority_queue CELF (kept verbatim below as the
//      baseline) vs the flat-array CoverageWorkspace, equal seeds
//      asserted.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <queue>
#include <thread>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "coverage/flat_celf.h"
#include "index/irr_index.h"
#include "propagation/rr_sampler.h"
#include "sampling/vertex_sampler.h"
#include "storage/io_counter.h"

namespace kbtim {
namespace bench {
namespace {

// ---- PR-1 seed-selection baseline (verbatim copy, measured against) ----

struct Pr1HeapEntry {
  uint64_t count;
  VertexId vertex;
  bool operator<(const Pr1HeapEntry& other) const {
    if (count != other.count) return count < other.count;
    return vertex > other.vertex;
  }
};

MaxCoverResult Pr1CelfMaxCover(const RrCollection& sets,
                               const InvertedRrIndex& inverted, uint32_t k) {
  MaxCoverResult result;
  const VertexId n = inverted.num_vertices();
  std::vector<uint64_t> count(n);
  std::priority_queue<Pr1HeapEntry> heap;
  for (VertexId v = 0; v < n; ++v) {
    count[v] = inverted.ListLength(v);
    if (count[v] > 0) heap.push({count[v], v});
  }
  std::vector<char> covered(sets.size(), 0);
  std::vector<char> selected(n, 0);
  while (result.seeds.size() < k && !heap.empty()) {
    const Pr1HeapEntry top = heap.top();
    heap.pop();
    if (selected[top.vertex]) continue;
    if (top.count != count[top.vertex]) {
      if (count[top.vertex] > 0) heap.push({count[top.vertex], top.vertex});
      continue;
    }
    selected[top.vertex] = 1;
    result.seeds.push_back(top.vertex);
    result.marginal_coverage.push_back(top.count);
    result.total_covered += top.count;
    for (RrId rr : inverted.Sets(top.vertex)) {
      if (covered[rr]) continue;
      covered[rr] = 1;
      for (VertexId u : sets.Set(rr)) --count[u];
    }
  }
  for (VertexId v = 0; v < n && result.seeds.size() < k; ++v) {
    if (!selected[v]) {
      selected[v] = 1;
      result.seeds.push_back(v);
      result.marginal_coverage.push_back(0);
    }
  }
  return result;
}

// ---- Cold / warm IRR measurement ----------------------------------------

struct ColdStats {
  double ms_mean = 0.0;
  double io_reads_mean = 0.0;
  double prefetches_served_mean = 0.0;
};

StatusOr<ColdStats> MeasureColdIrr(const std::string& dir,
                                   const std::vector<Query>& queries,
                                   uint32_t prefetch_threads) {
  constexpr int kReps = 3;  // repetitions stabilize the config ratios
  ColdStats out;
  KeywordCacheOptions options;
  options.prefetch_threads = prefetch_threads;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Query& q : queries) {
      // Fresh handle = fresh KeywordCache per query (PR-1 cold
      // methodology).
      KBTIM_ASSIGN_OR_RETURN(IrrIndex index, IrrIndex::Open(dir, options));
      const IoStats io_before = IoCounter::Snapshot();
      WallTimer t;
      KBTIM_ASSIGN_OR_RETURN(SeedSetResult r, index.Query(q));
      out.ms_mean += t.ElapsedSeconds() * 1e3;
      // Drain before closing the I/O window: speculative reads still in
      // flight when Query returns belong to this configuration's cost.
      index.cache()->WaitForPrefetches();
      out.io_reads_mean += static_cast<double>(
          (IoCounter::Snapshot() - io_before).read_ops);
      out.prefetches_served_mean +=
          static_cast<double>(r.stats.prefetches_served);
    }
  }
  const double n = static_cast<double>(queries.size() * kReps);
  out.ms_mean /= n;
  out.io_reads_mean /= n;
  out.prefetches_served_mean /= n;
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace kbtim

int main(int argc, char** argv) {
  using namespace kbtim;
  using namespace kbtim::bench;
  BenchFlags flags = ParseFlags(argc, argv);
  bool assert_warm_zero_io = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-warm-zero-io") == 0) {
      assert_warm_zero_io = true;
    }
  }
  PrintHeader("Query pipeline: prefetch + flat CELF", flags);

  const DatasetSpec spec = ScaleSpec(DefaultNewsSpec(flags.topics),
                                     flags.scale);
  auto env_or = Environment::Create(spec);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto env = std::move(*env_or);
  IndexBuildOptions build = DefaultBuildOptions(flags);
  IndexBuildReport report;
  const std::string tag = spec.name + "_pipeline_e" +
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
  qopts.seed = 2026;
  auto queries = env->Queries(qopts);
  if (!queries.ok() || queries->empty()) return 1;

  // ---- Stage 1: cold IRR, prefetch window off and on --------------------
  // With a single hardware thread background decode cannot overlap with
  // anything; the prefetch row then records its cost.
  const uint32_t hw_threads = std::thread::hardware_concurrency();
  struct Config {
    const char* name;
    uint32_t prefetch;
  };
  const Config configs[] = {{"no_prefetch", 0}, {"prefetch", 2}};
  constexpr int kNumConfigs = 2;
  ColdStats cold[kNumConfigs];
  for (int c = 0; c < kNumConfigs; ++c) {
    auto stats = MeasureColdIrr(*dir, *queries, configs[c].prefetch);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    cold[c] = *stats;
  }
  const double prefetch_speedup =
      cold[1].ms_mean > 0 ? cold[0].ms_mean / cold[1].ms_mean : 0.0;

  // ---- Stage 2: warm repeat queries through a prefetching handle --------
  double warm_ms = 0.0;
  uint64_t warm_reads = 0;
  {
    auto warm_or = IrrIndex::Open(*dir);
    if (!warm_or.ok()) return 1;
    for (const Query& q : *queries) {
      if (!warm_or->Query(q).ok()) return 1;
    }
    warm_or->cache()->WaitForPrefetches();
    const IoStats before = IoCounter::Snapshot();
    WallTimer t;
    for (const Query& q : *queries) {
      if (!warm_or->Query(q).ok()) return 1;
    }
    warm_ms = t.ElapsedSeconds() * 1e3 / static_cast<double>(queries->size());
    warm_reads = (IoCounter::Snapshot() - before).read_ops;
  }

  // ---- Stage 3: seed selection, PR-1 vs flat workspace ------------------
  constexpr uint64_t kThetaCelf = 150000;
  constexpr int kCelfRounds = 5;
  RrCollection sets;
  {
    auto roots_or =
        WeightedVertexSampler::ForQuery(env->tfidf(), (*queries)[0]);
    if (!roots_or.ok()) return 1;
    auto sampler = MakeRrSampler(PropagationModel::kIndependentCascade,
                                 env->graph(), env->ic_probs());
    Rng rng(424242);
    std::vector<VertexId> scratch;
    sets.Reserve(kThetaCelf, kThetaCelf * 4);
    for (uint64_t i = 0; i < kThetaCelf; ++i) {
      sampler->Sample(roots_or->Sample(rng), rng, &scratch);
      sets.Add(scratch);
    }
  }
  const uint32_t k = qopts.k;
  const VertexId n = env->graph().num_vertices();
  double celf_pr1_ms = 0.0, celf_flat_first_ms = 0.0, celf_flat_ms = 0.0;
  MaxCoverResult want, got;
  for (int r = 0; r < kCelfRounds; ++r) {
    WallTimer t;
    const InvertedRrIndex inverted(sets, n);  // PR-1 rebuilt this per query
    want = Pr1CelfMaxCover(sets, inverted, k);
    celf_pr1_ms += t.ElapsedSeconds() * 1e3;
  }
  celf_pr1_ms /= kCelfRounds;
  {
    CoverageWorkspace ws;
    WallTimer first;
    got = ws.Solve(sets, n, k);
    celf_flat_first_ms = first.ElapsedSeconds() * 1e3;
    for (int r = 0; r < kCelfRounds; ++r) {
      WallTimer t;
      got = ws.Solve(sets, n, k);
      celf_flat_ms += t.ElapsedSeconds() * 1e3;
    }
    celf_flat_ms /= kCelfRounds;
  }
  if (want.seeds != got.seeds ||
      want.marginal_coverage != got.marginal_coverage) {
    std::fprintf(stderr,
                 "FATAL: flat CELF diverged from the PR-1 baseline\n");
    return 1;
  }
  const double celf_speedup =
      celf_flat_ms > 0 ? celf_pr1_ms / celf_flat_ms : 0.0;

  // ---- Report -----------------------------------------------------------
  TablePrinter table({"config", "cold_ms", "cold_IOs", "pf_served"});
  for (int c = 0; c < kNumConfigs; ++c) {
    table.AddRow({configs[c].name, FormatDouble(cold[c].ms_mean, 3),
                  FormatDouble(cold[c].io_reads_mean, 1),
                  FormatDouble(cold[c].prefetches_served_mean, 1)});
  }
  table.Print(std::cout);
  std::printf("\ncold IRR prefetch speedup: %.2fx\n", prefetch_speedup);
  std::printf("warm repeat: %.3f ms, %llu read ops (must be 0)\n", warm_ms,
              static_cast<unsigned long long>(warm_reads));
  std::printf(
      "seed selection (theta=%llu, k=%u): PR1 %.2f ms, flat first %.2f ms, "
      "flat steady %.2f ms -> %.2fx\n",
      static_cast<unsigned long long>(kThetaCelf), k, celf_pr1_ms,
      celf_flat_first_ms, celf_flat_ms, celf_speedup);

  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_pipeline.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"params\": {\"scale\": %.2f, \"topics\": %u, \"epsilon\": "
               "%.2f, \"queries\": %u, \"k\": %u, \"keywords\": 2, "
               "\"celf_theta\": %llu, \"hardware_threads\": %u},\n"
               "  \"cold_irr\": {\n",
               flags.scale, flags.topics, flags.epsilon, flags.queries, k,
               static_cast<unsigned long long>(kThetaCelf), hw_threads);
  for (int c = 0; c < kNumConfigs; ++c) {
    std::fprintf(json,
                 "    \"%s\": {\"ms_mean\": %.4f, \"io_reads_mean\": %.2f, "
                 "\"prefetches_served_mean\": %.2f}%s\n",
                 configs[c].name, cold[c].ms_mean, cold[c].io_reads_mean,
                 cold[c].prefetches_served_mean,
                 c + 1 < kNumConfigs ? "," : "");
  }
  std::fprintf(json,
               "  },\n"
               "  \"prefetch_speedup\": %.3f,\n"
               "  \"warm\": {\"ms_mean\": %.4f, \"io_reads\": %llu},\n"
               "  \"seed_selection\": {\"pr1_ms\": %.4f, \"flat_first_ms\": "
               "%.4f, \"flat_steady_ms\": %.4f, \"speedup\": %.3f}\n"
               "}\n",
               prefetch_speedup, warm_ms,
               static_cast<unsigned long long>(warm_reads), celf_pr1_ms,
               celf_flat_first_ms, celf_flat_ms, celf_speedup);
  std::fclose(json);
  std::printf("wrote BENCH_pipeline.json\n");

  if (assert_warm_zero_io && warm_reads != 0) {
    std::fprintf(stderr,
                 "FAIL: warm-path regression — %llu read ops on repeat "
                 "queries (expected 0)\n",
                 static_cast<unsigned long long>(warm_reads));
    return 1;
  }
  return 0;
}
