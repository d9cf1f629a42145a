// Shared plumbing for the per-table/figure benchmark binaries.
//
// Every bench accepts:
//   --scale S    multiply dataset vertex counts by S (default 1.0)
//   --topics N   topic-space size (default 30)
//   --epsilon E  index/solver epsilon (default 0.5; the paper used 0.1 on
//                a 60 GB server — θ grows as 1/ε²)
//   --queries Q  queries per configuration (default 10; paper used 100)
//   --threads T  build/evaluation threads (default 2)
//   --no-cache   rebuild indexes even if a cached copy exists
// and prints its parameter block first so runs are self-describing.
#ifndef KBTIM_BENCH_BENCH_COMMON_H_
#define KBTIM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "expr/datasets.h"
#include "expr/table_printer.h"
#include "expr/workload.h"
#include "index/index_builder.h"

namespace kbtim {
namespace bench {

struct BenchFlags {
  double scale = 1.0;
  uint32_t topics = 30;
  double epsilon = 0.5;
  uint32_t queries = 10;
  uint32_t threads = 2;
  bool no_cache = false;
};

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      flags.scale = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--topics") == 0) {
      flags.topics = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--epsilon") == 0) {
      flags.epsilon = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      flags.queries = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      flags.threads = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-cache") == 0) flags.no_cache = true;
  }
  return flags;
}

inline void PrintHeader(const char* title, const BenchFlags& flags) {
  std::printf("==== %s ====\n", title);
  std::printf(
      "params: scale=%.2f topics=%u epsilon=%.2f queries=%u threads=%u\n",
      flags.scale, flags.topics, flags.epsilon, flags.queries,
      flags.threads);
  std::printf(
      "note: laptop-scale reproduction; compare SHAPES to the paper, not "
      "absolute numbers (see EXPERIMENTS.md)\n\n");
}

/// Applies --scale to a spec's vertex count (min 1000 vertices).
inline DatasetSpec ScaleSpec(DatasetSpec spec, double scale) {
  const double n = static_cast<double>(spec.graph.num_vertices) * scale;
  spec.graph.num_vertices =
      static_cast<uint32_t>(n < 1000.0 ? 1000.0 : n);
  return spec;
}

/// Default index-build options used across benches.
inline IndexBuildOptions DefaultBuildOptions(const BenchFlags& flags) {
  IndexBuildOptions opts;
  opts.epsilon = flags.epsilon;
  opts.max_k = 100;
  opts.num_threads = flags.threads;
  opts.partition_size = 100;
  opts.seed = 4242;
  opts.max_theta_per_keyword = uint64_t{1} << 22;
  opts.opt_estimate.pilot_initial = 2048;
  return opts;
}

/// Root of the on-disk index cache shared by bench binaries.
inline std::string CacheRoot() {
  const char* env = std::getenv("KBTIM_BENCH_CACHE");
  return env != nullptr ? env : "/tmp/kbtim_bench_cache";
}

/// Builds (or reuses) an index for `env` under a tag; returns the directory
/// and fills `report` if a build happened (report->total_theta == 0 means
/// the cached index was reused).
inline StatusOr<std::string> EnsureIndex(const Environment& env,
                                         const IndexBuildOptions& opts,
                                         const std::string& tag,
                                         bool no_cache,
                                         IndexBuildReport* report) {
  const std::string dir = CacheRoot() + "/" + tag;
  std::filesystem::create_directories(dir);
  bool cached = !no_cache && std::filesystem::exists(MetaFileName(dir));
  if (cached) {
    // A cache dir left by an older binary may hold a meta of another
    // format version, which ReadIndexMeta refuses; rebuild it.
    cached = ReadIndexMeta(MetaFileName(dir)).ok();
  }
  if (cached) {
    *report = IndexBuildReport{};
    return dir;
  }
  IndexBuilder builder(env.graph(), env.tfidf(),
                       env.weights(opts.model), opts);
  KBTIM_ASSIGN_OR_RETURN(*report, builder.Build(dir));
  return dir;
}

/// Directory size on disk (sums files matching the given prefix, or all
/// files when prefix is empty).
inline uint64_t DirBytes(const std::string& dir,
                         const std::string& prefix = "") {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    total += entry.file_size();
  }
  return total;
}

}  // namespace bench
}  // namespace kbtim

#endif  // KBTIM_BENCH_BENCH_COMMON_H_
