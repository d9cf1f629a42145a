// The benchmark's run of one workload: what it is asked to do and what it
// reports. Workload definitions live in workloads.cc; see README.md.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase; it ends at the first pass boundary
  /// past this.
  double seconds = 10.0;
  /// Traced run: spans, probes and per-layer metrics instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Scratch directory for index directories (removed before returning).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
  /// Process start on the tracer's clock (NowNs), where setup_s begins.
  int64_t start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per output check that failed; empty on a correct run.
  std::vector<std::string> check_failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Untraced run: wall-clock qps, p50_ms and p90_ms, printed beside the
  /// end-to-end metrics but not part of them (see README.md).
  std::vector<Metric> ungated;
};

const std::vector<std::string>& WorkloadNames();

kbtim::StatusOr<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
