// kbtim_perfbench: runs one benchmark workload in one process.
//
//   kbtim_perfbench --workload <irr_pressured|rr_routed|wris_online>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--trace-out <file>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end ones untraced, per-layer ones traced).
// Standard error carries progress and the machine's steal time over the
// measured phase (steal_s=...). Index directories go under --work-dir
// (default .bench_build/perfbench/work), the traced run's spans to
// --trace-out (default .bench_build/perfbench/traces/<workload>-seed<n>.jsonl),
// both relative to the working directory.
// Exit code 0 when every output check passed, 1 when one failed or the run
// broke, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "trace.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: kbtim_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\n",
               error);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.start_ns = perfbench::NowNs();
  kbtim::SetMinLogSeverity(kbtim::LogSeverity::kWarning);
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &options.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &number) || number == 0 || number > 3600) {
        return Usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (options.work_dir.empty()) options.work_dir = ".bench_build/perfbench/work";
  if (options.trace_path.empty()) {
    options.trace_path = ".bench_build/perfbench/traces/" + options.workload +
                         "-seed" + std::to_string(options.seed) + ".jsonl";
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (options.trace) {
    std::filesystem::create_directories(
        std::filesystem::path(options.trace_path).parent_path(), ec);
  }

  kbtim::StatusOr<perfbench::RunResult> result =
      perfbench::RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& failure : result->check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  bool finite = true;
  for (const perfbench::Metric& m : result->metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : result->ungated) {
    std::printf("%-32s %18.6f %s (not gated)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = result->check_failures.empty() && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed));
  for (size_t i = 0; i < result->metrics.size(); ++i) {
    const perfbench::Metric& m = result->metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
