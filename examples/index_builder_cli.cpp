// Command-line index builder / query tool.
//
//   index_builder_cli build <dir> [--preset news|twitter] [--topics N]
//                     [--epsilon E] [--codec raw|varint|pfor] [--lt]
//                     [--max-k K] [--delta D] [--threads T] [--scale S]
//   index_builder_cli query <dir> --topics 0,3,7 --k 10 [--irr]
//   index_builder_cli verify <dir>
//
// The build subcommand also writes the generated graph next to the index
// (graph.bin) so later runs can inspect it; --scale shrinks the preset's
// vertex count (min 1000) for smoke builds. verify checks every
// structural invariant of the on-disk format plus, on v2 indexes, every
// stored CRC32C (see index/index_verifier.h).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "expr/workload.h"
#include "graph/graph_io.h"
#include "index/index_builder.h"
#include "index/index_verifier.h"
#include "index/irr_index.h"
#include "index/rr_index.h"

namespace {

using namespace kbtim;

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  index_builder_cli build <dir> [--preset news|twitter]"
      " [--topics N] [--epsilon E] [--codec raw|varint|pfor] [--lt]\n"
      "                    [--max-k K] [--delta D] [--threads T]"
      " [--scale S]\n"
      "  index_builder_cli query <dir> --topics 0,3,7 --k 10 [--irr]\n"
      "  index_builder_cli verify <dir>\n");
  return 2;
}

int RunVerify(const char* dir) {
  auto result = VerifyIndex(dir);
  if (!result.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "OK: %u topics, %llu RR sets, %llu inverted lists, %llu partitions\n",
      result->topics_checked,
      static_cast<unsigned long long>(result->rr_sets_checked),
      static_cast<unsigned long long>(result->inverted_entries_checked),
      static_cast<unsigned long long>(result->partitions_checked));
  std::printf("format v%u: %llu checksums verified\n",
              result->format_version,
              static_cast<unsigned long long>(result->checksums_verified));
  return 0;
}

int RunBuild(int argc, char** argv) {
  const std::string dir = argv[2];
  std::filesystem::create_directories(dir);
  const char* preset = FlagValue(argc, argv, "--preset");
  const char* topics = FlagValue(argc, argv, "--topics");
  const uint32_t num_topics =
      topics != nullptr ? static_cast<uint32_t>(std::atoi(topics)) : 20;

  DatasetSpec spec = (preset != nullptr &&
                      std::string(preset) == "twitter")
                         ? DefaultTwitterSpec(num_topics)
                         : DefaultNewsSpec(num_topics);
  if (const char* s = FlagValue(argc, argv, "--scale")) {
    const double n =
        static_cast<double>(spec.graph.num_vertices) * std::atof(s);
    spec.graph.num_vertices =
        static_cast<uint32_t>(n < 1000.0 ? 1000.0 : n);
  }
  auto env_or = Environment::Create(spec);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto env = std::move(*env_or);

  IndexBuildOptions opts;
  if (const char* e = FlagValue(argc, argv, "--epsilon")) {
    opts.epsilon = std::atof(e);
  }
  if (const char* c = FlagValue(argc, argv, "--codec")) {
    opts.codec = std::string(c) == "raw"      ? CodecKind::kRaw
                 : std::string(c) == "varint" ? CodecKind::kVarint
                                              : CodecKind::kPfor;
  }
  if (const char* k = FlagValue(argc, argv, "--max-k")) {
    opts.max_k = static_cast<uint32_t>(std::atoi(k));
  }
  if (const char* d = FlagValue(argc, argv, "--delta")) {
    opts.partition_size = static_cast<uint32_t>(std::atoi(d));
  }
  if (const char* t = FlagValue(argc, argv, "--threads")) {
    opts.num_threads = static_cast<uint32_t>(std::atoi(t));
  }
  opts.model = HasFlag(argc, argv, "--lt")
                   ? PropagationModel::kLinearThreshold
                   : PropagationModel::kIndependentCascade;

  std::printf("dataset %s: %u users, %llu edges; building %s index...\n",
              env->name().c_str(), env->graph().num_vertices(),
              static_cast<unsigned long long>(env->graph().num_edges()),
              PropagationModelName(opts.model));
  IndexBuilder builder(env->graph(), env->tfidf(),
                       env->weights(opts.model), opts);
  auto report = builder.Build(dir);
  if (!report.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (Status s = SaveGraphBinary(env->graph(), dir + "/graph.bin");
      !s.ok()) {
    std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
  }
  std::printf("built %llu RR sets (mean size %.2f) in %.1f s\n",
              static_cast<unsigned long long>(report->total_theta),
              report->mean_rr_set_size, report->seconds);
  std::printf("bytes: rr=%llu lists=%llu irr=%llu total=%llu\n",
              static_cast<unsigned long long>(report->rr_bytes),
              static_cast<unsigned long long>(report->lists_bytes),
              static_cast<unsigned long long>(report->irr_bytes),
              static_cast<unsigned long long>(report->total_bytes));
  return 0;
}

int RunQuery(int argc, char** argv) {
  const std::string dir = argv[2];
  const char* topics = FlagValue(argc, argv, "--topics");
  const char* k = FlagValue(argc, argv, "--k");
  if (topics == nullptr || k == nullptr) return Usage();

  Query q;
  q.k = static_cast<uint32_t>(std::atoi(k));
  for (const char* p = topics; *p != '\0';) {
    q.topics.push_back(static_cast<TopicId>(std::strtoul(p, nullptr, 10)));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }

  SeedSetResult result;
  if (HasFlag(argc, argv, "--irr")) {
    auto index = IrrIndex::Open(dir);
    if (!index.ok()) {
      std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
      return 1;
    }
    auto r = index->Query(q);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    result = std::move(*r);
  } else {
    auto index = RrIndex::Open(dir);
    if (!index.ok()) {
      std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
      return 1;
    }
    auto r = index->Query(q);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    result = std::move(*r);
  }

  std::printf("%.2f ms, %llu RR sets loaded, %llu I/Os, influence %.2f\n",
              result.stats.total_seconds * 1e3,
              static_cast<unsigned long long>(result.stats.rr_sets_loaded),
              static_cast<unsigned long long>(result.stats.io_reads),
              result.estimated_influence);
  std::printf("seeds:");
  for (VertexId s : result.seeds) std::printf(" %u", s);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::strcmp(argv[1], "build") == 0) return RunBuild(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return RunQuery(argc, argv);
  if (std::strcmp(argv[1], "verify") == 0) return RunVerify(argv[2]);
  return Usage();
}
