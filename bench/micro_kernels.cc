// Google-benchmark microbenches for the kernels underneath the paper's
// numbers: integer codecs (Table 4's compression), alias sampling and RR
// sampling (index construction cost), CELF seed selection over sampled RR
// sets (query processing cost), mmap vs pread index reads,
// and flat open-addressing vs unordered_map inverted-list lookup (the two
// warm-query-engine kernels).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "common/rng.h"
#include "coverage/flat_celf.h"
#include "graph/generators.h"
#include "propagation/rr_sampler.h"
#include "common/alias_table.h"
#include "storage/block_file.h"
#include "storage/pfor_codec.h"

namespace kbtim {
namespace {

std::vector<uint32_t> SortedDeltas(size_t n) {
  Rng rng(7);
  std::vector<uint32_t> values(n);
  for (auto& v : values) v = rng.NextU32Below(1u << 24);
  std::sort(values.begin(), values.end());
  DeltaEncode(&values);
  return values;
}

void BM_CodecEncode(benchmark::State& state, CodecKind kind) {
  const auto codec = MakeCodec(kind);
  const auto values = SortedDeltas(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string buf;
    codec->Encode(values, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_CodecEncode, raw, CodecKind::kRaw)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_CodecEncode, varint, CodecKind::kVarint)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_CodecEncode, pfor, CodecKind::kPfor)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_CodecEncode, gvarint, CodecKind::kGroupVarint)
    ->Arg(1 << 14);

void BM_CodecDecode(benchmark::State& state, CodecKind kind) {
  const auto codec = MakeCodec(kind);
  const auto values = SortedDeltas(static_cast<size_t>(state.range(0)));
  std::string buf;
  codec->Encode(values, &buf);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decode(buf, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["bytes_per_int"] =
      static_cast<double>(buf.size()) / state.range(0);
}
BENCHMARK_CAPTURE(BM_CodecDecode, raw, CodecKind::kRaw)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_CodecDecode, varint, CodecKind::kVarint)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_CodecDecode, pfor, CodecKind::kPfor)->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_CodecDecode, gvarint, CodecKind::kGroupVarint)
    ->Arg(1 << 14);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  auto table = AliasTable::FromWeights(weights);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += table->Sample(rng);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample)->Arg(1 << 10)->Arg(1 << 20);

void BM_RrSample(benchmark::State& state, PropagationModel model) {
  SocialGraphOptions opts;
  opts.num_vertices = 20000;
  opts.avg_degree = 20.0;
  opts.seed = 5;
  auto sg = GenerateSocialGraph(opts);
  const std::vector<float> weights = UniformIcProbabilities(sg->graph);
  auto sampler = MakeRrSampler(model, sg->graph, weights);
  Rng rng(9);
  std::vector<VertexId> rr;
  uint64_t total_size = 0;
  for (auto _ : state) {
    sampler->Sample(rng.NextU32Below(opts.num_vertices), rng, &rr);
    total_size += rr.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["mean_rr_size"] =
      static_cast<double>(total_size) /
      static_cast<double>(state.iterations());
}
BENCHMARK_CAPTURE(BM_RrSample, ic, PropagationModel::kIndependentCascade);
BENCHMARK_CAPTURE(BM_RrSample, lt, PropagationModel::kLinearThreshold);

RrCollection BenchSets(uint32_t num_sets, uint32_t num_vertices) {
  Rng rng(11);
  RrCollection sets;
  std::vector<VertexId> members;
  for (uint32_t i = 0; i < num_sets; ++i) {
    members.clear();
    const uint32_t len = 1 + rng.NextU32Below(8);
    for (uint32_t j = 0; j < len; ++j) {
      members.push_back(rng.NextU32Below(num_vertices));
    }
    sets.Add(members);
  }
  return sets;
}

void BM_CoverageSolve(benchmark::State& state) {
  const auto sets = BenchSets(static_cast<uint32_t>(state.range(0)), 20000);
  CoverageWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.Solve(sets, 20000, 50));
  }
}
BENCHMARK(BM_CoverageSolve)->Arg(1 << 16)->Arg(1 << 18);

// ---- mmap vs pread (the RandomAccessFile zero-copy path) ------------------

class TempIndexFile {
 public:
  explicit TempIndexFile(size_t bytes) {
    path_ = (std::filesystem::temp_directory_path() /
             ("kbtim_bench_io_" + std::to_string(bytes) + ".dat"))
                .string();
    auto writer = FileWriter::Create(path_).value();
    Rng rng(13);
    std::string chunk(1 << 16, '\0');
    for (size_t written = 0; written < bytes; written += chunk.size()) {
      for (auto& c : chunk) c = static_cast<char>(rng.NextU32Below(256));
      KBTIM_IGNORE_STATUS(writer->Append(chunk));
    }
    KBTIM_IGNORE_STATUS(writer->Close());
  }
  ~TempIndexFile() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void BM_ReadPread(benchmark::State& state) {
  const size_t block = static_cast<size_t>(state.range(0));
  TempIndexFile file(64 << 20);
  auto raf = RandomAccessFile::Open(file.path(), /*prefer_mmap=*/false).value();
  Rng rng(17);
  std::string buf;
  uint64_t sink = 0;
  const uint64_t span = raf->size() - block;
  for (auto _ : state) {
    const uint64_t off = rng.NextU32Below(static_cast<uint32_t>(span));
    KBTIM_IGNORE_STATUS(raf->Read(off, block, &buf));
    sink += static_cast<uint8_t>(buf[0]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * block);
}
BENCHMARK(BM_ReadPread)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ReadMmapView(benchmark::State& state) {
  const size_t block = static_cast<size_t>(state.range(0));
  TempIndexFile file(64 << 20);
  auto raf = RandomAccessFile::Open(file.path(), /*prefer_mmap=*/true).value();
  if (!raf->mmapped()) {
    state.SkipWithError("mmap unavailable on this filesystem");
    return;
  }
  Rng rng(17);
  uint64_t sink = 0;
  const uint64_t span = raf->size() - block;
  for (auto _ : state) {
    const uint64_t off = rng.NextU32Below(static_cast<uint32_t>(span));
    auto view = raf->ReadView(off, block);
    sink += static_cast<uint8_t>((*view)[0]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * block);
}
BENCHMARK(BM_ReadMmapView)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// ---- flat open-addressing vs unordered_map list lookup --------------------
// Mirrors the IRR query's hot loop: look up a vertex's inverted list and
// scan it against a covered bitmap (irr_index.cc's FlatListTable vs the
// seed implementation's std::unordered_map<VertexId, std::vector<RrId>>).

struct ListFixture {
  std::vector<VertexId> vertices;       // inserted keys
  std::vector<VertexId> probes;         // lookup order (hit-heavy)
  std::vector<RrId> ids;                // flattened lists
  std::vector<uint32_t> offsets{0};
  std::vector<char> covered;

  explicit ListFixture(uint32_t num_users) {
    Rng rng(23);
    covered.assign(1 << 16, 0);
    for (uint32_t i = 0; i < num_users; ++i) {
      vertices.push_back(i * 7 + 3);  // sparse non-contiguous ids
      const uint32_t len = 1 + rng.NextU32Below(16);
      for (uint32_t j = 0; j < len; ++j) {
        ids.push_back(rng.NextU32Below(1 << 16));
      }
      offsets.push_back(static_cast<uint32_t>(ids.size()));
    }
    for (uint32_t i = 0; i < 4 * num_users; ++i) {
      probes.push_back(vertices[rng.NextU32Below(num_users)]);
    }
  }
};

void BM_ListLookupHash(benchmark::State& state) {
  const ListFixture fx(static_cast<uint32_t>(state.range(0)));
  std::unordered_map<VertexId, std::vector<RrId>> lists;
  for (size_t i = 0; i < fx.vertices.size(); ++i) {
    lists.emplace(fx.vertices[i],
                  std::vector<RrId>(fx.ids.begin() + fx.offsets[i],
                                    fx.ids.begin() + fx.offsets[i + 1]));
  }
  uint64_t sink = 0;
  for (auto _ : state) {
    for (VertexId v : fx.probes) {
      const auto it = lists.find(v);
      for (RrId rr : it->second) {
        if (!fx.covered[rr]) ++sink;
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * fx.probes.size());
}
BENCHMARK(BM_ListLookupHash)->Arg(1 << 10)->Arg(1 << 14);

void BM_ListLookupFlat(benchmark::State& state) {
  const ListFixture fx(static_cast<uint32_t>(state.range(0)));
  // Open-addressing table of spans into the flattened ids (the
  // FlatListTable layout).
  struct Slot {
    VertexId vertex = kInvalidVertex;
    const RrId* begin = nullptr;
    const RrId* end = nullptr;
  };
  size_t cap = 16;
  while (cap < 2 * fx.vertices.size()) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<Slot> slots(cap);
  auto hash = [](VertexId v) {
    return static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ull) >> 29);
  };
  for (size_t i = 0; i < fx.vertices.size(); ++i) {
    size_t s = hash(fx.vertices[i]) & mask;
    while (slots[s].vertex != kInvalidVertex) s = (s + 1) & mask;
    slots[s] = {fx.vertices[i], fx.ids.data() + fx.offsets[i],
                fx.ids.data() + fx.offsets[i + 1]};
  }
  uint64_t sink = 0;
  for (auto _ : state) {
    for (VertexId v : fx.probes) {
      size_t s = hash(v) & mask;
      while (slots[s].vertex != v) s = (s + 1) & mask;
      for (const RrId* p = slots[s].begin; p != slots[s].end; ++p) {
        if (!fx.covered[*p]) ++sink;
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * fx.probes.size());
}
BENCHMARK(BM_ListLookupFlat)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace
}  // namespace kbtim
