// The library's one seed-selection loop: lazy-forward CELF greedy maximum
// coverage (the (1 - 1/e)-approximate step of the RIS framework). WRIS and
// RIS (CoverageWorkspace, flat_celf.h), the OPT pilot (opt_estimator) and
// the RR index, its batches and the router (RunRrGreedy, rr_greedy.h) all
// select seeds through RunCelf below, so they break ties alike — Theorem 3's
// RR == IRR equality and the router goldens rely on it.
//
// The loop operates entirely on flat arrays:
//   * marginal counts in one contiguous uint32 array,
//   * the priority queue as packed uint64 entries
//     (count << 32) | (~vertex) in a binary max-heap, so a single integer
//     compare orders by count descending then vertex ascending,
//   * the selection as a 1-bit-per-vertex word bitset.
// Which RR sets a seed covers is the caller's: `cover` walks its own
// incidence lists (flat lists, per-keyword index blocks) and keeps its own
// covered-set bitsets.
//
// Laziness uses the count itself as the generation tag: counts only ever
// decrease, so an entry whose packed count differs from count[v] is stale.
// Stale tops are refreshed IN PLACE (overwrite the root, sift down) —
// each vertex lives in the heap exactly once, the heap only shrinks, and
// the steady-state loop performs no allocation at all.
#ifndef KBTIM_COVERAGE_CELF_CORE_H_
#define KBTIM_COVERAGE_CELF_CORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "coverage/rr_collection.h"

namespace kbtim {

/// Result of a greedy max-coverage run.
struct MaxCoverResult {
  /// Selected seeds in selection order.
  std::vector<VertexId> seeds;

  /// Marginal number of newly covered RR sets per seed, aligned with seeds.
  std::vector<uint64_t> marginal_coverage;

  /// Total RR sets covered by the full seed set.
  uint64_t total_covered = 0;
};

namespace celf_internal {

inline uint64_t PackEntry(uint32_t count, VertexId v) {
  return (static_cast<uint64_t>(count) << 32) |
         static_cast<uint32_t>(~static_cast<uint32_t>(v));
}

inline VertexId EntryVertex(uint64_t e) {
  return static_cast<VertexId>(~static_cast<uint32_t>(e));
}

inline uint32_t EntryCount(uint64_t e) {
  return static_cast<uint32_t>(e >> 32);
}

/// Restores the max-heap property downward from the root of heap[0, n).
inline void SiftDown(uint64_t* heap, size_t n) {
  size_t i = 0;
  const uint64_t item = heap[0];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child + 1] > heap[child]) ++child;
    if (heap[child] <= item) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = item;
}

inline void PopTop(std::vector<uint64_t>& heap) {
  heap[0] = heap.back();
  heap.pop_back();
  if (!heap.empty()) SiftDown(heap.data(), heap.size());
}

}  // namespace celf_internal

/// Sets bit `rr` of `bits`; returns whether it was already set (the
/// covered-set test of a `cover` callback).
inline bool TestAndSetBit(std::vector<uint64_t>& bits, RrId rr) {
  uint64_t& word = bits[rr >> 6];
  const uint64_t bit = uint64_t{1} << (rr & 63);
  if (word & bit) return true;
  word |= bit;
  return false;
}

/// Runs lazy-forward CELF over `count` (the initial marginal coverage per
/// vertex, modified in place) selecting up to k seeds, ties toward the
/// smaller vertex id. `cover(v)` is called once per selected vertex: it
/// must mark v's not-yet-covered sets and decrement count[u] once for
/// every member u of each newly covered set. `heap` and `selected` are
/// caller-owned scratch so persistent workspaces can reuse their capacity;
/// they are (re)initialized here. When coverage runs out before k seeds,
/// the rest are the smallest unselected ids with marginal 0 (Algorithm 2
/// returns exactly k).
///
/// Pruned mode (candidates != nullptr, min_select > 0): only vertices set
/// in the `candidates` bitmap enter the heap, and a selection is
/// committed only while its fresh count is >= min_select. The caller
/// guarantees every excluded vertex has initial count < min_select;
/// counts only decrease, so as long as selections stay at or above the
/// floor no excluded vertex can tie or beat them and the run is EXACTLY
/// the unpruned greedy. The moment the best candidate falls below the
/// floor (or candidates run out early) the run stops with *aborted = true
/// and a partial (still exact) prefix; the caller restarts unpruned.
template <typename Cover>
MaxCoverResult RunCelf(VertexId num_vertices, uint32_t k,
                       std::vector<uint32_t>& count, Cover cover,
                       std::vector<uint64_t>& heap,
                       std::vector<uint64_t>& selected,
                       const std::vector<uint64_t>* candidates = nullptr,
                       uint32_t min_select = 0, bool* aborted = nullptr) {
  using namespace celf_internal;
  MaxCoverResult result;
  selected.assign((static_cast<size_t>(num_vertices) + 63) / 64, 0);
  heap.clear();
  if (candidates == nullptr) {
    heap.reserve(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (count[v] > 0) heap.push_back(PackEntry(count[v], v));
    }
  } else {
    // Pruned mode holds only the shortlist: walk the bitmap words (most
    // are zero) instead of every vertex, and let the heap grow to the
    // few-thousand-entry size it actually needs.
    for (size_t w = 0; w < candidates->size(); ++w) {
      uint64_t word = (*candidates)[w];
      while (word != 0) {
        const auto v =
            static_cast<VertexId>(w * 64 + std::countr_zero(word));
        word &= word - 1;
        if (count[v] > 0) heap.push_back(PackEntry(count[v], v));
      }
    }
  }
  std::make_heap(heap.begin(), heap.end());

  while (result.seeds.size() < k && !heap.empty()) {
    const uint64_t top = heap[0];
    const VertexId v = EntryVertex(top);
    const uint32_t cur = count[v];
    if (cur != EntryCount(top)) {
      // Stale (count moved past the tag): refresh in place or drop.
      if (cur == 0) {
        PopTop(heap);
      } else {
        heap[0] = PackEntry(cur, v);
        SiftDown(heap.data(), heap.size());
      }
      continue;
    }
    if (cur < min_select) break;  // pruning floor reached: hand back
    PopTop(heap);
    selected[v >> 6] |= uint64_t{1} << (v & 63);
    result.seeds.push_back(v);
    result.marginal_coverage.push_back(cur);
    result.total_covered += cur;
    cover(v);
  }
  if (min_select > 0 && result.seeds.size() < k) {
    // Below the floor an excluded vertex might legitimately win; the
    // caller must redo the tail without pruning.
    if (aborted != nullptr) *aborted = true;
    return result;
  }
  // Pad with smallest unselected ids (exactly-k contract of Algorithm 2).
  for (VertexId v = 0; v < num_vertices && result.seeds.size() < k; ++v) {
    uint64_t& word = selected[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    if (word & bit) continue;
    word |= bit;
    result.seeds.push_back(v);
    result.marginal_coverage.push_back(0);
  }
  return result;
}

}  // namespace kbtim

#endif  // KBTIM_COVERAGE_CELF_CORE_H_
