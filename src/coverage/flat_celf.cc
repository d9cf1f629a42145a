#include "coverage/flat_celf.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <thread>

#include "coverage/celf_core.h"
#include "coverage/rr_collection.h"

namespace kbtim {
namespace {

/// RunCelf's cover step over an RrCollection: marks the not-yet-covered
/// sets among `ids` (one vertex's incidence list) and takes each newly
/// covered set's members off their counts.
void CoverSets(const RrCollection& sets, std::span<const RrId> ids,
               std::vector<uint64_t>& covered, std::vector<uint32_t>& count) {
  for (RrId rr : ids) {
    if (TestAndSetBit(covered, rr)) continue;
    for (VertexId u : sets.Set(rr)) --count[u];
  }
}

}  // namespace

MaxCoverResult CoverageWorkspace::Solve(const RrCollection& sets,
                                        VertexId num_vertices, uint32_t k,
                                        ThreadPool* pool) {
  covered_.assign((sets.size() + 63) / 64, 0);
  if (sets.total_items() > std::numeric_limits<uint32_t>::max()) {
    // The 32-bit incidence offsets cannot address this collection; run the
    // same loop over a 64-bit InvertedRrIndex (same answer). A vertex is
    // in at most sets.size() < 2^32 sets, so its count fits 32 bits.
    const InvertedRrIndex inverted(sets, num_vertices);
    count_.resize(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v) {
      count_[v] = static_cast<uint32_t>(inverted.ListLength(v));
    }
    auto cover = [&](VertexId v) {
      CoverSets(sets, inverted.Sets(v), covered_, count_);
    };
    return RunCelf(num_vertices, k, count_, cover, heap_, selected_);
  }
  const size_t n = num_vertices;
  const auto num_sets = static_cast<RrId>(sets.size());
  // v's incidence list: the lists lie contiguously in vertex order, so it
  // starts where the previous vertex's ends.
  auto cover = [&](VertexId v) {
    const uint32_t begin = v == 0 ? 0 : list_end_[v - 1];
    CoverSets(sets, {ids_.data() + begin, ids_.data() + list_end_[v]},
              covered_, count_);
  };

  // Pass 1: vertex frequencies over the flat item span (these double as
  // CELF's initial marginals).
  count_.assign(n, 0);
  for (VertexId v : sets.items()) ++count_[v];

  // Pruned attempt: greedy only ever walks the incidence lists of the ~k
  // vertices it SELECTS, so building lists for everyone is waste. Keep the
  // top prune_candidates vertices by initial count (plus ties): while
  // every selection's fresh marginal stays >= the shortlist threshold, no
  // excluded vertex (initial count < threshold, counts only decrease) can
  // win, and the pruned run is exactly the full greedy. Falls back to the
  // full build on the rare abort.
  // ANY threshold >= 1 keeps the run exact (the abort guard covers
  // selections that dip below it), so the threshold is tuned from a
  // strided SAMPLE of the counts instead of a full gather + nth_element:
  // aim for ~2x the target so sampling error lands on the cheap side
  // (bigger shortlist) rather than the abort side.
  const size_t shortlist_target =
      std::max<size_t>(prune_candidates_, size_t{8} * k);
  const size_t stride = std::max<size_t>(1, n / 8192);
  prune_vals_.clear();
  for (size_t v = 0; v < n; v += stride) {
    if (count_[v] > 0) prune_vals_.push_back(count_[v]);
  }
  size_t sample_rank = std::max<size_t>(1, 2 * shortlist_target / stride);
  size_t effective_stride = stride;
  if (stride > 1 && sample_rank < 8) {
    // The stride sample is too sparse to resolve the target quantile
    // (huge |V|): fall back to an exact full gather — O(nonzero), still
    // far cheaper than the incidence build it is sizing.
    prune_vals_.clear();
    for (size_t v = 0; v < n; ++v) {
      if (count_[v] > 0) prune_vals_.push_back(count_[v]);
    }
    sample_rank = 2 * shortlist_target;
    effective_stride = 1;
  }
  if (prune_vals_.size() * effective_stride > 4 * shortlist_target &&
      prune_vals_.size() > sample_rank) {
    std::nth_element(prune_vals_.begin(),
                     prune_vals_.begin() + sample_rank - 1,
                     prune_vals_.end(), std::greater<>());
    const uint32_t threshold = prune_vals_[sample_rank - 1];
    candidates_.assign((n + 63) / 64, 0);
    list_end_.resize(n);
    uint32_t run = 0;
    for (size_t v = 0; v < n; ++v) {
      list_end_[v] = run;
      if (count_[v] >= threshold) {
        candidates_[v >> 6] |= uint64_t{1} << (v & 63);
        run += count_[v];
      }
    }
    ids_.resize(run);
    for (RrId i = 0; i < num_sets; ++i) {
      for (VertexId v : sets.Set(i)) {
        if (candidates_[v >> 6] & (uint64_t{1} << (v & 63))) {
          ids_[list_end_[v]++] = i;
        }
      }
    }
    bool aborted = false;
    MaxCoverResult result =
        RunCelf(num_vertices, k, count_, cover, heap_, selected_,
                &candidates_, threshold, &aborted);
    if (!aborted) return result;
    // Selection dipped below the shortlist floor: redo without pruning
    // (the partial run consumed counts and coverage, so recompute).
    count_.assign(n, 0);
    for (VertexId v : sets.items()) ++count_[v];
    covered_.assign(covered_.size(), 0);
  }

  ids_.resize(sets.total_items());
  size_t workers =
      pool == nullptr ? 1 : std::min<size_t>(pool->num_threads(), 8);
  if (workers > 1 &&
      (num_sets < 8192 || std::thread::hardware_concurrency() <= 1)) {
    workers = 1;  // fan-out cannot pay for itself
  }
  if (workers <= 1) {
    // Serial incidence build. The fill pass uses list_end_ itself as the
    // write cursor: after it, list_end_[v] is the end of v's ids, and
    // since the lists are laid out contiguously in vertex order, v's
    // start is the previous vertex's end.
    list_end_.resize(n);
    uint32_t run = 0;
    for (size_t v = 0; v < n; ++v) {
      list_end_[v] = run;
      run += count_[v];
    }
    for (RrId i = 0; i < num_sets; ++i) {
      for (VertexId v : sets.Set(i)) ids_[list_end_[v]++] = i;
    }
  } else {
    // Parallel two-pass counting sort over contiguous set chunks.
    const size_t T = workers;
    auto chunk_begin = [&](size_t t) {
      return static_cast<RrId>(t * num_sets / T);
    };
    chunk_cursor_.assign(T * n, 0);
    // Pass A: per-chunk histograms (disjoint cursor rows, no sharing).
    // Submitted one task per chunk (ParallelFor would inline this small a
    // task count).
    for (size_t t = 0; t < T; ++t) {
      pool->Submit([&, t] {
        uint32_t* hist = chunk_cursor_.data() + t * n;
        const RrId end = chunk_begin(t + 1);
        for (RrId i = chunk_begin(t); i < end; ++i) {
          for (VertexId v : sets.Set(i)) ++hist[v];
        }
      });
    }
    pool->Wait();
    // Merge: one serial sweep turns histograms into write cursors. For
    // each vertex the chunks write [cursor_0, cursor_1, ...) in chunk
    // order, and chunk sets carry ascending ids, so lists come out
    // ascending exactly like the serial build's.
    count_.resize(n);
    list_end_.resize(n);
    uint32_t run = 0;
    for (size_t v = 0; v < n; ++v) {
      uint32_t total = 0;
      for (size_t t = 0; t < T; ++t) {
        uint32_t& slot = chunk_cursor_[t * n + v];
        const uint32_t c = slot;
        slot = run + total;
        total += c;
      }
      count_[v] = total;
      run += total;
      list_end_[v] = run;
    }
    // Pass B: every worker scatters its own chunk through its own cursor
    // row; rows of different chunks target disjoint id ranges per vertex.
    for (size_t t = 0; t < T; ++t) {
      pool->Submit([&, t] {
        uint32_t* cursor = chunk_cursor_.data() + t * n;
        const RrId end = chunk_begin(t + 1);
        for (RrId i = chunk_begin(t); i < end; ++i) {
          for (VertexId v : sets.Set(i)) ids_[cursor[v]++] = i;
        }
      });
    }
    pool->Wait();
  }

  return RunCelf(num_vertices, k, count_, cover, heap_, selected_);
}

namespace {

/// DISCARDS contents while capping capacity — only for scratch whose
/// data is dead between Solve calls (RrCollection::Clear's same-named
/// cousin preserves contents; don't conflate them).
template <typename T>
void CapScratchCapacity(std::vector<T>& v, size_t max_elems) {
  if (v.capacity() > max_elems) {
    v.clear();
    v.shrink_to_fit();
    v.reserve(max_elems);
  }
}

}  // namespace

void CoverageWorkspace::ShrinkRetained(size_t max_items) {
  CapScratchCapacity(ids_, max_items);
  CapScratchCapacity(covered_, max_items / 64 + 1);
  // count_/list_end_/heap_/selected_ scale with |V|, not with the sampled
  // set mass, so they cannot ratchet the same way; leave them warm.
}

}  // namespace kbtim
