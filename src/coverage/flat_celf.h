// Flat-array seed selection for sampled RR sets: one reusable workspace
// that builds the vertex -> RR incidence in flat 32-bit scratch and runs the
// shared CELF loop (celf_core.h) over it. WRIS, RIS and the OPT pilot
// select seeds here. The workspace keeps the count array, the incidence
// arrays, the coverage bitset and the packed heap across Solve calls, so
// steady-state seed selection allocates nothing.
#ifndef KBTIM_COVERAGE_FLAT_CELF_H_
#define KBTIM_COVERAGE_FLAT_CELF_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "coverage/celf_core.h"

namespace kbtim {

/// Reusable seed-selection scratch. Not thread-safe; use one per worker.
class CoverageWorkspace {
 public:
  /// Greedy max-coverage of `sets` (vertex ids < num_vertices), selecting
  /// up to k seeds. Builds the vertex -> RR incidence internally in flat
  /// scratch; the answer is RunCelf's: exact greedy, ties toward the
  /// smaller vertex id, padded to k.
  ///
  /// With a pool, the incidence build (the dominant cost — the CELF
  /// selection itself is the cheap tail) runs as a parallel two-pass
  /// counting sort over contiguous set chunks: per-chunk histograms, one
  /// serial cursor merge, then each worker scatters its own chunk. Chunks
  /// are consumed in id order per vertex, so the incidence lists come out
  /// ascending exactly as in the serial build, and results are identical
  /// regardless of thread count. The pool must be idle (Solve submits and
  /// waits); pass nullptr for the serial build.
  MaxCoverResult Solve(const RrCollection& sets, VertexId num_vertices,
                       uint32_t k, ThreadPool* pool = nullptr);

  /// Caps retained scratch capacity at roughly `max_items` incidence
  /// entries so one outlier query does not pin its peak footprint forever.
  void ShrinkRetained(size_t max_items);

  /// Floor on the candidate-shortlist size of the pruned build (the
  /// effective size is max(this, 8k), plus ties). Lower values build less
  /// incidence but risk an abort-and-rebuild; tests use tiny values to
  /// exercise the restart path.
  void set_prune_candidates(size_t candidates) {
    prune_candidates_ = candidates;
  }

 private:
  std::vector<uint32_t> count_;    // marginal coverage per vertex
  std::vector<uint32_t> list_end_; // after the fill pass: end of v's ids
  std::vector<RrId> ids_;          // flattened vertex -> RR incidence
  std::vector<uint64_t> covered_;  // RR-set coverage bitset
  std::vector<uint64_t> heap_;     // packed (count << 32 | ~vertex)
  std::vector<uint64_t> selected_; // selection bitset (padding pass)
  std::vector<uint32_t> chunk_cursor_;  // parallel build: T x n cursors
  std::vector<uint64_t> candidates_;    // pruned build: shortlist bitmap
  std::vector<uint32_t> prune_vals_;    // pruned build: sampled counts
  size_t prune_candidates_ = 256;
};

}  // namespace kbtim

#endif  // KBTIM_COVERAGE_FLAT_CELF_H_
