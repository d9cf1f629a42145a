// Algorithm 2's greedy maximum coverage over decoded RR keyword blocks.
//
// Every RR set of a query belongs to exactly one keyword (Eqn. 11 draws a
// budgeted prefix of each keyword's sets), so a vertex's marginal coverage
// is the sum of its per-keyword counts, and covering a seed decrements
// each keyword's counts independently. RrCover holds those per-keyword
// halves — initial counts and covered-set bitsets — for any subset of a
// query's keywords:
//   * RunRrGreedy runs one RrCover over all of a query's keywords (the
//     in-process RrIndex::Query / BatchQuery path and perfbench's probe);
//   * a shard's cover session (net/shard_server.h) runs one over the
//     keywords a router sent it, and the router (net/router.h) runs the
//     CELF loop over the summed counts, subtracting the decrements each
//     shard returns.
// Both select through the library's shared CELF loop (coverage/celf_core.h)
// over the same counts, so routed answers are byte-identical to local ones
// for any shard count (the router goldens pin this).
#ifndef KBTIM_INDEX_RR_GREEDY_H_
#define KBTIM_INDEX_RR_GREEDY_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coverage/celf_core.h"
#include "index/index_format.h"
#include "index/keyword_cache.h"
#include "sampling/solver_result.h"
#include "topics/query.h"

namespace kbtim {

/// The per-keyword state of an RR greedy over a set of keywords: each
/// keyword's block (pinned), its budget and the bitset of its budgeted
/// sets covered so far. Clear() keeps the bitsets' capacity, so a holder
/// that lives across queries stops allocating for them.
class RrCover {
 public:
  /// Drops every keyword and releases the blocks they pinned.
  void Clear() {
    for (size_t i = 0; i < size_; ++i) keywords_[i].block.reset();
    size_ = 0;
  }

  /// Adds a keyword at `budget` of its RR sets (0 < budget <=
  /// block->loaded_budget; a block loaded past the budget serves it
  /// exactly, its inverted lists cut by binary search).
  void Add(std::shared_ptr<const RrKeywordBlock> block, uint64_t budget) {
    if (size_ == keywords_.size()) keywords_.emplace_back();
    Keyword& kw = keywords_[size_++];
    kw.block = std::move(block);
    kw.budget = budget;
    kw.covered.assign((budget + 63) / 64, 0);
  }

  /// Adds to count[v] the number of v's budgeted sets in every keyword.
  /// Every list vertex must be below count.size().
  void AddCounts(std::vector<uint32_t>& count) const;

  /// Covers v: marks each of v's budgeted sets that is not yet covered
  /// and calls dec(u) once for every member u of each one (the `cover`
  /// half of RunCelf).
  template <typename Dec>
  void Cover(VertexId v, Dec dec) {
    for (size_t k = 0; k < size_; ++k) {
      Keyword& kw = keywords_[k];
      for (RrId rr : kw.block->ListOf(v, kw.budget)) {
        if (TestAndSetBit(kw.covered, rr)) continue;
        for (VertexId u : kw.block->SetMembers(rr)) dec(u);
      }
    }
  }

 private:
  struct Keyword {
    std::shared_ptr<const RrKeywordBlock> block;
    uint64_t budget = 0;
    std::vector<uint64_t> covered;
  };
  std::vector<Keyword> keywords_;  ///< [0, size_) live; the rest spare.
  size_t size_ = 0;
};

/// The answer of an RR greedy over `budget`'s keywords: the seeds and
/// their coverage scaled by φ_Q / Σ θ^Q_w into marginal gains and the
/// estimated influence, plus the theta / rr_sets_loaded stats. I/O and
/// timing stats are the caller's to attribute.
SeedSetResult RrGreedyAnswer(const QueryBudget& budget, MaxCoverResult cover);

/// Runs the greedy on one query over its loaded keyword blocks. `loaded`
/// must hold, for every per_keyword entry of `budget` with a non-zero
/// budget, a block whose loaded_budget covers it.
SeedSetResult RunRrGreedy(
    const Query& query, const QueryBudget& budget,
    const std::unordered_map<TopicId,
                             std::shared_ptr<const RrKeywordBlock>>& loaded,
    VertexId num_vertices);

}  // namespace kbtim

#endif  // KBTIM_INDEX_RR_GREEDY_H_
