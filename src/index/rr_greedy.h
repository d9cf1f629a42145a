// Algorithm 2's greedy maximum coverage over decoded RR keyword blocks.
//
// Extracted from RrIndex so that every execution site runs the SAME
// greedy over the same inputs: the in-process RrIndex::Query/BatchQuery
// path and the network Router, which gathers RrKeywordBlocks from remote
// shards and must return byte-identical seed sets to a local query (the
// router goldens pin this). It is the library's shared CELF loop
// (coverage/celf_core.h) over the union of the keywords' budgeted
// prefixes, covering through each block's ListOf and SetMembers, so its
// selection order, tie-breaking and padding are those of every other
// solver.
#ifndef KBTIM_INDEX_RR_GREEDY_H_
#define KBTIM_INDEX_RR_GREEDY_H_

#include <memory>
#include <unordered_map>

#include "index/index_format.h"
#include "index/keyword_cache.h"
#include "sampling/solver_result.h"
#include "topics/query.h"

namespace kbtim {

/// Runs the greedy on one query over its loaded keyword blocks. `loaded`
/// must hold, for every per_keyword entry of `budget` with a non-zero
/// budget, a block whose loaded_budget covers it (blocks loaded at a
/// LARGER budget serve smaller ones exactly — the inverted lists are
/// restricted by binary search). Fills seeds, marginal_gains,
/// estimated_influence and the theta / rr_sets_loaded stats; I/O and
/// timing stats are the caller's to attribute.
SeedSetResult RunRrGreedy(
    const Query& query, const QueryBudget& budget,
    const std::unordered_map<TopicId,
                             std::shared_ptr<const RrKeywordBlock>>& loaded,
    VertexId num_vertices);

}  // namespace kbtim

#endif  // KBTIM_INDEX_RR_GREEDY_H_
