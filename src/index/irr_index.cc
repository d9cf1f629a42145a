#include "index/irr_index.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <queue>
#include <unordered_set>

#include "common/timer.h"
#include "coverage/rr_collection.h"
#include "storage/io_counter.h"

namespace kbtim {
namespace {

/// Open-addressing vertex -> (list span, maintained exact count) table.
/// Capacity is reserved per partition-load round (load factor <= 0.5, so
/// NRA early termination on a huge keyword never pays for users it didn't
/// load), and the lookup loops themselves never rehash or allocate. Spans
/// point into cached partition blocks pinned by the owning KeywordState.
class FlatListTable {
 public:
  struct Slot {
    VertexId vertex = kInvalidVertex;
    const RrId* begin = nullptr;
    const RrId* end = nullptr;
    uint64_t exact = 0;  // eager mode's maintained uncovered count
  };

  /// Caps the table at `max_inserts` distinct vertices (the preamble's
  /// user count); a corrupt index naming more users fails cleanly
  /// instead of looping (every probe sequence stays finite).
  void Init(uint64_t max_inserts) {
    limit_ = max_inserts;
    inserted_ = 0;
    mask_ = 0;
    slots_.clear();
  }

  /// Ensures capacity for `extra` more inserts, rehashing if needed.
  /// Called once per partition load — never from a lookup path. Any Slot*
  /// obtained before this call is invalidated.
  void Reserve(uint64_t extra) {
    const uint64_t want = inserted_ + extra;
    if (!slots_.empty() && 2 * want <= slots_.size()) return;
    size_t cap = 16;
    while (cap < 2 * (want + 1)) cap <<= 1;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.vertex == kInvalidVertex) continue;
      size_t i = Hash(s.vertex) & mask_;
      while (slots_[i].vertex != kInvalidVertex) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  /// Returns null when the insert cap is exceeded (corrupt index).
  /// Requires a prior Reserve covering this insert.
  Slot* Insert(VertexId v) {
    size_t i = Hash(v) & mask_;
    while (slots_[i].vertex != kInvalidVertex) {
      if (slots_[i].vertex == v) return &slots_[i];
      i = (i + 1) & mask_;
    }
    if (inserted_ == limit_) return nullptr;
    ++inserted_;
    slots_[i].vertex = v;
    return &slots_[i];
  }

  const Slot* Find(VertexId v) const {
    if (slots_.empty()) return nullptr;
    size_t i = Hash(v) & mask_;
    while (slots_[i].vertex != kInvalidVertex) {
      if (slots_[i].vertex == v) return &slots_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  Slot* Find(VertexId v) {
    return const_cast<Slot*>(std::as_const(*this).Find(v));
  }

 private:
  static size_t Hash(VertexId v) {
    uint64_t x = uint64_t{v} * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(x >> 29);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint64_t limit_ = 0;
  uint64_t inserted_ = 0;
};

/// Query-time state for one keyword, backed by the shared cache.
struct KeywordState {
  TopicId topic = kInvalidTopic;
  uint64_t budget = 0;  // θ^Q_w
  std::shared_ptr<const IrrKeywordEntry> entry;

  uint64_t next_partition = 0;
  /// kb[w]: upper bound on the (unrestricted) list length of any user whose
  /// list has not been loaded yet. 0 once all partitions are in memory.
  uint64_t kb = 0;
  /// Loaded inverted lists (budget-restricted spans into cached blocks).
  FlatListTable lists;
  std::vector<char> covered;
  uint64_t rr_sets_loaded = 0;
  bool eager = false;

  /// Cached blocks the list spans point into, with the prefix of each
  /// block's (ascending) set_ids that falls inside the query budget.
  struct PinnedBlock {
    std::shared_ptr<const IrrPartitionBlock> block;
    size_t in_budget = 0;
  };
  std::vector<PinnedBlock> pinned;

  bool AllLoaded() const {
    return entry == nullptr || next_partition >= entry->num_partitions;
  }

  /// Members of covered set `rr` if its partition is loaded (eager mode's
  /// Algorithm 4 lines 21-22); empty otherwise. Each set id lives in
  /// exactly one partition, found by binary search over the few pinned
  /// blocks — no budget-sized per-query array.
  std::span<const VertexId> FindSetMembers(RrId rr) const {
    for (const PinnedBlock& pb : pinned) {
      const auto& ids = pb.block->set_ids;
      const auto end = ids.begin() + pb.in_budget;
      const auto it = std::lower_bound(ids.begin(), end, rr);
      if (it != end && *it == rr) {
        return pb.block->SetMembers(
            static_cast<size_t>(it - ids.begin()));
      }
    }
    return {};
  }

  /// Exact uncovered coverage of a loaded slot for this keyword.
  uint64_t ExactPartial(const FlatListTable::Slot& slot) const {
    uint64_t score = 0;
    for (const RrId* p = slot.begin; p != slot.end; ++p) {
      if (!covered[*p]) ++score;
    }
    return score;
  }
};

Status OpenKeyword(KeywordCache& cache, TopicId topic, uint64_t budget,
                   bool eager, KeywordState* state) {
  state->topic = topic;
  state->budget = budget;
  state->eager = eager;
  if (budget == 0) return Status::OK();
  KBTIM_ASSIGN_OR_RETURN(state->entry, cache.GetIrrKeyword(topic));
  state->kb = state->entry->directory.empty()
                  ? 0
                  : state->entry->directory[0].max_list_len;
  state->covered.assign(budget, 0);
  state->lists.Init(state->entry->num_users);
  // Start the pipeline: the first prefetch_depth partitions decode in the
  // background while the remaining keywords parse their preambles and the
  // query sets up.
  for (uint32_t d = 0; d < cache.options().prefetch_depth; ++d) {
    cache.PrefetchIrrPartition(state->entry, d);
  }
  return Status::OK();
}

/// Brings in the next partition of one keyword (cache-served); appends
/// newly seen users to *new_users. Returns false when all partitions were
/// already loaded.
StatusOr<bool> LoadNextPartition(KeywordCache& cache, KeywordState* state,
                                 std::vector<VertexId>* new_users) {
  if (state->budget == 0 || state->AllLoaded()) return false;
  KBTIM_ASSIGN_OR_RETURN(
      std::shared_ptr<const IrrPartitionBlock> block,
      cache.GetIrrPartition(*state->entry, state->next_partition));
  if (state->eager) {
    // Eager mode reads IR^p members; surface payload corruption at load
    // time (the lazy default defers both the decode and the check).
    KBTIM_RETURN_IF_ERROR(block->EnsureMembers());
  }

  // IL^p: restrict each cached (unrestricted, ascending) list to the
  // query budget once, storing the span.
  state->lists.Reserve(block->users.size());
  for (size_t i = 0; i < block->users.size(); ++i) {
    const VertexId v = block->users[i];
    const std::span<const RrId> full = block->ListOf(i);
    const RrId* end =
        std::lower_bound(full.data(), full.data() + full.size(),
                         static_cast<RrId>(state->budget));
    FlatListTable::Slot* slot = state->lists.Insert(v);
    if (slot == nullptr) {
      return Status::Corruption(
          "IRR partitions name more users than the preamble");
    }
    slot->begin = full.data();
    slot->end = end;
    if (state->eager) {
      // Initialize the maintained uncovered count against sets already
      // covered by earlier seeds.
      uint64_t count = 0;
      for (const RrId* p = slot->begin; p != slot->end; ++p) {
        if (!state->covered[*p]) ++count;
      }
      slot->exact = count;
    }
    new_users->push_back(v);
  }

  // IR^p: RR-set ids ascend within a partition, so the budget restriction
  // is a prefix. "RR sets loaded" (paper Figures 5-7) counts sets inside
  // the query budget whether they came from disk or from cache.
  const auto& ids = block->set_ids;
  const size_t in_budget = static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(),
                       static_cast<RrId>(state->budget)) -
      ids.begin());
  state->rr_sets_loaded += in_budget;

  state->pinned.push_back({std::move(block), in_budget});
  ++state->next_partition;
  state->kb =
      state->AllLoaded()
          ? 0
          : state->entry->directory[state->next_partition].max_list_len;
  // Keep the decode window prefetch_depth partitions ahead of consumption
  // so the workers stay saturated while the NRA loop computes (no-ops for
  // anything already resident or in flight).
  for (uint32_t d = 0; d < cache.options().prefetch_depth; ++d) {
    cache.PrefetchIrrPartition(state->entry, state->next_partition + d);
  }
  return true;
}

struct PqEntry {
  uint64_t score;
  VertexId vertex;

  bool operator<(const PqEntry& other) const {
    if (score != other.score) return score < other.score;
    return vertex > other.vertex;  // smaller id wins ties
  }
};

}  // namespace

StatusOr<IrrIndex> IrrIndex::Open(const std::string& dir,
                                  KeywordCacheOptions cache_options) {
  KBTIM_ASSIGN_OR_RETURN(std::shared_ptr<KeywordCache> cache,
                         KeywordCache::Create(dir, cache_options));
  return Open(std::move(cache));
}

StatusOr<IrrIndex> IrrIndex::Open(std::shared_ptr<KeywordCache> cache) {
  if (!cache->meta().has_irr) {
    return Status::FailedPrecondition(
        "index directory has no IRR structures: " + cache->dir());
  }
  return IrrIndex(std::move(cache));
}

StatusOr<SeedSetResult> IrrIndex::Query(const kbtim::Query& query,
                                        IrrQueryMode mode) const {
  WallTimer total_timer;
  const IoStats io_before = IoCounter::Snapshot();
  const KeywordCacheStats cache_before = cache_->stats();
  KBTIM_ASSIGN_OR_RETURN(QueryBudget budget,
                         ComputeQueryBudget(meta(), query));

  WallTimer load_timer;
  std::vector<KeywordState> keywords(budget.per_keyword.size());
  uint64_t total_budget = 0;
  for (size_t i = 0; i < budget.per_keyword.size(); ++i) {
    const auto [topic, tw] = budget.per_keyword[i];
    KBTIM_RETURN_IF_ERROR(OpenKeyword(*cache_, topic, tw,
                                      mode == IrrQueryMode::kEager,
                                      &keywords[i]));
    total_budget += tw;
  }
  double load_seconds = load_timer.ElapsedSeconds();

  // Upper-bound score of v: exact remaining coverage where the list is
  // loaded (or provably 0 via IP / full load), kb[w] otherwise. Eager
  // mode reads the incrementally maintained count; lazy mode rescans the
  // list span against the covered bitmap (§5.2).
  auto upper_bound = [&](VertexId v, bool* complete) -> uint64_t {
    uint64_t score = 0;
    bool all_exact = true;
    for (const auto& ks : keywords) {
      if (ks.budget == 0) continue;
      const FlatListTable::Slot* slot = ks.lists.Find(v);
      if (slot != nullptr) {
        score += ks.eager ? slot->exact : ks.ExactPartial(*slot);
        continue;
      }
      RrId first = 0;
      if (!ks.entry->FirstOccurrence(v, &first) || first >= ks.budget ||
          ks.AllLoaded()) {
        continue;  // exact partial score 0
      }
      score += ks.kb;
      all_exact = false;
    }
    if (complete != nullptr) *complete = all_exact;
    return score;
  };

  auto kb_sum = [&]() {
    uint64_t sum = 0;
    for (const auto& ks : keywords) sum += ks.kb;
    return sum;
  };

  std::priority_queue<PqEntry> pq;
  std::unordered_set<VertexId> discovered;
  std::vector<char> selected(meta().num_vertices, 0);

  auto load_round = [&]() -> StatusOr<bool> {
    WallTimer t;
    bool any = false;
    std::vector<VertexId> new_users;
    for (auto& ks : keywords) {
      KBTIM_ASSIGN_OR_RETURN(bool loaded,
                             LoadNextPartition(*cache_, &ks, &new_users));
      any = any || loaded;
    }
    for (VertexId v : new_users) {
      if (selected[v]) continue;
      if (discovered.insert(v).second) {
        pq.push({upper_bound(v, nullptr), v});
      }
    }
    load_seconds += t.ElapsedSeconds();
    return any;
  };

  SeedSetResult result;
  uint64_t total_covered = 0;
  const double scale = budget.phi_q /
                       static_cast<double>(std::max<uint64_t>(1,
                                                              total_budget));
  while (result.seeds.size() < query.k) {
    if (pq.empty()) {
      KBTIM_ASSIGN_OR_RETURN(bool any, load_round());
      if (any) continue;
      break;  // nothing left anywhere
    }
    const PqEntry top = pq.top();
    if (selected[top.vertex]) {
      pq.pop();
      continue;
    }
    bool complete = false;
    const uint64_t fresh = upper_bound(top.vertex, &complete);
    if (fresh != top.score) {
      // Lazy refinement: re-score only the queue head (§5.2).
      pq.pop();
      pq.push({fresh, top.vertex});
      continue;
    }
    if (complete && fresh >= kb_sum()) {
      // Confirmed: no loaded candidate (heap top) nor unseen user (kb sum)
      // can beat it.
      pq.pop();
      selected[top.vertex] = 1;
      result.seeds.push_back(top.vertex);
      result.marginal_gains.push_back(static_cast<double>(fresh) * scale);
      total_covered += fresh;
      for (auto& ks : keywords) {
        if (ks.budget == 0) continue;
        const FlatListTable::Slot* slot = ks.lists.Find(top.vertex);
        if (slot == nullptr) continue;
        for (const RrId* p = slot->begin; p != slot->end; ++p) {
          const RrId rr = *p;
          if (ks.covered[rr]) continue;
          ks.covered[rr] = 1;
          if (!ks.eager) continue;
          // Algorithm 4 lines 21-22: push the update to every user the
          // newly covered set contains.
          for (VertexId u : ks.FindSetMembers(rr)) {
            FlatListTable::Slot* other = ks.lists.Find(u);
            if (other != nullptr && other->exact > 0) --other->exact;
          }
        }
      }
      continue;
    }
    // Not decidable yet: bring in the next partition of every keyword.
    KBTIM_ASSIGN_OR_RETURN(bool any, load_round());
    if (!any && complete) {
      // Defensive: with everything loaded kb_sum() == 0, so the condition
      // above must hold on the next iteration.
      continue;
    }
  }
  // Pad to exactly k with the smallest unselected ids (marginal 0),
  // mirroring Algorithm 2.
  for (VertexId v = 0;
       v < meta().num_vertices && result.seeds.size() < query.k; ++v) {
    if (!selected[v]) {
      selected[v] = 1;
      result.seeds.push_back(v);
      result.marginal_gains.push_back(0.0);
    }
  }

  result.estimated_influence = static_cast<double>(total_covered) * scale;
  uint64_t loaded = 0;
  for (const auto& ks : keywords) loaded += ks.rr_sets_loaded;
  const IoStats io = IoCounter::Snapshot() - io_before;
  const KeywordCacheStats cache_after = cache_->stats();
  result.stats.theta = budget.theta_q;
  result.stats.rr_sets_loaded = loaded;
  result.stats.io_reads = io.read_ops;
  result.stats.io_bytes = io.read_bytes;
  result.stats.cache_hits = cache_after.hits - cache_before.hits;
  result.stats.cache_misses = cache_after.misses - cache_before.misses;
  result.stats.cache_bytes = cache_after.bytes_cached;
  result.stats.cache_admission_bypasses =
      cache_after.admission_bypasses - cache_before.admission_bypasses;
  result.stats.prefetches_issued =
      cache_after.prefetches_issued - cache_before.prefetches_issued;
  result.stats.prefetches_served =
      cache_after.prefetches_served - cache_before.prefetches_served;
  result.stats.sampling_seconds = load_seconds;
  result.stats.greedy_seconds =
      total_timer.ElapsedSeconds() - load_seconds;
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace kbtim
