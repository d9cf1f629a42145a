// Persistent per-keyword cache: the warm path of the query engine.
//
// The paper's real-time claim (§5, Table 6) is about per-query index I/O,
// but an ad platform answers a *stream* of overlapping queries against one
// index directory. Everything that does not depend on the query budget is
// amortizable: open file handles, the parsed IRR preamble (IP
// first-occurrence map + partition directory), the RR offset directory,
// and the decoded partition payloads themselves. This cache holds all of
// it per (index directory, topic) so that a repeated query performs zero
// preamble re-reads — and zero reads at all once the touched partitions
// fit the block cache.
//
// Sizing knobs (KeywordCacheOptions):
//   * block_cache_bytes — upper bound on the decoded bytes resident in the
//     LRU block cache (IRR partitions + RR payload prefixes). Entries
//     (file handles, preambles, directories) are NOT charged against it:
//     they are small, persistent, and amortize across every query. Set to
//     0 to disable block caching entirely (every query re-decodes, but
//     still reuses handles and preambles). A decoded block bigger than the
//     whole budget is served to the query but not cached, and counted in
//     stats().admission_bypasses; otherwise the bound is enforced by
//     evicting other blocks, never by refusing to serve a query.
//   * prefetch_threads — background decode workers for the IRR partition
//     pipeline: PrefetchIrrPartition schedules read + decode of a
//     partition on this pool so the NRA loop's compute overlaps the next
//     partitions' I/O (IrrIndex keeps a prefetch_depth-wide window in
//     flight per keyword). A foreground GetIrrPartition that finds its
//     block in flight waits on that decode instead of duplicating it.
//
// Index files are mapped read-only, so preamble and partition parses are
// zero-copy (RandomAccessFile::ReadView; a file that cannot be mapped is
// read with pread). Headers, directories and checksums are parsed through
// index_format (ParseRrPreamble, ParseListsFile, ParseIrrPreamble,
// CheckRrPages), the same checks the scrubber and VerifyIndex apply, and
// every read is CRC-verified before anything decodes or caches it. Logical reads are
// counted by IoCounter either way, so Table-6 style benchmarks keep
// measuring the logical access pattern — including reads issued by the
// prefetch workers.
//
// Thread safety: all public methods are safe to call concurrently; blocks
// are returned as shared_ptr<const ...> so eviction never invalidates a
// block an in-flight query still pins. Concurrent misses on the same block
// may decode it twice; one result wins, both callers get a valid block.
// Destroying the cache drains the prefetch pool first (queued decodes
// finish against still-live state), so shutdown mid-query is safe.
#ifndef KBTIM_INDEX_KEYWORD_CACHE_H_
#define KBTIM_INDEX_KEYWORD_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "coverage/rr_collection.h"
#include "index/index_format.h"
#include "storage/block_file.h"

namespace kbtim {

/// Cache sizing/behavior knobs (see file comment for details).
struct KeywordCacheOptions {
  /// LRU bound on decoded block bytes (0 disables block caching). Blocks
  /// larger than the whole bound are served but not cached.
  uint64_t block_cache_bytes = uint64_t{256} << 20;

  /// Background IRR-partition decode workers (0 disables prefetching).
  uint32_t prefetch_threads = 2;

  /// How many partitions ahead of the NRA loop's consumption point the
  /// IrrIndex keeps in flight per keyword. Depth 1 barely overlaps (the
  /// loop's compute between load rounds is short); a deeper window keeps
  /// every worker busy so consumption approaches decode-bandwidth / W.
  /// The cost is up to `depth` partitions read past the loop's early
  /// termination point.
  uint32_t prefetch_depth = 3;
};

/// Point-in-time cache counters (monotonic except bytes_cached).
struct KeywordCacheStats {
  /// Block-cache lookups served without touching the file.
  uint64_t hits = 0;
  /// Block-cache lookups that had to read + decode.
  uint64_t misses = 0;
  /// Keyword preambles/directories parsed (once per topic when warm).
  uint64_t preamble_loads = 0;
  /// Blocks dropped to respect block_cache_bytes.
  uint64_t evictions = 0;
  /// Decoded bytes currently resident in the block cache.
  uint64_t bytes_cached = 0;
  /// Blocks larger than block_cache_bytes, served uncached.
  uint64_t admission_bypasses = 0;
  /// Background partition decodes scheduled by PrefetchIrrPartition.
  uint64_t prefetches_issued = 0;
  /// Foreground lookups served by waiting on an in-flight prefetch
  /// (counted as misses too: the block was not resident).
  uint64_t prefetches_served = 0;
  /// Foreground hits on a block a prefetch decoded and admitted, counted
  /// on the block's first hit only (and not at all when a lookup already
  /// joined that prefetch in flight). prefetches_served + prefetch_hits
  /// over prefetches_issued is the share of prefetches queries used.
  uint64_t prefetch_hits = 0;
  /// kIOError statuses surfaced by reads (transient: handles are dropped
  /// and reopened on next access, cached blocks survive).
  uint64_t io_errors = 0;
  /// kCorruption statuses surfaced by decodes (the topic's cached state
  /// is fully invalidated: a bad block must never serve a later query).
  uint64_t decode_failures = 0;
  /// Background prefetch decodes that failed. Each is also classified
  /// into io_errors / decode_failures — this counts how many failures
  /// happened off the foreground path (previously swallowed unless a
  /// joiner happened to wait on the future).
  uint64_t prefetch_failures = 0;
  /// InvalidateTopic calls (explicit or corruption-triggered).
  uint64_t topic_invalidations = 0;
  /// CRC32C verifications performed before decode/admission.
  uint64_t crc_checks = 0;
  /// CRC mismatches detected. Each one surfaces as kCorruption and so
  /// also shows up in decode_failures + topic_invalidations — this
  /// counter isolates *checksum-caught* corruption (e.g. bit flips) from
  /// structural decode failures.
  uint64_t crc_failures = 0;
};

/// Parsed preamble of one keyword's irr_<w>.dat: header fields, the IP
/// first-occurrence map as vertex-sorted parallel arrays (binary-search
/// lookup), and the partition directory. Immutable once built.
struct IrrKeywordEntry {
  TopicId topic = kInvalidTopic;
  std::unique_ptr<RandomAccessFile> file;
  CodecKind codec = CodecKind::kRaw;
  uint64_t num_users = 0;
  uint64_t num_partitions = 0;
  uint64_t theta_w = 0;
  std::vector<IrrPartitionInfo> directory;

  /// IP_w as flat sorted arrays: ip_vertex ascending, ip_first aligned.
  std::vector<VertexId> ip_vertex;
  std::vector<RrId> ip_first;

  /// First RR-set occurrence of v, or >= theta_w sentinel when absent.
  /// Returns false when v has no list at all for this keyword.
  bool FirstOccurrence(VertexId v, RrId* first) const;
};

/// One decoded IRR partition, budget-unrestricted so any query budget
/// <= theta_w is served from the same block (queries restrict the
/// ascending RR-id lists with a binary search).
///
/// IR^p set MEMBERS are decoded lazily: only the eager query mode
/// (Algorithm 4 lines 21-22) ever reads them, yet they are roughly half
/// of a partition's decode cost — so the cold (default, lazy-mode) path
/// keeps the validated encoded region and the first SetMembers call
/// decodes it once, thread-safely, for every later eager query to share.
struct IrrPartitionBlock {
  /// IL^p users in stored (descending list length) order.
  std::vector<VertexId> users;
  std::vector<uint32_t> list_offsets;  // users.size() + 1
  std::vector<RrId> list_ids;          // ascending within each list

  /// IR^p RR-set ids first referenced by this partition, ascending.
  std::vector<RrId> set_ids;

  /// Inverted list of users[i] (full, unrestricted).
  std::span<const RrId> ListOf(size_t i) const {
    return {list_ids.data() + list_offsets[i],
            list_ids.data() + list_offsets[i + 1]};
  }

  /// Decodes the IR^p member payloads now (idempotent, thread-safe).
  /// Framing was validated when the block was built; payload-level
  /// corruption fails the region closed (every span empty) and is
  /// reported here. Eager-mode queries call this at partition load so
  /// corruption fails the query loudly.
  Status EnsureMembers() const;

  /// Members of set_ids[s], decoding IR^p on first use (corruption
  /// degrades to empty spans; status-checked paths use EnsureMembers).
  std::span<const VertexId> SetMembers(size_t s) const {
    // Corruption intentionally degrades to empty spans here; callers that
    // need the error call EnsureMembers() themselves first.
    KBTIM_IGNORE_STATUS(EnsureMembers());
    if (set_offsets.size() != set_ids.size() + 1) return {};
    return {set_members.data() + set_offsets[s],
            set_members.data() + set_offsets[s + 1]};
  }

  /// Decoded footprint charged against block_cache_bytes (the lazily
  /// materialized members are charged from the start via the raw bytes
  /// they decode from; the decoded form is typically the same order of
  /// magnitude).
  uint64_t bytes = 0;

  // Implementation state for the lazy IR decode (populated by
  // KeywordCache; treat as private).
  CodecKind ir_codec = CodecKind::kRaw;
  std::string ir_raw;  // encoded IR region: per-set headers + payloads
  mutable std::once_flag ir_once;
  mutable bool ir_corrupt = false;
  mutable std::vector<uint32_t> set_offsets;  // set_ids.size() + 1
  mutable std::vector<VertexId> set_members;
};

/// Decoded prefix of one keyword's R_w + L_w at `loaded_budget` RR sets
/// (the largest budget any query has needed so far). Serves every query
/// budget <= loaded_budget; a larger budget re-decodes and replaces it.
struct RrKeywordBlock {
  uint64_t loaded_budget = 0;

  // RR-set prefix [0, loaded_budget), members flattened.
  std::vector<uint64_t> set_offsets{0};
  std::vector<VertexId> set_items;

  // Inverted lists restricted to RR ids < loaded_budget, keyed by
  // ascending vertex id for binary-search lookup.
  std::vector<VertexId> list_vertex;
  std::vector<uint64_t> list_offsets{0};
  std::vector<RrId> list_ids;

  uint64_t bytes = 0;

  std::span<const VertexId> SetMembers(RrId rr) const {
    return {set_items.data() + set_offsets[rr],
            set_items.data() + set_offsets[rr + 1]};
  }

  /// Inverted list of v restricted to RR ids < query_budget (<= loaded).
  std::span<const RrId> ListOf(VertexId v, uint64_t query_budget) const;
};

/// Shared warm-path state for one index directory. Create once, share
/// across IrrIndex / RrIndex handles and across threads.
class KeywordCache {
 public:
  /// Reads the directory's metadata and constructs an empty cache.
  static StatusOr<std::shared_ptr<KeywordCache>> Create(
      const std::string& dir, KeywordCacheOptions options = {});

  const IndexMeta& meta() const { return meta_; }
  const std::string& dir() const { return dir_; }
  const KeywordCacheOptions& options() const { return options_; }

  /// The parsed IRR preamble of `topic` (opened + parsed on first use).
  StatusOr<std::shared_ptr<const IrrKeywordEntry>> GetIrrKeyword(
      TopicId topic) EXCLUDES(mu_);

  /// Decoded partition `partition` of `entry`'s keyword, from cache, from
  /// an in-flight prefetch (waits for it instead of re-decoding), or from
  /// disk. The returned block stays valid while the caller holds it.
  StatusOr<std::shared_ptr<const IrrPartitionBlock>> GetIrrPartition(
      const IrrKeywordEntry& entry, uint64_t partition) EXCLUDES(mu_);

  /// Schedules a background read + decode of `entry`'s partition so a
  /// later GetIrrPartition overlaps with the caller's compute. No-op when
  /// the partition is resident, already in flight, out of range, or
  /// prefetching/caching is disabled. `entry` is retained by the task.
  void PrefetchIrrPartition(std::shared_ptr<const IrrKeywordEntry> entry,
                            uint64_t partition) EXCLUDES(mu_);

  /// Blocks until every scheduled prefetch has landed. Benchmarks and
  /// tests call this to make I/O-counting windows deterministic.
  void WaitForPrefetches() EXCLUDES(mu_);

  /// Decoded R_w prefix + inverted lists of `topic` covering at least
  /// `min_budget` RR sets. A budget above the topic's θ_w in the meta is
  /// the caller's error (kInvalidArgument), not a fault of the files.
  StatusOr<std::shared_ptr<const RrKeywordBlock>> GetRrKeyword(
      TopicId topic, uint64_t min_budget) EXCLUDES(mu_);

  /// Current counters.
  KeywordCacheStats stats() const EXCLUDES(mu_);

  /// Drops every cached block (entries/handles survive). Mainly for tests
  /// and for benchmarks that need a cold block cache.
  void DropBlocks() EXCLUDES(mu_);

  /// Failure-domain hook: called once per recorded kIOError/kCorruption,
  /// outside the cache lock, possibly from a prefetch-pool thread. The
  /// subscriber (QueryService's circuit breaker) must not call back into
  /// the cache from the listener. Pass nullptr to unsubscribe — REQUIRED
  /// before the subscriber is destroyed.
  using FailureListener = std::function<void(TopicId, const Status&)>;
  void SetFailureListener(FailureListener listener) EXCLUDES(listener_mu_);

  /// Runs `fn` on the cache-owned prefetch pool, returning false (without
  /// running it) when the pool is disabled. The online scrubber schedules
  /// its paced block verifications here so scrub work shares the pool's
  /// concurrency bound with prefetches instead of adding threads.
  bool RunOnPrefetchPool(std::function<void()> fn);

  /// Drops everything cached for `topic`: resident blocks, the parsed
  /// preamble, file handles (reopened on next access), in-flight prefetch
  /// registrations (joiners holding the future still get their result),
  /// and the uncacheable memo. Bumps the topic's epoch so a decode that
  /// raced the invalidation can never re-admit a stale block. Called
  /// internally on the first kCorruption; public for tests and operators.
  void InvalidateTopic(TopicId topic) EXCLUDES(mu_);

 private:
  /// Per-topic RR state: file handles plus the verified preamble (offset
  /// directory and the payload page CRCs that payload reads verify against
  /// before decode), loaded once on first touch. Handles are shared_ptr so
  /// InvalidateTopic can drop the entry while a reader that copied them out
  /// under the lock keeps reading safely.
  struct RrKeywordEntry {
    TopicId topic = kInvalidTopic;
    std::shared_ptr<RandomAccessFile> rr_file;
    std::shared_ptr<RandomAccessFile> lists_file;
    RrPreamble preamble;
  };

  /// Key of a block in the LRU: IRR partitions use (topic, partition);
  /// RR payloads use (topic, kRrBlockSlot).
  static constexpr uint64_t kRrBlockSlot = ~uint64_t{0};

  struct BlockKey {
    TopicId topic;
    uint64_t slot;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHash {
    size_t operator()(const BlockKey& k) const {
      return std::hash<uint64_t>()((uint64_t{k.topic} << 32) ^
                                   (k.slot * 0x9E3779B97F4A7C15ull));
    }
  };
  struct BlockSlot {
    std::shared_ptr<const void> block;
    uint64_t bytes = 0;
    std::list<BlockKey>::iterator lru_pos;
    /// Admitted by a prefetch that no lookup joined; cleared, and counted
    /// in prefetch_hits, by the first foreground hit.
    bool prefetched = false;
  };

  using IrrBlockFuture =
      std::shared_future<StatusOr<std::shared_ptr<const IrrPartitionBlock>>>;
  struct InflightDecode {
    IrrBlockFuture future;
    /// A foreground lookup waited on this decode (prefetches_served).
    bool joined = false;
  };

  KeywordCache(std::string dir, IndexMeta meta, KeywordCacheOptions options)
      : dir_(std::move(dir)), meta_(std::move(meta)), options_(options) {
    if (options_.prefetch_threads > 0 && options_.block_cache_bytes > 0) {
      prefetch_pool_ = std::make_unique<ThreadPool>(options_.prefetch_threads);
    }
  }

  /// Inserts a block under the LRU byte bound, but only when `topic`'s
  /// epoch still equals `epoch` (captured before the decode) — a decode
  /// that raced an InvalidateTopic must not resurrect stale state.
  /// Returns the resident block for `key` (the existing one if another
  /// thread won; the caller's own block, uncached, when the epoch moved
  /// or the block is larger than block_cache_bytes).
  std::shared_ptr<const void> InsertBlockIfFresh(
      const BlockKey& key, std::shared_ptr<const void> block,
      uint64_t bytes, uint64_t epoch) EXCLUDES(mu_);
  /// Evicts to fit, then records the block under `key` and returns its
  /// slot. mu_ must be held and `key` must not be present.
  BlockSlot& InsertBlockLocked(const BlockKey& key,
                               std::shared_ptr<const void> block,
                               uint64_t bytes) REQUIRES(mu_);
  /// Removes `key`'s block (if present), fixing byte accounting. mu_ held.
  void EraseBlockLocked(const BlockKey& key) REQUIRES(mu_);
  void TouchLocked(BlockSlot& slot) REQUIRES(mu_);
  void EvictToFitLocked(uint64_t incoming_bytes) REQUIRES(mu_);

  /// Classifies a failed read/decode on `topic`'s files and reacts:
  /// kCorruption → full InvalidateTopic (a bad payload may have siblings);
  /// kIOError → drop the topic's file handles so the next access reopens
  /// fresh descriptors (cached blocks are validated decodes and survive).
  /// Other codes are ignored. Notifies the failure listener outside mu_.
  void RecordTopicFailure(TopicId topic, const Status& status)
      EXCLUDES(mu_, listener_mu_);

  /// Current invalidation epoch of `topic` (0 until first invalidation).
  uint64_t EpochLocked(TopicId topic) const REQUIRES(mu_);

  /// Adds CRC checks made through index_format to crc_checks /
  /// crc_failures and returns `status`. RecordCrcsLocked requires mu_;
  /// RecordCrcs takes it.
  Status RecordCrcsLocked(const CrcTally& tally, Status status)
      REQUIRES(mu_);
  Status RecordCrcs(const CrcTally& tally, Status status) EXCLUDES(mu_);

  StatusOr<std::shared_ptr<const IrrKeywordEntry>> LoadIrrEntry(
      TopicId topic) EXCLUDES(mu_);
  /// The read + decode of one partition (no cache bookkeeping); runs on
  /// foreground misses and on the prefetch pool.
  StatusOr<std::shared_ptr<const IrrPartitionBlock>> DecodeIrrPartition(
      const IrrKeywordEntry& entry, uint64_t partition) EXCLUDES(mu_);
  /// Finds or opens `topic`'s RR entry. Opening reads and verifies the
  /// preamble (header + offset directory + page CRCs) while mu_ stays
  /// held — a deliberate design choice: it is one read, once per topic.
  Status EnsureRrEntryLocked(TopicId topic, RrKeywordEntry** entry)
      REQUIRES(mu_);
  /// The preamble read + verify of EnsureRrEntryLocked.
  Status LoadRrDirectoryLocked(RrKeywordEntry* entry) REQUIRES(mu_);
  /// GetRrKeyword body; the public wrapper records failures.
  StatusOr<std::shared_ptr<const RrKeywordBlock>> GetRrKeywordImpl(
      TopicId topic, uint64_t min_budget) EXCLUDES(mu_);

  const std::string dir_;
  const IndexMeta meta_;
  const KeywordCacheOptions options_;

  mutable Mutex mu_;
  std::unordered_map<TopicId, std::shared_ptr<const IrrKeywordEntry>>
      irr_entries_ GUARDED_BY(mu_);
  std::unordered_map<TopicId, RrKeywordEntry> rr_entries_ GUARDED_BY(mu_);
  std::unordered_map<BlockKey, BlockSlot, BlockKeyHash> blocks_
      GUARDED_BY(mu_);
  std::list<BlockKey> lru_ GUARDED_BY(mu_);  // front = most recently used
  /// Prefetches in flight: lets foreground misses join a background
  /// decode instead of duplicating it. Erased (under mu_, after the block
  /// landed in blocks_) by the task itself.
  std::unordered_map<BlockKey, InflightDecode, BlockKeyHash> inflight_
      GUARDED_BY(mu_);
  /// Partitions too large to cache: prefetching them again would decode
  /// into the void every round, so the window skips them.
  std::unordered_map<BlockKey, bool, BlockKeyHash> uncacheable_
      GUARDED_BY(mu_);
  /// Bumped by InvalidateTopic; decodes capture the epoch before reading
  /// and only admit their block if it has not moved since.
  std::unordered_map<TopicId, uint64_t> topic_epoch_ GUARDED_BY(mu_);
  KeywordCacheStats stats_ GUARDED_BY(mu_);

  /// Listener state has its own mutex: the listener runs outside mu_ (it
  /// may take the subscriber's locks) and may be swapped concurrently.
  mutable Mutex listener_mu_;
  FailureListener failure_listener_ GUARDED_BY(listener_mu_);

  /// MUST remain the last member: its destructor runs first and drains
  /// queued prefetch decodes while every field they touch is still alive.
  std::unique_ptr<ThreadPool> prefetch_pool_;
};

}  // namespace kbtim

#endif  // KBTIM_INDEX_KEYWORD_CACHE_H_
