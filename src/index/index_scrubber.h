// Online integrity scrubber: paced background verification of the
// checksummed index files under live traffic, with auto-quarantine and
// single-topic rebuild on detection.
//
// Verify-on-read (KeywordCache) only protects blocks a query touches; a
// latent flip in a cold block sits undetected until some query finally
// reads it — possibly at the worst moment. The scrubber walks every
// topic's rr_/lists_/irr_ files with its OWN file handles and reads
// (never polluting the block cache or the LRU), checks every stored CRC,
// and on mismatch:
//   1. quarantines the topic's data files (atomic rename to
//      <file>.quarantine, isolating the bad bytes from all future opens),
//   2. invokes the configured rebuilder (IndexBuilder::RebuildTopic —
//      deterministic per-keyword seeding reproduces the original bytes,
//      published through FileWriter::CreateAtomic),
//   3. re-verifies the rebuilt files and invalidates the topic in the
//      cache, so the next query re-opens healed, golden-equal data —
//      no restart, no torn state.
//
// Politeness under load: each file-level verification unit runs on the
// cache-owned prefetch pool (sharing its concurrency bound with query
// prefetches rather than adding threads; a cache built with
// prefetch_threads = 0 has no pool, and units run inline) and pace_ms of
// sleep separates units. Before touching a topic the scrubber consults the
// admit hook — wired to the serving layer's per-topic circuit breaker via
// the READ-ONLY state check — so it never races a failure domain that is
// already open (and never consumes a half-open probe).
#ifndef KBTIM_INDEX_INDEX_SCRUBBER_H_
#define KBTIM_INDEX_INDEX_SCRUBBER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/statusor.h"
#include "index/keyword_cache.h"

namespace kbtim {

struct IndexScrubberOptions {
  /// Sleep between verification units (one unit = one file of one topic).
  /// 0 scrubs flat out — tests use that; production paces.
  uint32_t pace_ms = 10;

  /// Quarantine + rebuild on detection. Off = detect-and-report only
  /// (ScrubTopic returns kCorruption, files stay in place).
  bool repair = true;

  /// Background mode (Start): passes to run before the thread exits;
  /// 0 = keep scrubbing until Stop().
  uint32_t max_rounds = 0;

  /// Background mode: idle sleep between full passes.
  uint32_t round_idle_ms = 200;
};

/// Monotonic counters; snapshot via stats().
struct IndexScrubberStats {
  uint64_t blocks_scrubbed = 0;    ///< CRC units verified (pages, partitions, headers).
  uint64_t bytes_scrubbed = 0;     ///< Bytes hashed.
  uint64_t crc_failures = 0;       ///< Mismatches detected.
  uint64_t topics_scrubbed = 0;    ///< Topics fully verified clean.
  uint64_t topics_skipped_breaker = 0;  ///< Breaker open — not touched.
  uint64_t quarantines = 0;        ///< Topics renamed aside pending rebuild.
  uint64_t rebuilds = 0;           ///< Successful single-topic rebuilds.
  uint64_t rebuild_failures = 0;   ///< Rebuilder errors (topic stays quarantined).
  uint64_t passes = 0;             ///< Full passes completed.
};

class IndexScrubber {
 public:
  /// Rebuilds one topic's files in place (IndexBuilder::RebuildTopic).
  using RebuildFn = std::function<Status(TopicId)>;
  /// Returns false when the topic must not be touched (breaker open).
  /// Must be read-only — QueryService::TopicHealthy, NOT Admit().
  using AdmitFn = std::function<bool(TopicId)>;

  /// The cache provides the meta, the directory path and the prefetch
  /// pool. The scrubber must be destroyed (or Stop()ped) before `cache`.
  IndexScrubber(std::shared_ptr<KeywordCache> cache,
                IndexScrubberOptions options = {});
  ~IndexScrubber();

  IndexScrubber(const IndexScrubber&) = delete;
  IndexScrubber& operator=(const IndexScrubber&) = delete;

  void SetRebuilder(RebuildFn fn) EXCLUDES(mu_);
  void SetAdmitFn(AdmitFn fn) EXCLUDES(mu_);

  /// Verifies every stored CRC of one topic's files. OK when clean,
  /// skipped, or detected-and-healed (quarantine + rebuild + re-verify
  /// succeeded); kCorruption when corruption was found and repair is
  /// disabled or failed.
  Status ScrubTopic(TopicId topic);

  /// One full pass over all topics. Returns the first non-OK topic
  /// status (after attempting the remaining topics).
  Status ScrubPass();

  /// Launches the background thread (idempotent, thread-safe: concurrent
  /// Start/Stop calls serialize on lifecycle_mu_).
  void Start() EXCLUDES(lifecycle_mu_);
  /// Stops and joins it (idempotent; also called by the destructor).
  void Stop() EXCLUDES(lifecycle_mu_);

  IndexScrubberStats stats() const EXCLUDES(mu_);

 private:
  /// Reads + CRC-checks one file, counting each verified unit. The
  /// returned status is kCorruption exactly when a stored CRC mismatches.
  Status VerifyRrFile(TopicId topic);
  Status VerifyListsFile(TopicId topic);
  Status VerifyIrrFile(TopicId topic);

  /// Runs `unit` on the cache's prefetch pool (waiting for it), inline
  /// when the cache has none, then paces.
  Status RunUnit(std::function<Status()> unit);

  /// Renames the topic's data files aside and runs the rebuilder.
  Status QuarantineAndRebuild(TopicId topic);

  /// One scrub unit: hash `data`, compare to the stored masked CRC,
  /// account blocks_scrubbed/bytes_scrubbed/crc_failures.
  Status CheckCrc(const char* data, size_t n, uint32_t stored_masked,
                  const char* what, const std::string& path);

  const std::shared_ptr<KeywordCache> cache_;
  const IndexScrubberOptions options_;

  mutable Mutex mu_;
  IndexScrubberStats stats_ GUARDED_BY(mu_);
  RebuildFn rebuild_ GUARDED_BY(mu_);
  AdmitFn admit_ GUARDED_BY(mu_);

  std::atomic<bool> stop_{false};

  /// Guards the background thread's lifecycle. Separate from mu_ because
  /// Stop() joins while holding it and the scrub thread takes mu_ for
  /// stats — joining under mu_ would deadlock.
  Mutex lifecycle_mu_;
  std::thread thread_ GUARDED_BY(lifecycle_mu_);
};

}  // namespace kbtim

#endif  // KBTIM_INDEX_INDEX_SCRUBBER_H_
