#include "index/keyword_cache.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "storage/crc32c.h"
#include "storage/decode_kernels.h"
#include "storage/varint.h"

namespace kbtim {
namespace {

uint32_t LoadFixed32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// In-place prefix sum over buf[0, n): the inline twin of DeltaDecode for
/// the monomorphic decode path (which tracks lengths instead of resizing).
inline void DeltaDecodeSpan(uint32_t* buf, size_t n) {
  uint32_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    run += buf[i];
    buf[i] = run;
  }
}

/// Decodes one length-prefixed codec payload at `p`, APPENDING its *n
/// delta-decoded values to `out`. PFoR payloads take the monomorphic
/// PforDecodeAppend fast path straight into the destination
/// (the partition decoders parse thousands of few-element lists, so the
/// generic virtual-dispatch + temp-copy framing dominates otherwise);
/// everything else goes through codec->Decode on an exact sub-view plus a
/// copy through `tmp`.
inline Status DecodeAppendPayload(const IntCodec& codec, bool fast_pfor,
                                  const char** p, uint64_t len,
                                  const char* limit,
                                  std::vector<uint32_t>& tmp,
                                  std::vector<uint32_t>& out, size_t* n) {
  if (fast_pfor) {
    const char* next = PforDecodeAppend(*p, limit, out, n);
    if (next == nullptr || next != *p + len) {
      return Status::Corruption("pfor list length mismatch");
    }
    *p = next;
  } else {
    KBTIM_RETURN_IF_ERROR(codec.Decode(std::string_view(*p, len), &tmp));
    *n = tmp.size();
    *p += len;
    out.insert(out.end(), tmp.begin(), tmp.end());
  }
  DeltaDecodeSpan(out.data() + out.size() - *n, *n);
  return Status::OK();
}

}  // namespace

bool IrrKeywordEntry::FirstOccurrence(VertexId v, RrId* first) const {
  // Branchless binary search (the compare compiles to a conditional move,
  // so the only mispredictable branch is the loop itself) with both
  // next-probe cache lines prefetched — this sits under every NRA
  // upper-bound refresh, several thousand times per query.
  const VertexId* base = ip_vertex.data();
  size_t n = ip_vertex.size();
  if (n == 0) return false;
  while (n > 1) {
    const size_t half = n / 2;
    __builtin_prefetch(base + half / 2);
    __builtin_prefetch(base + half + half / 2);
    base += base[half - 1] < v ? half : 0;
    n -= half;
  }
  if (*base != v) return false;
  *first = ip_first[static_cast<size_t>(base - ip_vertex.data())];
  return true;
}

Status IrrPartitionBlock::EnsureMembers() const {
  std::call_once(ir_once, [this] {
    // Framing (headers + lengths) was validated at block build; re-walk
    // it and decode every member payload. Payload-level corruption fails
    // the whole region closed: all spans come back empty.
    set_offsets.assign(1, 0);
    set_members.clear();
    const char* p = ir_raw.data();
    const char* limit = p + ir_raw.size();
    const auto codec = MakeCodec(ir_codec);
    const bool fast_pfor = ir_codec == CodecKind::kPfor;
    std::vector<uint32_t> tmp;
    size_t n = 0;
    for (size_t i = 0; i < set_ids.size(); ++i) {
      uint32_t rr_delta = 0;
      uint64_t len = 0;
      p = GetVarint32(p, limit, &rr_delta);
      if (p != nullptr) p = GetVarint64(p, limit, &len);
      if (p == nullptr || p + len > limit ||
          !DecodeAppendPayload(*codec, fast_pfor, &p, len, limit, tmp,
                               set_members, &n)
               .ok()) {
        KBTIM_LOG(Warning)
            << "IRR set-member payload corrupt; eager-mode coverage "
               "updates degrade to empty sets for this partition";
        ir_corrupt = true;
        set_offsets.assign(set_ids.size() + 1, 0);
        set_members.clear();
        return;
      }
      set_offsets.push_back(static_cast<uint32_t>(set_members.size()));
    }
  });
  if (ir_corrupt) {
    return Status::Corruption("IRR set-member payload corrupt");
  }
  return Status::OK();
}

std::span<const RrId> RrKeywordBlock::ListOf(VertexId v,
                                             uint64_t query_budget) const {
  const auto it =
      std::lower_bound(list_vertex.begin(), list_vertex.end(), v);
  if (it == list_vertex.end() || *it != v) return {};
  const size_t idx = static_cast<size_t>(it - list_vertex.begin());
  const RrId* begin = list_ids.data() + list_offsets[idx];
  const RrId* end = list_ids.data() + list_offsets[idx + 1];
  if (query_budget < loaded_budget) {
    end = std::lower_bound(begin, end, static_cast<RrId>(query_budget));
  }
  return {begin, end};
}

StatusOr<std::shared_ptr<KeywordCache>> KeywordCache::Create(
    const std::string& dir, KeywordCacheOptions options) {
  KBTIM_ASSIGN_OR_RETURN(IndexMeta meta, ReadIndexMeta(MetaFileName(dir)));
  return std::shared_ptr<KeywordCache>(
      new KeywordCache(dir, std::move(meta), options));
}

Status KeywordCache::CheckCrcLocked(const char* data, size_t n,
                                    uint32_t stored_masked, const char* what,
                                    const std::string& path) {
  ++stats_.crc_checks;
  if (crc32c::Unmask(stored_masked) == crc32c::Value(data, n)) {
    return Status::OK();
  }
  ++stats_.crc_failures;
  return Status::Corruption(std::string(what) + " checksum mismatch: " +
                            path);
}

Status KeywordCache::CheckCrc(const char* data, size_t n,
                              uint32_t stored_masked, const char* what,
                              const std::string& path) {
  // Hash outside the lock (this may cover megabytes), account inside.
  const bool match = crc32c::Unmask(stored_masked) == crc32c::Value(data, n);
  MutexLock lock(&mu_);
  ++stats_.crc_checks;
  if (match) return Status::OK();
  ++stats_.crc_failures;
  return Status::Corruption(std::string(what) + " checksum mismatch: " +
                            path);
}

bool KeywordCache::RunOnPrefetchPool(std::function<void()> fn) {
  if (prefetch_pool_ == nullptr) return false;
  prefetch_pool_->Submit(std::move(fn));
  return true;
}

KeywordCacheStats KeywordCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void KeywordCache::DropBlocks() {
  // Land in-flight prefetches first so none resurrects a block after the
  // clear (benchmarks rely on DropBlocks giving a truly cold block cache).
  WaitForPrefetches();
  MutexLock lock(&mu_);
  blocks_.clear();
  lru_.clear();
  stats_.bytes_cached = 0;
}

void KeywordCache::SetFailureListener(FailureListener listener) {
  MutexLock lock(&listener_mu_);
  failure_listener_ = std::move(listener);
}

uint64_t KeywordCache::EpochLocked(TopicId topic) const {
  const auto it = topic_epoch_.find(topic);
  return it == topic_epoch_.end() ? 0 : it->second;
}

void KeywordCache::InvalidateTopic(TopicId topic) {
  MutexLock lock(&mu_);
  ++topic_epoch_[topic];
  ++stats_.topic_invalidations;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->first.topic == topic) {
      stats_.bytes_cached -= it->second.bytes;
      lru_.erase(it->second.lru_pos);
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
  // Deregister in-flight prefetches: a joiner already holding the future
  // still gets its (pre-invalidation) result, but no new lookup can join,
  // and the epoch bump above keeps the task from admitting its block.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    it = it->first.topic == topic ? inflight_.erase(it) : std::next(it);
  }
  for (auto it = uncacheable_.begin(); it != uncacheable_.end();) {
    it = it->first.topic == topic ? uncacheable_.erase(it) : std::next(it);
  }
  // Drop the parsed preamble and every file handle: the next access
  // reopens fresh descriptors (and remaps), which is the recovery path
  // for stale mappings and transient descriptor-level failures alike.
  irr_entries_.erase(topic);
  rr_entries_.erase(topic);
}

void KeywordCache::RecordTopicFailure(TopicId topic, const Status& status) {
  if (status.code() == StatusCode::kCorruption) {
    {
      MutexLock lock(&mu_);
      ++stats_.decode_failures;
    }
    InvalidateTopic(topic);
  } else if (status.code() == StatusCode::kIOError) {
    MutexLock lock(&mu_);
    ++stats_.io_errors;
    irr_entries_.erase(topic);
    rr_entries_.erase(topic);
  } else {
    return;  // not a fault-domain failure (bad argument, etc.)
  }
  FailureListener listener;
  {
    MutexLock lock(&listener_mu_);
    listener = failure_listener_;
  }
  if (listener) listener(topic, status);
}

void KeywordCache::WaitForPrefetches() {
  std::vector<IrrBlockFuture> pending;
  {
    MutexLock lock(&mu_);
    pending.reserve(inflight_.size());
    for (const auto& [key, decode] : inflight_) {
      pending.push_back(decode.future);
    }
  }
  for (const auto& future : pending) future.wait();
}

void KeywordCache::TouchLocked(BlockSlot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru_pos);
}

void KeywordCache::EvictToFitLocked(uint64_t incoming_bytes) {
  // Callers insert only absent keys, so the incoming block is never a
  // candidate victim here.
  while (!lru_.empty() &&
         stats_.bytes_cached + incoming_bytes > options_.block_cache_bytes) {
    const auto it = blocks_.find(lru_.back());
    stats_.bytes_cached -= it->second.bytes;
    ++stats_.evictions;
    blocks_.erase(it);
    lru_.pop_back();
  }
}

KeywordCache::BlockSlot& KeywordCache::InsertBlockLocked(
    const BlockKey& key, std::shared_ptr<const void> block, uint64_t bytes) {
  EvictToFitLocked(bytes);
  lru_.push_front(key);
  stats_.bytes_cached += bytes;
  return blocks_.emplace(key, BlockSlot{std::move(block), bytes, lru_.begin()})
      .first->second;
}

void KeywordCache::EraseBlockLocked(const BlockKey& key) {
  const auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  stats_.bytes_cached -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  blocks_.erase(it);
}

std::shared_ptr<const void> KeywordCache::InsertBlockIfFresh(
    const BlockKey& key, std::shared_ptr<const void> block, uint64_t bytes,
    uint64_t epoch) {
  if (options_.block_cache_bytes == 0) return block;  // caching disabled
  MutexLock lock(&mu_);
  if (EpochLocked(key.topic) != epoch) {
    // The topic was invalidated while this block was decoding; it read
    // through a pre-invalidation handle, so serve it to the caller but
    // never admit it.
    return block;
  }
  const auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    // Another thread decoded the same block first; keep theirs.
    TouchLocked(it->second);
    return it->second.block;
  }
  if (bytes > AdmissionLimitBytes()) {
    // Admission policy: serve the oversized block, keep the cache hot.
    ++stats_.admission_bypasses;
    return block;
  }
  InsertBlockLocked(key, block, bytes);
  return block;
}

// ---- IRR side -------------------------------------------------------------

StatusOr<std::shared_ptr<const IrrKeywordEntry>> KeywordCache::GetIrrKeyword(
    TopicId topic) {
  if (topic >= meta_.num_topics) {
    return Status::InvalidArgument("topic id out of range");
  }
  {
    MutexLock lock(&mu_);
    const auto it = irr_entries_.find(topic);
    if (it != irr_entries_.end()) return it->second;
  }
  // Parse outside the lock so a cold preamble never stalls warm queries.
  auto loaded = LoadIrrEntry(topic);
  if (!loaded.ok()) {
    RecordTopicFailure(topic, loaded.status());
    return loaded.status();
  }
  MutexLock lock(&mu_);
  const auto [it, inserted] = irr_entries_.emplace(topic, *loaded);
  if (inserted) ++stats_.preamble_loads;
  return it->second;  // the first loader's entry if we raced
}

StatusOr<std::shared_ptr<const IrrKeywordEntry>> KeywordCache::LoadIrrEntry(
    TopicId topic) {
  const std::string path = IrrFileName(dir_, topic);
  const IndexMeta::TopicMeta& tm = meta_.topics[topic];
  auto entry = std::make_shared<IrrKeywordEntry>();
  entry->topic = topic;
  KBTIM_ASSIGN_OR_RETURN(entry->file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  if (tm.irr_preamble < kIrrHeaderSizeV2 + 4 ||
      tm.irr_preamble > entry->file->size()) {
    return Status::Corruption("bad IRR preamble length: " + path);
  }
  // Single logical read: header + IP map + partition directory + the
  // trailing preamble CRC.
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view buf,
                         entry->file->ReadOrCopy(0, tm.irr_preamble,
                                                 &scratch));
  const char* p = buf.data();
  const char* limit = buf.data() + buf.size();
  if (std::memcmp(p, kIrrMagicV2, 4) != 0) {
    return Status::Corruption("bad IRR magic: " + path);
  }
  // Whole-preamble CRC first (covers header + IP + directory), so every
  // byte the parse below trusts has been verified; then the header's own
  // CRC (cheap, and localizes the error message).
  constexpr size_t kHeaderCrcAt = kIrrHeaderSizeV2 - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), buf.size() - 4,
                                 LoadFixed32(limit - 4), "IRR preamble",
                                 path));
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), kHeaderCrcAt,
                                 LoadFixed32(p + kHeaderCrcAt), "IRR header",
                                 path));
  limit -= 4;
  uint32_t file_topic = 0, delta = 0;
  std::memcpy(&file_topic, p + 4, 4);
  std::memcpy(&entry->num_users, p + 8, 8);
  std::memcpy(&entry->num_partitions, p + 16, 8);
  std::memcpy(&delta, p + 24, 4);
  entry->codec = static_cast<CodecKind>(p[28]);
  std::memcpy(&entry->theta_w, p + 29, 8);
  p += kIrrHeaderSizeV2;
  if (file_topic != topic || entry->codec != meta_.codec) {
    return Status::Corruption("IRR header mismatch: " + path);
  }

  // Bound the raw counts against the preamble size before trusting them:
  // each IP entry is >= 2 varint bytes and each directory entry is
  // fixed-size, so corrupt huge counts fail here instead of overflowing /
  // OOMing.
  const uint64_t remaining = static_cast<uint64_t>(limit - p);
  if (entry->num_users > remaining / 2 ||
      entry->num_partitions > remaining / kIrrDirEntrySizeV2) {
    return Status::Corruption("IRR preamble counts exceed file: " + path);
  }

  // IP map: vertex deltas accumulate from 0, so the keys arrive (and are
  // stored) in ascending order — binary-search ready.
  entry->ip_vertex.reserve(entry->num_users);
  entry->ip_first.reserve(entry->num_users);
  VertexId prev = 0;
  for (uint64_t i = 0; i < entry->num_users; ++i) {
    uint32_t dv = 0, first = 0;
    p = GetVarint32(p, limit, &dv);
    if (p == nullptr) return Status::Corruption("IRR IP truncated: " + path);
    p = GetVarint32(p, limit, &first);
    if (p == nullptr) return Status::Corruption("IRR IP truncated: " + path);
    prev += dv;
    entry->ip_vertex.push_back(prev);
    entry->ip_first.push_back(first);
  }

  // Partition directory (fixed-size entries; num_partitions already
  // bounded above, so the multiply cannot wrap).
  if (entry->num_partitions * kIrrDirEntrySizeV2 >
      static_cast<uint64_t>(limit - p)) {
    return Status::Corruption("IRR directory truncated: " + path);
  }
  entry->directory.resize(entry->num_partitions);
  for (auto& info : entry->directory) {
    std::memcpy(&info.offset, p, 8);
    std::memcpy(&info.length, p + 8, 8);
    std::memcpy(&info.num_users, p + 16, 4);
    std::memcpy(&info.num_sets, p + 20, 4);
    std::memcpy(&info.max_list_len, p + 24, 4);
    std::memcpy(&info.min_list_len, p + 28, 4);
    std::memcpy(&info.crc, p + 32, 4);
    p += kIrrDirEntrySizeV2;
  }
  return std::shared_ptr<const IrrKeywordEntry>(std::move(entry));
}

StatusOr<std::shared_ptr<const IrrPartitionBlock>>
KeywordCache::GetIrrPartition(const IrrKeywordEntry& entry,
                              uint64_t partition) {
  if (partition >= entry.num_partitions) {
    return Status::InvalidArgument("IRR partition out of range");
  }
  const BlockKey key{entry.topic, partition};
  IrrBlockFuture inflight;
  uint64_t epoch = 0;
  {
    MutexLock lock(&mu_);
    const auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      ++stats_.hits;
      if (it->second.prefetched) {
        ++stats_.prefetch_hits;
        it->second.prefetched = false;
      }
      TouchLocked(it->second);
      return std::static_pointer_cast<const IrrPartitionBlock>(
          it->second.block);
    }
    ++stats_.misses;
    epoch = EpochLocked(entry.topic);
    const auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      ++stats_.prefetches_served;
      fit->second.joined = true;
      inflight = fit->second.future;
    }
  }
  if (inflight.valid()) {
    // A prefetch worker already has this partition; join it — its decode
    // ran (or is running) while this thread was computing. Failures
    // surface here as the worker's status (the worker already recorded
    // the fault; re-recording would double-count it).
    return inflight.get();
  }

  auto decoded = DecodeIrrPartition(entry, partition);
  if (!decoded.ok()) {
    RecordTopicFailure(entry.topic, decoded.status());
    return decoded.status();
  }
  return std::static_pointer_cast<const IrrPartitionBlock>(
      InsertBlockIfFresh(key, *decoded, (*decoded)->bytes, epoch));
}

void KeywordCache::PrefetchIrrPartition(
    std::shared_ptr<const IrrKeywordEntry> entry, uint64_t partition) {
  if (prefetch_pool_ == nullptr || entry == nullptr ||
      partition >= entry->num_partitions) {
    return;
  }
  const BlockKey key{entry->topic, partition};
  uint64_t epoch = 0;
  {
    // Cheap warm-path exit BEFORE building the task: resident, in-flight
    // or admission-bypassed partitions (the common cases on repeat
    // queries) cost one lock round-trip and no allocation.
    MutexLock lock(&mu_);
    if (blocks_.count(key) != 0 || inflight_.count(key) != 0 ||
        uncacheable_.count(key) != 0) {
      return;
    }
    epoch = EpochLocked(key.topic);
  }
  // packaged_task is move-only but ThreadPool tasks are std::function;
  // hold it by shared_ptr.
  auto task = std::make_shared<std::packaged_task<
      StatusOr<std::shared_ptr<const IrrPartitionBlock>>()>>(
      [this, entry = std::move(entry), partition, key, epoch]() {
        auto decoded = DecodeIrrPartition(*entry, partition);
        if (decoded.ok()) {
          // Publish to the block cache BEFORE leaving the in-flight map,
          // so no lookup can miss both; losing a racing insert just hands
          // back the winner's block. A topic invalidated since the
          // prefetch was scheduled (epoch moved) is never re-admitted.
          bool admitted = true;
          {
            MutexLock lock(&mu_);
            const auto fit = inflight_.find(key);
            const bool joined = fit != inflight_.end() && fit->second.joined;
            if (EpochLocked(key.topic) == epoch) {
              const auto it = blocks_.find(key);
              if (it != blocks_.end()) {
                TouchLocked(it->second);
                decoded = std::static_pointer_cast<const IrrPartitionBlock>(
                    it->second.block);
              } else if ((*decoded)->bytes > AdmissionLimitBytes()) {
                ++stats_.admission_bypasses;
                admitted = false;
              } else {
                InsertBlockLocked(key, *decoded, (*decoded)->bytes)
                    .prefetched = !joined;
              }
            }
            // Remember admission refusals: re-prefetching an uncacheable
            // partition would decode into the void every round.
            if (!admitted) uncacheable_.emplace(key, true);
            inflight_.erase(key);
          }
        } else {
          // Bugfix (swallowed status): a failed background decode used to
          // vanish unless a foreground joiner happened to wait on the
          // future. Count it and run the same failure-domain reaction as
          // a foreground failure; joiners still observe the status.
          {
            MutexLock lock(&mu_);
            ++stats_.prefetch_failures;
            inflight_.erase(key);
          }
          RecordTopicFailure(key.topic, decoded.status());
        }
        return decoded;
      });
  {
    // Re-check under the lock: another thread may have landed or started
    // this partition (or invalidated the topic) while the task was built.
    MutexLock lock(&mu_);
    if (blocks_.count(key) != 0 || inflight_.count(key) != 0 ||
        EpochLocked(key.topic) != epoch) {
      return;
    }
    inflight_.emplace(key, InflightDecode{task->get_future().share()});
    ++stats_.prefetches_issued;
  }
  prefetch_pool_->Submit([task] { (*task)(); });
}

StatusOr<std::shared_ptr<const IrrPartitionBlock>>
KeywordCache::DecodeIrrPartition(const IrrKeywordEntry& entry,
                                 uint64_t partition) {
  // Reads and decodes outside the lock; the immutable entry pins the file
  // handle (callers hold it via shared_ptr or the entries map).
  const IrrPartitionInfo& info = entry.directory[partition];
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(
      std::string_view buf,
      entry.file->ReadOrCopy(info.offset, info.length, &scratch));
  // Verify the exact bytes read before any decode touches them: a bit flip
  // (in the file or injected on the read) becomes kCorruption here, never
  // a silently-different seed set.
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), buf.size(), info.crc,
                                 "IRR partition", entry.file->path()));
  const char* p = buf.data();
  const char* limit = buf.data() + buf.size();
  const auto codec = MakeCodec(entry.codec);
  const bool fast_pfor = entry.codec == CodecKind::kPfor;
  auto block = std::make_shared<IrrPartitionBlock>();

  // IL^p: inverted lists, kept unrestricted (queries budget-slice them).
  std::vector<uint32_t> ids;
  size_t n = 0;
  block->users.reserve(info.num_users);
  block->list_offsets.reserve(info.num_users + 1);
  block->list_offsets.push_back(0);
  for (uint32_t i = 0; i < info.num_users; ++i) {
    uint32_t v = 0;
    uint64_t len = 0;
    p = fast_pfor ? FastVarint32(p, limit, &v) : GetVarint32(p, limit, &v);
    if (p == nullptr) return Status::Corruption("IRR IL truncated");
    p = fast_pfor ? FastVarint64(p, limit, &len)
                  : GetVarint64(p, limit, &len);
    if (p == nullptr || p + len > limit) {
      return Status::Corruption("IRR IL truncated");
    }
    KBTIM_RETURN_IF_ERROR(DecodeAppendPayload(*codec, fast_pfor, &p, len,
                                              limit, ids, block->list_ids,
                                              &n));
    block->users.push_back(v);
    block->list_offsets.push_back(
        static_cast<uint32_t>(block->list_ids.size()));
  }

  // IR^p: the RR sets first referenced by this partition, ids ascending.
  // Only the per-set HEADERS are parsed here (ids + framing validation);
  // the member payloads — about half the partition's decode cost, and
  // read only by the eager query mode — keep their encoded form in the
  // block and materialize on first SetMembers access.
  uint32_t num_sets = 0;
  p = GetVarint32(p, limit, &num_sets);
  if (p == nullptr) return Status::Corruption("IRR IR truncated");
  block->set_ids.reserve(num_sets);
  const char* ir_begin = p;
  RrId rr = 0;
  uint64_t total_members = 0;
  for (uint32_t s = 0; s < num_sets; ++s) {
    uint32_t rr_delta = 0;
    uint64_t len = 0;
    p = fast_pfor ? FastVarint32(p, limit, &rr_delta)
                  : GetVarint32(p, limit, &rr_delta);
    if (p == nullptr) return Status::Corruption("IRR IR truncated");
    p = fast_pfor ? FastVarint64(p, limit, &len)
                  : GetVarint64(p, limit, &len);
    if (p == nullptr || p + len > limit) {
      return Status::Corruption("IRR IR truncated");
    }
    rr += rr_delta;
    block->set_ids.push_back(rr);
    // Peek the payload's leading count varint so the eventual decoded
    // member mass is charged against the cache bound NOW — the lazy
    // materialization later grows the block in place without another
    // accounting pass.
    uint64_t member_count = 0;
    if (GetVarint64(p, p + len, &member_count) == nullptr) {
      return Status::Corruption("IRR IR payload header truncated");
    }
    total_members += member_count;
    p += len;  // payload deferred
  }
  block->ir_codec = entry.codec;
  block->ir_raw.assign(ir_begin, static_cast<size_t>(p - ir_begin));

  // Charge the decoded-member footprint up front (from the peeked counts)
  // whether or not it has materialized yet, so cache residency never
  // exceeds the bound when eager queries decode cached blocks later.
  block->bytes = VectorBytes(block->users) +
                 VectorBytes(block->list_offsets) +
                 VectorBytes(block->list_ids) + VectorBytes(block->set_ids) +
                 block->ir_raw.capacity() +
                 (total_members + num_sets + 1) * sizeof(uint32_t);
  return std::shared_ptr<const IrrPartitionBlock>(std::move(block));
}

// ---- RR side --------------------------------------------------------------

Status KeywordCache::EnsureRrEntryLocked(TopicId topic,
                                         RrKeywordEntry** out) {
  const auto it = rr_entries_.find(topic);
  if (it != rr_entries_.end()) {
    *out = &it->second;
    return Status::OK();
  }
  const std::string path = RrFileName(dir_, topic);
  RrKeywordEntry entry;
  entry.topic = topic;
  KBTIM_ASSIGN_OR_RETURN(entry.rr_file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  KBTIM_ASSIGN_OR_RETURN(entry.lists_file,
                         RandomAccessFile::Open(ListsFileName(dir_, topic),
                                                /*prefer_mmap=*/true));
  ++stats_.preamble_loads;
  KBTIM_RETURN_IF_ERROR(LoadRrDirectoryLocked(&entry));
  *out = &rr_entries_.emplace(topic, std::move(entry)).first->second;
  return Status::OK();
}

Status KeywordCache::LoadRrDirectoryLocked(RrKeywordEntry* entry) {
  // The meta records the preamble length, so ONE read covers header +
  // full offset directory + directory CRC + page-CRC table, all verified
  // before anything is trusted; later budget growth needs no directory
  // reads at all.
  const std::string& path = entry->rr_file->path();
  const uint64_t preamble = meta_.topics[entry->topic].rr_preamble;
  const uint64_t file_size = entry->rr_file->size();
  if (preamble < kRrHeaderSizeV2 + 12 || preamble > file_size) {
    return Status::Corruption("bad RR preamble length: " + path);
  }
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view head,
                         entry->rr_file->ReadOrCopy(0, preamble, &scratch));
  if (std::memcmp(head.data(), kRrMagicV2, 4) != 0) {
    return Status::Corruption("bad RR file magic: " + path);
  }
  constexpr size_t kHeaderCrcAt = kRrHeaderSizeV2 - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrcLocked(head.data(), kHeaderCrcAt,
                                       LoadFixed32(head.data() + kHeaderCrcAt),
                                       "RR header", path));
  uint32_t file_topic = 0;
  uint64_t num_pages = 0;
  std::memcpy(&file_topic, head.data() + 4, 4);
  std::memcpy(&entry->count, head.data() + 8, 8);
  const auto file_codec = static_cast<CodecKind>(head[16]);
  std::memcpy(&num_pages, head.data() + 17, 8);
  if (file_topic != entry->topic || file_codec != meta_.codec) {
    return Status::Corruption("RR file header mismatch: " + path);
  }
  const uint64_t dir_size = (entry->count + 1) * sizeof(uint64_t);
  if (preamble !=
      kRrHeaderSizeV2 + dir_size + 4 + num_pages * sizeof(uint32_t)) {
    return Status::Corruption("RR preamble layout mismatch: " + path);
  }
  const char* dir = head.data() + kRrHeaderSizeV2;
  KBTIM_RETURN_IF_ERROR(CheckCrcLocked(dir, dir_size,
                                       LoadFixed32(dir + dir_size),
                                       "RR directory", path));
  entry->offsets.resize(entry->count + 1);
  std::memcpy(entry->offsets.data(), dir, dir_size);
  if (entry->offsets.front() != preamble ||
      entry->offsets.back() != file_size ||
      num_pages !=
          (file_size - preamble + kRrCrcPageSize - 1) / kRrCrcPageSize) {
    return Status::Corruption("RR directory out of bounds: " + path);
  }
  entry->page_crcs.resize(num_pages);
  std::memcpy(entry->page_crcs.data(), dir + dir_size + 4,
              num_pages * sizeof(uint32_t));
  return Status::OK();
}

StatusOr<std::shared_ptr<const RrKeywordBlock>> KeywordCache::GetRrKeyword(
    TopicId topic, uint64_t min_budget) {
  auto block = GetRrKeywordImpl(topic, min_budget);
  if (!block.ok()) RecordTopicFailure(topic, block.status());
  return block;
}

StatusOr<std::shared_ptr<const RrKeywordBlock>>
KeywordCache::GetRrKeywordImpl(TopicId topic, uint64_t min_budget) {
  if (topic >= meta_.num_topics) {
    return Status::InvalidArgument("topic id out of range");
  }
  if (min_budget == 0) {
    return Status::InvalidArgument("RR keyword budget must be positive");
  }
  // A budget past θ_w is the caller's error, and must not reach the files:
  // there it would read as corruption and invalidate a healthy topic.
  const uint64_t theta = meta_.topics[topic].theta;
  if (min_budget > theta) {
    return Status::InvalidArgument(
        "RR keyword budget " + std::to_string(min_budget) +
        " exceeds theta_w " + std::to_string(theta) + " of topic " +
        std::to_string(topic));
  }
  const BlockKey key{topic, kRrBlockSlot};
  std::shared_ptr<RandomAccessFile> rr_file;
  std::shared_ptr<RandomAccessFile> lists_file;
  uint64_t epoch = 0;
  std::vector<uint64_t> offsets;  // local copy of entries [0, min_budget]
  std::vector<uint32_t> page_crcs;  // pages covering the payload prefix
  {
    MutexLock lock(&mu_);
    const auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      auto block =
          std::static_pointer_cast<const RrKeywordBlock>(it->second.block);
      if (block->loaded_budget >= min_budget) {
        ++stats_.hits;
        TouchLocked(it->second);
        return block;
      }
      // Budget grew past the cached prefix: re-decode below (the smaller
      // block keeps serving other readers until the new one lands).
    }
    ++stats_.misses;
    // Entry bookkeeping (handles + the small offset directory) stays
    // under the lock; the expensive payload reads/decodes run outside it
    // so a cold keyword never stalls warm queries on other topics.
    RrKeywordEntry* entry = nullptr;
    KBTIM_RETURN_IF_ERROR(EnsureRrEntryLocked(topic, &entry));
    if (min_budget > entry->count) {
      // The file stores fewer sets than the meta's θ_w.
      return Status::Corruption("RR budget exceeds stored sets: " +
                                entry->rr_file->path());
    }
    // Shared handle copies stay valid unlocked even if InvalidateTopic
    // erases the entry (and drops its references) mid-decode.
    rr_file = entry->rr_file;
    lists_file = entry->lists_file;
    epoch = EpochLocked(topic);
    offsets.assign(entry->offsets.begin(),
                   entry->offsets.begin() + min_budget + 1);
    const uint64_t prefix = offsets[min_budget] - offsets[0];
    const uint64_t pages = (prefix + kRrCrcPageSize - 1) / kRrCrcPageSize;
    page_crcs.assign(entry->page_crcs.begin(),
                     entry->page_crcs.begin() + pages);
  }

  auto block = std::make_shared<RrKeywordBlock>();
  block->loaded_budget = min_budget;

  // One contiguous read of the payload prefix, rounded up to the CRC page
  // boundary (clamped to the payload end) so every touched page verifies
  // against its stored CRC — still one logical read, so Table-6 I/O
  // accounting is unchanged.
  const uint64_t base = offsets[0];
  const uint64_t need_len = offsets[min_budget] - base;
  const uint64_t read_len = std::min<uint64_t>(
      rr_file->size() - base,
      (need_len + kRrCrcPageSize - 1) / kRrCrcPageSize * kRrCrcPageSize);
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view raw,
                         rr_file->ReadOrCopy(base, read_len, &scratch));
  uint64_t bad_page = page_crcs.size();
  for (uint64_t i = 0; i < page_crcs.size(); ++i) {
    const uint64_t begin = i * kRrCrcPageSize;
    const uint64_t end = std::min<uint64_t>(read_len, begin + kRrCrcPageSize);
    if (crc32c::Unmask(page_crcs[i]) !=
        crc32c::Value(raw.data() + begin, end - begin)) {
      bad_page = i;
      break;
    }
  }
  {
    MutexLock lock(&mu_);
    stats_.crc_checks +=
        bad_page < page_crcs.size() ? bad_page + 1 : page_crcs.size();
    if (bad_page < page_crcs.size()) ++stats_.crc_failures;
  }
  if (bad_page < page_crcs.size()) {
    return Status::Corruption("RR payload page checksum mismatch: " +
                              rr_file->path());
  }
  const std::string_view payload = raw.substr(0, need_len);
  const auto codec = MakeCodec(meta_.codec);
  const bool fast_pfor = meta_.codec == CodecKind::kPfor;
  const char* payload_limit = payload.data() + payload.size();
  std::vector<uint32_t> members;
  size_t n = 0;
  block->set_offsets.reserve(min_budget + 1);
  for (uint64_t i = 0; i < min_budget; ++i) {
    const char* sp = payload.data() + (offsets[i] - base);
    KBTIM_RETURN_IF_ERROR(DecodeAppendPayload(*codec, fast_pfor, &sp,
                                              offsets[i + 1] - offsets[i],
                                              payload_limit, members,
                                              block->set_items, &n));
    block->set_offsets.push_back(block->set_items.size());
  }

  // Inverted lists, restricted to RR ids < loaded_budget.
  const std::string& lists_path = lists_file->path();
  std::string lists_scratch;
  KBTIM_ASSIGN_OR_RETURN(
      std::string_view buf,
      lists_file->ReadOrCopy(0, lists_file->size(), &lists_scratch));
  if (buf.size() < kListsHeaderSizeV2 ||
      std::memcmp(buf.data(), kListsMagicV2, 4) != 0) {
    return Status::Corruption("bad lists file magic: " + lists_path);
  }
  // Header CRC covers the payload CRC field; the file is read whole, so
  // one payload CRC covers everything after the header.
  constexpr size_t kHeaderCrcAt = kListsHeaderSizeV2 - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), kHeaderCrcAt,
                                 LoadFixed32(buf.data() + kHeaderCrcAt),
                                 "lists header", lists_path));
  KBTIM_RETURN_IF_ERROR(CheckCrc(
      buf.data() + kListsHeaderSizeV2, buf.size() - kListsHeaderSizeV2,
      LoadFixed32(buf.data() + 17), "lists payload", lists_path));
  uint32_t file_topic = 0;
  uint64_t num_entries = 0;
  std::memcpy(&file_topic, buf.data() + 4, 4);
  std::memcpy(&num_entries, buf.data() + 8, 8);
  const auto file_codec = static_cast<CodecKind>(buf[16]);
  if (file_topic != topic || file_codec != meta_.codec) {
    return Status::Corruption("lists file header mismatch: " + lists_path);
  }
  const char* p = buf.data() + kListsHeaderSizeV2;
  const char* limit = buf.data() + buf.size();
  VertexId prev = 0;
  std::vector<uint32_t> ids;
  for (uint64_t e = 0; e < num_entries; ++e) {
    uint32_t delta_v = 0;
    uint64_t len = 0;
    p = GetVarint32(p, limit, &delta_v);
    if (p == nullptr) {
      return Status::Corruption("lists truncated: " + lists_path);
    }
    p = GetVarint64(p, limit, &len);
    if (p == nullptr || p + len > limit) {
      return Status::Corruption("lists truncated: " + lists_path);
    }
    const VertexId v = prev + delta_v;
    prev = v;
    const size_t start = block->list_ids.size();
    KBTIM_RETURN_IF_ERROR(DecodeAppendPayload(*codec, fast_pfor, &p, len,
                                              limit, ids, block->list_ids,
                                              &n));
    // Keep ids inside the loaded budget (ids are ascending, so the
    // out-of-budget portion is exactly the appended tail).
    while (block->list_ids.size() > start &&
           block->list_ids.back() >= min_budget) {
      block->list_ids.pop_back();
    }
    if (block->list_ids.size() == start) continue;
    block->list_vertex.push_back(v);
    block->list_offsets.push_back(block->list_ids.size());
  }

  block->bytes = VectorBytes(block->set_offsets) +
                 VectorBytes(block->set_items) +
                 VectorBytes(block->list_vertex) +
                 VectorBytes(block->list_offsets) +
                 VectorBytes(block->list_ids);
  if (options_.block_cache_bytes == 0) {
    return std::shared_ptr<const RrKeywordBlock>(std::move(block));
  }
  MutexLock lock(&mu_);
  if (EpochLocked(topic) != epoch) {
    // Invalidated while decoding: serve the caller, never re-admit.
    return std::shared_ptr<const RrKeywordBlock>(std::move(block));
  }
  const auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    auto existing =
        std::static_pointer_cast<const RrKeywordBlock>(it->second.block);
    if (existing->loaded_budget >= min_budget) {
      // A concurrent loader landed an equal-or-larger prefix; keep it.
      TouchLocked(it->second);
      return existing;
    }
  }
  if (block->bytes > AdmissionLimitBytes()) {
    // Admission policy: an oversized payload prefix would evict the whole
    // working set; serve it uncached (any smaller resident prefix keeps
    // serving the budgets it covers).
    ++stats_.admission_bypasses;
    return std::shared_ptr<const RrKeywordBlock>(std::move(block));
  }
  EraseBlockLocked(key);
  InsertBlockLocked(key, block, block->bytes);
  return std::shared_ptr<const RrKeywordBlock>(std::move(block));
}

}  // namespace kbtim
