#include "index/index_scrubber.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>

#include "common/logging.h"
#include "storage/block_file.h"
#include "storage/crc32c.h"

namespace kbtim {
namespace {

uint32_t LoadFixed32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadFixed64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

IndexScrubber::IndexScrubber(std::shared_ptr<KeywordCache> cache,
                             IndexScrubberOptions options)
    : cache_(std::move(cache)), options_(options) {}

IndexScrubber::~IndexScrubber() { Stop(); }

void IndexScrubber::SetRebuilder(RebuildFn fn) {
  MutexLock lock(&mu_);
  rebuild_ = std::move(fn);
}

void IndexScrubber::SetAdmitFn(AdmitFn fn) {
  MutexLock lock(&mu_);
  admit_ = std::move(fn);
}

IndexScrubberStats IndexScrubber::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

Status IndexScrubber::CheckCrc(const char* data, size_t n,
                               uint32_t stored_masked, const char* what,
                               const std::string& path) {
  const bool match = crc32c::Unmask(stored_masked) == crc32c::Value(data, n);
  MutexLock lock(&mu_);
  ++stats_.blocks_scrubbed;
  stats_.bytes_scrubbed += n;
  if (match) return Status::OK();
  ++stats_.crc_failures;
  return Status::Corruption(std::string(what) +
                            " checksum mismatch (scrub): " + path);
}

Status IndexScrubber::RunUnit(std::function<Status()> unit) {
  // The pool's own queue provides the backpressure: while queries are
  // prefetching, scrub units wait their turn instead of competing. A
  // cache without a pool runs the unit inline.
  std::promise<Status> done;
  auto future = done.get_future();
  const Status result =
      cache_->RunOnPrefetchPool([&unit, &done] { done.set_value(unit()); })
          ? future.get()
          : unit();
  if (options_.pace_ms > 0 && !stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.pace_ms));
  }
  return result;
}

Status IndexScrubber::VerifyRrFile(TopicId topic) {
  const std::string path = RrFileName(cache_->dir(), topic);
  const IndexMeta::TopicMeta& tm = cache_->meta().topics[topic];
  KBTIM_ASSIGN_OR_RETURN(auto file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  const uint64_t file_size = file->size();
  if (tm.rr_preamble < kRrHeaderSizeV2 + 12 || tm.rr_preamble > file_size) {
    return Status::Corruption("bad RR preamble length (scrub): " + path);
  }
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view head,
                         file->ReadOrCopy(0, tm.rr_preamble, &scratch));
  if (std::memcmp(head.data(), kRrMagicV2, 4) != 0) {
    return Status::Corruption("bad RR magic (scrub): " + path);
  }
  constexpr size_t kHeaderCrcAt = kRrHeaderSizeV2 - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(head.data(), kHeaderCrcAt,
                                 LoadFixed32(head.data() + kHeaderCrcAt),
                                 "RR header", path));
  const uint64_t count = LoadFixed64(head.data() + 8);
  const uint64_t num_pages = LoadFixed64(head.data() + 17);
  const uint64_t dir_size = (count + 1) * sizeof(uint64_t);
  if (tm.rr_preamble !=
      kRrHeaderSizeV2 + dir_size + 4 + num_pages * sizeof(uint32_t)) {
    return Status::Corruption("RR preamble layout mismatch (scrub): " +
                              path);
  }
  const char* dir = head.data() + kRrHeaderSizeV2;
  KBTIM_RETURN_IF_ERROR(CheckCrc(dir, dir_size,
                                 LoadFixed32(dir + dir_size),
                                 "RR directory", path));
  const char* pages = dir + dir_size + 4;

  // Payload pages.
  const uint64_t payload_size = file_size - tm.rr_preamble;
  if (num_pages !=
      (payload_size + kRrCrcPageSize - 1) / kRrCrcPageSize) {
    return Status::Corruption("RR page table size mismatch (scrub): " +
                              path);
  }
  std::string payload_scratch;
  KBTIM_ASSIGN_OR_RETURN(
      std::string_view payload,
      file->ReadOrCopy(tm.rr_preamble, payload_size, &payload_scratch));
  for (uint64_t i = 0; i < num_pages; ++i) {
    const uint64_t begin = i * kRrCrcPageSize;
    const uint64_t end =
        std::min<uint64_t>(payload_size, begin + kRrCrcPageSize);
    KBTIM_RETURN_IF_ERROR(CheckCrc(payload.data() + begin, end - begin,
                                   LoadFixed32(pages + i * 4),
                                   "RR payload page", path));
  }
  return Status::OK();
}

Status IndexScrubber::VerifyListsFile(TopicId topic) {
  const std::string path = ListsFileName(cache_->dir(), topic);
  KBTIM_ASSIGN_OR_RETURN(auto file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view buf,
                         file->ReadOrCopy(0, file->size(), &scratch));
  if (buf.size() < kListsHeaderSizeV2 ||
      std::memcmp(buf.data(), kListsMagicV2, 4) != 0) {
    return Status::Corruption("bad lists magic (scrub): " + path);
  }
  constexpr size_t kHeaderCrcAt = kListsHeaderSizeV2 - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), kHeaderCrcAt,
                                 LoadFixed32(buf.data() + kHeaderCrcAt),
                                 "lists header", path));
  return CheckCrc(buf.data() + kListsHeaderSizeV2,
                  buf.size() - kListsHeaderSizeV2,
                  LoadFixed32(buf.data() + 17), "lists payload", path);
}

Status IndexScrubber::VerifyIrrFile(TopicId topic) {
  const std::string path = IrrFileName(cache_->dir(), topic);
  const IndexMeta::TopicMeta& tm = cache_->meta().topics[topic];
  KBTIM_ASSIGN_OR_RETURN(auto file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  if (tm.irr_preamble < kIrrHeaderSizeV2 + 4 ||
      tm.irr_preamble > file->size()) {
    return Status::Corruption("bad IRR preamble length (scrub): " + path);
  }
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view pre,
                         file->ReadOrCopy(0, tm.irr_preamble, &scratch));
  if (std::memcmp(pre.data(), kIrrMagicV2, 4) != 0) {
    return Status::Corruption("bad IRR magic (scrub): " + path);
  }
  KBTIM_RETURN_IF_ERROR(CheckCrc(pre.data(), pre.size() - 4,
                                 LoadFixed32(pre.data() + pre.size() - 4),
                                 "IRR preamble", path));
  constexpr size_t kHeaderCrcAt = kIrrHeaderSizeV2 - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(pre.data(), kHeaderCrcAt,
                                 LoadFixed32(pre.data() + kHeaderCrcAt),
                                 "IRR header", path));
  const uint64_t num_partitions = LoadFixed64(pre.data() + 16);
  const uint64_t dir_bytes = num_partitions * kIrrDirEntrySizeV2;
  if (kIrrHeaderSizeV2 + dir_bytes + 4 > tm.irr_preamble) {
    return Status::Corruption("IRR directory exceeds preamble (scrub): " +
                              path);
  }
  const char* dir = pre.data() + (tm.irr_preamble - 4 - dir_bytes);
  for (uint64_t p = 0; p < num_partitions; ++p) {
    const char* e = dir + p * kIrrDirEntrySizeV2;
    const uint64_t offset = LoadFixed64(e);
    const uint64_t length = LoadFixed64(e + 8);
    const uint32_t stored = LoadFixed32(e + 32);
    if (offset < tm.irr_preamble || offset + length < offset ||
        offset + length > file->size()) {
      return Status::Corruption("IRR partition out of bounds (scrub): " +
                                path);
    }
    std::string part_scratch;
    KBTIM_ASSIGN_OR_RETURN(std::string_view part,
                           file->ReadOrCopy(offset, length, &part_scratch));
    KBTIM_RETURN_IF_ERROR(CheckCrc(part.data(), part.size(), stored,
                                   "IRR partition", path));
  }
  return Status::OK();
}

Status IndexScrubber::ScrubTopic(TopicId topic) {
  const IndexMeta& meta = cache_->meta();
  if (topic >= meta.num_topics) {
    return Status::InvalidArgument("scrub topic out of range");
  }
  const IndexMeta::TopicMeta& tm = meta.topics[topic];
  if (tm.theta == 0) return Status::OK();  // empty topic: no files
  AdmitFn admit;
  {
    MutexLock lock(&mu_);
    admit = admit_;
  }
  if (admit && !admit(topic)) {
    MutexLock lock(&mu_);
    ++stats_.topics_skipped_breaker;
    return Status::OK();
  }

  Status detected;
  auto run = [&](Status (IndexScrubber::*verify)(TopicId)) -> Status {
    const Status s =
        RunUnit([this, verify, topic] { return (this->*verify)(topic); });
    if (s.code() == StatusCode::kCorruption) {
      detected = s;
      return Status::OK();  // stop verifying, go repair
    }
    return s;  // kIOError etc.: surface without quarantining
  };
  if (meta.has_rr) {
    KBTIM_RETURN_IF_ERROR(run(&IndexScrubber::VerifyRrFile));
    if (detected.ok()) {
      KBTIM_RETURN_IF_ERROR(run(&IndexScrubber::VerifyListsFile));
    }
  }
  if (detected.ok() && meta.has_irr) {
    KBTIM_RETURN_IF_ERROR(run(&IndexScrubber::VerifyIrrFile));
  }

  if (detected.ok()) {
    MutexLock lock(&mu_);
    ++stats_.topics_scrubbed;
    return Status::OK();
  }
  KBTIM_LOG(Warning) << "scrubber detected corruption in topic " << topic
                     << ": " << detected.ToString();
  if (!options_.repair) return detected;
  return QuarantineAndRebuild(topic);
}

Status IndexScrubber::QuarantineAndRebuild(TopicId topic) {
  namespace fs = std::filesystem;
  const std::string& dir = cache_->dir();
  {
    MutexLock lock(&mu_);
    ++stats_.quarantines;
  }
  for (const std::string& path :
       {RrFileName(dir, topic), ListsFileName(dir, topic),
        IrrFileName(dir, topic)}) {
    std::error_code ec;
    if (!fs::exists(path, ec)) continue;
    fs::rename(path, path + ".quarantine", ec);
    if (ec) {
      return Status::IOError("quarantine rename failed: " + path + ": " +
                             ec.message());
    }
  }
  // Drop cached state now: open handles kept the renamed files readable,
  // and any decoded block from them is suspect.
  cache_->InvalidateTopic(topic);

  RebuildFn rebuild;
  {
    MutexLock lock(&mu_);
    rebuild = rebuild_;
  }
  if (!rebuild) {
    // Isolation without repair: future opens fail fast (file gone) and
    // the operator finds the bytes in *.quarantine for forensics.
    return Status::Corruption(
        "corrupt topic quarantined; no rebuilder configured (topic " +
        std::to_string(topic) + ")");
  }
  if (Status s = rebuild(topic); !s.ok()) {
    MutexLock lock(&mu_);
    ++stats_.rebuild_failures;
    return s;
  }
  cache_->InvalidateTopic(topic);  // rebuilt bytes, fresh handles

  // Heal must be provable: re-verify the published files before counting
  // the rebuild as a success.
  const IndexMeta& meta = cache_->meta();
  Status verify;
  if (meta.has_rr) verify = VerifyRrFile(topic);
  if (verify.ok() && meta.has_rr) verify = VerifyListsFile(topic);
  if (verify.ok() && meta.has_irr) verify = VerifyIrrFile(topic);
  if (!verify.ok()) {
    MutexLock lock(&mu_);
    ++stats_.rebuild_failures;
    return verify;
  }
  {
    MutexLock lock(&mu_);
    ++stats_.rebuilds;
    ++stats_.topics_scrubbed;
  }
  KBTIM_LOG(Info) << "scrubber quarantined and rebuilt topic " << topic;
  return Status::OK();
}

Status IndexScrubber::ScrubPass() {
  Status first_bad;
  const uint32_t num_topics = cache_->meta().num_topics;
  for (TopicId w = 0; w < num_topics; ++w) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (Status s = ScrubTopic(w); !s.ok() && first_bad.ok()) {
      first_bad = s;
    }
  }
  MutexLock lock(&mu_);
  ++stats_.passes;
  return first_bad;
}

void IndexScrubber::Start() {
  MutexLock lock(&lifecycle_mu_);
  if (thread_.joinable()) return;
  stop_.store(false);
  thread_ = std::thread([this] {
    uint32_t rounds = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      KBTIM_IGNORE_STATUS(ScrubPass());  // outcomes are in the counters
      if (options_.max_rounds != 0 && ++rounds >= options_.max_rounds) {
        break;
      }
      // Idle between passes, in small slices so Stop() stays responsive.
      uint32_t slept = 0;
      while (slept < options_.round_idle_ms &&
             !stop_.load(std::memory_order_relaxed)) {
        const uint32_t slice = std::min<uint32_t>(
            10, options_.round_idle_ms - slept);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        slept += slice;
      }
    }
  });
}

void IndexScrubber::Stop() {
  // stop_ flips under lifecycle_mu_ so a Stop that loses the race with a
  // concurrent Start still stops the thread that Start just launched
  // (ordering the store after Start's stop_.store(false)).
  MutexLock lock(&lifecycle_mu_);
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

}  // namespace kbtim
