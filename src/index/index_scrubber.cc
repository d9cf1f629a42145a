#include "index/index_scrubber.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>

#include "common/logging.h"
#include "storage/block_file.h"

namespace kbtim {

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

Status IndexScrubber::Account(const CrcTally& tally, Status status) {
  MutexLock lock(&mu_);
  stats_.blocks_scrubbed += tally.checks;
  stats_.bytes_scrubbed += tally.bytes;
  stats_.crc_failures += tally.failures;
  return status;
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
  const IndexMeta& meta = cache_->meta();
  KBTIM_ASSIGN_OR_RETURN(auto file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(
      std::string_view head,
      ReadPreamble(*file, meta.topics[topic].rr_preamble, &scratch));
  CrcTally tally;
  auto parsed = ParseRrPreamble(head, file->size(), topic, meta.codec,
                                meta.topics[topic].theta, path, &tally);
  if (!parsed.ok()) return Account(tally, parsed.status());
  std::string payload_scratch;
  auto payload = file->ReadOrCopy(head.size(), file->size() - head.size(),
                                  &payload_scratch);
  if (!payload.ok()) return Account(tally, payload.status());
  return Account(tally,
                 CheckRrPages(*payload, parsed->page_crcs, path, &tally));
}

Status IndexScrubber::VerifyListsFile(TopicId topic) {
  const std::string path = ListsFileName(cache_->dir(), topic);
  KBTIM_ASSIGN_OR_RETURN(auto file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(std::string_view buf,
                         file->ReadOrCopy(0, file->size(), &scratch));
  CrcTally tally;
  return Account(tally, ParseListsFile(buf, topic, cache_->meta().codec, path,
                                       &tally)
                            .status());
}

Status IndexScrubber::VerifyIrrFile(TopicId topic) {
  const std::string path = IrrFileName(cache_->dir(), topic);
  const IndexMeta& meta = cache_->meta();
  KBTIM_ASSIGN_OR_RETURN(auto file,
                         RandomAccessFile::Open(path, /*prefer_mmap=*/true));
  std::string scratch;
  KBTIM_ASSIGN_OR_RETURN(
      std::string_view pre,
      ReadPreamble(*file, meta.topics[topic].irr_preamble, &scratch));
  CrcTally tally;
  auto parsed = ParseIrrPreamble(pre, file->size(), topic, meta.codec,
                                 meta.topics[topic].theta, path, &tally);
  if (!parsed.ok()) return Account(tally, parsed.status());
  Status status;
  for (const IrrPartitionInfo& info : parsed->directory) {
    std::string part_scratch;
    auto part = file->ReadOrCopy(info.offset, info.length, &part_scratch);
    status = part.ok() ? CheckCrc(*part, info.crc, "IRR partition", path,
                                  &tally)
                       : part.status();
    if (!status.ok()) break;
  }
  return Account(tally, status);
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
