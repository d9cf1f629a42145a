#include "index/index_verifier.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "coverage/rr_collection.h"
#include "graph/graph.h"
#include "index/index_format.h"
#include "storage/block_file.h"
#include "storage/crc32c.h"
#include "storage/pfor_codec.h"
#include "storage/varint.h"

// NOTE: the verifier deliberately re-implements the file parsing instead of
// reusing the query-path readers, so that a bug shared by writer and reader
// cannot hide from it. Only the CRC32C kernel itself is shared — it is
// pinned by known-answer vectors in tests/storage/crc32c_test.cc.

namespace kbtim {
namespace {

uint64_t PairHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0xD1342543DE82EF95ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

Status Corrupt(const std::string& what, TopicId w) {
  return Status::Corruption(what + " (topic " + std::to_string(w) + ")");
}

uint32_t LoadFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Recomputes one stored masked CRC32C; counts it when it matches.
Status CheckCrc(const char* data, uint64_t n, uint32_t stored_masked,
                const std::string& what, TopicId w,
                IndexVerification* stats) {
  if (crc32c::Mask(crc32c::Value(data, n)) != stored_masked) {
    return Corrupt(what + " checksum mismatch", w);
  }
  ++stats->checksums_verified;
  return Status::OK();
}

struct RrFileSummary {
  uint64_t membership_hash = 0;  // Σ hash(vertex, rr)
  uint64_t membership_count = 0;
  uint64_t content_hash = 0;  // Σ hash(rr, position/member)
};

Status VerifyRrFile(const std::string& path, const IndexMeta& meta,
                    TopicId w, RrFileSummary* summary,
                    IndexVerification* stats) {
  KBTIM_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  std::string buf;
  KBTIM_RETURN_IF_ERROR(file->Read(0, file->size(), &buf));
  if (buf.size() < 4 || std::memcmp(buf.data(), "KBR2", 4) != 0) {
    return Corrupt("rr file bad magic", w);
  }
  const uint64_t kHeader = 29;
  if (buf.size() < kHeader) return Corrupt("rr file header truncated", w);
  uint32_t topic = 0;
  uint64_t count = 0, num_pages = 0;
  std::memcpy(&topic, buf.data() + 4, 4);
  std::memcpy(&count, buf.data() + 8, 8);
  const auto codec_kind = static_cast<CodecKind>(buf[16]);
  std::memcpy(&num_pages, buf.data() + 17, 8);
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), 25, LoadFixed32(buf.data() + 25),
                                 "rr header", w, stats));
  if (topic != w) return Corrupt("rr file topic mismatch", w);
  if (codec_kind != meta.codec) return Corrupt("rr file codec mismatch", w);
  if (count != meta.topics[w].theta) {
    return Corrupt("rr file count != theta_w", w);
  }
  const uint64_t dir_size = (count + 1) * sizeof(uint64_t);
  const uint64_t preamble = kHeader + dir_size + 4 + num_pages * 4;
  if (buf.size() < preamble) {
    return Corrupt("rr file directory truncated", w);
  }
  std::vector<uint64_t> offsets(count + 1);
  std::memcpy(offsets.data(), buf.data() + kHeader, dir_size);
  if (offsets[0] != preamble) {
    return Corrupt("rr file payload does not start after directory", w);
  }
  if (offsets[count] != buf.size()) {
    return Corrupt("rr file directory does not end at EOF", w);
  }
  if (meta.topics[w].rr_preamble != preamble) {
    return Corrupt("rr preamble length disagrees with meta", w);
  }
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data() + kHeader, dir_size,
                                 LoadFixed32(buf.data() + kHeader + dir_size),
                                 "rr directory", w, stats));
  const uint64_t payload_size = buf.size() - preamble;
  if (num_pages != (payload_size + kRrCrcPageSize - 1) / kRrCrcPageSize) {
    return Corrupt("rr page count disagrees with payload size", w);
  }
  const char* crcs = buf.data() + kHeader + dir_size + 4;
  for (uint64_t page = 0; page < num_pages; ++page) {
    const uint64_t begin = page * kRrCrcPageSize;
    const uint64_t end =
        std::min<uint64_t>(payload_size, begin + kRrCrcPageSize);
    KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data() + preamble + begin, end - begin,
                                   LoadFixed32(crcs + page * 4), "rr page", w,
                                   stats));
  }
  const auto codec = MakeCodec(codec_kind);
  std::vector<uint32_t> members;
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Corrupt("rr file offsets not monotone", w);
    }
    KBTIM_RETURN_IF_ERROR(codec->Decode(
        std::string_view(buf.data() + offsets[i],
                         offsets[i + 1] - offsets[i]),
        &members));
    DeltaDecode(&members);
    for (size_t j = 0; j < members.size(); ++j) {
      if (members[j] >= meta.num_vertices) {
        return Corrupt("rr member vertex out of range", w);
      }
      if (j > 0 && members[j] <= members[j - 1]) {
        return Corrupt("rr set members not strictly ascending", w);
      }
      summary->membership_hash += PairHash(members[j], i);
      ++summary->membership_count;
      summary->content_hash += PairHash(i, members[j]);
    }
    ++stats->rr_sets_checked;
  }
  return Status::OK();
}

struct ListsFileSummary {
  uint64_t membership_hash = 0;
  uint64_t membership_count = 0;
  uint64_t num_users = 0;
  // vertex -> first (smallest) rr id, for IP cross-checks.
  std::unordered_map<VertexId, RrId> head;
};

Status VerifyListsFile(const std::string& path, const IndexMeta& meta,
                       TopicId w, ListsFileSummary* summary,
                       IndexVerification* stats) {
  KBTIM_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  std::string buf;
  KBTIM_RETURN_IF_ERROR(file->Read(0, file->size(), &buf));
  if (buf.size() < 4 || std::memcmp(buf.data(), "KBL2", 4) != 0) {
    return Corrupt("lists file bad magic", w);
  }
  const uint64_t kHeader = 25;
  if (buf.size() < kHeader) return Corrupt("lists file header truncated", w);
  uint32_t topic = 0;
  uint64_t num_entries = 0;
  std::memcpy(&topic, buf.data() + 4, 4);
  std::memcpy(&num_entries, buf.data() + 8, 8);
  const auto codec_kind = static_cast<CodecKind>(buf[16]);
  if (topic != w || codec_kind != meta.codec) {
    return Corrupt("lists file header mismatch", w);
  }
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), 21, LoadFixed32(buf.data() + 21),
                                 "lists header", w, stats));
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data() + kHeader, buf.size() - kHeader,
                                 LoadFixed32(buf.data() + 17), "lists payload",
                                 w, stats));
  const auto codec = MakeCodec(codec_kind);
  const char* p = buf.data() + kHeader;
  const char* limit = buf.data() + buf.size();
  VertexId prev = 0;
  std::vector<uint32_t> ids;
  for (uint64_t e = 0; e < num_entries; ++e) {
    uint32_t dv = 0;
    uint64_t len = 0;
    p = GetVarint32(p, limit, &dv);
    if (p == nullptr) return Corrupt("lists entry truncated", w);
    if (e > 0 && dv == 0) {
      return Corrupt("lists vertices not strictly ascending", w);
    }
    p = GetVarint64(p, limit, &len);
    if (p == nullptr || p + len > limit) {
      return Corrupt("lists payload truncated", w);
    }
    const VertexId v = prev + dv;
    prev = v;
    if (v >= meta.num_vertices) {
      return Corrupt("lists vertex out of range", w);
    }
    KBTIM_RETURN_IF_ERROR(codec->Decode(std::string_view(p, len), &ids));
    p += len;
    DeltaDecode(&ids);
    if (ids.empty()) return Corrupt("empty inverted list stored", w);
    for (size_t j = 0; j < ids.size(); ++j) {
      if (ids[j] >= meta.topics[w].theta) {
        return Corrupt("inverted list rr id >= theta_w", w);
      }
      if (j > 0 && ids[j] <= ids[j - 1]) {
        return Corrupt("inverted list not strictly ascending", w);
      }
      summary->membership_hash += PairHash(v, ids[j]);
      ++summary->membership_count;
    }
    summary->head.emplace(v, ids.front());
    ++stats->inverted_entries_checked;
  }
  if (p != limit) return Corrupt("lists file trailing bytes", w);
  summary->num_users = num_entries;
  return Status::OK();
}

Status VerifyIrrFile(const std::string& path, const IndexMeta& meta,
                     TopicId w, const ListsFileSummary* lists,
                     const RrFileSummary* rr, IndexVerification* stats) {
  KBTIM_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  std::string buf;
  KBTIM_RETURN_IF_ERROR(file->Read(0, file->size(), &buf));
  if (buf.size() < 4 || std::memcmp(buf.data(), "KBI2", 4) != 0) {
    return Corrupt("irr file bad magic", w);
  }
  const uint64_t kHeader = 41;
  if (buf.size() < kHeader) return Corrupt("irr file header truncated", w);
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), 37, LoadFixed32(buf.data() + 37),
                                 "irr header", w, stats));
  uint32_t topic = 0, delta = 0;
  uint64_t num_users = 0, num_partitions = 0, theta = 0;
  std::memcpy(&topic, buf.data() + 4, 4);
  std::memcpy(&num_users, buf.data() + 8, 8);
  std::memcpy(&num_partitions, buf.data() + 16, 8);
  std::memcpy(&delta, buf.data() + 24, 4);
  const auto codec_kind = static_cast<CodecKind>(buf[28]);
  std::memcpy(&theta, buf.data() + 29, 8);
  if (topic != w || codec_kind != meta.codec) {
    return Corrupt("irr header mismatch", w);
  }
  if (theta != meta.topics[w].theta) {
    return Corrupt("irr theta mismatch with meta", w);
  }
  if (delta != meta.partition_size) {
    return Corrupt("irr partition size mismatch with meta", w);
  }
  if (lists != nullptr && num_users != lists->num_users) {
    return Corrupt("irr user count disagrees with lists file", w);
  }

  // IP map.
  const char* p = buf.data() + kHeader;
  const char* limit = buf.data() + buf.size();
  std::unordered_map<VertexId, RrId> ip;
  ip.reserve(num_users * 2);
  VertexId prev = 0;
  for (uint64_t i = 0; i < num_users; ++i) {
    uint32_t dv = 0, first = 0;
    p = GetVarint32(p, limit, &dv);
    if (p == nullptr) return Corrupt("irr IP truncated", w);
    p = GetVarint32(p, limit, &first);
    if (p == nullptr) return Corrupt("irr IP truncated", w);
    prev += dv;
    ip.emplace(prev, first);
  }
  if (lists != nullptr) {
    for (const auto& [v, head] : lists->head) {
      const auto it = ip.find(v);
      if (it == ip.end()) return Corrupt("irr IP missing user", w);
      if (it->second != head) {
        return Corrupt("irr IP first-occurrence disagrees with list head",
                       w);
      }
    }
  }

  // Partition directory (entries carry a per-partition CRC and the
  // preamble ends with a CRC of everything before it).
  const uint64_t entry_size = 36;
  const uint64_t dir_and_crc = num_partitions * entry_size + 4;
  if (meta.topics[w].irr_preamble !=
      static_cast<uint64_t>(p - buf.data()) + dir_and_crc) {
    return Corrupt("irr preamble length disagrees with meta", w);
  }
  std::vector<IrrPartitionInfo> dir(num_partitions);
  if (p + dir_and_crc > limit) {
    return Corrupt("irr directory truncated", w);
  }
  for (auto& info : dir) {
    std::memcpy(&info.offset, p, 8);
    std::memcpy(&info.length, p + 8, 8);
    std::memcpy(&info.num_users, p + 16, 4);
    std::memcpy(&info.num_sets, p + 20, 4);
    std::memcpy(&info.max_list_len, p + 24, 4);
    std::memcpy(&info.min_list_len, p + 28, 4);
    info.crc = LoadFixed32(p + 32);
    p += entry_size;
  }
  KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data(), p - buf.data(), LoadFixed32(p),
                                 "irr preamble", w, stats));
  p += 4;
  uint64_t expected_offset = static_cast<uint64_t>(p - buf.data());
  uint64_t users_seen = 0, sets_seen = 0;
  uint32_t prev_min_len = ~0u;
  const auto codec = MakeCodec(codec_kind);
  std::unordered_map<VertexId, char> seen_users;
  std::vector<char> seen_sets(theta, 0);
  uint64_t content_hash = 0;
  std::vector<uint32_t> ids;

  for (uint64_t pi = 0; pi < num_partitions; ++pi) {
    const IrrPartitionInfo& info = dir[pi];
    if (info.offset != expected_offset) {
      return Corrupt("irr partition offset mismatch", w);
    }
    if (info.offset + info.length > buf.size()) {
      return Corrupt("irr partition overruns file", w);
    }
    if (info.max_list_len > prev_min_len) {
      return Corrupt("irr partitions not ordered by list length", w);
    }
    prev_min_len = info.min_list_len;
    KBTIM_RETURN_IF_ERROR(CheckCrc(buf.data() + info.offset, info.length,
                                   info.crc, "irr partition", w, stats));
    const char* q = buf.data() + info.offset;
    const char* qlimit = q + info.length;
    // IL^p
    for (uint32_t u = 0; u < info.num_users; ++u) {
      uint32_t v = 0;
      uint64_t len = 0;
      q = GetVarint32(q, qlimit, &v);
      if (q == nullptr) return Corrupt("irr IL truncated", w);
      q = GetVarint64(q, qlimit, &len);
      if (q == nullptr || q + len > qlimit) {
        return Corrupt("irr IL truncated", w);
      }
      KBTIM_RETURN_IF_ERROR(codec->Decode(std::string_view(q, len), &ids));
      q += len;
      DeltaDecode(&ids);
      if (ids.size() > info.max_list_len ||
          ids.size() < info.min_list_len) {
        return Corrupt("irr IL list length outside directory bounds", w);
      }
      if (!seen_users.emplace(v, 1).second) {
        return Corrupt("irr user appears in two partitions", w);
      }
      const auto it = ip.find(v);
      if (it == ip.end() || it->second != ids.front()) {
        return Corrupt("irr IL head disagrees with IP", w);
      }
      ++users_seen;
    }
    // IR^p
    uint32_t num_sets = 0;
    q = GetVarint32(q, qlimit, &num_sets);
    if (q == nullptr) return Corrupt("irr IR truncated", w);
    if (num_sets != info.num_sets) {
      return Corrupt("irr IR count disagrees with directory", w);
    }
    RrId rr_id = 0;
    for (uint32_t s = 0; s < num_sets; ++s) {
      uint32_t drr = 0;
      uint64_t len = 0;
      q = GetVarint32(q, qlimit, &drr);
      if (q == nullptr) return Corrupt("irr IR truncated", w);
      q = GetVarint64(q, qlimit, &len);
      if (q == nullptr || q + len > qlimit) {
        return Corrupt("irr IR truncated", w);
      }
      rr_id += drr;
      if (rr_id >= theta) return Corrupt("irr IR rr id >= theta", w);
      if (seen_sets[rr_id]) {
        return Corrupt("irr rr set assigned to two partitions", w);
      }
      seen_sets[rr_id] = 1;
      KBTIM_RETURN_IF_ERROR(codec->Decode(std::string_view(q, len), &ids));
      q += len;
      DeltaDecode(&ids);
      for (uint32_t m : ids) content_hash += PairHash(rr_id, m);
      ++sets_seen;
    }
    if (q != qlimit) return Corrupt("irr partition trailing bytes", w);
    expected_offset += info.length;
    ++stats->partitions_checked;
  }
  if (expected_offset != buf.size()) {
    return Corrupt("irr file trailing bytes after partitions", w);
  }
  if (users_seen != num_users) {
    return Corrupt("irr partitions do not cover all users", w);
  }
  if (sets_seen != theta) {
    return Corrupt("irr partitions do not cover all rr sets", w);
  }
  if (rr != nullptr && content_hash != rr->content_hash) {
    return Corrupt("irr IR contents disagree with rr file", w);
  }
  return Status::OK();
}

}  // namespace

StatusOr<IndexVerification> VerifyIndex(const std::string& dir) {
  KBTIM_ASSIGN_OR_RETURN(IndexMeta meta, ReadIndexMeta(MetaFileName(dir)));
  IndexVerification stats;
  stats.format_version = meta.format_version;
  for (TopicId w = 0; w < meta.num_topics; ++w) {
    if (meta.topics[w].theta == 0) continue;
    RrFileSummary rr_summary;
    ListsFileSummary lists_summary;
    const bool has_rr = meta.has_rr;
    if (has_rr) {
      KBTIM_RETURN_IF_ERROR(VerifyRrFile(RrFileName(dir, w), meta, w,
                                         &rr_summary, &stats));
      KBTIM_RETURN_IF_ERROR(VerifyListsFile(ListsFileName(dir, w), meta, w,
                                            &lists_summary, &stats));
      if (rr_summary.membership_count != lists_summary.membership_count ||
          rr_summary.membership_hash != lists_summary.membership_hash) {
        return Corrupt("rr file and inverted lists disagree", w);
      }
    }
    if (meta.has_irr) {
      KBTIM_RETURN_IF_ERROR(
          VerifyIrrFile(IrrFileName(dir, w), meta, w,
                        has_rr ? &lists_summary : nullptr,
                        has_rr ? &rr_summary : nullptr, &stats));
    }
    ++stats.topics_checked;
  }
  return stats;
}

}  // namespace kbtim
