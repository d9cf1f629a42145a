#include "index/index_verifier.h"

#include <unordered_map>
#include <vector>

#include "coverage/rr_collection.h"
#include "graph/graph.h"
#include "index/index_format.h"
#include "storage/block_file.h"
#include "storage/pfor_codec.h"
#include "storage/varint.h"

// NOTE: headers, directories and checksums are parsed through index_format,
// as every reader parses them, so all of them refuse a damaged layout. A
// bug shared by writer and parser cannot hide there either:
// tests/index/index_layout_test.cc pins every offset against a committed
// index, outside this code. What the verifier adds is independent of the
// readers: payloads decode through the generic codec path (IntCodec),
// not the cache's kernels, and the checks cross files — the RR and lists
// membership hashes, the IP map against list heads, IR coverage and
// content against rr_<w>.dat, and θ_w and δ against the meta.

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

/// Reads all of `path`; its first `preamble` bytes (the length the meta
/// records) must be present.
Status ReadIndexFile(const std::string& path, uint64_t preamble, TopicId w,
                     std::string* buf) {
  KBTIM_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  KBTIM_RETURN_IF_ERROR(file->Read(0, file->size(), buf));
  if (preamble > buf->size()) {
    return Corrupt("file shorter than its preamble: " + path, w);
  }
  return Status::OK();
}

struct RrFileSummary {
  uint64_t membership_hash = 0;  // Σ hash(vertex, rr)
  uint64_t membership_count = 0;
  uint64_t content_hash = 0;  // Σ hash(rr, position/member)
};

Status VerifyRrFile(const std::string& path, const IndexMeta& meta,
                    TopicId w, RrFileSummary* summary,
                    IndexVerification* stats, CrcTally* crcs) {
  std::string buf;
  const uint64_t preamble = meta.topics[w].rr_preamble;
  KBTIM_RETURN_IF_ERROR(ReadIndexFile(path, preamble, w, &buf));
  const std::string_view bytes(buf);
  KBTIM_ASSIGN_OR_RETURN(
      RrPreamble rr,
      ParseRrPreamble(bytes.substr(0, preamble), bytes.size(), w, meta.codec,
                      meta.topics[w].theta, path, crcs));
  const uint64_t count = rr.header.count;
  KBTIM_RETURN_IF_ERROR(
      CheckRrPages(bytes.substr(preamble), rr.page_crcs, path, crcs));
  const std::vector<uint64_t>& offsets = rr.offsets;
  const auto codec = MakeCodec(meta.codec);
  std::vector<uint32_t> members;
  for (uint64_t i = 0; i < count; ++i) {
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
                       IndexVerification* stats, CrcTally* crcs) {
  std::string buf;
  KBTIM_RETURN_IF_ERROR(ReadIndexFile(path, 0, w, &buf));
  KBTIM_ASSIGN_OR_RETURN(ListsFile lists,
                         ParseListsFile(buf, w, meta.codec, path, crcs));
  const uint64_t num_entries = lists.header.num_entries;
  const auto codec = MakeCodec(meta.codec);
  const char* p = lists.payload.data();
  const char* limit = p + lists.payload.size();
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
                     const RrFileSummary* rr, IndexVerification* stats,
                     CrcTally* crcs) {
  std::string buf;
  const uint64_t preamble = meta.topics[w].irr_preamble;
  KBTIM_RETURN_IF_ERROR(ReadIndexFile(path, preamble, w, &buf));
  const std::string_view bytes(buf);
  KBTIM_ASSIGN_OR_RETURN(
      IrrPreamble irr,
      ParseIrrPreamble(bytes.substr(0, preamble), bytes.size(), w, meta.codec,
                       meta.topics[w].theta, path, crcs));
  const uint64_t num_users = irr.header.num_users;
  const uint64_t theta = irr.header.theta;
  if (irr.header.delta != meta.partition_size) {
    return Corrupt("irr partition size mismatch with meta", w);
  }
  if (lists != nullptr && num_users != lists->num_users) {
    return Corrupt("irr user count disagrees with lists file", w);
  }

  // IP map: exactly num_users entries fill it.
  const char* p = irr.ip_map.data();
  const char* limit = p + irr.ip_map.size();
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
  if (p != limit) return Corrupt("irr IP map trailing bytes", w);
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

  uint64_t expected_offset = preamble;
  uint64_t users_seen = 0, sets_seen = 0;
  uint32_t prev_min_len = ~0u;
  const auto codec = MakeCodec(meta.codec);
  std::unordered_map<VertexId, char> seen_users;
  std::vector<char> seen_sets(theta, 0);
  uint64_t content_hash = 0;
  std::vector<uint32_t> ids;

  // ParseIrrPreamble bounded every partition by the file.
  for (const IrrPartitionInfo& info : irr.directory) {
    if (info.offset != expected_offset) {
      return Corrupt("irr partition offset mismatch", w);
    }
    if (info.max_list_len > prev_min_len) {
      return Corrupt("irr partitions not ordered by list length", w);
    }
    prev_min_len = info.min_list_len;
    KBTIM_RETURN_IF_ERROR(CheckCrc(bytes.substr(info.offset, info.length),
                                   info.crc, "irr partition", path, crcs));
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
  CrcTally crcs;
  for (TopicId w = 0; w < meta.num_topics; ++w) {
    if (meta.topics[w].theta == 0) continue;
    RrFileSummary rr_summary;
    ListsFileSummary lists_summary;
    const bool has_rr = meta.has_rr;
    if (has_rr) {
      KBTIM_RETURN_IF_ERROR(VerifyRrFile(RrFileName(dir, w), meta, w,
                                         &rr_summary, &stats, &crcs));
      KBTIM_RETURN_IF_ERROR(VerifyListsFile(ListsFileName(dir, w), meta, w,
                                            &lists_summary, &stats, &crcs));
      if (rr_summary.membership_count != lists_summary.membership_count ||
          rr_summary.membership_hash != lists_summary.membership_hash) {
        return Corrupt("rr file and inverted lists disagree", w);
      }
    }
    if (meta.has_irr) {
      KBTIM_RETURN_IF_ERROR(
          VerifyIrrFile(IrrFileName(dir, w), meta, w,
                        has_rr ? &lists_summary : nullptr,
                        has_rr ? &rr_summary : nullptr, &stats, &crcs));
    }
    ++stats.topics_checked;
  }
  stats.checksums_verified = crcs.checks;
  return stats;
}

}  // namespace kbtim
