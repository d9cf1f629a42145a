#include "index/index_format.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "storage/block_file.h"
#include "storage/crc32c.h"
#include "storage/varint.h"

namespace kbtim {
namespace {

constexpr char kMetaMagic[4] = {'K', 'B', 'I', 'X'};
constexpr char kRrMagic[4] = {'K', 'B', 'R', '2'};
constexpr char kListsMagic[4] = {'K', 'B', 'L', '2'};
constexpr char kIrrMagic[4] = {'K', 'B', 'I', '2'};

/// Header sizes, each ending in its masked header CRC u32 (the CRC covers
/// the header bytes before it).
constexpr size_t kRrHeaderSize = 29;
constexpr size_t kListsHeaderSize = 25;
constexpr size_t kIrrHeaderSize = 41;

/// IRR partition directory entry size (ends in the partition CRC u32).
constexpr size_t kIrrDirEntrySize = 36;

/// Appends v's bytes (hosts are little-endian).
template <typename T>
void PutFixed(std::string* dst, T v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Reads a T at *p and advances *p; the caller has checked the length.
template <typename T>
T Take(const char** p) {
  T v;
  std::memcpy(&v, *p, sizeof(v));
  *p += sizeof(v);
  return v;
}

template <typename T>
bool GetFixed(const char** p, const char* limit, T* v) {
  if (*p + sizeof(T) > limit) return false;
  *v = Take<T>(p);
  return true;
}

uint32_t MaskedCrc(std::string_view bytes) {
  return crc32c::Mask(crc32c::Value(bytes.data(), bytes.size()));
}

/// Appends the masked CRC of everything in *dst.
void SealCrc(std::string* dst) { PutFixed<uint32_t>(dst, MaskedCrc(*dst)); }

/// The masked CRC stored at `p`.
uint32_t StoredCrc(const char* p) { return Take<uint32_t>(&p); }

Status Corrupt(const char* what, const std::string& path) {
  return Status::Corruption(std::string(what) + ": " + path);
}

}  // namespace

const char* ThetaBoundKindName(ThetaBoundKind kind) {
  switch (kind) {
    case ThetaBoundKind::kConservative:
      return "theta_hat";
    case ThetaBoundKind::kCompact:
      return "theta";
  }
  return "?";
}

Status WriteIndexMeta(const IndexMeta& meta, const std::string& path) {
  if (meta.format_version != kIndexFormatV2) {
    return Status::InvalidArgument("unsupported meta format version");
  }
  std::string buf;
  buf.append(kMetaMagic, 4);
  PutFixed<uint32_t>(&buf, meta.format_version);
  buf.push_back(static_cast<char>(meta.model));
  buf.push_back(static_cast<char>(meta.codec));
  buf.push_back(static_cast<char>(meta.bound));
  buf.push_back(static_cast<char>((meta.has_rr ? 1 : 0) |
                                  (meta.has_irr ? 2 : 0)));
  PutFixed<double>(&buf, meta.epsilon);
  PutFixed<uint32_t>(&buf, meta.max_k);
  PutFixed<uint32_t>(&buf, meta.partition_size);
  PutFixed<uint32_t>(&buf, meta.num_vertices);
  PutFixed<uint32_t>(&buf, meta.num_topics);
  if (meta.topics.size() != meta.num_topics) {
    return Status::InvalidArgument("meta topic table size mismatch");
  }
  for (const auto& t : meta.topics) {
    PutFixed<uint64_t>(&buf, t.theta);
    PutFixed<double>(&buf, t.tf_sum);
    PutFixed<double>(&buf, t.phi);
    PutFixed<double>(&buf, t.opt_bound);
    PutFixed<uint64_t>(&buf, t.irr_preamble);
    PutFixed<uint64_t>(&buf, t.rr_preamble);
  }
  SealCrc(&buf);
  // Meta is written last and published atomically: a directory either has
  // a complete, consistent meta or none at all.
  KBTIM_ASSIGN_OR_RETURN(auto writer, FileWriter::CreateAtomic(path));
  KBTIM_RETURN_IF_ERROR(writer->Append(buf));
  return writer->Close();
}

StatusOr<IndexMeta> ReadIndexMeta(const std::string& path) {
  KBTIM_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  std::string buf;
  KBTIM_RETURN_IF_ERROR(file->Read(0, file->size(), &buf));
  const char* p = buf.data();
  const char* limit = buf.data() + buf.size();
  if (buf.size() < 8 || std::memcmp(p, kMetaMagic, 4) != 0) {
    return Status::Corruption("bad index meta magic: " + path);
  }
  p += 4;
  uint32_t version = 0;
  if (!GetFixed(&p, limit, &version) || version != kIndexFormatV2) {
    return Status::Corruption(
        "index meta version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(kIndexFormatV2) + "); rebuild the index: " + path);
  }
  // The file's last 4 bytes are a masked CRC over everything before it.
  if (buf.size() < 12) return Status::Corruption("truncated meta: " + path);
  limit -= 4;
  const uint32_t stored = StoredCrc(limit);
  const uint32_t actual =
      crc32c::Value(buf.data(), buf.size() - sizeof(stored));
  if (crc32c::Unmask(stored) != actual) {
    return Status::Corruption("index meta checksum mismatch: " + path);
  }
  if (p + 4 > limit) return Status::Corruption("truncated meta: " + path);
  IndexMeta meta;
  meta.format_version = version;
  meta.model = static_cast<PropagationModel>(*p++);
  meta.codec = static_cast<CodecKind>(*p++);
  meta.bound = static_cast<ThetaBoundKind>(*p++);
  const auto flags = static_cast<uint8_t>(*p++);
  meta.has_rr = (flags & 1) != 0;
  meta.has_irr = (flags & 2) != 0;
  bool ok = GetFixed(&p, limit, &meta.epsilon) &&
            GetFixed(&p, limit, &meta.max_k) &&
            GetFixed(&p, limit, &meta.partition_size) &&
            GetFixed(&p, limit, &meta.num_vertices) &&
            GetFixed(&p, limit, &meta.num_topics);
  if (!ok) return Status::Corruption("truncated meta fields: " + path);
  meta.topics.resize(meta.num_topics);
  for (auto& t : meta.topics) {
    ok = GetFixed(&p, limit, &t.theta) && GetFixed(&p, limit, &t.tf_sum) &&
         GetFixed(&p, limit, &t.phi) && GetFixed(&p, limit, &t.opt_bound) &&
         GetFixed(&p, limit, &t.irr_preamble) &&
         GetFixed(&p, limit, &t.rr_preamble);
    if (!ok) return Status::Corruption("truncated topic table: " + path);
  }
  return meta;
}

StatusOr<QueryBudget> ComputeQueryBudget(const IndexMeta& meta,
                                         const Query& query) {
  KBTIM_RETURN_IF_ERROR(ValidateQueryShape(query, meta.num_topics));
  if (query.k > meta.max_k) {
    return Status::FailedPrecondition(
        "query k exceeds the K the index was built for");
  }
  double phi_q = 0.0;
  for (TopicId w : query.topics) {
    phi_q += meta.topics[w].phi;
  }
  if (phi_q <= 0.0) {
    return Status::FailedPrecondition(
        "no query keyword has relevance mass in the index");
  }

  // Eqn. 11: θ^Q = min θ_w / p_w over keywords with mass.
  double theta_q = -1.0;
  for (TopicId w : query.topics) {
    const auto& t = meta.topics[w];
    const double pw = t.phi / phi_q;
    if (pw <= 0.0 || t.theta == 0) continue;
    const double budget = static_cast<double>(t.theta) / pw;
    if (theta_q < 0.0 || budget < theta_q) theta_q = budget;
  }
  if (theta_q < 0.0) {
    return Status::FailedPrecondition(
        "no query keyword has stored RR sets");
  }
  // RR ids and the greedy's counts are 32-bit, and a vertex's count is at
  // most Σ θ^Q_w. θ^Q is checked first, which also keeps the casts below
  // in range.
  constexpr uint64_t kMaxSets = std::numeric_limits<uint32_t>::max();
  auto too_large = [] {
    return Status::InvalidArgument(
        "query needs more than the 2^32-1 RR sets one query can use");
  };
  if (theta_q > static_cast<double>(kMaxSets)) return too_large();

  QueryBudget budget;
  budget.theta_q = static_cast<uint64_t>(theta_q);
  budget.phi_q = phi_q;
  budget.per_keyword.reserve(query.topics.size());
  uint64_t total = 0;
  for (TopicId w : query.topics) {
    const auto& t = meta.topics[w];
    const double pw = t.phi / phi_q;
    uint64_t tw = 0;
    if (pw > 0.0 && t.theta > 0) {
      tw = std::min<uint64_t>(
          t.theta, static_cast<uint64_t>(theta_q * pw));
      tw = std::max<uint64_t>(tw, 1);
    }
    budget.per_keyword.emplace_back(w, tw);
    total += tw;
  }
  if (total > kMaxSets) return too_large();
  return budget;
}

Status CheckCrc(std::string_view bytes, uint32_t stored_masked,
                const char* what, const std::string& path, CrcTally* tally) {
  ++tally->checks;
  tally->bytes += bytes.size();
  if (crc32c::Unmask(stored_masked) ==
      crc32c::Value(bytes.data(), bytes.size())) {
    return Status::OK();
  }
  ++tally->failures;
  return Status::Corruption(std::string(what) + " checksum mismatch: " +
                            path);
}

StatusOr<std::string_view> ReadPreamble(const RandomAccessFile& file,
                                        uint64_t meta_length,
                                        std::string* scratch) {
  if (meta_length > file.size()) {
    return Corrupt("file shorter than its preamble", file.path());
  }
  return file.ReadOrCopy(0, meta_length, scratch);
}

// ---- rr_<w>.dat ------------------------------------------------------------

std::string EncodeRrPreamble(TopicId topic, CodecKind codec,
                             std::span<const uint64_t> relative_offsets,
                             std::string_view payload) {
  const uint64_t count = relative_offsets.size() - 1;
  const uint64_t num_pages =
      (payload.size() + kRrCrcPageSize - 1) / kRrCrcPageSize;
  const uint64_t dir_size = (count + 1) * sizeof(uint64_t);
  const uint64_t preamble = kRrHeaderSize + dir_size + 4 + num_pages * 4;

  std::string out;
  out.reserve(preamble);
  out.append(kRrMagic, 4);
  PutFixed<uint32_t>(&out, topic);
  PutFixed<uint64_t>(&out, count);
  out.push_back(static_cast<char>(codec));
  PutFixed<uint64_t>(&out, num_pages);
  SealCrc(&out);
  for (const uint64_t off : relative_offsets) {
    PutFixed<uint64_t>(&out, off + preamble);
  }
  PutFixed<uint32_t>(
      &out, MaskedCrc(std::string_view(out).substr(kRrHeaderSize, dir_size)));
  for (uint64_t begin = 0; begin < payload.size(); begin += kRrCrcPageSize) {
    PutFixed<uint32_t>(&out, MaskedCrc(payload.substr(begin, kRrCrcPageSize)));
  }
  return out;
}

StatusOr<RrPreamble> ParseRrPreamble(std::string_view bytes,
                                     uint64_t file_size, TopicId topic,
                                     CodecKind codec, uint64_t theta,
                                     const std::string& path,
                                     CrcTally* tally) {
  // The smallest preamble: header, one offset, the directory CRC.
  if (bytes.size() < kRrHeaderSize + sizeof(uint64_t) + 4 ||
      bytes.size() > file_size) {
    return Corrupt("bad RR preamble length", path);
  }
  if (std::memcmp(bytes.data(), kRrMagic, 4) != 0) {
    return Corrupt("bad RR file magic", path);
  }
  constexpr size_t kHeaderCrcAt = kRrHeaderSize - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(bytes.substr(0, kHeaderCrcAt),
                                 StoredCrc(bytes.data() + kHeaderCrcAt),
                                 "RR header", path, tally));
  RrPreamble out;
  RrHeader& h = out.header;
  const char* r = bytes.data() + 4;
  h.topic = Take<uint32_t>(&r);
  h.count = Take<uint64_t>(&r);
  h.codec = static_cast<CodecKind>(Take<uint8_t>(&r));
  h.num_pages = Take<uint64_t>(&r);
  if (h.topic != topic || h.codec != codec) {
    return Corrupt("RR file header mismatch", path);
  }
  if (h.count != theta) {
    return Corrupt("RR file count differs from the meta's theta_w", path);
  }
  // Bound both counts by the bytes present before multiplying them.
  const uint64_t rest = bytes.size() - kRrHeaderSize - 4;
  if (h.count >= rest / sizeof(uint64_t) ||
      h.num_pages > rest / sizeof(uint32_t) ||
      (h.count + 1) * sizeof(uint64_t) + h.num_pages * sizeof(uint32_t) !=
          rest) {
    return Corrupt("RR preamble layout mismatch", path);
  }
  const std::string_view dir =
      bytes.substr(kRrHeaderSize, (h.count + 1) * sizeof(uint64_t));
  const char* crcs = dir.data() + dir.size();
  KBTIM_RETURN_IF_ERROR(
      CheckCrc(dir, StoredCrc(crcs), "RR directory", path, tally));
  out.offsets.resize(h.count + 1);
  std::memcpy(out.offsets.data(), dir.data(), dir.size());
  const uint64_t payload_size = file_size - bytes.size();
  if (out.offsets.front() != bytes.size() ||
      out.offsets.back() != file_size ||
      !std::is_sorted(out.offsets.begin(), out.offsets.end()) ||
      h.num_pages != (payload_size + kRrCrcPageSize - 1) / kRrCrcPageSize) {
    return Corrupt("RR directory out of bounds", path);
  }
  out.page_crcs.resize(h.num_pages);
  std::memcpy(out.page_crcs.data(), crcs + 4,
              h.num_pages * sizeof(uint32_t));
  return out;
}

Status CheckRrPages(std::string_view payload,
                    std::span<const uint32_t> page_crcs,
                    const std::string& path, CrcTally* tally) {
  if (page_crcs.size() >
      (payload.size() + kRrCrcPageSize - 1) / kRrCrcPageSize) {
    return Corrupt("RR payload shorter than its page table", path);
  }
  for (uint64_t i = 0; i < page_crcs.size(); ++i) {
    KBTIM_RETURN_IF_ERROR(
        CheckCrc(payload.substr(i * kRrCrcPageSize, kRrCrcPageSize),
                 page_crcs[i], "RR payload page", path, tally));
  }
  return Status::OK();
}

// ---- lists_<w>.dat ---------------------------------------------------------

std::string EncodeListsHeader(const ListsHeader& header,
                              std::string_view payload) {
  std::string out;
  out.append(kListsMagic, 4);
  PutFixed<uint32_t>(&out, header.topic);
  PutFixed<uint64_t>(&out, header.num_entries);
  out.push_back(static_cast<char>(header.codec));
  // The file is always read whole, so one payload CRC suffices; the
  // header CRC also covers it.
  PutFixed<uint32_t>(&out, MaskedCrc(payload));
  SealCrc(&out);
  return out;
}

StatusOr<ListsFile> ParseListsFile(std::string_view bytes, TopicId topic,
                                   CodecKind codec, const std::string& path,
                                   CrcTally* tally) {
  if (bytes.size() < kListsHeaderSize ||
      std::memcmp(bytes.data(), kListsMagic, 4) != 0) {
    return Corrupt("bad lists file magic", path);
  }
  constexpr size_t kHeaderCrcAt = kListsHeaderSize - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(bytes.substr(0, kHeaderCrcAt),
                                 StoredCrc(bytes.data() + kHeaderCrcAt),
                                 "lists header", path, tally));
  ListsFile out;
  ListsHeader& h = out.header;
  const char* r = bytes.data() + 4;
  h.topic = Take<uint32_t>(&r);
  h.num_entries = Take<uint64_t>(&r);
  h.codec = static_cast<CodecKind>(Take<uint8_t>(&r));
  const uint32_t payload_crc = Take<uint32_t>(&r);
  out.payload = bytes.substr(kListsHeaderSize);
  KBTIM_RETURN_IF_ERROR(
      CheckCrc(out.payload, payload_crc, "lists payload", path, tally));
  if (h.topic != topic || h.codec != codec) {
    return Corrupt("lists file header mismatch", path);
  }
  // Each entry is a vertex-delta varint and a length varint at least.
  if (h.num_entries > out.payload.size() / 2) {
    return Corrupt("lists count exceeds file", path);
  }
  return out;
}

// ---- irr_<w>.dat -----------------------------------------------------------

std::string EncodeIrrPreamble(const IrrHeader& header, std::string_view ip_map,
                              std::span<const IrrPartitionInfo> directory,
                              std::string_view partitions) {
  const uint64_t preamble = kIrrHeaderSize + ip_map.size() +
                            directory.size() * kIrrDirEntrySize + 4;
  std::string out;
  out.reserve(preamble);
  out.append(kIrrMagic, 4);
  PutFixed<uint32_t>(&out, header.topic);
  PutFixed<uint64_t>(&out, header.num_users);
  PutFixed<uint64_t>(&out, header.num_partitions);
  PutFixed<uint32_t>(&out, header.delta);
  out.push_back(static_cast<char>(header.codec));
  PutFixed<uint64_t>(&out, header.theta);
  SealCrc(&out);
  out.append(ip_map);
  for (const IrrPartitionInfo& info : directory) {
    PutFixed<uint64_t>(&out, info.offset + preamble);
    PutFixed<uint64_t>(&out, info.length);
    PutFixed<uint32_t>(&out, info.num_users);
    PutFixed<uint32_t>(&out, info.num_sets);
    PutFixed<uint32_t>(&out, info.max_list_len);
    PutFixed<uint32_t>(&out, info.min_list_len);
    PutFixed<uint32_t>(&out,
                       MaskedCrc(partitions.substr(info.offset, info.length)));
  }
  SealCrc(&out);
  return out;
}

StatusOr<IrrPreamble> ParseIrrPreamble(std::string_view bytes,
                                       uint64_t file_size, TopicId topic,
                                       CodecKind codec, uint64_t theta,
                                       const std::string& path,
                                       CrcTally* tally) {
  if (bytes.size() < kIrrHeaderSize + 4 || bytes.size() > file_size) {
    return Corrupt("bad IRR preamble length", path);
  }
  if (std::memcmp(bytes.data(), kIrrMagic, 4) != 0) {
    return Corrupt("bad IRR magic", path);
  }
  // Whole-preamble CRC first (covers header + IP + directory), so every
  // byte the parse below trusts has been verified; then the header's own
  // CRC (cheap, and localizes the error message).
  const size_t body_end = bytes.size() - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(bytes.substr(0, body_end),
                                 StoredCrc(bytes.data() + body_end),
                                 "IRR preamble", path, tally));
  constexpr size_t kHeaderCrcAt = kIrrHeaderSize - 4;
  KBTIM_RETURN_IF_ERROR(CheckCrc(bytes.substr(0, kHeaderCrcAt),
                                 StoredCrc(bytes.data() + kHeaderCrcAt),
                                 "IRR header", path, tally));
  IrrPreamble out;
  IrrHeader& h = out.header;
  const char* r = bytes.data() + 4;
  h.topic = Take<uint32_t>(&r);
  h.num_users = Take<uint64_t>(&r);
  h.num_partitions = Take<uint64_t>(&r);
  h.delta = Take<uint32_t>(&r);
  h.codec = static_cast<CodecKind>(Take<uint8_t>(&r));
  h.theta = Take<uint64_t>(&r);
  if (h.topic != topic || h.codec != codec) {
    return Corrupt("IRR header mismatch", path);
  }
  if (h.theta != theta) {
    return Corrupt("IRR theta differs from the meta's theta_w", path);
  }
  // The directory ends at the preamble CRC; the IP map fills the rest, and
  // each IP entry is two varints of a byte or more.
  const uint64_t rest = body_end - kIrrHeaderSize;
  if (h.num_partitions > rest / kIrrDirEntrySize) {
    return Corrupt("IRR preamble counts exceed file", path);
  }
  const uint64_t dir_size = h.num_partitions * kIrrDirEntrySize;
  out.ip_map = bytes.substr(kIrrHeaderSize, rest - dir_size);
  if (h.num_users > out.ip_map.size() / 2) {
    return Corrupt("IRR preamble counts exceed file", path);
  }
  out.directory.resize(h.num_partitions);
  const char* e = bytes.data() + body_end - dir_size;
  for (IrrPartitionInfo& info : out.directory) {
    info.offset = Take<uint64_t>(&e);
    info.length = Take<uint64_t>(&e);
    info.num_users = Take<uint32_t>(&e);
    info.num_sets = Take<uint32_t>(&e);
    info.max_list_len = Take<uint32_t>(&e);
    info.min_list_len = Take<uint32_t>(&e);
    info.crc = Take<uint32_t>(&e);
    // Every list or set entry takes two bytes or more, so these bounds
    // hold before any decoder reserves memory from the counts.
    if (info.offset < bytes.size() || info.offset > file_size ||
        info.length > file_size - info.offset ||
        info.num_users > info.length / 2 || info.num_sets > info.length / 2) {
      return Corrupt("IRR partition out of bounds", path);
    }
  }
  return out;
}

std::string MetaFileName(const std::string& dir) {
  return dir + "/index_meta.kbm";
}
std::string RrFileName(const std::string& dir, TopicId topic) {
  return dir + "/rr_" + std::to_string(topic) + ".dat";
}
std::string ListsFileName(const std::string& dir, TopicId topic) {
  return dir + "/lists_" + std::to_string(topic) + ".dat";
}
std::string IrrFileName(const std::string& dir, TopicId topic) {
  return dir + "/irr_" + std::to_string(topic) + ".dat";
}

}  // namespace kbtim
