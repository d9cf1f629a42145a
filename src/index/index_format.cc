#include "index/index_format.h"

#include <algorithm>
#include <cstring>

#include "storage/block_file.h"
#include "storage/crc32c.h"
#include "storage/varint.h"

namespace kbtim {
namespace {

constexpr char kMetaMagic[4] = {'K', 'B', 'I', 'X'};

void PutFixed32(std::string* dst, uint32_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutFixed64(std::string* dst, uint64_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutDouble(std::string* dst, double v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetFixed32(const char** p, const char* limit, uint32_t* v) {
  if (*p + sizeof(*v) > limit) return false;
  std::memcpy(v, *p, sizeof(*v));
  *p += sizeof(*v);
  return true;
}
bool GetFixed64(const char** p, const char* limit, uint64_t* v) {
  if (*p + sizeof(*v) > limit) return false;
  std::memcpy(v, *p, sizeof(*v));
  *p += sizeof(*v);
  return true;
}
bool GetDouble(const char** p, const char* limit, double* v) {
  if (*p + sizeof(*v) > limit) return false;
  std::memcpy(v, *p, sizeof(*v));
  *p += sizeof(*v);
  return true;
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
  PutFixed32(&buf, meta.format_version);
  buf.push_back(static_cast<char>(meta.model));
  buf.push_back(static_cast<char>(meta.codec));
  buf.push_back(static_cast<char>(meta.bound));
  buf.push_back(static_cast<char>((meta.has_rr ? 1 : 0) |
                                  (meta.has_irr ? 2 : 0)));
  PutDouble(&buf, meta.epsilon);
  PutFixed32(&buf, meta.max_k);
  PutFixed32(&buf, meta.partition_size);
  PutFixed32(&buf, meta.num_vertices);
  PutFixed32(&buf, meta.num_topics);
  if (meta.topics.size() != meta.num_topics) {
    return Status::InvalidArgument("meta topic table size mismatch");
  }
  for (const auto& t : meta.topics) {
    PutFixed64(&buf, t.theta);
    PutDouble(&buf, t.tf_sum);
    PutDouble(&buf, t.phi);
    PutDouble(&buf, t.opt_bound);
    PutFixed64(&buf, t.irr_preamble);
    PutFixed64(&buf, t.rr_preamble);
  }
  PutFixed32(&buf, crc32c::Mask(crc32c::Value(buf.data(), buf.size())));
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
  if (!GetFixed32(&p, limit, &version) || version != kIndexFormatV2) {
    return Status::Corruption(
        "index meta version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(kIndexFormatV2) + "); rebuild the index: " + path);
  }
  // The file's last 4 bytes are a masked CRC over everything before it.
  if (buf.size() < 12) return Status::Corruption("truncated meta: " + path);
  limit -= 4;
  uint32_t stored = 0;
  std::memcpy(&stored, limit, sizeof(stored));
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
  bool ok = GetDouble(&p, limit, &meta.epsilon) &&
            GetFixed32(&p, limit, &meta.max_k) &&
            GetFixed32(&p, limit, &meta.partition_size) &&
            GetFixed32(&p, limit, &meta.num_vertices) &&
            GetFixed32(&p, limit, &meta.num_topics);
  if (!ok) return Status::Corruption("truncated meta fields: " + path);
  meta.topics.resize(meta.num_topics);
  for (auto& t : meta.topics) {
    ok = GetFixed64(&p, limit, &t.theta) && GetDouble(&p, limit, &t.tf_sum) &&
         GetDouble(&p, limit, &t.phi) && GetDouble(&p, limit, &t.opt_bound) &&
         GetFixed64(&p, limit, &t.irr_preamble) &&
         GetFixed64(&p, limit, &t.rr_preamble);
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

  QueryBudget budget;
  budget.theta_q = static_cast<uint64_t>(theta_q);
  budget.phi_q = phi_q;
  budget.per_keyword.reserve(query.topics.size());
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
  }
  return budget;
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
