#include "index/index_builder.h"

#include <sys/stat.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string_view>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "coverage/rr_collection.h"
#include "propagation/rr_sampler.h"
#include "sampling/theta_bounds.h"
#include "sampling/vertex_sampler.h"
#include "storage/block_file.h"
#include "storage/crc32c.h"
#include "storage/varint.h"

namespace kbtim {
namespace {

void PutFixed32(std::string* dst, uint32_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutFixed64(std::string* dst, uint64_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Delta + codec encoding of an ascending id list.
void EncodeIdList(std::vector<uint32_t> sorted, const IntCodec& codec,
                  std::string* out) {
  DeltaEncode(&sorted);
  codec.Encode(sorted, out);
}

struct KeywordArtifacts {
  IndexMeta::TopicMeta meta;
  uint64_t rr_bytes = 0;
  uint64_t lists_bytes = 0;
  uint64_t irr_bytes = 0;
  uint64_t total_set_items = 0;
};

/// Masked CRC of one payload page (the last page may be short).
uint32_t PageCrc(const std::string& payload, uint64_t page) {
  const uint64_t begin = page * kRrCrcPageSize;
  const uint64_t end =
      std::min<uint64_t>(payload.size(), begin + kRrCrcPageSize);
  return crc32c::Mask(crc32c::Value(payload.data() + begin, end - begin));
}

Status WriteRrFile(const std::string& path, TopicId topic,
                   const RrCollection& sets, CodecKind codec_kind,
                   uint64_t* bytes_out, uint64_t* preamble_out) {
  const auto codec = MakeCodec(codec_kind);
  const uint64_t count = sets.size();

  std::string payload;
  std::vector<uint64_t> offsets;
  offsets.reserve(count + 1);
  std::vector<uint32_t> members;
  for (uint64_t i = 0; i < count; ++i) {
    offsets.push_back(payload.size());  // relative; rebased below
    const auto set = sets.Set(static_cast<RrId>(i));
    members.assign(set.begin(), set.end());
    EncodeIdList(std::move(members), *codec, &payload);
    members.clear();
  }
  offsets.push_back(payload.size());

  const uint64_t num_pages =
      (payload.size() + kRrCrcPageSize - 1) / kRrCrcPageSize;
  const uint64_t dir_size = (count + 1) * sizeof(uint64_t);
  const uint64_t preamble = kRrHeaderSizeV2 + dir_size + 4 + num_pages * 4;
  for (uint64_t& off : offsets) off += preamble;

  std::string header;
  header.append(kRrMagicV2, 4);
  PutFixed32(&header, topic);
  PutFixed64(&header, count);
  header.push_back(static_cast<char>(codec_kind));
  PutFixed64(&header, num_pages);
  PutFixed32(&header,
             crc32c::Mask(crc32c::Value(header.data(), header.size())));

  KBTIM_ASSIGN_OR_RETURN(auto writer, FileWriter::CreateAtomic(path));
  KBTIM_RETURN_IF_ERROR(writer->Append(header));
  const std::string_view dir_bytes{
      reinterpret_cast<const char*>(offsets.data()), dir_size};
  KBTIM_RETURN_IF_ERROR(writer->Append(dir_bytes));
  std::string crcs;
  PutFixed32(&crcs, crc32c::Mask(crc32c::Value(dir_bytes.data(),
                                               dir_bytes.size())));
  for (uint64_t page = 0; page < num_pages; ++page) {
    PutFixed32(&crcs, PageCrc(payload, page));
  }
  KBTIM_RETURN_IF_ERROR(writer->Append(crcs));
  KBTIM_RETURN_IF_ERROR(writer->Append(payload));
  *bytes_out = writer->offset();
  *preamble_out = preamble;
  return writer->Close();
}

Status WriteListsFile(const std::string& path, TopicId topic,
                      const InvertedRrIndex& inverted, CodecKind codec_kind,
                      uint64_t* bytes_out) {
  const auto codec = MakeCodec(codec_kind);
  uint64_t num_entries = 0;
  for (VertexId v = 0; v < inverted.num_vertices(); ++v) {
    if (inverted.ListLength(v) > 0) ++num_entries;
  }
  std::string payload;
  VertexId prev = 0;
  std::string tmp;
  for (VertexId v = 0; v < inverted.num_vertices(); ++v) {
    const auto list = inverted.Sets(v);
    if (list.empty()) continue;
    PutVarint32(&payload, v - prev);
    prev = v;
    tmp.clear();
    EncodeIdList({list.begin(), list.end()}, *codec, &tmp);
    PutVarint64(&payload, tmp.size());
    payload += tmp;
  }
  std::string header;
  header.append(kListsMagicV2, 4);
  PutFixed32(&header, topic);
  PutFixed64(&header, num_entries);
  header.push_back(static_cast<char>(codec_kind));
  // The file is always read whole, so one payload CRC suffices; the
  // header CRC also covers it.
  PutFixed32(&header,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutFixed32(&header,
             crc32c::Mask(crc32c::Value(header.data(), header.size())));

  KBTIM_ASSIGN_OR_RETURN(auto writer, FileWriter::CreateAtomic(path));
  KBTIM_RETURN_IF_ERROR(writer->Append(header));
  KBTIM_RETURN_IF_ERROR(writer->Append(payload));
  *bytes_out = writer->offset();
  return writer->Close();
}

Status WriteIrrFile(const std::string& path, TopicId topic,
                    const RrCollection& sets, const InvertedRrIndex& inverted,
                    uint32_t partition_size, CodecKind codec_kind,
                    uint64_t* bytes_out, uint64_t* preamble_out) {
  const auto codec = MakeCodec(codec_kind);
  const uint64_t theta = sets.size();

  // Users with non-empty lists, ordered by (list length desc, id asc) —
  // Algorithm 3 line 8.
  std::vector<VertexId> users;
  for (VertexId v = 0; v < inverted.num_vertices(); ++v) {
    if (inverted.ListLength(v) > 0) users.push_back(v);
  }
  std::sort(users.begin(), users.end(), [&](VertexId a, VertexId b) {
    const uint64_t la = inverted.ListLength(a);
    const uint64_t lb = inverted.ListLength(b);
    return la != lb ? la > lb : a < b;
  });

  // IP map (vertex-id order for delta coding): first occurrence == the
  // smallest RR id in the vertex's list (lists are ascending).
  std::string ip_buf;
  {
    VertexId prev = 0;
    for (VertexId v = 0; v < inverted.num_vertices(); ++v) {
      const auto list = inverted.Sets(v);
      if (list.empty()) continue;
      PutVarint32(&ip_buf, v - prev);
      prev = v;
      PutVarint32(&ip_buf, list.front());
    }
  }

  // Partitions.
  const uint32_t delta = std::max<uint32_t>(1, partition_size);
  const uint64_t num_partitions =
      users.empty() ? 0 : (users.size() + delta - 1) / delta;
  std::vector<IrrPartitionInfo> dir;
  dir.reserve(num_partitions);
  std::string partitions;
  std::vector<char> assigned(theta, 0);
  std::string tmp;
  for (uint64_t p = 0; p < num_partitions; ++p) {
    const size_t begin = p * delta;
    const size_t end = std::min(users.size(), begin + delta);
    IrrPartitionInfo info;
    info.num_users = static_cast<uint32_t>(end - begin);
    info.max_list_len =
        static_cast<uint32_t>(inverted.ListLength(users[begin]));
    info.min_list_len =
        static_cast<uint32_t>(inverted.ListLength(users[end - 1]));

    std::string il;
    std::vector<RrId> new_sets;
    for (size_t i = begin; i < end; ++i) {
      const VertexId u = users[i];
      const auto list = inverted.Sets(u);
      PutVarint32(&il, u);
      tmp.clear();
      EncodeIdList({list.begin(), list.end()}, *codec, &tmp);
      PutVarint64(&il, tmp.size());
      il += tmp;
      for (RrId rr : list) {
        if (!assigned[rr]) {
          assigned[rr] = 1;
          new_sets.push_back(rr);
        }
      }
    }
    std::sort(new_sets.begin(), new_sets.end());
    std::string ir;
    PutVarint32(&ir, static_cast<uint32_t>(new_sets.size()));
    RrId prev_rr = 0;
    for (RrId rr : new_sets) {
      PutVarint32(&ir, rr - prev_rr);
      prev_rr = rr;
      const auto members = sets.Set(rr);
      tmp.clear();
      EncodeIdList({members.begin(), members.end()}, *codec, &tmp);
      PutVarint64(&ir, tmp.size());
      ir += tmp;
    }
    info.num_sets = static_cast<uint32_t>(new_sets.size());
    info.length = il.size() + ir.size();
    info.offset = partitions.size();  // relative; rebased below
    dir.push_back(info);
    partitions += il;
    partitions += ir;
  }

  // Header: magic | topic | num_users | num_partitions | delta | codec |
  // theta (4+4+8+8+4+1+8 = 37 bytes), then a masked header CRC.
  std::string header;
  header.append(kIrrMagicV2, 4);
  PutFixed32(&header, topic);
  PutFixed64(&header, users.size());
  PutFixed64(&header, num_partitions);
  PutFixed32(&header, delta);
  header.push_back(static_cast<char>(codec_kind));
  PutFixed64(&header, theta);
  PutFixed32(&header,
             crc32c::Mask(crc32c::Value(header.data(), header.size())));

  // The preamble ends with a masked CRC of everything before it.
  const uint64_t preamble = header.size() + ip_buf.size() +
                            dir.size() * kIrrDirEntrySizeV2 + 4;
  std::string dir_buf;
  dir_buf.reserve(dir.size() * kIrrDirEntrySizeV2);
  for (auto& info : dir) {
    info.crc = crc32c::Mask(
        crc32c::Value(partitions.data() + info.offset, info.length));
    info.offset += preamble;
    PutFixed64(&dir_buf, info.offset);
    PutFixed64(&dir_buf, info.length);
    PutFixed32(&dir_buf, info.num_users);
    PutFixed32(&dir_buf, info.num_sets);
    PutFixed32(&dir_buf, info.max_list_len);
    PutFixed32(&dir_buf, info.min_list_len);
    PutFixed32(&dir_buf, info.crc);
  }

  KBTIM_ASSIGN_OR_RETURN(auto writer, FileWriter::CreateAtomic(path));
  KBTIM_RETURN_IF_ERROR(writer->Append(header));
  KBTIM_RETURN_IF_ERROR(writer->Append(ip_buf));
  KBTIM_RETURN_IF_ERROR(writer->Append(dir_buf));
  uint32_t pre_crc = crc32c::Value(header.data(), header.size());
  pre_crc = crc32c::Extend(pre_crc, ip_buf.data(), ip_buf.size());
  pre_crc = crc32c::Extend(pre_crc, dir_buf.data(), dir_buf.size());
  std::string trailer;
  PutFixed32(&trailer, crc32c::Mask(pre_crc));
  KBTIM_RETURN_IF_ERROR(writer->Append(trailer));
  KBTIM_RETURN_IF_ERROR(writer->Append(partitions));
  *bytes_out = writer->offset();
  *preamble_out = preamble;
  return writer->Close();
}

/// Samples keyword `w` and writes its files. Deterministic in (options,
/// graph, profiles): the RNG forks depend only on the seed and `w`, so a
/// later single-topic rebuild reproduces the exact bytes.
Status BuildOneKeyword(const Graph& graph, const TfIdfModel& tfidf,
                       const IndexBuildOptions& options,
                       const std::shared_ptr<const BucketedAdjacency>& adjacency,
                       const std::string& dir, TopicId w,
                       KeywordArtifacts* art) {
  const ProfileStore& profiles = tfidf.profiles();
  art->meta.tf_sum = profiles.TopicTfSum(w);
  art->meta.phi = tfidf.PhiTopic(w);
  if (art->meta.tf_sum <= 0.0) {
    return Status::OK();  // empty topic: θ_w = 0, no files
  }

  KBTIM_ASSIGN_OR_RETURN(auto roots,
                         WeightedVertexSampler::ForTopic(profiles, w));

  // OPT^{w}_K (compact bound) or OPT^{w}_1 (conservative bound).
  const uint32_t opt_k = options.bound == ThetaBoundKind::kCompact
                             ? std::min(options.max_k, graph.num_vertices())
                             : 1;
  // Floor: sum of the top-opt_k tf values of this topic.
  std::vector<double> tfs;
  {
    auto topic_tfs = profiles.TopicTfs(w);
    tfs.assign(topic_tfs.begin(), topic_tfs.end());
  }
  const size_t topk = std::min<size_t>(opt_k, tfs.size());
  std::partial_sort(tfs.begin(), tfs.begin() + topk, tfs.end(),
                    std::greater<>());
  double floor = 0.0;
  for (size_t i = 0; i < topk; ++i) floor += tfs[i];

  OptEstimateOptions oo = options.opt_estimate;
  oo.k = opt_k;
  oo.floor = floor;
  oo.seed = options.seed ^ (0xC0FFEEULL + w);
  auto sampler = MakeRrSampler(options.model, adjacency);
  KBTIM_ASSIGN_OR_RETURN(const double opt_bound,
                         EstimateOptLowerBound(graph, *sampler, roots, oo));
  art->meta.opt_bound = opt_bound;

  uint64_t theta = ThetaForKeyword(options.epsilon, art->meta.tf_sum,
                                   graph.num_vertices(), options.max_k,
                                   opt_bound);
  theta = std::max<uint64_t>(theta, 1);
  if (theta > options.max_theta_per_keyword) {
    KBTIM_LOG(Warning) << "keyword " << w << ": theta " << theta
                       << " clipped to " << options.max_theta_per_keyword;
    theta = options.max_theta_per_keyword;
  }
  art->meta.theta = theta;

  // Discriminative WRIS sampling: roots ~ ps(v, w).
  Rng rng = Rng(options.seed).Fork(2 * w + 1);
  RrCollection sets;
  sets.Reserve(theta, theta * 4);
  std::vector<VertexId> scratch;
  for (uint64_t i = 0; i < theta; ++i) {
    sampler->Sample(roots.Sample(rng), rng, &scratch);
    std::sort(scratch.begin(), scratch.end());
    sets.Add(scratch);
  }
  art->total_set_items = sets.total_items();

  InvertedRrIndex inverted(sets, graph.num_vertices());
  if (options.build_rr) {
    KBTIM_RETURN_IF_ERROR(WriteRrFile(RrFileName(dir, w), w, sets,
                                      options.codec, &art->rr_bytes,
                                      &art->meta.rr_preamble));
    KBTIM_RETURN_IF_ERROR(WriteListsFile(ListsFileName(dir, w), w, inverted,
                                         options.codec, &art->lists_bytes));
  }
  if (options.build_irr) {
    KBTIM_RETURN_IF_ERROR(
        WriteIrrFile(IrrFileName(dir, w), w, sets, inverted,
                     options.partition_size, options.codec, &art->irr_bytes,
                     &art->meta.irr_preamble));
  }
  return Status::OK();
}

}  // namespace

IndexBuilder::IndexBuilder(const Graph& graph, const TfIdfModel& tfidf,
                           const std::vector<float>& in_edge_weights,
                           IndexBuildOptions options)
    : graph_(graph),
      tfidf_(tfidf),
      in_edge_weights_(in_edge_weights),
      options_(options) {}

StatusOr<IndexBuildReport> IndexBuilder::Build(const std::string& dir) {
  if (!options_.build_rr && !options_.build_irr) {
    return Status::InvalidArgument("nothing to build");
  }
  if (options_.epsilon <= 0.0 || options_.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine; file creation will verify

  WallTimer timer;
  const ProfileStore& profiles = tfidf_.profiles();
  const uint32_t num_topics = profiles.num_topics();
  std::vector<KeywordArtifacts> artifacts(num_topics);
  std::vector<Status> statuses(num_topics, Status::OK());

  // One bucketed reverse adjacency shared by every keyword task's sampler
  // (the per-keyword O(E) builds this replaces dominated small-topic
  // build times).
  const auto adjacency =
      BucketedAdjacency::BuildShared(graph_, in_edge_weights_);

  {
    ThreadPool pool(options_.num_threads);
    for (TopicId w = 0; w < num_topics; ++w) {
      pool.Submit([&, w] {
        statuses[w] = BuildOneKeyword(graph_, tfidf_, options_, adjacency,
                                      dir, w, &artifacts[w]);
      });
    }
    pool.Wait();
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  IndexMeta meta;
  meta.model = options_.model;
  meta.codec = options_.codec;
  meta.bound = options_.bound;
  meta.epsilon = options_.epsilon;
  meta.max_k = options_.max_k;
  meta.partition_size = options_.partition_size;
  meta.num_vertices = graph_.num_vertices();
  meta.num_topics = num_topics;
  meta.has_rr = options_.build_rr;
  meta.has_irr = options_.build_irr;
  meta.topics.reserve(num_topics);
  for (const auto& art : artifacts) meta.topics.push_back(art.meta);
  KBTIM_RETURN_IF_ERROR(WriteIndexMeta(meta, MetaFileName(dir)));

  IndexBuildReport report;
  report.theta_per_topic.reserve(num_topics);
  uint64_t total_items = 0;
  for (const auto& art : artifacts) {
    report.total_theta += art.meta.theta;
    report.rr_bytes += art.rr_bytes;
    report.lists_bytes += art.lists_bytes;
    report.irr_bytes += art.irr_bytes;
    report.theta_per_topic.push_back(art.meta.theta);
    total_items += art.total_set_items;
  }
  report.total_bytes =
      report.rr_bytes + report.lists_bytes + report.irr_bytes;
  report.mean_rr_set_size =
      report.total_theta == 0
          ? 0.0
          : static_cast<double>(total_items) /
                static_cast<double>(report.total_theta);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

Status IndexBuilder::RebuildTopic(const std::string& dir, TopicId topic) {
  const uint32_t num_topics = tfidf_.profiles().num_topics();
  if (topic >= num_topics) {
    return Status::InvalidArgument("rebuild topic out of range");
  }
  const auto adjacency =
      BucketedAdjacency::BuildShared(graph_, in_edge_weights_);
  KeywordArtifacts art;
  KBTIM_RETURN_IF_ERROR(BuildOneKeyword(graph_, tfidf_, options_, adjacency,
                                        dir, topic, &art));
  // The rebuilt files must agree with the published meta, or queries would
  // read directory offsets that no longer match the bytes on disk. A
  // mismatch means the builder was configured differently from the
  // original build (options/seed drift) — surface it loudly.
  auto meta_or = ReadIndexMeta(MetaFileName(dir));
  if (meta_or.ok() && topic < meta_or->topics.size()) {
    const auto& want = meta_or->topics[topic];
    if (want.theta != art.meta.theta ||
        want.irr_preamble != art.meta.irr_preamble ||
        want.rr_preamble != art.meta.rr_preamble) {
      return Status::Internal(
          "topic rebuild diverged from index meta (theta " +
          std::to_string(want.theta) + " -> " +
          std::to_string(art.meta.theta) +
          "); builder options do not match the original build");
    }
  }
  return Status::OK();
}

}  // namespace kbtim
