// On-disk format shared by the RR and IRR indexes.
//
// An index directory contains:
//   index_meta.kbm   global metadata + per-topic θ_w / tf-mass / φ_w table
//   rr_<w>.dat       R_w: the θ_w RR sets in sampled order. Layout:
//                    header | (θ_w+1) u64 payload offsets | encoded sets.
//                    The offset directory lets a query fetch the first
//                    θ^Q·p_w sets with one contiguous read (Algorithm 2).
//   lists_<w>.dat    L_w: inverted lists vertex -> ascending RR ids.
//   irr_<w>.dat      IRR structures (Algorithm 3): IP first-occurrence map,
//                    partition directory, then per-partition IL^p (δ
//                    inverted lists, sorted by descending length) and IR^p
//                    (the RR sets first referenced by that partition).
//
// All integer payloads are delta-coded where sorted and passed through the
// codec selected at build time (raw = Table 4's "uncompressed", pfor =
// "compressed").
//
// Format version 2 (magics KBR2/KBL2/KBI2, meta version 2) is the only
// one. Every structure a reader touches carries a CRC32C, stored masked
// (see storage/crc32c.h):
//   rr_<w>.dat    header: magic | topic u32 | count u64 | codec u8 |
//                 num_pages u64 | header CRC; then the offset directory
//                 and its CRC, then a table of per-4KiB-page payload CRCs,
//                 so a prefix read of the first θ^Q_w sets verifies
//                 exactly the pages it touched.
//   lists_<w>.dat header: magic | topic u32 | count u64 | codec u8 |
//                 payload CRC | header CRC (the file is always read in
//                 full).
//   irr_<w>.dat   header: magic | topic u32 | num_users u64 |
//                 num_partitions u64 | delta u32 | codec u8 | theta u64 |
//                 header CRC; a per-partition CRC in each directory entry,
//                 and a preamble CRC trailing the directory.
//   index_meta.kbm  per-topic rr_preamble (so the RR reader fetches
//                 header+directory+CRC tables in one read) and a
//                 whole-file CRC.
// Readers refuse any other meta version with kCorruption and a message to
// rebuild: IndexBuilder is deterministic from its seed, so a rebuild
// reproduces the index.
#ifndef KBTIM_INDEX_INDEX_FORMAT_H_
#define KBTIM_INDEX_INDEX_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "propagation/model.h"
#include "storage/pfor_codec.h"
#include "topics/query.h"
#include "topics/vocabulary.h"

namespace kbtim {

// ---- Format version and on-disk constants ----------------------------------

inline constexpr uint32_t kIndexFormatV2 = 2;  ///< CRC32C everywhere.

inline constexpr char kRrMagicV2[4] = {'K', 'B', 'R', '2'};
inline constexpr char kListsMagicV2[4] = {'K', 'B', 'L', '2'};
inline constexpr char kIrrMagicV2[4] = {'K', 'B', 'I', '2'};

/// Header sizes, each ending in its masked header CRC u32 (the CRC covers
/// the header bytes before it).
inline constexpr size_t kRrHeaderSizeV2 = 29;
inline constexpr size_t kListsHeaderSizeV2 = 25;
inline constexpr size_t kIrrHeaderSizeV2 = 41;

/// IRR partition directory entry size (ends in the partition CRC u32).
inline constexpr size_t kIrrDirEntrySizeV2 = 36;

/// RR payload checksum granularity: one masked CRC per 4 KiB payload page
/// (the final page may be short and is CRC'd over its actual bytes).
inline constexpr uint64_t kRrCrcPageSize = 4096;

/// Which per-keyword sample-count bound the index was built with.
enum class ThetaBoundKind : uint8_t {
  /// Lemma 3's θ̂_w (denominator OPT^{w}_1) — conservative and large.
  kConservative = 0,
  /// Lemma 4's compact θ_w (denominator OPT^{w}_K) — the paper's default.
  kCompact = 1,
};

/// Returns "theta_hat" / "theta".
const char* ThetaBoundKindName(ThetaBoundKind kind);

/// Global index metadata.
struct IndexMeta {
  /// On-disk format version; kIndexFormatV2 is the only one written or
  /// read.
  uint32_t format_version = kIndexFormatV2;
  PropagationModel model = PropagationModel::kIndependentCascade;
  CodecKind codec = CodecKind::kPfor;
  ThetaBoundKind bound = ThetaBoundKind::kCompact;
  /// ε the index was built for.
  double epsilon = 0.5;
  /// K: the largest supported Q.k.
  uint32_t max_k = 100;
  /// δ: IRR partition size (users per partition).
  uint32_t partition_size = 100;
  uint32_t num_vertices = 0;
  uint32_t num_topics = 0;
  bool has_rr = false;
  bool has_irr = false;

  /// Per-topic bookkeeping needed at query time.
  struct TopicMeta {
    /// θ_w: number of RR sets stored for the keyword.
    uint64_t theta = 0;
    /// Σ_v tf_{w,v}.
    double tf_sum = 0.0;
    /// φ_w = idf_w · tf_sum (numerator of p_w).
    double phi = 0.0;
    /// The OPT lower bound used in the θ_w denominator (diagnostics).
    double opt_bound = 0.0;
    /// Byte length of irr_<w>.dat's preamble (header + IP map + partition
    /// directory + preamble CRC), so a query fetches it with a single
    /// read.
    uint64_t irr_preamble = 0;
    /// Byte length of rr_<w>.dat's preamble (header + offset directory +
    /// directory CRC + page-CRC table) == the payload start, so the first
    /// cold touch fetches the whole verified directory with a single
    /// read. 0 for empty topics.
    uint64_t rr_preamble = 0;
  };
  std::vector<TopicMeta> topics;
};

/// Serializes meta to `path`.
Status WriteIndexMeta(const IndexMeta& meta, const std::string& path);

/// Reads and validates meta. A version other than kIndexFormatV2 is
/// kCorruption naming the version and asking for a rebuild.
StatusOr<IndexMeta> ReadIndexMeta(const std::string& path);

// ---- Query budgets ---------------------------------------------------------

/// Per-query RR-set budgets derived from index metadata (Eqn. 11):
/// θ^Q = min{θ_w / p_w} and θ^Q_w = min(θ_w, ⌊θ^Q · p_w⌋).
struct QueryBudget {
  uint64_t theta_q = 0;
  double phi_q = 0.0;
  /// (topic, θ^Q_w) per query keyword, in query order. Keywords with no
  /// index mass (p_w = 0) get budget 0.
  std::vector<std::pair<TopicId, uint64_t>> per_keyword;
};

/// Validates the query against the meta (topic range, 1 <= k <= K) and
/// computes the budgets. Fails if no query keyword has index mass.
StatusOr<QueryBudget> ComputeQueryBudget(const IndexMeta& meta,
                                         const Query& query);

// ---- File naming ----------------------------------------------------------

std::string MetaFileName(const std::string& dir);
std::string RrFileName(const std::string& dir, TopicId topic);
std::string ListsFileName(const std::string& dir, TopicId topic);
std::string IrrFileName(const std::string& dir, TopicId topic);

// ---- Per-partition directory entry of an irr_<w>.dat file ------------------

/// Fixed-size directory entry describing one IRR partition.
struct IrrPartitionInfo {
  /// Absolute file offset of the partition's encoded bytes.
  uint64_t offset = 0;
  /// Encoded byte length (IL^p followed by IR^p).
  uint64_t length = 0;
  /// Number of inverted lists (users) in IL^p.
  uint32_t num_users = 0;
  /// Number of RR sets in IR^p.
  uint32_t num_sets = 0;
  /// Longest inverted list in this partition (== kb bound before loading
  /// it, since partitions are sorted by descending list length).
  uint32_t max_list_len = 0;
  /// Shortest inverted list in this partition.
  uint32_t min_list_len = 0;
  /// Masked CRC32C of the partition's encoded bytes
  /// [offset, offset + length).
  uint32_t crc = 0;
};

}  // namespace kbtim

#endif  // KBTIM_INDEX_INDEX_FORMAT_H_
