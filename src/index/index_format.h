// On-disk format shared by the RR and IRR indexes, and the one place that
// knows its byte layout: IndexBuilder writes every header, directory and
// checksum through the Encode functions below, and KeywordCache,
// IndexScrubber and VerifyIndex read them through the Parse functions, so
// every reader refuses a file whose layout is damaged.
//
// An index directory contains:
//   index_meta.kbm   global metadata + per-topic θ_w / tf-mass / φ_w table
//   rr_<w>.dat       R_w: the θ_w RR sets in sampled order. Layout:
//                    preamble (header | (θ_w+1) u64 payload offsets |
//                    page CRCs) | encoded sets. The offset directory lets
//                    a query fetch the first θ^Q·p_w sets with one
//                    contiguous read (Algorithm 2).
//   lists_<w>.dat    L_w: inverted lists vertex -> ascending RR ids.
//   irr_<w>.dat      IRR structures (Algorithm 3): IP first-occurrence map,
//                    partition directory, then per-partition IL^p (δ
//                    inverted lists, sorted by descending length) and IR^p
//                    (the RR sets first referenced by that partition).
//
// All integer payloads are delta-coded where sorted and passed through the
// codec selected at build time (raw = Table 4's "uncompressed", pfor =
// "compressed"). Payload framing (IP-map varints, list and set entries) is
// written by IndexBuilder and decoded by its readers; this file owns the
// fixed-width structures around it.
//
// Format version 2 (meta version 2) is the only one. Every structure a
// reader touches carries a CRC32C, stored masked (see storage/crc32c.h).
// All integers are little-endian:
//   rr_<w>.dat    header: "KBR2" | topic u32 | count u64 | codec u8 |
//                 num_pages u64 | header CRC (29 bytes); then the
//                 count+1 absolute payload offsets and their CRC, then one
//                 CRC per 4 KiB payload page, so a prefix read of the first
//                 θ^Q_w sets verifies exactly the pages it touched.
//   lists_<w>.dat header: "KBL2" | topic u32 | count u64 | codec u8 |
//                 payload CRC | header CRC (25 bytes); the file is always
//                 read whole.
//   irr_<w>.dat   header: "KBI2" | topic u32 | num_users u64 |
//                 num_partitions u64 | delta u32 | codec u8 | theta u64 |
//                 header CRC (41 bytes); the IP map; the partition
//                 directory (36-byte entries: offset u64 | length u64 |
//                 num_users u32 | num_sets u32 | max_list_len u32 |
//                 min_list_len u32 | partition CRC); and a preamble CRC
//                 over everything before it.
//   index_meta.kbm  per-topic rr_preamble / irr_preamble lengths (so each
//                 reader fetches a preamble in one read) and a whole-file
//                 CRC.
// tests/index/index_layout_test.cc pins these offsets against a committed
// index, outside this code. Readers refuse any other meta version with
// kCorruption and a message to rebuild: IndexBuilder is deterministic from
// its seed, so a rebuild reproduces the index.
#ifndef KBTIM_INDEX_INDEX_FORMAT_H_
#define KBTIM_INDEX_INDEX_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "propagation/model.h"
#include "storage/block_file.h"
#include "storage/pfor_codec.h"
#include "topics/query.h"
#include "topics/vocabulary.h"

namespace kbtim {

// ---- Format version and on-disk constants ----------------------------------

inline constexpr uint32_t kIndexFormatV2 = 2;  ///< CRC32C everywhere.

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
/// computes the budgets. Fails if no query keyword has index mass, and
/// with kInvalidArgument if θ^Q or Σ θ^Q_w exceeds 2^32-1 (the greedy
/// counts RR sets in 32 bits).
StatusOr<QueryBudget> ComputeQueryBudget(const IndexMeta& meta,
                                         const Query& query);

// ---- File naming ----------------------------------------------------------

std::string MetaFileName(const std::string& dir);
std::string RrFileName(const std::string& dir, TopicId topic);
std::string ListsFileName(const std::string& dir, TopicId topic);
std::string IrrFileName(const std::string& dir, TopicId topic);

// ---- Checksums -------------------------------------------------------------

/// Masked-CRC checks one reader performed. Each reader adds the tally to
/// its own counters (KeywordCacheStats::crc_checks / crc_failures,
/// IndexScrubberStats::blocks_scrubbed / bytes_scrubbed / crc_failures,
/// IndexVerification::checksums_verified).
struct CrcTally {
  uint64_t checks = 0;
  uint64_t failures = 0;
  uint64_t bytes = 0;  ///< Bytes hashed.
};

/// Verifies `bytes` against a stored masked CRC32C and counts the check.
/// kCorruption "<what> checksum mismatch: <path>" on mismatch.
Status CheckCrc(std::string_view bytes, uint32_t stored_masked,
                const char* what, const std::string& path, CrcTally* tally);

/// Reads the first `meta_length` bytes of `file` (the preamble length the
/// meta records) in one logical read: a view when the file is mapped,
/// otherwise a copy in *scratch. kCorruption when the file is shorter.
StatusOr<std::string_view> ReadPreamble(const RandomAccessFile& file,
                                        uint64_t meta_length,
                                        std::string* scratch);

// ---- rr_<w>.dat ------------------------------------------------------------

struct RrHeader {
  TopicId topic = kInvalidTopic;
  uint64_t count = 0;  ///< θ_w: RR sets stored.
  CodecKind codec = CodecKind::kRaw;
  uint64_t num_pages = 0;  ///< 4 KiB payload pages (and page CRCs).
};

struct RrPreamble {
  RrHeader header;
  /// count+1 absolute file offsets, ascending, from the preamble's end to
  /// EOF: set i is [offsets[i], offsets[i+1]).
  std::vector<uint64_t> offsets;
  /// Masked CRC of each payload page.
  std::vector<uint32_t> page_crcs;
};

/// The preamble of an rr_<w>.dat whose payload is `payload`:
/// `relative_offsets` (count+1 entries, the last == payload.size()) are
/// rebased past the preamble and every page of `payload` is checksummed.
/// The file is this preamble followed by `payload`.
std::string EncodeRrPreamble(TopicId topic, CodecKind codec,
                             std::span<const uint64_t> relative_offsets,
                             std::string_view payload);

/// Parses and verifies the preamble `bytes` of an rr_<w>.dat of
/// `file_size` bytes: magic, header and directory CRCs, topic, codec and
/// count (== the meta's `theta`), num_pages bounded by the preamble before
/// it is used, a sorted directory from the preamble's end to EOF, and
/// num_pages matching the payload size. The page CRCs are returned, not
/// checked.
StatusOr<RrPreamble> ParseRrPreamble(std::string_view bytes,
                                     uint64_t file_size, TopicId topic,
                                     CodecKind codec, uint64_t theta,
                                     const std::string& path,
                                     CrcTally* tally);

/// Verifies the leading payload pages of `payload` (a read starting at the
/// payload's first byte) against `page_crcs`, one per page, stopping at
/// the first mismatch. The last page may be short.
Status CheckRrPages(std::string_view payload,
                    std::span<const uint32_t> page_crcs,
                    const std::string& path, CrcTally* tally);

// ---- lists_<w>.dat ---------------------------------------------------------

struct ListsHeader {
  TopicId topic = kInvalidTopic;
  uint64_t num_entries = 0;  ///< Non-empty inverted lists.
  CodecKind codec = CodecKind::kRaw;
};

struct ListsFile {
  ListsHeader header;
  std::string_view payload;  ///< Into the parsed bytes.
};

/// The header of a lists_<w>.dat whose payload is `payload`. The file is
/// this header followed by `payload`.
std::string EncodeListsHeader(const ListsHeader& header,
                              std::string_view payload);

/// Parses and verifies a whole lists_<w>.dat: magic, header and payload
/// CRCs, topic and codec, and num_entries bounded by the payload.
StatusOr<ListsFile> ParseListsFile(std::string_view bytes, TopicId topic,
                                   CodecKind codec, const std::string& path,
                                   CrcTally* tally);

// ---- irr_<w>.dat -----------------------------------------------------------

struct IrrHeader {
  TopicId topic = kInvalidTopic;
  uint64_t num_users = 0;  ///< Users with a non-empty list (IP entries).
  uint64_t num_partitions = 0;
  uint32_t delta = 0;  ///< δ: users per partition.
  CodecKind codec = CodecKind::kRaw;
  uint64_t theta = 0;  ///< θ_w.
};

/// Fixed-size directory entry describing one IRR partition.
struct IrrPartitionInfo {
  uint64_t offset = 0;     ///< Absolute file offset of the encoded bytes.
  uint64_t length = 0;     ///< Encoded length (IL^p followed by IR^p).
  uint32_t num_users = 0;  ///< Inverted lists (users) in IL^p.
  uint32_t num_sets = 0;   ///< RR sets in IR^p.
  /// Longest and shortest inverted list. Partitions are sorted by
  /// descending list length, so max_list_len bounds every unloaded list
  /// (the kb bound).
  uint32_t max_list_len = 0;
  uint32_t min_list_len = 0;
  uint32_t crc = 0;  ///< Masked CRC32C of [offset, offset + length).
};

struct IrrPreamble {
  IrrHeader header;
  /// The encoded IP map (num_users varint pairs), into the parsed bytes.
  std::string_view ip_map;
  std::vector<IrrPartitionInfo> directory;
};

/// The preamble of an irr_<w>.dat whose partitions are `partitions`:
/// `directory` holds offsets relative to `partitions`; this computes each
/// partition's CRC, rebases the offsets past the preamble and appends the
/// preamble CRC. The file is this preamble followed by `partitions`.
std::string EncodeIrrPreamble(const IrrHeader& header, std::string_view ip_map,
                              std::span<const IrrPartitionInfo> directory,
                              std::string_view partitions);

/// Parses and verifies the preamble `bytes` of an irr_<w>.dat of
/// `file_size` bytes: magic, preamble and header CRCs, topic, codec and
/// theta (== the meta's `theta`).
/// The directory is found from the preamble's end, num_partitions and
/// num_users are bounded by the bytes present, and every entry must lie in
/// the file after the preamble with user and set counts of at most
/// length / 2 (each list or set entry takes two bytes or more). The
/// partition CRCs are returned, not checked.
StatusOr<IrrPreamble> ParseIrrPreamble(std::string_view bytes,
                                       uint64_t file_size, TopicId topic,
                                       CodecKind codec, uint64_t theta,
                                       const std::string& path,
                                       CrcTally* tally);

}  // namespace kbtim

#endif  // KBTIM_INDEX_INDEX_FORMAT_H_
