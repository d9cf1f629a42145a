// Offline index verification: walks every file of an index directory and
// checks structural invariants, the kind of `db_verify` tool a production
// disk format ships with. Used by tests after every build and available to
// operators via examples/index_builder_cli verify.
//
// Headers, directories and every stored CRC32C are parsed and checked
// through index_format, as every reader parses them (magic, topic and
// codec against the meta, counts and offsets bounded by the file, a
// sorted RR directory ending at EOF). On top of that, per keyword w:
//   * rr_<w>.dat: θ_w matches the meta; every RR set decodes, is sorted,
//     and references only vertices < |V|;
//   * lists_<w>.dat: every inverted list decodes, is strictly ascending,
//     references only RR ids < θ_w, and the multiset of (vertex, rr)
//     memberships equals the one induced by rr_<w>.dat;
//   * irr_<w>.dat: θ_w and δ agree with the meta; partitions are
//     contiguous, cover every user exactly once, ordered by non-increasing
//     list length; IR partitions cover every RR id exactly once with the
//     contents of rr_<w>.dat; the IP map's first-occurrence equals the
//     head of each user's list.
//
// Payloads decode through the generic codec path (IntCodec), not the
// cache's kernels. tests/index/index_layout_test.cc pins the layout
// itself against a committed index. A meta of any version but 2 is
// refused, as every reader refuses it (ReadIndexMeta).
#ifndef KBTIM_INDEX_INDEX_VERIFIER_H_
#define KBTIM_INDEX_INDEX_VERIFIER_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"

namespace kbtim {

/// Aggregate statistics from a verification pass.
struct IndexVerification {
  uint32_t format_version = 0;  ///< From the meta.
  uint32_t topics_checked = 0;
  uint64_t rr_sets_checked = 0;
  uint64_t inverted_entries_checked = 0;
  uint64_t partitions_checked = 0;
  uint64_t checksums_verified = 0;  ///< Stored CRCs recomputed.
};

/// Verifies every structure in `dir`. Returns Corruption with a
/// description of the first violated invariant, or the pass statistics.
StatusOr<IndexVerification> VerifyIndex(const std::string& dir);

}  // namespace kbtim

#endif  // KBTIM_INDEX_INDEX_VERIFIER_H_
