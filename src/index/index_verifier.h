// Offline index verification: walks every file of an index directory and
// checks structural invariants, the kind of `db_verify` tool a production
// disk format ships with. Used by tests after every build and available to
// operators via examples/index_builder_cli verify.
//
// Checked invariants per keyword w:
//   * rr_<w>.dat: magic/topic/codec match the meta; the offset directory
//     is monotone and ends at EOF; every RR set decodes, is sorted, and
//     references only vertices < |V|;
//   * lists_<w>.dat: every inverted list decodes, is strictly ascending,
//     references only RR ids < θ_w, and the multiset of (vertex, rr)
//     memberships equals the one induced by rr_<w>.dat;
//   * irr_<w>.dat: header agrees with the meta (θ_w, δ, preamble length);
//     partitions cover every user exactly once, ordered by non-increasing
//     list length; IR partitions cover every RR id exactly once; the IP
//     map's first-occurrence equals the head of each user's list.
//
// A checksum stage recomputes every stored CRC32C (rr header/directory/
// page CRCs, lists header/payload CRCs, irr header/partition/preamble
// CRCs) and compares it. A meta of any version but 2 is refused, as every
// reader refuses it (ReadIndexMeta).
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
