// Deterministic fault injection for the storage layer.
//
// Every logical I/O op (RandomAccessFile reads, FileWriter appends)
// consults the process-global FaultInjector when it is armed. A fault
// plan is a list of rules; each rule scopes itself by path substring and
// op direction, then fires on a deterministic schedule over the sequence
// of ops that match it:
//
//   * [first_op, first_op + max_faults) with probability 1.0 — an exact
//     op-count window (the schedule tests and the determinism suite use
//     this: the same serial op stream always hits the same faults), or
//   * probability p < 1.0 — a seeded coin keyed on (seed, rule, match
//     index), so even the random mode replays identically for an
//     identical match sequence.
//
// Fault kinds model the failure taxonomy the serving stack hardens
// against (see README "Failure model"):
//   * kIOError    — the op fails with Status::IOError (transient: nothing
//                   about the file changed, a retry may succeed).
//   * kShortRead  — the op fails like a torn read (also kIOError to the
//                   caller, distinct message + counter).
//   * kBitFlip    — the op succeeds but one payload byte is corrupted
//                   (reads: in the returned copy, never in the backing
//                   file or mmap; writes: in the bytes that hit disk).
//                   Decoders must fail closed with kCorruption.
//   * kLatency    — the op succeeds after sleeping `latency_ms` (tail
//                   amplification; no error surfaced).
//
// Cost when disarmed: one relaxed atomic load per logical op — the same
// global-toggle idiom as SetSkipSamplingEnabled.
// Arm()/Disarm() are test/bench entry points; production code never arms.
#ifndef KBTIM_STORAGE_FAULT_INJECTOR_H_
#define KBTIM_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace kbtim {

/// Which direction of I/O a rule applies to. File ops are consulted by the
/// storage primitives; socket ops by src/net's Socket (the "path" of a
/// socket op is its peer label "host:port", so rules scope to one shard).
enum class FaultOp : uint8_t {
  kRead = 0,      ///< RandomAccessFile::Read / ReadView / ReadOrCopy.
  kWrite = 1,     ///< FileWriter::Append.
  kConnect = 2,   ///< Socket::Connect (TCP connect + handshake).
  kNetRead = 3,   ///< Socket::RecvAll.
  kNetWrite = 4,  ///< Socket::SendAll.
};

/// What happens when a rule fires (see file comment for semantics).
enum class FaultKind : uint8_t {
  kIOError = 0,
  kShortRead = 1,
  kBitFlip = 2,
  kLatency = 3,
};

/// One injection rule. Ops that contain `path_substring` in their path and
/// match `op` advance the rule's private match counter; the schedule below
/// decides which of those matches fire.
struct FaultRule {
  std::string path_substring;  ///< "" matches every path.
  FaultOp op = FaultOp::kRead;
  FaultKind kind = FaultKind::kIOError;

  /// Matches [first_op, first_op + max_faults) are fault candidates.
  uint64_t first_op = 0;
  /// Cap on fired faults for this rule (0 = unlimited).
  uint64_t max_faults = 0;
  /// Candidate matches fire with this probability (1.0 = always; < 1.0
  /// draws a seeded, match-indexed coin — deterministic for a fixed
  /// match sequence).
  double probability = 1.0;

  /// kLatency only: how long the op sleeps.
  double latency_ms = 0.0;
};

/// A full plan: rules plus the seed for coins / bit positions.
struct FaultPlan {
  std::vector<FaultRule> rules;
  uint64_t seed = 1;
};

/// Monotonic injection counters (since the last Arm).
struct FaultInjectorStats {
  uint64_t consults = 0;      ///< Ops that consulted an armed injector.
  uint64_t io_errors = 0;     ///< kIOError faults fired.
  uint64_t short_reads = 0;   ///< kShortRead faults fired.
  uint64_t bit_flips = 0;     ///< kBitFlip faults fired.
  uint64_t latencies = 0;     ///< kLatency faults fired.

  uint64_t total_faults() const {
    return io_errors + short_reads + bit_flips + latencies;
  }
};

/// What the I/O primitive must do for one op. At most one of the error /
/// mutation effects is set.
struct FaultDecision {
  Status status;           ///< Non-OK: fail the op with this status.
  bool flip = false;       ///< Corrupt one byte of the payload copy.
  uint64_t flip_offset = 0;  ///< Byte index to corrupt (caller mods by n).
  uint8_t flip_mask = 1;     ///< XOR mask (never 0).
  double sleep_ms = 0.0;   ///< Sleep before serving the op.
};

/// Process-global injector. Thread-safe; consult order across threads is
/// whatever the op interleaving is, so determinism guarantees hold for
/// deterministic op sequences (serial query streams, fixed schedules).
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// True when a plan is armed (relaxed atomic; the only cost when off).
  static bool Enabled();

  /// Installs `plan`, resets rule counters + stats, enables injection.
  void Arm(FaultPlan plan) EXCLUDES(mu_);

  /// Disables injection (stats survive until the next Arm).
  void Disarm();

  /// Decides what happens to one logical op. Only call when Enabled().
  FaultDecision Consult(FaultOp op, const std::string& path, size_t n)
      EXCLUDES(mu_);

  /// Convenience for callers that want the sleep applied here.
  void ApplyLatency(const FaultDecision& decision) const;

  FaultInjectorStats stats() const EXCLUDES(mu_);

 private:
  FaultInjector() = default;

  struct RuleState {
    FaultRule rule;
    uint64_t matched = 0;  ///< Ops that matched this rule so far.
    uint64_t fired = 0;    ///< Faults this rule has injected.
  };

  mutable Mutex mu_;
  std::vector<RuleState> rules_ GUARDED_BY(mu_);
  uint64_t seed_ GUARDED_BY(mu_) = 1;
  FaultInjectorStats stats_ GUARDED_BY(mu_);
};

}  // namespace kbtim

#endif  // KBTIM_STORAGE_FAULT_INJECTOR_H_
