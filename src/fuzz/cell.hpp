// hcs::fuzz -- one fuzz cell: a fully serialized simulation configuration
// plus the oracle that judges its run.
//
// A CellSpec pins everything a run depends on -- strategy, dimension,
// engine seed, delay model, wake policy, move semantics, fault workload,
// recovery policy, step budgets -- so a cell is replayable bit-for-bit
// from its JSON form alone. run_cell() executes the cell on the event
// engine with tracing on and evaluates the *failure predicates*:
//
//  * contract checks against the cell's Expect level (a fault-free run
//    must be correct in the Theorem 1/6 sense; a crash-only run with
//    recovery enabled must still capture; any run must at least end in a
//    principled state -- see Expect);
//  * structural trace invariants (sim/invariants.hpp);
//  * fault accounting identities from the degradation report;
//  * optionally a differential oracle: the same cell re-run on the
//    generic compressed-adjacency topology (Graph::without_topology_hint)
//    must produce a byte-identical trace and metrics -- the same pinning
//    the PR-5 differential suite does, applied to arbitrary fuzzed cells;
//  * optionally the engine oracle (spec.engine != kEvent): the strategy's
//    compiled macro program runs on sim::Engine driving ScheduleAgents
//    and, untraced, on sim::ShardedMacroEngine at the cell's shard count
//    -- and the metrics, run results and safety verdicts must agree.
//
// Failures come back as structured (kind, detail) records, so the
// campaign layer can persist them and the delta-debugger can test "does
// the same failure still fire" after each shrink step.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_key.hpp"
#include "core/strategy.hpp"
#include "fault/fault.hpp"
#include "run/sweep.hpp"
#include "util/json.hpp"

namespace hcs::fuzz {

/// The behavioural contract a cell is judged against. kAuto resolves from
/// the workload: fault-free cells must be kCorrect, crash-only cells with
/// recovery enabled must be kCaptured, other fault workloads must be
/// kPrincipled -- except under the vacate-on-departure ablation, where
/// monotonicity and capture are documented to fail (docs/MODEL.md section
/// 3) and only the structural checks (kSafety) apply.
enum class Expect : std::uint8_t {
  kAuto,
  kCorrect,     ///< outcome.correct(): clean, monotone, terminated, no abort
  kCaptured,    ///< outcome.captured(): clean even if degraded
  kPrincipled,  ///< captured, or fault-unrecoverable, or stranded waiters
  kSafety,      ///< trace invariants + differential determinism only
};

[[nodiscard]] const char* to_string(Expect expect);
[[nodiscard]] bool expect_from_string(std::string_view name, Expect* out);

enum class FailureKind : std::uint8_t {
  kUnexpectedAbort,        ///< abort reason the contract does not allow
  kCaptureFailure,         ///< network not clean though the contract demands it
  kMonotonicityViolation,  ///< recontamination in a fault-free run
  kStrandedAgents,         ///< fault-free run left agents blocked
  kAccountingMismatch,     ///< degradation counters broke an identity
  kTraceInvariant,         ///< structural trace violation (sim/invariants)
  kDifferentialDivergence, ///< implicit vs generic topology disagree
};

[[nodiscard]] const char* to_string(FailureKind kind);
[[nodiscard]] bool failure_kind_from_string(std::string_view name,
                                            FailureKind* out);

struct Failure {
  FailureKind kind = FailureKind::kUnexpectedAbort;
  std::string detail;
};

/// Largest hypercube dimension a cell may name. parse_cell_spec refuses a
/// dimension outside [1, kMaxCellDimension], and campaign axes are held to
/// the same bound, so every campaign cell replays from its artifact.
inline constexpr unsigned kMaxCellDimension = 24;

struct CellSpec {
  std::string strategy = "CLEAN";
  unsigned dimension = 4;
  std::uint64_t seed = 1;
  run::DelaySpec delay = run::DelaySpec::unit();
  sim::WakePolicy policy = sim::WakePolicy::kFifo;
  sim::MoveSemantics semantics = sim::MoveSemantics::kAtomicArrival;
  fault::FaultSpec faults;
  fault::RecoveryConfig recovery;
  std::uint64_t max_agent_steps = 50'000'000;
  std::uint64_t livelock_window = 1'000'000;
  Expect expect = Expect::kAuto;
  /// Run the generic-topology oracle and compare traces.
  bool differential = true;
  /// kEvent runs the primary cell only; kMacro/kAuto additionally run the
  /// macro-vs-event engine oracle when the cell is macro-eligible (fifo
  /// wake policy, unit delay, strategy with a compiled program). The field
  /// is omitted from the canonical JSON form at its kEvent default, so
  /// pre-engine-axis corpus hashes are unchanged.
  sim::EngineKind engine = sim::EngineKind::kEvent;
  /// Subcube shard count the engine oracle's macro run uses
  /// (sim/shard.hpp): the compiled program replays untraced on
  /// sim::ShardedMacroEngine at this count -- 1 included -- and its
  /// metrics, run result and safety verdicts are compared against the
  /// event oracle. Omitted from the canonical JSON at the default, like
  /// `engine`, so pre-shard-axis corpus hashes are unchanged.
  std::uint32_t shards = 1;

  /// The contract kAuto resolves to for this workload.
  [[nodiscard]] Expect resolved_expect() const;

  /// The run identity of this cell as an hcs::CellKey -- the same type
  /// the hcsd cache key uses. The oracle axes (expect, differential) are
  /// judgement configuration, not run identity, so they live beside the
  /// key in content_hash(), not in it.
  [[nodiscard]] CellKey key() const;

  [[nodiscard]] Json to_json() const;
  /// Canonical serialized form; equal specs render byte-equal.
  [[nodiscard]] std::string canonical() const { return to_json().dump(); }
  /// The cell's identity in manifests and artifact file names: FNV-1a 64
  /// (16 hex digits) over {cell: key(), expect, differential} in canonical
  /// JSON.
  [[nodiscard]] std::string content_hash() const;
};

[[nodiscard]] bool parse_cell_spec(const Json& json, CellSpec* out,
                                   std::string* error = nullptr);

struct CellResult {
  core::SimOutcome outcome;
  std::vector<Failure> failures;
  /// Every fault decision that fired during the primary run, deduplicated
  /// in firing order: the concretized schedule minimization starts from.
  std::vector<fault::FaultEvent> fired;

  [[nodiscard]] bool failed() const { return !failures.empty(); }
  /// Order-independent identity of the failure set ("capture-failure",
  /// "trace-invariant+unexpected-abort", "" when clean): the equivalence
  /// the delta-debugger preserves while shrinking.
  [[nodiscard]] std::string signature() const;
};

/// Signature a failure list would produce (sorted kinds joined with '+').
[[nodiscard]] std::string failure_signature(const std::vector<Failure>& fs);

/// Executes the cell and judges it. Deterministic: equal specs produce
/// equal results at any call site or thread.
[[nodiscard]] CellResult run_cell(const CellSpec& spec);

}  // namespace hcs::fuzz
