// hcs::fault -- deterministic fault injection for the simulator stack.
//
// The paper's model assumes perfectly reliable agents and whiteboards;
// monotonicity (Theorems 1 and 6) is proved under that assumption and
// never defended against failures. This module makes the assumption a
// measurable axis: a FaultSpec names a fault workload (crash-stop agents,
// whiteboard entry loss/corruption, dropped wake signals, transiently
// stalled links), and a FaultSchedule turns it into deterministic
// decisions keyed on *logical* counters -- "agent a's k-th traversal",
// "node v's j-th whiteboard write" -- never on wall-clock time or RNG
// state shared with the engine. Consequences:
//
//  * an empty spec is exactly the fault-free simulator: no decision is
//    ever drawn, the engine's RNG stream is untouched, and runs are
//    byte-identical to pre-fault behaviour;
//  * a given (seed, spec) replays the same schedule in the discrete-event
//    Engine regardless of sweep thread count;
//  * decisions are stateless hashes, so injection sites need no shared
//    mutable state and no locking.
//
// The DegradationReport accounts for every injected fault: persistent
// faults (crashes, whiteboard damage) are detected by the recovery layer's
// heartbeat rounds and repaired by the reclean planner (reclean.hpp);
// transient faults (dropped wakes, stalled links) leave no state damage
// and are reported as such.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcs::fault {

enum class FaultKind : std::uint8_t {
  kCrashAtNode,   ///< agent crash-stops at its node instead of departing
  kCrashInTransit,///< agent crash-stops mid-edge (origin is vacated)
  kWhiteboardLoss,///< a just-committed whiteboard write is lost
  kWhiteboardCorrupt, ///< a just-committed write is replaced with garbage
  kDroppedWake,   ///< a wake/notify signal at a node is lost
  kLinkStall,     ///< one traversal is transiently slowed by stall_factor
};

[[nodiscard]] const char* to_string(FaultKind kind);
/// Inverse of to_string; false when `name` matches no kind. Every kind --
/// including "crash-in-transit" and "link-stall" -- round-trips, which the
/// JSON serialization (fault_io.hpp) and its property test rely on.
[[nodiscard]] bool from_string(std::string_view name, FaultKind* out);

/// One explicit fault: fire `kind` when `entity`'s logical counter for that
/// kind reaches `index`. The entity is an agent id for crash/stall kinds
/// and a node for whiteboard/wake kinds; the counter is the agent's
/// traversal count or the node's write/wake count respectively.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrashAtNode;
  std::uint32_t entity = 0;
  std::uint64_t index = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A fault workload: per-kind rates (probability per logical opportunity)
/// plus an optional explicit event list, under an independent seed.
struct FaultSpec {
  /// Probability that a traversal decision becomes a crash-stop instead
  /// (split between at-node and mid-edge by a second coin).
  double crash_rate = 0.0;
  /// Probability that a committed whiteboard write is immediately lost.
  double wb_loss_rate = 0.0;
  /// Probability that a committed write is replaced with a garbage value.
  double wb_corrupt_rate = 0.0;
  /// Probability that a wake signal delivered to a node with waiters is
  /// dropped.
  double wake_drop_rate = 0.0;
  /// Probability that one traversal is stretched by stall_factor.
  double link_stall_rate = 0.0;
  double stall_factor = 8.0;
  /// Seed of the fault stream. Independent of the engine seed: faulty and
  /// fault-free runs share the exact same scheduling randomness.
  std::uint64_t seed = 1;
  /// Explicit faults, applied in addition to the rates.
  std::vector<FaultEvent> events;

  [[nodiscard]] static FaultSpec none() { return {}; }
  /// Crash-stop-only workload, the acceptance scenario.
  [[nodiscard]] static FaultSpec crashes(double rate, std::uint64_t seed = 1) {
    FaultSpec spec;
    spec.crash_rate = rate;
    spec.seed = seed;
    return spec;
  }

  /// True when no rate is set and no event is listed: the schedule never
  /// fires and the simulator behaves exactly as without this module.
  [[nodiscard]] bool empty() const;

  /// Stable human/CSV label: "none", "crash(0.05)",
  /// "crash(0.05)+wbloss(0.01)", with "+events[3]" appended when explicit
  /// events are present.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Recovery policy for runs with an active schedule (see
/// sim/recovery.hpp for the mechanism).
struct RecoveryConfig {
  bool enabled = true;
  /// Bounded retry: maximum repair waves before declaring the run
  /// fault-unrecoverable.
  unsigned max_rounds = 16;
  /// Heartbeat timeout charged (in sim time) before each repair wave: the
  /// synchronizer-side detection delay for declaring agents dead.
  double detect_timeout = 1.0;
  /// Backoff multiplier applied to the timeout after every wave.
  double backoff = 1.5;

  friend bool operator==(const RecoveryConfig&, const RecoveryConfig&) =
      default;
};

/// Deterministic decision source for one run. All queries are pure
/// functions of (spec.seed, kind, entity, index); injection sites maintain
/// their own logical counters.
class FaultSchedule {
 public:
  FaultSchedule() = default;  ///< inactive: every query returns false
  explicit FaultSchedule(FaultSpec spec);

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// Crash decision for an agent's `move_index`-th traversal (0-based).
  [[nodiscard]] bool crash_at_node(std::uint32_t agent,
                                   std::uint64_t move_index) const;
  [[nodiscard]] bool crash_in_transit(std::uint32_t agent,
                                      std::uint64_t move_index) const;
  /// Whiteboard damage decision for a node's `write_index`-th write.
  [[nodiscard]] bool lose_write(std::uint32_t node,
                                std::uint64_t write_index) const;
  [[nodiscard]] bool corrupt_write(std::uint32_t node,
                                   std::uint64_t write_index) const;
  /// Deterministic garbage value for a corrupted write.
  [[nodiscard]] std::int64_t corrupt_value(std::uint32_t node,
                                           std::uint64_t write_index) const;
  /// Wake-drop decision for a node's `wake_index`-th meaningful wake.
  [[nodiscard]] bool drop_wake(std::uint32_t node,
                               std::uint64_t wake_index) const;
  /// Stall decision for an agent's `move_index`-th traversal.
  [[nodiscard]] bool stall_link(std::uint32_t agent,
                                std::uint64_t move_index) const;
  [[nodiscard]] double stall_factor() const { return spec_.stall_factor; }

  /// Shrink hook for the fuzz delta-debugger: while set, every decision
  /// that fires is appended to `sink` as an explicit FaultEvent. Replacing
  /// the spec's rates with the recorded list (rates zeroed, seed kept)
  /// reproduces the identical schedule through `listed()`, which is the
  /// concretization step minimization starts from. Single-threaded use
  /// only: one engine per schedule.
  void set_fired_sink(std::vector<FaultEvent>* sink) { fired_ = sink; }

 private:
  [[nodiscard]] bool coin(FaultKind kind, std::uint32_t entity,
                          std::uint64_t index, double rate) const;
  [[nodiscard]] bool listed(FaultKind kind, std::uint32_t entity,
                            std::uint64_t index) const;

  /// Appends to the fired sink (no-op when unset). Const because decision
  /// queries are const; the sink is caller-owned scratch, not schedule
  /// state.
  void record_fired(FaultKind kind, std::uint32_t entity,
                    std::uint64_t index) const {
    if (fired_ != nullptr) fired_->push_back({kind, entity, index});
  }

  FaultSpec spec_;
  bool active_ = false;
  std::vector<FaultEvent>* fired_ = nullptr;
};

/// Structured account of a faulty run: every injected fault, what the
/// recovery layer detected and repaired, and what the repair cost. Empty
/// (all zeros) for fault-free runs.
struct DegradationReport {
  // --- injection ------------------------------------------------------
  std::uint64_t crashes = 0;          ///< crash-stops (at node + mid-edge)
  std::uint64_t crashes_in_transit = 0; ///< subset of `crashes`
  std::uint64_t wb_entries_lost = 0;
  std::uint64_t wb_entries_corrupted = 0;
  std::uint64_t wakes_dropped = 0;
  std::uint64_t links_stalled = 0;

  // --- detection & recovery -------------------------------------------
  std::uint64_t crashes_detected = 0;   ///< declared dead by heartbeat
  std::uint64_t wb_faults_detected = 0; ///< damaged entries found by audit
  std::uint64_t faults_recovered = 0;   ///< persistent faults repaired
  std::uint64_t recovery_rounds = 0;    ///< repair waves dispatched
  std::uint64_t repair_agents = 0;      ///< replacements from the root pool
  std::uint64_t recovery_moves = 0;     ///< edge traversals by repair agents
  double recovery_time = 0.0;           ///< sim time spent in recovery
  /// Recontamination events directly caused by a fault (a crash vacating a
  /// guarded node). total recontaminations - attributed = protocol-induced
  /// under degraded information.
  std::uint64_t recontaminations_attributed = 0;
  /// Protocol agents still blocked at the end (their partner died or a
  /// wake was lost); they are declared lost, not failures of the run.
  std::uint64_t agents_stranded = 0;

  /// Faults injected, over every kind.
  [[nodiscard]] std::uint64_t injected_total() const {
    return crashes + wb_entries_lost + wb_entries_corrupted + wakes_dropped +
           links_stalled;
  }
  /// Persistent faults (state damage) vs transient (self-healing).
  [[nodiscard]] std::uint64_t injected_persistent() const {
    return crashes + wb_entries_lost + wb_entries_corrupted;
  }
  [[nodiscard]] std::uint64_t injected_transient() const {
    return wakes_dropped + links_stalled;
  }
  [[nodiscard]] bool empty() const { return injected_total() == 0; }

  /// One-line human summary.
  [[nodiscard]] std::string summary() const;
};

}  // namespace hcs::fault
