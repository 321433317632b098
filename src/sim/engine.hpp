// The discrete-event engine that executes agent protocols asynchronously.
//
// Model (Section 2 of the paper):
//  * agents perform atomic steps; each step reads/writes the local
//    whiteboard in mutual exclusion and returns one Action;
//  * moving along an edge takes a finite but unpredictable time, sampled
//    from the configured DelayModel;
//  * a waiting agent is woken by any observable change at its node --
//    whiteboard write, agent arrival or departure -- and, when the
//    visibility model (Section 4) is enabled, by status changes at
//    neighbouring nodes;
//  * the wake policy chooses which runnable agent steps next: kFifo gives
//    deterministic runs, kRandom explores adversarial interleavings.
//
// run() executes until quiescence: no runnable agents and no pending
// events. Agents still blocked in wait() at quiescence are reported (a
// correct protocol terminates everyone).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/agent.hpp"
#include "sim/delay.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "sim/types.hpp"
#include "sim/wb_journal.hpp"
#include "util/rng.hpp"

namespace hcs::sim {

class Engine {
 public:
  /// Back-compat alias: the policy enum moved to namespace scope
  /// (sim/options.hpp) with the RunOptions redesign.
  using WakePolicy = sim::WakePolicy;

  /// The engine consumes the unified options struct directly. Note that
  /// `trace` and `semantics` are harness-level options: the engine never
  /// touches the Network's trace switch or move semantics (direct-engine
  /// callers configure the Network themselves; Session applies them).
  using Config = RunOptions;

  struct RunResult {
    bool all_terminated = false;
    /// Why the run was cut off, or kNone when it reached quiescence.
    /// Aborted runs report the partial metrics accumulated so far; sweeps
    /// use the reason to flag pathological configurations.
    AbortReason abort_reason = AbortReason::kNone;
    std::size_t terminated = 0;
    std::size_t waiting = 0;
    /// Agents removed by injected crash-stops.
    std::size_t crashed = 0;
    SimTime end_time = kTimeZero;
    /// Time at which the last contaminated node was cleared, or < 0 if the
    /// network never became clean.
    SimTime capture_time = -1.0;
    /// Fault accounting; all zeros for fault-free runs.
    fault::DegradationReport degradation;

    [[nodiscard]] bool aborted() const {
      return abort_reason != AbortReason::kNone;
    }
  };

  Engine(Network& net, Config cfg);
  /// Clears any fault write hooks (they capture `this`) so the Network can
  /// outlive the engine.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Places an agent at a node (typically the homebase) at the current
  /// time. May be called before run() or from outside between runs.
  AgentId spawn(std::unique_ptr<Agent> agent, graph::Vertex at);

  /// Runs to quiescence.
  RunResult run();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Network& network() { return *net_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_agents() const { return agents_.size(); }

  /// Current node of an agent (its origin while in transit).
  [[nodiscard]] graph::Vertex agent_position(AgentId a) const;

  /// Registers an observer called after an agent crash-stops. Returning
  /// true requests a global wake (the recovery layer uses this to hand a
  /// repair wave's turn past a dead walker).
  void add_crash_observer(std::function<bool(AgentId)> cb) {
    crash_observers_.push_back(std::move(cb));
  }

  [[nodiscard]] const fault::FaultSchedule& fault_schedule() const {
    return fault_sched_;
  }
  /// Mutable access for pre-run instrumentation (the fuzz minimizer's
  /// fired-event sink); do not mutate once run() has started.
  [[nodiscard]] fault::FaultSchedule& fault_schedule() {
    return fault_sched_;
  }

 private:
  friend class AgentContext;

  enum class AgentState : std::uint8_t {
    kRunnable,
    kWaiting,
    kWaitingGlobal,
    kInTransit,
    kSleeping,
    kCrashed,
    kDone,
  };

  /// Scheduling state lives outside the record, in agent_state_: the wake
  /// loops scan states for whole waiter lists, and a dense byte vector
  /// keeps that scan on one cache line instead of hopping deque chunks.
  struct AgentRecord {
    std::unique_ptr<Agent> logic;
    graph::Vertex at = 0;
    graph::Vertex moving_to = 0;
    std::string role;
    /// Interned role, resolved once at spawn: per-move role accounting and
    /// the intruder exemption check never touch the string again.
    WbKey role_key;
    /// The intruder is part of the threat model, not of the searcher team,
    /// and never draws fault coins.
    bool fault_exempt = false;
    /// Logical traversal counter: the fault key for crash/stall decisions.
    std::uint64_t moves = 0;
    /// Set when a crash-in-transit was drawn at departure; the agent dies
    /// at the scheduled arrival instant without ever arriving.
    bool crash_on_arrival = false;
  };

  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break for equal times
    AgentId agent;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void step_agent(AgentId a);
  void handle_event(const Event& e);
  AgentId pick_runnable();
  /// Runnable agents not yet picked (runnable_ is consumed from a moving
  /// head index so the FIFO pop is O(1); the spent prefix is compacted
  /// lazily).
  [[nodiscard]] std::size_t runnable_count() const {
    return runnable_.size() - runnable_head_;
  }
  void make_runnable(AgentId a);
  void wake_node(graph::Vertex v);
  void wake_global();
  void on_status_change(graph::Vertex v, NodeStatus s, SimTime t);
  void schedule(AgentId a, SimTime at);

  void run_to_quiescence();
  void crash_agent(AgentId a, bool counted_at, const char* what);
  void install_wb_hooks();
  void restore_whiteboards();
  void redeliver_wakes();
  void run_recovery();

  /// Strategy phase marker on a logical sim-time track: closes the track's
  /// open phase at now() and opens `name`. No-op without a registry.
  void obs_sim_phase(const std::string& track, std::string name);
  /// Merges the per-run tallies below into cfg_.obs (once, at end of run).
  void obs_flush();

  Network* net_;
  Config cfg_;
  Rng rng_;
  fault::FaultSchedule fault_sched_;
  fault::DegradationReport degradation_;
  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t steps_taken_ = 0;
  std::uint64_t last_progress_step_ = 0;
  AbortReason abort_reason_ = AbortReason::kNone;
  bool captured_ = false;
  SimTime capture_time_ = -1.0;

  /// Agent::step may spawn clones mid-step, which can reallocate this
  /// vector: step_agent re-fetches its record after the step() call instead
  /// of holding a reference across it (the Agent objects themselves live
  /// behind unique_ptr and never move).
  std::vector<AgentRecord> agents_;
  /// Indexed by AgentId, parallel to agents_. Always access by index (a
  /// clone's push_back may reallocate), never by held reference.
  std::vector<AgentState> agent_state_;
  std::vector<AgentId> runnable_;
  std::size_t runnable_head_ = 0;
  std::vector<std::vector<AgentId>> waiting_at_;  // per node
  std::vector<AgentId> waiting_global_;
  /// Pending events as an explicit binary min-heap (std::push_heap /
  /// std::pop_heap with std::greater): same ordering contract as the old
  /// std::priority_queue, but the backing vector is reservable and its
  /// capacity survives for the whole run.
  std::vector<Event> events_;
  /// Reused by wake_node / wake_global to detach the waiter list before
  /// stepping through it (waiters re-register if still unmet); member
  /// scratch so per-wake allocations vanish. Guarded against re-entrant
  /// use by in_wake_ below.
  std::vector<AgentId> wake_scratch_;
  std::vector<AgentId> wake_global_scratch_;
  bool in_wake_ = false;

  // --- fault machinery (all empty/idle when the schedule is inactive) ---
  std::vector<std::function<bool(AgentId)>> crash_observers_;
  /// Per-node logical counters: meaningful wakes (a waiter was present)
  /// and committed whiteboard writes. Fault keys, never engine state.
  std::vector<std::uint64_t> wake_count_;
  std::vector<std::uint64_t> wb_write_count_;
  /// Nodes whose wake signal was dropped; recovery re-delivers them.
  std::vector<graph::Vertex> dropped_wake_nodes_;
  /// (node, key) -> last good committed value for entries the fault layer
  /// damaged; models the recovery layer re-deriving lost whiteboard state
  /// from neighbours (see docs/MODEL.md). Cleared by later good writes.
  WbJournal wb_journal_;

  // --- observability (hot path: plain increments on a local struct; the
  // registry is only touched once per run, in obs_flush) ---
  struct ObsTallies {
    std::uint64_t spawns = 0;
    std::uint64_t move_starts = 0;
    std::uint64_t move_ends = 0;
    std::uint64_t status_changes = 0;
    std::uint64_t wb_writes = 0;
    std::uint64_t terminations = 0;
    std::uint64_t customs = 0;
    std::uint64_t node_wakes = 0;
    std::uint64_t global_wakes = 0;
    std::uint64_t events = 0;
    std::size_t peak_queue = 0;
  } obs_tallies_;
  /// Open sim-time phase per track: name and start time. A flat vector
  /// (tracks number one or two per run) found by linear scan.
  struct ObsPhase {
    std::string track;
    std::string name;
    SimTime start = kTimeZero;
  };
  std::vector<ObsPhase> obs_phases_;
};

// ------------------------------------------------ AgentContext hot path
//
// Defined here rather than in agent.hpp because the bodies need the Engine
// definition. Every strategy TU includes engine.hpp, so the per-step
// whiteboard and status accesses inline straight into the agent's step()
// body -- these are the innermost reads of the simulator.

inline SimTime AgentContext::now() const { return engine_.now(); }

inline const graph::Graph& AgentContext::graph() const {
  return engine_.network().graph();
}

inline std::size_t AgentContext::agents_here() const {
  return engine_.network().agents_at(here_);
}

inline NodeStatus AgentContext::status(graph::Vertex v) const {
  if (v != here_) {
    HCS_EXPECTS(engine_.config().visibility &&
                "neighbour status requires the visibility model");
    HCS_EXPECTS(engine_.network().graph().has_edge(here_, v));
  }
  return engine_.network().status(v);
}

inline bool AgentContext::visibility() const {
  return engine_.config().visibility;
}

inline bool AgentContext::obs_enabled() const {
  return obs::kEnabled && engine_.config().obs != nullptr;
}

inline std::int64_t AgentContext::wb_get(WbKey key,
                                         std::int64_t fallback) const {
  return engine_.network().whiteboard(here_).get(key, fallback);
}

inline void AgentContext::wb_set(WbKey key, std::int64_t value) {
  engine_.network().whiteboard(here_).set(key, value);
  ++engine_.obs_tallies_.wb_writes;
  // Guard before building the event: the detail string copy must not be
  // paid when tracing is off (asserted in test_trace.cpp).
  if (Trace& trace = engine_.network().trace(); trace.enabled()) {
    trace.record({now(), TraceKind::kWhiteboard, self_, here_, here_,
                  wb_key_name(key)});
  }
  engine_.wake_node(here_);
}

inline std::int64_t AgentContext::wb_add(WbKey key, std::int64_t delta) {
  const std::int64_t v = engine_.network().whiteboard(here_).add(key, delta);
  ++engine_.obs_tallies_.wb_writes;
  if (Trace& trace = engine_.network().trace(); trace.enabled()) {
    trace.record({now(), TraceKind::kWhiteboard, self_, here_, here_,
                  wb_key_name(key)});
  }
  engine_.wake_node(here_);
  return v;
}

}  // namespace hcs::sim
