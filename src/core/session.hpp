// hcs::Session -- the front door of the library.
//
// A Session owns one run configuration (dimension + sim::RunOptions) and
// executes registry strategies against it:
//
//   hcs::Session session({.dimension = 6});
//   hcs::core::SimOutcome outcome = session.run("CLEAN");
//
// is the whole quickstart. Under the hood a run builds the strategy's
// topology, wires a Network/Engine with the session's options, spawns the
// team, runs to quiescence, and reports -- exactly what the historical
// run_strategy_sim free function did, which now forwards here.
//
// Extras over the bare harness:
//  * `setup` hook: called after the team is spawned, before the run, with
//    the live Network/Engine -- the place to attach intruders, extra
//    agents, or status callbacks without abandoning the one-call surface.
//  * trace retention: with options.trace set, the full event trace of the
//    last run stays on the session (trace()/take_trace()).
//  * observability: with options.obs set, the run is wrapped in a
//    "session.run" wall span, run.* counters are emitted, and -- when the
//    trace is also on and the topology is a hypercube -- per-level
//    sim-time spans ("level k" on track "sim/levels") are derived from the
//    status-change events, so profiles show the cleaning wave climbing the
//    levels even for strategies with no hand-placed phase marks.
//
// A single run is not checkpointed. It is a pure function of its
// hcs::CellKey, so the way to resume one (or a sweep of them) is to run
// it again; only fuzz campaigns checkpoint, per batch of cells
// (docs/CHECKPOINT.md).

#pragma once

#include <functional>
#include <string_view>

#include "core/strategy.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "sim/trace.hpp"

namespace hcs {

struct SessionConfig {
  /// Hypercube dimension d; strategies search build_graph(d).
  unsigned dimension = 4;
  /// Engine + harness options (delay model, seed, trace, faults, obs...).
  sim::RunOptions options;
  /// Optional hook run after the team is spawned and before the engine
  /// starts: attach intruders, spawn extra agents, add callbacks.
  std::function<void(sim::Network&, sim::Engine&)> setup;
};

class Session {
 public:
  Session() = default;
  explicit Session(SessionConfig config) : config_(std::move(config)) {}

  /// Runs `strategy_name` (a StrategyRegistry key, case-insensitive;
  /// unknown names abort) end-to-end and reports. Reentrant: each call
  /// builds a fresh Network/Engine.
  core::SimOutcome run(std::string_view strategy_name);

  /// Enum convenience for the paper's four algorithms.
  core::SimOutcome run(core::StrategyKind kind) {
    return run(core::strategy_name(kind));
  }

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] SessionConfig& config() { return config_; }

  /// The event trace of the last run (empty unless options.trace is set).
  [[nodiscard]] const sim::Trace& trace() const { return trace_; }
  /// Moves the retained trace out (the session keeps an empty one).
  [[nodiscard]] sim::Trace take_trace() { return std::move(trace_); }

 private:
  SessionConfig config_;
  sim::Trace trace_;
};

}  // namespace hcs
