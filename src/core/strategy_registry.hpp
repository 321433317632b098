// The strategy protocol layer: a string-keyed registry of search
// strategies.
//
// Every quantitative claim in the paper -- and every bench table -- has the
// shape "run strategy X on H_d and measure agents/moves/time". A Strategy
// bundles what that takes: a factory that spawns the team into an engine, a
// topology builder (H_d for the paper strategies; the tree-only baseline
// searches T(d)), capability metadata (visibility / cloning / synchrony
// requirements, and whether the sweep compiles to a macro program), and the
// closed-form expected costs from core/formulas.
//
// The registry decouples strategy *implementations* from the run harness:
// run_strategy_sim, the sweep runner (src/run), the audit planner, and the
// bench binaries all resolve strategies by name, so adding a strategy means
// registering it -- no switch statements to extend. Built-ins (the four
// paper strategies plus the two baseline sweeps) are registered on first
// access; external code may add more via StrategyRegistry::instance().add.
//
// Thread-safety: registration happens during the first instance() call (or
// explicitly before spawning workers); after that the registry is
// read-only, so concurrent lookups from sweep worker threads are safe.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/macro_engine.hpp"

namespace hcs::core {

/// Capabilities a strategy demands from the deployment (cf.
/// AuditCapabilities, which states what the deployment offers).
struct StrategyCaps {
  bool visibility = false;   ///< reads neighbour states (Section 4 model)
  bool cloning = false;      ///< spawns clones mid-run (Section 5)
  bool synchronous = false;  ///< needs lock-step unit-time links (Section 5)
};

/// Closed-form per-sweep costs (core/formulas); 0 = no closed form known.
struct ExpectedCosts {
  std::uint64_t agents = 0;
  std::uint64_t moves = 0;
  std::uint64_t time = 0;  ///< ideal time units
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Registry key, e.g. "CLEAN" or "NAIVE-LEVEL-SWEEP".
  [[nodiscard]] virtual const char* name() const = 0;

  /// One-line characterization for audit reports and --list output.
  [[nodiscard]] virtual const char* notes() const { return ""; }

  [[nodiscard]] virtual StrategyCaps required_capabilities() const {
    return {};
  }

  /// Does the engine need the Section 4 visibility model enabled?
  [[nodiscard]] bool needs_visibility() const {
    return required_capabilities().visibility;
  }

  /// True when a sweep of the built topology guarantees capture in H_d.
  /// The tree-only baseline returns false: it cleans the broadcast-tree
  /// skeleton, not the hypercube.
  [[nodiscard]] virtual bool covers_hypercube() const { return true; }

  /// The topology the strategy searches for dimension d. Defaults to H_d
  /// with homebase 0; the tree-only baseline overrides it with T(d).
  [[nodiscard]] virtual graph::Graph build_graph(unsigned d) const;

  /// Expected costs from the paper's theorems (see ExpectedCosts).
  [[nodiscard]] virtual ExpectedCosts expected(unsigned d) const = 0;

  /// Spawns the team into `engine`, whose network must be build_graph(d)
  /// with homebase 0 and visibility == needs_visibility(). Returns the
  /// number of agents spawned up front (clones excluded). Must be safe to
  /// call concurrently on distinct engines (no shared mutable state).
  virtual std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const = 0;

  /// The strategy's move schedule as a compiled macro program, when its
  /// sweep reduces to one (deterministic plan, no mid-run decisions): the
  /// same team, traversals and ideal-time schedule as spawn_team's
  /// protocol run, shorn of the coordination machinery (whiteboard
  /// handshakes, synchronizer trips) that implements it distributedly.
  /// Executing the program through sim::ShardedMacroEngine is
  /// bit-identical to executing it through spawn_macro_team on an event
  /// engine (the macro differential suite pins that); it is *not*
  /// step-identical to the protocol run. nullopt (the default) means the
  /// strategy is event-only; Session's EngineKind::kAuto then falls back
  /// to the event engine.
  [[nodiscard]] virtual std::optional<sim::MacroProgram> macro_program(
      unsigned /*d*/) const {
    return std::nullopt;
  }

  /// True iff macro_program() returns a program, at every d. Answers the
  /// question without building the schedule, so hcsd's admission step
  /// costs no planning; an override of macro_program overrides this too.
  [[nodiscard]] virtual bool has_macro_program() const { return false; }
};

class StrategyRegistry {
 public:
  /// The process-wide registry, with the built-in strategies registered.
  [[nodiscard]] static StrategyRegistry& instance();

  /// Registers a strategy; the name must be unused.
  void add(std::unique_ptr<Strategy> strategy);

  /// Case-insensitive lookup; nullptr when absent.
  [[nodiscard]] const Strategy* find(std::string_view name) const;

  /// Lookup that aborts (precondition violation) when absent.
  [[nodiscard]] const Strategy& get(std::string_view name) const;

  /// Registered names, in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return strategies_.size(); }

 private:
  StrategyRegistry() = default;

  std::vector<std::unique_ptr<Strategy>> strategies_;
};

namespace detail {
/// Defined in strategy_builtins.cpp; called once by instance().
void register_builtin_strategies(StrategyRegistry& registry);
}  // namespace detail

}  // namespace hcs::core
