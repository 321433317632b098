// Built-in registry entries: the four paper strategies (Sections 3-5) and
// the two baseline sweeps (core/baselines). The paper strategies spawn
// their distributed protocols; the baselines have no distributed protocol
// of their own, so they spawn itinerary agents replaying their planner
// schedules (sim/replay) -- same engine, same contamination bookkeeping.

#include <memory>

#include "core/baselines.hpp"
#include "core/clean_cloning.hpp"
#include "core/clean_sync.hpp"
#include "core/clean_synchronous.hpp"
#include "core/clean_visibility.hpp"
#include "core/formulas.hpp"
#include "core/replay.hpp"
#include "core/strategy_registry.hpp"
#include "graph/builders.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/replay.hpp"

namespace hcs::core {
namespace {

class CleanStrategy final : public Strategy {
 public:
  const char* name() const override { return "CLEAN"; }
  const char* notes() const override {
    return "fewest agents; slow sequential sweep";
  }
  ExpectedCosts expected(unsigned d) const override {
    // Theorem 3's synchronizer total has no closed form (the navigation
    // component is only bounded); the counting-mode planner gives the exact
    // value of the paper's own arithmetic.
    const CleanSyncStats s = measure_clean_sync(d);
    return {clean_team_size(d), s.agent_moves + s.sync_moves_total,
            s.sync_moves_total};  // Theorem 4: time == synchronizer walk
  }
  std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const override {
    return spawn_clean_sync_team(engine, d);
  }
  bool has_macro_program() const override { return true; }
  std::optional<sim::MacroProgram> macro_program(unsigned d) const override {
    return compile_macro_program(plan_clean_sync(d));
  }
};

class VisibilityStrategy final : public Strategy {
 public:
  const char* name() const override { return "CLEAN-WITH-VISIBILITY"; }
  const char* notes() const override {
    return "fastest; needs neighbour-state visibility";
  }
  StrategyCaps required_capabilities() const override {
    return {.visibility = true};
  }
  ExpectedCosts expected(unsigned d) const override {
    return {visibility_team_size(d), visibility_moves(d),
            visibility_time(d)};
  }
  std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const override {
    return spawn_visibility_team(engine, d);
  }
  bool has_macro_program() const override { return true; }
  std::optional<sim::MacroProgram> macro_program(unsigned d) const override {
    return compile_macro_program(plan_clean_visibility(d));
  }
};

class CloningStrategy final : public Strategy {
 public:
  const char* name() const override { return "CLONING"; }
  const char* notes() const override {
    return "fewest moves; needs cloning capability";
  }
  StrategyCaps required_capabilities() const override {
    return {.visibility = true, .cloning = true};
  }
  ExpectedCosts expected(unsigned d) const override {
    return {cloning_agents(d), cloning_moves(d), visibility_time(d)};
  }
  std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const override {
    return spawn_cloning_team(engine, d);
  }
};

class SynchronousStrategy final : public Strategy {
 public:
  const char* name() const override { return "SYNCHRONOUS"; }
  const char* notes() const override {
    return "visibility-free; needs synchronous links";
  }
  StrategyCaps required_capabilities() const override {
    return {.synchronous = true};
  }
  ExpectedCosts expected(unsigned d) const override {
    return {visibility_team_size(d), visibility_moves(d),
            visibility_time(d)};
  }
  std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const override {
    return spawn_synchronous_team(engine, d);
  }
  bool has_macro_program() const override { return true; }
  std::optional<sim::MacroProgram> macro_program(unsigned d) const override {
    // Algorithm 2's wave schedule, which the synchronous protocol realizes
    // without visibility (Section 5): same plan as CLEAN-WITH-VISIBILITY.
    return compile_macro_program(plan_clean_visibility(d));
  }
};

class NaiveLevelSweepStrategy final : public Strategy {
 public:
  const char* name() const override { return "NAIVE-LEVEL-SWEEP"; }
  const char* notes() const override {
    return "baseline; no coordination tricks";
  }
  ExpectedCosts expected(unsigned d) const override {
    // Moves: sum_l 2 l C(d,l) = n log n, executed as singleton rounds.
    return {naive_sweep_team_size(d), n_log_n(d), n_log_n(d)};
  }
  std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const override {
    const SearchPlan plan = plan_naive_level_sweep(d);
    sim::spawn_itinerary_team(engine, plan_to_itineraries(plan),
                              plan.num_rounds());
    return plan.num_agents;
  }
  bool has_macro_program() const override { return true; }
  std::optional<sim::MacroProgram> macro_program(unsigned d) const override {
    return compile_macro_program(plan_naive_level_sweep(d));
  }
};

class TreeSweepStrategy final : public Strategy {
 public:
  const char* name() const override { return "TREE-SWEEP"; }
  const char* notes() const override {
    return "baseline; searches only the broadcast-tree skeleton T(d)";
  }
  bool covers_hypercube() const override { return false; }
  graph::Graph build_graph(unsigned d) const override {
    return graph::make_broadcast_tree_graph(d);
  }
  ExpectedCosts expected(unsigned d) const override {
    ExpectedCosts costs;
    costs.agents = broadcast_tree_search_number(d);
    // No closed form for the optimal tree schedule's moves; materialize the
    // plan where that is cheap and leave 0 (= unknown) beyond.
    if (d <= 16) {
      const SearchPlan plan = make_plan(d);
      costs.moves = plan.total_moves();
      costs.time = plan.num_rounds();  // singleton rounds
    }
    return costs;
  }
  std::uint64_t spawn_team(sim::Engine& engine, unsigned d) const override {
    const SearchPlan plan = make_plan(d);
    sim::spawn_itinerary_team(engine, plan_to_itineraries(plan),
                              plan.num_rounds());
    return plan.num_agents;
  }
  bool has_macro_program() const override { return true; }
  std::optional<sim::MacroProgram> macro_program(unsigned d) const override {
    return compile_macro_program(make_plan(d));
  }

 private:
  static SearchPlan make_plan(unsigned d) {
    const graph::Graph g = graph::make_broadcast_tree_graph(d);
    const graph::SpanningTree tree = graph::bfs_spanning_tree(g, 0);
    return plan_tree_search(g, tree);
  }
};

}  // namespace

namespace detail {

void register_builtin_strategies(StrategyRegistry& registry) {
  registry.add(std::make_unique<CleanStrategy>());
  registry.add(std::make_unique<VisibilityStrategy>());
  registry.add(std::make_unique<CloningStrategy>());
  registry.add(std::make_unique<SynchronousStrategy>());
  registry.add(std::make_unique<NaiveLevelSweepStrategy>());
  registry.add(std::make_unique<TreeSweepStrategy>());
}

}  // namespace detail
}  // namespace hcs::core
