// Differential testing: sim::Network maintains contamination
// *incrementally* (vacate checks + flood); intruder::contamination_closure
// recomputes it *from scratch*. Under random agent behaviour -- including
// deliberately unsafe wandering that triggers recontamination -- the two
// must agree after every event. This pins the simulator's bookkeeping to
// the declarative worst-case-intruder semantics.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/strategy_registry.hpp"
#include "fault/fault.hpp"
#include "graph/builders.hpp"
#include "intruder/contamination.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace hcs {
namespace {

/// Recomputes the expected contaminated set from the network's observable
/// state: closure of the currently contaminated set under unguarded
/// reachability... the closure needs the *history*, so we instead maintain
/// a reference model in parallel and compare after every operation.
class ReferenceModel {
 public:
  ReferenceModel(const graph::Graph& g, graph::Vertex homebase)
      : g_(&g),
        guards_(g.num_nodes(), 0),
        contaminated_(intruder::initial_contamination(g, homebase)) {}

  void place(graph::Vertex v) {
    ++guards_[v];
    contaminated_[v] = false;
  }

  void move(graph::Vertex from, graph::Vertex to) {
    // Atomic hand-over: arrival first.
    ++guards_[to];
    contaminated_[to] = false;
    --guards_[from];
    recompute();
  }

  [[nodiscard]] bool contaminated(graph::Vertex v) const {
    return contaminated_[v];
  }

 private:
  void recompute() {
    std::vector<bool> guarded(g_->num_nodes());
    for (graph::Vertex v = 0; v < g_->num_nodes(); ++v) {
      guarded[v] = guards_[v] > 0;
    }
    contaminated_ =
        intruder::contamination_closure(*g_, guarded, contaminated_);
  }

  const graph::Graph* g_;
  std::vector<std::uint32_t> guards_;
  std::vector<bool> contaminated_;
};

void compare(const sim::Network& net, const ReferenceModel& ref,
             const graph::Graph& g, int step) {
  for (graph::Vertex v = 0; v < g.num_nodes(); ++v) {
    const bool sim_contaminated =
        net.status(v) == sim::NodeStatus::kContaminated;
    ASSERT_EQ(sim_contaminated, ref.contaminated(v))
        << "divergence at node " << v << " after step " << step;
  }
}

void run_differential(const graph::Graph& g, std::size_t num_agents,
                      std::uint64_t seed, int steps) {
  sim::Network net(g, 0);
  ReferenceModel ref(g, 0);
  Rng rng(seed);

  std::vector<graph::Vertex> where(num_agents, 0);
  for (sim::AgentId a = 0; a < num_agents; ++a) {
    net.on_agent_placed(a, 0, 0.0);
    ref.place(0);
  }
  compare(net, ref, g, -1);

  for (int s = 0; s < steps; ++s) {
    const auto a = static_cast<sim::AgentId>(rng.below(num_agents));
    std::vector<graph::Vertex> nbrs;
    graph::for_each_neighbor(g, where[a],
                             [&](graph::Vertex w) { nbrs.push_back(w); });
    const graph::Vertex to = nbrs[rng.below(nbrs.size())];
    // Drive the network exactly as the engine would (atomic arrival).
    net.on_agent_departed(a, where[a], to, s, "agent");
    net.on_agent_arrived(a, to, where[a], s + 0.5);
    ref.move(where[a], to);
    where[a] = to;
    compare(net, ref, g, s);
  }
}

TEST(Differential, RandomWalksOnHypercube) {
  run_differential(graph::make_hypercube(4), 3, 11, 400);
  run_differential(graph::make_hypercube(5), 5, 12, 400);
}

TEST(Differential, RandomWalksOnRingAndGrid) {
  run_differential(graph::make_ring(9), 2, 13, 300);
  run_differential(graph::make_grid(4, 4), 3, 14, 300);
}

TEST(Differential, SingleAgentThrashing) {
  // One agent wandering recontaminates constantly; bookkeeping must track
  // every flood exactly.
  run_differential(graph::make_hypercube(3), 1, 15, 500);
}

TEST(Differential, ManyAgentsConverge) {
  // With as many agents as nodes the walk eventually cleans everything;
  // agreement must hold throughout, including the final all-clean state.
  const graph::Graph g = graph::make_hypercube(3);
  run_differential(g, 8, 16, 800);
}

// ===================================================================
// Strategy-level differential: the implicit hypercube topology (bit
// arithmetic behind neighbor_via / has_edge / the wake flood) against the
// generic compressed-adjacency path (Graph::without_topology_hint()). Every
// registered strategy, fixed seed, random wake policy: the full Metrics
// struct and the full trace event sequence must be byte-identical -- the
// fast paths are an encoding change, never a behaviour change.

struct CapturedRun {
  sim::Metrics metrics;
  std::vector<sim::TraceEvent> events;
  bool all_terminated = false;
  sim::AbortReason abort_reason = sim::AbortReason::kNone;
  double capture_time = -1.0;
};

CapturedRun run_strategy_on(const core::Strategy& strategy,
                            const graph::Graph& g, unsigned d,
                            sim::MoveSemantics semantics, double fault_rate) {
  sim::Network net(g, 0);
  net.set_move_semantics(semantics);
  net.trace().enable(true);
  sim::RunOptions cfg;
  // kRandom also pins the RNG stream: a fast path that consumed a draw
  // differently would desynchronize every event after it.
  cfg.policy = sim::WakePolicy::kRandom;
  cfg.seed = 20260805;
  cfg.visibility = strategy.needs_visibility();
  // Crash-stop faults (the acceptance workload): the crash schedule and the
  // repair waves must land on identical events under both topology paths.
  if (fault_rate > 0.0) cfg.faults = fault::FaultSpec::crashes(fault_rate, 7);
  sim::Engine engine(net, cfg);
  strategy.spawn_team(engine, d);
  const auto result = engine.run();
  return {net.metrics(), net.trace().events(), result.all_terminated,
          result.abort_reason, result.capture_time};
}

void expect_identical(const CapturedRun& implicit_run,
                      const CapturedRun& generic_run,
                      const std::string& label) {
  const sim::Metrics& a = implicit_run.metrics;
  const sim::Metrics& b = generic_run.metrics;
  EXPECT_EQ(a.agents_spawned, b.agents_spawned) << label;
  EXPECT_EQ(a.total_moves, b.total_moves) << label;
  EXPECT_EQ(a.moves_by_role, b.moves_by_role) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.peak_whiteboard_bits, b.peak_whiteboard_bits) << label;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << label;
  EXPECT_EQ(a.recontamination_events, b.recontamination_events) << label;
  EXPECT_EQ(a.agents_crashed, b.agents_crashed) << label;
  EXPECT_EQ(a.events_processed, b.events_processed) << label;
  EXPECT_EQ(a.agent_steps, b.agent_steps) << label;
  EXPECT_EQ(implicit_run.all_terminated, generic_run.all_terminated) << label;
  EXPECT_EQ(implicit_run.abort_reason, generic_run.abort_reason) << label;
  EXPECT_EQ(implicit_run.capture_time, generic_run.capture_time) << label;

  ASSERT_EQ(implicit_run.events.size(), generic_run.events.size()) << label;
  for (std::size_t i = 0; i < implicit_run.events.size(); ++i) {
    const sim::TraceEvent& x = implicit_run.events[i];
    const sim::TraceEvent& y = generic_run.events[i];
    ASSERT_TRUE(x.time == y.time && x.kind == y.kind && x.agent == y.agent &&
                x.node == y.node && x.other == y.other && x.detail == y.detail)
        << label << ": trace diverges at event " << i;
  }
}

void run_topology_differential(sim::MoveSemantics semantics,
                               double fault_rate) {
  const auto& registry = core::StrategyRegistry::instance();
  for (const std::string& name : registry.names()) {
    const core::Strategy& strategy = registry.get(name);
    for (unsigned d = 4; d <= 8; ++d) {
      const graph::Graph implicit_graph = strategy.build_graph(d);
      const graph::Graph generic_graph =
          implicit_graph.without_topology_hint();
      const CapturedRun implicit_run =
          run_strategy_on(strategy, implicit_graph, d, semantics, fault_rate);
      const CapturedRun generic_run =
          run_strategy_on(strategy, generic_graph, d, semantics, fault_rate);
      expect_identical(implicit_run, generic_run,
                       name + " d=" + std::to_string(d));
    }
  }
}

TEST(Differential, StrategiesImplicitVsExplicitTopology) {
  run_topology_differential(sim::MoveSemantics::kAtomicArrival, 0.0);
}

TEST(Differential, StrategiesImplicitVsExplicitVacateSemantics) {
  run_topology_differential(sim::MoveSemantics::kVacateOnDeparture, 0.0);
}

TEST(Differential, StrategiesImplicitVsExplicitUnderFaults) {
  run_topology_differential(sim::MoveSemantics::kAtomicArrival, 0.02);
}

}  // namespace
}  // namespace hcs
