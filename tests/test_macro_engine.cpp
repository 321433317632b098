// Macro differential suite: executing a strategy's compiled MacroProgram
// through sim::ShardedMacroEngine must be indistinguishable from executing
// it through the discrete-event Engine (spawn_macro_team's ScheduleAgents).
//
//  * event-engine runs (tracing on, and/or faults, and/or
//    vacate-on-departure): identical Metrics, identical trace event
//    sequences, identical RunResults -- byte-for-byte, including
//    crash/recovery behaviour;
//  * fast path (tracing off, fault-free, atomic arrival): identical
//    Metrics and RunResults answered from the bitplane state, with the
//    safety verdicts (all_clean / clean_region_connected) agreeing with
//    the Network's bookkeeping.
//
// Plus compile_macro_program structure checks and the Session engine-axis
// resolution (kEvent / kMacro / kAuto).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/clean_sync.hpp"
#include "core/replay.hpp"
#include "core/session.hpp"
#include "core/strategy_registry.hpp"
#include "fault/fault.hpp"
#include "graph/builders.hpp"
#include "sim/engine.hpp"
#include "sim/macro_engine.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"

namespace hcs {
namespace {

struct CapturedRun {
  sim::Metrics metrics;
  std::vector<sim::TraceEvent> events;
  sim::Engine::RunResult result;
  bool all_clean = false;
  bool clean_region_connected = false;
};

sim::RunOptions macro_run_options(bool trace, double fault_rate) {
  sim::RunOptions cfg;
  cfg.policy = sim::WakePolicy::kFifo;
  cfg.seed = 20260807;
  cfg.trace = trace;
  if (fault_rate > 0.0) cfg.faults = fault::FaultSpec::crashes(fault_rate, 7);
  return cfg;
}

CapturedRun run_event_oracle(const sim::MacroProgram& prog,
                             const graph::Graph& g,
                             sim::MoveSemantics semantics, bool trace,
                             double fault_rate) {
  sim::Network net(g, 0);
  net.set_move_semantics(semantics);
  net.trace().enable(trace);
  sim::Engine engine(net, macro_run_options(trace, fault_rate));
  sim::spawn_macro_team(engine, prog);
  CapturedRun run;
  run.result = engine.run();
  run.metrics = net.metrics();
  run.events = net.trace().events();
  run.all_clean = net.all_clean();
  run.clean_region_connected = net.clean_region_connected();
  return run;
}

CapturedRun run_macro(const sim::MacroProgram& prog, const graph::Graph& g,
                      sim::MoveSemantics semantics, bool trace,
                      double fault_rate, bool* used_fast = nullptr,
                      std::uint32_t shards = 1) {
  sim::Network net(g, 0);
  net.set_move_semantics(semantics);
  net.trace().enable(trace);
  sim::RunOptions cfg = macro_run_options(trace, fault_rate);
  cfg.shards = shards;
  sim::ShardedMacroEngine engine(net, cfg);
  CapturedRun run;
  run.result = engine.run(prog);
  run.metrics = engine.metrics();
  run.events = net.trace().events();
  run.all_clean = engine.all_clean();
  run.clean_region_connected = engine.clean_region_connected();
  if (used_fast != nullptr) *used_fast = engine.used_fast_path();
  return run;
}

void expect_identical(const CapturedRun& macro_run,
                      const CapturedRun& event_run,
                      const std::string& label) {
  const sim::Metrics& a = macro_run.metrics;
  const sim::Metrics& b = event_run.metrics;
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

  const sim::Engine::RunResult& x = macro_run.result;
  const sim::Engine::RunResult& y = event_run.result;
  EXPECT_EQ(x.all_terminated, y.all_terminated) << label;
  EXPECT_EQ(x.abort_reason, y.abort_reason) << label;
  EXPECT_EQ(x.terminated, y.terminated) << label;
  EXPECT_EQ(x.waiting, y.waiting) << label;
  EXPECT_EQ(x.crashed, y.crashed) << label;
  EXPECT_EQ(x.end_time, y.end_time) << label;
  EXPECT_EQ(x.capture_time, y.capture_time) << label;
  EXPECT_EQ(x.degradation.crashes, y.degradation.crashes) << label;
  EXPECT_EQ(x.degradation.crashes_in_transit, y.degradation.crashes_in_transit)
      << label;
  EXPECT_EQ(x.degradation.links_stalled, y.degradation.links_stalled) << label;
  EXPECT_EQ(x.degradation.crashes_detected, y.degradation.crashes_detected)
      << label;
  EXPECT_EQ(x.degradation.faults_recovered, y.degradation.faults_recovered)
      << label;
  EXPECT_EQ(x.degradation.recovery_rounds, y.degradation.recovery_rounds)
      << label;
  EXPECT_EQ(x.degradation.repair_agents, y.degradation.repair_agents) << label;
  EXPECT_EQ(x.degradation.recovery_moves, y.degradation.recovery_moves)
      << label;
  EXPECT_EQ(x.degradation.recovery_time, y.degradation.recovery_time) << label;
  EXPECT_EQ(x.degradation.recontaminations_attributed,
            y.degradation.recontaminations_attributed)
      << label;
  EXPECT_EQ(x.degradation.agents_stranded, y.degradation.agents_stranded)
      << label;

  EXPECT_EQ(macro_run.all_clean, event_run.all_clean) << label;
  EXPECT_EQ(macro_run.clean_region_connected,
            event_run.clean_region_connected)
      << label;

  ASSERT_EQ(macro_run.events.size(), event_run.events.size()) << label;
  for (std::size_t i = 0; i < macro_run.events.size(); ++i) {
    const sim::TraceEvent& e = macro_run.events[i];
    const sim::TraceEvent& f = event_run.events[i];
    ASSERT_TRUE(e.time == f.time && e.kind == f.kind && e.agent == f.agent &&
                e.node == f.node && e.other == f.other && e.detail == f.detail)
        << label << ": trace diverges at event " << i << " (macro: t=" << e.time
        << " detail=" << e.detail << "; event: t=" << f.time
        << " detail=" << f.detail << ")";
  }
}

/// Runs the differential over every macro-capable registry strategy.
void run_macro_differential(sim::MoveSemantics semantics, bool trace,
                            double fault_rate, unsigned min_d,
                            unsigned max_d) {
  const auto& registry = core::StrategyRegistry::instance();
  bool any = false;
  for (const std::string& name : registry.names()) {
    const core::Strategy& strategy = registry.get(name);
    for (unsigned d = min_d; d <= max_d; ++d) {
      const std::optional<sim::MacroProgram> prog = strategy.macro_program(d);
      if (!prog.has_value()) continue;
      any = true;
      const graph::Graph g = strategy.build_graph(d);
      const std::string label =
          name + " d=" + std::to_string(d) +
          (semantics == sim::MoveSemantics::kAtomicArrival ? " atomic"
                                                           : " vacate") +
          (trace ? " trace" : " fast") +
          (fault_rate > 0 ? " faults" : "");
      const CapturedRun event_run =
          run_event_oracle(*prog, g, semantics, trace, fault_rate);
      const CapturedRun macro_run =
          run_macro(*prog, g, semantics, trace, fault_rate);
      expect_identical(macro_run, event_run, label);
    }
  }
  EXPECT_TRUE(any) << "no macro-capable strategies registered";
}

// =================================================================
// Event-engine runs: trace on -> full byte-for-byte trace comparison.

TEST(MacroDifferential, ExactAtomicArrival) {
  run_macro_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/true,
                         /*fault_rate=*/0.0, 4, 8);
}

TEST(MacroDifferential, ExactVacateOnDeparture) {
  run_macro_differential(sim::MoveSemantics::kVacateOnDeparture,
                         /*trace=*/true, /*fault_rate=*/0.0, 4, 8);
}

TEST(MacroDifferential, ExactUnderCrashFaults) {
  run_macro_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/true,
                         /*fault_rate=*/0.02, 4, 8);
}

TEST(MacroDifferential, ExactUnderCrashFaultsVacate) {
  run_macro_differential(sim::MoveSemantics::kVacateOnDeparture,
                         /*trace=*/true, /*fault_rate=*/0.02, 4, 8);
}

// Wider dimensions, tracing off (trace buffers at d = 10 dominate the
// runtime otherwise): fault-free event-engine runs under vacate semantics
// plus the fast path under atomic arrival.

TEST(MacroDifferential, WideDimensionsAtomic) {
  run_macro_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                         /*fault_rate=*/0.0, 9, 10);
}

TEST(MacroDifferential, WideDimensionsVacate) {
  run_macro_differential(sim::MoveSemantics::kVacateOnDeparture,
                         /*trace=*/false, /*fault_rate=*/0.0, 9, 10);
}

TEST(MacroDifferential, WideDimensionsUnderCrashFaults) {
  run_macro_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                         /*fault_rate=*/0.02, 9, 10);
}

// =================================================================
// Fast mode: trace off + fault-free + atomic arrival -> bitplane path.

TEST(MacroDifferential, FastPathMatchesEventEngine) {
  run_macro_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                         /*fault_rate=*/0.0, 4, 8);
}

TEST(MacroEngine, FastPathEngagesForMonotoneSchedules) {
  // Every registered program is monotone in any order of a tick's moves,
  // so the fast path must complete without bailing to the event engine
  // (this is the path the H_16+ throughput numbers rest on). At d = 10
  // with 4 shards, CLEAN-WITH-VISIBILITY's widest waves (512 moves against
  // a phase threshold of 256) take the per-shard phases.
  const auto& registry = core::StrategyRegistry::instance();
  bool any = false;
  for (const std::string& name : registry.names()) {
    const core::Strategy& strategy = registry.get(name);
    if (!strategy.has_macro_program()) continue;
    any = true;
    for (const unsigned d : {6u, 10u}) {
      const std::optional<sim::MacroProgram> prog = strategy.macro_program(d);
      ASSERT_TRUE(prog.has_value()) << name;
      const graph::Graph g = strategy.build_graph(d);
      for (const std::uint32_t shards : {1u, 4u}) {
        bool used_fast = false;
        run_macro(*prog, g, sim::MoveSemantics::kAtomicArrival,
                  /*trace=*/false, /*fault_rate=*/0.0, &used_fast, shards);
        EXPECT_TRUE(used_fast) << name << " d=" << d << " shards=" << shards;
      }
    }
  }
  EXPECT_TRUE(any) << "no macro-capable strategies registered";
}

/// A hand-built program on the 4-ring 0-1-2-3-0, homebase 0: agent i
/// takes moves[i] as (departure tick, from, to).
sim::MacroProgram ring_program(
    const std::vector<std::vector<sim::MacroProgram::Step>>& moves) {
  sim::MacroProgram prog;
  for (const auto& agent_moves : moves) {
    for (const sim::MacroProgram::Step& s : agent_moves) {
      prog.steps.push_back(s);
      prog.horizon = std::max(prog.horizon, s.time + 1);
    }
    prog.agent_offsets.push_back(
        static_cast<std::uint32_t>(prog.steps.size()));
  }
  return prog;
}

TEST(MacroEngine, FastPathBailsOnExposure) {
  // One agent steps 0 -> 1, vacating 0 next to contaminated 3: the fast
  // path bails and the event engine reports the recontamination.
  const graph::Graph g = graph::make_ring(4);
  const sim::MacroProgram prog = ring_program({{{0, 0, 1}}});
  bool used_fast = true;
  const CapturedRun macro_run =
      run_macro(prog, g, sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                /*fault_rate=*/0.0, &used_fast);
  const CapturedRun event_run =
      run_event_oracle(prog, g, sim::MoveSemantics::kAtomicArrival,
                       /*trace=*/false, /*fault_rate=*/0.0);
  EXPECT_FALSE(used_fast);
  expect_identical(macro_run, event_run, "ring exposure");
  EXPECT_EQ(event_run.metrics.recontamination_events, 1u);
}

TEST(MacroEngine, OrderDependentTickRunsOnEventEngine) {
  // At tick 1 agent 0 moves 3 -> 2 and agent 1 moves 1 -> 0, both landing
  // at tick 2; agent 2 holds 0. The event engine lands agent 0's move
  // first, so node 1's release is safe there, but in the other order it
  // would see 2 still contaminated. A release that is safe only in some
  // order runs on the event engine.
  const graph::Graph g = graph::make_ring(4);
  const sim::MacroProgram prog =
      ring_program({{{0, 0, 3}, {1, 3, 2}}, {{0, 0, 1}, {1, 1, 0}}, {}});
  bool used_fast = true;
  const CapturedRun macro_run =
      run_macro(prog, g, sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                /*fault_rate=*/0.0, &used_fast);
  const CapturedRun event_run =
      run_event_oracle(prog, g, sim::MoveSemantics::kAtomicArrival,
                       /*trace=*/false, /*fault_rate=*/0.0);
  expect_identical(macro_run, event_run, "ring order");
  EXPECT_EQ(event_run.metrics.recontamination_events, 0u);
  EXPECT_TRUE(event_run.all_clean);
  EXPECT_FALSE(used_fast);
}

TEST(MacroEngine, HasMacroProgramMatchesMacroProgram) {
  // hcsd admits an explicit macro request on has_macro_program() alone, so
  // it must agree with whether macro_program() yields a program.
  const auto& registry = core::StrategyRegistry::instance();
  for (const std::string& name : registry.names()) {
    const core::Strategy& strategy = registry.get(name);
    EXPECT_EQ(strategy.has_macro_program(),
              strategy.macro_program(4).has_value())
        << name;
  }
}

// =================================================================
// compile_macro_program structure.

TEST(MacroProgram, CompileGroupsMovesPerAgentInRoundOrder) {
  const core::SearchPlan plan = core::plan_clean_sync(5);
  const sim::MacroProgram prog = core::compile_macro_program(plan);
  EXPECT_EQ(prog.num_agents(), plan.num_agents);
  EXPECT_EQ(prog.total_moves(), plan.total_moves());
  EXPECT_EQ(prog.homebase, plan.homebase);
  EXPECT_LE(prog.horizon, plan.num_rounds());
  ASSERT_EQ(prog.agent_offsets.size(), plan.num_agents + 1);
  for (std::size_t a = 0; a < prog.num_agents(); ++a) {
    double last_time = -1.0;
    graph::Vertex at = prog.homebase;
    for (std::uint32_t i = prog.agent_offsets[a]; i < prog.agent_offsets[a + 1];
         ++i) {
      const sim::MacroProgram::Step& s = prog.steps[i];
      // Times strictly increase per agent and moves chain.
      EXPECT_GT(static_cast<double>(s.time), last_time) << "agent " << a;
      EXPECT_EQ(s.from, at) << "agent " << a << " step " << i;
      EXPECT_LT(s.time, prog.horizon);
      last_time = s.time;
      at = s.to;
    }
  }
}

TEST(MacroProgram, RolesDefaultToAgent) {
  sim::MacroProgram prog;
  prog.agent_offsets = {0, 0, 0};
  prog.roles = {"synchronizer"};
  EXPECT_EQ(prog.role(0), "synchronizer");
  EXPECT_EQ(prog.role(1), "agent");
}

// =================================================================
// Eligibility + Session engine axis.

TEST(MacroEngine, EligibilityRequiresFifoAndUnitDelay) {
  sim::RunOptions cfg;
  EXPECT_TRUE(sim::ShardedMacroEngine::eligible(cfg));
  cfg.policy = sim::WakePolicy::kRandom;
  EXPECT_FALSE(sim::ShardedMacroEngine::eligible(cfg));
  cfg.policy = sim::WakePolicy::kFifo;
  cfg.delay = sim::DelayModel::uniform(0.5, 1.5);
  EXPECT_FALSE(sim::ShardedMacroEngine::eligible(cfg));
  cfg.delay = sim::DelayModel::unit();
  cfg.trace = true;  // tracing forces the event engine, not ineligibility
  EXPECT_TRUE(sim::ShardedMacroEngine::eligible(cfg));
}

TEST(Session, EngineAxisResolvesMacroAndFallsBack) {
  // Explicit macro on a macro-capable strategy.
  Session macro_session({.dimension = 6,
                         .options = {.engine = sim::EngineKind::kMacro}});
  const core::SimOutcome macro_outcome = macro_session.run("CLEAN");
  EXPECT_EQ(macro_outcome.engine_used, sim::EngineKind::kMacro);
  EXPECT_TRUE(macro_outcome.correct()) << macro_outcome.verdict();

  // kAuto on a macro-incapable strategy falls back to the event engine.
  Session auto_session({.dimension = 5,
                        .options = {.engine = sim::EngineKind::kAuto}});
  const core::SimOutcome cloning_outcome = auto_session.run("CLONING");
  EXPECT_EQ(cloning_outcome.engine_used, sim::EngineKind::kEvent);
  EXPECT_TRUE(cloning_outcome.correct()) << cloning_outcome.verdict();

  // kAuto with an ineligible option set (random wake policy) falls back.
  Session random_session(
      {.dimension = 5,
       .options = {.policy = sim::WakePolicy::kRandom,
                   .engine = sim::EngineKind::kAuto}});
  const core::SimOutcome random_outcome = random_session.run("CLEAN");
  EXPECT_EQ(random_outcome.engine_used, sim::EngineKind::kEvent);

  // Default stays the event engine.
  Session default_session({.dimension = 5});
  const core::SimOutcome default_outcome = default_session.run("CLEAN");
  EXPECT_EQ(default_outcome.engine_used, sim::EngineKind::kEvent);
  EXPECT_TRUE(default_outcome.correct()) << default_outcome.verdict();
}

TEST(Session, MacroOutcomeMatchesProgramCosts) {
  // The macro outcome reports the *schedule's* costs: team and moves equal
  // the compiled program's, and the sweep captures the intruder.
  const core::Strategy& strategy =
      core::StrategyRegistry::instance().get("CLEAN-WITH-VISIBILITY");
  const std::optional<sim::MacroProgram> prog = strategy.macro_program(7);
  ASSERT_TRUE(prog.has_value());
  Session session({.dimension = 7,
                   .options = {.engine = sim::EngineKind::kMacro}});
  const core::SimOutcome outcome = session.run("CLEAN-WITH-VISIBILITY");
  EXPECT_EQ(outcome.engine_used, sim::EngineKind::kMacro);
  EXPECT_EQ(outcome.team_size, prog->num_agents());
  EXPECT_EQ(outcome.total_moves, prog->total_moves());
  EXPECT_TRUE(outcome.all_clean);
  EXPECT_TRUE(outcome.clean_region_connected);
  EXPECT_EQ(outcome.recontaminations, 0u);
  EXPECT_TRUE(outcome.all_agents_terminated);
}

TEST(Session, MacroRunRetainsTraceWhenRequested) {
  Session session({.dimension = 5,
                   .options = {.trace = true,
                               .engine = sim::EngineKind::kMacro}});
  const core::SimOutcome outcome = session.run("CLEAN");
  EXPECT_EQ(outcome.engine_used, sim::EngineKind::kMacro);
  EXPECT_FALSE(session.trace().events().empty());
}

}  // namespace
}  // namespace hcs
