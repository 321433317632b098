// sim::ShardedMacroEngine -- the shard-count invariance contract.
//
// The shard axis is an execution detail: for every shard count the engine
// must produce byte-identical Metrics, RunResults, safety verdicts and
// (where applicable) traces to the event-engine oracle, spawn_macro_team
// on sim::Engine. The suite pins that contract across the strategy
// registry, both hand-over semantics and crash-fault workloads (which run
// on the event engine). That the run identity never sees the knob is
// pinned where it is used, by Service.ShardCountNeverSplitsTheCache.
//
// The concurrency tests double as the TSan subjects (`ctest -L shard`
// under the sanitizer matrix): they drive the barrier-phased path with
// multiple worker threads on visibility-style wide ticks.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

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
  bool used_fast = false;
  bool used_sharded = false;
  unsigned resolved_shards = 1;
};

sim::RunOptions shard_run_options(std::uint32_t shards, bool trace,
                                  double fault_rate) {
  sim::RunOptions cfg;
  cfg.policy = sim::WakePolicy::kFifo;
  cfg.seed = 20260807;
  cfg.trace = trace;
  cfg.shards = shards;
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
  sim::Engine engine(net, shard_run_options(1, trace, fault_rate));
  sim::spawn_macro_team(engine, prog);
  CapturedRun run;
  run.result = engine.run();
  run.metrics = net.metrics();
  run.events = net.trace().events();
  run.all_clean = net.all_clean();
  run.clean_region_connected = net.clean_region_connected();
  return run;
}

CapturedRun run_sharded(const sim::MacroProgram& prog, const graph::Graph& g,
                        sim::MoveSemantics semantics, std::uint32_t shards,
                        bool trace, double fault_rate) {
  sim::Network net(g, 0);
  net.set_move_semantics(semantics);
  net.trace().enable(trace);
  sim::ShardedMacroEngine engine(net,
                                 shard_run_options(shards, trace, fault_rate));
  CapturedRun run;
  run.result = engine.run(prog);
  run.metrics = engine.metrics();
  run.events = net.trace().events();
  run.all_clean = engine.all_clean();
  run.clean_region_connected = engine.clean_region_connected();
  run.used_fast = engine.used_fast_path();
  run.used_sharded = engine.used_sharded_path();
  run.resolved_shards = engine.plan().shards;
  return run;
}

void expect_identical(const CapturedRun& sharded, const CapturedRun& serial,
                      const std::string& label) {
  const sim::Metrics& a = sharded.metrics;
  const sim::Metrics& b = serial.metrics;
  EXPECT_EQ(a.agents_spawned, b.agents_spawned) << label;
  EXPECT_EQ(a.total_moves, b.total_moves) << label;
  EXPECT_EQ(a.moves_by_role, b.moves_by_role) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << label;
  EXPECT_EQ(a.recontamination_events, b.recontamination_events) << label;
  EXPECT_EQ(a.agents_crashed, b.agents_crashed) << label;
  EXPECT_EQ(a.events_processed, b.events_processed) << label;
  EXPECT_EQ(a.agent_steps, b.agent_steps) << label;

  const sim::Engine::RunResult& x = sharded.result;
  const sim::Engine::RunResult& y = serial.result;
  EXPECT_EQ(x.all_terminated, y.all_terminated) << label;
  EXPECT_EQ(x.abort_reason, y.abort_reason) << label;
  EXPECT_EQ(x.terminated, y.terminated) << label;
  EXPECT_EQ(x.waiting, y.waiting) << label;
  EXPECT_EQ(x.crashed, y.crashed) << label;
  EXPECT_EQ(x.end_time, y.end_time) << label;
  EXPECT_EQ(x.capture_time, y.capture_time) << label;
  EXPECT_EQ(x.degradation.crashes, y.degradation.crashes) << label;
  EXPECT_EQ(x.degradation.faults_recovered, y.degradation.faults_recovered)
      << label;

  EXPECT_EQ(sharded.all_clean, serial.all_clean) << label;
  EXPECT_EQ(sharded.clean_region_connected, serial.clean_region_connected)
      << label;

  ASSERT_EQ(sharded.events.size(), serial.events.size()) << label;
  for (std::size_t i = 0; i < sharded.events.size(); ++i) {
    const sim::TraceEvent& e = sharded.events[i];
    const sim::TraceEvent& f = serial.events[i];
    ASSERT_TRUE(e.time == f.time && e.kind == f.kind && e.agent == f.agent &&
                e.node == f.node && e.other == f.other && e.detail == f.detail)
        << label << ": trace diverges at event " << i;
  }
}

/// Runs the shard differential over every macro-capable registry strategy.
void run_shard_differential(sim::MoveSemantics semantics, bool trace,
                            double fault_rate, unsigned min_d, unsigned max_d,
                            bool* any_sharded = nullptr) {
  const auto& registry = core::StrategyRegistry::instance();
  bool any = false;
  for (const std::string& name : registry.names()) {
    const core::Strategy& strategy = registry.get(name);
    for (unsigned d = min_d; d <= max_d; ++d) {
      const std::optional<sim::MacroProgram> prog = strategy.macro_program(d);
      if (!prog.has_value()) continue;
      any = true;
      const graph::Graph g = strategy.build_graph(d);
      const CapturedRun serial =
          run_event_oracle(*prog, g, semantics, trace, fault_rate);
      for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        const std::string label =
            name + " d=" + std::to_string(d) + " shards=" +
            std::to_string(shards) +
            (semantics == sim::MoveSemantics::kAtomicArrival ? " atomic"
                                                             : " vacate") +
            (trace ? " trace" : " fast") + (fault_rate > 0 ? " faults" : "");
        const CapturedRun sharded =
            run_sharded(*prog, g, semantics, shards, trace, fault_rate);
        expect_identical(sharded, serial, label);
        if (any_sharded != nullptr && sharded.used_sharded) {
          *any_sharded = true;
        }
      }
    }
  }
  EXPECT_TRUE(any) << "no macro-capable strategies registered";
}

// =================================================================
// ShardPlan resolution.

TEST(ShardPlan, SerialRequestStaysSerial) {
  const sim::ShardPlan plan = sim::ShardPlan::resolve(1, 18, 16);
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_EQ(plan.shard_bits, 0u);
}

TEST(ShardPlan, RoundsDownToPowerOfTwo) {
  const sim::ShardPlan plan = sim::ShardPlan::resolve(7, 18, 16);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.shard_bits, 2u);
  EXPECT_EQ(plan.node_shift, 16u);
  EXPECT_EQ(plan.words_per_shard, (std::size_t{1} << 12) / 4);
}

TEST(ShardPlan, ClampsToOneWordPerShard) {
  // d = 8 has 4 plane words, so at most 4 shards regardless of request.
  const sim::ShardPlan plan = sim::ShardPlan::resolve(64, 8, 64);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.words_per_shard, 1u);
}

TEST(ShardPlan, SmallCubesResolveSerial) {
  for (unsigned d = 1; d < 7; ++d) {
    EXPECT_EQ(sim::ShardPlan::resolve(8, d, 8).shards, 1u) << d;
    EXPECT_EQ(sim::ShardPlan::resolve(0, d, 8).shards, 1u) << d;
  }
}

TEST(ShardPlan, AutoScalesWithDimensionAndThreads) {
  // Auto = min(hw threads, 2^(d-10)), power-of-two floored.
  EXPECT_EQ(sim::ShardPlan::resolve(0, 10, 16).shards, 1u);
  EXPECT_EQ(sim::ShardPlan::resolve(0, 12, 16).shards, 4u);
  EXPECT_EQ(sim::ShardPlan::resolve(0, 18, 6).shards, 4u);
  EXPECT_EQ(sim::ShardPlan::resolve(0, 18, 16).shards, 16u);
}

// =================================================================
// Shard-count differential: every count must match the event oracle.

TEST(ShardDifferential, FastPathAtomicArrival) {
  bool any_sharded = false;
  run_shard_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                         /*fault_rate=*/0.0, 4, 10, &any_sharded);
  // d >= 7 grids with shards >= 2 must actually exercise the sharded
  // replay, not silently delegate.
  EXPECT_TRUE(any_sharded);
}

TEST(ShardDifferential, VacateOnDepartureDelegatesExactly) {
  run_shard_differential(sim::MoveSemantics::kVacateOnDeparture,
                         /*trace=*/false, /*fault_rate=*/0.0, 4, 9);
}

TEST(ShardDifferential, TracedRunsStayByteIdentical) {
  run_shard_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/true,
                         /*fault_rate=*/0.0, 4, 8);
}

TEST(ShardDifferential, CrashFaultsDelegateExactly) {
  run_shard_differential(sim::MoveSemantics::kAtomicArrival, /*trace=*/false,
                         /*fault_rate=*/0.02, 4, 9);
}

TEST(ShardDifferential, WideDimensions) {
  // H_11 / H_12 on the two protocol families the throughput numbers rest
  // on; the full-registry sweep above covers the small dimensions.
  const auto& registry = core::StrategyRegistry::instance();
  for (const char* name : {"CLEAN", "CLEAN-WITH-VISIBILITY"}) {
    const core::Strategy& strategy = registry.get(name);
    for (unsigned d : {11u, 12u}) {
      const std::optional<sim::MacroProgram> prog = strategy.macro_program(d);
      ASSERT_TRUE(prog.has_value()) << name;
      const graph::Graph g = strategy.build_graph(d);
      const CapturedRun serial = run_event_oracle(
          *prog, g, sim::MoveSemantics::kAtomicArrival, false, 0.0);
      for (std::uint32_t shards : {2u, 8u}) {
        const CapturedRun sharded =
            run_sharded(*prog, g, sim::MoveSemantics::kAtomicArrival, shards,
                        false, 0.0);
        EXPECT_TRUE(sharded.used_sharded)
            << name << " d=" << d << " shards=" << shards;
        expect_identical(sharded, serial,
                         std::string(name) + " d=" + std::to_string(d) +
                             " shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedMacroEngine, ShardsOneCompletesOnFastPath) {
  const core::Strategy& strategy =
      core::StrategyRegistry::instance().get("CLEAN");
  const std::optional<sim::MacroProgram> prog = strategy.macro_program(8);
  ASSERT_TRUE(prog.has_value());
  const graph::Graph g = strategy.build_graph(8);
  const CapturedRun run = run_sharded(
      *prog, g, sim::MoveSemantics::kAtomicArrival, 1, false, 0.0);
  EXPECT_TRUE(run.used_fast);
  EXPECT_FALSE(run.used_sharded);
  EXPECT_EQ(run.resolved_shards, 1u);
  EXPECT_TRUE(run.result.all_terminated);
}

// =================================================================
// Concurrency subjects: wide visibility ticks push ~2^d / d arrivals
// through the barrier-phased path per tick. These are the TSan targets.

TEST(ShardConcurrency, WideTicksUnderManyShards) {
  // Force helper threads even on single-core hosts: this test exists to
  // race the barrier phases on real pool threads under the sanitizer
  // matrix, and without the seam a 1-vCPU runner would fold the whole
  // shard loop inline. Results must stay identical either way.
  ASSERT_EQ(setenv("HCS_SHARD_THREADS", "8", 1), 0);
  const core::Strategy& strategy =
      core::StrategyRegistry::instance().get("CLEAN-WITH-VISIBILITY");
  const std::optional<sim::MacroProgram> prog = strategy.macro_program(10);
  ASSERT_TRUE(prog.has_value());
  const graph::Graph g = strategy.build_graph(10);
  const CapturedRun serial = run_event_oracle(
      *prog, g, sim::MoveSemantics::kAtomicArrival, false, 0.0);
  for (int rep = 0; rep < 3; ++rep) {
    const CapturedRun sharded = run_sharded(
        *prog, g, sim::MoveSemantics::kAtomicArrival, 8, false, 0.0);
    EXPECT_TRUE(sharded.used_sharded);
    expect_identical(sharded, serial, "rep=" + std::to_string(rep));
  }
  unsetenv("HCS_SHARD_THREADS");
}

// =================================================================
// Session-level plumbing: the knob reaches the macro executor and the
// outcome stays byte-identical to the single-shard run's.

TEST(Session, ShardedMacroOutcomeMatchesSerial) {
  SessionConfig serial_config;
  serial_config.dimension = 9;
  serial_config.options.engine = sim::EngineKind::kMacro;
  serial_config.options.shards = 1;
  const core::SimOutcome serial = Session(serial_config).run("CLEAN");

  SessionConfig sharded_config = serial_config;
  sharded_config.options.shards = 4;
  const core::SimOutcome sharded = Session(sharded_config).run("CLEAN");

  EXPECT_EQ(sharded.engine_used, sim::EngineKind::kMacro);
  EXPECT_EQ(sharded.team_size, serial.team_size);
  EXPECT_EQ(sharded.total_moves, serial.total_moves);
  EXPECT_EQ(sharded.makespan, serial.makespan);
  EXPECT_EQ(sharded.capture_time, serial.capture_time);
  EXPECT_EQ(sharded.all_clean, serial.all_clean);
  EXPECT_EQ(sharded.clean_region_connected, serial.clean_region_connected);
  EXPECT_EQ(sharded.recontaminations, serial.recontaminations);
  EXPECT_TRUE(sharded.correct()) << sharded.verdict();
}

}  // namespace
}  // namespace hcs
