// The fault-injection layer: deterministic schedules, exact degradation
// accounting, crash recovery through repair waves, the reclean planner,
// and the fault axis of the sweep runner.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>

#include "core/formulas.hpp"
#include "core/strategy.hpp"
#include "fault/fault_io.hpp"
#include "fault/reclean.hpp"
#include "graph/builders.hpp"
#include "run/sweep.hpp"
#include "run/sweep_io.hpp"
#include "sim/engine.hpp"

namespace hcs {
namespace {

/// Walks a fixed route, one hop per step, then terminates (keeps guarding).
class RouteAgent final : public sim::Agent {
 public:
  explicit RouteAgent(std::vector<graph::Vertex> route)
      : route_(std::move(route)) {}
  sim::Action step(sim::AgentContext&) override {
    if (next_ >= route_.size()) return sim::Action::finished();
    return sim::Action::move_to(route_[next_++]);
  }

 private:
  std::vector<graph::Vertex> route_;
  std::size_t next_ = 0;
};

TEST(FaultSpec, EmptinessAndLabels) {
  EXPECT_TRUE(fault::FaultSpec::none().empty());
  EXPECT_FALSE(fault::FaultSpec::crashes(0.05).empty());
  EXPECT_EQ(fault::FaultSpec::none().label(), "none");
  EXPECT_EQ(fault::FaultSpec::crashes(0.05).label(), "crash(0.05)");
  fault::FaultSpec with_event;
  with_event.events.push_back({fault::FaultKind::kDroppedWake, 3, 0});
  EXPECT_FALSE(with_event.empty());
}

TEST(FaultSchedule, DecisionsAreDeterministicAndExclusive) {
  const fault::FaultSchedule a(fault::FaultSpec::crashes(0.25, 7));
  const fault::FaultSchedule b(fault::FaultSpec::crashes(0.25, 7));
  int fired = 0;
  for (std::uint32_t agent = 0; agent < 16; ++agent) {
    for (std::uint64_t idx = 0; idx < 64; ++idx) {
      EXPECT_EQ(a.crash_at_node(agent, idx), b.crash_at_node(agent, idx));
      EXPECT_EQ(a.crash_in_transit(agent, idx),
                b.crash_in_transit(agent, idx));
      // The two crash flavours split one coin: never both.
      EXPECT_FALSE(a.crash_at_node(agent, idx) &&
                   a.crash_in_transit(agent, idx));
      fired += a.crash_at_node(agent, idx) || a.crash_in_transit(agent, idx);
    }
  }
  // Rate 0.25 over 1024 draws: some but far from all fire.
  EXPECT_GT(fired, 100);
  EXPECT_LT(fired, 500);

  // An inactive schedule never fires.
  const fault::FaultSchedule idle;
  EXPECT_FALSE(idle.active());
  EXPECT_FALSE(idle.crash_at_node(0, 0));
}

TEST(FaultFree, EmptySpecLeavesEveryStrategyByteIdentical) {
  // The regression guarantee: constructing the fault machinery with an
  // empty spec must not perturb a single metric of the paper's strategies.
  for (const auto kind :
       {core::StrategyKind::kCleanSync, core::StrategyKind::kVisibility,
        core::StrategyKind::kCloning, core::StrategyKind::kSynchronous}) {
    const core::SimOutcome plain = core::run_strategy_sim(core::strategy_name(kind), 4);
    core::SimRunConfig config;
    config.faults = fault::FaultSpec::none();
    const core::SimOutcome with_none = core::run_strategy_sim(core::strategy_name(kind), 4, config);
    EXPECT_EQ(plain.total_moves, with_none.total_moves) << plain.strategy;
    EXPECT_EQ(plain.team_size, with_none.team_size);
    EXPECT_EQ(plain.makespan, with_none.makespan);
    EXPECT_EQ(plain.capture_time, with_none.capture_time);
    EXPECT_EQ(plain.recontaminations, with_none.recontaminations);
    EXPECT_TRUE(plain.degradation.empty());
    EXPECT_TRUE(with_none.degradation.empty());
    EXPECT_TRUE(with_none.correct());
  }
  // And the known exact costs still hold (the seed repo's tier-1 bar).
  EXPECT_EQ(core::run_strategy_sim(core::strategy_name(core::StrategyKind::kVisibility), 4)
                .total_moves,
            core::visibility_moves(4));
}

TEST(FaultRun, SameSeedReplaysBitIdentically) {
  core::SimRunConfig config;
  config.faults = fault::FaultSpec::crashes(0.05, 11);
  const core::SimOutcome a =
      core::run_strategy_sim(core::strategy_name(core::StrategyKind::kVisibility), 5, config);
  const core::SimOutcome b =
      core::run_strategy_sim(core::strategy_name(core::StrategyKind::kVisibility), 5, config);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.degradation.crashes, b.degradation.crashes);
  EXPECT_EQ(a.degradation.recovery_rounds, b.degradation.recovery_rounds);
  EXPECT_EQ(a.degradation.recovery_moves, b.degradation.recovery_moves);
}

TEST(FaultRun, AllPaperStrategiesStillCaptureAtFivePercentCrashes) {
  // The acceptance scenario: crash rate 0.05, d <= 8, every paper strategy
  // still captures the intruder (possibly degraded, never failed).
  for (const auto kind :
       {core::StrategyKind::kCleanSync, core::StrategyKind::kVisibility,
        core::StrategyKind::kCloning, core::StrategyKind::kSynchronous}) {
    for (unsigned d : {4u, 6u, 8u}) {
      core::SimRunConfig config;
      config.faults = fault::FaultSpec::crashes(0.05, 3);
      const core::SimOutcome out = core::run_strategy_sim(core::strategy_name(kind), d, config);
      EXPECT_TRUE(out.captured())
          << out.strategy << " d=" << d << " verdict=" << out.verdict();
      EXPECT_FALSE(out.aborted()) << out.strategy << " d=" << d;
      // Every injected persistent fault is accounted as recovered.
      EXPECT_EQ(out.degradation.faults_recovered,
                out.degradation.crashes_detected +
                    out.degradation.wb_faults_detected)
          << out.strategy << " d=" << d;
    }
  }
}

TEST(FaultRun, ExplicitCrashEventIsRepairedByARecoveryWave) {
  const graph::Graph g = graph::make_path(4);
  sim::Network net(g, 0);
  sim::Engine::Config cfg;
  // Agent 0's second traversal (index 1) crash-stops at its node.
  cfg.faults.events.push_back({fault::FaultKind::kCrashAtNode, 0, 1});
  sim::Engine engine(net, cfg);
  engine.spawn(std::make_unique<RouteAgent>(std::vector<graph::Vertex>{1, 2, 3}),
               0);
  const auto result = engine.run();

  EXPECT_EQ(result.crashed, 1u);
  EXPECT_EQ(result.degradation.crashes, 1u);
  EXPECT_EQ(result.degradation.crashes_in_transit, 0u);
  EXPECT_EQ(net.metrics().agents_crashed, 1u);
  // The crash orphaned the sweep; the recovery layer dispatched repair
  // agents and the network still ends clean.
  EXPECT_TRUE(net.all_clean());
  EXPECT_GE(result.degradation.recovery_rounds, 1u);
  EXPECT_GT(result.degradation.repair_agents, 0u);
  EXPECT_GT(result.degradation.recovery_moves, 0u);
  EXPECT_EQ(result.degradation.faults_recovered, 1u);
  EXPECT_EQ(result.abort_reason, sim::AbortReason::kNone);
}

TEST(FaultRun, LinkStallSlowsExactlyOneTraversal) {
  const graph::Graph g = graph::make_path(4);
  sim::Network net(g, 0);
  sim::Engine::Config cfg;
  cfg.faults.events.push_back({fault::FaultKind::kLinkStall, 0, 0});
  cfg.faults.stall_factor = 8.0;
  sim::Engine engine(net, cfg);
  engine.spawn(std::make_unique<RouteAgent>(std::vector<graph::Vertex>{1, 2, 3}),
               0);
  const auto result = engine.run();
  EXPECT_EQ(result.degradation.links_stalled, 1u);
  EXPECT_EQ(result.degradation.injected_transient(), 1u);
  // First hop takes 8 units instead of 1; the rest are unit.
  EXPECT_DOUBLE_EQ(net.metrics().makespan, 10.0);
  EXPECT_EQ(net.metrics().total_moves, 3u);
  EXPECT_TRUE(result.all_terminated);
}

TEST(FaultRun, DroppedWakeIsRedeliveredByRecovery) {
  // A waiter misses the write that should wake it; the recovery layer's
  // heartbeat re-delivers the wake and the run still terminates.
  class Waiter final : public sim::Agent {
   public:
    sim::Action step(sim::AgentContext& ctx) override {
      if (ctx.wb_get("go") == 0) return sim::Action::wait();
      return sim::Action::finished();
    }
  };
  class Setter final : public sim::Agent {
   public:
    sim::Action step(sim::AgentContext& ctx) override {
      if (!idled_) {
        idled_ = true;
        return sim::Action::idle(5.0);
      }
      ctx.wb_set("go", 1);
      return sim::Action::finished();
    }

   private:
    bool idled_ = false;
  };

  const graph::Graph g = graph::make_path(2);
  sim::Network net(g, 0);
  sim::Engine::Config cfg;
  cfg.faults.events.push_back({fault::FaultKind::kDroppedWake, 0, 0});
  sim::Engine engine(net, cfg);
  engine.spawn(std::make_unique<Waiter>(), 0);
  engine.spawn(std::make_unique<Setter>(), 0);
  const auto result = engine.run();
  EXPECT_EQ(result.degradation.wakes_dropped, 1u);
  EXPECT_TRUE(result.all_terminated);
  // The redelivery happened after a detection timeout, so the run ends
  // later than the fault-free 5.0.
  EXPECT_GT(result.end_time, 5.0);
}

TEST(FaultRun, HopelessWorkloadIsDeclaredUnrecoverable) {
  // Crash rate 1.0: every traversal dies, including the repair agents'.
  // The bounded retry budget must end the run as fault-unrecoverable
  // instead of looping forever.
  core::SimRunConfig config;
  config.faults = fault::FaultSpec::crashes(1.0);
  config.recovery.max_rounds = 3;
  const core::SimOutcome out =
      core::run_strategy_sim(core::strategy_name(core::StrategyKind::kVisibility), 3, config);
  EXPECT_EQ(out.abort_reason, sim::AbortReason::kFaultUnrecoverable);
  EXPECT_FALSE(out.captured());
  EXPECT_FALSE(out.correct());
  EXPECT_EQ(out.verdict(), "failed(fault-unrecoverable)");
  EXPECT_GT(out.degradation.crashes, 0u);
}

TEST(FaultRun, StepCapAndFaultAbortsAreDistinguished) {
  core::SimRunConfig config;
  config.max_agent_steps = 10;
  const core::SimOutcome capped =
      core::run_strategy_sim(core::strategy_name(core::StrategyKind::kCleanSync), 4, config);
  EXPECT_EQ(capped.abort_reason, sim::AbortReason::kStepCap);
  EXPECT_EQ(capped.verdict(), "failed(step-cap)");
  EXPECT_STREQ(sim::to_string(sim::AbortReason::kNone), "none");
  EXPECT_STREQ(sim::to_string(sim::AbortReason::kLivelock), "livelock");
}

TEST(Reclean, PlanCoversTheDirtyRegionContiguously) {
  const graph::Graph g = graph::make_hypercube(4);
  std::vector<bool> contaminated(g.num_nodes(), false);
  // Dirty a ball around vertex 15 (far corner from homebase 0).
  for (graph::Vertex v : {15u, 14u, 13u, 11u, 7u}) contaminated[v] = true;
  const fault::RecleanPlan plan = fault::plan_reclean(g, 0, contaminated);

  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.dirty_nodes, 5u);
  std::set<graph::Vertex> targets;
  for (const fault::RecleanWalk& w : plan.walks) {
    ASSERT_FALSE(w.path.empty());
    EXPECT_EQ(w.path.front(), 0u);  // every walk starts at the homebase
    for (std::size_t i = 1; i < w.path.size(); ++i) {
      EXPECT_TRUE(g.has_edge(w.path[i - 1], w.path[i]));
    }
    targets.insert(w.target());
  }
  // Every dirty node is a target of some walk.
  for (graph::Vertex v : {15u, 14u, 13u, 11u, 7u}) {
    EXPECT_TRUE(targets.contains(v)) << v;
  }
  EXPECT_EQ(plan.planned_moves,
            static_cast<std::uint64_t>([&] {
              std::uint64_t total = 0;
              for (const auto& w : plan.walks) total += w.moves();
              return total;
            }()));

  // A fully clean network needs no plan.
  EXPECT_TRUE(
      fault::plan_reclean(g, 0, std::vector<bool>(g.num_nodes(), false))
          .empty());
}

TEST(FaultSweep, FaultAxisIsByteIdenticalAtAnyThreadCount) {
  run::SweepSpec spec;
  spec.strategies = {"CLEAN-WITH-VISIBILITY", "CLONING"};
  spec.dimensions = {3, 4};
  spec.seeds = {1, 5};
  spec.faults = {fault::FaultSpec::none(), fault::FaultSpec::crashes(0.05, 2)};
  ASSERT_EQ(spec.num_cells(), 2u * 2u * 2u * 2u);

  const run::SweepResult serial = run::SweepRunner({.threads = 1}).run(spec);
  const run::SweepResult four = run::SweepRunner({.threads = 4}).run(spec);
  EXPECT_EQ(run::sweep_csv(serial), run::sweep_csv(four));
  EXPECT_EQ(run::sweep_json(serial), run::sweep_json(four));

  // The CSV carries the fault columns and the fault cells report injections.
  const std::string csv = run::sweep_csv(serial);
  EXPECT_NE(csv.find("faults_injected"), std::string::npos);
  EXPECT_NE(csv.find("crash(0.05)"), std::string::npos);
  std::uint64_t injected = 0;
  for (const run::SweepCell& cell : serial.cells) {
    if (!cell.faults.empty()) {
      injected += cell.outcome.degradation.injected_total();
    } else {
      EXPECT_TRUE(cell.outcome.degradation.empty());
    }
  }
  EXPECT_GT(injected, 0u);
}

// Property test for the JSON layer the fuzz corpus depends on: every
// representable FaultSpec -- all five rates, stall factor, seed, and
// explicit events of every kind, *including* link-stall and mid-edge
// crashes -- must survive JSON -> struct -> JSON byte-identically.
TEST(FaultIo, EveryFaultKindRoundTripsThroughStrings) {
  for (const auto kind :
       {fault::FaultKind::kCrashAtNode, fault::FaultKind::kCrashInTransit,
        fault::FaultKind::kWhiteboardLoss,
        fault::FaultKind::kWhiteboardCorrupt, fault::FaultKind::kDroppedWake,
        fault::FaultKind::kLinkStall}) {
    fault::FaultKind back;
    ASSERT_TRUE(fault::from_string(fault::to_string(kind), &back))
        << fault::to_string(kind);
    EXPECT_EQ(kind, back);
  }
}

TEST(FaultIo, SpecRoundTripsByteIdenticallyUnderRandomization) {
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> rate(0.0, 0.25);
  std::uniform_int_distribution<int> kind_draw(0, 5);
  for (int i = 0; i < 200; ++i) {
    fault::FaultSpec spec;
    spec.crash_rate = rate(rng);
    spec.wb_loss_rate = rate(rng);
    spec.wb_corrupt_rate = rate(rng);
    spec.wake_drop_rate = rate(rng);
    spec.link_stall_rate = rate(rng);
    spec.stall_factor = 1.0 + rate(rng) * 64.0;
    spec.seed = rng();
    const std::size_t n_events = rng() % 6;
    for (std::size_t e = 0; e < n_events; ++e) {
      spec.events.push_back(
          {static_cast<fault::FaultKind>(kind_draw(rng)),
           static_cast<std::uint32_t>(rng() % 64), rng() % 1024});
    }

    const Json rendered = fault::fault_spec_json(spec);
    fault::FaultSpec back;
    std::string error;
    ASSERT_TRUE(fault::parse_fault_spec(rendered, &back, &error)) << error;
    EXPECT_EQ(spec, back);
    EXPECT_EQ(rendered.dump(), fault::fault_spec_json(back).dump());
  }
}

TEST(FaultIo, RecoveryConfigRoundTrips) {
  fault::RecoveryConfig config;
  config.enabled = false;
  config.max_rounds = 5;
  config.detect_timeout = 2.25;
  config.backoff = 1.75;
  fault::RecoveryConfig back;
  std::string error;
  ASSERT_TRUE(
      fault::parse_recovery_config(fault::recovery_config_json(config),
                                   &back, &error))
      << error;
  EXPECT_EQ(config, back);
}

}  // namespace
}  // namespace hcs
