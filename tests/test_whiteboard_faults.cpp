// Whiteboard storage faults: a lost entry must read back as "absent"
// (std::nullopt / fallback), never as stale data, under the write-hook
// mechanism directly and through the event engine.

#include "sim/whiteboard.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault.hpp"
#include "graph/builders.hpp"
#include "sim/engine.hpp"

namespace hcs {
namespace {

TEST(WhiteboardHook, FiresAfterCommitAndMayEraseTheEntry) {
  sim::Whiteboard wb;
  std::int64_t seen_at_hook = -1;
  wb.set_write_hook([&](sim::Whiteboard& board, sim::WbKey key) {
    // The hook runs post-commit: the good value is visible here (the
    // journal the recovery layer keeps is built from this read)...
    seen_at_hook = board.get(key);
    board.erase(key);  // ...and then the fault destroys it.
  });
  wb.set("mark", 42);
  EXPECT_EQ(seen_at_hook, 42);
  // Readers observe a clean absence, not the stale 42.
  EXPECT_EQ(wb.try_get("mark"), std::nullopt);
  EXPECT_FALSE(wb.has("mark"));
  EXPECT_EQ(wb.get("mark", -7), -7);
}

TEST(WhiteboardHook, ReentrantWritesInsideTheHookDoNotRecurse) {
  sim::Whiteboard wb;
  int fires = 0;
  wb.set_write_hook([&](sim::Whiteboard& board, sim::WbKey key) {
    ++fires;
    board.set(key, 999);  // corruption: must not re-fire the hook
  });
  wb.set("x", 1);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(wb.get("x"), 999);
  wb.add("x", 1);  // add() routes through set(): one more fire, no loop
  EXPECT_EQ(fires, 2);
}

TEST(WhiteboardFaults, EngineEntryLossReadsAsAbsentNotStale) {
  // Node 0's first committed write is injected as lost. With recovery off,
  // the absence must persist to the end of the run.
  class Writer final : public sim::Agent {
   public:
    sim::Action step(sim::AgentContext& ctx) override {
      ctx.wb_set("flag", 7);
      return sim::Action::finished();
    }
  };

  const graph::Graph g = graph::make_path(2);
  sim::Network net(g, 0);
  sim::Engine::Config cfg;
  cfg.faults.events.push_back({fault::FaultKind::kWhiteboardLoss, 0, 0});
  cfg.recovery.enabled = false;
  sim::Engine engine(net, cfg);
  engine.spawn(std::make_unique<Writer>(), 0);
  const auto result = engine.run();

  EXPECT_EQ(result.degradation.wb_entries_lost, 1u);
  EXPECT_EQ(net.whiteboard(0).try_get("flag"), std::nullopt);
  EXPECT_EQ(net.whiteboard(0).get("flag", 0), 0);  // fallback, not stale 7
}

TEST(WhiteboardFaults, EngineRecoveryRestoresTheLostEntry) {
  // Same injection with recovery on: the journal re-derives the lost value.
  class Writer final : public sim::Agent {
   public:
    sim::Action step(sim::AgentContext& ctx) override {
      ctx.wb_set("flag", 7);
      return sim::Action::finished();
    }
  };

  const graph::Graph g = graph::make_path(2);
  sim::Network net(g, 0);
  sim::Engine::Config cfg;
  cfg.faults.events.push_back({fault::FaultKind::kWhiteboardLoss, 0, 0});
  sim::Engine engine(net, cfg);
  engine.spawn(std::make_unique<Writer>(), 0);
  const auto result = engine.run();

  EXPECT_EQ(result.degradation.wb_entries_lost, 1u);
  EXPECT_EQ(result.degradation.wb_faults_detected, 1u);
  EXPECT_GE(result.degradation.faults_recovered, 1u);
  EXPECT_EQ(net.whiteboard(0).try_get("flag"), std::optional<std::int64_t>(7));
}

TEST(WhiteboardFaults, EngineCorruptionReplacesTheValueDeterministically) {
  class Writer final : public sim::Agent {
   public:
    sim::Action step(sim::AgentContext& ctx) override {
      ctx.wb_set("flag", 7);
      return sim::Action::finished();
    }
  };

  auto corrupted_value = [](std::uint64_t fault_seed) {
    const graph::Graph g = graph::make_path(2);
    sim::Network net(g, 0);
    sim::Engine::Config cfg;
    cfg.faults.events.push_back({fault::FaultKind::kWhiteboardCorrupt, 0, 0});
    cfg.faults.seed = fault_seed;
    cfg.recovery.enabled = false;
    sim::Engine engine(net, cfg);
    engine.spawn(std::make_unique<Writer>(), 0);
    const auto result = engine.run();
    EXPECT_EQ(result.degradation.wb_entries_corrupted, 1u);
    const auto v = net.whiteboard(0).try_get("flag");
    EXPECT_TRUE(v.has_value());  // corruption keeps the entry, garbles it
    return *v;
  };
  // Deterministic per seed, and not the committed value.
  EXPECT_EQ(corrupted_value(3), corrupted_value(3));
  EXPECT_NE(corrupted_value(3), 7);
}

}  // namespace
}  // namespace hcs
