// The paper's exact counts at fast-path scale.
//
// The event engine cross-checks the macro executor only where it can
// still run in a test budget (H_12 and below); above that, the bitplane
// fast path is the only code producing the answer. These tests pin that
// answer on H_16 against the closed forms, at one shard (every tick
// inline) and two (the barrier-phased split):
//
//  * CLEAN: team size (Theorem 2) and agent moves (Theorem 3);
//  * CLEAN WITH VISIBILITY: team size (Theorem 5), moves (Theorem 8) and
//    ideal time as the makespan (Theorem 7).
//
// Every outcome must also be monotone and contiguous: all clean, a
// connected clean region, zero recontaminations.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/formulas.hpp"
#include "core/session.hpp"
#include "sim/options.hpp"

namespace hcs {
namespace {

constexpr unsigned kDim = 16;

core::SimOutcome run_macro(const std::string& strategy, std::uint32_t shards) {
  SessionConfig config;
  config.dimension = kDim;
  config.options.engine = sim::EngineKind::kMacro;
  config.options.shards = shards;
  return Session(config).run(strategy);
}

void expect_monotone_macro(const core::SimOutcome& outcome,
                           const std::string& label) {
  EXPECT_EQ(outcome.engine_used, sim::EngineKind::kMacro) << label;
  EXPECT_TRUE(outcome.correct()) << label << ": " << outcome.verdict();
  EXPECT_TRUE(outcome.all_clean) << label;
  EXPECT_TRUE(outcome.clean_region_connected) << label;
  EXPECT_EQ(outcome.recontaminations, 0u) << label;
}

TEST(Scale, CleanMatchesTheorems2And3) {
  for (const std::uint32_t shards : {1u, 2u}) {
    const std::string label = "CLEAN H_16 shards=" + std::to_string(shards);
    const core::SimOutcome outcome = run_macro("CLEAN", shards);
    expect_monotone_macro(outcome, label);
    EXPECT_EQ(outcome.team_size, core::clean_team_size(kDim)) << label;
    EXPECT_EQ(outcome.agent_moves, core::clean_agent_moves(kDim)) << label;
  }
}

TEST(Scale, VisibilityMatchesTheorems5To8) {
  for (const std::uint32_t shards : {1u, 2u}) {
    const std::string label =
        "CLEAN-WITH-VISIBILITY H_16 shards=" + std::to_string(shards);
    const core::SimOutcome outcome = run_macro("CLEAN-WITH-VISIBILITY", shards);
    expect_monotone_macro(outcome, label);
    EXPECT_EQ(outcome.team_size, core::visibility_team_size(kDim)) << label;
    EXPECT_EQ(outcome.total_moves, core::visibility_moves(kDim)) << label;
    EXPECT_EQ(outcome.makespan,
              static_cast<double>(core::visibility_time(kDim)))
        << label;
  }
}

}  // namespace
}  // namespace hcs
