// Randomized fault soak: unlike the rest of the suite this test draws its
// fault seeds from std::random_device, so every run explores new crash
// schedules. On failure it prints the seed so the run can be replayed
// deterministically (FaultSpec::crashes(rate, seed) is the whole state).
//
// HCS_SOAK_ITERS controls the number of iterations per scenario (default 2
// to keep the tier-1 suite fast; the nightly CI job raises it).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>

#include "core/formulas.hpp"
#include "core/strategy.hpp"
#include "fault/fault.hpp"
#include "fuzz/campaign.hpp"
#include "graph/builders.hpp"

namespace hcs {
namespace {

int soak_iters() {
  const char* env = std::getenv("HCS_SOAK_ITERS");
  if (env == nullptr || *env == '\0') return 2;
  const int n = std::atoi(env);
  return n > 0 ? n : 2;
}

std::uint64_t fresh_seed() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) | rd();
}

TEST(FaultSoak, EngineCapturesUnderRandomCrashSchedules) {
  for (int iter = 0; iter < soak_iters(); ++iter) {
    const std::uint64_t seed = fresh_seed();
    SCOPED_TRACE("replay with fault seed " + std::to_string(seed));
    for (const auto kind :
         {core::StrategyKind::kCleanSync, core::StrategyKind::kVisibility,
          core::StrategyKind::kCloning, core::StrategyKind::kSynchronous}) {
      core::SimRunConfig config;
      config.faults = fault::FaultSpec::crashes(0.05, seed);
      const core::SimOutcome out = core::run_strategy_sim(core::strategy_name(kind), 6, config);
      EXPECT_TRUE(out.captured())
          << out.strategy << " failed under fault seed " << seed
          << " (verdict " << out.verdict() << ")";
      EXPECT_EQ(out.degradation.faults_recovered,
                out.degradation.crashes_detected +
                    out.degradation.wb_faults_detected)
          << out.strategy << " fault seed " << seed;
    }
  }
}

TEST(FaultSoak, EngineSurvivesMixedFaultWorkloads) {
  for (int iter = 0; iter < soak_iters(); ++iter) {
    const std::uint64_t seed = fresh_seed();
    SCOPED_TRACE("replay with fault seed " + std::to_string(seed));
    fault::FaultSpec spec;
    spec.crash_rate = 0.02;
    spec.wb_loss_rate = 0.01;
    spec.wb_corrupt_rate = 0.01;
    spec.wake_drop_rate = 0.01;
    spec.link_stall_rate = 0.05;
    spec.seed = seed;
    core::SimRunConfig config;
    config.faults = spec;
    const core::SimOutcome out =
        core::run_strategy_sim(core::strategy_name(core::StrategyKind::kVisibility), 6, config);
    // Mixed workloads may or may not be recoverable; the invariants are:
    // the run ends (no hang), the verdict is principled (never a bare
    // abort), and a clean network is only ever claimed honestly.
    EXPECT_TRUE(out.captured() ||
                out.abort_reason == sim::AbortReason::kFaultUnrecoverable ||
                out.degradation.agents_stranded > 0)
        << "fault seed " << seed << " verdict " << out.verdict();
    if (out.captured()) {
      EXPECT_NE(out.verdict(), "failed(fault-unrecoverable)")
          << "fault seed " << seed;
    }
  }
}

// The randomized soak routed through the fuzz campaign runner: a fresh
// campaign seed every run, full oracle battery (contract checks, trace
// invariants, differential topology) on every cell, and -- the reason it
// lives on the campaign rather than a bare loop -- any failure is
// persisted as a replayable artifact in the soak corpus directory, ready
// to be minimized (`hcs_fuzz minimize`) and committed to tests/data/fuzz/
// as a permanent regression. HCS_SOAK_CORPUS overrides the corpus
// location (the nightly job sets it to an uploaded CI artifact path).
TEST(FaultSoak, CampaignSoakPersistsFailuresAsArtifacts) {
  const char* env = std::getenv("HCS_SOAK_CORPUS");
  const std::string corpus_dir =
      (env != nullptr && *env != '\0')
          ? std::string(env)
          : (std::filesystem::temp_directory_path() / "hcs_soak_corpus")
                .string();
  std::filesystem::remove_all(corpus_dir);

  fuzz::Manifest manifest;
  manifest.campaign_seed = fresh_seed();
  manifest.axes.max_dimension = 5;  // tier-1 budget; the nightly goes wider
  const std::uint64_t seed = manifest.campaign_seed;

  fuzz::CampaignConfig config;
  config.corpus_dir = corpus_dir;
  const fuzz::CampaignOutcome outcome =
      fuzz::CampaignRunner(config).run(
          std::move(manifest), static_cast<std::uint64_t>(soak_iters()) * 4);

  EXPECT_EQ(outcome.failures_found, 0u)
      << "campaign seed " << seed << " left " << outcome.artifacts_written
      << " artifact(s) in " << corpus_dir
      << "; replay with `hcs_fuzz replay --artifact <file>`";
}

}  // namespace
}  // namespace hcs
