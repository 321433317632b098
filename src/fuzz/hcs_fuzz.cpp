// hcs_fuzz -- the fuzzing campaign CLI.
//
//   hcs_fuzz run      --corpus DIR --iterations N [--seed S] [axes...]
//   hcs_fuzz resume   --corpus DIR --iterations N
//   hcs_fuzz minimize --artifact FILE [--out FILE]
//   hcs_fuzz replay   --artifact FILE
//
// `run` starts a fresh campaign (refusing to clobber an existing
// manifest), `resume` continues one from its manifest, `minimize`
// delta-debugs a single artifact into a minimal reproducer, and `replay`
// re-executes an artifact and verifies both the recorded failure
// signature and byte-identical re-serialization -- the same check the
// corpus regression test applies to every committed artifact. Exit code 0
// means the verb succeeded (for `replay`: the artifact reproduced).

#include <cstdio>
#include <filesystem>
#include <string>

#include "fuzz/campaign.hpp"
#include "util/cli.hpp"

namespace {

using hcs::fuzz::Artifact;
using hcs::fuzz::CampaignConfig;
using hcs::fuzz::CampaignOutcome;
using hcs::fuzz::CampaignRunner;
using hcs::fuzz::Manifest;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

void print_outcome(const CampaignOutcome& outcome) {
  std::printf("campaign: %llu cell(s) run, %llu total; %llu failure(s), "
              "%llu artifact(s) written, corpus size %zu\n",
              static_cast<unsigned long long>(outcome.cells_run),
              static_cast<unsigned long long>(
                  outcome.manifest.iterations_done),
              static_cast<unsigned long long>(outcome.failures_found),
              static_cast<unsigned long long>(outcome.artifacts_written),
              outcome.manifest.corpus.size());
  for (const hcs::fuzz::ManifestFailure& f : outcome.manifest.failures) {
    std::printf("  iteration %llu: %s (art_%s.json%s%s)\n",
                static_cast<unsigned long long>(f.iteration),
                f.signature.c_str(), f.hash.c_str(),
                f.minimized_hash.empty() ? "" : ", minimized art_",
                f.minimized_hash.empty()
                    ? ""
                    : (f.minimized_hash + ".json").c_str());
  }
}

CampaignConfig campaign_config(const hcs::CliParser& cli) {
  CampaignConfig config;
  config.corpus_dir = cli.get("corpus");
  config.threads = static_cast<unsigned>(cli.get_uint("threads"));
  config.minimize_failures = !cli.get_bool("no-minimize");
  return config;
}

/// Runs --iterations further cells; a write the campaign could not make
/// ends the verb with its diagnostic and exit code 1.
int run_campaign(const char* verb, const hcs::CliParser& cli,
                 Manifest manifest) {
  const CampaignOutcome outcome =
      CampaignRunner(campaign_config(cli))
          .run(std::move(manifest), cli.get_uint("iterations"));
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "hcs_fuzz %s: %s\n", verb, outcome.error.c_str());
    return 1;
  }
  print_outcome(outcome);
  return 0;
}

int cmd_run(const hcs::CliParser& cli) {
  const std::string manifest_path = cli.get("corpus") + "/manifest.json";
  if (std::filesystem::exists(manifest_path)) {
    std::fprintf(stderr,
                 "hcs_fuzz run: %s already exists; use `hcs_fuzz resume` "
                 "to continue that campaign\n",
                 manifest_path.c_str());
    return 1;
  }
  Manifest manifest;
  manifest.campaign_seed = cli.get_uint("seed");
  const std::string strategies = cli.get("strategies");
  if (!strategies.empty()) {
    manifest.axes.strategies = split_list(strategies);
  }
  const std::uint64_t min_dim = cli.get_uint("min-dim");
  const std::uint64_t max_dim = cli.get_uint("max-dim");
  std::string error;
  if (!hcs::fuzz::check_dimension_bounds(min_dim, max_dim, &error)) {
    std::fprintf(stderr, "hcs_fuzz run: %s\n", error.c_str());
    return 2;
  }
  manifest.axes.min_dimension = static_cast<unsigned>(min_dim);
  manifest.axes.max_dimension = static_cast<unsigned>(max_dim);
  manifest.axes.differential = !cli.get_bool("no-differential");
  manifest.axes.engine_oracle = !cli.get_bool("no-engine-oracle");
  manifest.axes.shard_oracle = !cli.get_bool("no-shard-oracle");
  if (!hcs::fuzz::expect_from_string(cli.get("expect"),
                                     &manifest.axes.expect)) {
    std::fprintf(stderr,
                 "hcs_fuzz run: --expect must be one of auto, correct, "
                 "captured, principled, safety\n");
    return 2;
  }

  return run_campaign("run", cli, std::move(manifest));
}

int cmd_resume(const hcs::CliParser& cli) {
  Manifest manifest;
  std::string error;
  // Prefers the sealed snapshot store under <corpus>/ckpt (after a kill,
  // manifest.json can be one batch ahead of it), falling back to the
  // plain manifest for pre-snapshot corpora.
  if (!hcs::fuzz::load_campaign_state(cli.get("corpus"), &manifest, &error)) {
    std::fprintf(stderr, "hcs_fuzz resume: %s\n", error.c_str());
    return 1;
  }
  std::printf("resuming at iteration %llu\n",
              static_cast<unsigned long long>(manifest.iterations_done));
  return run_campaign("resume", cli, std::move(manifest));
}

int cmd_minimize(const hcs::CliParser& cli) {
  const std::string path = cli.get("artifact");
  Artifact artifact;
  std::string error;
  if (path.empty() || !hcs::fuzz::load_artifact(path, &artifact, &error)) {
    std::fprintf(stderr, "hcs_fuzz minimize: %s\n",
                 path.empty() ? "--artifact is required" : error.c_str());
    return 1;
  }
  const hcs::fuzz::MinimizeResult result =
      hcs::fuzz::minimize_cell(artifact.cell);
  if (!result.reproduced) {
    std::fprintf(stderr,
                 "hcs_fuzz minimize: artifact does not fail when replayed\n");
    return 1;
  }
  Artifact minimal;
  minimal.cell = result.minimized;
  minimal.signature = result.signature;
  minimal.failures = result.failures;
  minimal.minimized = true;
  std::string out_path = cli.get("out");
  if (out_path.empty()) {
    out_path = (std::filesystem::path(path).parent_path() /
                minimal.file_name()).string();
  }
  if (!hcs::write_json_file(minimal.to_json(), out_path)) {
    std::fprintf(stderr, "hcs_fuzz minimize: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("minimized %s -> %s\n  signature %s\n"
              "  dim %u -> %u, fired events %zu -> %zu, %llu run(s)\n",
              path.c_str(), out_path.c_str(), result.signature.c_str(),
              result.original_dimension, result.minimized_dimension,
              result.original_events, result.minimized_events,
              static_cast<unsigned long long>(result.runs));
  return 0;
}

int cmd_replay(const hcs::CliParser& cli) {
  const std::string path = cli.get("artifact");
  Artifact artifact;
  std::string error;
  if (path.empty() || !hcs::fuzz::load_artifact(path, &artifact, &error)) {
    std::fprintf(stderr, "hcs_fuzz replay: %s\n",
                 path.empty() ? "--artifact is required" : error.c_str());
    return 1;
  }
  const hcs::fuzz::CellResult result = hcs::fuzz::run_cell(artifact.cell);
  const std::string signature = result.signature();
  std::printf("replay %s\n  recorded  %s\n  observed  %s\n", path.c_str(),
              artifact.signature.c_str(),
              signature.empty() ? "(clean)" : signature.c_str());
  for (const hcs::fuzz::Failure& f : result.failures) {
    std::printf("  %s: %s\n", hcs::fuzz::to_string(f.kind), f.detail.c_str());
  }
  if (signature != artifact.signature) {
    std::fprintf(stderr, "hcs_fuzz replay: signature mismatch\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  hcs::CliParser cli(
      "Adversarial fuzzing campaign over the simulator: run/resume a "
      "deterministic campaign, minimize a failing artifact, or replay one.\n"
      "Usage: hcs_fuzz <run|resume|minimize|replay> [flags]");
  cli.add_flag("corpus", "fuzz-corpus",
               "campaign directory (manifest.json + art_*.json)");
  cli.add_flag("iterations", "200", "cells to run (run/resume)");
  cli.add_flag("seed", "1", "campaign seed (run)");
  cli.add_flag("threads", "0", "worker threads; 0 = hardware concurrency");
  cli.add_flag("strategies", "",
               "comma-separated strategy names (default: the four paper "
               "strategies)");
  cli.add_flag("min-dim", "3", "smallest dimension fuzzed");
  cli.add_flag("max-dim", "6", "largest dimension fuzzed");
  cli.add_flag("expect", "auto",
               "contract every cell is judged against (auto|correct|captured|"
               "principled|safety); pinning `correct` over a faulty workload "
               "is the canonical known-bad campaign");
  cli.add_bool_flag("no-differential",
                    "skip the generic-topology differential oracle");
  cli.add_bool_flag("no-engine-oracle",
                    "never draw the macro-vs-event engine axis");
  cli.add_bool_flag("no-shard-oracle",
                    "never draw the sharded-macro replay axis");
  cli.add_bool_flag("no-minimize", "keep failures un-minimized (run/resume)");
  cli.add_flag("artifact", "", "artifact file (minimize/replay)");
  cli.add_flag("out", "", "output path for the minimized artifact");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "hcs_fuzz: expected one verb "
                         "(run|resume|minimize|replay)\n%s\n",
                 cli.usage().c_str());
    return 2;
  }
  const std::string& verb = cli.positional()[0];
  if (verb == "run") return cmd_run(cli);
  if (verb == "resume") return cmd_resume(cli);
  if (verb == "minimize") return cmd_minimize(cli);
  if (verb == "replay") return cmd_replay(cli);
  std::fprintf(stderr, "hcs_fuzz: unknown verb \"%s\"\n", verb.c_str());
  return 2;
}
