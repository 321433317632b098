// hcs::fuzz suite (`ctest -L fuzz`): manifest/artifact round-trips,
// thread-count-invariant campaign replay, minimizer convergence on a
// known-injected failure, and byte-identical artifact replay.
//
// The known-bad cell used throughout pins expect=captured while disabling
// recovery and injecting an explicit crash event: Theorem-style capture is
// then impossible by construction, so the cell fails deterministically and
// the hand-minimal reproducer is exactly one crash event.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/minimize.hpp"
#include "util/json.hpp"

namespace hcs::fuzz {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> artifact_listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// A deliberately failing cell: capture demanded, recovery off, one real
// crash plus chaff events the minimizer must discard.
CellSpec known_bad_spec() {
  CellSpec spec;
  spec.strategy = "CLEAN";
  spec.dimension = 4;
  spec.seed = 11;
  spec.expect = Expect::kCaptured;
  spec.recovery.enabled = false;
  spec.differential = false;
  spec.faults.seed = 3;
  spec.faults.events = {
      {fault::FaultKind::kCrashAtNode, 0, 0},
      {fault::FaultKind::kCrashAtNode, 1, 0},
      {fault::FaultKind::kWhiteboardLoss, 0, 0},
      {fault::FaultKind::kLinkStall, 2, 1},
  };
  return spec;
}

// The known-bad *campaign*: pinning expect=correct over fault workloads
// guarantees that every cell whose schedule fires is a contract violation.
Manifest known_bad_manifest(std::uint64_t seed) {
  Manifest manifest;
  manifest.campaign_seed = seed;
  manifest.axes.strategies = {"CLEAN"};
  manifest.axes.min_dimension = 3;
  manifest.axes.max_dimension = 4;
  manifest.axes.differential = false;
  manifest.axes.expect = Expect::kCorrect;
  return manifest;
}

TEST(FuzzCell, SpecRoundTripsByteIdentically) {
  const CellSpec spec = known_bad_spec();
  CellSpec back;
  std::string error;
  ASSERT_TRUE(parse_cell_spec(spec.to_json(), &back, &error)) << error;
  EXPECT_EQ(spec.canonical(), back.canonical());
  EXPECT_EQ(spec.content_hash(), back.content_hash());
  EXPECT_EQ(spec.content_hash().size(), 16u);
}

TEST(FuzzCell, ZeroWidthUniformDelayIsRefusedWithADiagnostic) {
  // DelayModel::uniform requires 0 < lo < hi, so replaying this artifact
  // would abort; the loader must refuse it instead.
  Artifact artifact;
  artifact.cell = known_bad_spec();
  Json cell = artifact.cell.to_json();
  Json delay = Json::object();
  delay.set("kind", "uniform");
  delay.set("lo", 0.0);
  delay.set("hi", 0.0);
  cell.set("delay", std::move(delay));
  Json doc = artifact.to_json();
  doc.set("cell", std::move(cell));
  const fs::path path = fresh_dir("hcs_fuzz_bad_delay") / "art_bad.json";
  ASSERT_TRUE(write_json_file(doc, path.string()));

  Artifact loaded;
  std::string error;
  EXPECT_FALSE(load_artifact(path.string(), &loaded, &error));
  EXPECT_NE(error.find("0 < lo < hi"), std::string::npos) << error;
}

TEST(FuzzCell, DimensionIsRangeCheckedBeforeNarrowing) {
  // 2^32 + 4 narrowed to unsigned reads as 4, a valid dimension.
  Json cell = known_bad_spec().to_json();
  cell.set("dimension", std::uint64_t{4294967300});
  CellSpec parsed;
  std::string error;
  EXPECT_FALSE(parse_cell_spec(cell, &parsed, &error));
  EXPECT_NE(error.find("dimension out of range"), std::string::npos) << error;
}

TEST(FuzzCell, OutOfRangeFaultSpecIsRefusedWithADiagnostic) {
  // FaultSchedule requires every rate in [0, 1] and stall_factor >= 1, so
  // replaying these artifacts would abort; the loader must refuse them.
  const struct {
    const char* field;
    double value;
    const char* expect;
  } cases[] = {
      {"crash_rate", 2.0, "[0, 1]"},
      {"link_stall_rate", -0.5, "[0, 1]"},
      {"wb_loss_rate", 1e308, "[0, 1]"},
      {"stall_factor", 0.5, ">= 1"},
  };
  const fs::path dir = fresh_dir("hcs_fuzz_bad_faults");
  for (const auto& c : cases) {
    Artifact artifact;
    artifact.cell = known_bad_spec();
    Json cell = artifact.cell.to_json();
    Json faults = *cell.get("faults");
    faults.set(c.field, c.value);
    cell.set("faults", std::move(faults));
    Json doc = artifact.to_json();
    doc.set("cell", std::move(cell));
    const fs::path path = dir / (std::string("art_") + c.field + ".json");
    ASSERT_TRUE(write_json_file(doc, path.string()));

    Artifact loaded;
    std::string error;
    EXPECT_FALSE(load_artifact(path.string(), &loaded, &error)) << c.field;
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
  }
}

TEST(FuzzCell, KnownBadSpecFailsWithStableSignature) {
  const CellResult result = run_cell(known_bad_spec());
  ASSERT_TRUE(result.failed());
  EXPECT_EQ(result.signature(), "capture-failure");
  // The injected crash events must show up in the fired-decision record
  // the minimizer concretizes from.
  EXPECT_FALSE(result.fired.empty());
}

TEST(FuzzCell, EngineAxisRoundTripsAndKeepsLegacyHashesStable) {
  // The kEvent default is omitted from the canonical form, so a spec that
  // never touches the axis hashes exactly as it did before the axis
  // existed.
  const CellSpec legacy = known_bad_spec();
  EXPECT_EQ(legacy.canonical().find("\"engine\""), std::string::npos);

  CellSpec macro = known_bad_spec();
  macro.engine = sim::EngineKind::kMacro;
  EXPECT_NE(macro.canonical().find("\"engine\": \"macro\""),
            std::string::npos);
  EXPECT_NE(macro.content_hash(), legacy.content_hash());

  CellSpec back;
  std::string error;
  ASSERT_TRUE(parse_cell_spec(macro.to_json(), &back, &error)) << error;
  EXPECT_EQ(back.engine, sim::EngineKind::kMacro);
  EXPECT_EQ(macro.canonical(), back.canonical());
}

TEST(FuzzCell, EngineOracleAgreesOnAnEligibleCell) {
  // A fault-free fifo/unit cell of a macro-capable strategy arms the
  // macro-vs-event oracle; both executors must agree, so the cell passes.
  CellSpec spec;
  spec.strategy = "CLEAN";
  spec.dimension = 5;
  spec.seed = 23;
  spec.engine = sim::EngineKind::kMacro;
  const CellResult result = run_cell(spec);
  EXPECT_FALSE(result.failed()) << result.signature();

  // Crash workloads ride the same mirrored fault gates.
  spec.faults = fault::FaultSpec::crashes(0.02, 5);
  spec.recovery.enabled = true;
  const CellResult faulty = run_cell(spec);
  for (const Failure& f : faulty.failures) {
    EXPECT_NE(f.kind, FailureKind::kDifferentialDivergence) << f.detail;
  }
}

TEST(FuzzCampaign, GeneratorDrawsTheEngineAxis) {
  Manifest manifest = known_bad_manifest(7);
  bool saw_event = false;
  bool saw_macro_or_auto = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const CellSpec spec =
        campaign_cell(manifest.axes, manifest.campaign_seed, i);
    if (spec.engine == sim::EngineKind::kEvent) saw_event = true;
    else saw_macro_or_auto = true;
  }
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_macro_or_auto);

  // Toggling the axis off pins every cell to kEvent without disturbing
  // the other draws.
  manifest.axes.engine_oracle = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const CellSpec off =
        campaign_cell(manifest.axes, manifest.campaign_seed, i);
    EXPECT_EQ(off.engine, sim::EngineKind::kEvent);
    manifest.axes.engine_oracle = true;
    CellSpec on = campaign_cell(manifest.axes, manifest.campaign_seed, i);
    manifest.axes.engine_oracle = false;
    on.engine = sim::EngineKind::kEvent;
    on.shards = 1;  // the shard axis piggybacks on a macro engine draw
    EXPECT_EQ(on.canonical(), off.canonical());
  }
}

TEST(FuzzCampaign, LivelockWindowScalesWithTheTeamAboveH9) {
  // The window keeps the same number of whole-team wake rounds as the
  // largest team doubles per dimension; up to H_9 it stays at 200,000.
  Manifest manifest = known_bad_manifest(7);
  for (const auto& [d, window] :
       {std::pair<unsigned, std::uint64_t>{9, 200'000}, {11, 800'000}}) {
    manifest.axes.min_dimension = d;
    manifest.axes.max_dimension = d;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const CellSpec spec =
          campaign_cell(manifest.axes, manifest.campaign_seed, i);
      EXPECT_EQ(spec.dimension, d);
      EXPECT_EQ(spec.livelock_window, window) << "d=" << d;
    }
  }
}

TEST(FuzzCampaign, GeneratorDrawsTheShardAxis) {
  Manifest manifest = known_bad_manifest(7);
  bool saw_serial = false;
  bool saw_sharded = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const CellSpec spec =
        campaign_cell(manifest.axes, manifest.campaign_seed, i);
    // Sharding is downstream of the engine axis: only macro cells arm the
    // sharded replay leg.
    if (spec.shards != 1) {
      EXPECT_NE(spec.engine, sim::EngineKind::kEvent);
      EXPECT_TRUE(spec.shards == 2 || spec.shards == 4 || spec.shards == 8);
      saw_sharded = true;
    } else {
      saw_serial = true;
    }
  }
  EXPECT_TRUE(saw_serial);
  EXPECT_TRUE(saw_sharded);

  // Toggling the axis off pins every cell to the serial count without
  // disturbing the other draws.
  manifest.axes.shard_oracle = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const CellSpec off =
        campaign_cell(manifest.axes, manifest.campaign_seed, i);
    EXPECT_EQ(off.shards, 1u);
    manifest.axes.shard_oracle = true;
    CellSpec on = campaign_cell(manifest.axes, manifest.campaign_seed, i);
    manifest.axes.shard_oracle = false;
    on.shards = 1;
    EXPECT_EQ(on.canonical(), off.canonical());
  }

  // An axes round-trip preserves the explicit field, while a manifest
  // written before the axis existed (no "shard_oracle" member) parses as
  // *off* -- resuming a legacy campaign must regenerate bit-identical
  // cells.
  manifest.axes.shard_oracle = true;
  CampaignAxes back;
  std::string error;
  ASSERT_TRUE(parse_campaign_axes(manifest.axes.to_json(), &back, &error))
      << error;
  EXPECT_TRUE(back.shard_oracle);
  const Json full = manifest.axes.to_json();
  Json legacy = Json::object();
  for (const char* key : {"strategies", "min_dimension", "max_dimension",
                          "differential", "engine_oracle", "expect"}) {
    legacy.set(key, Json(*full.get(key)));
  }
  ASSERT_TRUE(parse_campaign_axes(legacy, &back, &error)) << error;
  EXPECT_FALSE(back.shard_oracle);
}

TEST(FuzzCampaign, AxesRefuseDimensionsACellCannotReplay) {
  // 25 is past what parse_cell_spec replays; 2^32 + 3 narrowed to
  // unsigned reads as 3, which the old check accepted.
  const Json full = known_bad_manifest(1).axes.to_json();
  for (const std::uint64_t max_dimension :
       {std::uint64_t{25}, std::uint64_t{4294967299}}) {
    Json axes = full;
    axes.set("max_dimension", max_dimension);
    CampaignAxes parsed;
    std::string error;
    EXPECT_FALSE(parse_campaign_axes(axes, &parsed, &error)) << max_dimension;
    EXPECT_NE(error.find("1 <= min <= max <= 24"), std::string::npos)
        << error;
  }
}

TEST(FuzzCampaign, UncreatableCorpusIsAnErrorNotAnAbort) {
  // A directory under a regular file fails with ENOTDIR, even as root.
  const fs::path dir = fresh_dir("hcs_fuzz_enotdir");
  std::ofstream(dir / "file") << "x";
  CampaignConfig config;
  config.corpus_dir = (dir / "file" / "corpus").string();
  const CampaignOutcome outcome =
      CampaignRunner(config).run(known_bad_manifest(7), 6);
  EXPECT_NE(outcome.error.find("cannot create"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(outcome.cells_run, 0u);
}

TEST(FuzzCampaign, FailedArtifactWriteStopsBeforeTheManifest) {
  CampaignConfig config;
  config.minimize_failures = false;
  config.corpus_dir = fresh_dir("hcs_fuzz_write_ok").string();
  const CampaignOutcome clean =
      CampaignRunner(config).run(known_bad_manifest(7), 6);
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  ASSERT_FALSE(clean.manifest.corpus.empty());

  // Block the first artifact's path with a directory: writing it fails
  // even as root, and no manifest may then name it.
  const fs::path blocked = fresh_dir("hcs_fuzz_write_blocked");
  fs::create_directory(blocked /
                       ("art_" + clean.manifest.corpus.front() + ".json"));
  config.corpus_dir = blocked.string();
  const CampaignOutcome outcome =
      CampaignRunner(config).run(known_bad_manifest(7), 6);
  EXPECT_NE(outcome.error.find("cannot write"), std::string::npos)
      << outcome.error;
  EXPECT_FALSE(fs::exists(blocked / "manifest.json"));
  EXPECT_FALSE(fs::exists(blocked / "ckpt"));
}

TEST(FuzzManifest, RoundTripsByteIdentically) {
  Manifest manifest = known_bad_manifest(42);
  manifest.iterations_done = 17;
  manifest.failures.push_back({3, "capture-failure", "aaaa", "bbbb"});
  manifest.failures.push_back({9, "trace-invariant", "cccc", ""});
  manifest.corpus = {"aaaa", "bbbb", "cccc"};

  Manifest back;
  std::string error;
  ASSERT_TRUE(parse_manifest(manifest.to_json(), &back, &error)) << error;
  EXPECT_EQ(manifest.to_json().dump(), back.to_json().dump());
  EXPECT_EQ(back.axes.expect, Expect::kCorrect);
  EXPECT_TRUE(back.has_corpus_hash("bbbb"));
  EXPECT_FALSE(back.has_corpus_hash("dddd"));

  Manifest rejected;
  EXPECT_FALSE(parse_manifest(Json::object(), &rejected, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FuzzManifest, SaveLoadRestoresCampaignState) {
  const fs::path dir = fresh_dir("hcs_fuzz_manifest");
  Manifest manifest = known_bad_manifest(7);
  manifest.iterations_done = 5;
  ASSERT_TRUE(save_manifest(manifest, dir.string()));

  Manifest loaded;
  std::string error;
  ASSERT_TRUE(load_manifest((dir / "manifest.json").string(), &loaded,
                            &error))
      << error;
  EXPECT_EQ(manifest.to_json().dump(), loaded.to_json().dump());
}

TEST(FuzzCampaign, ReplayIsThreadCountInvariant) {
  const fs::path dir1 = fresh_dir("hcs_fuzz_t1");
  const fs::path dir8 = fresh_dir("hcs_fuzz_t8");

  CampaignConfig config;
  config.corpus_dir = dir1.string();
  config.threads = 1;
  const CampaignOutcome at1 =
      CampaignRunner(config).run(known_bad_manifest(7), 6);

  config.corpus_dir = dir8.string();
  config.threads = 8;
  const CampaignOutcome at8 =
      CampaignRunner(config).run(known_bad_manifest(7), 6);

  // The seeded known-bad campaign must actually find failures...
  EXPECT_GT(at1.failures_found, 0u);
  EXPECT_GT(at1.artifacts_written, 0u);
  // ...and the corpus must be byte-identical at 1 and 8 worker threads.
  EXPECT_EQ(at1.manifest.to_json().dump(), at8.manifest.to_json().dump());
  const std::vector<std::string> names = artifact_listing(dir1);
  ASSERT_EQ(names, artifact_listing(dir8));
  for (const std::string& name : names) {
    EXPECT_EQ(read_file(dir1 / name), read_file(dir8 / name)) << name;
  }
}

TEST(FuzzCampaign, ResumeMatchesUninterruptedRun) {
  const fs::path whole = fresh_dir("hcs_fuzz_whole");
  const fs::path split = fresh_dir("hcs_fuzz_split");

  CampaignConfig config;
  config.minimize_failures = false;  // resume identity is about generation
  config.threads = 2;
  config.corpus_dir = whole.string();
  const CampaignOutcome uninterrupted =
      CampaignRunner(config).run(known_bad_manifest(7), 6);

  config.corpus_dir = split.string();
  (void)CampaignRunner(config).run(known_bad_manifest(7), 3);
  Manifest checkpoint;
  std::string error;
  ASSERT_TRUE(load_manifest((split / "manifest.json").string(), &checkpoint,
                            &error))
      << error;
  EXPECT_EQ(checkpoint.iterations_done, 3u);
  const CampaignOutcome resumed =
      CampaignRunner(config).run(std::move(checkpoint), 3);

  EXPECT_EQ(uninterrupted.manifest.to_json().dump(),
            resumed.manifest.to_json().dump());
  EXPECT_EQ(artifact_listing(whole), artifact_listing(split));
}

TEST(FuzzMinimize, ConvergesToHandMinimalSchedule) {
  const CellSpec spec = known_bad_spec();
  const MinimizeResult result = minimize_cell(spec);
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.signature, "capture-failure");
  // The dimension must shrink (the failure reproduces on a smaller cube)
  // and the chaff events must be gone: on the 2-node cube the hand-minimal
  // schedule is the two crashes (a lone survivor would still capture), so
  // the delta-debugger may reach but never exceed two crash events.
  EXPECT_LT(result.minimized_dimension, spec.dimension);
  EXPECT_LE(result.minimized_events, 2u);
  ASSERT_EQ(result.minimized.faults.events.size(), result.minimized_events);
  for (const fault::FaultEvent& event : result.minimized.faults.events) {
    EXPECT_EQ(event.kind, fault::FaultKind::kCrashAtNode);
  }
  // The minimized cell is concretized: pure explicit events, no rates.
  EXPECT_EQ(result.minimized.faults.crash_rate, 0.0);
  // And it reproduces the same failure on an independent replay.
  EXPECT_EQ(run_cell(result.minimized).signature(), result.signature);
}

TEST(FuzzArtifact, ReplaysByteIdentically) {
  const fs::path dir = fresh_dir("hcs_fuzz_artifact");
  const CellSpec spec = known_bad_spec();
  const CellResult result = run_cell(spec);
  ASSERT_TRUE(result.failed());

  Artifact artifact;
  artifact.cell = spec;
  artifact.signature = result.signature();
  artifact.failures = result.failures;
  const fs::path path = dir / artifact.file_name();
  ASSERT_TRUE(write_json_file(artifact.to_json(), path.string()));

  Artifact loaded;
  std::string error;
  ASSERT_TRUE(load_artifact(path.string(), &loaded, &error)) << error;
  // Byte-identical re-serialization...
  EXPECT_EQ(loaded.to_json().dump(), read_file(path));
  EXPECT_EQ(loaded.file_name(), artifact.file_name());
  // ...and an exact failure reproduction from the parsed form alone.
  EXPECT_EQ(run_cell(loaded.cell).signature(), artifact.signature);
}

}  // namespace
}  // namespace hcs::fuzz
