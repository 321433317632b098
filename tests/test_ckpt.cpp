// hcs::ckpt unit suite: sealed-blob integrity, store retention and
// torn-write fallback, SimOutcome round-tripping, sweep CSV/JSON
// renderings of degraded outcomes, and fuzz campaign state -- the one
// user of the snapshot store (runs and sweeps are not checkpointed). The
// cross-process kill-and-resume scenarios live in test_ckpt_chaos.cpp;
// this file proves the layers underneath in-process.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/blob.hpp"
#include "ckpt/outcome_io.hpp"
#include "ckpt/store.hpp"
#include "fuzz/campaign.hpp"
#include "gtest/gtest.h"
#include "run/sweep.hpp"
#include "run/sweep_io.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using hcs::Json;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "hcs_ckpt_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- sealed blobs ----------------------------------------------------

TEST(CkptBlob, SealUnsealRoundTrip) {
  const std::string payload = "{\"hello\":\"world\"}";
  const std::string blob = hcs::ckpt::seal(payload);
  EXPECT_EQ(blob.size(), payload.size() + hcs::ckpt::kBlobFooterSize);
  std::string out;
  EXPECT_TRUE(hcs::ckpt::unseal(blob, &out));
  EXPECT_EQ(out, payload);
}

TEST(CkptBlob, EmptyPayloadSeals) {
  const std::string blob = hcs::ckpt::seal("");
  std::string out = "sentinel";
  EXPECT_TRUE(hcs::ckpt::unseal(blob, &out));
  EXPECT_TRUE(out.empty());
}

TEST(CkptBlob, TruncationDetected) {
  const std::string blob = hcs::ckpt::seal("some payload bytes");
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7},
                                hcs::ckpt::kBlobFooterSize,
                                blob.size() - 1}) {
    std::string out;
    std::string error;
    EXPECT_FALSE(hcs::ckpt::unseal(
        std::string_view(blob).substr(0, blob.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(CkptBlob, BitFlipDetected) {
  std::string blob = hcs::ckpt::seal("all these bytes are covered");
  blob[3] ^= 0x01;  // payload flip -> checksum mismatch
  std::string out;
  EXPECT_FALSE(hcs::ckpt::unseal(blob, &out));
}

TEST(CkptBlob, AtomicWriteReadRoundTrip) {
  const std::string dir = fresh_dir("blob");
  const std::string path = dir + "/x.ckpt";
  ASSERT_TRUE(hcs::ckpt::write_sealed_atomic(path, "payload"));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::string out;
  EXPECT_TRUE(hcs::ckpt::read_sealed(path, &out));
  EXPECT_EQ(out, "payload");
}

// --- the snapshot store ----------------------------------------------

TEST(CkptStore, CommitAssignsMonotoneSequencesAndPrunes) {
  const std::string dir = fresh_dir("store");
  hcs::ckpt::Store store(dir);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Json doc = Json::object();
    doc.set("i", i);
    EXPECT_EQ(store.commit(doc), i);
  }
  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{3, 4, 5}));
  const std::optional<hcs::ckpt::LoadedSnapshot> latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->seq, 5u);
  EXPECT_EQ(latest->doc.at("i").as_uint(), 5u);
  EXPECT_EQ(latest->corrupt_skipped, 0u);
}

TEST(CkptStore, EmptyDirectoryLoadsNothing) {
  hcs::ckpt::Store store(fresh_dir("empty"));
  EXPECT_FALSE(store.load_latest().has_value());
}

TEST(CkptStore, TornNewestFallsBackToPreviousGood) {
  const std::string dir = fresh_dir("torn");
  hcs::ckpt::Store store(dir);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Json doc = Json::object();
    doc.set("i", i);
    ASSERT_EQ(store.commit(doc), i);
  }
  const std::string newest = store.path_for(3);
  fs::resize_file(newest, fs::file_size(newest) - 10);

  const std::optional<hcs::ckpt::LoadedSnapshot> loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(loaded->doc.at("i").as_uint(), 2u);
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
}

TEST(CkptStore, RetentionCountsOnlyGoodSnapshots) {
  const std::string dir = fresh_dir("retention");
  hcs::ckpt::Store store(dir);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Json doc = Json::object();
    doc.set("i", i);
    ASSERT_EQ(store.commit(doc), i);
  }
  ASSERT_EQ(store.list(), (std::vector<std::uint64_t>{3, 4, 5}));

  // Tear the two newest snapshots. The next commit's retention pass must
  // count good snapshots, not files: under the old count-files rule seq 3
  // -- the only good predecessor -- would be pruned here, leaving the
  // store one torn write away from losing everything.
  for (const std::uint64_t seq : {std::uint64_t{4}, std::uint64_t{5}}) {
    const std::string path = store.path_for(seq);
    fs::resize_file(path, fs::file_size(path) - 10);
  }
  Json doc = Json::object();
  doc.set("i", std::uint64_t{6});
  ASSERT_EQ(store.commit(doc), 6u);
  const std::vector<std::uint64_t> kept = store.list();
  EXPECT_NE(std::count(kept.begin(), kept.end(), 3u), 0) << "seq 3 pruned";

  // With 6 torn as well, loading falls back across the corrupt run to 3.
  const std::string newest = store.path_for(6);
  fs::resize_file(newest, fs::file_size(newest) - 10);
  const std::optional<hcs::ckpt::LoadedSnapshot> loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 3u);
  EXPECT_EQ(loaded->doc.at("i").as_uint(), 3u);
  EXPECT_EQ(loaded->corrupt_skipped, 3u);
}

// --- SimOutcome round-trip -------------------------------------------

hcs::core::SimOutcome sample_outcome() {
  hcs::core::SimOutcome o;
  o.strategy = "CLEAN";
  o.dimension = 9;
  o.team_size = 86;
  o.total_moves = 12345;
  o.agent_moves = 12000;
  o.synchronizer_moves = 345;
  o.makespan = 123.4375;
  o.capture_time = 99.03125;
  o.recontaminations = 2;
  o.all_clean = true;
  o.clean_region_connected = true;
  o.all_agents_terminated = false;
  o.abort_reason = hcs::sim::AbortReason::kLivelock;
  o.degradation.crashes = 3;
  o.degradation.faults_recovered = 2;
  o.degradation.recovery_time = 17.5;
  o.peak_whiteboard_bits = 4096;
  o.engine_used = hcs::sim::EngineKind::kMacro;
  return o;
}

TEST(CkptOutcome, RoundTripsEveryField) {
  const hcs::core::SimOutcome original = sample_outcome();
  const Json json = hcs::ckpt::outcome_json(original);
  hcs::core::SimOutcome parsed;
  std::string error;
  ASSERT_TRUE(hcs::ckpt::parse_outcome(json, &parsed, &error)) << error;
  EXPECT_EQ(hcs::ckpt::outcome_json(parsed).dump(), json.dump());
  EXPECT_EQ(parsed.abort_reason, original.abort_reason);
  EXPECT_EQ(parsed.engine_used, original.engine_used);
  EXPECT_EQ(parsed.degradation.recovery_time,
            original.degradation.recovery_time);
}

TEST(CkptOutcome, CorruptInputFailsInsteadOfAborting) {
  Json json = hcs::ckpt::outcome_json(sample_outcome());
  json.set("team_size", std::int64_t{-5});  // negative -> kInt, not kUint
  hcs::core::SimOutcome parsed;
  std::string error;
  EXPECT_FALSE(hcs::ckpt::parse_outcome(json, &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CkptOutcome, EnumNamesRoundTrip) {
  for (const auto reason :
       {hcs::sim::AbortReason::kNone, hcs::sim::AbortReason::kStepCap,
        hcs::sim::AbortReason::kLivelock,
        hcs::sim::AbortReason::kFaultUnrecoverable}) {
    hcs::sim::AbortReason parsed;
    ASSERT_TRUE(hcs::ckpt::abort_reason_from_string(
        hcs::sim::to_string(reason), &parsed));
    EXPECT_EQ(parsed, reason);
  }
  for (const auto kind :
       {hcs::sim::EngineKind::kEvent, hcs::sim::EngineKind::kMacro,
        hcs::sim::EngineKind::kAuto}) {
    hcs::sim::EngineKind parsed;
    ASSERT_TRUE(
        hcs::ckpt::engine_kind_from_string(hcs::sim::to_string(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  hcs::sim::AbortReason unused;
  EXPECT_FALSE(hcs::ckpt::abort_reason_from_string("no-such", &unused));
}

// --- degradation / abort reason through sweep CSV and JSON -----------

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= line.size()) {
    const std::size_t comma = line.find(',', begin);
    const std::size_t end = comma == std::string::npos ? line.size() : comma;
    out.push_back(line.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

std::vector<std::vector<std::string>> csv_rows(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::size_t begin = 0;
  while (begin < csv.size()) {
    const std::size_t nl = csv.find('\n', begin);
    const std::size_t end = nl == std::string::npos ? csv.size() : nl;
    if (end > begin) rows.push_back(split_csv_line(csv.substr(begin, end - begin)));
    if (nl == std::string::npos) break;
    begin = nl + 1;
  }
  return rows;
}

/// Macro-capable grid that crosses the macro/auto executors with faulty
/// workloads (macro falls back to its exact interpreter) and the
/// vacate-on-departure semantics (the fast path bails to exact when a
/// vacated node would expose) -- the paths whose DegradationReport and
/// AbortReason values must survive the CSV/JSON renderings.
hcs::run::SweepSpec macro_fault_sweep() {
  hcs::run::SweepSpec spec;
  spec.strategies = {"CLEAN"};
  spec.dimensions = {5};
  spec.seeds = {3};
  spec.semantics = {hcs::sim::MoveSemantics::kAtomicArrival,
                    hcs::sim::MoveSemantics::kVacateOnDeparture};
  hcs::fault::FaultSpec crashes;
  crashes.crash_rate = 0.05;
  crashes.seed = 11;
  spec.faults = {hcs::fault::FaultSpec::none(), crashes};
  spec.engines = {hcs::sim::EngineKind::kEvent, hcs::sim::EngineKind::kMacro,
                  hcs::sim::EngineKind::kAuto};
  return spec;
}

TEST(CkptSweepIo, DegradationAndAbortReasonRoundTripThroughCsv) {
  const hcs::run::SweepResult result =
      hcs::run::SweepRunner().run(macro_fault_sweep());
  bool saw_macro_used = false;
  bool saw_vacate_macro = false;
  bool saw_faults = false;

  const auto rows = csv_rows(hcs::run::sweep_csv(result));
  ASSERT_EQ(rows.size(), result.cells.size() + 1);  // header + cells
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const hcs::run::SweepCell& cell = result.cells[i];
    const std::vector<std::string>& row = rows[i + 1];
    ASSERT_EQ(row.size(), rows[0].size());

    hcs::sim::EngineKind engine_used;
    ASSERT_TRUE(hcs::ckpt::engine_kind_from_string(row[8], &engine_used))
        << row[8];
    EXPECT_EQ(engine_used, cell.outcome.engine_used);
    hcs::sim::AbortReason abort_reason;
    ASSERT_TRUE(hcs::ckpt::abort_reason_from_string(row[9], &abort_reason))
        << row[9];
    EXPECT_EQ(abort_reason, cell.outcome.abort_reason);

    const hcs::fault::DegradationReport& deg = cell.outcome.degradation;
    EXPECT_EQ(row[23], std::to_string(deg.injected_total()));
    EXPECT_EQ(row[25], std::to_string(deg.faults_recovered));
    EXPECT_EQ(row[28], std::to_string(deg.recovery_moves));
    EXPECT_EQ(std::stod(row[29]), deg.recovery_time);

    saw_macro_used |= engine_used == hcs::sim::EngineKind::kMacro;
    saw_vacate_macro |=
        engine_used == hcs::sim::EngineKind::kMacro &&
        cell.semantics == hcs::sim::MoveSemantics::kVacateOnDeparture;
    saw_faults |= deg.injected_total() > 0;
  }
  // The grid exercised what it claims to: the macro executor resolved,
  // including the vacate-on-departure cell (the bail-to-exact path), and
  // faulty cells produced a non-trivial degradation report.
  EXPECT_TRUE(saw_macro_used);
  EXPECT_TRUE(saw_vacate_macro);
  EXPECT_TRUE(saw_faults);
}

TEST(CkptSweepIo, DegradationAndAbortReasonRoundTripThroughJson) {
  const hcs::run::SweepResult result =
      hcs::run::SweepRunner().run(macro_fault_sweep());
  const std::optional<Json> doc =
      Json::parse(hcs::run::sweep_json(result));
  ASSERT_TRUE(doc.has_value());
  const Json* cells = doc->get("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), result.cells.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const Json& row = cells->items()[i];
    const hcs::core::SimOutcome& o = result.cells[i].outcome;
    hcs::sim::EngineKind engine_used;
    ASSERT_TRUE(hcs::ckpt::engine_kind_from_string(
        row.at("engine_used").as_string(), &engine_used));
    EXPECT_EQ(engine_used, o.engine_used);
    hcs::sim::AbortReason abort_reason;
    ASSERT_TRUE(hcs::ckpt::abort_reason_from_string(
        row.at("abort_reason").as_string(), &abort_reason));
    EXPECT_EQ(abort_reason, o.abort_reason);
    EXPECT_EQ(row.at("faults_injected").as_uint(),
              o.degradation.injected_total());
    EXPECT_EQ(row.at("faults_recovered").as_uint(),
              o.degradation.faults_recovered);
    EXPECT_EQ(row.at("recovery_time").as_double(),
              o.degradation.recovery_time);
  }
}

TEST(CkptSweepIo, StepCapAbortSurvivesCsvAndJson) {
  hcs::run::SweepSpec spec;
  spec.strategies = {"CLEAN"};
  spec.dimensions = {5};
  spec.seeds = {3};
  hcs::fault::FaultSpec crashes;
  crashes.crash_rate = 0.05;
  crashes.seed = 11;
  spec.faults = {crashes};
  spec.max_agent_steps = 200;  // guaranteed to trip the step cap in H_5
  const hcs::run::SweepResult result = hcs::run::SweepRunner().run(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_EQ(result.cells[0].outcome.abort_reason,
            hcs::sim::AbortReason::kStepCap);

  const auto rows = csv_rows(hcs::run::sweep_csv(result));
  hcs::sim::AbortReason parsed;
  ASSERT_TRUE(hcs::ckpt::abort_reason_from_string(rows[1][9], &parsed));
  EXPECT_EQ(parsed, hcs::sim::AbortReason::kStepCap);

  const std::optional<Json> doc = Json::parse(hcs::run::sweep_json(result));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("cells")->items()[0].at("abort_reason").as_string(),
            hcs::sim::to_string(hcs::sim::AbortReason::kStepCap));
}

// --- fuzz campaign state ---------------------------------------------

TEST(CkptFuzz, CampaignStatePrefersSealedSnapshotOverTornManifest) {
  const std::string dir = fresh_dir("fuzz_state");
  hcs::fuzz::Manifest manifest;
  manifest.campaign_seed = 42;
  manifest.iterations_done = 128;
  std::string error;
  ASSERT_TRUE(hcs::fuzz::save_campaign_state(manifest, dir, &error)) << error;

  // Tear manifest.json the way a kill mid-write would under a non-atomic
  // writer; the sealed snapshot must win regardless.
  {
    std::ofstream torn(dir + "/manifest.json",
                       std::ios::binary | std::ios::trunc);
    torn << "{\"version\": 1, \"campaign_se";
  }
  hcs::fuzz::Manifest loaded;
  ASSERT_TRUE(hcs::fuzz::load_campaign_state(dir, &loaded, &error)) << error;
  EXPECT_EQ(loaded.campaign_seed, 42u);
  EXPECT_EQ(loaded.iterations_done, 128u);
}

TEST(CkptFuzz, LegacyManifestOnlyCorpusStillLoads) {
  const std::string dir = fresh_dir("fuzz_legacy");
  hcs::fuzz::Manifest manifest;
  manifest.campaign_seed = 9;
  manifest.iterations_done = 64;
  ASSERT_TRUE(hcs::fuzz::save_manifest(manifest, dir));
  hcs::fuzz::Manifest loaded;
  std::string error;
  ASSERT_TRUE(hcs::fuzz::load_campaign_state(dir, &loaded, &error)) << error;
  EXPECT_EQ(loaded.campaign_seed, 9u);
  EXPECT_EQ(loaded.iterations_done, 64u);
}

TEST(CkptFuzz, MissingEverythingIsADiagnosticNotAnAbort) {
  hcs::fuzz::Manifest loaded;
  std::string error;
  EXPECT_FALSE(hcs::fuzz::load_campaign_state(fresh_dir("fuzz_none"), &loaded,
                                              &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
