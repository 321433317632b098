// hcs::fuzz -- the campaign layer: deterministic cell generation, corpus
// artifacts, and the resumable manifest.
//
// A campaign walks an unbounded iteration space: cell i of a campaign is a
// pure function of (axes, campaign_seed, i) -- never of thread count or
// wall clock -- so re-running a campaign replays bit-identical cells, and
// `resume` continues exactly where a previous process stopped. Cells
// execute in batches on ThreadPool::parallel_for, each result in its
// index's slot (the determinism discipline the sweep runner keeps); after
// each batch the manifest is rewritten, so a killed campaign loses at
// most one batch of progress.
//
// Every failing cell is persisted as an *artifact*: a JSON document
// carrying the full CellSpec plus the observed failure set. Artifacts are
// content-addressed (art_<fnv1a64-of-canonical-cell>.json), so the same
// failing configuration found twice lands on the same file, and a
// committed artifact doubles as its own regression oracle -- replaying it
// must reproduce the recorded failure signature and re-serialize
// byte-identically (tests/test_fuzz_corpus.cpp).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/cell.hpp"
#include "fuzz/minimize.hpp"
#include "util/json.hpp"

namespace hcs::fuzz {

/// The randomized axes a campaign draws cells from. Everything else in a
/// CellSpec (budgets, expect=kAuto) is fixed by campaign_cell().
struct CampaignAxes {
  std::vector<std::string> strategies = {"CLEAN", "CLEAN-WITH-VISIBILITY",
                                         "CLONING", "SYNCHRONOUS"};
  unsigned min_dimension = 3;
  unsigned max_dimension = 6;
  /// Run the generic-topology differential oracle on every cell.
  bool differential = true;
  /// Draw the engine axis: half the cells request the macro executor
  /// (kMacro or kAuto), arming the macro-vs-event engine oracle on every
  /// macro-eligible draw. Off pins every cell to kEvent.
  bool engine_oracle = true;
  /// Draw the shard axis: cells that requested the macro executor also
  /// draw a subcube shard count from {1, 2, 4, 8}, the count the engine
  /// oracle's macro run (sim::ShardedMacroEngine vs the event oracle)
  /// uses. Off pins every cell to one shard.
  bool shard_oracle = true;
  /// Contract every generated cell is judged against. kAuto (the default)
  /// resolves per workload; pinning e.g. kCorrect while fault rates are
  /// active is the canonical *known-bad* campaign -- every cell whose
  /// schedule fires a fault fails, which is how the tool demonstrates its
  /// find-then-minimize loop end to end.
  Expect expect = Expect::kAuto;

  [[nodiscard]] Json to_json() const;
};

[[nodiscard]] bool parse_campaign_axes(const Json& json, CampaignAxes* out,
                                       std::string* error = nullptr);

/// True when 1 <= min_dimension <= max_dimension <= kMaxCellDimension.
/// Takes the bounds before they are narrowed to `unsigned`, so 2^32 + 4
/// is refused rather than read as 4. False with a one-line diagnostic
/// otherwise.
[[nodiscard]] bool check_dimension_bounds(std::uint64_t min_dimension,
                                          std::uint64_t max_dimension,
                                          std::string* error = nullptr);

/// The deterministic cell at `iteration` of a campaign: strategy,
/// dimension, engine seed, delay model, wake policy, move semantics, and
/// fault workload are all drawn from a SplitMix64 stream keyed on
/// (campaign_seed, iteration) only.
[[nodiscard]] CellSpec campaign_cell(const CampaignAxes& axes,
                                     std::uint64_t campaign_seed,
                                     std::uint64_t iteration);

/// One persisted failing cell.
struct Artifact {
  std::uint64_t version = 1;
  CellSpec cell;
  /// Failure signature observed when the artifact was recorded; replay
  /// must reproduce it exactly.
  std::string signature;
  std::vector<Failure> failures;
  /// True when the cell is a delta-debugged minimal reproducer.
  bool minimized = false;

  [[nodiscard]] Json to_json() const;
  /// Content-addressed file name: "art_<hash-of-cell>.json".
  [[nodiscard]] std::string file_name() const {
    return "art_" + cell.content_hash() + ".json";
  }
};

[[nodiscard]] bool parse_artifact(const Json& json, Artifact* out,
                                  std::string* error = nullptr);
[[nodiscard]] bool load_artifact(const std::string& path, Artifact* out,
                                 std::string* error = nullptr);

/// One failure record in the manifest: where it was found and which
/// artifacts (original and minimized) hold it.
struct ManifestFailure {
  std::uint64_t iteration = 0;
  std::string signature;
  std::string hash;            ///< original failing cell's content hash
  std::string minimized_hash;  ///< empty when minimization was off/failed
};

/// The campaign's resumable state. Rewritten after every batch; `resume`
/// picks up at iterations_done with the recorded seed and axes.
struct Manifest {
  std::uint64_t version = 1;
  std::uint64_t campaign_seed = 1;
  CampaignAxes axes;
  std::uint64_t iterations_done = 0;
  std::vector<ManifestFailure> failures;
  /// Unique artifact hashes in discovery order (the corpus index).
  std::vector<std::string> corpus;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] bool has_corpus_hash(const std::string& hash) const;
};

[[nodiscard]] bool parse_manifest(const Json& json, Manifest* out,
                                  std::string* error = nullptr);
[[nodiscard]] bool load_manifest(const std::string& path, Manifest* out,
                                 std::string* error = nullptr);
/// Writes manifest.json into `corpus_dir` atomically (temp + rename);
/// false on I/O failure.
bool save_manifest(const Manifest& manifest, const std::string& corpus_dir);

/// Persists the campaign state crash-consistently: the manifest is first
/// mirrored to plain manifest.json for external readers
/// (scripts/fuzz_nightly.sh's python probe), then committed as a sealed,
/// checksummed snapshot into <corpus_dir>/ckpt (the hcs::ckpt store --
/// torn writes are detected and older snapshots survive). A kill between
/// the two leaves the mirror one batch ahead; resume re-runs that batch.
/// False on I/O failure.
bool save_campaign_state(const Manifest& manifest,
                         const std::string& corpus_dir,
                         std::string* error = nullptr);

/// Loads the campaign state written by save_campaign_state: prefers the
/// newest valid sealed snapshot (skipping torn ones), falls back to plain
/// manifest.json for pre-snapshot corpora. False -- with a diagnostic --
/// when neither source yields a parseable manifest.
[[nodiscard]] bool load_campaign_state(const std::string& corpus_dir,
                                       Manifest* out,
                                       std::string* error = nullptr);

struct CampaignConfig {
  /// Directory for manifest.json and art_*.json (created if absent).
  std::string corpus_dir = "fuzz-corpus";
  /// Worker threads for cell execution; 0 = hardware concurrency. Results
  /// are identical at any value.
  unsigned threads = 0;
  /// Delta-debug every failure into a minimal reproducer artifact.
  bool minimize_failures = true;
  /// Cells per batch between manifest checkpoints.
  std::uint64_t batch_size = 64;
  MinimizeOptions minimize;
};

struct CampaignOutcome {
  Manifest manifest;
  std::uint64_t cells_run = 0;
  std::uint64_t failures_found = 0;
  std::uint64_t artifacts_written = 0;
  /// Empty on success; otherwise the first write that failed. The run
  /// stops there, before a manifest can name an artifact that is not on
  /// disk; resume continues from the last batch committed.
  std::string error;
};

/// Executes `iterations` further cells of the campaign described by
/// `manifest` (fresh or loaded), persisting artifacts and checkpointing
/// the manifest after every batch. Stops at the first write that fails
/// (CampaignOutcome::error) instead of aborting.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config)
      : config_(std::move(config)) {}

  [[nodiscard]] CampaignOutcome run(Manifest manifest,
                                    std::uint64_t iterations) const;

  [[nodiscard]] const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace hcs::fuzz
