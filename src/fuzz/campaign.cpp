#include "fuzz/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "ckpt/store.hpp"
#include "core/strategy_registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hcs::fuzz {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Scales a 64-bit draw into a rate in [lo, hi] with 1e-4 granularity
/// (coarse on purpose: artifact rates stay short and exactly
/// re-parseable).
double pick_rate(std::uint64_t draw, double lo, double hi) {
  const std::uint64_t steps = 1 + static_cast<std::uint64_t>((hi - lo) * 1e4);
  return lo + static_cast<double>(draw % steps) * 1e-4;
}

/// Corrupt-input-safe unsigned read. The int64 constructor normalizes
/// every non-negative integer to kUint, so a kInt member is a *negative*
/// number -- and as_uint() on it aborts the process. Parsers of untrusted
/// artifacts/manifests must reject it as a parse failure instead.
const Json* get_uint(const Json& json, const char* key) {
  const Json* member = json.get(key);
  if (member == nullptr || member->type() != Json::Type::kUint) return nullptr;
  return member;
}

}  // namespace

Json CampaignAxes::to_json() const {
  Json strategies_json = Json::array();
  for (const std::string& s : strategies) strategies_json.push_back(s);
  Json j = Json::object();
  j.set("strategies", std::move(strategies_json));
  j.set("min_dimension", static_cast<std::uint64_t>(min_dimension));
  j.set("max_dimension", static_cast<std::uint64_t>(max_dimension));
  j.set("differential", differential);
  j.set("engine_oracle", engine_oracle);
  j.set("shard_oracle", shard_oracle);
  j.set("expect", to_string(expect));
  return j;
}

bool parse_campaign_axes(const Json& json, CampaignAxes* out,
                         std::string* error) {
  if (!json.is_object()) return fail(error, "axes is not an object");
  CampaignAxes axes;
  const Json* strategies = json.get("strategies");
  if (strategies == nullptr || !strategies->is_array() ||
      strategies->size() == 0) {
    return fail(error, "axes missing \"strategies\"");
  }
  axes.strategies.clear();
  for (const Json& s : strategies->items()) {
    if (!s.is_string()) return fail(error, "strategy name is not a string");
    axes.strategies.push_back(s.as_string());
  }
  const Json* min_dim = get_uint(json, "min_dimension");
  const Json* max_dim = get_uint(json, "max_dimension");
  if (min_dim == nullptr || max_dim == nullptr) {
    return fail(error, "axes missing dimension bounds");
  }
  if (!check_dimension_bounds(min_dim->as_uint(), max_dim->as_uint(),
                              error)) {
    return false;
  }
  axes.min_dimension = static_cast<unsigned>(min_dim->as_uint());
  axes.max_dimension = static_cast<unsigned>(max_dim->as_uint());
  const Json* differential = json.get("differential");
  if (differential == nullptr || differential->type() != Json::Type::kBool) {
    return fail(error, "axes missing \"differential\"");
  }
  axes.differential = differential->as_bool();
  // Optional: absent in pre-engine-axis manifests, which never drew the
  // macro executor.
  if (const Json* engine_oracle = json.get("engine_oracle");
      engine_oracle != nullptr) {
    if (engine_oracle->type() != Json::Type::kBool) {
      return fail(error, "axes \"engine_oracle\" is not a bool");
    }
    axes.engine_oracle = engine_oracle->as_bool();
  }
  // Optional, and -- unlike engine_oracle -- absent means *off*: a
  // manifest written before the shard axis existed never drew it, and
  // resuming or replaying that campaign must regenerate bit-identical
  // cells. Fresh manifests carry the field explicitly, so only
  // pre-shard-axis corpora take this path.
  axes.shard_oracle = false;
  if (const Json* shard_oracle = json.get("shard_oracle");
      shard_oracle != nullptr) {
    if (shard_oracle->type() != Json::Type::kBool) {
      return fail(error, "axes \"shard_oracle\" is not a bool");
    }
    axes.shard_oracle = shard_oracle->as_bool();
  }
  const Json* expect = json.get("expect");
  if (expect == nullptr || !expect->is_string() ||
      !expect_from_string(expect->as_string(), &axes.expect)) {
    return fail(error, "axes missing \"expect\"");
  }
  *out = std::move(axes);
  return true;
}

bool check_dimension_bounds(std::uint64_t min_dimension,
                            std::uint64_t max_dimension, std::string* error) {
  if (min_dimension >= 1 && min_dimension <= max_dimension &&
      max_dimension <= kMaxCellDimension) {
    return true;
  }
  return fail(error, "dimension bounds must satisfy 1 <= min <= max <= " +
                         std::to_string(kMaxCellDimension) + " (got min " +
                         std::to_string(min_dimension) + ", max " +
                         std::to_string(max_dimension) + ")");
}

CellSpec campaign_cell(const CampaignAxes& axes, std::uint64_t campaign_seed,
                       std::uint64_t iteration) {
  // Keyed stream: cell i never depends on cells < i, so any iteration
  // window can be generated (and re-generated) independently.
  SplitMix64 sm(campaign_seed + (iteration + 1) * 0x9e3779b97f4a7c15ULL);

  CellSpec spec;
  spec.strategy = axes.strategies[sm.next() % axes.strategies.size()];
  spec.dimension =
      axes.min_dimension +
      static_cast<unsigned>(sm.next() %
                            (axes.max_dimension - axes.min_dimension + 1));
  spec.seed = sm.next();

  switch (sm.next() % 4) {
    case 0: spec.delay = run::DelaySpec::unit(); break;
    case 1: spec.delay = run::DelaySpec::uniform(0.2, 3.0); break;
    case 2: spec.delay = run::DelaySpec::uniform(0.5, 1.5); break;
    default: spec.delay = run::DelaySpec::heavy_tailed(); break;
  }
  // Lock-step strategies make no promises off the unit delay model; keep
  // their cells on the strict contract instead of burning iterations on
  // kSafety-only coverage. (The draw above still happens so the stream
  // stays aligned across strategies.)
  if (const core::Strategy* s =
          core::StrategyRegistry::instance().find(spec.strategy);
      s != nullptr && s->required_capabilities().synchronous) {
    spec.delay = run::DelaySpec::unit();
  }
  spec.policy = (sm.next() % 2 == 0) ? sim::WakePolicy::kFifo
                                     : sim::WakePolicy::kRandom;
  spec.semantics = (sm.next() % 2 == 0) ? sim::MoveSemantics::kAtomicArrival
                                        : sim::MoveSemantics::kVacateOnDeparture;

  // Fault profile: fault-free cells keep the strict kCorrect contract (and
  // exercise the differential oracle), crash-only cells pin the
  // capture-under-recovery guarantee, mixed cells probe the principled-
  // degradation envelope with recovery on and off.
  const std::uint64_t profile = sm.next() % 4;
  spec.faults.seed = sm.next();
  switch (profile) {
    case 0:
      break;  // fault-free
    case 1:
      spec.faults.crash_rate = pick_rate(sm.next(), 0.001, 0.02);
      spec.recovery.enabled = true;
      break;
    case 2:
      spec.faults.crash_rate = pick_rate(sm.next(), 0.0, 0.01);
      spec.faults.wb_loss_rate = pick_rate(sm.next(), 0.0, 0.01);
      spec.faults.wb_corrupt_rate = pick_rate(sm.next(), 0.0, 0.005);
      spec.faults.wake_drop_rate = pick_rate(sm.next(), 0.0, 0.01);
      spec.faults.link_stall_rate = pick_rate(sm.next(), 0.0, 0.02);
      spec.recovery.enabled = true;
      break;
    default:
      spec.faults.crash_rate = pick_rate(sm.next(), 0.0, 0.01);
      spec.faults.wb_loss_rate = pick_rate(sm.next(), 0.0, 0.01);
      spec.recovery.enabled = false;
      break;
  }

  // Engine axis: half the cells request the macro executor, arming the
  // macro-vs-event engine oracle in run_cell. The draw always happens so
  // the stream stays aligned when the axis is toggled; run_cell silently
  // skips ineligible draws (non-fifo, non-unit delay, no compiled
  // program), so the rest still exercise the spec round-trip.
  const std::uint64_t engine_draw = sm.next() % 4;
  if (axes.engine_oracle) {
    if (engine_draw == 0) spec.engine = sim::EngineKind::kMacro;
    if (engine_draw == 1) spec.engine = sim::EngineKind::kAuto;
  }

  // Shard axis: every macro cell also draws the subcube shard count the
  // engine oracle's macro run uses. Drawn unconditionally --
  // same stream-alignment rule as the engine draw above.
  const std::uint64_t shard_draw = sm.next() % 4;
  if (axes.shard_oracle && spec.engine != sim::EngineKind::kEvent) {
    spec.shards = std::uint32_t{1} << shard_draw;
  }

  // Fuzz cells are many and small; tighter guards than the sweep defaults
  // keep a pathological cell from stalling a whole batch. The livelock
  // window doubles with each dimension above 9, as the largest team
  // (CLEAN-WITH-VISIBILITY's n/2 agents) does, so it spans the same
  // number of whole-team wake rounds; cells up to H_9 keep 200,000.
  spec.max_agent_steps = 20'000'000;
  spec.livelock_window = std::uint64_t{200'000}
                         << (spec.dimension > 9 ? spec.dimension - 9 : 0);
  spec.expect = axes.expect;
  spec.differential = axes.differential;
  return spec;
}

Json Artifact::to_json() const {
  Json failures_json = Json::array();
  for (const Failure& f : failures) {
    Json fj = Json::object();
    fj.set("kind", to_string(f.kind));
    fj.set("detail", f.detail);
    failures_json.push_back(std::move(fj));
  }
  Json j = Json::object();
  j.set("version", version);
  j.set("cell", cell.to_json());
  j.set("signature", signature);
  j.set("failures", std::move(failures_json));
  j.set("minimized", minimized);
  return j;
}

bool parse_artifact(const Json& json, Artifact* out, std::string* error) {
  if (!json.is_object()) return fail(error, "artifact is not an object");
  Artifact art;
  const Json* version = get_uint(json, "version");
  if (version == nullptr) {
    return fail(error, "artifact missing \"version\"");
  }
  art.version = version->as_uint();
  if (art.version != 1) return fail(error, "unsupported artifact version");

  const Json* cell = json.get("cell");
  if (cell == nullptr || !parse_cell_spec(*cell, &art.cell, error)) {
    return error != nullptr && !error->empty()
               ? false
               : fail(error, "artifact missing \"cell\"");
  }
  const Json* signature = json.get("signature");
  if (signature == nullptr || !signature->is_string()) {
    return fail(error, "artifact missing \"signature\"");
  }
  art.signature = signature->as_string();

  const Json* failures = json.get("failures");
  if (failures == nullptr || !failures->is_array()) {
    return fail(error, "artifact missing \"failures\"");
  }
  for (const Json& fj : failures->items()) {
    if (!fj.is_object()) return fail(error, "failure is not an object");
    const Json* kind = fj.get("kind");
    const Json* detail = fj.get("detail");
    Failure f;
    if (kind == nullptr || !kind->is_string() ||
        !failure_kind_from_string(kind->as_string(), &f.kind)) {
      return fail(error, "unknown failure kind");
    }
    if (detail == nullptr || !detail->is_string()) {
      return fail(error, "failure missing \"detail\"");
    }
    f.detail = detail->as_string();
    art.failures.push_back(std::move(f));
  }

  const Json* minimized = json.get("minimized");
  if (minimized == nullptr || minimized->type() != Json::Type::kBool) {
    return fail(error, "artifact missing \"minimized\"");
  }
  art.minimized = minimized->as_bool();
  *out = std::move(art);
  return true;
}

bool load_artifact(const std::string& path, Artifact* out,
                   std::string* error) {
  const std::optional<Json> json = read_json_file(path, error);
  if (!json.has_value()) return false;
  return parse_artifact(*json, out, error);
}

Json Manifest::to_json() const {
  Json failures_json = Json::array();
  for (const ManifestFailure& f : failures) {
    Json fj = Json::object();
    fj.set("iteration", f.iteration);
    fj.set("signature", f.signature);
    fj.set("hash", f.hash);
    fj.set("minimized_hash", f.minimized_hash);
    failures_json.push_back(std::move(fj));
  }
  Json corpus_json = Json::array();
  for (const std::string& hash : corpus) corpus_json.push_back(hash);

  Json j = Json::object();
  j.set("version", version);
  j.set("campaign_seed", campaign_seed);
  j.set("axes", axes.to_json());
  j.set("iterations_done", iterations_done);
  j.set("failures", std::move(failures_json));
  j.set("corpus", std::move(corpus_json));
  return j;
}

bool Manifest::has_corpus_hash(const std::string& hash) const {
  return std::find(corpus.begin(), corpus.end(), hash) != corpus.end();
}

bool parse_manifest(const Json& json, Manifest* out, std::string* error) {
  if (!json.is_object()) return fail(error, "manifest is not an object");
  Manifest m;
  const Json* version = get_uint(json, "version");
  if (version == nullptr) {
    return fail(error, "manifest missing \"version\"");
  }
  m.version = version->as_uint();
  if (m.version != 1) return fail(error, "unsupported manifest version");

  const Json* seed = get_uint(json, "campaign_seed");
  if (seed == nullptr) {
    return fail(error, "manifest missing \"campaign_seed\"");
  }
  m.campaign_seed = seed->as_uint();

  const Json* axes = json.get("axes");
  if (axes == nullptr || !parse_campaign_axes(*axes, &m.axes, error)) {
    return error != nullptr && !error->empty()
               ? false
               : fail(error, "manifest missing \"axes\"");
  }

  const Json* done = get_uint(json, "iterations_done");
  if (done == nullptr) {
    return fail(error, "manifest missing \"iterations_done\"");
  }
  m.iterations_done = done->as_uint();

  const Json* failures = json.get("failures");
  if (failures == nullptr || !failures->is_array()) {
    return fail(error, "manifest missing \"failures\"");
  }
  for (const Json& fj : failures->items()) {
    if (!fj.is_object()) return fail(error, "manifest failure not an object");
    ManifestFailure f;
    const Json* iteration = get_uint(fj, "iteration");
    const Json* signature = fj.get("signature");
    const Json* hash = fj.get("hash");
    const Json* minimized_hash = fj.get("minimized_hash");
    if (iteration == nullptr || signature == nullptr ||
        !signature->is_string() || hash == nullptr || !hash->is_string() ||
        minimized_hash == nullptr || !minimized_hash->is_string()) {
      return fail(error, "malformed manifest failure record");
    }
    f.iteration = iteration->as_uint();
    f.signature = signature->as_string();
    f.hash = hash->as_string();
    f.minimized_hash = minimized_hash->as_string();
    m.failures.push_back(std::move(f));
  }

  const Json* corpus = json.get("corpus");
  if (corpus == nullptr || !corpus->is_array()) {
    return fail(error, "manifest missing \"corpus\"");
  }
  for (const Json& h : corpus->items()) {
    if (!h.is_string()) return fail(error, "corpus hash is not a string");
    m.corpus.push_back(h.as_string());
  }
  *out = std::move(m);
  return true;
}

bool load_manifest(const std::string& path, Manifest* out,
                   std::string* error) {
  const std::optional<Json> json = read_json_file(path, error);
  if (!json.has_value()) return false;
  return parse_manifest(*json, out, error);
}

bool save_manifest(const Manifest& manifest, const std::string& corpus_dir) {
  // Temp + rename so a kill mid-write never leaves a torn manifest.json
  // behind (readers see either the old or the new state, never a prefix).
  const std::string path = corpus_dir + "/manifest.json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << manifest.to_json().dump();
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

bool save_campaign_state(const Manifest& manifest,
                         const std::string& corpus_dir, std::string* error) {
  // Mirror first, snapshot second: a kill between the two leaves the
  // mirror one batch ahead of the snapshot, never behind it. Resume reads
  // the snapshot and re-runs that batch, rewriting the same bytes; and a
  // campaign whose last batch reached the snapshot has its mirror too.
  if (!save_manifest(manifest, corpus_dir)) {
    return fail(error, "failed to write " + corpus_dir + "/manifest.json");
  }
  Json doc = Json::object();
  doc.set("kind", "fuzz-campaign");
  doc.set("version", std::uint64_t{1});
  doc.set("manifest", manifest.to_json());
  return ckpt::Store(corpus_dir + "/ckpt").commit(doc, error) != 0;
}

bool load_campaign_state(const std::string& corpus_dir, Manifest* out,
                         std::string* error) {
  ckpt::Store store(corpus_dir + "/ckpt");
  std::string store_error;
  if (std::optional<ckpt::LoadedSnapshot> snap =
          store.load_latest(&store_error)) {
    const Json* kind = snap->doc.get("kind");
    const Json* manifest = snap->doc.get("manifest");
    std::string parse_error;
    if (kind != nullptr && kind->type() == Json::Type::kString &&
        kind->as_string() == "fuzz-campaign" && manifest != nullptr &&
        parse_manifest(*manifest, out, &parse_error)) {
      return true;
    }
    return fail(error, "campaign snapshot " + snap->path + " is not a "
                "usable fuzz-campaign state" +
                (parse_error.empty() ? "" : ": " + parse_error));
  }
  // Pre-snapshot corpora (or a wiped ckpt/ dir): plain manifest.json.
  return load_manifest(corpus_dir + "/manifest.json", out, error);
}

CampaignOutcome CampaignRunner::run(Manifest start,
                                    std::uint64_t iterations) const {
  CampaignOutcome out;
  out.manifest = std::move(start);
  Manifest& manifest = out.manifest;
  std::error_code ec;
  std::filesystem::create_directories(config_.corpus_dir, ec);
  if (ec) {
    out.error = "cannot create " + config_.corpus_dir + ": " + ec.message();
    return out;
  }
  // Adds an artifact to the corpus unless it is already there; false (and
  // out.error) when the file cannot be written.
  const auto persist = [&](const Artifact& artifact, const std::string& hash) {
    if (manifest.has_corpus_hash(hash)) return true;
    const std::string path = config_.corpus_dir + "/" + artifact.file_name();
    if (!write_json_file(artifact.to_json(), path)) {
      out.error = "cannot write " + path;
      return false;
    }
    manifest.corpus.push_back(hash);
    ++out.artifacts_written;
    return true;
  };

  std::uint64_t remaining = iterations;
  while (remaining > 0) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(remaining, config_.batch_size);
    const std::uint64_t base = manifest.iterations_done;

    std::vector<CellSpec> specs(batch);
    std::vector<CellResult> results(batch);
    for (std::uint64_t i = 0; i < batch; ++i) {
      specs[i] = campaign_cell(manifest.axes, manifest.campaign_seed,
                               base + i);
    }
    // Index-keyed result slots: the batch is bit-identical at any thread
    // count (the same discipline the sweep runner keeps).
    ThreadPool(config_.threads).parallel_for(batch, [&](std::size_t i) {
      results[i] = run_cell(specs[i]);
    });

    for (std::uint64_t i = 0; i < batch; ++i) {
      if (!results[i].failed()) continue;
      ++out.failures_found;

      Artifact original;
      original.cell = specs[i];
      original.signature = results[i].signature();
      original.failures = results[i].failures;
      ManifestFailure record;
      record.iteration = base + i;
      record.signature = original.signature;
      record.hash = specs[i].content_hash();
      if (!persist(original, record.hash)) return out;

      if (config_.minimize_failures) {
        const MinimizeResult min =
            minimize_cell(specs[i], config_.minimize);
        if (min.reproduced) {
          Artifact minimal;
          minimal.cell = min.minimized;
          minimal.signature = min.signature;
          minimal.failures = min.failures;
          minimal.minimized = true;
          record.minimized_hash = min.minimized.content_hash();
          if (!persist(minimal, record.minimized_hash)) return out;
        }
      }
      manifest.failures.push_back(std::move(record));
    }

    manifest.iterations_done += batch;
    out.cells_run += batch;
    remaining -= batch;
    if (!save_campaign_state(manifest, config_.corpus_dir, &out.error)) {
      return out;
    }
  }
  return out;
}

}  // namespace hcs::fuzz
