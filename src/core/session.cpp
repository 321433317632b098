#include "core/session.hpp"

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/store.hpp"
#include "core/cell_key.hpp"
#include "core/strategy_registry.hpp"
#include "fault/fault_io.hpp"
#include "obs/obs.hpp"
#include "sim/shard.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace hcs {

/// Checkpoint driver state threaded through run_impl's engine hook. The
/// store/stop_at/loaded fields are inputs set up by run()/save()/
/// restore(); the rest are outputs read back after the run.
struct SessionCkpt {
  ckpt::Store* store = nullptr;  ///< commit target (never null here)
  /// Boundary period in agent steps; a restored run overrides this with
  /// the snapshot's own period so replay boundaries line up exactly.
  std::uint64_t every = 0;
  /// save(): commit once at the first boundary >= stop_at, then pause.
  /// 0 means periodic commits with no pause.
  std::uint64_t stop_at = 0;
  /// Snapshot document to restore from, if one was loaded (may still be
  /// rejected by the fingerprint check inside run_impl).
  std::optional<Json> loaded;

  bool fingerprint_mismatch = false;
  std::uint64_t verify_step = 0;  ///< frontier step of the accepted snapshot
  bool verified = false;
  bool committed = false;
  std::uint64_t seq = 0;
  std::uint64_t at_step = 0;
  bool paused = false;
};

namespace {

/// Derives per-level sim-time spans from the status-change events: for
/// each Hamming level k, the window from the first to the last status
/// transition of a level-k node. Only meaningful when vertex ids are cube
/// coordinates, so non-power-of-two topologies are skipped.
void derive_level_spans(const sim::Trace& trace, unsigned d,
                        std::uint64_t num_nodes, obs::Registry* obs) {
  if (!obs::kEnabled || obs == nullptr) return;
  if (num_nodes != (std::uint64_t{1} << d)) return;
  struct Window {
    bool seen = false;
    double first = 0.0;
    double last = 0.0;
  };
  std::vector<Window> levels(d + 1);
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.kind != sim::TraceKind::kStatusChange) continue;
    const auto l = static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(e.node)));
    Window& w = levels[l];
    if (!w.seen) {
      w.seen = true;
      w.first = e.time;
    }
    w.last = e.time;
  }
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Window& w = levels[l];
    if (!w.seen) continue;
    obs->sim_span("level " + std::to_string(l), "sim/levels", w.first,
                  w.last);
  }
}

/// Identity of a checkpointed run: everything that determines the step
/// sequence, as a CellKey over the *resolved* configuration (visibility
/// after the strategy's needs_visibility override, engine after macro
/// eligibility). A snapshot whose fingerprint differs was taken by a
/// different run and must be ignored, never replayed into. The delay
/// model's sampler is opaque, so only its unit/non-unit shape is hashed;
/// docs/CHECKPOINT.md calls out that callers swapping custom samplers
/// between save and restore are on their own.
std::string run_fingerprint(std::string_view strategy, unsigned d,
                            const sim::RunOptions& opts, bool macro) {
  CellKey key = CellKey::from_options(strategy, d, opts);
  key.engine = macro ? sim::EngineKind::kMacro : sim::EngineKind::kEvent;
  return key.hash();
}

/// The pre-CellKey fingerprint encoding (engine field only ever "macro" /
/// "event", same axis names otherwise but an ad-hoc document). Kept one
/// release so snapshots written before the CellKey migration still
/// restore; DESIGN.md's deprecation policy tracks the removal.
std::string legacy_run_fingerprint(std::string_view strategy, unsigned d,
                                   const sim::RunOptions& opts, bool macro) {
  Json id = Json::object();
  id.set("strategy", std::string(strategy));
  id.set("dimension", std::uint64_t{d});
  id.set("seed", opts.seed);
  id.set("delay", opts.delay.is_unit() ? "unit" : "sampled");
  id.set("policy", opts.policy == sim::WakePolicy::kFifo ? "fifo" : "random");
  id.set("visibility", opts.visibility);
  id.set("semantics",
         opts.semantics == sim::MoveSemantics::kAtomicArrival
             ? "atomic-arrival"
             : "vacate-on-departure");
  id.set("max_agent_steps", opts.max_agent_steps);
  id.set("livelock_window", opts.livelock_window);
  id.set("faults", fault::fault_spec_json(opts.faults));
  id.set("recovery", fault::recovery_config_json(opts.recovery));
  id.set("engine", macro ? "macro" : "event");
  return fnv1a64_hex(id.dump());
}

}  // namespace

core::SimOutcome Session::run(std::string_view strategy_name) {
  if (config_.options.checkpoint_dir.empty()) {
    return run_impl(strategy_name, nullptr);
  }
  // A checkpointed run is resume-or-start: pick up the newest valid
  // snapshot if one exists, otherwise begin fresh -- committing either way.
  return restore(strategy_name, nullptr);
}

Session::SaveReport Session::save(std::string_view strategy_name,
                                  std::uint64_t at_step) {
  HCS_EXPECTS(!config_.options.checkpoint_dir.empty() &&
              "Session::save needs options.checkpoint_dir");
  HCS_EXPECTS(at_step >= 1);
  ckpt::Store store(
      {config_.options.checkpoint_dir, config_.options.checkpoint_keep});
  SessionCkpt ctl;
  ctl.store = &store;
  ctl.every = at_step;
  ctl.stop_at = at_step;
  SaveReport report;
  report.outcome = run_impl(strategy_name, &ctl);
  report.saved = ctl.committed;
  report.seq = ctl.seq;
  report.at_step = ctl.at_step;
  report.completed = !ctl.paused;
  return report;
}

core::SimOutcome Session::restore(std::string_view strategy_name,
                                  RestoreReport* report) {
  HCS_EXPECTS(!config_.options.checkpoint_dir.empty() &&
              "Session::restore needs options.checkpoint_dir");
  ckpt::Store store(
      {config_.options.checkpoint_dir, config_.options.checkpoint_keep});
  SessionCkpt ctl;
  ctl.store = &store;
  ctl.every = config_.options.checkpoint_every_steps;
  std::string error;
  if (std::optional<ckpt::LoadedSnapshot> snap = store.load_latest(&error)) {
    if (report != nullptr) {
      report->had_snapshot = true;
      report->seq = snap->seq;
      report->corrupt_skipped = snap->corrupt_skipped;
    }
    ctl.loaded = std::move(snap->doc);
  }
  core::SimOutcome outcome = run_impl(strategy_name, &ctl);
  if (report != nullptr) {
    report->from_step = ctl.verify_step;
    report->fingerprint_mismatch = ctl.fingerprint_mismatch;
    report->verified = ctl.verified;
  }
  return outcome;
}

core::SimOutcome Session::run_impl(std::string_view strategy_name,
                                   SessionCkpt* ckpt) {
  const unsigned d = config_.dimension;
  HCS_EXPECTS(d >= 1);
  const core::Strategy& strategy =
      core::StrategyRegistry::instance().get(strategy_name);

  obs::Registry* const obs = config_.options.obs;
  obs::ScopedSink obs_sink(obs);
  obs::Span session_span(obs, "session.run");

  const graph::Graph g = strategy.build_graph(d);
  sim::Network net(g, /*homebase=*/0);
  net.set_move_semantics(config_.options.semantics);
  net.trace().enable(config_.options.trace);

  sim::RunOptions engine_config = config_.options;
  engine_config.visibility =
      config_.options.visibility || strategy.needs_visibility();

  // Resolve the engine axis. kMacro / kAuto take the macro executor when
  // the options permit it (FIFO policy, unit delays; a setup hook implies
  // live Engine access, which macro runs have no equivalent of) AND the
  // strategy compiles to a program. kAuto quietly falls back to the event
  // engine; an explicit kMacro that cannot be honoured is a precondition
  // violation.
  std::optional<sim::MacroProgram> program;
  if (engine_config.engine != sim::EngineKind::kEvent &&
      sim::ShardedMacroEngine::eligible(engine_config) && !config_.setup) {
    program = strategy.macro_program(d);
  }
  HCS_EXPECTS((program.has_value() ||
               engine_config.engine != sim::EngineKind::kMacro) &&
              "engine=macro needs a macro-capable strategy, the FIFO wake "
              "policy, unit delays and no setup hook");

  std::string fingerprint;
  const Json* restore_state = nullptr;
  if (ckpt != nullptr) {
    fingerprint = run_fingerprint(strategy.name(), d, engine_config,
                                  program.has_value());
    if (ckpt->loaded.has_value()) {
      // Accept the loaded snapshot only when it describes *this* run:
      // right kind, matching fingerprint (current CellKey encoding, or
      // the pre-CellKey legacy one for old snapshots), well-formed
      // frontier.
      const Json* kind = ckpt->loaded->get("kind");
      const Json* fp = ckpt->loaded->get("fingerprint");
      const Json* step = ckpt->loaded->get("step");
      const Json* every = ckpt->loaded->get("every");
      const Json* state = ckpt->loaded->get("state");
      const bool fp_matches =
          fp != nullptr && fp->type() == Json::Type::kString &&
          (fp->as_string() == fingerprint ||
           fp->as_string() == legacy_run_fingerprint(strategy.name(), d,
                                                     engine_config,
                                                     program.has_value()));
      const bool usable =
          kind != nullptr && kind->type() == Json::Type::kString &&
          kind->as_string() == "run" && fp_matches &&
          step != nullptr && step->type() == Json::Type::kUint &&
          every != nullptr && every->type() == Json::Type::kUint &&
          every->as_uint() >= 1 && state != nullptr &&
          state->type() == Json::Type::kObject && !program.has_value();
      if (usable) {
        ckpt->verify_step = step->as_uint();
        ckpt->every = every->as_uint();
        restore_state = state;
      } else {
        ckpt->fingerprint_mismatch = true;
      }
    }
  }

  sim::Engine::RunResult run;
  sim::Metrics metrics;
  bool net_all_clean = false;
  bool net_region_connected = false;
  if (program.has_value()) {
    // The macro executor resolves options.shards against the topology;
    // any value yields byte-identical results (the shard differential
    // suite pins this).
    sim::ShardedMacroEngine engine(net, engine_config);
    run = engine.run(*program);
    metrics = engine.metrics();
    net_all_clean = engine.all_clean();
    net_region_connected = engine.clean_region_connected();
  } else {
    sim::Engine engine(net, engine_config);
    strategy.spawn_team(engine, d);
    if (config_.setup) config_.setup(net, engine);
    if (ckpt != nullptr && ckpt->every >= 1) {
      engine.set_checkpoint_hook(ckpt->every, [&](sim::Engine& e) {
        const std::uint64_t step = e.steps_taken();
        if (restore_state != nullptr && step == ckpt->verify_step &&
            !ckpt->verified) {
          // The integrity gate: the deterministic replay must have
          // reconstructed the snapshot byte-for-byte (canonical dumps, so
          // structural equality == byte equality) before the run is
          // allowed to continue past the frontier.
          ckpt->verified = e.checkpoint_state() == *restore_state;
          HCS_ENSURES(ckpt->verified &&
                      "checkpoint restore: replay diverged from snapshot");
        }
        // While replaying up to the frontier, earlier boundaries are
        // re-visited; re-committing them would only duplicate snapshots
        // already on disk (and a crash mid-replay can restart from those).
        const bool past_frontier =
            restore_state == nullptr || step > ckpt->verify_step;
        if (past_frontier && (ckpt->stop_at == 0 || step >= ckpt->stop_at)) {
          Json doc = Json::object();
          doc.set("kind", "run");
          doc.set("version", std::uint64_t{1});
          doc.set("fingerprint", fingerprint);
          doc.set("strategy", strategy.name());
          doc.set("dimension", std::uint64_t{d});
          doc.set("every", ckpt->every);
          doc.set("step", step);
          doc.set("state", e.checkpoint_state());
          std::string error;
          const std::uint64_t seq = ckpt->store->commit(doc, &error);
          if (seq != 0) {
            ckpt->committed = true;
            ckpt->seq = seq;
            ckpt->at_step = step;
          }
          if (ckpt->stop_at != 0) e.request_stop();
        }
      });
    }
    run = engine.run();
    if (ckpt != nullptr) ckpt->paused = run.paused;
    metrics = net.metrics();
    net_all_clean = net.all_clean();
    net_region_connected = net.clean_region_connected();
  }
  const sim::Metrics& m = metrics;

  core::SimOutcome outcome;
  outcome.strategy = strategy.name();
  outcome.dimension = d;
  outcome.team_size = m.agents_spawned;
  outcome.total_moves = m.total_moves;
  outcome.agent_moves = m.moves_of("agent");
  outcome.synchronizer_moves = m.moves_of("synchronizer");
  outcome.makespan = m.makespan;
  outcome.capture_time = run.capture_time;
  outcome.recontaminations = m.recontamination_events;
  outcome.all_clean = net_all_clean;
  outcome.clean_region_connected = net_region_connected;
  outcome.all_agents_terminated = run.all_terminated;
  outcome.abort_reason = run.abort_reason;
  outcome.degradation = run.degradation;
  outcome.peak_whiteboard_bits = m.peak_whiteboard_bits;
  outcome.engine_used = program.has_value() ? sim::EngineKind::kMacro
                                            : sim::EngineKind::kEvent;

  if (obs::kEnabled && obs != nullptr) {
    obs->counter_add("run.sessions");
    if (outcome.correct()) obs->counter_add("run.correct");
    if (outcome.aborted()) obs->counter_add("run.aborted");
    derive_level_spans(net.trace(), d, net.num_nodes(), obs);
  }

  trace_ = std::move(net.trace());
  if (!config_.options.trace) trace_.clear();
  return outcome;
}

}  // namespace hcs
