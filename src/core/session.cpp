#include "core/session.hpp"

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy_registry.hpp"
#include "obs/obs.hpp"
#include "sim/shard.hpp"
#include "util/assert.hpp"

namespace hcs {

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

}  // namespace

core::SimOutcome Session::run(std::string_view strategy_name) {
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
    run = engine.run();
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
