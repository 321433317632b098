// The run workloads: macro_clean / macro_vis (one Session::run on H_18 per
// op, engine=macro, shards=1) and event_random (one single-worker
// SweepRunner pass of the four paper strategies on H_12 under the random
// wake policy per op).
//
// Untraced, an op is exactly the library call a user makes. Traced, each
// op is paired with a rebuild of the same call from the public layer
// functions it is made of, with a span around each; the rebuild must give
// the same SimOutcome bytes as the untraced op it is paired with.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "ckpt/outcome_io.hpp"
#include "core/clean_sync.hpp"
#include "core/clean_visibility.hpp"
#include "core/replay.hpp"
#include "core/session.hpp"
#include "core/strategy_registry.hpp"
#include "run/sweep.hpp"
#include "sim/shard.hpp"

namespace hcsbench {

namespace {

namespace core = hcs::core;
namespace sim = hcs::sim;

constexpr unsigned kMacroDim = 18;
constexpr unsigned kEventDim = 12;
/// Ops whose spans go to the Chrome trace file.
constexpr std::uint32_t kTraceFileOps = 64;

const std::vector<std::string> kPaperStrategies = {
    "CLEAN", "CLEAN-WITH-VISIBILITY", "CLONING", "SYNCHRONOUS"};

/// One op's verdict and its outputs in canonical form (outcome JSON), so a
/// traced rebuild can be compared byte for byte with the untraced op.
struct OpOutput {
  std::string error;
  std::string outputs;
};

/// Exact per-op facts read from public accessors (sizes, counts).
using Facts = std::map<std::string, std::vector<double>>;

struct RunShape {
  std::string name;
  /// Untimed ops per set-up: about one second of work.
  unsigned warm_ops = 1;
  std::function<OpOutput(std::uint64_t seed)> op;
  std::function<OpOutput(std::uint64_t seed, Spans& spans, Facts& facts)>
      traced_op;
  /// Root span name of a traced op.
  const char* root = "";
};

double graph_bytes(const hcs::graph::Graph& g) {
  return static_cast<double>((g.num_nodes() + 1) * sizeof(std::size_t) +
                             2 * g.num_edges() * sizeof(hcs::graph::HalfEdge));
}

/// The SimOutcome fields Session::run fills, from the run's parts.
core::SimOutcome assemble(const core::Strategy& strategy, unsigned d,
                          const sim::Engine::RunResult& run,
                          const sim::Metrics& m, bool all_clean,
                          bool region_connected, sim::EngineKind engine) {
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
  outcome.all_clean = all_clean;
  outcome.clean_region_connected = region_connected;
  outcome.all_agents_terminated = run.all_terminated;
  outcome.abort_reason = run.abort_reason;
  outcome.degradation = run.degradation;
  outcome.peak_whiteboard_bits = m.peak_whiteboard_bits;
  outcome.engine_used = engine;
  return outcome;
}

std::string canonical(const core::SimOutcome& outcome) {
  return hcs::ckpt::outcome_json(outcome).dump_compact();
}

// ------------------------------------------------------------- macro

sim::RunOptions macro_options(std::uint64_t seed) {
  sim::RunOptions options;
  options.engine = sim::EngineKind::kMacro;
  options.seed = seed;
  return options;
}

OpOutput macro_op(const std::string& strategy, std::uint64_t seed) {
  hcs::SessionConfig config;
  config.dimension = kMacroDim;
  config.options = macro_options(seed);
  hcs::Session session(std::move(config));
  const core::SimOutcome outcome = session.run(strategy);
  return {check_outcome(outcome, expected_macro(strategy, kMacroDim)),
          canonical(outcome)};
}

/// Session::run's macro path, call by call.
OpOutput traced_macro_op(const std::string& name, std::uint64_t seed,
                         Spans& spans, Facts& facts) {
  Scope op(spans, "macro.op");
  const unsigned d = kMacroDim;
  const core::Strategy& strategy = core::StrategyRegistry::instance().get(name);
  const sim::RunOptions options = macro_options(seed);

  std::optional<hcs::graph::Graph> g;
  {
    Scope s(spans, "graph.build");
    g.emplace(strategy.build_graph(d));
  }
  std::optional<sim::Network> net;
  {
    Scope s(spans, "net.init");
    net.emplace(*g, 0);
    net->set_move_semantics(options.semantics);
    net->trace().enable(options.trace);
  }
  sim::RunOptions engine_config = options;
  engine_config.visibility = options.visibility || strategy.needs_visibility();

  sim::MacroProgram program;
  {
    core::SearchPlan plan;
    {
      Scope s(spans, "plan.build");
      plan = name == "CLEAN" ? core::plan_clean_sync(d)
                             : core::plan_clean_visibility(d);
    }
    facts["plan.moves"].push_back(static_cast<double>(plan.total_moves()));
    facts["plan.bytes"].push_back(static_cast<double>(
        plan.total_moves() * sizeof(core::PlanMove) +
        (plan.num_rounds() + 1) * sizeof(std::uint64_t)));
    // Strategy::macro_program releases the plan before it returns.
    Scope s(spans, "program.compile");
    program = core::compile_macro_program(plan);
    plan = core::SearchPlan{};
  }
  facts["program.horizon"].push_back(static_cast<double>(program.horizon));
  facts["program.bytes"].push_back(static_cast<double>(
      program.steps.size() * sizeof(sim::MacroProgram::Step) +
      program.agent_offsets.size() * sizeof(std::uint32_t)));
  facts["graph.bytes"].push_back(graph_bytes(*g));

  std::optional<sim::ShardedMacroEngine> engine;
  sim::Engine::RunResult run;
  {
    Scope s(spans, "replay.run");
    engine.emplace(*net, engine_config);
    run = engine->run(program);
  }
  core::SimOutcome outcome;
  {
    Scope s(spans, "outcome.assemble");
    outcome = assemble(strategy, d, run, engine->metrics(),
                       engine->all_clean(), engine->clean_region_connected(),
                       sim::EngineKind::kMacro);
  }
  facts["replay.fast_share"].push_back(engine->used_fast_path() ? 1.0 : 0.0);
  return {check_outcome(outcome, expected_macro(name, d)), canonical(outcome)};
}

// ------------------------------------------------------------- event

hcs::run::SweepSpec event_spec(std::uint64_t seed) {
  hcs::run::SweepSpec spec;
  spec.strategies = kPaperStrategies;
  spec.dimensions = {kEventDim};
  spec.seeds = {seed};
  spec.policies = {sim::WakePolicy::kRandom};
  return spec;
}

std::string join_errors(const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    if (!error.empty()) return error;
  }
  return {};
}

OpOutput event_op(std::uint64_t seed) {
  hcs::run::SweepRunner::Config config;
  config.threads = 1;
  const hcs::run::SweepResult result =
      hcs::run::SweepRunner(std::move(config)).run(event_spec(seed));
  std::vector<std::string> errors;
  std::string outputs;
  for (const hcs::run::SweepCell& cell : result.cells) {
    errors.push_back(
        check_outcome(cell.outcome, expected_event(cell.strategy, kEventDim)));
    outputs += canonical(cell.outcome);
  }
  return {join_errors(errors), outputs};
}

/// run::run_sweep_cell -> Session::run's event path, call by call, for
/// each cell of the sweep.
OpOutput traced_event_op(std::uint64_t seed, Spans& spans, Facts& facts) {
  Scope op(spans, "event.op");
  const hcs::run::SweepSpec spec = event_spec(seed);
  std::vector<std::string> errors;
  std::string outputs;
  double events = 0, steps = 0, moves = 0, bytes = 0;
  for (std::size_t i = 0; i < spec.num_cells(); ++i) {
    const hcs::run::SweepCell cell = hcs::run::sweep_cell_at(spec, i);
    const core::Strategy& strategy =
        core::StrategyRegistry::instance().get(cell.strategy);
    const unsigned d = cell.dimension;
    sim::RunOptions options;
    options.delay = cell.delay.make();
    options.policy = cell.policy;
    options.seed = cell.seed;
    options.semantics = cell.semantics;
    options.max_agent_steps = spec.max_agent_steps;
    options.faults = cell.faults;
    options.recovery = spec.recovery;
    options.engine = cell.engine;
    options.shards = spec.shards;

    std::optional<hcs::graph::Graph> g;
    {
      Scope s(spans, "graph.build");
      g.emplace(strategy.build_graph(d));
    }
    std::optional<sim::Network> net;
    {
      Scope s(spans, "net.init");
      net.emplace(*g, 0);
      net->set_move_semantics(options.semantics);
      net->trace().enable(options.trace);
    }
    sim::RunOptions engine_config = options;
    engine_config.visibility =
        options.visibility || strategy.needs_visibility();
    std::optional<sim::Engine> engine;
    {
      Scope s(spans, "team.spawn");
      engine.emplace(*net, engine_config);
      strategy.spawn_team(*engine, d);
    }
    sim::Engine::RunResult run;
    {
      Scope s(spans, "engine.run");
      run = engine->run();
    }
    core::SimOutcome outcome;
    {
      Scope s(spans, "outcome.assemble");
      outcome = assemble(strategy, d, run, net->metrics(), net->all_clean(),
                         net->clean_region_connected(),
                         sim::EngineKind::kEvent);
    }
    const sim::Metrics& m = net->metrics();
    events += static_cast<double>(m.events_processed);
    steps += static_cast<double>(m.agent_steps);
    moves += static_cast<double>(m.total_moves);
    bytes += graph_bytes(*g);
    errors.push_back(check_outcome(outcome, expected_event(cell.strategy, d)));
    outputs += canonical(outcome);
  }
  facts["engine.events"].push_back(events);
  facts["engine.agent_steps"].push_back(steps);
  facts["engine.moves"].push_back(moves);
  facts["engine.moves_per_step"].push_back(moves / steps);
  facts["graph.bytes"].push_back(bytes);
  return {join_errors(errors), outputs};
}

// ---------------------------------------------------------- run loops

Result untraced(const Args& args, const RunShape& shape) {
  Result result;
  std::uint64_t next = 0;
  std::vector<double> setups_s;
  for (int k = 0; k < kSetups; ++k) {
    const auto start = Clock::now();
    for (unsigned j = 0; j < shape.warm_ops; ++j) {
      result.tally.record(shape.op(mix(args.seed, next++)).error);
    }
    setups_s.push_back(ms_since(start) / 1e3);
  }

  std::vector<double> latencies_ms;
  std::vector<double> user_ms, sys_ms, minflt;
  const auto window_start = Clock::now();
  const auto deadline = after_seconds(window_start, args.seconds);
  while (Clock::now() < deadline) {
    const Usage before = usage_now();
    const auto start = Clock::now();
    const OpOutput out = shape.op(mix(args.seed, next++));
    latencies_ms.push_back(ms_since(start));
    const Usage used = usage_now() - before;
    user_ms.push_back(used.user_ms);
    sys_ms.push_back(used.sys_ms);
    minflt.push_back(used.minflt);
    result.tally.record(out.error);
  }
  const double window_s = ms_since(window_start) / 1e3;

  add_end_to_end(&result, median(setups_s), latencies_ms, window_s,
                 peak_rss_mb());
  hcs::Json setups = hcs::Json::array();
  for (const double s : setups_s) setups.push_back(s);
  result.report.set("setups_s", std::move(setups));
  result.report.set("warm_ops_per_setup", shape.warm_ops);
  result.report.set("timed_ops",
                    static_cast<std::uint64_t>(latencies_ms.size()));
  result.report.set("op_user_ms_p50", median(user_ms));
  result.report.set("op_sys_ms_p50", median(sys_ms));
  result.report.set("op_minflt_p50", median(minflt));
  return result;
}

Result traced(const Args& args, const RunShape& shape) {
  Result result;
  std::uint64_t next = 0;
  for (unsigned j = 0; j < shape.warm_ops; ++j) {
    result.tally.record(shape.op(mix(args.seed, next++)).error);
  }

  Spans spans(0);
  Facts facts;
  std::vector<double> untraced_ms, traced_ms;
  const auto deadline = after_seconds(Clock::now(), args.seconds);
  std::uint32_t op_id = 0;
  while (Clock::now() < deadline) {
    const std::uint64_t seed = mix(args.seed, next++);
    const Usage before = usage_now();
    const auto start = Clock::now();
    const OpOutput plain = shape.op(seed);
    untraced_ms.push_back(ms_since(start));
    const Usage used = usage_now() - before;
    facts["op.user_ms"].push_back(used.user_ms);
    facts["op.sys_ms"].push_back(used.sys_ms);
    facts["op.minflt"].push_back(used.minflt);

    spans.begin_op(op_id++);
    const auto traced_start = Clock::now();
    const OpOutput rebuilt = shape.traced_op(seed, spans, facts);
    traced_ms.push_back(ms_since(traced_start));

    result.tally.record(plain.error);
    result.tally.record(
        !rebuilt.error.empty() ? rebuilt.error
        : rebuilt.outputs != plain.outputs
            ? "traced rebuild diverged from the untraced op"
            : std::string());
  }

  const auto layers = layer_times({&spans});
  std::vector<std::pair<std::string, double>> values;
  for (const char* layer :
       {"graph.build", "net.init", "plan.build", "program.compile",
        "replay.run", "outcome.assemble", "team.spawn", "engine.run"}) {
    values.emplace_back(std::string(layer) + "_ms",
                        layer_median_ms(layers, layer));
  }
  for (const auto& [layer, times] : layers) {
    if (layer == shape.root) {
      values.emplace_back("op.self_ms", median(times.self_ms));
    }
  }
  for (const auto& [name, samples] : facts) {
    values.emplace_back(name, median(samples));
  }
  values.emplace_back("trace.overhead_pct",
                      (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0);
  add_per_layer(&result, values);

  result.report.set("layers", layer_report(layers));
  result.report.set("traced_ops", static_cast<std::uint64_t>(traced_ms.size()));
  result.report.set("untraced_op_ms_p50", median(untraced_ms));
  result.report.set("traced_op_ms_p50", median(traced_ms));
  if (!args.trace_out.empty() &&
      !write_chrome_trace(args.trace_out, {&spans}, kTraceFileOps)) {
    result.tally.record("cannot write " + args.trace_out);
  }
  return result;
}

Result drive(const Args& args, const RunShape& shape) {
  Result result = args.trace ? traced(args, shape) : untraced(args, shape);
  result.report.set("workload", shape.name);
  result.report.set("threads", 1U);
  return result;
}

}  // namespace

Result run_macro(const Args& args) {
  const std::string strategy =
      args.workload == "macro_clean" ? "CLEAN" : "CLEAN-WITH-VISIBILITY";
  RunShape shape;
  shape.name = args.workload;
  // About one second of work per set-up: one CLEAN op or two VIS ops.
  shape.warm_ops = strategy == "CLEAN" ? 1 : 2;
  shape.op = [strategy](std::uint64_t seed) {
    return macro_op(strategy, seed);
  };
  shape.traced_op = [strategy](std::uint64_t seed, Spans& spans,
                               Facts& facts) {
    return traced_macro_op(strategy, seed, spans, facts);
  };
  shape.root = "macro.op";
  Result result = drive(args, shape);
  result.report.set("op", "Session::run(\"" + strategy +
                              "\") H_18 engine=macro shards=1");
  return result;
}

Result run_event(const Args& args) {
  RunShape shape;
  shape.name = args.workload;
  shape.warm_ops = 4;
  shape.op = event_op;
  shape.traced_op = traced_event_op;
  shape.root = "event.op";
  Result result = drive(args, shape);
  result.report.set(
      "op", "SweepRunner{threads=1} 4 paper strategies H_12 policy=random");
  return result;
}

}  // namespace hcsbench
