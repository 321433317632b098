#include "fuzz/cell.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include <optional>

#include "ckpt/outcome_io.hpp"
#include "core/strategy_registry.hpp"
#include "fault/fault_io.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "util/assert.hpp"

namespace hcs::fuzz {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

const char* delay_kind_name(run::DelaySpec::Kind kind) {
  switch (kind) {
    case run::DelaySpec::Kind::kUnit: return "unit";
    case run::DelaySpec::Kind::kUniform: return "uniform";
    case run::DelaySpec::Kind::kHeavyTailed: return "heavy-tailed";
  }
  return "?";
}

/// Everything one engine execution yields that the oracle judges.
struct Executed {
  std::string strategy_name;
  sim::Metrics metrics;
  sim::Trace trace;
  sim::Engine::RunResult run;
  bool all_clean = false;
  bool clean_region_connected = false;
  std::vector<sim::InvariantViolation> trace_violations;
};

/// Mirrors Session::run (core/session.cpp) with two fuzz-specific hooks:
/// the topology may be rebuilt as compressed adjacency (the differential
/// oracle) and fired fault decisions may be recorded (the minimizer's
/// concretization input).
Executed execute(const CellSpec& spec, const core::Strategy& strategy,
                 bool implicit_topology,
                 std::vector<fault::FaultEvent>* fired) {
  graph::Graph g = strategy.build_graph(spec.dimension);
  if (!implicit_topology) g = g.without_topology_hint();

  sim::Network net(g, /*homebase=*/0);
  net.set_move_semantics(spec.semantics);
  net.trace().enable(true);

  sim::RunOptions cfg;
  cfg.delay = spec.delay.make();
  cfg.policy = spec.policy;
  cfg.seed = spec.seed;
  cfg.visibility = strategy.needs_visibility();
  cfg.semantics = spec.semantics;
  cfg.max_agent_steps = spec.max_agent_steps;
  cfg.livelock_window = spec.livelock_window;
  cfg.faults = spec.faults;
  cfg.recovery = spec.recovery;

  sim::Engine engine(net, cfg);
  if (fired != nullptr) engine.fault_schedule().set_fired_sink(fired);
  strategy.spawn_team(engine, spec.dimension);

  Executed out;
  out.strategy_name = strategy.name();
  out.run = engine.run();
  out.metrics = net.metrics();
  out.all_clean = net.all_clean();
  out.clean_region_connected = net.clean_region_connected();
  out.trace_violations = sim::check_trace_invariants(
      g, net.trace(), /*run_completed=*/!out.run.aborted());
  out.trace = std::move(net.trace());
  return out;
}

core::SimOutcome to_outcome(const CellSpec& spec, const Executed& x) {
  core::SimOutcome outcome;
  outcome.strategy = x.strategy_name;
  outcome.dimension = spec.dimension;
  outcome.team_size = x.metrics.agents_spawned;
  outcome.total_moves = x.metrics.total_moves;
  outcome.agent_moves = x.metrics.moves_of("agent");
  outcome.synchronizer_moves = x.metrics.moves_of("synchronizer");
  outcome.makespan = x.metrics.makespan;
  outcome.capture_time = x.run.capture_time;
  outcome.recontaminations = x.metrics.recontamination_events;
  outcome.all_clean = x.all_clean;
  outcome.clean_region_connected = x.clean_region_connected;
  outcome.all_agents_terminated = x.run.all_terminated;
  outcome.abort_reason = x.run.abort_reason;
  outcome.degradation = x.run.degradation;
  outcome.peak_whiteboard_bits = x.metrics.peak_whiteboard_bits;
  return outcome;
}

void check_contract(const CellSpec& spec, const core::SimOutcome& o,
                    std::vector<Failure>& failures) {
  const Expect expect = spec.resolved_expect();
  const auto add = [&failures](FailureKind kind, std::string detail) {
    failures.push_back({kind, std::move(detail)});
  };

  switch (expect) {
    case Expect::kAuto: HCS_ASSERT(false && "resolved_expect returned kAuto");
      break;
    case Expect::kCorrect:
      if (o.recontaminations > 0) {
        add(FailureKind::kMonotonicityViolation,
            std::to_string(o.recontaminations) +
                " recontamination(s) under the correct contract");
      }
      if (o.aborted()) {
        add(FailureKind::kUnexpectedAbort,
            std::string("correct-contract run aborted: ") +
                sim::to_string(o.abort_reason));
      } else if (!o.all_clean) {
        add(FailureKind::kCaptureFailure,
            "correct-contract run reached quiescence with " +
                std::to_string(o.recontaminations) +
                " recontamination(s) and contaminated nodes remaining");
      }
      if (!o.aborted() && !o.all_agents_terminated) {
        add(FailureKind::kStrandedAgents,
            "correct-contract run left agents blocked at quiescence");
      }
      if (o.degradation.injected_total() != 0) {
        add(FailureKind::kAccountingMismatch,
            "correct-contract run reports " +
                std::to_string(o.degradation.injected_total()) +
                " injected fault(s)");
      }
      break;

    case Expect::kCaptured:
      if (o.aborted()) {
        add(FailureKind::kUnexpectedAbort,
            std::string("recoverable workload aborted: ") +
                sim::to_string(o.abort_reason));
      } else if (!o.captured()) {
        add(FailureKind::kCaptureFailure,
            "recoverable workload ended without capturing (verdict " +
                o.verdict() + ")");
      }
      if (o.degradation.faults_recovered !=
          o.degradation.crashes_detected + o.degradation.wb_faults_detected) {
        add(FailureKind::kAccountingMismatch,
            "recovered " + std::to_string(o.degradation.faults_recovered) +
                " != detected " +
                std::to_string(o.degradation.crashes_detected +
                               o.degradation.wb_faults_detected));
      }
      break;

    case Expect::kPrincipled: {
      // With recovery disabled, a persistent fault legitimately ends the
      // run incomplete-but-honest (all agents done, network reported
      // dirty); with recovery on, that state must instead surface as
      // kFaultUnrecoverable or stranded waiters.
      const bool honest_incomplete =
          !spec.recovery.enabled && o.degradation.injected_persistent() > 0;
      const bool principled =
          o.captured() ||
          o.abort_reason == sim::AbortReason::kFaultUnrecoverable ||
          o.degradation.agents_stranded > 0 || honest_incomplete;
      if (o.abort_reason == sim::AbortReason::kStepCap ||
          o.abort_reason == sim::AbortReason::kLivelock) {
        add(FailureKind::kUnexpectedAbort,
            std::string("run hit the ") + sim::to_string(o.abort_reason) +
                " guard under a bounded workload");
      } else if (!principled) {
        add(FailureKind::kCaptureFailure,
            "run claimed quiescence without capture, unrecoverability, or "
            "stranded waiters (verdict " + o.verdict() + ")");
      }
      break;
    }

    case Expect::kSafety:
      // The vacate-on-departure ablation is documented to break
      // monotonicity and capture (docs/MODEL.md section 3); only the
      // structural checks below (trace invariants, differential oracle)
      // judge such a cell.
      break;
  }
}

/// First divergence between the implicit-topology run and the generic
/// oracle run, or empty when byte-identical. `with_trace` covers the
/// sharded macro leg, which runs untraced (tracing would force the exact
/// serial path): metrics and run result still compare, the trace does not.
std::string compare_runs(const Executed& a, const Executed& b,
                         bool with_trace = true) {
  const auto num = [](const char* name, std::uint64_t x, std::uint64_t y) {
    return std::string(name) + " " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  const sim::Metrics& m = a.metrics;
  const sim::Metrics& n = b.metrics;
  if (m.agents_spawned != n.agents_spawned) {
    return num("agents_spawned", m.agents_spawned, n.agents_spawned);
  }
  if (m.total_moves != n.total_moves) {
    return num("total_moves", m.total_moves, n.total_moves);
  }
  if (m.moves_by_role != n.moves_by_role) return "moves_by_role differ";
  if (m.makespan != n.makespan) return "makespan differs";
  if (m.peak_whiteboard_bits != n.peak_whiteboard_bits) {
    return num("peak_whiteboard_bits", m.peak_whiteboard_bits,
               n.peak_whiteboard_bits);
  }
  if (m.nodes_visited != n.nodes_visited) {
    return num("nodes_visited", m.nodes_visited, n.nodes_visited);
  }
  if (m.recontamination_events != n.recontamination_events) {
    return num("recontaminations", m.recontamination_events,
               n.recontamination_events);
  }
  if (m.agents_crashed != n.agents_crashed) {
    return num("agents_crashed", m.agents_crashed, n.agents_crashed);
  }
  if (m.events_processed != n.events_processed) {
    return num("events_processed", m.events_processed, n.events_processed);
  }
  if (m.agent_steps != n.agent_steps) {
    return num("agent_steps", m.agent_steps, n.agent_steps);
  }
  if (a.run.all_terminated != b.run.all_terminated) {
    return "all_terminated differs";
  }
  if (a.run.abort_reason != b.run.abort_reason) return "abort_reason differs";
  if (a.run.capture_time != b.run.capture_time) return "capture_time differs";
  if (!with_trace) return {};

  const auto& ea = a.trace.events();
  const auto& eb = b.trace.events();
  if (ea.size() != eb.size()) {
    return num("trace length", ea.size(), eb.size());
  }
  for (std::size_t i = 0; i < ea.size(); ++i) {
    const sim::TraceEvent& x = ea[i];
    const sim::TraceEvent& y = eb[i];
    if (!(x.time == y.time && x.kind == y.kind && x.agent == y.agent &&
          x.node == y.node && x.other == y.other && x.detail == y.detail)) {
      return "trace diverges at event " + std::to_string(i);
    }
  }
  return {};
}

/// The engine oracle (the fifth differential): the strategy's compiled
/// macro program executed by sim::Engine driving ScheduleAgents versus one
/// untraced run of sim::ShardedMacroEngine at the cell's shard count, so
/// the bitplane fast path -- the tick body inline at one shard and in
/// sharded phases alike -- replays every eligible cell. The two must agree
/// on metrics, run result and safety verdicts. Returns the first
/// divergence, or empty when the executors agree or the cell is not
/// macro-eligible (non-fifo wake policy, non-unit delay, or a strategy
/// without a compiled program).
std::string macro_engine_divergence(const CellSpec& spec,
                                    const core::Strategy& strategy) {
  sim::RunOptions cfg;
  cfg.delay = spec.delay.make();
  cfg.policy = spec.policy;
  cfg.seed = spec.seed;
  cfg.visibility = strategy.needs_visibility();
  cfg.semantics = spec.semantics;
  cfg.max_agent_steps = spec.max_agent_steps;
  cfg.livelock_window = spec.livelock_window;
  cfg.faults = spec.faults;
  cfg.recovery = spec.recovery;
  cfg.shards = spec.shards;
  if (!sim::ShardedMacroEngine::eligible(cfg)) return {};
  const std::optional<sim::MacroProgram> program =
      strategy.macro_program(spec.dimension);
  if (!program.has_value()) return {};

  const graph::Graph g = strategy.build_graph(spec.dimension);
  Executed event;
  {
    sim::Network net(g, /*homebase=*/0);
    net.set_move_semantics(spec.semantics);
    sim::Engine engine(net, cfg);
    sim::spawn_macro_team(engine, *program);
    event.run = engine.run();
    event.metrics = net.metrics();
    event.all_clean = net.all_clean();
    event.clean_region_connected = net.clean_region_connected();
  }
  Executed macro;
  {
    sim::Network net(g, /*homebase=*/0);
    net.set_move_semantics(spec.semantics);
    sim::ShardedMacroEngine engine(net, cfg);
    macro.run = engine.run(*program);
    macro.metrics = engine.metrics();
    macro.all_clean = engine.all_clean();
    macro.clean_region_connected = engine.clean_region_connected();
  }

  const std::string prefix =
      "macro(shards=" + std::to_string(spec.shards) + "): ";
  const std::string divergence =
      compare_runs(event, macro, /*with_trace=*/false);
  if (!divergence.empty()) return prefix + divergence;
  if (event.all_clean != macro.all_clean) return prefix + "all_clean differs";
  if (event.clean_region_connected != macro.clean_region_connected) {
    return prefix + "clean_region_connected differs";
  }
  return {};
}

}  // namespace

const char* to_string(Expect expect) {
  switch (expect) {
    case Expect::kAuto: return "auto";
    case Expect::kCorrect: return "correct";
    case Expect::kCaptured: return "captured";
    case Expect::kPrincipled: return "principled";
    case Expect::kSafety: return "safety";
  }
  return "?";
}

bool expect_from_string(std::string_view name, Expect* out) {
  for (const auto expect : {Expect::kAuto, Expect::kCorrect, Expect::kCaptured,
                            Expect::kPrincipled, Expect::kSafety}) {
    if (name == to_string(expect)) {
      *out = expect;
      return true;
    }
  }
  return false;
}

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kUnexpectedAbort: return "unexpected-abort";
    case FailureKind::kCaptureFailure: return "capture-failure";
    case FailureKind::kMonotonicityViolation: return "monotonicity-violation";
    case FailureKind::kStrandedAgents: return "stranded-agents";
    case FailureKind::kAccountingMismatch: return "accounting-mismatch";
    case FailureKind::kTraceInvariant: return "trace-invariant";
    case FailureKind::kDifferentialDivergence:
      return "differential-divergence";
  }
  return "?";
}

bool failure_kind_from_string(std::string_view name, FailureKind* out) {
  for (const auto kind :
       {FailureKind::kUnexpectedAbort, FailureKind::kCaptureFailure,
        FailureKind::kMonotonicityViolation, FailureKind::kStrandedAgents,
        FailureKind::kAccountingMismatch, FailureKind::kTraceInvariant,
        FailureKind::kDifferentialDivergence}) {
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

Expect CellSpec::resolved_expect() const {
  if (expect != Expect::kAuto) return expect;
  // Under vacate-on-departure no strategy that sends a node's last agent
  // into a contaminated neighbour can be monotone (docs/MODEL.md section
  // 3): only the structural oracles judge these cells.
  if (semantics == sim::MoveSemantics::kVacateOnDeparture) {
    return Expect::kSafety;
  }
  // A strategy that declares it needs lock-step unit-time links (the
  // Section 5 synchronous variant) makes no behavioural promises under
  // other delay models.
  if (delay.kind != run::DelaySpec::Kind::kUnit) {
    const core::Strategy* s =
        core::StrategyRegistry::instance().find(strategy);
    if (s != nullptr && s->required_capabilities().synchronous) {
      return Expect::kSafety;
    }
  }
  if (faults.empty()) return Expect::kCorrect;
  // Crash-only workloads with recovery on are the acceptance scenario the
  // soak suite pins: they must still capture.
  const bool crash_only_rates =
      faults.wb_loss_rate <= 0.0 && faults.wb_corrupt_rate <= 0.0 &&
      faults.wake_drop_rate <= 0.0 && faults.link_stall_rate <= 0.0;
  bool crash_only_events = true;
  for (const fault::FaultEvent& e : faults.events) {
    if (e.kind != fault::FaultKind::kCrashAtNode &&
        e.kind != fault::FaultKind::kCrashInTransit) {
      crash_only_events = false;
      break;
    }
  }
  if (crash_only_rates && crash_only_events && recovery.enabled &&
      faults.crash_rate <= 0.1) {
    return Expect::kCaptured;
  }
  return Expect::kPrincipled;
}

Json CellSpec::to_json() const {
  Json delay_json = Json::object();
  delay_json.set("kind", delay_kind_name(delay.kind));
  delay_json.set("lo", delay.lo);
  delay_json.set("hi", delay.hi);

  Json j = Json::object();
  j.set("strategy", strategy);
  j.set("dimension", static_cast<std::uint64_t>(dimension));
  j.set("seed", seed);
  j.set("delay", std::move(delay_json));
  j.set("policy", wake_policy_name(policy));
  j.set("semantics", move_semantics_name(semantics));
  j.set("faults", fault::fault_spec_json(faults));
  j.set("recovery", fault::recovery_config_json(recovery));
  j.set("max_agent_steps", max_agent_steps);
  j.set("livelock_window", livelock_window);
  j.set("expect", to_string(expect));
  j.set("differential", differential);
  // Serialized only off its default so every pre-engine-axis artifact's
  // canonical form (and therefore its content hash) is unchanged.
  if (engine != sim::EngineKind::kEvent) {
    j.set("engine", sim::to_string(engine));
  }
  // Same append-only rule for the shard axis.
  if (shards != 1) j.set("shards", std::uint64_t{shards});
  return j;
}

CellKey CellSpec::key() const {
  CellKey key;
  key.strategy = strategy;
  key.dimension = dimension;
  key.seed = seed;
  key.delay = delay.label();
  key.policy = policy;
  key.semantics = semantics;
  key.max_agent_steps = max_agent_steps;
  key.livelock_window = livelock_window;
  key.faults = faults;
  key.recovery = recovery;
  key.engine = engine;
  return key;
}

std::string CellSpec::content_hash() const {
  Json id = Json::object();
  id.set("cell", key().to_json());
  id.set("expect", to_string(expect));
  id.set("differential", differential);
  // Shard count is oracle configuration, not run identity (it never enters
  // key()), but distinct shard draws are distinct corpus entries; omitted
  // at the default so pre-shard-axis hashes are unchanged.
  if (shards != 1) id.set("shards", std::uint64_t{shards});
  return fnv1a64_hex(id.dump());
}

bool parse_cell_spec(const Json& json, CellSpec* out, std::string* error) {
  if (!json.is_object()) return fail(error, "cell spec is not an object");
  CellSpec spec;

  const Json* strategy = json.get("strategy");
  if (strategy == nullptr || !strategy->is_string()) {
    return fail(error, "cell missing \"strategy\"");
  }
  spec.strategy = strategy->as_string();

  // Corrupt-input safety: require kUint, not is_integer() -- the int64
  // constructor normalizes non-negative values to kUint, so a kInt member
  // is a negative number and as_uint() on it aborts instead of failing.
  const Json* dimension = json.get("dimension");
  if (dimension == nullptr || dimension->type() != Json::Type::kUint) {
    return fail(error, "cell missing \"dimension\"");
  }
  // Range-check the 64-bit value: narrowing first would read 2^32 + 4 as 4.
  if (dimension->as_uint() < 1 || dimension->as_uint() > kMaxCellDimension) {
    return fail(error, "cell dimension out of range");
  }
  spec.dimension = static_cast<unsigned>(dimension->as_uint());

  const Json* seed = json.get("seed");
  if (seed == nullptr || seed->type() != Json::Type::kUint) {
    return fail(error, "cell missing \"seed\"");
  }
  spec.seed = seed->as_uint();

  const Json* delay = json.get("delay");
  if (delay == nullptr) return fail(error, "cell missing \"delay\"");
  if (!run::parse_delay(*delay, &spec.delay, error)) return false;

  const Json* policy = json.get("policy");
  if (policy == nullptr || !policy->is_string() ||
      !wake_policy_from_name(policy->as_string(), &spec.policy)) {
    return fail(error, "unknown wake policy");
  }
  const Json* semantics = json.get("semantics");
  if (semantics == nullptr || !semantics->is_string() ||
      !move_semantics_from_name(semantics->as_string(), &spec.semantics)) {
    return fail(error, "unknown move semantics");
  }

  const Json* faults = json.get("faults");
  if (faults == nullptr ||
      !fault::parse_fault_spec(*faults, &spec.faults, error)) {
    return error != nullptr && !error->empty()
               ? false
               : fail(error, "cell missing \"faults\"");
  }
  const Json* recovery = json.get("recovery");
  if (recovery == nullptr ||
      !fault::parse_recovery_config(*recovery, &spec.recovery, error)) {
    return error != nullptr && !error->empty()
               ? false
               : fail(error, "cell missing \"recovery\"");
  }

  const Json* max_steps = json.get("max_agent_steps");
  if (max_steps == nullptr || max_steps->type() != Json::Type::kUint) {
    return fail(error, "cell missing \"max_agent_steps\"");
  }
  spec.max_agent_steps = max_steps->as_uint();
  const Json* livelock = json.get("livelock_window");
  if (livelock == nullptr || livelock->type() != Json::Type::kUint) {
    return fail(error, "cell missing \"livelock_window\"");
  }
  spec.livelock_window = livelock->as_uint();

  const Json* expect = json.get("expect");
  if (expect == nullptr || !expect->is_string() ||
      !expect_from_string(expect->as_string(), &spec.expect)) {
    return fail(error, "unknown expect level");
  }
  const Json* differential = json.get("differential");
  if (differential == nullptr || differential->type() != Json::Type::kBool) {
    return fail(error, "cell missing \"differential\"");
  }
  spec.differential = differential->as_bool();

  // Optional: absent in pre-engine-axis artifacts, which ran kEvent only.
  if (const Json* engine = json.get("engine"); engine != nullptr) {
    if (!engine->is_string() ||
        !ckpt::engine_kind_from_string(engine->as_string(), &spec.engine)) {
      return fail(error, "unknown engine kind");
    }
  }

  // Optional: absent in pre-shard-axis artifacts, which ran serial only.
  if (const Json* shards = json.get("shards"); shards != nullptr) {
    if (shards->type() != Json::Type::kUint) {
      return fail(error, "cell \"shards\" is not an unsigned integer");
    }
    spec.shards = static_cast<std::uint32_t>(shards->as_uint());
    if (spec.shards == 0) return fail(error, "cell \"shards\" must be >= 1");
  }

  *out = std::move(spec);
  return true;
}

std::string failure_signature(const std::vector<Failure>& fs) {
  std::vector<std::string> kinds;
  kinds.reserve(fs.size());
  for (const Failure& f : fs) kinds.emplace_back(to_string(f.kind));
  std::sort(kinds.begin(), kinds.end());
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
  std::string out;
  for (const std::string& k : kinds) {
    if (!out.empty()) out += '+';
    out += k;
  }
  return out;
}

std::string CellResult::signature() const {
  return failure_signature(failures);
}

CellResult run_cell(const CellSpec& spec) {
  const core::Strategy* strategy =
      core::StrategyRegistry::instance().find(spec.strategy);
  HCS_EXPECTS(strategy != nullptr && "unknown strategy in fuzz cell");

  CellResult result;
  std::vector<fault::FaultEvent> fired_raw;
  const Executed primary = execute(spec, *strategy, /*implicit_topology=*/true,
                                   &fired_raw);
  result.outcome = to_outcome(spec, primary);

  // Dedup fired decisions (a decision point may be queried more than once)
  // while keeping first-firing order.
  std::set<std::tuple<std::uint8_t, std::uint32_t, std::uint64_t>> seen;
  for (const fault::FaultEvent& e : fired_raw) {
    if (seen.insert({static_cast<std::uint8_t>(e.kind), e.entity, e.index})
            .second) {
      result.fired.push_back(e);
    }
  }

  check_contract(spec, result.outcome, result.failures);
  for (const sim::InvariantViolation& v : primary.trace_violations) {
    result.failures.push_back({FailureKind::kTraceInvariant,
                               v.id + ": " + v.message});
  }

  if (spec.differential) {
    const Executed oracle =
        execute(spec, *strategy, /*implicit_topology=*/false, nullptr);
    const std::string divergence = compare_runs(primary, oracle);
    if (!divergence.empty()) {
      result.failures.push_back(
          {FailureKind::kDifferentialDivergence,
           "implicit vs generic topology: " + divergence});
    }
  }

  if (spec.engine != sim::EngineKind::kEvent) {
    const std::string divergence = macro_engine_divergence(spec, *strategy);
    if (!divergence.empty()) {
      result.failures.push_back({FailureKind::kDifferentialDivergence,
                                 "macro vs event engine: " + divergence});
    }
  }
  return result;
}

}  // namespace hcs::fuzz
