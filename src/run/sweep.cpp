#include "run/sweep.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "core/strategy_registry.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace hcs::run {

namespace {

/// Shortest exact-ish rendering for delay-bound labels: 3 -> "3",
/// 0.2 -> "0.2".
std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

sim::DelayModel DelaySpec::make() const {
  switch (kind) {
    case Kind::kUnit: return sim::DelayModel::unit();
    case Kind::kUniform: return sim::DelayModel::uniform(lo, hi);
    case Kind::kHeavyTailed: return sim::DelayModel::heavy_tailed();
  }
  return sim::DelayModel::unit();
}

std::string DelaySpec::label() const {
  switch (kind) {
    case Kind::kUnit: return "unit";
    case Kind::kUniform:
      return "uniform(" + compact(lo) + "," + compact(hi) + ")";
    case Kind::kHeavyTailed: return "heavy-tailed";
  }
  return "?";
}

bool parse_delay(const Json& json, DelaySpec* out, std::string* error) {
  const auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return false;
  };
  if (json.is_string()) {
    const std::string& name = json.as_string();
    if (name == "unit") {
      *out = DelaySpec::unit();
      return true;
    }
    if (name == "heavy-tailed") {
      *out = DelaySpec::heavy_tailed();
      return true;
    }
    return fail("unknown delay shorthand \"" + name +
                "\" (use \"unit\", \"heavy-tailed\", or a {kind,lo,hi} "
                "object)");
  }
  if (!json.is_object()) {
    return fail("\"delay\" must be a string shorthand or an object");
  }
  const Json* kind = json.get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return fail("delay object missing string \"kind\"");
  }
  DelaySpec spec;
  const std::string& name = kind->as_string();
  if (name == "uniform") {
    spec.kind = DelaySpec::Kind::kUniform;
  } else if (name == "heavy-tailed") {
    spec.kind = DelaySpec::Kind::kHeavyTailed;
  } else if (name != "unit") {
    return fail("unknown delay kind \"" + name + "\"");
  }
  const Json* lo = json.get("lo");
  const Json* hi = json.get("hi");
  if ((lo != nullptr && !lo->is_number()) ||
      (hi != nullptr && !hi->is_number())) {
    return fail("delay \"lo\" and \"hi\" must be numbers");
  }
  if (lo != nullptr) spec.lo = lo->as_double();
  if (hi != nullptr) spec.hi = hi->as_double();
  if (spec.kind == DelaySpec::Kind::kUniform) {
    if (lo == nullptr || hi == nullptr) {
      return fail("uniform delay needs numeric \"lo\" and \"hi\"");
    }
    // DelayModel::uniform requires 0 < lo < hi; reject here so bad input
    // is a diagnostic, not a precondition abort.
    if (!std::isfinite(spec.lo) || !std::isfinite(spec.hi) ||
        spec.lo <= 0.0 || spec.lo >= spec.hi) {
      return fail("uniform delay needs 0 < lo < hi");
    }
  }
  *out = spec;
  return true;
}

std::size_t SweepSpec::num_cells() const {
  return strategies.size() * dimensions.size() * seeds.size() *
         delays.size() * policies.size() * semantics.size() * faults.size() *
         engines.size();
}

SweepCell sweep_cell_at(const SweepSpec& spec, std::size_t index) {
  HCS_EXPECTS(index < spec.num_cells());
  // Row-major decode, engines fastest, then faults (so the default
  // single-entry engine and fault axes preserve the historical cell
  // order).
  const auto pick = [&index](std::size_t extent) {
    const std::size_t i = index % extent;
    index /= extent;
    return i;
  };
  SweepCell cell;
  cell.engine = spec.engines[pick(spec.engines.size())];
  cell.faults = spec.faults[pick(spec.faults.size())];
  cell.semantics = spec.semantics[pick(spec.semantics.size())];
  cell.policy = spec.policies[pick(spec.policies.size())];
  cell.delay = spec.delays[pick(spec.delays.size())];
  cell.seed = spec.seeds[pick(spec.seeds.size())];
  cell.dimension = spec.dimensions[pick(spec.dimensions.size())];
  cell.strategy = spec.strategies[pick(spec.strategies.size())];
  return cell;
}

SweepCell run_sweep_cell(const SweepSpec& spec, std::size_t index,
                         obs::Registry* obs) {
  SweepCell cell = sweep_cell_at(spec, index);
  core::SimRunConfig config;
  config.delay = cell.delay.make();
  config.policy = cell.policy;
  config.seed = cell.seed;
  config.semantics = cell.semantics;
  config.max_agent_steps = spec.max_agent_steps;
  config.faults = cell.faults;
  config.recovery = spec.recovery;
  config.engine = cell.engine;
  config.shards = spec.shards;

  obs::ScopedSink sink(obs);
  obs::Span cell_span(obs, "sweep.cell");
  cell.outcome = core::run_strategy_sim(cell.strategy, cell.dimension, config);
  if (obs::kEnabled && obs != nullptr) {
    const double cell_us = cell_span.finish();
    obs->hist_record("sweep.cell_us", cell_us);
    obs->hist_record("sweep.cell_us." + cell.outcome.strategy, cell_us);
    obs->counter_add("sweep.cells");
    if (cell.outcome.correct()) obs->counter_add("sweep.cells.correct");
    if (cell.outcome.aborted()) obs->counter_add("sweep.cells.aborted");
  }
  return cell;
}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  HCS_EXPECTS(!spec.strategies.empty() && !spec.dimensions.empty());
  HCS_EXPECTS(!spec.seeds.empty() && !spec.delays.empty());
  HCS_EXPECTS(!spec.policies.empty() && !spec.semantics.empty());
  HCS_EXPECTS(!spec.faults.empty() && !spec.engines.empty());
  // Resolve every name up front (and warm the registry singleton) so a typo
  // aborts before any work is scheduled and no worker races the first
  // instance() initialization.
  for (const std::string& name : spec.strategies) {
    (void)core::StrategyRegistry::instance().get(name);
  }

  SweepResult result;
  result.spec = spec;
  result.cells.resize(spec.num_cells());

  obs::Span sweep_span(config_.obs, "sweep.run");
  ThreadPool(config_.threads)
      .parallel_for(result.cells.size(), [&](std::size_t i) {
        result.cells[i] = run_sweep_cell(spec, i, config_.obs);
      });
  return result;
}

const SweepCell* SweepResult::find(const std::string& strategy,
                                   unsigned dimension) const {
  for (const SweepCell& cell : cells) {
    if (cell.dimension == dimension && cell.strategy == strategy) {
      return &cell;
    }
  }
  return nullptr;
}

std::vector<StrategySummary> SweepResult::summarize() const {
  std::vector<StrategySummary> out;
  out.reserve(spec.strategies.size());
  for (const std::string& name : spec.strategies) {
    StrategySummary s;
    // Cells carry the registry's canonical casing; resolve once.
    s.strategy = core::StrategyRegistry::instance().get(name).name();
    for (const SweepCell& cell : cells) {
      if (cell.outcome.strategy != s.strategy) continue;
      ++s.cells;
      if (cell.outcome.correct()) ++s.correct_cells;
      if (cell.outcome.captured()) ++s.captured_cells;
      if (cell.outcome.aborted()) ++s.aborted_cells;
      s.recontaminations += cell.outcome.recontaminations;
      s.faults_injected += cell.outcome.degradation.injected_total();
      s.faults_recovered += cell.outcome.degradation.faults_recovered;
      s.recovery_moves += cell.outcome.degradation.recovery_moves;
      s.team_size.add(static_cast<double>(cell.outcome.team_size));
      s.total_moves.add(static_cast<double>(cell.outcome.total_moves));
      s.makespan.add(cell.outcome.makespan);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace hcs::run
