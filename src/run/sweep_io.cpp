#include "run/sweep_io.hpp"

#include <cstdio>
#include <fstream>

#include "core/cell_key.hpp"
#include "obs/export.hpp"
#include "util/csv.hpp"
#include "util/strfmt.hpp"

namespace hcs::run {

namespace {

/// Round-trip-exact double rendering so serialized sweeps are comparable
/// byte-for-byte.
std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const std::vector<std::string>& cell_fields() {
  static const std::vector<std::string> fields = {
      "strategy",       "dimension",        "seed",
      "delay",          "policy",           "semantics",
      "faults",         "engine",           "engine_used",
      "abort_reason",
      "team_size",      "total_moves",      "agent_moves",
      "sync_moves",     "makespan",         "capture_time",
      "recontaminations", "all_clean",      "connected",
      "terminated",     "aborted",          "correct",
      "peak_wb_bits",
      "faults_injected", "faults_detected", "faults_recovered",
      "recovery_rounds", "repair_agents",   "recovery_moves",
      "recovery_time",   "recont_attributed",
      "shards"};
  return fields;
}

std::vector<std::string> cell_values(const SweepCell& cell,
                                     std::uint32_t shards) {
  const core::SimOutcome& o = cell.outcome;
  const fault::DegradationReport& deg = o.degradation;
  return {cell.strategy,
          std::to_string(cell.dimension),
          std::to_string(cell.seed),
          cell.delay.label(),
          wake_policy_name(cell.policy),
          move_semantics_name(cell.semantics),
          cell.faults.label(),
          sim::to_string(cell.engine),
          sim::to_string(o.engine_used),
          sim::to_string(o.abort_reason),
          std::to_string(o.team_size),
          std::to_string(o.total_moves),
          std::to_string(o.agent_moves),
          std::to_string(o.synchronizer_moves),
          exact(o.makespan),
          exact(o.capture_time),
          std::to_string(o.recontaminations),
          o.all_clean ? "1" : "0",
          o.clean_region_connected ? "1" : "0",
          o.all_agents_terminated ? "1" : "0",
          o.aborted() ? "1" : "0",
          o.correct() ? "1" : "0",
          std::to_string(o.peak_whiteboard_bits),
          std::to_string(deg.injected_total()),
          std::to_string(deg.crashes_detected + deg.wb_faults_detected),
          std::to_string(deg.faults_recovered),
          std::to_string(deg.recovery_rounds),
          std::to_string(deg.repair_agents),
          std::to_string(deg.recovery_moves),
          exact(deg.recovery_time),
          std::to_string(deg.recontaminations_attributed),
          std::to_string(shards)};
}

bool write_string(const std::string& content, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

std::string sweep_csv(const SweepResult& result) {
  CsvWriter writer(cell_fields());
  for (const SweepCell& cell : result.cells) {
    writer.add_row(cell_values(cell, result.spec.shards));
  }
  return writer.render();
}

std::string sweep_json(const SweepResult& result) {
  std::string out = "{\n  \"spec\": {";
  out += "\"strategies\": [";
  for (std::size_t i = 0; i < result.spec.strategies.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + obs::json_escape(result.spec.strategies[i]) + "\"";
  }
  out += "], \"dimensions\": [";
  for (std::size_t i = 0; i < result.spec.dimensions.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(result.spec.dimensions[i]);
  }
  out += "], \"shards\": " + std::to_string(result.spec.shards);
  out += ", \"cells\": " + std::to_string(result.cells.size());
  out += "},\n  \"cells\": [\n";

  const auto& fields = cell_fields();
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const std::vector<std::string> values =
        cell_values(result.cells[c], result.spec.shards);
    out += "    {";
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f > 0) out += ", ";
      out += "\"" + fields[f] + "\": ";
      // Quote the label-like columns (through "abort_reason"); everything
      // else is numeric (booleans serialized as 0/1).
      const bool quoted = f <= 9;
      out += quoted ? "\"" + obs::json_escape(values[f]) + "\"" : values[f];
    }
    out += c + 1 < result.cells.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool write_sweep_csv(const SweepResult& result, const std::string& path) {
  return write_string(sweep_csv(result), path);
}

bool write_sweep_json(const SweepResult& result, const std::string& path) {
  return write_string(sweep_json(result), path);
}

Table sweep_cells_table(const SweepResult& result) {
  Table t({"strategy", "d", "seed", "delay", "policy", "faults", "engine",
           "agents", "moves", "ideal time", "monotone", "all clean",
           "verdict"});
  for (const SweepCell& cell : result.cells) {
    const core::SimOutcome& o = cell.outcome;
    t.add_row({cell.strategy, std::to_string(cell.dimension),
               std::to_string(cell.seed), cell.delay.label(),
               wake_policy_name(cell.policy), cell.faults.label(),
               sim::to_string(o.engine_used),
               with_commas(o.team_size),
               with_commas(o.total_moves), fixed(o.makespan, 0),
               o.recontaminations == 0 ? "yes" : "NO",
               o.all_clean ? "yes" : "NO", o.verdict()});
  }
  return t;
}

Table sweep_summary_table(const SweepResult& result) {
  Table t({"strategy", "cells", "correct", "captured", "aborted", "recont.",
           "faults", "recovered", "agents", "moves (mean)", "time (mean)"});
  for (const StrategySummary& s : result.summarize()) {
    t.add_row({s.strategy, std::to_string(s.cells),
               std::to_string(s.correct_cells),
               std::to_string(s.captured_cells),
               std::to_string(s.aborted_cells),
               std::to_string(s.recontaminations),
               std::to_string(s.faults_injected),
               std::to_string(s.faults_recovered),
               s.cells == 0 ? "-" : with_commas(static_cast<std::uint64_t>(
                                        s.team_size.max())),
               s.cells == 0 ? "-" : fixed(s.total_moves.mean(), 1),
               s.cells == 0 ? "-" : fixed(s.makespan.mean(), 2)});
  }
  return t;
}

}  // namespace hcs::run
