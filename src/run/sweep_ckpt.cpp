#include "run/sweep_ckpt.hpp"

#include <utility>

#include "ckpt/outcome_io.hpp"
#include "core/strategy_registry.hpp"

namespace hcs::run {

namespace {

/// Json(int64) normalizes non-negative values to kUint, so kUint is the
/// only type a well-formed count ever has; anything else (including a
/// negative kInt) is a structural mismatch, and as_uint() on it would
/// abort rather than fail.
const Json* get_uint(const Json& json, const char* key) {
  const Json* member = json.get(key);
  if (member == nullptr || member->type() != Json::Type::kUint) return nullptr;
  return member;
}

}  // namespace

CellKey sweep_cell_key(const SweepSpec& spec, std::size_t index) {
  const SweepCell cell = sweep_cell_at(spec, index);
  CellKey key;
  // Canonical registry casing, so "clean" and "CLEAN" name the same cell.
  key.strategy = core::StrategyRegistry::instance().get(cell.strategy).name();
  key.dimension = cell.dimension;
  key.seed = cell.seed;
  key.delay = cell.delay.label();
  key.policy = cell.policy;
  key.semantics = cell.semantics;
  key.max_agent_steps = spec.max_agent_steps;
  key.faults = cell.faults;
  key.recovery = spec.recovery;
  key.engine = cell.engine;
  return key;
}

std::string sweep_spec_fingerprint(const SweepSpec& spec) {
  Json id = Json::object();
  id.set("kind", "sweep-cells");
  id.set("version", std::uint64_t{2});
  Json cells = Json::array();
  const std::size_t num_cells = spec.num_cells();
  for (std::size_t i = 0; i < num_cells; ++i) {
    cells.push_back(sweep_cell_key(spec, i).hash());
  }
  id.set("cells", std::move(cells));
  return fnv1a64_hex(id.dump());
}

Json sweep_snapshot_json(const SweepSpec& spec, const std::string& fingerprint,
                         const std::map<std::size_t, core::SimOutcome>& done) {
  Json doc = Json::object();
  doc.set("kind", "sweep");
  doc.set("version", std::uint64_t{1});
  doc.set("fingerprint", fingerprint);
  doc.set("cells", static_cast<std::uint64_t>(spec.num_cells()));
  Json cells = Json::array();
  for (const auto& [index, outcome] : done) {
    Json entry = Json::object();
    entry.set("index", static_cast<std::uint64_t>(index));
    entry.set("outcome", ckpt::outcome_json(outcome));
    cells.push_back(std::move(entry));
  }
  doc.set("done", std::move(cells));
  return doc;
}

bool parse_sweep_snapshot(const Json& doc, const std::string& fingerprint,
                          std::size_t num_cells,
                          std::map<std::size_t, core::SimOutcome>* out,
                          std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (doc.type() != Json::Type::kObject) {
    return fail("sweep snapshot: not an object");
  }
  const Json* kind = doc.get("kind");
  if (kind == nullptr || kind->type() != Json::Type::kString ||
      kind->as_string() != "sweep") {
    return fail("sweep snapshot: kind != \"sweep\"");
  }
  const Json* fp = doc.get("fingerprint");
  if (fp == nullptr || fp->type() != Json::Type::kString) {
    return fail("sweep snapshot: missing fingerprint");
  }
  if (fp->as_string() != fingerprint) {
    return fail("sweep snapshot: fingerprint mismatch (snapshot " +
                fp->as_string() + ", spec " + fingerprint + ")");
  }
  const Json* cells = get_uint(doc, "cells");
  if (cells == nullptr || cells->as_uint() != num_cells) {
    return fail("sweep snapshot: cell count mismatch");
  }
  const Json* done = doc.get("done");
  if (done == nullptr || done->type() != Json::Type::kArray) {
    return fail("sweep snapshot: missing done array");
  }
  std::map<std::size_t, core::SimOutcome> parsed;
  for (std::size_t i = 0; i < done->items().size(); ++i) {
    const Json& entry = done->items()[i];
    if (entry.type() != Json::Type::kObject) {
      return fail("sweep snapshot: done[" + std::to_string(i) +
                  "] is not an object");
    }
    const Json* index = get_uint(entry, "index");
    if (index == nullptr || index->as_uint() >= num_cells) {
      return fail("sweep snapshot: done[" + std::to_string(i) +
                  "] has a bad index");
    }
    const Json* outcome = entry.get("outcome");
    if (outcome == nullptr) {
      return fail("sweep snapshot: done[" + std::to_string(i) +
                  "] has no outcome");
    }
    core::SimOutcome parsed_outcome;
    std::string outcome_error;
    if (!ckpt::parse_outcome(*outcome, &parsed_outcome, &outcome_error)) {
      return fail("sweep snapshot: done[" + std::to_string(i) +
                  "]: " + outcome_error);
    }
    parsed[static_cast<std::size_t>(index->as_uint())] =
        std::move(parsed_outcome);
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace hcs::run
