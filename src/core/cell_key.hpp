// hcs::CellKey -- the canonical run identity.
//
// The paper's strategies are deterministic: a run's entire step sequence
// (and therefore its outcome, metrics and degradation report) is a pure
// function of (strategy, dimension, seed, delay shape, wake policy,
// visibility, move semantics, abort guards, fault workload, recovery
// policy, engine). CellKey names exactly that tuple, with a canonical
// byte-stable JSON encoding (hcs::Json's writer) and an FNV-1a content
// hash over it.
//
// Two subsystems route their identity through this one type:
//   * fuzz       -- artifact content hashes (fuzz/cell.cpp CellSpec::key)
//   * serve      -- hcsd's content-addressed result cache (src/serve)
//
// The encoding is append-only and versioned by construction: every field
// serializes, in fixed declaration order, so equal keys render byte-equal
// and hash() is stable across processes and platforms. Pre-CellKey
// identities differ byte-wise and are no longer read (DESIGN.md's
// deprecation policy).
//
// The delay axis is a *label*, not a sampler: DelayModel is opaque, so the
// key carries run::DelaySpec::label() strings ("unit", "uniform(0.2,3)",
// "heavy-tailed").

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "sim/options.hpp"
#include "util/json.hpp"

namespace hcs {

/// Canonical names for the scheduling axes ("fifo"/"random",
/// "atomic-arrival"/"vacate-on-departure"): the strings the CellKey
/// encoding, sweep CSV/JSON IO, fuzz artifacts and the serve protocol all
/// share.
[[nodiscard]] const char* wake_policy_name(sim::WakePolicy policy);
[[nodiscard]] const char* move_semantics_name(sim::MoveSemantics semantics);
/// False (out untouched) when `name` is not a canonical axis name.
[[nodiscard]] bool wake_policy_from_name(std::string_view name,
                                         sim::WakePolicy* out);
[[nodiscard]] bool move_semantics_from_name(std::string_view name,
                                            sim::MoveSemantics* out);

struct CellKey {
  std::string strategy;  ///< registry name, canonical casing
  unsigned dimension = 4;
  std::uint64_t seed = 1;
  /// Delay-model label: "unit", "uniform(lo,hi)" or "heavy-tailed".
  std::string delay = "unit";
  sim::WakePolicy policy = sim::WakePolicy::kFifo;
  bool visibility = false;
  sim::MoveSemantics semantics = sim::MoveSemantics::kAtomicArrival;
  std::uint64_t max_agent_steps = 200'000'000;
  std::uint64_t livelock_window = 1'000'000;
  fault::FaultSpec faults;
  fault::RecoveryConfig recovery;
  /// Requested executor (may be kAuto).
  sim::EngineKind engine = sim::EngineKind::kEvent;

  /// Canonical JSON object: every field, declaration order, stable axis
  /// names. Equal keys render byte-equal under Json's writer.
  [[nodiscard]] Json to_json() const;
  /// to_json().dump() -- the canonical byte encoding.
  [[nodiscard]] std::string canonical() const;
  /// fnv1a64_hex(canonical()): the 16-hex-digit content hash that fuzz
  /// artifact names and the serve cache key both use.
  [[nodiscard]] std::string hash() const;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

}  // namespace hcs
