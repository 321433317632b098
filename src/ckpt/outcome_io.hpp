// JSON round-trip for core::SimOutcome.
//
// hcsd replies carry one serialized outcome per run, and a cache hit must
// replay the cold run's bytes, so the contract is exact: every field
// serializes (including the nested DegradationReport and the enum fields
// as their canonical to_string names), doubles render through util/json's
// %.17g canonical writer, and outcome == parse(outcome_json(outcome)) for
// every representable outcome. The enum inverses live here because
// nothing below this layer ever needed to read "step-cap" back.

#pragma once

#include <string>
#include <string_view>

#include "core/strategy.hpp"
#include "sim/options.hpp"
#include "sim/types.hpp"
#include "util/json.hpp"

namespace hcs::ckpt {

/// Inverse of sim::to_string(AbortReason); false on an unknown name.
[[nodiscard]] bool abort_reason_from_string(std::string_view name,
                                            sim::AbortReason* out);

/// Inverse of sim::to_string(EngineKind); false on an unknown name.
[[nodiscard]] bool engine_kind_from_string(std::string_view name,
                                           sim::EngineKind* out);

[[nodiscard]] Json outcome_json(const core::SimOutcome& outcome);

/// False -- with a one-line message in `error` when non-null -- on any
/// structural mismatch; `out` is untouched on failure. Never aborts on
/// corrupt input.
[[nodiscard]] bool parse_outcome(const Json& json, core::SimOutcome* out,
                                 std::string* error = nullptr);

}  // namespace hcs::ckpt
