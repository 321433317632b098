// JSON serialization for the fault layer: FaultEvent, FaultSpec, and
// RecoveryConfig as stable, replayable documents.
//
// The fuzz campaign (src/fuzz) persists failing cells as artifacts whose
// whole point is to reproduce a run bit-for-bit months later, so the
// contract here is strict: every field serializes -- including the ones
// the human-readable FaultSpec::label() omits (stall_factor, the fault
// seed, and per-event kinds such as link-stall and mid-edge crashes) --
// and spec == parse(to_json(spec)) for every representable spec
// (tests/test_faults.cpp holds the property test). Rendering rides
// util/json's canonical writer, so equal specs serialize byte-equal.

#pragma once

#include <string>

#include "fault/fault.hpp"
#include "util/json.hpp"

namespace hcs::fault {

[[nodiscard]] Json fault_event_json(const FaultEvent& event);
[[nodiscard]] Json fault_spec_json(const FaultSpec& spec);
[[nodiscard]] Json recovery_config_json(const RecoveryConfig& config);
[[nodiscard]] Json degradation_report_json(const DegradationReport& report);

/// Parsers return false (with a one-line message in `error` when non-null)
/// on a structural mismatch or on a value FaultSchedule would refuse (a
/// rate outside [0, 1], a stall_factor below 1); `out` is untouched on
/// failure.
[[nodiscard]] bool parse_fault_event(const Json& json, FaultEvent* out,
                                     std::string* error = nullptr);
[[nodiscard]] bool parse_fault_spec(const Json& json, FaultSpec* out,
                                    std::string* error = nullptr);
[[nodiscard]] bool parse_recovery_config(const Json& json, RecoveryConfig* out,
                                         std::string* error = nullptr);
[[nodiscard]] bool parse_degradation_report(const Json& json,
                                            DegradationReport* out,
                                            std::string* error = nullptr);

}  // namespace hcs::fault
