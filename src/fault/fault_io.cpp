#include "fault/fault_io.hpp"

namespace hcs::fault {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Fetches a required number member as double.
bool get_double(const Json& json, const char* key, double* out,
                std::string* error) {
  const Json* member = json.get(key);
  if (member == nullptr || !member->is_number()) {
    return fail(error, std::string("missing number \"") + key + "\"");
  }
  *out = member->as_double();
  return true;
}

/// Fetches a required probability: a number in [0, 1], the range
/// FaultSchedule requires of every rate.
bool get_rate(const Json& json, const char* key, double* out,
              std::string* error) {
  if (!get_double(json, key, out, error)) return false;
  if (!(*out >= 0.0 && *out <= 1.0)) {
    return fail(error, std::string("\"") + key + "\" must be in [0, 1]");
  }
  return true;
}

bool get_uint(const Json& json, const char* key, std::uint64_t* out,
              std::string* error) {
  const Json* member = json.get(key);
  // kUint exactly: a parsed negative integer is kInt, and feeding it to
  // as_uint() would abort the process -- corrupt input must fail softly.
  if (member == nullptr || member->type() != Json::Type::kUint) {
    return fail(error,
                std::string("missing non-negative integer \"") + key + "\"");
  }
  *out = member->as_uint();
  return true;
}

}  // namespace

Json fault_event_json(const FaultEvent& event) {
  Json j = Json::object();
  j.set("kind", to_string(event.kind));
  j.set("entity", static_cast<std::uint64_t>(event.entity));
  j.set("index", event.index);
  return j;
}

Json fault_spec_json(const FaultSpec& spec) {
  Json j = Json::object();
  j.set("crash_rate", spec.crash_rate);
  j.set("wb_loss_rate", spec.wb_loss_rate);
  j.set("wb_corrupt_rate", spec.wb_corrupt_rate);
  j.set("wake_drop_rate", spec.wake_drop_rate);
  j.set("link_stall_rate", spec.link_stall_rate);
  j.set("stall_factor", spec.stall_factor);
  j.set("seed", spec.seed);
  Json events = Json::array();
  for (const FaultEvent& e : spec.events) events.push_back(fault_event_json(e));
  j.set("events", std::move(events));
  return j;
}

Json recovery_config_json(const RecoveryConfig& config) {
  Json j = Json::object();
  j.set("enabled", config.enabled);
  j.set("max_rounds", static_cast<std::uint64_t>(config.max_rounds));
  j.set("detect_timeout", config.detect_timeout);
  j.set("backoff", config.backoff);
  return j;
}

Json degradation_report_json(const DegradationReport& report) {
  Json j = Json::object();
  j.set("crashes", report.crashes);
  j.set("crashes_in_transit", report.crashes_in_transit);
  j.set("wb_entries_lost", report.wb_entries_lost);
  j.set("wb_entries_corrupted", report.wb_entries_corrupted);
  j.set("wakes_dropped", report.wakes_dropped);
  j.set("links_stalled", report.links_stalled);
  j.set("crashes_detected", report.crashes_detected);
  j.set("wb_faults_detected", report.wb_faults_detected);
  j.set("faults_recovered", report.faults_recovered);
  j.set("recovery_rounds", report.recovery_rounds);
  j.set("repair_agents", report.repair_agents);
  j.set("recovery_moves", report.recovery_moves);
  j.set("recovery_time", report.recovery_time);
  j.set("recontaminations_attributed", report.recontaminations_attributed);
  j.set("agents_stranded", report.agents_stranded);
  return j;
}

bool parse_fault_event(const Json& json, FaultEvent* out, std::string* error) {
  if (!json.is_object()) return fail(error, "fault event is not an object");
  const Json* kind = json.get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return fail(error, "fault event missing \"kind\"");
  }
  FaultEvent event;
  if (!from_string(kind->as_string(), &event.kind)) {
    return fail(error, "unknown fault kind \"" + kind->as_string() + "\"");
  }
  std::uint64_t entity = 0;
  if (!get_uint(json, "entity", &entity, error)) return false;
  if (entity > UINT32_MAX) return fail(error, "fault entity out of range");
  event.entity = static_cast<std::uint32_t>(entity);
  if (!get_uint(json, "index", &event.index, error)) return false;
  *out = event;
  return true;
}

bool parse_fault_spec(const Json& json, FaultSpec* out, std::string* error) {
  if (!json.is_object()) return fail(error, "fault spec is not an object");
  FaultSpec spec;
  if (!get_rate(json, "crash_rate", &spec.crash_rate, error) ||
      !get_rate(json, "wb_loss_rate", &spec.wb_loss_rate, error) ||
      !get_rate(json, "wb_corrupt_rate", &spec.wb_corrupt_rate, error) ||
      !get_rate(json, "wake_drop_rate", &spec.wake_drop_rate, error) ||
      !get_rate(json, "link_stall_rate", &spec.link_stall_rate, error) ||
      !get_double(json, "stall_factor", &spec.stall_factor, error) ||
      !get_uint(json, "seed", &spec.seed, error)) {
    return false;
  }
  if (!(spec.stall_factor >= 1.0)) {
    return fail(error, "\"stall_factor\" must be >= 1");
  }
  const Json* events = json.get("events");
  if (events == nullptr || !events->is_array()) {
    return fail(error, "fault spec missing \"events\" array");
  }
  for (const Json& item : events->items()) {
    FaultEvent event;
    if (!parse_fault_event(item, &event, error)) return false;
    spec.events.push_back(event);
  }
  *out = std::move(spec);
  return true;
}

bool parse_recovery_config(const Json& json, RecoveryConfig* out,
                           std::string* error) {
  if (!json.is_object()) return fail(error, "recovery config is not an object");
  const Json* enabled = json.get("enabled");
  if (enabled == nullptr || enabled->type() != Json::Type::kBool) {
    return fail(error, "recovery config missing \"enabled\"");
  }
  RecoveryConfig config;
  config.enabled = enabled->as_bool();
  std::uint64_t rounds = 0;
  if (!get_uint(json, "max_rounds", &rounds, error)) return false;
  if (rounds > UINT32_MAX) return fail(error, "max_rounds out of range");
  config.max_rounds = static_cast<unsigned>(rounds);
  if (!get_double(json, "detect_timeout", &config.detect_timeout, error) ||
      !get_double(json, "backoff", &config.backoff, error)) {
    return false;
  }
  *out = config;
  return true;
}

bool parse_degradation_report(const Json& json, DegradationReport* out,
                              std::string* error) {
  if (!json.is_object()) {
    return fail(error, "degradation report is not an object");
  }
  DegradationReport report;
  if (!get_uint(json, "crashes", &report.crashes, error) ||
      !get_uint(json, "crashes_in_transit", &report.crashes_in_transit,
                error) ||
      !get_uint(json, "wb_entries_lost", &report.wb_entries_lost, error) ||
      !get_uint(json, "wb_entries_corrupted", &report.wb_entries_corrupted,
                error) ||
      !get_uint(json, "wakes_dropped", &report.wakes_dropped, error) ||
      !get_uint(json, "links_stalled", &report.links_stalled, error) ||
      !get_uint(json, "crashes_detected", &report.crashes_detected, error) ||
      !get_uint(json, "wb_faults_detected", &report.wb_faults_detected,
                error) ||
      !get_uint(json, "faults_recovered", &report.faults_recovered, error) ||
      !get_uint(json, "recovery_rounds", &report.recovery_rounds, error) ||
      !get_uint(json, "repair_agents", &report.repair_agents, error) ||
      !get_uint(json, "recovery_moves", &report.recovery_moves, error) ||
      !get_double(json, "recovery_time", &report.recovery_time, error) ||
      !get_uint(json, "recontaminations_attributed",
                &report.recontaminations_attributed, error) ||
      !get_uint(json, "agents_stranded", &report.agents_stranded, error)) {
    return false;
  }
  *out = report;
  return true;
}

}  // namespace hcs::fault
