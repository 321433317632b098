#include "core/cell_key.hpp"

#include "fault/fault_io.hpp"

namespace hcs {

const char* wake_policy_name(sim::WakePolicy policy) {
  return policy == sim::WakePolicy::kFifo ? "fifo" : "random";
}

const char* move_semantics_name(sim::MoveSemantics semantics) {
  return semantics == sim::MoveSemantics::kAtomicArrival
             ? "atomic-arrival"
             : "vacate-on-departure";
}

bool wake_policy_from_name(std::string_view name, sim::WakePolicy* out) {
  if (name == "fifo") {
    *out = sim::WakePolicy::kFifo;
    return true;
  }
  if (name == "random") {
    *out = sim::WakePolicy::kRandom;
    return true;
  }
  return false;
}

bool move_semantics_from_name(std::string_view name,
                              sim::MoveSemantics* out) {
  if (name == "atomic-arrival") {
    *out = sim::MoveSemantics::kAtomicArrival;
    return true;
  }
  if (name == "vacate-on-departure") {
    *out = sim::MoveSemantics::kVacateOnDeparture;
    return true;
  }
  return false;
}

Json CellKey::to_json() const {
  Json id = Json::object();
  id.set("strategy", strategy);
  id.set("dimension", std::uint64_t{dimension});
  id.set("seed", seed);
  id.set("delay", delay);
  id.set("policy", wake_policy_name(policy));
  id.set("visibility", visibility);
  id.set("semantics", move_semantics_name(semantics));
  id.set("max_agent_steps", max_agent_steps);
  id.set("livelock_window", livelock_window);
  id.set("faults", fault::fault_spec_json(faults));
  id.set("recovery", fault::recovery_config_json(recovery));
  id.set("engine", sim::to_string(engine));
  return id;
}

std::string CellKey::canonical() const { return to_json().dump(); }

std::string CellKey::hash() const { return fnv1a64_hex(canonical()); }

}  // namespace hcs
