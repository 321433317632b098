// Shared simulator vocabulary.

#pragma once

#include <cstdint>
#include <limits>

#include "graph/graph.hpp"

namespace hcs::sim {

/// Simulated time. The paper measures *ideal time*: one unit per edge
/// traversal (footnote 1). Random/adversarial delay models produce
/// fractional times, so time is a double.
using SimTime = double;

inline constexpr SimTime kTimeZero = 0.0;

/// Dense agent identifier assigned by the engine at spawn.
using AgentId = std::uint32_t;

inline constexpr AgentId kNoAgent = std::numeric_limits<AgentId>::max();

/// Node status in the node-search sense (Section 2 of the paper).
enum class NodeStatus : std::uint8_t {
  kContaminated,  ///< the intruder may be here
  kClean,         ///< an agent passed by; no agent currently present
  kGuarded,       ///< at least one agent is currently on the node
};

[[nodiscard]] constexpr const char* to_string(NodeStatus s) {
  switch (s) {
    case NodeStatus::kContaminated: return "contaminated";
    case NodeStatus::kClean: return "clean";
    case NodeStatus::kGuarded: return "guarded";
  }
  return "?";
}

/// Why a run was cut off before reaching a clean quiescent end. Replaces
/// the old boolean `aborted` flag so sweep output can distinguish a
/// livelocked protocol from a fault the recovery layer could not repair.
enum class AbortReason : std::uint8_t {
  kNone,                ///< ran to quiescence
  kStepCap,             ///< hit the max_agent_steps guard
  kLivelock,            ///< agents kept stepping without making progress
  kFaultUnrecoverable,  ///< recovery retry budget exhausted, still dirty
};

[[nodiscard]] constexpr const char* to_string(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kStepCap: return "step-cap";
    case AbortReason::kLivelock: return "livelock";
    case AbortReason::kFaultUnrecoverable: return "fault-unrecoverable";
  }
  return "?";
}

}  // namespace hcs::sim
