// Algorithm 2 -- CLEAN WITH VISIBILITY (Section 4.2): fully local,
// coordinator-free cleaning.
//
// Rule for the agents on a node x of type T(k):
//   * wait until 2^(k-1) agents are on x AND every *smaller* neighbour of
//     x is clean or guarded (the visibility assumption lets agents see
//     neighbour states);
//   * then send 1 agent to the T(0) child and 2^(i-1) agents to each T(i)
//     child; leaves terminate.
//
// Costs (Theorems 5, 7, 8): n/2 agents, log n ideal time, (n/4)(log n + 1)
// moves.
//
// Two executable forms:
//   1. plan_clean_visibility(d): wave-per-round SearchPlan (d rounds);
//   2. spawn_visibility_team(engine, d): agents evaluating the local rule
//      on the asynchronous event engine (requires
//      Engine::Config::visibility = true and the network's default
//      kAtomicArrival move semantics).
//
// Coordination state per node: the "claimed" whiteboard register (which
// agent takes which child -- "which agent go to which node is determined by
// accessing the whiteboard", Section 4.2) plus a "released" latch recording
// that the move condition was observed; both are O(log n) bits.

#pragma once

#include <cstdint>

#include "core/formulas.hpp"
#include "core/plan.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace hcs::core {

struct VisibilityStats {
  std::uint64_t team_size = 0;  ///< n/2 (Theorem 5)
  std::uint64_t moves = 0;      ///< (n/4)(log n + 1) (Theorem 8)
  std::uint64_t rounds = 0;     ///< d == log n (Theorem 7)
};

/// Destination of the `claim`-th agent (0-based) released from node x:
/// children in increasing dimension order j = m(x)+1 .. d receive
/// consecutive claim ranges of size 2^(type-1) (1 for the T(0) child).
[[nodiscard]] NodeId visibility_claim_destination(unsigned d, NodeId x,
                                                  std::uint64_t claim);

/// Agents that node x must accumulate before releasing: 2^(k-1) for type
/// T(k >= 1), 1 for a leaf. Inline: the local rule evaluates it on every
/// wake-up, so the bit arithmetic belongs in the caller's loop.
[[nodiscard]] inline std::uint64_t visibility_required_agents(unsigned d,
                                                              NodeId x) {
  const BitPos m = msb_position(x);
  HCS_EXPECTS(d >= m);
  return visibility_node_demand(d - m);
}

/// The wave-synchronous schedule: round t moves the agents off every node
/// of class C_t. Exactly d rounds.
[[nodiscard]] SearchPlan plan_clean_visibility(unsigned d,
                                               VisibilityStats* stats = nullptr);

/// Spawns the n/2 identical agents at the homebase. The engine must have
/// visibility enabled; the network must be H_d with homebase 0.
std::uint64_t spawn_visibility_team(sim::Engine& engine, unsigned d);

}  // namespace hcs::core
