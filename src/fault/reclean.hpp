// RecleanPlanner: minimal contiguous re-sweep of a recontaminated region.
//
// After faults (a crashed guard vacating its node, a stalled protocol that
// never finished), the network is left with a dirty region D: the
// contaminated nodes plus any clean nodes cut off from the homebase's
// clean component (the worst-case intruder owns everything the clean
// component cannot certify). Restarting the whole search would discard the
// surviving clean region; Dereniowski's "recontamination does help" line
// shows the cost difference is fundamental. Instead the planner computes a
// contiguous repair schedule that re-sweeps only D:
//
//  1. BFS from the homebase over the whole graph fixes one shortest-path
//     tree and a total target order (distance, then vertex id).
//  2. Targets are the dirty nodes plus the *stepping stones*: clean
//     frontier nodes (adjacent to D) that some repair walk must traverse.
//  3. One repair agent per target walks the tree path homebase -> target
//     and stays there (terminated agents keep guarding).
//
// Executed in target order, the schedule is monotone by construction:
// every interior node of a walk is either a clean node with no dirty
// neighbour (safe to vacate), or an earlier target already held by its
// repair agent. The walks are shortest paths, so the move count is minimal
// for this guard-and-hold shape; the planner trades extra standing agents
// for never exposing the surviving clean region.
//
// The planner is pure (graph + dirty mask in, walks out); the event
// engine executes the walks (sim/recovery.hpp) and re-plans if repair
// agents themselves crash.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace hcs::fault {

/// One repair walk: vertices from the homebase (front) to the target
/// (back), consecutive entries adjacent. A single-vertex walk guards the
/// homebase itself.
struct RecleanWalk {
  std::vector<graph::Vertex> path;
  /// True when the target is a dirty node (vs a clean stepping stone).
  bool target_dirty = false;

  [[nodiscard]] graph::Vertex target() const { return path.back(); }
  [[nodiscard]] std::uint64_t moves() const { return path.size() - 1; }
};

struct RecleanPlan {
  /// Walks in execution order; executing them sequentially (each walk
  /// fully before the next) never recontaminates a surviving clean node.
  std::vector<RecleanWalk> walks;
  std::uint64_t dirty_nodes = 0;      ///< |D|
  std::uint64_t frontier_guards = 0;  ///< stepping stones guarded
  std::uint64_t planned_moves = 0;    ///< sum of walk lengths

  [[nodiscard]] bool empty() const { return walks.empty(); }
};

/// Plans the re-sweep of the dirty region. `contaminated[v]` is the
/// network's current status; clean nodes unreachable from `homebase`
/// through non-contaminated nodes are treated as dirty too. Returns an
/// empty plan when nothing is contaminated.
[[nodiscard]] RecleanPlan plan_reclean(const graph::Graph& g,
                                       graph::Vertex homebase,
                                       const std::vector<bool>& contaminated);

}  // namespace hcs::fault
