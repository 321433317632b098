// sim::MacroProgram -- declarative sweep programs and their event-engine
// form.
//
// A MacroProgram is a compiled, time-driven move schedule: every agent's
// traversals carry explicit departure ticks (dense round indices under the
// unit delay model), so running one needs no whiteboards, no wake lists
// and no per-step protocol logic. spawn_macro_team() spawns one
// ScheduleAgent per program agent into a regular discrete-event Engine:
// the schedule executed through the full event machinery, byte-for-byte
// traceable. sim::ShardedMacroEngine (sim/shard.hpp) replays the same
// program over packed bitplanes and runs this event form whenever its
// fast path does not apply, so the two can never disagree.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace hcs::sim {

/// A compiled time-driven schedule: per-agent traversal lists with
/// explicit departure ticks. Produced from a SearchPlan by
/// core::compile_macro_program (empty rounds dropped, departure tick =
/// dense round index); every agent starts at the homebase.
struct MacroProgram {
  struct Step {
    std::uint32_t time = 0;  ///< departure tick (arrival at time + 1)
    graph::Vertex from = 0;
    graph::Vertex to = 0;
  };

  /// Steps grouped per agent, time-ascending within each agent.
  std::vector<Step> steps;
  /// Agent i owns steps [agent_offsets[i], agent_offsets[i+1]).
  std::vector<std::uint32_t> agent_offsets{0};
  /// Role per agent ("synchronizer", "agent", ...), for per-role metrics.
  std::vector<std::string> roles;
  graph::Vertex homebase = 0;
  /// Number of dense ticks; every departure time is < horizon.
  std::uint32_t horizon = 0;

  [[nodiscard]] std::size_t num_agents() const {
    return agent_offsets.empty() ? 0 : agent_offsets.size() - 1;
  }
  [[nodiscard]] std::uint64_t total_moves() const { return steps.size(); }
  [[nodiscard]] const std::string& role(std::size_t agent) const;
};

/// Spawns one time-driven ScheduleAgent per program agent into `engine`
/// (at the program's homebase). The caller runs the engine to quiescence.
/// Returns the number of agents spawned. This is the event-engine oracle
/// the macro differential suite compares the bitplane fast path against.
std::uint64_t spawn_macro_team(Engine& engine, const MacroProgram& program);

}  // namespace hcs::sim
