#include "sim/macro_engine.hpp"

#include <memory>

#include "sim/agent.hpp"

namespace hcs::sim {

namespace {

const std::string kDefaultRole = "agent";

/// The event-engine form of a macro program: a time-driven agent that
/// replays its program slice. No whiteboard access, no waits, no
/// visibility -- its engine interactions are exactly the ones the bitplane
/// fast path reproduces natively (idle timers, moves, termination).
class ScheduleAgent final : public Agent {
 public:
  ScheduleAgent(const MacroProgram& program, std::size_t agent)
      : prog_(&program),
        cur_(program.agent_offsets[agent]),
        end_(program.agent_offsets[agent + 1]),
        role_(program.role(agent)) {}

  std::string role() const override { return role_; }

  Action step(AgentContext& ctx) override {
    if (cur_ == end_) return Action::finished();
    const MacroProgram::Step& s = prog_->steps[cur_];
    const auto dep = static_cast<SimTime>(s.time);
    if (ctx.now() < dep) return Action::idle(dep - ctx.now());
    ++cur_;
    return Action::move_to(s.to);
  }

 private:
  const MacroProgram* prog_;
  std::uint32_t cur_;
  std::uint32_t end_;
  std::string role_;
};

}  // namespace

const std::string& MacroProgram::role(std::size_t agent) const {
  return agent < roles.size() && !roles[agent].empty() ? roles[agent]
                                                       : kDefaultRole;
}

std::uint64_t spawn_macro_team(Engine& engine, const MacroProgram& program) {
  for (std::size_t i = 0; i < program.num_agents(); ++i) {
    engine.spawn(std::make_unique<ScheduleAgent>(program, i),
                 program.homebase);
  }
  return program.num_agents();
}

}  // namespace hcs::sim
