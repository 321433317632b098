#include "core/clean_visibility.hpp"

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/formulas.hpp"
#include "hypercube/broadcast_tree.hpp"
#include "hypercube/hypercube.hpp"
#include "util/assert.hpp"

namespace hcs::core {

namespace {

// Interned once at startup: the per-wake rule evaluation below runs with
// dense integer keys only.
const sim::WbKey kReleased = sim::wb_key("released");
const sim::WbKey kClaimed = sim::wb_key("claimed");

/// One atomic evaluation of the Section 4.2 rule for an agent at node x.
sim::Action visibility_decide(unsigned d, sim::AgentContext& ctx) {
  const auto x = static_cast<NodeId>(ctx.here());
  const BitPos m = msb_position(x);
  const unsigned k = d - m;  // x is of type T(k)
  if (k == 0) return sim::Action::finished();

  if (ctx.wb_get(kReleased) == 0) {
    const auto need =
        static_cast<std::int64_t>(visibility_required_agents(d, x));
    if (static_cast<std::int64_t>(ctx.agents_here()) < need) {
      return sim::Action::wait();
    }
    // Visibility: every smaller neighbour must be clean or guarded.
    for (BitPos j = 1; j <= m; ++j) {
      const auto y = static_cast<graph::Vertex>(flip_bit(x, j));
      if (ctx.status(y) == sim::NodeStatus::kContaminated) {
        return sim::Action::wait();
      }
    }
    // Latch the decision: once the condition has been observed, agents may
    // stream out even though departures shrink the local count again.
    ctx.wb_set(kReleased, 1);
  }

  const std::int64_t raw_claim = ctx.wb_add(kClaimed, 1) - 1;
  // A valid claim indexes one of the node's outgoing complements; anything
  // else means the counter was damaged (fault-injected whiteboard loss or
  // corruption). Reset it and park: the run degrades to the recovery
  // layer's re-sweep instead of violating the claim-range precondition.
  if (raw_claim < 0 ||
      static_cast<std::uint64_t>(raw_claim) >=
          visibility_required_agents(d, x)) {
    ctx.wb_set(kClaimed, 0);
    return sim::Action::wait();
  }
  const auto claim = static_cast<std::uint64_t>(raw_claim);
  return sim::Action::move_to(
      static_cast<graph::Vertex>(visibility_claim_destination(d, x, claim)));
}

/// Engine-model agent: evaluates the rule on every wake-up.
class VisibilityAgent final : public sim::Agent {
 public:
  explicit VisibilityAgent(unsigned d) : d_(d) {}

  std::string role() const override { return "agent"; }

  sim::Action step(sim::AgentContext& ctx) override {
    // Release detection: the kReleased latch fires exactly once per node,
    // when its wave condition (full complement + clean smaller neighbours)
    // was first observed. Count it and mark the level's phase.
    const bool watch_release = ctx.obs_enabled() && ctx.wb_get(kReleased) == 0;
    const sim::Action action = visibility_decide(d_, ctx);
    if (watch_release && ctx.wb_get(kReleased) != 0) {
      const auto level =
          std::popcount(static_cast<std::uint64_t>(ctx.here()));
      ctx.obs_count("visibility.releases");
      ctx.obs_phase("clean_visibility", "level " + std::to_string(level));
    }
    return action;
  }

 private:
  unsigned d_;
};

}  // namespace

NodeId visibility_claim_destination(unsigned d, NodeId x,
                                    std::uint64_t claim) {
  const BitPos m = msb_position(x);
  HCS_EXPECTS(d > m && "leaves release no agents");
  // Children j = m+1 .. d have types T(d-j); child j takes the next
  // 2^(d-j-1) claims (1 for the leaf child j = d).
  std::uint64_t offset = 0;
  for (BitPos j = m + 1; j <= d; ++j) {
    const unsigned child_type = d - j;
    const std::uint64_t share = visibility_node_demand(child_type);
    if (claim < offset + share) return set_bit(x, j);
    offset += share;
  }
  HCS_EXPECTS(false && "claim exceeds the node's agent complement");
  return x;
}

SearchPlan plan_clean_visibility(unsigned d, VisibilityStats* stats) {
  HCS_EXPECTS(d >= 1 && d <= 24);
  const Hypercube cube(d);
  const std::uint64_t team = visibility_team_size(d);

  SearchPlan plan;
  plan.homebase = 0;
  plan.num_agents = static_cast<std::uint32_t>(team);
  plan.roles.assign(team, "agent");
  plan.reserve(visibility_moves(d));

  // Agents stacked per node; everyone starts at the root.
  std::vector<std::vector<PlanAgent>> occupants(cube.num_nodes());
  occupants[0].resize(team);
  for (std::uint64_t a = 0; a < team; ++a) {
    occupants[0][a] = static_cast<PlanAgent>(a);
  }

  // Wave t moves the agents off every node of class C_t (Theorem 7).
  for (BitPos t = 0; t < d; ++t) {
    plan.begin_round();
    for (NodeId x : cube.class_nodes(t)) {
      auto& here = occupants[x];
      HCS_ASSERT(here.size() == visibility_required_agents(d, x));
      std::uint64_t claim = 0;
      while (!here.empty()) {
        const PlanAgent a = here.back();
        here.pop_back();
        const NodeId dest = visibility_claim_destination(d, x, claim++);
        plan.add_to_round(a, static_cast<graph::Vertex>(x),
                          static_cast<graph::Vertex>(dest));
        occupants[dest].push_back(a);
      }
    }
  }

  if (stats) {
    stats->team_size = team;
    stats->moves = plan.total_moves();
    stats->rounds = plan.num_rounds();
  }
  return plan;
}

std::uint64_t spawn_visibility_team(sim::Engine& engine, unsigned d) {
  HCS_EXPECTS(engine.network().num_nodes() == (std::uint64_t{1} << d));
  HCS_EXPECTS(engine.network().homebase() == 0);
  HCS_EXPECTS(engine.config().visibility &&
              "Algorithm 2 requires the visibility model");
  const std::uint64_t team = visibility_team_size(d);
  for (std::uint64_t i = 0; i < team; ++i) {
    engine.spawn(std::make_unique<VisibilityAgent>(d),
                 engine.network().homebase());
  }
  return team;
}

}  // namespace hcs::core
