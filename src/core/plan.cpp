#include "core/plan.hpp"

#include <algorithm>

#include "graph/traversal.hpp"
#include "intruder/contamination.hpp"
#include "util/assert.hpp"
#include "util/strfmt.hpp"

namespace hcs::core {

std::span<const PlanMove> SearchPlan::round(std::uint64_t i) const {
  HCS_EXPECTS(i < num_rounds());
  return {moves_.data() + offsets_[i], moves_.data() + offsets_[i + 1]};
}

std::uint64_t SearchPlan::moves_of_role(const std::string& role) const {
  std::uint64_t total = 0;
  for (const PlanMove& m : moves_) {
    if (m.agent < roles.size() && roles[m.agent] == role) ++total;
  }
  return total;
}

void SearchPlan::push_move(PlanAgent agent, graph::Vertex from,
                           graph::Vertex to) {
  begin_round();
  add_to_round(agent, from, to);
}

void SearchPlan::begin_round() { offsets_.push_back(moves_.size()); }

void SearchPlan::add_to_round(PlanAgent agent, graph::Vertex from,
                              graph::Vertex to) {
  HCS_EXPECTS(offsets_.size() >= 2 && "begin_round() before add_to_round()");
  moves_.push_back({agent, from, to});
  offsets_.back() = moves_.size();
}

void SearchPlan::reserve(std::uint64_t moves) { moves_.reserve(moves); }

namespace {

/// Incremental worst-case-intruder state for the replay.
struct ReplayState {
  const graph::Graph* g;
  std::vector<std::uint32_t> guards;  // agents per node
  std::vector<bool> contaminated;
  std::vector<bool> visited;
  std::uint64_t contaminated_count;

  explicit ReplayState(const graph::Graph& graph, graph::Vertex homebase)
      : g(&graph),
        guards(graph.num_nodes(), 0),
        contaminated(intruder::initial_contamination(graph, homebase)),
        visited(graph.num_nodes(), false),
        contaminated_count(graph.num_nodes() - 1) {
    visited[homebase] = true;
  }

  /// Floods contamination from v (just vacated and exposed).
  void flood_from(graph::Vertex v) {
    contaminated[v] = true;
    ++contaminated_count;
    std::vector<graph::Vertex> stack{v};
    while (!stack.empty()) {
      const graph::Vertex u = stack.back();
      stack.pop_back();
      graph::for_each_neighbor(*g, u, [&](graph::Vertex w) {
        if (guards[w] == 0 && !contaminated[w]) {
          contaminated[w] = true;
          ++contaminated_count;
          stack.push_back(w);
        }
      });
    }
  }
};

}  // namespace

PlanVerification verify_plan(const graph::Graph& g, const SearchPlan& plan,
                             const VerifyOptions& opts) {
  PlanVerification result;
  const std::size_t n = g.num_nodes();
  HCS_EXPECTS(plan.homebase < n);

  ReplayState state(g, plan.homebase);
  state.guards[plan.homebase] = plan.num_agents;

  std::vector<graph::Vertex> agent_at(plan.num_agents, plan.homebase);
  std::vector<bool> ever_deployed(plan.num_agents, false);
  std::uint64_t deployed_total = 0;
  std::uint64_t guarded_nodes = plan.num_agents > 0 ? 1 : 0;

  const auto fail = [&result](bool PlanVerification::* flag,
                              std::string message) {
    result.*flag = false;
    if (result.error.empty()) result.error = std::move(message);
  };

  std::vector<graph::Vertex> vacated;
  for (std::uint64_t r = 0; r < plan.num_rounds(); ++r) {
    const auto round = plan.round(r);
    // Validate all moves of the round against the pre-round configuration
    // (the moves are concurrent).
    for (const PlanMove& m : round) {
      if (m.agent >= plan.num_agents) {
        fail(&PlanVerification::valid,
             str_cat("round ", r, ": agent ", m.agent, " out of range"));
        return result;
      }
      if (agent_at[m.agent] != m.from) {
        fail(&PlanVerification::valid,
             str_cat("round ", r, ": agent ", m.agent, " is at ",
                     agent_at[m.agent], ", not ", m.from));
        return result;
      }
      if (!g.has_edge(m.from, m.to)) {
        fail(&PlanVerification::valid, str_cat("round ", r, ": (", m.from,
                                               ", ", m.to,
                                               ") is not an edge"));
        return result;
      }
      if (!ever_deployed[m.agent]) {
        ever_deployed[m.agent] = true;
        ++deployed_total;
      }
    }

    // Arrivals first (atomic hand-over), then departures.
    for (const PlanMove& m : round) {
      agent_at[m.agent] = m.to;
      if (state.guards[m.to]++ == 0) ++guarded_nodes;
      state.visited[m.to] = true;
      if (state.contaminated[m.to]) {
        state.contaminated[m.to] = false;
        --state.contaminated_count;
      }
    }
    vacated.clear();
    for (const PlanMove& m : round) {
      HCS_ASSERT(state.guards[m.from] > 0);
      if (--state.guards[m.from] == 0) {
        --guarded_nodes;
        vacated.push_back(m.from);
      }
    }

    // Worst-case intruder: a vacated node with a contaminated neighbour is
    // recontaminated, and the contamination floods unguarded nodes.
    for (graph::Vertex v : vacated) {
      if (state.guards[v] > 0 || state.contaminated[v]) continue;
      if (graph::any_neighbor(g, v, [&](graph::Vertex w) {
            return state.contaminated[w];
          })) {
        state.flood_from(v);
        fail(&PlanVerification::monotone,
             str_cat("round ", r, ": node ", v,
                     " vacated while exposed to contamination"));
      }
    }

    result.peak_deployed = std::max(result.peak_deployed, deployed_total);
    result.peak_guarded_nodes =
        std::max(result.peak_guarded_nodes, guarded_nodes);

    // Contiguity of the clean (non-contaminated) region.
    const bool last_round = r + 1 == plan.num_rounds();
    if (last_round || (opts.check_contiguity_every != 0 &&
                       (r + 1) % opts.check_contiguity_every == 0)) {
      std::vector<bool> clean_region(n);
      for (std::size_t v = 0; v < n; ++v) {
        clean_region[v] = !state.contaminated[v];
      }
      if (!graph::is_connected_subset(g, clean_region)) {
        fail(&PlanVerification::contiguous,
             str_cat("round ", r, ": clean region disconnected"));
      }
    }
  }

  if (state.contaminated_count != 0) {
    fail(&PlanVerification::complete,
         str_cat("plan ends with ", state.contaminated_count,
                 " contaminated nodes"));
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!state.visited[v]) {
      fail(&PlanVerification::complete,
           str_cat("node ", v, " was never visited"));
      break;
    }
  }
  return result;
}

}  // namespace hcs::core
