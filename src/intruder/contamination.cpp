#include "intruder/contamination.hpp"

#include <deque>

#include "util/assert.hpp"

namespace hcs::intruder {

std::vector<bool> contamination_closure(const graph::Graph& g,
                                        const std::vector<bool>& guarded,
                                        const std::vector<bool>& contaminated) {
  const std::size_t n = g.num_nodes();
  HCS_EXPECTS(guarded.size() == n && contaminated.size() == n);
  std::vector<bool> next(n, false);
  std::deque<graph::Vertex> queue;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (contaminated[v] && !guarded[v]) {
      next[v] = true;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const graph::Vertex u = queue.front();
    queue.pop_front();
    graph::for_each_neighbor(g, u, [&](graph::Vertex w) {
      if (!guarded[w] && !next[w]) {
        next[w] = true;
        queue.push_back(w);
      }
    });
  }
  return next;
}

std::vector<bool> initial_contamination(const graph::Graph& g,
                                        graph::Vertex homebase) {
  HCS_EXPECTS(homebase < g.num_nodes());
  std::vector<bool> contaminated(g.num_nodes(), true);
  contaminated[homebase] = false;
  return contaminated;
}

bool none_contaminated(const std::vector<bool>& contaminated) {
  for (bool c : contaminated) {
    if (c) return false;
  }
  return true;
}

std::size_t contaminated_count(const std::vector<bool>& contaminated) {
  std::size_t count = 0;
  for (bool c : contaminated) count += c ? 1 : 0;
  return count;
}

std::vector<bool> required_frontier_guards(
    const graph::Graph& g, const std::vector<bool>& contaminated) {
  const std::size_t n = g.num_nodes();
  HCS_EXPECTS(contaminated.size() == n);
  std::vector<bool> frontier(n, false);
  for (graph::Vertex v = 0; v < n; ++v) {
    if (contaminated[v]) continue;
    frontier[v] = graph::any_neighbor(
        g, v, [&](graph::Vertex w) { return contaminated[w]; });
  }
  return frontier;
}

}  // namespace hcs::intruder
