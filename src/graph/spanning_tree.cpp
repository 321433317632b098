#include "graph/spanning_tree.hpp"

#include <algorithm>
#include <deque>

#include "graph/traversal.hpp"
#include "util/assert.hpp"

namespace hcs::graph {

SpanningTree::SpanningTree(Vertex root, std::vector<Vertex> parent)
    : root_(root), parent_(std::move(parent)) {
  const std::size_t n = parent_.size();
  HCS_EXPECTS(root_ < n);
  HCS_EXPECTS(parent_[root_] == root_);

  children_.resize(n);
  for (Vertex v = 0; v < n; ++v) {
    HCS_EXPECTS(parent_[v] < n);
    if (v != root_) children_[parent_[v]].push_back(v);
  }

  // Compute depths iteratively from the root; this also validates that the
  // parent pointers form a single tree (every node reached exactly once).
  depth_.assign(n, 0);
  subtree_size_.assign(n, 1);
  std::vector<Vertex> order;
  order.reserve(n);
  std::deque<Vertex> queue{root_};
  std::vector<bool> seen(n, false);
  seen[root_] = true;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (Vertex c : children_[u]) {
      HCS_ASSERT(!seen[c] && "parent pointers contain a cycle");
      seen[c] = true;
      depth_[c] = depth_[u] + 1;
      queue.push_back(c);
    }
  }
  HCS_ASSERT(order.size() == n && "parent pointers do not form one tree");

  // Subtree sizes: accumulate children into parents in reverse BFS order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it != root_) subtree_size_[parent_[*it]] += subtree_size_[*it];
  }
}

Vertex SpanningTree::parent(Vertex v) const {
  HCS_EXPECTS(v < parent_.size());
  return parent_[v];
}

const std::vector<Vertex>& SpanningTree::children(Vertex v) const {
  HCS_EXPECTS(v < children_.size());
  return children_[v];
}

bool SpanningTree::is_leaf(Vertex v) const { return children(v).empty(); }

std::uint32_t SpanningTree::depth(Vertex v) const {
  HCS_EXPECTS(v < depth_.size());
  return depth_[v];
}

std::size_t SpanningTree::subtree_size(Vertex v) const {
  HCS_EXPECTS(v < subtree_size_.size());
  return subtree_size_[v];
}

std::uint32_t SpanningTree::height() const {
  return *std::max_element(depth_.begin(), depth_.end());
}

std::vector<Vertex> SpanningTree::preorder() const {
  std::vector<Vertex> order;
  order.reserve(size());
  std::vector<Vertex> stack{root_};
  while (!stack.empty()) {
    const Vertex u = stack.back();
    stack.pop_back();
    order.push_back(u);
    // Push children in reverse so the first child is visited first.
    const auto& cs = children_[u];
    for (auto it = cs.rbegin(); it != cs.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

std::vector<Vertex> SpanningTree::path_to_root(Vertex v) const {
  HCS_EXPECTS(v < parent_.size());
  std::vector<Vertex> path{v};
  while (v != root_) {
    v = parent_[v];
    path.push_back(v);
  }
  return path;
}

std::size_t SpanningTree::leaf_count() const {
  std::size_t count = 0;
  for (const auto& cs : children_) {
    if (cs.empty()) ++count;
  }
  return count;
}

SpanningTree bfs_spanning_tree(const Graph& g, Vertex root) {
  HCS_EXPECTS(root < g.num_nodes());
  std::vector<Vertex> parent(g.num_nodes(),
                             static_cast<Vertex>(g.num_nodes()));
  parent[root] = root;
  std::deque<Vertex> queue{root};
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for_each_neighbor(g, u, [&](Vertex w) {
      if (parent[w] == g.num_nodes()) {
        parent[w] = u;
        queue.push_back(w);
      }
    });
  }
  for (Vertex v = 0; v < g.num_nodes(); ++v) {
    HCS_ASSERT(parent[v] < g.num_nodes() &&
               "bfs_spanning_tree requires a connected graph");
  }
  return SpanningTree(root, std::move(parent));
}

}  // namespace hcs::graph
