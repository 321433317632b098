// Port-labelled undirected graphs.
//
// The paper's model (Section 2) is a network (G, lambda): at each node x
// there is a distinct label lambda_x(x, z) on each incident edge (x, z), and
// agents navigate by choosing a label, not a neighbour id. In the hypercube
// the label at both endpoints is the dimension -- the position of the bit in
// which the endpoints differ -- but the simulation substrate works for any
// port-labelled graph, so baselines and tests can run on trees, rings,
// grids, etc.
//
// Graph is immutable after construction: the simulator shares one Graph
// across many agents/threads, and immutability is what makes that sharing
// trivially safe (Core Guidelines CP.mess/CP.3: minimize shared writable
// data). make_hypercube builds H_d; GraphBuilder builds every other
// topology.

#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace hcs::graph {

/// Dense node index in a Graph: 0 .. num_nodes()-1.
using Vertex = std::uint32_t;

/// Edge label as seen from one endpoint (the paper's lambda_x(x, z)).
/// Labels must be distinct among the edges incident to a single node.
using PortLabel = std::uint32_t;

/// One incident edge as seen from a node: the label at this endpoint, the
/// neighbour it leads to, and the label of the same edge at the neighbour's
/// endpoint (what the agent sees after crossing).
struct HalfEdge {
  PortLabel label;
  Vertex to;
  PortLabel label_at_other_end;

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

class GraphBuilder;

/// Immutable port-labelled undirected graph.
///
/// A graph built by make_hypercube is H_d itself and stores only d
/// (hypercube_dim() != 0): node ids are the paper's d-bit strings, the
/// neighbour across port j (1-based) is `v ^ (1 << (j-1))`, the label is
/// identical at both endpoints, and node_name(v) is v's binary string.
/// Every adjacency query on it is bit arithmetic -- no memory traffic --
/// which matters because the contracts in the simulation hot path
/// (per-move adjacency checks, the visibility rule's neighbour scans,
/// recontamination floods) run in every build type. Every other graph
/// stores its adjacency in compressed form. for_each_neighbor,
/// any_neighbor and for_each_half_edge list a node's neighbours in label
/// order for both kinds.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return total_degree() / 2; }

  [[nodiscard]] std::size_t degree(Vertex v) const;

  /// The half-edge at v with the given label, if any (O(1) for hypercubes,
  /// binary search otherwise).
  [[nodiscard]] std::optional<HalfEdge> edge_with_label(Vertex v,
                                                        PortLabel label) const;

  /// The neighbour reached from v via `label`; aborts if no such port.
  /// Inline: the hypercube case is two bit ops and sits inside the
  /// per-move validation of the simulation hot path.
  [[nodiscard]] Vertex neighbor_via(Vertex v, PortLabel label) const {
    if (hc_dim_ != 0) {
      HCS_EXPECTS(v < num_nodes());
      HCS_EXPECTS(label >= 1 && label <= hc_dim_);
      return static_cast<Vertex>(v ^ (Vertex{1} << (label - 1)));
    }
    return neighbor_via_generic(v, label);
  }

  /// True iff (u, v) is an edge (O(1) for hypercubes, linear in degree(u)
  /// otherwise). Inline for the same reason as neighbor_via: the
  /// visibility rule's status() contract checks it per neighbour per step.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    if (hc_dim_ != 0) {
      HCS_EXPECTS(u < num_nodes() && v < num_nodes());
      // Power-of-two test spelled as ALU ops: std::has_single_bit lowers
      // to a libgcc __popcountdi2 call on baseline x86-64, and this check
      // runs per neighbour probe in the visibility rule.
      const Vertex diff = u ^ v;
      return diff != 0 && (diff & (diff - 1)) == 0;
    }
    return has_edge_generic(u, v);
  }

  /// The label at u of edge (u, v); aborts if (u, v) is not an edge.
  [[nodiscard]] PortLabel label_of_edge(Vertex u, Vertex v) const;

  /// Human-readable node name: the d-bit string for hypercubes, the
  /// builder's name (empty if none was set) otherwise.
  [[nodiscard]] std::string node_name(Vertex v) const;

  /// Total degree summed over nodes (== 2 * num_edges()).
  [[nodiscard]] std::size_t total_degree() const {
    return hc_dim_ != 0 ? num_nodes_ * hc_dim_ : half_edges_.size();
  }

  /// Non-zero iff this graph is the hypercube H_d built by make_hypercube;
  /// the value is its dimension d.
  [[nodiscard]] unsigned hypercube_dim() const { return hc_dim_; }

  /// For H_d, the same graph in compressed form (label j at both ends, in
  /// label order, binary-string names), served exclusively through the
  /// generic paths; any other graph unchanged. The reference the
  /// differential suites compare the bit-arithmetic paths against.
  [[nodiscard]] Graph without_topology_hint() const;

 private:
  friend class GraphBuilder;
  friend Graph make_hypercube(unsigned d);
  template <typename Fn>
  friend void for_each_neighbor(const Graph& g, Vertex v, Fn&& fn);
  template <typename Fn>
  friend bool any_neighbor(const Graph& g, Vertex v, Fn&& fn);
  template <typename Fn>
  friend void for_each_half_edge(const Graph& g, Vertex v, Fn&& fn);

  /// Incident edges of v, sorted by label (compressed graphs only).
  [[nodiscard]] std::span<const HalfEdge> neighbors(Vertex v) const;
  [[nodiscard]] Vertex neighbor_via_generic(Vertex v, PortLabel label) const;
  [[nodiscard]] bool has_edge_generic(Vertex u, Vertex v) const;

  std::size_t num_nodes_ = 0;
  std::vector<std::size_t> offsets_;   // size num_nodes()+1
  std::vector<HalfEdge> half_edges_;   // grouped by node, sorted by label
  std::vector<std::string> names_;     // may be empty
  unsigned hc_dim_ = 0;                // 0 = no implicit topology
};

/// Visits the neighbours of v in port-label order, invoking fn(Vertex).
/// Dispatches to the implicit xor loop for hypercubes (label j leads to
/// v ^ (1 << (j-1)), so ascending j matches the label-sorted span order)
/// and to the adjacency span otherwise.
template <typename Fn>
void for_each_neighbor(const Graph& g, Vertex v, Fn&& fn) {
  if (const unsigned d = g.hypercube_dim(); d != 0) {
    for (unsigned j = 0; j < d; ++j) fn(static_cast<Vertex>(v ^ (Vertex{1} << j)));
  } else {
    for (const HalfEdge& he : g.neighbors(v)) fn(he.to);
  }
}

/// True iff fn(neighbour) returns true for some neighbour of v; stops at
/// the first hit. Same visit order as for_each_neighbor.
template <typename Fn>
bool any_neighbor(const Graph& g, Vertex v, Fn&& fn) {
  if (const unsigned d = g.hypercube_dim(); d != 0) {
    for (unsigned j = 0; j < d; ++j) {
      if (fn(static_cast<Vertex>(v ^ (Vertex{1} << j)))) return true;
    }
    return false;
  }
  for (const HalfEdge& he : g.neighbors(v)) {
    if (fn(he.to)) return true;
  }
  return false;
}

/// Visits the incident edges of v in port-label order, invoking
/// fn(const HalfEdge&). Same visit order as for_each_neighbor.
template <typename Fn>
void for_each_half_edge(const Graph& g, Vertex v, Fn&& fn) {
  if (const unsigned d = g.hypercube_dim(); d != 0) {
    HCS_EXPECTS(v < g.num_nodes());
    for (PortLabel j = 1; j <= d; ++j) {
      fn(HalfEdge{j, static_cast<Vertex>(v ^ (Vertex{1} << (j - 1))), j});
    }
  } else {
    for (const HalfEdge& he : g.neighbors(v)) fn(he);
  }
}

/// Mutable edge accumulator; finalize() produces an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  /// Adds undirected edge (u, v) with endpoint labels. Aborts on self-loop,
  /// duplicate edge, or duplicate label at an endpoint (checked in
  /// finalize()).
  void add_edge(Vertex u, Vertex v, PortLabel label_at_u, PortLabel label_at_v);

  /// Adds an edge labelled with the current degree at each endpoint -- the
  /// conventional "ports are 0..deg-1" numbering.
  void add_edge_auto_ports(Vertex u, Vertex v);

  /// Optional display name for a node.
  void set_node_name(Vertex v, std::string name);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Validates labels and produces the immutable Graph. The builder is left
  /// empty afterwards.
  [[nodiscard]] Graph finalize();

 private:
  struct PendingEdge {
    Vertex u, v;
    PortLabel label_u, label_v;
  };

  std::size_t num_nodes_;
  std::vector<PendingEdge> edges_;
  std::vector<std::size_t> degrees_;
  std::vector<std::string> names_;
};

}  // namespace hcs::graph
