#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/builders.hpp"
#include "util/bitops.hpp"

namespace hcs::graph {
namespace {

Graph triangle_with_labels() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 10, 20);
  b.add_edge(1, 2, 21, 30);
  b.add_edge(2, 0, 31, 11);
  b.set_node_name(0, "zero");
  return b.finalize();
}

TEST(Graph, BasicCounts) {
  const Graph g = triangle_with_labels();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.total_degree(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, NeighborsSortedByLabel) {
  const Graph g = triangle_with_labels();
  std::vector<HalfEdge> n0;
  for_each_half_edge(g, 0, [&](const HalfEdge& he) { n0.push_back(he); });
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0].label, 10u);
  EXPECT_EQ(n0[0].to, 1u);
  EXPECT_EQ(n0[0].label_at_other_end, 20u);
  EXPECT_EQ(n0[1].label, 11u);
  EXPECT_EQ(n0[1].to, 2u);
}

TEST(Graph, EdgeWithLabelLookup) {
  const Graph g = triangle_with_labels();
  const auto he = g.edge_with_label(1, 21);
  ASSERT_TRUE(he.has_value());
  EXPECT_EQ(he->to, 2u);
  EXPECT_FALSE(g.edge_with_label(1, 99).has_value());
  EXPECT_EQ(g.neighbor_via(2, 31), 0u);
}

TEST(Graph, HasEdgeAndLabelOfEdge) {
  const Graph g = triangle_with_labels();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.label_of_edge(0, 1), 10u);
  EXPECT_EQ(g.label_of_edge(1, 0), 20u);
}

TEST(Graph, NodeNames) {
  const Graph g = triangle_with_labels();
  EXPECT_EQ(g.node_name(0), "zero");
  EXPECT_EQ(g.node_name(1), "");
}

TEST(Graph, EmptyAndEdgelessGraphs) {
  GraphBuilder b(4);
  const Graph g = b.finalize();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_FALSE(any_neighbor(g, 2, [](Vertex) { return true; }));

  const Graph empty;
  EXPECT_EQ(empty.num_nodes(), 0u);
}

TEST(Graph, AutoPortsNumberSequentially) {
  GraphBuilder b(3);
  b.add_edge_auto_ports(0, 1);  // port 0 at both
  b.add_edge_auto_ports(0, 2);  // port 1 at 0, port 0 at 2
  const Graph g = b.finalize();
  EXPECT_EQ(g.neighbor_via(0, 0), 1u);
  EXPECT_EQ(g.neighbor_via(0, 1), 2u);
  EXPECT_EQ(g.neighbor_via(2, 0), 0u);
}

TEST(Graph, ImplicitHypercubeMatchesExplicitAdjacency) {
  // make_hypercube stores only d; without_topology_hint() materializes the
  // same cube as compressed adjacency. Every query must agree.
  for (unsigned d = 1; d <= 10; ++d) {
    const Graph implicit = make_hypercube(d);
    const Graph csr = implicit.without_topology_hint();
    ASSERT_EQ(implicit.hypercube_dim(), d);
    ASSERT_EQ(csr.hypercube_dim(), 0u);
    ASSERT_EQ(implicit.num_nodes(), std::size_t{1} << d);
    ASSERT_EQ(csr.num_nodes(), implicit.num_nodes());
    EXPECT_EQ(implicit.num_edges(), csr.num_edges());
    EXPECT_EQ(implicit.total_degree(), csr.total_degree());
    const auto n = static_cast<Vertex>(implicit.num_nodes());
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(implicit.degree(v), csr.degree(v));
      std::vector<HalfEdge> a;
      std::vector<HalfEdge> b;
      for_each_half_edge(implicit, v,
                         [&](const HalfEdge& he) { a.push_back(he); });
      for_each_half_edge(csr, v, [&](const HalfEdge& he) { b.push_back(he); });
      ASSERT_EQ(a, b) << "d=" << d << " v=" << v;
      // Labels 0 and d + 1 are no port at all.
      for (PortLabel j = 0; j <= d + 1; ++j) {
        EXPECT_EQ(implicit.edge_with_label(v, j), csr.edge_with_label(v, j))
            << "d=" << d << " v=" << v << " j=" << j;
      }
      for (PortLabel j = 1; j <= d; ++j) {
        const Vertex w = implicit.neighbor_via(v, j);
        EXPECT_EQ(w, csr.neighbor_via(v, j));
        EXPECT_EQ(implicit.label_of_edge(v, w), csr.label_of_edge(v, w));
      }
      EXPECT_EQ(implicit.node_name(v), to_binary_string(v, d));
      EXPECT_EQ(csr.node_name(v), implicit.node_name(v));
    }
    if (d <= 6) {
      for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = 0; v < n; ++v) {
          EXPECT_EQ(implicit.has_edge(u, v), csr.has_edge(u, v))
              << "d=" << d << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

TEST(GraphDeath, ContractViolations) {
  GraphBuilder self(2);
  EXPECT_DEATH(self.add_edge(1, 1, 0, 1), "self-loops");

  GraphBuilder dup(3);
  dup.add_edge(0, 1, 7, 0);
  dup.add_edge(0, 2, 7, 0);  // duplicate label 7 at node 0
  EXPECT_DEATH((void)dup.finalize(), "duplicate port label");

  GraphBuilder parallel(2);
  parallel.add_edge(0, 1, 0, 0);
  parallel.add_edge(0, 1, 1, 1);
  EXPECT_DEATH((void)parallel.finalize(), "parallel edges");

  const Graph g = triangle_with_labels();
  EXPECT_DEATH((void)g.neighbor_via(0, 999), "precondition");
  EXPECT_DEATH((void)g.degree(17), "precondition");
}

}  // namespace
}  // namespace hcs::graph
