#include "graph/builders.hpp"

#include <gtest/gtest.h>

#include "graph/traversal.hpp"

namespace hcs::graph {
namespace {

TEST(Builders, HypercubeStructure) {
  for (unsigned d = 1; d <= 8; ++d) {
    const Graph g = make_hypercube(d);
    const std::size_t n = std::size_t{1} << d;
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.num_edges(), d * n / 2);
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(g.degree(v), d);
      // Edge labels are the 1-based differing-bit positions and agree at
      // both endpoints (the paper's lambda).
      for_each_half_edge(g, v, [&](const HalfEdge& he) {
        EXPECT_EQ(he.label, he.label_at_other_end);
        EXPECT_EQ(std::size_t{v} ^ he.to, std::size_t{1} << (he.label - 1));
      });
    }
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Builders, HypercubeNamesAreBinaryStrings) {
  const Graph g = make_hypercube(3);
  EXPECT_EQ(g.node_name(0), "000");
  EXPECT_EQ(g.node_name(5), "101");
  EXPECT_EQ(g.node_name(7), "111");
}

TEST(Builders, PathRingComplete) {
  const Graph p = make_path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_TRUE(is_tree(p));
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);

  const Graph r = make_ring(6);
  EXPECT_EQ(r.num_edges(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(r.degree(v), 2u);
  EXPECT_TRUE(is_connected(r));

  const Graph k = make_complete(5);
  EXPECT_EQ(k.num_edges(), 10u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(k.degree(v), 4u);
}

TEST(Builders, GridAndTorus) {
  const Graph grid = make_grid(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  EXPECT_EQ(grid.num_edges(), 3u * 3 + 4u * 2);  // 9 horizontal + 8 vertical
  EXPECT_EQ(grid.degree(0), 2u);                 // corner
  EXPECT_EQ(grid.degree(5), 4u);                 // interior
  EXPECT_TRUE(is_connected(grid));

  const Graph torus = make_torus(3, 4);
  EXPECT_EQ(torus.num_nodes(), 12u);
  EXPECT_EQ(torus.num_edges(), 24u);
  for (Vertex v = 0; v < 12; ++v) EXPECT_EQ(torus.degree(v), 4u);
}

TEST(Builders, CompleteKaryTree) {
  const Graph t = make_complete_kary_tree(3, 2);  // 1 + 3 + 9
  EXPECT_EQ(t.num_nodes(), 13u);
  EXPECT_TRUE(is_tree(t));
  EXPECT_EQ(t.degree(0), 3u);

  const Graph unary = make_complete_kary_tree(1, 4);
  EXPECT_EQ(unary.num_nodes(), 5u);
  EXPECT_TRUE(is_tree(unary));
}

TEST(Builders, BroadcastTreeGraphIsSpanningTree) {
  for (unsigned d = 1; d <= 8; ++d) {
    const Graph t = make_broadcast_tree_graph(d);
    EXPECT_EQ(t.num_nodes(), std::size_t{1} << d);
    EXPECT_TRUE(is_tree(t));
    // The root has degree d (its d bigger neighbours).
    EXPECT_EQ(t.degree(0), d);
  }
}

TEST(Builders, CubeConnectedCycles) {
  const unsigned d = 3;
  const Graph ccc = make_cube_connected_cycles(d);
  EXPECT_EQ(ccc.num_nodes(), (std::size_t{1} << d) * d);
  EXPECT_TRUE(is_connected(ccc));
  for (Vertex v = 0; v < ccc.num_nodes(); ++v) {
    EXPECT_EQ(ccc.degree(v), 3u) << "CCC(d>=3) is 3-regular, node " << v;
  }
}

TEST(Builders, Star) {
  const Graph s = make_star(7);
  EXPECT_TRUE(is_tree(s));
  EXPECT_EQ(s.degree(0), 6u);
  for (Vertex v = 1; v < 7; ++v) EXPECT_EQ(s.degree(v), 1u);
}

TEST(Builders, Butterfly) {
  const unsigned d = 3;
  const graph::Graph bf = make_butterfly(d);
  EXPECT_EQ(bf.num_nodes(), (d + 1) * 8u);
  EXPECT_EQ(bf.num_edges(), d * 8u * 2u);
  EXPECT_TRUE(is_connected(bf));
  // Boundary levels have degree 2, inner levels degree 4.
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(bf.degree(static_cast<Vertex>(w)), 2u);
    EXPECT_EQ(bf.degree(static_cast<Vertex>(d * 8 + w)), 2u);
    EXPECT_EQ(bf.degree(static_cast<Vertex>(8 + w)), 4u);
  }
}

TEST(Builders, Petersen) {
  const graph::Graph p = make_petersen();
  EXPECT_EQ(p.num_nodes(), 10u);
  EXPECT_EQ(p.num_edges(), 15u);
  EXPECT_TRUE(is_connected(p));
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(p.degree(v), 3u);
  // Girth 5: no triangles or 4-cycles through node 0 (spot check: none of
  // 0's neighbours are adjacent to each other).
  std::vector<Vertex> n0;
  for_each_neighbor(p, 0, [&](Vertex w) { n0.push_back(w); });
  for (const Vertex a : n0) {
    for (const Vertex b : n0) {
      if (a != b) {
        EXPECT_FALSE(p.has_edge(a, b));
      }
    }
  }
}

TEST(Builders, RandomConnectedIsConnected) {
  Rng rng(42);
  for (int round = 0; round < 10; ++round) {
    const Graph g = make_random_connected(20, 0.1, rng);
    EXPECT_EQ(g.num_nodes(), 20u);
    EXPECT_GE(g.num_edges(), 19u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Builders, RandomTreeIsTree) {
  Rng rng(7);
  for (std::size_t n : {1u, 2u, 3u, 10u, 40u}) {
    const Graph t = make_random_tree(n, rng);
    EXPECT_EQ(t.num_nodes(), n);
    EXPECT_TRUE(is_tree(t)) << "n=" << n;
  }
}

}  // namespace
}  // namespace hcs::graph
