#include "hypercube/hypercube.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/builders.hpp"
#include "util/binomial.hpp"

namespace hcs {
namespace {

TEST(Hypercube, CountsAndContainment) {
  for (unsigned d = 1; d <= 10; ++d) {
    const Hypercube cube(d);
    EXPECT_EQ(cube.dimension(), d);
    EXPECT_EQ(cube.num_nodes(), std::uint64_t{1} << d);
    EXPECT_EQ(cube.num_edges(), (std::uint64_t{d} << d) / 2);
    EXPECT_TRUE(cube.contains(cube.num_nodes() - 1));
    EXPECT_FALSE(cube.contains(cube.num_nodes()));
  }
}

TEST(Hypercube, AdjacencyIffOneBitDiffers) {
  const Hypercube cube(4);
  for (NodeId x = 0; x < 16; ++x) {
    for (NodeId y = 0; y < 16; ++y) {
      EXPECT_EQ(cube.adjacent(x, y), popcount(x ^ y) == 1);
    }
  }
}

TEST(Hypercube, EdgeLabelsAreSymmetricDimensions) {
  const Hypercube cube(5);
  for (NodeId x = 0; x < 32; ++x) {
    for (BitPos j = 1; j <= 5; ++j) {
      const NodeId y = cube.neighbor(x, j);
      EXPECT_EQ(cube.edge_label(x, y), j);
      EXPECT_EQ(cube.edge_label(y, x), j);
      EXPECT_EQ(cube.neighbor(y, j), x);
    }
  }
}

TEST(Hypercube, NeighborsListedInDimensionOrder) {
  const Hypercube cube(3);
  EXPECT_EQ(cube.neighbors(0b000),
            (std::vector<NodeId>{0b001, 0b010, 0b100}));
  EXPECT_EQ(cube.neighbors(0b101),
            (std::vector<NodeId>{0b100, 0b111, 0b001}));
}

TEST(Hypercube, DistanceIsHamming) {
  const Hypercube cube(6);
  EXPECT_EQ(cube.distance(0, 0b111111), 6u);
  EXPECT_EQ(cube.distance(0b1010, 0b0101), 4u);
  EXPECT_EQ(cube.distance(17, 17), 0u);
}

TEST(Hypercube, SmallerAndBiggerNeighborsPartitionByMsb) {
  const Hypercube cube(6);
  for (NodeId x = 0; x < 64; ++x) {
    const BitPos m = cube.msb(x);
    const auto smaller = cube.smaller_neighbors(x);
    const auto bigger = cube.bigger_neighbors(x);
    EXPECT_EQ(smaller.size(), m);
    EXPECT_EQ(bigger.size(), 6 - m);
    for (NodeId y : smaller) {
      EXPECT_LE(cube.edge_label(x, y), m);
    }
    for (NodeId y : bigger) {
      EXPECT_GT(cube.edge_label(x, y), m);
      EXPECT_GT(y, x);  // setting a higher bit always increases the id
    }
  }
}

TEST(Hypercube, LevelNodesAreSortedAndComplete) {
  const Hypercube cube(8);
  std::uint64_t total = 0;
  for (unsigned l = 0; l <= 8; ++l) {
    const auto nodes = cube.level_nodes(l);
    EXPECT_EQ(nodes.size(), binomial(8, l));
    EXPECT_EQ(nodes.size(), cube.level_size(l));
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    for (NodeId x : nodes) EXPECT_EQ(cube.level(x), l);
    total += nodes.size();
  }
  EXPECT_EQ(total, cube.num_nodes());
}

TEST(Hypercube, LexicographicOrderEqualsNumericOrderOfBinaryStrings) {
  // The synchronizer's "lexicographical order" over fixed-width msb-first
  // binary strings coincides with numeric order.
  const Hypercube cube(6);
  for (unsigned l = 0; l <= 6; ++l) {
    const auto nodes = cube.level_nodes(l);
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      EXPECT_LT(to_binary_string(nodes[i], 6),
                to_binary_string(nodes[i + 1], 6));
    }
  }
}

TEST(Hypercube, ClassNodesMatchMsb) {
  const Hypercube cube(7);
  std::uint64_t total = 0;
  for (BitPos i = 0; i <= 7; ++i) {
    const auto nodes = cube.class_nodes(i);
    EXPECT_EQ(nodes.size(), cube.class_size(i));
    for (NodeId x : nodes) EXPECT_EQ(cube.class_of(x), i);
    total += nodes.size();
  }
  EXPECT_EQ(total, cube.num_nodes());
}

TEST(Hypercube, ToGraphRoundTrips) {
  const Hypercube cube(4);
  const graph::Graph g = graph::make_hypercube(cube.dimension());
  EXPECT_EQ(g.num_nodes(), cube.num_nodes());
  EXPECT_EQ(g.num_edges(), cube.num_edges());
  for (NodeId x = 0; x < cube.num_nodes(); ++x) {
    for (NodeId y : cube.neighbors(x)) {
      EXPECT_TRUE(g.has_edge(static_cast<graph::Vertex>(x),
                             static_cast<graph::Vertex>(y)));
      EXPECT_EQ(g.label_of_edge(static_cast<graph::Vertex>(x),
                                static_cast<graph::Vertex>(y)),
                cube.edge_label(x, y));
    }
  }
}

TEST(HypercubeDeath, ContractViolations) {
  const Hypercube cube(3);
  EXPECT_DEATH((void)cube.neighbor(0, 0), "precondition");
  EXPECT_DEATH((void)cube.neighbor(0, 4), "precondition");
  EXPECT_DEATH((void)cube.edge_label(0, 3), "precondition");
  EXPECT_DEATH(Hypercube(0), "precondition");
}

}  // namespace
}  // namespace hcs
