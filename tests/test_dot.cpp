#include "graph/dot.hpp"

#include <gtest/gtest.h>

#include "graph/builders.hpp"

namespace hcs::graph {
namespace {

TEST(Dot, BasicStructure) {
  const Graph g = make_path(3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
  EXPECT_EQ(dot.find("n2 -- n1"), std::string::npos);  // one line per edge
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Dot, UsesNodeNames) {
  const Graph g = make_hypercube(2);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("label=\"00\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"11\""), std::string::npos);

  DotOptions plain;
  plain.use_node_names = false;
  const std::string indexed = to_dot(g, plain);
  EXPECT_EQ(indexed.find("label=\"00\""), std::string::npos);
  EXPECT_NE(indexed.find("label=\"0\""), std::string::npos);
}

TEST(Dot, PortLabelsAndCustomAttributes) {
  const Graph g = make_hypercube(2);
  DotOptions options;
  options.graph_name = "H2";
  options.show_port_labels = true;
  options.node_attributes = [](Vertex v) {
    return v == 0 ? std::string("style=filled") : std::string();
  };
  options.edge_attributes = [](Vertex u, Vertex v) {
    return (u == 0 && v == 1) ? std::string("color=red") : std::string();
  };
  const std::string dot = to_dot(g, options);
  EXPECT_NE(dot.find("graph H2 {"), std::string::npos);
  EXPECT_NE(dot.find("style=filled"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("label=\"1/1\""), std::string::npos);  // dimension 1
}

TEST(Dot, HypercubeWithPortLabelsIsByteStable) {
  DotOptions options;
  options.show_port_labels = true;
  EXPECT_EQ(to_dot(make_hypercube(2), options),
            "graph G {\n"
            "  node [shape=circle, fontsize=10];\n"
            "  n0 [label=\"00\"];\n"
            "  n1 [label=\"01\"];\n"
            "  n2 [label=\"10\"];\n"
            "  n3 [label=\"11\"];\n"
            "  n0 -- n1 [label=\"1/1\", fontsize=8];\n"
            "  n0 -- n2 [label=\"2/2\", fontsize=8];\n"
            "  n1 -- n3 [label=\"2/2\", fontsize=8];\n"
            "  n2 -- n3 [label=\"1/1\", fontsize=8];\n"
            "}\n");
}

TEST(Dot, EdgeCountMatchesGraph) {
  const Graph g = make_hypercube(3);
  const std::string dot = to_dot(g);
  std::size_t edges = 0;
  for (std::size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, g.num_edges());
}

}  // namespace
}  // namespace hcs::graph
