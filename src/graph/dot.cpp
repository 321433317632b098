#include "graph/dot.hpp"

#include "util/strfmt.hpp"

namespace hcs::graph {

std::string to_dot(const Graph& g, const DotOptions& options) {
  std::string out = "graph " + options.graph_name + " {\n";
  out += "  node [shape=circle, fontsize=10];\n";
  for (Vertex v = 0; v < g.num_nodes(); ++v) {
    const std::string name = g.node_name(v);
    std::string label =
        options.use_node_names && !name.empty() ? name : std::to_string(v);
    out += str_cat("  n", v, " [label=\"", label, "\"");
    if (options.node_attributes) {
      const std::string attrs = options.node_attributes(v);
      if (!attrs.empty()) out += ", " + attrs;
    }
    out += "];\n";
  }
  for (Vertex u = 0; u < g.num_nodes(); ++u) {
    for_each_half_edge(g, u, [&](const HalfEdge& he) {
      if (he.to < u) return;  // one line per undirected edge
      out += str_cat("  n", u, " -- n", he.to);
      std::string attrs;
      if (options.show_port_labels) {
        attrs = str_cat("label=\"", he.label, "/", he.label_at_other_end,
                        "\", fontsize=8");
      }
      if (options.edge_attributes) {
        const std::string extra = options.edge_attributes(u, he.to);
        if (!extra.empty()) {
          if (!attrs.empty()) attrs += ", ";
          attrs += extra;
        }
      }
      if (!attrs.empty()) out += " [" + attrs + "]";
      out += ";\n";
    });
  }
  out += "}\n";
  return out;
}

}  // namespace hcs::graph
