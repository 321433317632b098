#include "graph/builders.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace hcs::graph {

Graph make_hypercube(unsigned d) {
  HCS_EXPECTS(d >= 1 && d <= 30);
  Graph g;
  g.num_nodes_ = std::size_t{1} << d;
  g.hc_dim_ = d;
  return g;
}

Graph make_path(std::size_t n) {
  HCS_EXPECTS(n >= 1);
  GraphBuilder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_edge_auto_ports(static_cast<Vertex>(i), static_cast<Vertex>(i + 1));
  }
  return b.finalize();
}

Graph make_ring(std::size_t n) {
  HCS_EXPECTS(n >= 3);
  GraphBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge_auto_ports(static_cast<Vertex>(i),
                          static_cast<Vertex>((i + 1) % n));
  }
  return b.finalize();
}

Graph make_complete(std::size_t n) {
  HCS_EXPECTS(n >= 1);
  GraphBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      b.add_edge_auto_ports(static_cast<Vertex>(i), static_cast<Vertex>(j));
    }
  }
  return b.finalize();
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  HCS_EXPECTS(rows >= 1 && cols >= 1);
  GraphBuilder b(rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge_auto_ports(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge_auto_ports(id(r, c), id(r + 1, c));
    }
  }
  return b.finalize();
}

Graph make_torus(std::size_t rows, std::size_t cols) {
  HCS_EXPECTS(rows >= 3 && cols >= 3);
  GraphBuilder b(rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      b.add_edge_auto_ports(id(r, c), id(r, (c + 1) % cols));
      b.add_edge_auto_ports(id(r, c), id((r + 1) % rows, c));
    }
  }
  return b.finalize();
}

Graph make_complete_kary_tree(std::size_t arity, unsigned height) {
  HCS_EXPECTS(arity >= 1);
  // Node count: (arity^(height+1) - 1) / (arity - 1), or height+1 for unary.
  std::size_t n = 1;
  std::size_t level_size = 1;
  for (unsigned h = 0; h < height; ++h) {
    level_size *= arity;
    n += level_size;
  }
  GraphBuilder b(n);
  for (std::size_t child = 1; child < n; ++child) {
    const std::size_t parent = (child - 1) / arity;
    b.add_edge_auto_ports(static_cast<Vertex>(parent),
                          static_cast<Vertex>(child));
  }
  return b.finalize();
}

Graph make_broadcast_tree_graph(unsigned d) {
  HCS_EXPECTS(d >= 1 && d <= 30);
  const std::size_t n = std::size_t{1} << d;
  GraphBuilder b(n);
  for (std::size_t x = 0; x < n; ++x) {
    b.set_node_name(static_cast<Vertex>(x),
                    to_binary_string(static_cast<NodeId>(x), d));
    const BitPos m = msb_position(static_cast<NodeId>(x));
    for (unsigned j = m + 1; j <= d; ++j) {
      const std::size_t child = x | (std::size_t{1} << (j - 1));
      b.add_edge(static_cast<Vertex>(x), static_cast<Vertex>(child), j, j);
    }
  }
  return b.finalize();
}

Graph make_cube_connected_cycles(unsigned d) {
  HCS_EXPECTS(d >= 3 && d <= 20);
  const std::size_t n_cube = std::size_t{1} << d;
  GraphBuilder b(n_cube * d);
  const auto id = [d](std::size_t x, unsigned i) {
    return static_cast<Vertex>(x * d + i);
  };
  for (std::size_t x = 0; x < n_cube; ++x) {
    for (unsigned i = 0; i < d; ++i) {
      // Cycle edges: labels 0 (forward) / 1 (backward) within the cycle.
      const unsigned next = (i + 1) % d;
      b.add_edge(id(x, i), id(x, next), 0, 1);
      // Cube edge across dimension i+1 (1-based), label 2 at both ends.
      const std::size_t y = x ^ (std::size_t{1} << i);
      if (x < y) b.add_edge(id(x, i), id(y, i), 2, 2);
    }
  }
  return b.finalize();
}

Graph make_star(std::size_t n) {
  HCS_EXPECTS(n >= 2);
  GraphBuilder b(n);
  for (std::size_t leaf = 1; leaf < n; ++leaf) {
    b.add_edge_auto_ports(0, static_cast<Vertex>(leaf));
  }
  return b.finalize();
}

Graph make_butterfly(unsigned d) {
  HCS_EXPECTS(d >= 1 && d <= 16);
  const std::size_t width = std::size_t{1} << d;
  GraphBuilder b((d + 1) * width);
  const auto id = [width](unsigned level, std::size_t w) {
    return static_cast<Vertex>(level * width + w);
  };
  for (unsigned i = 0; i < d; ++i) {
    for (std::size_t w = 0; w < width; ++w) {
      b.add_edge_auto_ports(id(i, w), id(i + 1, w));
      b.add_edge_auto_ports(id(i, w), id(i + 1, w ^ (std::size_t{1} << i)));
    }
  }
  return b.finalize();
}

Graph make_petersen() {
  GraphBuilder b(10);
  for (Vertex i = 0; i < 5; ++i) {
    b.add_edge_auto_ports(i, (i + 1) % 5);          // outer ring
    b.add_edge_auto_ports(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    b.add_edge_auto_ports(i, 5 + i);                // spokes
  }
  return b.finalize();
}

Graph make_random_connected(std::size_t n, double p, Rng& rng) {
  HCS_EXPECTS(n >= 1);
  HCS_EXPECTS(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  std::vector<std::vector<bool>> present(n, std::vector<bool>(n, false));
  // Random spanning tree: attach each node to a uniformly random earlier one.
  for (std::size_t v = 1; v < n; ++v) {
    const auto u = static_cast<std::size_t>(rng.below(v));
    present[u][v] = true;
    b.add_edge_auto_ports(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (!present[u][v] && rng.chance(p)) {
        b.add_edge_auto_ports(static_cast<Vertex>(u), static_cast<Vertex>(v));
      }
    }
  }
  return b.finalize();
}

Graph make_random_tree(std::size_t n, Rng& rng) {
  HCS_EXPECTS(n >= 1);
  GraphBuilder b(n);
  if (n == 1) return b.finalize();
  if (n == 2) {
    b.add_edge_auto_ports(0, 1);
    return b.finalize();
  }
  // Decode a uniformly random Pruefer sequence of length n-2.
  std::vector<std::size_t> pruefer(n - 2);
  for (auto& x : pruefer) x = static_cast<std::size_t>(rng.below(n));
  std::vector<std::size_t> degree(n, 1);
  for (auto x : pruefer) ++degree[x];
  std::vector<bool> used(n, false);
  for (auto code : pruefer) {
    std::size_t leaf = 0;
    while (leaf < n && (degree[leaf] != 1 || used[leaf])) ++leaf;
    HCS_ASSERT(leaf < n);
    b.add_edge_auto_ports(static_cast<Vertex>(leaf),
                          static_cast<Vertex>(code));
    used[leaf] = true;
    --degree[code];
  }
  std::size_t u = n, v = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!used[i] && degree[i] == 1) {
      if (u == n) {
        u = i;
      } else {
        v = i;
      }
    }
  }
  HCS_ASSERT(u < n && v < n);
  b.add_edge_auto_ports(static_cast<Vertex>(u), static_cast<Vertex>(v));
  return b.finalize();
}

}  // namespace hcs::graph
