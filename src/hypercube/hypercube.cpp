#include "hypercube/hypercube.hpp"

#include "util/assert.hpp"
#include "util/binomial.hpp"

namespace hcs {

Hypercube::Hypercube(unsigned dimension) : d_(dimension) {
  HCS_EXPECTS(d_ >= 1 && d_ <= kMaxDimension);
}

bool Hypercube::adjacent(NodeId x, NodeId y) const {
  HCS_EXPECTS(contains(x) && contains(y));
  return popcount(x ^ y) == 1;
}

BitPos Hypercube::edge_label(NodeId x, NodeId y) const {
  HCS_EXPECTS(adjacent(x, y));
  return msb_position(x ^ y);
}

NodeId Hypercube::neighbor(NodeId x, BitPos j) const {
  HCS_EXPECTS(contains(x));
  HCS_EXPECTS(j >= 1 && j <= d_);
  return flip_bit(x, j);
}

std::vector<NodeId> Hypercube::neighbors(NodeId x) const {
  HCS_EXPECTS(contains(x));
  std::vector<NodeId> out;
  out.reserve(d_);
  for (BitPos j = 1; j <= d_; ++j) out.push_back(flip_bit(x, j));
  return out;
}

unsigned Hypercube::distance(NodeId x, NodeId y) const {
  HCS_EXPECTS(contains(x) && contains(y));
  return popcount(x ^ y);
}

std::vector<NodeId> Hypercube::smaller_neighbors(NodeId x) const {
  HCS_EXPECTS(contains(x));
  std::vector<NodeId> out;
  const BitPos m = msb(x);
  out.reserve(m);
  for (BitPos j = 1; j <= m; ++j) out.push_back(flip_bit(x, j));
  return out;
}

std::vector<NodeId> Hypercube::bigger_neighbors(NodeId x) const {
  HCS_EXPECTS(contains(x));
  std::vector<NodeId> out;
  const BitPos m = msb(x);
  out.reserve(d_ - m);
  for (BitPos j = m + 1; j <= d_; ++j) out.push_back(flip_bit(x, j));
  return out;
}

std::vector<NodeId> Hypercube::level_nodes(unsigned l) const {
  HCS_EXPECTS(l <= d_);
  std::vector<NodeId> out;
  out.reserve(level_size(l));
  if (l == 0) {
    out.push_back(0);
    return out;
  }
  // Gosper's hack: enumerate all d-bit masks with exactly l set bits in
  // increasing numeric order.
  NodeId x = all_ones(l);
  const NodeId limit = num_nodes();
  while (x < limit) {
    out.push_back(x);
    const NodeId c = x & (~x + 1);  // lowest set bit
    const NodeId r = x + c;
    x = (((r ^ x) >> 2) / c) | r;
  }
  return out;
}

std::vector<NodeId> Hypercube::class_nodes(BitPos i) const {
  HCS_EXPECTS(i <= d_);
  std::vector<NodeId> out;
  if (i == 0) {
    out.push_back(0);
    return out;
  }
  const NodeId top = bit_value(i);
  out.reserve(class_size(i));
  for (NodeId low = 0; low < top; ++low) out.push_back(top | low);
  return out;
}

std::uint64_t Hypercube::level_size(unsigned l) const {
  HCS_EXPECTS(l <= d_);
  return binomial(d_, l);
}

std::uint64_t Hypercube::class_size(BitPos i) const {
  HCS_EXPECTS(i <= d_);
  return i == 0 ? 1 : (std::uint64_t{1} << (i - 1));
}

}  // namespace hcs
