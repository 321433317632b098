// Flat (node, key) -> value journal of fault-damaged whiteboard entries.
//
// Both runtimes keep the last good committed value of every entry the
// fault layer destroyed, and restore the survivors during recovery. The
// journal is hot (the write hook touches it on *every* committed write to
// forget superseded repairs), so it is a per-node flat keyed store rather
// than a string-keyed map; WbKey comparisons make forget() a few integer
// compares on an almost-always-empty vector.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/wb_key.hpp"

namespace hcs::sim {

class WbJournal {
 public:
  struct Entry {
    graph::Vertex node;
    WbKey key;
    std::int64_t value;
  };

  /// Must be called once before use (per-node storage).
  void resize(std::size_t num_nodes) { per_node_.resize(num_nodes); }

  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Records (or overwrites) the last good value of `key` at `node`.
  void note(graph::Vertex node, WbKey key, std::int64_t value) {
    auto& entries = per_node_[node];
    for (KV& kv : entries) {
      if (kv.key == key) {
        kv.value = value;
        return;
      }
    }
    entries.push_back({key, value});
    ++live_;
  }

  /// Drops any pending repair of `key` at `node` (a later good write
  /// superseded it).
  void forget(graph::Vertex node, WbKey key) {
    auto& entries = per_node_[node];
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->key == key) {
        entries.erase(it);
        --live_;
        return;
      }
    }
  }

  /// Removes and returns every journaled entry in deterministic restore
  /// order: node ascending, then key *name* ascending -- the iteration
  /// order of the historical map<pair<Vertex,string>> journal, so restore
  /// traces are byte-identical regardless of intern order.
  [[nodiscard]] std::vector<Entry> drain() {
    std::vector<Entry> out;
    out.reserve(live_);
    for (graph::Vertex v = 0; v < per_node_.size(); ++v) {
      for (const KV& kv : per_node_[v]) out.push_back({v, kv.key, kv.value});
      per_node_[v].clear();
    }
    live_ = 0;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.node != b.node) return a.node < b.node;
      return wb_key_name(a.key) < wb_key_name(b.key);
    });
    return out;
  }

 private:
  struct KV {
    WbKey key;
    std::int64_t value;
  };

  std::vector<std::vector<KV>> per_node_;
  std::size_t live_ = 0;
};

}  // namespace hcs::sim
