// The simulated network: a port-labelled graph whose nodes carry search
// status (contaminated / clean / guarded), a whiteboard, and an agent
// count.
//
// Contamination dynamics (Section 2 of the paper, worst-case intruder):
//  * every node starts contaminated except the homebase (guarded);
//  * an agent's arrival makes a node guarded (and marks it visited);
//  * when the last agent leaves a node it becomes clean -- unless a
//    neighbour is contaminated, in which case it is *recontaminated*, and
//    the contamination floods every unguarded node reachable from it
//    (the intruder moves arbitrarily fast). Monotone strategies never
//    trigger this; Metrics::recontamination_events counts violations.
//
// Network performs no scheduling itself; the event Engine drives it
// through the on_* hooks.

#pragma once

#include <functional>
#include <vector>

#include "util/assert.hpp"

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "sim/wb_key.hpp"
#include "sim/whiteboard.hpp"

namespace hcs::sim {

/// When does a moving agent stop guarding its origin node?
///
///  * kAtomicArrival (default): the agent counts as present at the origin
///    until the instant it appears at the destination; the hand-over is
///    atomic, so a move never opens a window in which both endpoints are
///    unguarded. This is the semantics under which Algorithm CLEAN WITH
///    VISIBILITY is monotone (its Lemma 5 only constrains *smaller*
///    neighbours -- the bigger ones are still contaminated while the agents
///    are in flight, and only atomicity keeps the intruder out of the
///    vacated node).
///
///  * kVacateOnDeparture: the origin is unguarded for the whole traversal.
///    NO strategy that sends an agent from a singly-guarded node into a
///    contaminated neighbour can be monotone under this semantics -- the
///    origin is exposed until the arrival. Algorithm CLEAN hits the window
///    at the escort hops (the synchronizer departs with the agent), the
///    visibility strategy at every wave. The test suite demonstrates both,
///    which is why kAtomicArrival (equivalently: the traversed edge is
///    occupied by the moving agent, so the intruder cannot cross it) is the
///    reading of the paper's model under which Theorems 1 and 6 hold.
enum class MoveSemantics : std::uint8_t { kAtomicArrival, kVacateOnDeparture };

class Network {
 public:
  /// Observer invoked on node status transitions (old status implied by the
  /// trace; the new one is passed).
  using StatusCallback =
      std::function<void(graph::Vertex, NodeStatus, SimTime)>;

  Network(const graph::Graph& g, graph::Vertex homebase);

  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
  [[nodiscard]] graph::Vertex homebase() const { return homebase_; }
  [[nodiscard]] std::size_t num_nodes() const { return graph_->num_nodes(); }

  // Inline: these accessors are read on every agent step (the visibility
  // rule alone polls status() for each smaller neighbour per wake-up).
  [[nodiscard]] NodeStatus status(graph::Vertex v) const {
    HCS_EXPECTS(v < num_nodes());
    return status_[v];
  }
  [[nodiscard]] bool visited(graph::Vertex v) const {
    HCS_EXPECTS(v < num_nodes());
    return visited_[v];
  }
  [[nodiscard]] std::size_t agents_at(graph::Vertex v) const {
    HCS_EXPECTS(v < num_nodes());
    return agent_count_[v];
  }

  [[nodiscard]] Whiteboard& whiteboard(graph::Vertex v) {
    HCS_EXPECTS(v < num_nodes());
    return whiteboards_[v];
  }
  [[nodiscard]] const Whiteboard& whiteboard(graph::Vertex v) const {
    HCS_EXPECTS(v < num_nodes());
    return whiteboards_[v];
  }

  /// Number of currently contaminated nodes (maintained incrementally).
  [[nodiscard]] std::uint64_t contaminated_count() const {
    return contaminated_count_;
  }

  /// True iff no node is contaminated: the network is clean.
  [[nodiscard]] bool all_clean() const { return contaminated_count_ == 0; }

  /// True iff the set of non-contaminated nodes induces a connected
  /// subgraph -- the "contiguous" requirement. O(n + m).
  [[nodiscard]] bool clean_region_connected() const;

  /// When false, a clean node with a contaminated neighbour is only
  /// *counted* as a violation but the contamination does not flood; useful
  /// for pinpointing the first unsafe move in tests. Default: true (full
  /// worst-case intruder semantics).
  void set_recontamination_spread(bool spread) { spread_ = spread; }

  void set_move_semantics(MoveSemantics s) { semantics_ = s; }
  [[nodiscard]] MoveSemantics move_semantics() const { return semantics_; }

  /// Registers a status observer. The Engine installs one for wake-ups;
  /// intruder models and custom monitors may add more. Observers run in
  /// registration order.
  void add_status_callback(StatusCallback cb) {
    on_status_.push_back(std::move(cb));
  }

  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // --- hooks driven by the runtime -----------------------------------

  /// Initial placement (spawn) of an agent.
  void on_agent_placed(AgentId a, graph::Vertex v, SimTime t);

  /// Agent departs `from` heading to `to` (the edge traversal begins).
  /// The role is an interned key (see wb_key.hpp): per-role move counters
  /// are cached per key id, so the per-move accounting never touches the
  /// string-keyed metrics map on the hot path.
  void on_agent_departed(AgentId a, graph::Vertex from, graph::Vertex to,
                         SimTime t, WbKey role);

  /// String-shim overload for external callers; interns and forwards.
  void on_agent_departed(AgentId a, graph::Vertex from, graph::Vertex to,
                         SimTime t, const std::string& role) {
    on_agent_departed(a, from, to, t, wb_key(role));
  }

  /// Agent arrives at `to` (the edge traversal ends).
  void on_agent_arrived(AgentId a, graph::Vertex to, graph::Vertex from,
                        SimTime t);

  /// Agent terminates (stays on its node, which remains guarded).
  void on_agent_terminated(AgentId a, graph::Vertex at, SimTime t);

  /// Agent crash-stops (fault injection). When `counted_at` is true the
  /// agent still held a guard at `at` (crash at node, or mid-edge under
  /// kAtomicArrival where the origin is guarded until arrival) and the
  /// count is released -- possibly vacating the node and triggering
  /// recontamination. Under kVacateOnDeparture a mid-edge crash releases
  /// nothing (the origin was vacated at departure).
  void on_agent_crashed(AgentId a, graph::Vertex at, SimTime t,
                        bool counted_at, const std::string& detail);

  /// Folds per-node whiteboard peaks into metrics; call once at run end.
  void finalize_metrics();

 private:
  void set_status(graph::Vertex v, NodeStatus s, SimTime t);

  /// Floods contamination from v through unguarded nodes.
  void recontaminate(graph::Vertex v, SimTime t);

  /// Called when the last agent leaves v.
  void node_vacated(graph::Vertex v, SimTime t);

  /// Bumps the per-role move counter via the interned-id cache.
  void bump_role_moves(WbKey role);

  const graph::Graph* graph_;
  graph::Vertex homebase_;
  std::vector<NodeStatus> status_;
  std::vector<bool> visited_;
  std::vector<std::uint32_t> agent_count_;
  std::vector<Whiteboard> whiteboards_;
  std::uint64_t contaminated_count_;
  bool spread_ = true;
  MoveSemantics semantics_ = MoveSemantics::kAtomicArrival;
  std::vector<StatusCallback> on_status_;
  Metrics metrics_;
  Trace trace_;

  /// Per-role-id pointers into metrics_.moves_by_role (std::map nodes are
  /// stable, so the cached pointers survive later insertions). Indexed by
  /// WbKey::id().
  std::vector<std::uint64_t*> role_moves_;
  /// Scratch buffers reused across recontamination floods and connectivity
  /// checks; owned here so the hot path never allocates. Mutable: the
  /// const clean_region_connected() query scribbles on them too.
  mutable std::vector<graph::Vertex> flood_stack_;
  mutable std::vector<std::uint8_t> region_mark_;
};

}  // namespace hcs::sim
