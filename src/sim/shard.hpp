// sim::ShardedMacroEngine -- the macro executor: bitplane replay of a
// compiled MacroProgram, optionally split across subcube shards.
//
// Node state lives in packed bitplanes (sim/bitplane.hpp) -- contaminated
// and visited -- plus a per-node guard counter; the Network is never
// touched. The fast path schedules nothing: it reads the program.
//
//   * Counts in closed form. One pass over each agent's steps gives what
//     the event engine counts. An agent becomes free at tick 0 when
//     spawned, then at time + 1 of its previous step; a step departing
//     later than that costs one sleep and one wake-up event. So events =
//     moves + sleeps, agent steps = agents + events, and the makespan is
//     the last arrival tick (0 without moves).
//   * A tick index. The step indices, counting-sorted by departure tick
//     into two flat arrays: one end offset per tick, one index per step.
//   * One tick body. The moves departing at tick t land at t + 1. The
//     body applies every departure first (a guard count that reaches 0 is
//     a release), then every arrival (a cleaned node is stamped with
//     (t + 1, source)), then certifies each release.
//
// The certificate. The program does not order the moves of one tick; the
// event engine lands them in its own (time, seq) order. Releasing x is
// safe in every order of the tick's moves iff no neighbour of x is
// contaminated at the end of the tick and no neighbour was cleaned during
// the tick by a move from a node other than x.
//   - Sound for every program: a neighbour contaminated at the end was
//     contaminated all tick, and a cleaning from a third node may land
//     after x's last guard leaves. x's own moves cannot: under the
//     atomic-arrival hand-over an agent in transit still guards its
//     origin, so they land no later than x's release. A node entered
//     from two sources in one tick keeps the first one's stamp in index
//     order, which can only make the check stricter.
//   - Exact for the registered strategies: CLEAN, NAIVE-LEVEL-SWEEP and
//     TREE-SWEEP move one agent per tick, and in the CLEAN-WITH-VISIBILITY
//     and SYNCHRONOUS waves a node is entered only from its broadcast-tree
//     parent, after its smaller neighbours are clean.
// A release that fails the certificate bails to the event engine, so a
// hand-built program whose safety rests on the event engine's in-tick
// order runs there, with the same results. On wide ticks the tick-start
// frontier (nodes with a neighbour contaminated when the tick began)
// filters the releases, since an exposure needs such a neighbour.
//
// The fast path covers the default measurement configuration: no trace,
// no faults, atomic-arrival hand-over, and a program too short to trip the
// step cap or the livelock window. Every other run -- and every bail, on
// the untouched Network -- executes sim::Engine driving
// spawn_macro_team(), so the slow path IS the oracle.
//
// Sharding (shards > 1 after ShardPlan::resolve) splits the planes into
// 2^k contiguous word ranges owned by subcube shards keyed on the top k
// address bits: node v belongs to shard v >> (d - k), so a shard's nodes
// are exactly a (d - k)-subcube occupying a contiguous run of plane words.
// Under the hypercube's XOR adjacency every intra-word dimension (j < 6)
// and every word-local dimension (6 <= j < d - k) stays inside one shard;
// only the top k dimensions cross shard boundaries, and on the packed
// layout those are fixed-offset word reads (bitplane
// neighbor_union_range) -- never writes -- so shards synchronize with
// plain per-tick barriers. A wide tick runs the tick body per shard:
//
//   P1  every shard scans the tick's steps in index order and applies
//       the departures and arrivals of the nodes it owns. Each node has
//       one owner, so counts, planes, stamps and releases are
//       bit-identical at any shard count.
//   P2  every shard certifies its own releases, reading neighbours'
//       planes and stamps across shard boundaries after the barrier.
//
// The tick-start frontier is sliced per shard behind a barrier of its
// own before P1, because each slice reads other shards' words. Narrow
// ticks (the CLEAN protocol's token passing averages ~1 move per tick),
// and every tick of a single-shard run, run the body inline over every
// node, which handles any topology: hypercubes probe the d XOR
// neighbours, other graphs (TREE-SWEEP's broadcast tree) walk their
// adjacency. Shard count is an execution detail and never enters
// hcs::CellKey (run identity) or cache keys.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/bitplane.hpp"
#include "sim/macro_engine.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "util/thread_pool.hpp"

namespace hcs::sim {

/// The resolved subcube partition for one run.
struct ShardPlan {
  unsigned shards = 1;       ///< 2^shard_bits contiguous word ranges
  unsigned shard_bits = 0;   ///< top address bits keying shard ownership
  unsigned node_shift = 0;   ///< owner(v) = v >> node_shift
  std::size_t words_per_shard = 0;

  /// Resolves a RunOptions::shards request against a hypercube dimension:
  /// 0 = auto = min(hw_threads, 2^(d-10)); any request is rounded down to
  /// a power of two and clamped so every shard owns at least one plane
  /// word (shards <= 2^(d-6)). Non-hypercube or sub-word planes resolve
  /// to 1. hw_threads = 0 reads std::thread::hardware_concurrency().
  [[nodiscard]] static ShardPlan resolve(std::uint32_t requested,
                                         unsigned hc_dim,
                                         unsigned hw_threads = 0);
};

/// The one macro executor. Session, the fuzz oracle, the benches and the
/// perf harness all read this surface; the fast path answers from its own
/// bitplanes, the event-engine path forwards to the Network.
class ShardedMacroEngine {
 public:
  using RunResult = Engine::RunResult;

  /// The network carries graph, move semantics, trace switch and metrics,
  /// exactly as for Engine. The fast path leaves it untouched and reports
  /// through the accessors below.
  ShardedMacroEngine(Network& net, RunOptions cfg);

  ShardedMacroEngine(const ShardedMacroEngine&) = delete;
  ShardedMacroEngine& operator=(const ShardedMacroEngine&) = delete;

  /// True when `cfg` permits macro execution at all: deterministic FIFO
  /// wake policy and the unit delay model (the program's ticks ARE the
  /// ideal-time schedule). Tracing, faults and the vacate ablation are
  /// fine -- they just run on the event engine. Session uses this to
  /// resolve EngineKind::kAuto.
  [[nodiscard]] static bool eligible(const RunOptions& cfg) {
    return cfg.policy == WakePolicy::kFifo && cfg.delay.is_unit();
  }

  /// Executes the program to completion. Call once per engine.
  RunResult run(const MacroProgram& program);

  [[nodiscard]] const Metrics& metrics() const;
  [[nodiscard]] bool all_clean() const;
  [[nodiscard]] bool clean_region_connected() const;
  /// Whether the last run completed on the bitplane fast path end-to-end.
  [[nodiscard]] bool used_fast_path() const { return fast_completed_; }
  /// Whether that fast run was split across more than one shard.
  [[nodiscard]] bool used_sharded_path() const {
    return fast_completed_ && plan_.shards > 1;
  }
  /// The resolved partition (shards == 1 runs every tick body inline).
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }

 private:
  struct ShardScratch {
    std::vector<graph::Vertex> releases;  // guard counts that reached 0
    std::uint64_t cleans = 0;
    bool exposed = false;
  };

  /// Returns true when it ran to completion; false = declined (abort-
  /// guard risk) or bailed (exposure), and the caller runs the event
  /// engine on the untouched Network.
  bool run_fast(const MacroProgram& prog, RunResult* result);
  [[nodiscard]] bool fast_region_connected() const;
  void parallel_shards(const std::function<void(std::size_t)>& body);

  Network* net_;
  RunOptions cfg_;
  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;

  // Fast-path state (valid when fast_completed_). clean_stamp_ holds
  // (tick << 32) | source for each node's cleaning move.
  bool fast_completed_ = false;
  Bitplane contaminated_;
  Bitplane visited_;
  Bitplane frontier_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> clean_stamp_;
  std::vector<ShardScratch> scratch_;
  Metrics fast_metrics_;
};

}  // namespace hcs::sim
