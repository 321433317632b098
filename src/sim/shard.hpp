// sim::ShardedMacroEngine -- the macro executor: bitplane replay of a
// compiled MacroProgram, optionally split across subcube shards.
//
// Node state lives in packed bitplanes (sim/bitplane.hpp) -- guarded /
// contaminated / visited -- plus a per-node guard counter; the Network is
// never touched. Ticks come off a calendar (a ring of reusable near-future
// buckets plus a stable far-future heap) in the event engine's exact
// (time, seq) order, and each popped entry is followed immediately by its
// agent's next step, so counts, planes, Metrics and the RunResult match
// spawn_macro_team() on sim::Engine byte for byte.
//
// The fast path covers the default measurement configuration: no trace,
// no faults, atomic-arrival hand-over, and a program too short to trip the
// step cap or the livelock window. It bails the moment a vacated node
// would be exposed to a contaminated neighbour. Every other run -- and
// every bail, on the untouched Network -- executes sim::Engine driving
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
// plain per-tick barriers. Each large tick then runs three phases:
//
//   P0  agent phase: bucket entries are chunked; each chunk advances its
//       agents' program cursors (an agent appears at most once per tick,
//       so chunks touch disjoint records) and emits an arrival record per
//       entry. Calendar pushes are merged in chunk order after the
//       barrier, reproducing the fused loop's push order exactly.
//   P1  node phase: every shard scans the tick's arrival records in
//       order and applies the guard-count / plane updates for the nodes
//       it owns. Per node, the update sequence is the fused loop's (each
//       node has one owner), so counts, planes and guard-zero transitions
//       are bit-identical at any shard count.
//   P2  exposure phase: each guard release recorded in P1 carries its
//       in-tick sequence number; a release at position K was exposed iff
//       some neighbour is still contaminated at end of tick or was
//       cleaned later in the tick (clean stamps carry (tick, position)).
//       That certificate is exactly the fused loop's transient check,
//       evaluated after the fact; any exposure bails to the event engine.
//
// Small ticks (the CLEAN protocol's token passing averages ~1 event per
// tick), and every tick of a single-shard run, take the fused loop, which
// handles any topology: hypercubes probe the d XOR neighbours, other
// graphs (TREE-SWEEP's broadcast tree) walk their adjacency. Shard count
// is an execution detail and never enters hcs::CellKey (run identity),
// checkpoint fingerprints or cache keys.

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
#include "util/assert.hpp"
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
  /// The resolved partition (shards == 1 runs every tick on the fused
  /// loop).
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }

 private:
  enum class FState : std::uint8_t { kRunnable, kInTransit, kSleeping, kDone };

  struct FRec {
    std::uint32_t cur = 0;
    std::uint32_t end = 0;
    graph::Vertex at = 0;
    graph::Vertex moving_to = 0;
    FState state = FState::kRunnable;
  };

  /// One arrival record: the inter-phase hand-off from P0 to P1/P2.
  /// Sleep wake-ups occupy a bucket position but carry no node update;
  /// they are recorded as {kNoArrival, ...} so positions keep the fused
  /// loop's in-tick ordering.
  struct Arrival {
    graph::Vertex from;
    graph::Vertex to;
  };
  static constexpr graph::Vertex kNoArrival = ~graph::Vertex{0};

  /// A guard count that hit zero in P1: the node and the in-tick arrival
  /// position of the release, for the P2 exposure certificate.
  struct Release {
    graph::Vertex node;
    std::uint32_t pos;
  };

  struct ShardScratch {
    std::vector<std::pair<std::uint32_t, AgentId>> pushes;  // P0 chunk
    std::vector<Release> releases;                          // P1
    std::uint64_t cleans = 0;
    bool exposed = false;
  };

  /// Near-future ring + stable far-future heap over tick buckets.
  class Calendar {
   public:
    explicit Calendar(std::size_t ring_ticks);
    /// The ring push is the fused loop's per-event hot path; far sleeps
    /// take the out-of-line heap push.
    void push(std::uint32_t time, AgentId agent) {
      HCS_ASSERT(time > cur_);
      if (time - cur_ <= mask_) {
        ring_[time & mask_].push_back(agent);
        ++ring_pending_;
      } else {
        push_far(time, agent);
      }
    }
    /// Advances past cur to the next nonempty tick; fills *bucket in the
    /// event engine's (time, seq) order. Returns false when drained.
    bool next(std::uint32_t* time, std::vector<AgentId>* bucket);

   private:
    struct Far {
      std::uint32_t time;
      std::uint64_t seq;
      AgentId agent;
    };
    void push_far(std::uint32_t time, AgentId agent);

    std::vector<std::vector<AgentId>> ring_;
    std::uint32_t mask_ = 0;
    std::vector<Far> heap_;
    std::size_t ring_pending_ = 0;
    std::uint64_t push_seq_ = 0;
    std::uint32_t cur_ = 0;
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

  // Fast-path state (valid when fast_completed_). cleaned_tick_,
  // contam_start_ and clean_stamp_ back the P1/P2 phases only.
  bool fast_completed_ = false;
  Bitplane guarded_;
  Bitplane contaminated_;
  Bitplane visited_;
  Bitplane cleaned_tick_;
  Bitplane contam_start_;
  Bitplane frontier_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> clean_stamp_;
  std::vector<Arrival> arrivals_;
  std::vector<ShardScratch> scratch_;
  Metrics fast_metrics_;
};

}  // namespace hcs::sim
