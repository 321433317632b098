#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace hcs::sim {

// -------------------------------------------------------------- ShardPlan

ShardPlan ShardPlan::resolve(std::uint32_t requested, unsigned hc_dim,
                             unsigned hw_threads) {
  ShardPlan plan;
  if (hc_dim < 7) return plan;  // fewer than two plane words: serial
  if (hw_threads == 0) hw_threads = std::thread::hardware_concurrency();
  if (hw_threads == 0) hw_threads = 1;

  std::uint64_t want = requested;
  if (want == 0) {
    // Auto: one shard per hardware thread, but never slice a dimension
    // below a 1024-node subcube -- smaller runs have few ticks wide
    // enough to phase, and the partition would only add barriers.
    const unsigned cap_bits = hc_dim > 10 ? hc_dim - 10 : 0;
    want = std::min<std::uint64_t>(hw_threads, std::uint64_t{1} << cap_bits);
  }
  // Power-of-two shard counts keep ownership a shift; every shard must
  // own at least one full 64-bit plane word so plane writes never share
  // a word across shards.
  want = std::min<std::uint64_t>(std::bit_floor(want),
                                 std::uint64_t{1} << (hc_dim - 6));
  if (want <= 1) return plan;

  plan.shards = static_cast<unsigned>(want);
  plan.shard_bits = static_cast<unsigned>(std::countr_zero(want));
  plan.node_shift = hc_dim - plan.shard_bits;
  plan.words_per_shard =
      (std::size_t{1} << (hc_dim - 6)) / plan.shards;
  return plan;
}

// ----------------------------------------------------- ShardedMacroEngine

ShardedMacroEngine::ShardedMacroEngine(Network& net, RunOptions cfg)
    : net_(&net),
      cfg_(std::move(cfg)),
      plan_(ShardPlan::resolve(cfg_.shards, net.graph().hypercube_dim())) {
  HCS_EXPECTS(eligible(cfg_) &&
              "macro execution requires the FIFO wake policy and the unit "
              "delay model");
}

const Metrics& ShardedMacroEngine::metrics() const {
  return fast_completed_ ? fast_metrics_ : net_->metrics();
}

bool ShardedMacroEngine::all_clean() const {
  return fast_completed_ ? contaminated_.none() : net_->all_clean();
}

bool ShardedMacroEngine::clean_region_connected() const {
  return fast_completed_ ? fast_region_connected()
                         : net_->clean_region_connected();
}

void ShardedMacroEngine::parallel_shards(
    const std::function<void(std::size_t)>& body) {
  // The caller is a worker too: helpers = min(shards, cores) - 1 pool
  // threads claim shard indices alongside this thread. On a single-core
  // host that degenerates to a plain inline loop -- byte-identical output
  // (each shard only writes its own range/scratch, so who runs a shard
  // never matters), but no thread hand-off on the barrier.
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Test seam: HCS_SHARD_THREADS overrides the core count so the
  // sanitizer jobs can race the barrier phases on real pool threads even
  // on single-core hosts. Output is thread-schedule-invariant by
  // construction, so the knob cannot change results.
  if (const char* forced = std::getenv("HCS_SHARD_THREADS");
      forced != nullptr && *forced != '\0') {
    hw = static_cast<unsigned>(std::max(1, std::atoi(forced)));
  }
  const unsigned helpers = std::min(plan_.shards, hw) - 1;
  if (helpers == 0) {
    for (std::size_t s = 0; s < plan_.shards; ++s) body(s);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(helpers);
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t n = plan_.shards;
  for (unsigned lane = 0; lane < helpers; ++lane) {
    pool_->submit([next, n, &body] {
      for (std::size_t s = (*next)++; s < n; s = (*next)++) body(s);
    });
  }
  for (std::size_t s = (*next)++; s < n; s = (*next)++) body(s);
  // wait_idle's mutex hand-off publishes every helper's writes to the
  // caller before the next phase reads them.
  pool_->wait_idle();
}

ShardedMacroEngine::RunResult ShardedMacroEngine::run(
    const MacroProgram& program) {
  obs::ScopedSink obs_sink(cfg_.obs);
  obs::Span run_span(cfg_.obs, "macro.run");

  // The fast path covers the default measurement configuration; anything
  // that must observe intermediate state (tracing), perturb the schedule
  // (faults) or change the hand-over (the vacate ablation) runs on the
  // event engine, as does any run the fast path declines or bails on.
  const bool fast_ok = !net_->trace().enabled() && cfg_.faults.empty() &&
                       net_->move_semantics() == MoveSemantics::kAtomicArrival;
  RunResult result;
  if (fast_ok && run_fast(program, &result)) {
    if (cfg_.obs != nullptr) {
      cfg_.obs->counter_add("macro.events", fast_metrics_.events_processed);
      cfg_.obs->counter_add("macro.steps", fast_metrics_.agent_steps);
      cfg_.obs->counter_add("macro.fast_runs");
      if (plan_.shards > 1) cfg_.obs->counter_add("macro.sharded_runs");
    }
    return result;
  }
  Engine engine(*net_, cfg_);
  spawn_macro_team(engine, program);
  return engine.run();
}

bool ShardedMacroEngine::run_fast(const MacroProgram& prog,
                                  RunResult* result) {
  const std::size_t n = net_->num_nodes();
  const std::size_t m = prog.num_agents();
  const std::size_t moves = prog.steps.size();
  const graph::Graph& g = net_->graph();
  const unsigned hc_dim = g.hypercube_dim();
  const unsigned shards = plan_.shards;

  // Abort-guard interactions (step caps, livelock windows) cannot be
  // reproduced after the fact; leave any run that could plausibly trip
  // them to the event engine, which aborts exactly where it must.
  const std::uint64_t step_bound = 2 * moves + 2 * m;
  if (step_bound >= cfg_.max_agent_steps || m >= cfg_.livelock_window) {
    return false;
  }

  // Closed-form counts: a step departing after its agent became free
  // costs one sleep and one wake-up event. `ticks` ends past the last
  // departure, so it is also the last arrival tick.
  HCS_EXPECTS(prog.agent_offsets.back() == moves &&
              "every step belongs to an agent");
  std::uint64_t sleeps = 0;
  std::uint32_t ticks = 0;
  for (std::size_t a = 0; a < m; ++a) {
    std::uint32_t free = 0;
    graph::Vertex at = prog.homebase;
    const std::uint32_t end = prog.agent_offsets[a + 1];
    for (std::uint32_t i = prog.agent_offsets[a]; i < end; ++i) {
      const MacroProgram::Step& s = prog.steps[i];
      // A step due before its agent is free departs late on the event
      // engine; leave such a program to it.
      if (s.time < free) return false;
      HCS_ASSERT(s.from == at);
      if (s.time > free) ++sleeps;
      free = s.time + 1;
      at = s.to;
    }
    ticks = std::max(ticks, free);
  }

  // Tick index: step indices counting-sorted by departure tick, in index
  // order within a tick. tick_end[t] ends tick t's run of `order`.
  std::vector<std::uint32_t> tick_end(ticks, 0);
  for (const MacroProgram::Step& s : prog.steps) ++tick_end[s.time];
  std::uint32_t offset = 0;
  for (std::uint32_t& e : tick_end) offset += std::exchange(e, offset);
  std::vector<std::uint32_t> order(moves);
  for (std::uint32_t i = 0; i < moves; ++i) {
    order[tick_end[prog.steps[i].time]++] = i;
  }

  contaminated_ = Bitplane(n, true);
  visited_ = Bitplane(n);
  if (hc_dim != 0) frontier_ = Bitplane(n);
  fast_metrics_ = Metrics{};
  counts_.assign(n, 0);
  clean_stamp_.assign(n, 0);
  scratch_.assign(shards, ShardScratch{});
  const std::size_t words = contaminated_.num_words();

  const graph::Vertex home = prog.homebase;
  counts_[home] = static_cast<std::uint32_t>(m);
  std::uint64_t contam_count = n;
  if (m > 0) {
    visited_.set(home);
    contaminated_.clear(home);
    --contam_count;
  }

  // The tick being applied: its steps [first, last), its arrival tick,
  // and the tick-start frontier when the tick is wide enough to build it.
  const std::uint32_t* first = order.data();
  const std::uint32_t* last = order.data();
  std::uint32_t arrival = 0;
  const Bitplane* frontier = nullptr;

  // The tick body over the nodes `owns` accepts. Apply: departures, then
  // arrivals, so a release is any count the tick's departures empty.
  const auto apply = [&](ShardScratch& sc, auto owns) {
    sc.releases.clear();
    for (const std::uint32_t* k = first; k != last; ++k) {
      const MacroProgram::Step& s = prog.steps[*k];
      if (s.from != s.to && owns(s.from)) {
        HCS_ASSERT(counts_[s.from] > 0);
        if (--counts_[s.from] == 0) sc.releases.push_back(s.from);
      }
    }
    const std::uint64_t stamp = std::uint64_t{arrival} << 32;
    std::uint64_t cleans = 0;
    for (const std::uint32_t* k = first; k != last; ++k) {
      const MacroProgram::Step& s = prog.steps[*k];
      if (!owns(s.to)) continue;
      ++counts_[s.to];
      visited_.set(s.to);
      if (contaminated_.test(s.to)) {
        contaminated_.clear(s.to);
        clean_stamp_[s.to] = stamp | s.from;
        ++cleans;
      }
    }
    sc.cleans = cleans;
  };
  // Certify: releasing x is safe in every order of the tick's moves iff
  // no neighbour is contaminated now or was cleaned this tick from a node
  // other than x.
  const auto certify = [&](ShardScratch& sc) {
    sc.exposed = false;
    for (const graph::Vertex x : sc.releases) {
      if (frontier != nullptr && !frontier->test(x)) continue;
      if (graph::any_neighbor(g, x, [&](graph::Vertex w) {
            const std::uint64_t stamp = clean_stamp_[w];
            return contaminated_.test(w) ||
                   ((stamp >> 32) == arrival &&
                    static_cast<graph::Vertex>(stamp) != x);
          })) {
        sc.exposed = true;
        return;
      }
    }
  };

  // Ticks below this run the body inline: the phase split pays off once
  // a tick spans the plane (cache-blocked node passes) and feeds every
  // shard (the CLEAN token walk averages ~1 move per tick). A single
  // shard never phases.
  const std::size_t phase_threshold =
      shards > 1 ? std::max<std::size_t>(words, std::size_t{64} * shards)
                 : ~std::size_t{0};
  const unsigned node_shift = plan_.node_shift;
  const std::size_t wps = plan_.words_per_shard;

  SimTime capture_time = -1.0;
  for (std::uint32_t t = 0; t < ticks; ++t) {
    first = last;
    last = order.data() + tick_end[t];
    const std::size_t b = static_cast<std::size_t>(last - first);
    if (b == 0) continue;
    arrival = t + 1;
    // On wide ticks one O(d * words) neighbour union clears most releases
    // wholesale: contamination only shrinks within a tick, so a node with
    // no contaminated neighbour at tick start needs no probe.
    frontier = hc_dim != 0 && b >= words ? &frontier_ : nullptr;

    const bool phased = b >= phase_threshold;
    const std::size_t used = phased ? shards : 1;
    if (!phased) {
      if (frontier != nullptr) {
        neighbor_union(contaminated_, hc_dim, &frontier_);
      }
      apply(scratch_[0], [](graph::Vertex) { return true; });
      certify(scratch_[0]);
    } else {
      parallel_shards([&](std::size_t s) {
        neighbor_union_range(contaminated_, hc_dim, &frontier_, s * wps,
                             (s + 1) * wps);
      });
      parallel_shards([&](std::size_t s) {  // P1
        apply(scratch_[s], [s, node_shift](graph::Vertex v) {
          return (v >> node_shift) == s;
        });
      });
      parallel_shards([&](std::size_t s) { certify(scratch_[s]); });  // P2
    }
    for (std::size_t s = 0; s < used; ++s) {
      if (scratch_[s].exposed) return false;  // bail to the event engine
      contam_count -= scratch_[s].cleans;
    }
    if (capture_time < 0 && contam_count == 0) {
      capture_time = static_cast<SimTime>(arrival);
    }
  }

  const auto end_time = static_cast<SimTime>(ticks);
  fast_metrics_.agents_spawned = m;
  fast_metrics_.total_moves = moves;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t agent_moves =
        prog.agent_offsets[i + 1] - prog.agent_offsets[i];
    if (agent_moves != 0) {
      fast_metrics_.moves_by_role[prog.role(i)] += agent_moves;
    }
  }
  fast_metrics_.makespan = end_time;
  fast_metrics_.nodes_visited = visited_.popcount();
  fast_metrics_.events_processed = moves + sleeps;
  fast_metrics_.agent_steps = m + moves + sleeps;

  *result = RunResult{};
  result->all_terminated = true;
  result->terminated = m;
  result->end_time = end_time;
  result->capture_time = capture_time;
  fast_completed_ = true;
  return true;
}

bool ShardedMacroEngine::fast_region_connected() const {
  HCS_ASSERT(fast_completed_);
  const std::size_t n = contaminated_.size();
  Bitplane region(n, true);
  region.and_not(contaminated_);
  const std::uint64_t members = region.popcount();
  if (members <= 1) return true;

  const graph::Graph& g = net_->graph();
  const unsigned hc_dim = g.hypercube_dim();
  if (hc_dim != 0) {
    // Word-parallel BFS: expand the reached set through d neighbour
    // permutations per pass until it stops growing.
    Bitplane reached(n);
    for (std::size_t k = 0; k < region.words().size(); ++k) {
      if (region.words()[k] != 0) {
        reached.set(k * 64 + static_cast<std::size_t>(
                                 std::countr_zero(region.words()[k])));
        break;
      }
    }
    Bitplane grown;
    for (;;) {
      neighbor_union(reached, hc_dim, &grown);
      grown &= region;
      grown.and_not(reached);
      if (grown.none()) break;
      reached |= grown;
    }
    return reached.popcount() == members;
  }

  // Generic topology: scalar flood over the region plane.
  graph::Vertex start = 0;
  while (!region.test(start)) ++start;
  std::vector<graph::Vertex> stack{start};
  Bitplane seen(n);
  seen.set(start);
  std::uint64_t count = 1;
  while (!stack.empty()) {
    const graph::Vertex u = stack.back();
    stack.pop_back();
    graph::for_each_neighbor(g, u, [&](graph::Vertex w) {
      if (region.test(w) && !seen.test(w)) {
        seen.set(w);
        ++count;
        stack.push_back(w);
      }
    });
  }
  return count == members;
}

}  // namespace hcs::sim
