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
    // below a 1024-node subcube -- smaller runs are calendar-bound and
    // the partition would only add barriers.
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

// --------------------------------------------------------------- Calendar

ShardedMacroEngine::Calendar::Calendar(std::size_t ring_ticks)
    : ring_(ring_ticks), mask_(static_cast<std::uint32_t>(ring_ticks - 1)) {
  HCS_EXPECTS(std::has_single_bit(ring_ticks));
}

void ShardedMacroEngine::Calendar::push_far(std::uint32_t time,
                                            AgentId agent) {
  // Far sleeps keep their push order via the sequence number;
  // every far push for a tick happens strictly before any ring push
  // for it (the ring window has not reached the tick yet), so heap
  // entries always drain ahead of the ring slot.
  heap_.push_back(Far{time, push_seq_++, agent});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Far& a, const Far& b) {
                   return a.time != b.time ? a.time > b.time : a.seq > b.seq;
                 });
}

bool ShardedMacroEngine::Calendar::next(std::uint32_t* time,
                                        std::vector<AgentId>* bucket) {
  if (ring_pending_ == 0 && heap_.empty()) return false;
  const auto heap_cmp = [](const Far& a, const Far& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  std::uint32_t t = heap_.empty() ? ~std::uint32_t{0} : heap_.front().time;
  if (ring_pending_ > 0) {
    // The nearest pending ring slot is at most ring_.size() - 1 ticks
    // ahead (pushes land inside the window); stop early if the heap's
    // top tick comes first.
    for (std::uint32_t tt = cur_ + 1;; ++tt) {
      if (tt > t) break;
      if (!ring_[tt & (ring_.size() - 1)].empty()) {
        t = tt;
        break;
      }
      HCS_ASSERT(tt - cur_ < ring_.size());
    }
  }
  cur_ = t;
  std::vector<AgentId>& slot = ring_[t & (ring_.size() - 1)];
  if (heap_.empty() || heap_.front().time != t) {
    // Common case: one source; swap buffers so slot capacity is reused.
    bucket->clear();
    std::swap(*bucket, slot);
    ring_pending_ -= bucket->size();
    *time = t;
    return true;
  }
  bucket->clear();
  while (!heap_.empty() && heap_.front().time == t) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
    bucket->push_back(heap_.back().agent);
    heap_.pop_back();
  }
  bucket->insert(bucket->end(), slot.begin(), slot.end());
  ring_pending_ -= slot.size();
  slot.clear();
  *time = t;
  return true;
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
  const graph::Graph& g = net_->graph();
  const unsigned hc_dim = g.hypercube_dim();
  const unsigned shards = plan_.shards;

  // Abort-guard interactions (step caps, livelock windows) cannot be
  // reproduced after the fact; leave any run that could plausibly trip
  // them to the event engine, which aborts exactly where it must.
  const std::uint64_t step_bound = 2 * prog.steps.size() + 2 * m;
  if (step_bound >= cfg_.max_agent_steps || m >= cfg_.livelock_window) {
    return false;
  }

  std::vector<FRec> recs(m);
  guarded_ = Bitplane(n);
  contaminated_ = Bitplane(n, true);
  visited_ = Bitplane(n);
  fast_metrics_ = Metrics{};
  counts_.assign(n, 0);
  if (shards > 1) {
    cleaned_tick_ = Bitplane(n);
    clean_stamp_.assign(n, 0);
    scratch_.assign(shards, ShardScratch{});
  }
  const std::size_t words = contaminated_.num_words();

  const graph::Vertex home = prog.homebase;
  for (std::size_t i = 0; i < m; ++i) {
    recs[i] = FRec{prog.agent_offsets[i], prog.agent_offsets[i + 1], home};
  }
  counts_[home] = static_cast<std::uint32_t>(m);
  std::uint64_t contam_count = n;
  if (m > 0) {
    visited_.set(home);
    guarded_.set(home);
    contaminated_.clear(home);
    --contam_count;
  }

  Calendar cal(4096);
  std::uint64_t events = 0;
  std::uint64_t steps = 0;
  SimTime end_time = kTimeZero;
  bool captured = false;
  SimTime capture_time = -1.0;

  // One step of agent a at tick t, pushing through `push` (a calendar
  // push for the leader, a chunk-local list inside P0): park, sleep until
  // the next departure, or start the next traversal (arrival at t + 1).
  const auto step_fast = [&prog, &recs](AgentId a, std::uint32_t t,
                                        auto&& push) {
    FRec& r = recs[a];
    if (r.cur == r.end) {
      r.state = FState::kDone;
      return;
    }
    const MacroProgram::Step& s = prog.steps[r.cur];
    if (t < s.time) {
      r.state = FState::kSleeping;
      push(s.time, a);
      return;
    }
    HCS_ASSERT(r.at == s.from);
    ++r.cur;
    r.state = FState::kInTransit;
    r.moving_to = s.to;
    push(t + 1, a);
  };

  const auto cal_push = [&cal](std::uint32_t time, AgentId a) {
    cal.push(time, a);
  };

  // Spawn steps, in agent order like the event engine's first dispatch.
  for (std::size_t i = 0; i < m; ++i) {
    ++steps;
    step_fast(static_cast<AgentId>(i), 0, cal_push);
  }

  // Ticks below this stay on the fused serial loop: the phase split pays
  // off once a bucket spans the plane (cache-blocked node passes) and
  // feeds every shard (the CLEAN token walk averages ~1 event per tick).
  // A single shard never leaves the fused loop.
  const std::size_t phase_threshold =
      shards > 1 ? std::max<std::size_t>(words, std::size_t{64} * shards)
                 : ~std::size_t{0};
  const unsigned node_shift = plan_.node_shift;
  const std::size_t wps = plan_.words_per_shard;

  std::vector<AgentId> bucket;
  std::uint32_t t = 0;
  while (cal.next(&t, &bucket)) {
    const std::size_t b = bucket.size();
    events += b;
    steps += b;
    end_time = static_cast<SimTime>(t);

    if (b < phase_threshold) {
      // Fused tick. Word-wide pass: for big level sweeps, one O(d * words)
      // neighbour union certifies most releases wholesale -- contamination
      // only shrinks inside a fault-free tick, so a node with no
      // contaminated neighbour at tick start has none now; only frontier
      // nodes need the exact per-release probe.
      const Bitplane* frontier = nullptr;
      if (hc_dim != 0 && b >= words) {
        neighbor_union(contaminated_, hc_dim, &frontier_);
        frontier = &frontier_;
      }
      for (std::size_t k = 0; k < b; ++k) {
        const AgentId a = bucket[k];
        FRec& r = recs[a];
        if (r.state == FState::kInTransit) {
          const graph::Vertex from = r.at;
          const graph::Vertex to = r.moving_to;
          r.at = to;
          r.state = FState::kRunnable;
          ++counts_[to];
          visited_.set(to);
          if (contaminated_.test(to)) {
            contaminated_.clear(to);
            --contam_count;
          }
          guarded_.set(to);
          if (from != to) {
            HCS_ASSERT(counts_[from] > 0);
            if (--counts_[from] == 0) {
              guarded_.clear(from);
              // Exposed: some neighbour (the d XOR partners on a
              // hypercube, the adjacency list elsewhere) is contaminated.
              if ((frontier == nullptr || frontier->test(from)) &&
                  graph::any_neighbor(g, from, [&](graph::Vertex w) {
                    return contaminated_.test(w);
                  })) {
                return false;  // bail to the event engine
              }
            }
          }
          if (!captured && contam_count == 0) {
            captured = true;
            capture_time = static_cast<SimTime>(t);
          }
        } else {
          HCS_ASSERT(r.state == FState::kSleeping);
          r.state = FState::kRunnable;
        }
        step_fast(a, t, cal_push);
      }
      continue;
    }

    // ---- P0: agent phase. Chunks own disjoint agent records (an agent
    // occupies at most one bucket slot per tick); arrival records land at
    // their bucket position, pushes collect per chunk.
    arrivals_.resize(b);
    parallel_shards([&](std::size_t c) {
      ShardScratch& sc = scratch_[c];
      sc.pushes.clear();
      const std::size_t k0 = b * c / shards;
      const std::size_t k1 = b * (c + 1) / shards;
      for (std::size_t k = k0; k < k1; ++k) {
        const AgentId a = bucket[k];
        FRec& r = recs[a];
        if (r.state == FState::kInTransit) {
          arrivals_[k] = Arrival{r.at, r.moving_to};
          r.at = r.moving_to;
          r.state = FState::kRunnable;
        } else {
          HCS_ASSERT(r.state == FState::kSleeping);
          arrivals_[k] = Arrival{kNoArrival, kNoArrival};
          r.state = FState::kRunnable;
        }
        step_fast(a, t, [&sc](std::uint32_t time, AgentId agent) {
          sc.pushes.emplace_back(time, agent);
        });
      }
    });
    // Merging chunk push lists in chunk order restores the fused loop's
    // push order (chunks partition the bucket's positions in order).
    for (unsigned c = 0; c < shards; ++c) {
      for (const auto& [time, agent] : scratch_[c].pushes) {
        cal.push(time, agent);
      }
    }

    // ---- P1: node phase. Every shard replays the full record sequence
    // and applies the updates it owns; per-node update order is the
    // fused loop's because ownership is a partition.
    const std::uint64_t tick_stamp = std::uint64_t{t} << 32;
    parallel_shards([&](std::size_t s) {
      ShardScratch& sc = scratch_[s];
      sc.releases.clear();
      sc.cleans = 0;
      sc.exposed = false;
      const auto cw = cleaned_tick_.words();
      std::fill(cw.begin() + static_cast<std::ptrdiff_t>(s * wps),
                cw.begin() + static_cast<std::ptrdiff_t>((s + 1) * wps), 0);
      for (std::size_t k = 0; k < b; ++k) {
        const Arrival& ar = arrivals_[k];
        if (ar.from == kNoArrival) continue;
        if ((ar.to >> node_shift) == s) {
          ++counts_[ar.to];
          visited_.set(ar.to);
          if (contaminated_.test(ar.to)) {
            contaminated_.clear(ar.to);
            cleaned_tick_.set(ar.to);
            clean_stamp_[ar.to] = tick_stamp | static_cast<std::uint32_t>(k);
            ++sc.cleans;
          }
          guarded_.set(ar.to);
        }
        if (ar.from != ar.to && (ar.from >> node_shift) == s) {
          HCS_ASSERT(counts_[ar.from] > 0);
          if (--counts_[ar.from] == 0) {
            guarded_.clear(ar.from);
            sc.releases.push_back(
                Release{ar.from, static_cast<std::uint32_t>(k)});
          }
        }
      }
    });
    std::uint64_t cleans = 0;
    std::size_t releases = 0;
    for (unsigned s = 0; s < shards; ++s) {
      cleans += scratch_[s].cleans;
      releases += scratch_[s].releases.size();
    }
    contam_count -= cleans;
    if (!captured && contam_count == 0) {
      captured = true;
      capture_time = static_cast<SimTime>(t);
    }

    // ---- P2: exposure certificates. A release at position K was safe
    // iff every neighbour was clean at that moment: not contaminated at
    // end of tick, and not cleaned at a later position this tick.
    if (releases != 0) {
      const Bitplane* frontier = nullptr;
      if (releases >= words) {
        // contamination-at-tick-start = end state + this tick's cleans;
        // its word-sliced neighbour union certifies non-frontier releases
        // wholesale, exactly like the fused loop's frontier plane.
        if (contam_start_.size() != n) contam_start_ = Bitplane(n);
        if (frontier_.size() != n) frontier_ = Bitplane(n);
        parallel_shards([&](std::size_t s) {
          const auto src = contaminated_.words();
          const auto cln = cleaned_tick_.words();
          const auto dst = contam_start_.words();
          for (std::size_t w = s * wps; w < (s + 1) * wps; ++w) {
            dst[w] = src[w] | cln[w];
          }
        });
        parallel_shards([&](std::size_t s) {
          neighbor_union_range(contam_start_, hc_dim, &frontier_, s * wps,
                               (s + 1) * wps);
        });
        frontier = &frontier_;
      }
      parallel_shards([&](std::size_t s) {
        ShardScratch& sc = scratch_[s];
        for (const Release& rel : sc.releases) {
          if (frontier != nullptr && !frontier->test(rel.node)) continue;
          for (unsigned j = 0; j < hc_dim; ++j) {
            const graph::Vertex v = rel.node ^ (graph::Vertex{1} << j);
            const std::uint64_t stamp = clean_stamp_[v];
            if (contaminated_.test(v) ||
                (stamp >= tick_stamp &&
                 static_cast<std::uint32_t>(stamp) > rel.pos)) {
              sc.exposed = true;
              return;
            }
          }
        }
      });
      for (unsigned s = 0; s < shards; ++s) {
        if (scratch_[s].exposed) return false;  // bail to the event engine
      }
    }
  }

  fast_metrics_.agents_spawned = m;
  fast_metrics_.total_moves = prog.steps.size();
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t moves =
        prog.agent_offsets[i + 1] - prog.agent_offsets[i];
    if (moves != 0) fast_metrics_.moves_by_role[prog.role(i)] += moves;
  }
  fast_metrics_.makespan = end_time;
  fast_metrics_.nodes_visited = visited_.popcount();
  fast_metrics_.events_processed = events;
  fast_metrics_.agent_steps = steps;

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
