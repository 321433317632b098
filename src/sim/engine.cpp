#include "sim/engine.hpp"

#include <algorithm>
#include <string>

#include "fault/reclean.hpp"
#include "sim/recovery.hpp"
#include "util/assert.hpp"

namespace hcs::sim {

// ---------------------------------------------------------------- Engine

Engine::Engine(Network& net, Config cfg)
    : net_(&net),
      cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      fault_sched_(cfg_.faults) {
  waiting_at_.resize(net.num_nodes());
  net_->add_status_callback([this](graph::Vertex v, NodeStatus s, SimTime t) {
    on_status_change(v, s, t);
  });
  if (fault_sched_.active()) {
    wake_count_.assign(net.num_nodes(), 0);
    wb_write_count_.assign(net.num_nodes(), 0);
    wb_journal_.resize(net.num_nodes());
    install_wb_hooks();
  }
}

Engine::~Engine() {
  if (!fault_sched_.active()) return;
  for (graph::Vertex v = 0; v < net_->num_nodes(); ++v) {
    net_->whiteboard(v).set_write_hook({});
  }
}

void Engine::install_wb_hooks() {
  for (graph::Vertex v = 0; v < net_->num_nodes(); ++v) {
    net_->whiteboard(v).set_write_hook(
        [this, v](Whiteboard& wb, WbKey key) {
          const std::uint64_t idx = wb_write_count_[v]++;
          const auto node = static_cast<std::uint32_t>(v);
          if (fault_sched_.lose_write(node, idx)) {
            // Journal the just-committed value: it is what the recovery
            // layer later re-derives from the neighbourhood.
            wb_journal_.note(v, key, wb.get(key));
            wb.erase(key);
            ++degradation_.wb_entries_lost;
            net_->trace().record_lazy(now_, TraceKind::kFault, kNoAgent, v, v,
                                      [&] { return "wb lost: " + wb_key_name(key); });
          } else if (fault_sched_.corrupt_write(node, idx)) {
            wb_journal_.note(v, key, wb.get(key));
            wb.set(key, fault_sched_.corrupt_value(node, idx));
            ++degradation_.wb_entries_corrupted;
            net_->trace().record_lazy(now_, TraceKind::kFault, kNoAgent, v, v,
                                      [&] { return "wb corrupted: " + wb_key_name(key); });
          } else {
            // A good write supersedes any pending repair of this entry.
            wb_journal_.forget(v, key);
          }
        });
  }
}

AgentId Engine::spawn(std::unique_ptr<Agent> agent, graph::Vertex at) {
  HCS_EXPECTS(agent != nullptr);
  HCS_EXPECTS(at < net_->num_nodes());
  const auto id = static_cast<AgentId>(agents_.size());
  AgentRecord rec;
  rec.role = agent->role();
  rec.role_key = wb_key(rec.role);
  rec.fault_exempt = rec.role == "intruder";
  rec.logic = std::move(agent);
  rec.at = at;
  agents_.push_back(std::move(rec));
  agent_state_.push_back(AgentState::kRunnable);
  runnable_.push_back(id);
  ++obs_tallies_.spawns;
  net_->on_agent_placed(id, at, now_);
  wake_node(at);
  return id;
}

graph::Vertex Engine::agent_position(AgentId a) const {
  HCS_EXPECTS(a < agents_.size());
  return agents_[a].at;
}

// Flattened: the dispatch loop is the simulator's innermost loop, and
// folding pick_runnable / step_agent / handle_event / wake_node into one
// frame removes a call boundary per agent step. (The attribute is a GCC /
// Clang extension; other compilers simply ignore it.)
#if defined(__GNUC__)
[[gnu::flatten]]
#endif
void Engine::run_to_quiescence() {
  while (abort_reason_ == AbortReason::kNone) {
    if (runnable_count() != 0) {
      if (steps_taken_ >= cfg_.max_agent_steps) {
        abort_reason_ = AbortReason::kStepCap;
        break;
      }
      if (steps_taken_ - last_progress_step_ > cfg_.livelock_window) {
        abort_reason_ = AbortReason::kLivelock;
        break;
      }
      step_agent(pick_runnable());
      continue;
    }
    if (events_.empty()) break;
    std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
    const Event e = events_.back();
    events_.pop_back();
    HCS_ASSERT(e.time >= now_);
    now_ = e.time;
    ++net_->metrics().events_processed;
    ++obs_tallies_.events;
    handle_event(e);
  }
}

Engine::RunResult Engine::run() {
  // One sink for the whole run: dispatch-loop tallies stay thread-local
  // plain increments and hit the registry exactly once, in obs_flush().
  obs::ScopedSink obs_sink(cfg_.obs);
  obs::Span run_span(cfg_.obs, "engine.run");

  // Size the hot containers once: the event heap holds at most one entry
  // per in-flight agent (plus spurious timers), so a small multiple of the
  // team size removes all mid-run reallocation.
  const std::size_t team = std::max<std::size_t>(64, 2 * agents_.size());
  events_.reserve(team);
  runnable_.reserve(team);

  // Metrics step accounting is settled once per run from the engine-local
  // counter: nothing reads metrics().agent_steps mid-run, and the dispatch
  // loop already maintains steps_taken_ for the step-cap/livelock guards.
  const std::uint64_t steps_before = steps_taken_;

  run_to_quiescence();
  if (fault_sched_.active() && cfg_.recovery.enabled) run_recovery();
  net_->metrics().agent_steps += steps_taken_ - steps_before;

  obs_flush();
  net_->finalize_metrics();

  RunResult result;
  result.abort_reason = abort_reason_;
  result.end_time = now_;
  result.capture_time = capture_time_;
  for (const AgentState state : agent_state_) {
    switch (state) {
      case AgentState::kDone:
        ++result.terminated;
        break;
      case AgentState::kCrashed:
        ++result.crashed;
        break;
      default:
        ++result.waiting;
        break;
    }
  }
  if (fault_sched_.active()) degradation_.agents_stranded = result.waiting;
  result.degradation = degradation_;
  result.all_terminated = result.waiting == 0 && result.crashed == 0 &&
                          abort_reason_ == AbortReason::kNone;
  return result;
}

void Engine::crash_agent(AgentId a, bool counted_at, const char* what) {
  agent_state_[a] = AgentState::kCrashed;
  // Attribute any recontamination flood the lost guard causes to the fault
  // rather than to the protocol.
  const std::uint64_t before = net_->metrics().recontamination_events;
  net_->on_agent_crashed(a, agents_[a].at, now_, counted_at, what);
  degradation_.recontaminations_attributed +=
      net_->metrics().recontamination_events - before;
  last_progress_step_ = steps_taken_;
  bool wake = false;
  for (const auto& cb : crash_observers_) wake = cb(a) || wake;
  if (wake) wake_global();
}

void Engine::restore_whiteboards() {
  if (wb_journal_.empty()) return;
  // The hook may damage a restored write again (the restore is itself a
  // write with its own logical index), refilling the journal for the next
  // round; drain() detaches (and orders) the entries first so the
  // iteration stays valid.
  const auto journal = wb_journal_.drain();
  for (const auto& entry : journal) {
    net_->trace().record_lazy(
        now_, TraceKind::kFault, kNoAgent, entry.node, entry.node,
        [&] { return "wb restored: " + wb_key_name(entry.key); });
    net_->whiteboard(entry.node).set(entry.key, entry.value);
    ++degradation_.wb_faults_detected;
    wake_node(entry.node);
  }
}

void Engine::redeliver_wakes() {
  if (dropped_wake_nodes_.empty()) return;
  std::vector<graph::Vertex> nodes;
  nodes.swap(dropped_wake_nodes_);
  for (graph::Vertex v : nodes) {
    net_->trace().record_lazy(
        now_, TraceKind::kFault, kNoAgent, v, v,
        [] { return std::string("wake re-delivered"); });
    wake_node(v);
  }
}

void Engine::run_recovery() {
  // Detection-and-repair rounds. Each round charges the heartbeat timeout
  // (the synchronizer's cost of declaring missed-rendezvous agents dead),
  // restores journaled whiteboard entries, re-delivers dropped wakes, and
  // dispatches one repair wave over the dirty region; the retry budget is
  // bounded and the timeout backs off every round.
  obs::Span recovery_span(cfg_.obs, "engine.recovery");
  double timeout = cfg_.recovery.detect_timeout;
  while (abort_reason_ == AbortReason::kNone &&
         (!net_->all_clean() || !dropped_wake_nodes_.empty() ||
          !wb_journal_.empty())) {
    if (degradation_.recovery_rounds >= cfg_.recovery.max_rounds) {
      if (!net_->all_clean()) {
        abort_reason_ = AbortReason::kFaultUnrecoverable;
      }
      break;
    }
    ++degradation_.recovery_rounds;
    const SimTime round_start = now_;
    const std::uint64_t moves_before = net_->metrics().total_moves;

    now_ += timeout;
    if (cfg_.obs != nullptr) {
      // Detection latency is the heartbeat timeout actually charged this
      // round (it backs off), in sim-time units.
      cfg_.obs->hist_record("recovery.detect_latency", timeout);
    }
    timeout *= cfg_.recovery.backoff;
    degradation_.crashes_detected = net_->metrics().agents_crashed;

    restore_whiteboards();
    redeliver_wakes();

    if (!net_->all_clean()) {
      std::vector<bool> contaminated(net_->num_nodes());
      for (graph::Vertex v = 0; v < net_->num_nodes(); ++v) {
        contaminated[v] = net_->status(v) == NodeStatus::kContaminated;
      }
      const fault::RecleanPlan plan =
          fault::plan_reclean(net_->graph(), net_->homebase(), contaminated);
      const std::size_t wave = spawn_repair_wave(*this, plan);
      degradation_.repair_agents += wave;
      if (cfg_.obs != nullptr) {
        cfg_.obs->hist_record("recovery.wave_size",
                              static_cast<double>(wave));
        cfg_.obs->counter_add("recovery.waves");
      }
    }

    run_to_quiescence();

    degradation_.recovery_moves +=
        net_->metrics().total_moves - moves_before;
    degradation_.recovery_time += now_ - round_start;
    if (cfg_.obs != nullptr) {
      cfg_.obs->hist_record("recovery.round_sim_time", now_ - round_start);
    }
  }
  // Persistent faults count as recovered when their damage is provably
  // gone: restored whiteboard entries always, detected crashes only when
  // the repair waves actually got the network clean again.
  degradation_.faults_recovered = degradation_.wb_faults_detected;
  if (net_->all_clean()) {
    degradation_.faults_recovered += degradation_.crashes_detected;
  }
}

AgentId Engine::pick_runnable() {
  HCS_ASSERT(runnable_count() > 0);
  std::size_t idx = runnable_head_;
  switch (cfg_.policy) {
    case WakePolicy::kFifo:
      break;
    case WakePolicy::kRandom:
      // Draw over the *logical* count so the RNG stream is identical to
      // the pre-head-index implementation (runs stay replayable across
      // versions).
      idx = runnable_head_ + static_cast<std::size_t>(rng_.below(runnable_count()));
      break;
  }
  const AgentId a = runnable_[idx];
  if (idx == runnable_head_) {
    // FIFO pop (and the kRandom draw of the front): O(1), no shifting.
    ++runnable_head_;
  } else {
    // Middle removal keeps relative order, as the old erase did.
    runnable_.erase(runnable_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  // Compact the spent prefix once it dominates the vector; amortized O(1).
  if (runnable_head_ >= 64 && runnable_head_ * 2 >= runnable_.size()) {
    runnable_.erase(runnable_.begin(),
                    runnable_.begin() + static_cast<std::ptrdiff_t>(runnable_head_));
    runnable_head_ = 0;
  }
  return a;
}

void Engine::step_agent(AgentId a) {
  HCS_ASSERT(agent_state_[a] == AgentState::kRunnable);
  ++steps_taken_;

  // step() may clone, which push_backs into agents_ and can reallocate:
  // take the logic pointer (the Agent object itself never moves) and
  // re-fetch the record afterwards instead of holding a reference across
  // the call.
  AgentContext ctx(*this, a, agents_[a].at);
  const Action action = agents_[a].logic->step(ctx);
  AgentRecord& rec = agents_[a];

  switch (action.kind) {
    case Action::Kind::kMove: {
      const graph::Vertex from = rec.at;
      graph::Vertex to;
      // Fault gate: each traversal decision is one crash/stall opportunity,
      // keyed on the agent's logical move counter.
      const bool faultable = fault_sched_.active() && !rec.fault_exempt;
      if (action.dest.has_value()) {
        to = *action.dest;
        // Range check first: has_edge requires both ends to be vertices,
        // and a corrupted whiteboard value can name one past the cube.
        if (to >= net_->num_nodes() || !net_->graph().has_edge(from, to)) {
          // With faults active, a non-neighbour destination is the
          // expected consequence of a protocol reading damaged whiteboard
          // state (destinations are whiteboard-derived in every paper
          // strategy): the agent is lost to the fault, not a protocol
          // bug, so it crash-stops into the recovery machinery instead of
          // taking down the process.
          HCS_ASSERT(faultable && "move_to target is not a neighbour");
          ++degradation_.crashes;
          crash_agent(a, /*counted_at=*/true,
                      "crash-stop at node (invalid move target)");
          break;
        }
      } else {
        to = net_->graph().neighbor_via(from, action.port);
      }
      const std::uint64_t move_index = rec.moves++;
      if (faultable && fault_sched_.crash_at_node(a, move_index)) {
        ++degradation_.crashes;
        crash_agent(a, /*counted_at=*/true, "crash-stop at node");
        break;
      }
      agent_state_[a] = AgentState::kInTransit;
      rec.moving_to = to;
      if (faultable && fault_sched_.crash_in_transit(a, move_index)) {
        ++degradation_.crashes;
        ++degradation_.crashes_in_transit;
        rec.crash_on_arrival = true;
      }
      ++obs_tallies_.move_starts;
      net_->on_agent_departed(a, from, to, now_, rec.role_key);
      wake_node(from);
      SimTime dt = cfg_.delay.sample(rng_);
      if (faultable && fault_sched_.stall_link(a, move_index)) {
        ++degradation_.links_stalled;
        dt *= fault_sched_.stall_factor();
        net_->trace().record(
            {now_, TraceKind::kFault, a, from, to, "link stalled"});
      }
      schedule(a, now_ + dt);
      last_progress_step_ = steps_taken_;
      break;
    }
    case Action::Kind::kWait:
      agent_state_[a] = AgentState::kWaiting;
      waiting_at_[rec.at].push_back(a);
      break;
    case Action::Kind::kWaitGlobal:
      agent_state_[a] = AgentState::kWaitingGlobal;
      waiting_global_.push_back(a);
      break;
    case Action::Kind::kIdle:
      HCS_ASSERT(action.duration >= 0);
      agent_state_[a] = AgentState::kSleeping;
      schedule(a, now_ + action.duration);
      break;
    case Action::Kind::kTerminate:
      agent_state_[a] = AgentState::kDone;
      ++obs_tallies_.terminations;
      net_->on_agent_terminated(a, rec.at, now_);
      last_progress_step_ = steps_taken_;
      break;
  }
}

void Engine::handle_event(const Event& e) {
  AgentRecord& rec = agents_[e.agent];
  switch (agent_state_[e.agent]) {
    case AgentState::kInTransit: {
      if (rec.crash_on_arrival) {
        // The agent died mid-edge: it never arrives. Under kAtomicArrival
        // it was still guarding its origin (rec.at); under
        // kVacateOnDeparture the origin was already released at departure.
        rec.crash_on_arrival = false;
        crash_agent(e.agent,
                    net_->move_semantics() == MoveSemantics::kAtomicArrival,
                    "crash-stop in transit");
        break;
      }
      const graph::Vertex from = rec.at;
      rec.at = rec.moving_to;
      agent_state_[e.agent] = AgentState::kRunnable;
      runnable_.push_back(e.agent);
      ++obs_tallies_.move_ends;
      net_->on_agent_arrived(e.agent, rec.at, from, now_);
      wake_node(rec.at);
      wake_node(from);
      if (!captured_ && net_->all_clean()) {
        captured_ = true;
        capture_time_ = now_;
        net_->trace().record_lazy(
            now_, TraceKind::kCustom, e.agent, rec.at, rec.at,
            [] { return std::string("network clean: intruder captured"); });
      }
      break;
    }
    case AgentState::kSleeping:
      agent_state_[e.agent] = AgentState::kRunnable;
      runnable_.push_back(e.agent);
      break;
    case AgentState::kRunnable:
    case AgentState::kWaiting:
    case AgentState::kWaitingGlobal:
    case AgentState::kCrashed:
    case AgentState::kDone:
      // Spurious event for an agent whose state already changed (e.g. a
      // waiting agent woken before its timer); ignore.
      break;
  }
}

void Engine::make_runnable(AgentId a) {
  const AgentState s = agent_state_[a];
  if (s != AgentState::kWaiting && s != AgentState::kWaitingGlobal) return;
  agent_state_[a] = AgentState::kRunnable;
  runnable_.push_back(a);
}

void Engine::wake_node(graph::Vertex v) {
  auto& waiters = waiting_at_[v];
  if (waiters.empty()) return;
  ++obs_tallies_.node_wakes;
  if (fault_sched_.active()) {
    // Only wakes with someone listening count as fault opportunities, so
    // the logical index is runtime-independent.
    const std::uint64_t idx = wake_count_[v]++;
    if (fault_sched_.drop_wake(static_cast<std::uint32_t>(v), idx)) {
      ++degradation_.wakes_dropped;
      dropped_wake_nodes_.push_back(v);
      net_->trace().record(
          {now_, TraceKind::kFault, kNoAgent, v, v, "wake dropped"});
      return;
    }
  }
  // Waiters re-register if their condition is still unmet, so detach the
  // current list first. Member scratch instead of a fresh vector: the swap
  // circulates buffers between the per-node lists and the scratch, so a
  // steady-state run never allocates here. make_runnable cannot re-enter
  // wake_node (it only pushes to runnable_); the guard asserts that.
  HCS_ASSERT(!in_wake_);
  in_wake_ = true;
  wake_scratch_.clear();
  wake_scratch_.swap(waiters);
  for (AgentId a : wake_scratch_) make_runnable(a);
  in_wake_ = false;
}

void Engine::wake_global() {
  ++obs_tallies_.global_wakes;
  wake_global_scratch_.clear();
  wake_global_scratch_.swap(waiting_global_);
  for (AgentId a : wake_global_scratch_) make_runnable(a);
}

void Engine::on_status_change(graph::Vertex v, NodeStatus /*s*/,
                              SimTime /*t*/) {
  ++obs_tallies_.status_changes;
  wake_node(v);
  if (cfg_.visibility) {
    graph::for_each_neighbor(net_->graph(), v,
                             [this](graph::Vertex w) { wake_node(w); });
  }
}

void Engine::schedule(AgentId a, SimTime at) {
  events_.push_back(Event{at, next_seq_++, a});
  std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
  if (events_.size() > obs_tallies_.peak_queue) {
    obs_tallies_.peak_queue = events_.size();
  }
}

void Engine::obs_sim_phase(const std::string& track, std::string name) {
  if (cfg_.obs == nullptr) return;
  ObsPhase* open = nullptr;
  for (ObsPhase& p : obs_phases_) {
    if (p.track == track) {
      open = &p;
      break;
    }
  }
  if (open == nullptr) {
    obs_phases_.push_back(ObsPhase{track, {}, now_});
    open = &obs_phases_.back();
  }
  if (!open->name.empty()) {
    cfg_.obs->sim_span(open->name, track, open->start, now_);
  }
  open->name = std::move(name);
  open->start = now_;
}

void Engine::obs_flush() {
  if constexpr (!obs::kEnabled) return;
  obs::Registry* obs = cfg_.obs;
  if (obs == nullptr) return;

  // Per-TraceKind dispatch counts (live even when tracing is off).
  obs->counter_add("engine.trace.spawn", obs_tallies_.spawns);
  obs->counter_add("engine.trace.move_start", obs_tallies_.move_starts);
  obs->counter_add("engine.trace.move_end", obs_tallies_.move_ends);
  obs->counter_add("engine.trace.status_change", obs_tallies_.status_changes);
  obs->counter_add("engine.trace.whiteboard", obs_tallies_.wb_writes);
  obs->counter_add("engine.trace.terminate", obs_tallies_.terminations);
  obs->counter_add("engine.trace.custom", obs_tallies_.customs);
  obs->counter_add("engine.trace.fault", degradation_.injected_total());

  obs->counter_add("engine.steps", steps_taken_);
  obs->counter_add("engine.events", obs_tallies_.events);
  obs->counter_add("engine.wakes.node", obs_tallies_.node_wakes);
  obs->counter_add("engine.wakes.global", obs_tallies_.global_wakes);
  obs->gauge_max("engine.queue_depth.peak",
                 static_cast<double>(obs_tallies_.peak_queue));

  // Close any strategy phase still open at the end of the run. Sorted by
  // track so the flush order matches the old map-keyed implementation.
  std::sort(obs_phases_.begin(), obs_phases_.end(),
            [](const ObsPhase& a, const ObsPhase& b) { return a.track < b.track; });
  for (ObsPhase& open : obs_phases_) {
    if (!open.name.empty()) {
      obs->sim_span(open.name, open.track, open.start, now_);
      open.name.clear();
    }
  }
  obs_tallies_ = {};
}

// --------------------------------------------------------- AgentContext

AgentContext::AgentContext(Engine& engine, AgentId self, graph::Vertex here)
    : engine_(engine), self_(self), here_(here) {}

void AgentContext::wb_erase(WbKey key) {
  engine_.network().whiteboard(here_).erase(key);
  engine_.wake_node(here_);
}

std::int64_t AgentContext::wb_get_at(graph::Vertex v, WbKey key,
                                     std::int64_t fallback) const {
  if (v != here_) {
    HCS_EXPECTS(engine_.config().visibility &&
                "neighbour whiteboards require the visibility model");
    HCS_EXPECTS(engine_.network().graph().has_edge(here_, v));
  }
  return engine_.network().whiteboard(v).get(key, fallback);
}

void AgentContext::wb_set_at(graph::Vertex v, WbKey key, std::int64_t value) {
  if (v != here_) {
    HCS_EXPECTS(engine_.config().visibility &&
                "neighbour whiteboards require the visibility model");
    HCS_EXPECTS(engine_.network().graph().has_edge(here_, v));
  }
  engine_.network().whiteboard(v).set(key, value);
  ++engine_.obs_tallies_.wb_writes;
  if (Trace& trace = engine_.network().trace(); trace.enabled()) {
    trace.record({now(), TraceKind::kWhiteboard, self_, v, v,
                  wb_key_name(key)});
  }
  engine_.wake_node(v);
}

std::int64_t AgentContext::wb_get(const std::string& key,
                                  std::int64_t fallback) const {
  return wb_get(wb_key(key), fallback);
}

void AgentContext::wb_set(const std::string& key, std::int64_t value) {
  wb_set(wb_key(key), value);
}

std::int64_t AgentContext::wb_add(const std::string& key,
                                  std::int64_t delta) {
  return wb_add(wb_key(key), delta);
}

void AgentContext::wb_erase(const std::string& key) { wb_erase(wb_key(key)); }

std::int64_t AgentContext::wb_get_at(graph::Vertex v, const std::string& key,
                                     std::int64_t fallback) const {
  return wb_get_at(v, wb_key(key), fallback);
}

void AgentContext::wb_set_at(graph::Vertex v, const std::string& key,
                             std::int64_t value) {
  wb_set_at(v, wb_key(key), value);
}

void AgentContext::note(const std::string& detail) {
  ++engine_.obs_tallies_.customs;
  if (Trace& trace = engine_.network().trace(); trace.enabled()) {
    trace.record({now(), TraceKind::kCustom, self_, here_, here_, detail});
  }
}

AgentId AgentContext::clone(std::unique_ptr<Agent> copy) {
  return engine_.spawn(std::move(copy), here_);
}

void AgentContext::broadcast_signal() { engine_.wake_global(); }

void AgentContext::obs_count(std::string_view name, std::uint64_t delta) {
  if (obs::Registry* obs = engine_.config().obs) obs->counter_add(name, delta);
}

void AgentContext::obs_phase(const std::string& track,
                             const std::string& name) {
  engine_.obs_sim_phase(track, name);
}

}  // namespace hcs::sim
