// sim::RunOptions -- the one options struct for a simulated run. This is
// what Engine consumes as its Config and what the core harness / Session
// accept as SimRunConfig: every toggle that used to be its own setter or
// per-layer field (trace on/off, move-semantics ablation, fault workload,
// observability registry) lives here, so adding an option never changes a
// runtime signature again.
//
// Field order is append-only within each historical group: existing
// designated initializers ({.visibility = true}, {.trace = true, ...})
// rely on declaration order.

#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/delay.hpp"
#include "sim/network.hpp"

namespace hcs::sim {

/// Which runnable agent steps next: kFifo gives deterministic runs,
/// kRandom explores adversarial interleavings.
enum class WakePolicy : std::uint8_t { kFifo, kRandom };

/// Which executor runs a strategy (harness-level; see sim/shard.hpp and
/// hcs::Session):
///  * kEvent -- the discrete-event Engine stepping the distributed
///    protocol agent-by-agent (the default, and the reference semantics);
///  * kMacro -- the macro-step engine executing the strategy's compiled
///    MacroProgram over packed bitplanes; requires a macro-capable
///    strategy, the FIFO wake policy and the unit delay model;
///  * kAuto -- kMacro whenever the run is eligible, kEvent otherwise.
enum class EngineKind : std::uint8_t { kEvent, kMacro, kAuto };

[[nodiscard]] constexpr const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kEvent: return "event";
    case EngineKind::kMacro: return "macro";
    case EngineKind::kAuto: return "auto";
  }
  return "?";
}

struct RunOptions {
  DelayModel delay = DelayModel::unit();
  WakePolicy policy = WakePolicy::kFifo;
  std::uint64_t seed = 1;
  /// Record the full event trace (sim::Trace on the Network). Applied by
  /// the harness layers (Session / run_strategy_sim); the Engine itself
  /// never flips the Network's trace switch.
  bool trace = false;
  /// Enables the Section 4 model: neighbour status/whiteboard reads and
  /// neighbour-change wake-ups.
  bool visibility = false;
  /// Hand-over semantics ablation (docs/MODEL.md); applied by the harness
  /// layers, like `trace`.
  MoveSemantics semantics = MoveSemantics::kAtomicArrival;
  /// Abort guard against pathologically slow protocols.
  std::uint64_t max_agent_steps = 200'000'000;
  /// Livelock guard: abort when this many consecutive agent steps pass
  /// without progress (no departure, no crash, no termination).
  std::uint64_t livelock_window = 1'000'000;
  /// Fault workload injected into this run. An empty spec never draws a
  /// decision and leaves the run byte-identical to the fault-free engine.
  fault::FaultSpec faults;
  /// Recovery policy applied when the fault schedule is active.
  fault::RecoveryConfig recovery;
  /// Observability sink; nullptr (the default) disables all collection.
  /// Non-owning -- the registry must outlive the run.
  obs::Registry* obs = nullptr;
  /// Executor selection, resolved by the harness layers (Session / sweep
  /// runner); the event Engine itself ignores it. kEvent preserves the
  /// historical behaviour for every existing call site.
  EngineKind engine = EngineKind::kEvent;
  /// Subcube shards for the macro executor's fast path (sim/shard.hpp):
  /// 1 = one shard, every tick run inline (the default), 0 = auto
  /// (min(hardware threads, 2^(d-10))), N = round down to a power of two.
  /// Purely an execution detail -- results are byte-identical at any value
  /// and it never enters hcs::CellKey (so the hcsd cache key does not see
  /// it). The event engine ignores it.
  std::uint32_t shards = 1;
};

}  // namespace hcs::sim
