// hcs::run -- the parameter-sweep execution layer.
//
// The workload behind every table in the paper (and every capacity-planning
// question the ROADMAP cares about) is a cartesian grid: strategy x
// dimension x seed x delay model x wake policy x move semantics, one
// independent simulation per cell. SweepSpec names the grid, SweepRunner
// executes it across a worker thread pool (util/thread_pool.hpp), and
// SweepResult holds one cell per grid point in a deterministic row-major
// order.
//
// Determinism: a cell's entire configuration -- including the engine RNG
// seed -- is a pure function of the spec, never of thread scheduling, and
// every cell simulation builds its own Graph/Network/Engine (no shared
// mutable state). A sweep therefore produces bit-identical results at any
// thread count, and each cell equals a direct run_strategy_sim call with
// the same configuration; tests/test_sweep.cpp asserts both. The same
// property is why sweeps are not checkpointed: a killed sweep resumes by
// running it again, which reproduces it byte for byte.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.hpp"
#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace hcs {
class Json;  // util/json.hpp
}  // namespace hcs

namespace hcs::run {

/// A serializable description of a DelayModel (DelayModel itself is an
/// opaque sampler; sweeps need enumerable, printable configurations).
struct DelaySpec {
  enum class Kind : std::uint8_t { kUnit, kUniform, kHeavyTailed };
  Kind kind = Kind::kUnit;
  double lo = 0.0;  ///< uniform bounds; unused otherwise
  double hi = 0.0;

  static DelaySpec unit() { return {}; }
  static DelaySpec uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi};
  }
  static DelaySpec heavy_tailed() { return {Kind::kHeavyTailed, 0.0, 0.0}; }

  [[nodiscard]] sim::DelayModel make() const;
  /// "unit", "uniform(0.2,3)", "heavy-tailed".
  [[nodiscard]] std::string label() const;
};

/// The one reader of a delay from untrusted JSON (hcsd requests and fuzz
/// artifacts): a "unit" / "heavy-tailed" shorthand string, or an object
/// {"kind", "lo", "hi"}. "lo" and "hi" must be numbers where present; a
/// uniform delay needs both, finite, with 0 < lo < hi (DelayModel's
/// precondition), and the other kinds keep them as given so a parsed
/// document re-serializes unchanged. Returns false with a diagnostic
/// instead of aborting; `out` is untouched then.
[[nodiscard]] bool parse_delay(const Json& json, DelaySpec* out,
                               std::string* error = nullptr);

/// The cartesian grid. Axis order (slowest to fastest varying in the cell
/// enumeration): strategies, dimensions, seeds, delays, policies,
/// semantics, faults, engines. Strategy names resolve through the
/// StrategyRegistry.
struct SweepSpec {
  std::vector<std::string> strategies;
  std::vector<unsigned> dimensions;
  std::vector<std::uint64_t> seeds = {1};
  std::vector<DelaySpec> delays = {DelaySpec::unit()};
  std::vector<sim::Engine::WakePolicy> policies = {
      sim::Engine::WakePolicy::kFifo};
  std::vector<sim::MoveSemantics> semantics = {
      sim::MoveSemantics::kAtomicArrival};
  /// Fault axis: one full sub-grid per workload. The default single empty
  /// spec reproduces the pre-fault grid exactly (cell-for-cell).
  std::vector<fault::FaultSpec> faults = {fault::FaultSpec::none()};
  /// Executor axis (sim/options.hpp EngineKind): kEvent runs the
  /// discrete-event protocol, kMacro the strategy's compiled macro
  /// program, kAuto resolves per cell. The default single-kEvent axis
  /// reproduces the historical grid cell-for-cell.
  std::vector<sim::EngineKind> engines = {sim::EngineKind::kEvent};
  /// Recovery policy applied to every faulty cell.
  fault::RecoveryConfig recovery;
  /// Livelock guard applied to every cell (SimOutcome::abort_reason on
  /// excess).
  std::uint64_t max_agent_steps = 200'000'000;
  /// Subcube shards for every macro-executor cell (sim/shard.hpp): 1 =
  /// serial, 0 = auto, N = rounded down to a power of two. An execution
  /// detail, not a grid axis -- outcomes are byte-identical at any value,
  /// so it never changes cell enumeration or identity.
  std::uint32_t shards = 1;

  [[nodiscard]] std::size_t num_cells() const;
};

/// One grid point: the coordinates plus the measured outcome.
struct SweepCell {
  std::string strategy;
  unsigned dimension = 0;
  std::uint64_t seed = 0;
  DelaySpec delay;
  sim::Engine::WakePolicy policy = sim::Engine::WakePolicy::kFifo;
  sim::MoveSemantics semantics = sim::MoveSemantics::kAtomicArrival;
  fault::FaultSpec faults;
  /// Requested executor; the resolved one is outcome.engine_used.
  sim::EngineKind engine = sim::EngineKind::kEvent;
  core::SimOutcome outcome;
};

/// Per-strategy aggregate over every cell of that strategy (util/stats).
struct StrategySummary {
  std::string strategy;
  std::uint64_t cells = 0;
  std::uint64_t correct_cells = 0;   ///< outcome.correct()
  std::uint64_t captured_cells = 0;  ///< outcome.captured() (incl. degraded)
  std::uint64_t aborted_cells = 0;   ///< abort_reason != kNone
  std::uint64_t recontaminations = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t recovery_moves = 0;
  StatAccumulator team_size;
  StatAccumulator total_moves;
  StatAccumulator makespan;
};

struct SweepResult {
  SweepSpec spec;
  /// One entry per grid point, in SweepSpec enumeration order.
  std::vector<SweepCell> cells;

  /// First cell matching (strategy, dimension), nullptr when absent.
  /// Strategy matching is exact on the registry name.
  [[nodiscard]] const SweepCell* find(const std::string& strategy,
                                      unsigned dimension) const;

  /// Per-strategy aggregates, in spec.strategies order.
  [[nodiscard]] std::vector<StrategySummary> summarize() const;
};

/// Executes every cell of a spec across a worker pool. Results are
/// bit-identical at any thread count (see the header comment).
class SweepRunner {
 public:
  struct Config {
    /// Worker threads; 0 = hardware concurrency.
    unsigned threads = 0;
    /// Observability sink (non-owning; nullptr disables collection). Each
    /// cell records its wall duration into the "sweep.cell_us" and
    /// per-strategy "sweep.cell_us.<strategy>" histograms plus the
    /// "sweep.cells" / "sweep.cells.correct" / "sweep.cells.aborted"
    /// counters. Workers accumulate into per-thread sinks, so counter and
    /// histogram totals are identical at any thread count (only span
    /// interleaving varies).
    obs::Registry* obs = nullptr;
  };

  SweepRunner() = default;
  explicit SweepRunner(Config config) : config_(std::move(config)) {}

  [[nodiscard]] SweepResult run(const SweepSpec& spec) const;

 private:
  Config config_;
};

/// The cell a spec enumerates at `index` (outcome not populated): the
/// coordinate decode used by the runner, exposed for tests and tools.
[[nodiscard]] SweepCell sweep_cell_at(const SweepSpec& spec,
                                      std::size_t index);

/// Runs one cell directly (no pool): exactly what the runner executes.
/// `obs` (optional) receives the cell's duration histogram and outcome
/// counters as described on SweepRunner::Config.
[[nodiscard]] SweepCell run_sweep_cell(const SweepSpec& spec,
                                       std::size_t index,
                                       obs::Registry* obs = nullptr);

}  // namespace hcs::run
