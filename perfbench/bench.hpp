// hcsbench -- shared pieces of the benchmark program: arguments, seeding,
// statistics, process counters, the result record and the span recorder.
// README.md in this directory documents the workloads and metrics.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace hcsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

[[nodiscard]] inline Clock::time_point after_seconds(Clock::time_point from,
                                                     double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace_event JSON.
  std::string trace_out;
};

/// splitmix64 of (seed, stream): independent, reproducible draws for
/// per-op seeds, universe identities and per-client request streams.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// Sequential splitmix64 generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile that still has at least ten samples beyond it:
/// with n sorted samples, the value at index n - 11.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minflt = 0.0;
};
[[nodiscard]] Usage usage_now();
[[nodiscard]] Usage operator-(const Usage& a, const Usage& b);

/// VmHWM of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Attempted / failed op accounting shared by every workload. A wrong
/// answer is a failed op; `first_error` keeps the first diagnostic.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  /// Counts one op; `error` empty means the output checked out.
  void record(const std::string& error);
  void merge(const Tally& other);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(): the counts, the metrics of
/// its mode (end-to-end untraced, per-layer traced) and a free-form
/// report printed on the line before the result.
struct Result {
  Tally tally;
  std::vector<Metric> metrics;
  hcs::Json report = hcs::Json::object();

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// End-to-end metrics every untraced workload reports; `peak_rss_mb` is
/// read when the timed window ends, before any after-run checking.
void add_end_to_end(Result* result, double setup_s,
                    const std::vector<double>& latencies_ms, double window_s,
                    double peak_rss_mb);

// ------------------------------------------------------------- spans

/// One timed call into a layer. `parent` indexes the same recorder's
/// span vector (-1 for a root); `op` is the recorder-local op id.
struct SpanRec {
  const char* name = "";
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread in-memory span recorder; nothing is written until the run
/// ends (write_chrome_trace).
class Spans {
 public:
  explicit Spans(std::uint32_t tid) : tid_(tid) {}

  void begin_op(std::uint32_t op) { op_ = op; }
  [[nodiscard]] std::int32_t open(const char* name);
  void close(std::int32_t index);

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] const std::vector<SpanRec>& records() const {
    return records_;
  }
  /// Duration of a closed span, in ms.
  [[nodiscard]] double ms(std::int32_t index) const;

 private:
  std::uint32_t tid_;
  std::uint32_t op_ = 0;
  std::vector<SpanRec> records_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Spans& spans, const char* name)
      : spans_(spans), index_(spans.open(name)) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  Spans& spans_;
  std::int32_t index_;
};

/// Per layer name: the time spent in it per op (summed when it runs
/// several times in one op) and the self time, which excludes the time
/// covered by its child spans. Ops in which the layer did not run are
/// absent from its vectors.
struct LayerTimes {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};
[[nodiscard]] std::vector<std::pair<std::string, LayerTimes>> layer_times(
    const std::vector<const Spans*>& recorders);

/// Median of a layer's per-op total (0 when the layer never ran).
[[nodiscard]] double layer_median_ms(
    const std::vector<std::pair<std::string, LayerTimes>>& layers,
    const std::string& name);

/// Report block: per layer, ops seen, median total and median self time.
[[nodiscard]] hcs::Json layer_report(
    const std::vector<std::pair<std::string, LayerTimes>>& layers);

/// Writes the spans of the first `max_ops` ops of every recorder as
/// Chrome trace_event JSON. False when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Spans*>& recorders,
                        std::uint32_t max_ops);

/// Every per-layer metric the benchmark defines, in BENCHMARK.json order,
/// with its unit. A traced run reports all of them; the layers its
/// workload bypasses read 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& per_layer_metrics();

/// Fills every per-layer metric: `values` holds the ones the workload
/// measured, the rest are reported as 0.
void add_per_layer(Result* result,
                   const std::vector<std::pair<std::string, double>>& values);

// --------------------------------------------------------- workloads

Result run_macro(const Args& args);
Result run_event(const Args& args);
Result run_serve(const Args& args);

/// Feeds the output checks one good and one corrupted outcome and one
/// good and one corrupted reply body; true when exactly the corrupted
/// two are counted as failed.
[[nodiscard]] bool self_test(std::string* why);

}  // namespace hcsbench
