#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <tuple>

namespace hcsbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.next();
  return rng.next();
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  // Fewer than 11 samples leave no value with ten beyond it; the maximum
  // is then the best available (and reported with percentile 100).
  const std::size_t n = values.size();
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  t.value = values[index];
  t.percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return t;
}

Usage usage_now() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(r.ru_utime), ms(r.ru_stime), static_cast<double>(r.ru_minflt)};
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_ms - b.user_ms, a.sys_ms - b.sys_ms, a.minflt - b.minflt};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Tally::record(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (first_error.empty()) first_error = error;
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  if (first_error.empty()) first_error = other.first_error;
}

void add_end_to_end(Result* result, double setup_s,
                    const std::vector<double>& latencies_ms, double window_s,
                    double peak_rss) {
  const Tail t = tail(latencies_ms);
  result->add("setup_s", setup_s, "s");
  result->add("lat_p50_ms", median(latencies_ms), "ms");
  result->add("lat_tail_ms", t.value, "ms");
  result->add("ops_per_s",
              static_cast<double>(latencies_ms.size()) / window_s, "1/s");
  result->add("peak_rss_mb", peak_rss, "MiB");
  hcs::Json tail_info = hcs::Json::object();
  tail_info.set("percentile", t.percentile);
  tail_info.set("samples", static_cast<std::uint64_t>(t.samples));
  result->report.set("lat_tail", std::move(tail_info));
  result->report.set("window_s", window_s);
}

// ------------------------------------------------------------- spans

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t Spans::open(const char* name) {
  SpanRec rec;
  rec.name = name;
  rec.op = op_;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start_ns = now_ns();
  records_.push_back(rec);
  const auto index = static_cast<std::int32_t>(records_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Spans::close(std::int32_t index) {
  records_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

double Spans::ms(std::int32_t index) const {
  const SpanRec& rec = records_[static_cast<std::size_t>(index)];
  return static_cast<double>(rec.end_ns - rec.start_ns) / 1e6;
}

std::vector<std::pair<std::string, LayerTimes>> layer_times(
    const std::vector<const Spans*>& recorders) {
  // (layer, tid, op) -> summed total / self ms.
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
           std::pair<double, double>>
      per_op;
  for (const Spans* spans : recorders) {
    const std::vector<SpanRec>& recs = spans->records();
    std::vector<double> child_ms(recs.size(), 0.0);
    for (const SpanRec& rec : recs) {
      if (rec.parent >= 0) {
        child_ms[static_cast<std::size_t>(rec.parent)] +=
            static_cast<double>(rec.end_ns - rec.start_ns) / 1e6;
      }
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const double total =
          static_cast<double>(recs[i].end_ns - recs[i].start_ns) / 1e6;
      auto& slot = per_op[{recs[i].name, spans->tid(), recs[i].op}];
      slot.first += total;
      slot.second += total - child_ms[i];
    }
  }
  std::map<std::string, LayerTimes> by_layer;
  for (const auto& [key, times] : per_op) {
    LayerTimes& layer = by_layer[std::get<0>(key)];
    layer.total_ms.push_back(times.first);
    layer.self_ms.push_back(times.second);
  }
  return {by_layer.begin(), by_layer.end()};
}

double layer_median_ms(
    const std::vector<std::pair<std::string, LayerTimes>>& layers,
    const std::string& name) {
  for (const auto& [layer, times] : layers) {
    if (layer == name) return median(times.total_ms);
  }
  return 0.0;
}

hcs::Json layer_report(
    const std::vector<std::pair<std::string, LayerTimes>>& layers) {
  hcs::Json out = hcs::Json::object();
  for (const auto& [name, times] : layers) {
    hcs::Json row = hcs::Json::object();
    row.set("ops", static_cast<std::uint64_t>(times.total_ms.size()));
    row.set("median_ms", median(times.total_ms));
    row.set("self_median_ms", median(times.self_ms));
    out.set(name, std::move(row));
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Spans*>& recorders,
                        std::uint32_t max_ops) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t epoch = 0;
  bool have_epoch = false;
  for (const Spans* spans : recorders) {
    for (const SpanRec& rec : spans->records()) {
      if (!have_epoch || rec.start_ns < epoch) epoch = rec.start_ns;
      have_epoch = true;
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Spans* spans : recorders) {
    const std::vector<SpanRec>& recs = spans->records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const SpanRec& rec = recs[i];
      if (rec.op >= max_ops) continue;
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                   "\"span\":%zu,\"parent\":%d}}",
                   first ? "" : ",", rec.name, spans->tid(),
                   static_cast<double>(rec.start_ns - epoch) / 1e3,
                   static_cast<double>(rec.end_ns - rec.start_ns) / 1e3,
                   rec.op, i, rec.parent);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"graph.build_ms", "ms"},
      {"net.init_ms", "ms"},
      {"plan.build_ms", "ms"},
      {"program.compile_ms", "ms"},
      {"replay.run_ms", "ms"},
      {"outcome.assemble_ms", "ms"},
      {"team.spawn_ms", "ms"},
      {"engine.run_ms", "ms"},
      {"op.self_ms", "ms"},
      {"graph.bytes", "bytes"},
      {"plan.bytes", "bytes"},
      {"program.bytes", "bytes"},
      {"plan.moves", "count"},
      {"program.horizon", "count"},
      {"replay.fast_share", "ratio"},
      {"op.user_ms", "ms"},
      {"op.sys_ms", "ms"},
      {"op.minflt", "count"},
      {"engine.events", "count"},
      {"engine.agent_steps", "count"},
      {"engine.moves", "count"},
      {"engine.moves_per_step", "ratio"},
      {"serve.transport_us", "us"},
      {"serve.handle_us", "us"},
      {"serve.parse_us", "us"},
      {"serve.admit_us", "us"},
      {"serve.admit_macro_ms", "ms"},
      {"serve.key_us", "us"},
      {"serve.cache_us", "us"},
      {"serve.exec_ms", "ms"},
      {"serve.encode_us", "us"},
      {"serve.hit_share", "ratio"},
      {"serve.macro_share", "ratio"},
      {"serve.executions", "count"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"serve.errors", "count"},
      {"serve.evictions", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void add_per_layer(Result* result,
                   const std::vector<std::pair<std::string, double>>& values) {
  for (const LayerMetric& metric : per_layer_metrics()) {
    double value = 0.0;
    for (const auto& [name, measured] : values) {
      if (name == metric.name) value = measured;
    }
    result->add(metric.name, value, metric.unit);
  }
}

}  // namespace hcsbench
