// hcsbench -- the repository benchmark program.
//
//   hcsbench --workload macro_clean|macro_vis|event_random|serve_zipf
//            --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints one report line (workload shape, set-ups, tail percentile and
// sample count, layer table when traced) and, last, the result line:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any op's output is wrong, 2 on bad arguments.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

bool parse_args(int argc, char** argv, hcsbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  hcsbench::Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hcsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }

  // glibc raises its mmap threshold each time it frees a large mapped
  // block, so whether a later block is freshly mapped (and faulted in) or
  // reused from the heap depends on how many ops ran before it. Runs of
  // the same code landed in different fault regimes: a CLEAN H_18 op took
  // 101k to 124k minor faults depending on the run, and serve_zipf's peak
  // RSS moved by up to 25% between seeds. Pinning the threshold at glibc's
  // default turns the adjustment off: every op then maps its large blocks
  // afresh, as the first op of a new process does (142k faults per CLEAN
  // H_18 op, in every run).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::string why;
  if (!hcsbench::self_test(&why)) {
    std::fprintf(stderr, "hcsbench: %s\n", why.c_str());
    return 1;
  }

  hcsbench::Result result;
  if (args.workload == "macro_clean" || args.workload == "macro_vis") {
    result = hcsbench::run_macro(args);
  } else if (args.workload == "event_random") {
    result = hcsbench::run_event(args);
  } else if (args.workload == "serve_zipf") {
    result = hcsbench::run_serve(args);
  } else {
    std::fprintf(stderr, "hcsbench: unknown workload \"%s\"\n",
                 args.workload.c_str());
    return 2;
  }

  const hcsbench::Tally& tally = result.tally;
  const bool correct = tally.attempted > 0 && tally.failed == 0;
  result.report.set("seed", args.seed);
  result.report.set("seconds", args.seconds);
  result.report.set("trace", args.trace);
  if (!tally.first_error.empty()) {
    result.report.set("first_error", tally.first_error);
  }
  hcs::Json report = hcs::Json::object();
  report.set("report", std::move(result.report));
  std::printf("%s\n", report.dump_compact().c_str());

  hcs::Json metrics = hcs::Json::object();
  for (const hcsbench::Metric& m : result.metrics) {
    hcs::Json entry = hcs::Json::object();
    entry.set("value", std::isfinite(m.value) ? m.value : 0.0);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  hcs::Json line = hcs::Json::object();
  line.set("correct", correct);
  line.set("attempted", tally.attempted);
  line.set("failed", tally.failed);
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump_compact().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "hcsbench: %llu of %llu ops failed: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 tally.first_error.c_str());
    return 1;
  }
  return 0;
}
