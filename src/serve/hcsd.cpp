// hcsd -- the content-addressed caching simulation server (docs/SERVING.md).
//
// Serves hcs::Session runs over line-delimited JSON TCP: results are
// cached by CellKey::hash(), identical in-flight requests coalesce into
// one execution, and replies replay cached bodies byte-identically.
//
//   hcsd --port 7421 --cache-mb 64 --threads 0
//
// The daemon runs until a client sends {"op":"shutdown"} (or the process
// is killed); there is deliberately no signal handling beyond the default
// -- orchestration owns the process lifecycle.

#include <cstdio>
#include <string>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  hcs::CliParser cli(
      "hcsd: serve cached hypercube-search simulations over "
      "line-delimited JSON TCP (docs/SERVING.md)");
  cli.add_flag("port", "7421", "TCP port to listen on (0 = ephemeral)");
  cli.add_flag("bind", "127.0.0.1", "address to bind");
  cli.add_flag("cache-mb", "64", "result cache budget in MiB");
  cli.add_flag("threads", "0",
               "simulation worker threads (0 = hardware concurrency)");
  cli.add_flag("max-pending", "256",
               "distinct in-flight cells before rejecting with overloaded");
  cli.add_flag("max-dim", "14", "largest hypercube dimension served");
  cli.add_flag("shards", "0",
               "default macro-executor subcube shards (0 = auto, 1 = "
               "serial); per-request \"shards\" overrides");
  cli.add_flag("obs-json", "",
               "write an observability snapshot JSON here on exit");
  cli.add_flag("obs-trace", "",
               "write a Chrome trace of serve spans here on exit");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const std::string obs_json = cli.get("obs-json");
  const std::string obs_trace = cli.get("obs-trace");
  hcs::obs::Registry registry;

  hcs::serve::ServerConfig config;
  config.bind_address = cli.get("bind");
  config.port = static_cast<std::uint16_t>(cli.get_uint("port"));
  config.service.threads = static_cast<unsigned>(cli.get_uint("threads"));
  config.service.cache_bytes =
      static_cast<std::size_t>(cli.get_uint("cache-mb")) * 1024 * 1024;
  config.service.max_pending =
      static_cast<std::size_t>(cli.get_uint("max-pending"));
  config.service.max_dimension =
      static_cast<unsigned>(cli.get_uint("max-dim"));
  config.service.shards = static_cast<std::uint32_t>(cli.get_uint("shards"));
  if (!obs_json.empty() || !obs_trace.empty()) {
    config.service.obs = &registry;
  }

  hcs::serve::Server server(config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "hcsd: %s\n", error.c_str());
    return 1;
  }
  std::printf("hcsd listening on %s:%u\n", config.bind_address.c_str(),
              server.port());
  std::fflush(stdout);

  server.wait();

  const hcs::serve::ServiceStats stats = server.service().stats();
  std::printf(
      "hcsd done: %llu requests, %llu hits, %llu misses, %llu coalesced, "
      "%llu executions, %llu rejected, %llu errors\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.executions),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.errors));

  if (!obs_json.empty() || !obs_trace.empty()) {
    // The service counts in its own atomics (stats()); the registry holds
    // only its latency histograms until the counts are copied in here.
    registry.counter_add("serve.requests", stats.requests);
    registry.counter_add("serve.hits", stats.hits);
    registry.counter_add("serve.misses", stats.misses);
    registry.counter_add("serve.coalesced", stats.coalesced);
    registry.counter_add("serve.executions", stats.executions);
    registry.counter_add("serve.rejected", stats.rejected);
    registry.counter_add("serve.errors", stats.errors);
    const hcs::obs::Snapshot snap = registry.snapshot();
    if (!obs_json.empty() &&
        !hcs::obs::write_snapshot_json(snap, obs_json)) {
      std::fprintf(stderr, "hcsd: failed to write %s\n", obs_json.c_str());
      return 1;
    }
    if (!obs_trace.empty() &&
        !hcs::obs::write_chrome_trace(snap, obs_trace)) {
      std::fprintf(stderr, "hcsd: failed to write %s\n", obs_trace.c_str());
      return 1;
    }
  }
  return 0;
}
