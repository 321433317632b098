// serve::Service -- the transport-independent core of hcsd.
//
// One Service owns the content-addressed ResultCache, the in-flight
// coalescing table and the execution thread pool. handle() takes one raw
// request line and returns the full reply line; the TCP server
// (serve/server.hpp), tests and tools all drive this same surface, so
// every protocol behaviour is testable in-process without sockets.
//
// Request lifecycle for op "run":
//   1. admission -- unknown strategy, oversized dimension or a
//      macro-ineligible cell is rejected with an error reply; too many
//      distinct in-flight cells rejects with "overloaded". Macro
//      eligibility reads Strategy::has_macro_program(), so admission never
//      builds a schedule.
//   2. cache probe -- key = CellKey::hash() (+ "+trace" for trace
//      requests); a hit replays the stored body bytes verbatim.
//   3. coalescing -- a miss that matches an in-flight execution of the
//      same key waits for that one result instead of executing again
//      (K concurrent identical requests -> 1 execution).
//   4. execution -- the leader submits the run to the thread pool, the
//      result body is cached, and every waiter is woken with the same
//      bytes.
//
// Threading: one mutex guards cache + in-flight table + nothing else;
// counters are atomics so stats() never takes the lock; simulations run
// outside the lock on the pool.
//
// Counting: the atomics behind stats() are the one count of requests,
// hits, misses, coalesced joins, executions, rejections and errors, in
// every build (HCS_OBS_OFF included). hcsd copies them into its obs
// registry under serve.* names when it writes a snapshot.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace hcs::serve {

struct ServiceConfig {
  /// Simulation worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Result-cache byte budget (keys + bodies).
  std::size_t cache_bytes = 64ULL * 1024 * 1024;
  /// Maximum distinct cells executing/queued at once; beyond this, new
  /// misses are rejected with "overloaded" (coalesced joins and cache
  /// hits are always admitted).
  std::size_t max_pending = 256;
  /// Largest hypercube dimension the server will run.
  unsigned max_dimension = 14;
  /// Default subcube shard count for macro executions (sim/shard.hpp);
  /// 0 = auto. A request's own "shards" field overrides it. Never part of
  /// the cache key: shard count does not change results.
  std::uint32_t shards = 0;
  /// Optional metrics sink for the request and execution latency
  /// histograms (serve.request_us, serve.exec_us). Counts are not
  /// recorded here: stats() holds them.
  obs::Registry* obs = nullptr;
  /// Test hook: runs on the pool worker before each execution starts.
  /// Blocking here holds the cell in-flight, which is how
  /// tests/test_serve.cpp pins the coalescing K->1 contract.
  std::function<void(const CellKey&)> exec_gate;
};

/// Point-in-time counter snapshot (also the body of the "stats" op).
struct ServiceStats {
  std::uint64_t requests = 0;    ///< well-formed requests handled
  std::uint64_t hits = 0;        ///< served from cache
  std::uint64_t misses = 0;      ///< required an execution
  std::uint64_t coalesced = 0;   ///< joined an in-flight execution
  std::uint64_t executions = 0;  ///< simulations actually run
  std::uint64_t rejected = 0;    ///< admission failures (overload)
  std::uint64_t errors = 0;      ///< malformed / invalid requests
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::uint64_t cache_evictions = 0;
};

class Service {
 public:
  explicit Service(ServiceConfig config);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ~Service();

  struct Reply {
    std::string line;       ///< full reply, '\n'-terminated
    bool shutdown = false;  ///< the request was a shutdown op
  };

  /// Handles one request line end-to-end (parse, admit, serve) and
  /// returns the reply line. Blocks the calling thread while its cell
  /// executes or while it waits on a coalesced execution. Safe to call
  /// from any number of threads.
  Reply handle(std::string_view line);

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  /// One in-flight execution; waiters block on `cv` until `done`.
  struct Inflight {
    bool done = false;
    std::string body;  ///< compact result JSON (valid when done)
    std::condition_variable cv;
  };

  Reply handle_run(const Request& req);
  std::string stats_body() const;
  /// Runs the simulation and serializes the result body (pool worker).
  void execute(const Request& req, const std::string& cache_key,
               const std::shared_ptr<Inflight>& flight);

  ServiceConfig config_;

  mutable std::mutex mutex_;  ///< guards cache_ + inflight_
  ResultCache cache_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};

  /// Last: workers must be joined before the tables above die.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hcs::serve
