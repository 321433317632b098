// The serve_zipf workload: closed-loop blocking serve::Clients against an
// in-process serve::Server over loopback TCP.
//
// Request mix, fixed in shape; the workload seed draws only identities
// and order:
//  * zipf(1.1) over a universe of 4096 event cells -- the four paper
//    strategies x d 3..6 x fifo/random, 128 drawn seeds each -- whose rank
//    order the seed permutes;
//  * ten explicit "engine":"macro" CLEAN / CLEAN-WITH-VISIBILITY cells at
//    d 10..14, at fixed zipf ranks (0.61% of requests), so the seed never
//    moves an expensive cell to a hot rank;
//  * 1 request in 512 for a cell never requested before (an execution).
//
// Traced, every request is also handled by an in-process Service in the
// same state and by a rebuild of Service::handle from its public calls,
// with a span around each call; all three replies must be byte-identical.

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "ckpt/outcome_io.hpp"
#include "core/cell_key.hpp"
#include "core/session.hpp"
#include "core/strategy_registry.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace hcsbench {

namespace {

namespace serve = hcs::serve;
namespace sim = hcs::sim;

constexpr unsigned kConnections = 2;
constexpr double kZipfS = 1.1;
constexpr std::size_t kSeedsPerShape = 128;
constexpr std::uint64_t kFirstTimeOneIn = 512;
/// Cells whose served body is compared with a direct Session::run.
constexpr std::size_t kSampleEventCells = 6;
constexpr std::uint32_t kTraceFileOps = 2000;
/// Latency slots reserved per connection (far above a 60 s window).
constexpr std::size_t kReservedRequests = std::size_t{1} << 23;

const char* const kStrategies[] = {"CLEAN", "CLEAN-WITH-VISIBILITY",
                                   "CLONING", "SYNCHRONOUS"};
const unsigned kEventDims[] = {3, 4, 5, 6};
const sim::WakePolicy kPolicies[] = {sim::WakePolicy::kFifo,
                                     sim::WakePolicy::kRandom};

struct MacroCell {
  const char* strategy;
  unsigned dimension;
  std::size_t rank;  ///< 0-based zipf rank
};
const MacroCell kMacroCells[] = {
    {"CLEAN-WITH-VISIBILITY", 10, 63}, {"CLEAN", 10, 95},
    {"CLEAN-WITH-VISIBILITY", 11, 127}, {"CLEAN", 11, 159},
    {"CLEAN-WITH-VISIBILITY", 12, 191}, {"CLEAN", 12, 223},
    {"CLEAN-WITH-VISIBILITY", 13, 255}, {"CLEAN", 13, 319},
    {"CLEAN-WITH-VISIBILITY", 14, 383}, {"CLEAN", 14, 447},
};

struct Cell {
  std::string line;  ///< the request line, id = rank + 1
  hcs::CellKey key;  ///< identity as requested (canonical strategy name)
  Expected expected;
  bool macro = false;
};

Cell make_cell(std::uint64_t id, const char* strategy, unsigned d,
               std::uint64_t seed, sim::WakePolicy policy, bool macro) {
  Cell cell;
  cell.key.strategy = strategy;
  cell.key.dimension = d;
  cell.key.seed = seed;
  cell.key.policy = policy;
  cell.key.engine = macro ? sim::EngineKind::kMacro : sim::EngineKind::kEvent;
  cell.macro = macro;
  cell.expected =
      macro ? expected_macro(strategy, d) : expected_event(strategy, d);
  cell.line = "{\"id\":" + std::to_string(id) +
              ",\"op\":\"run\",\"cell\":{\"strategy\":\"" + strategy +
              "\",\"dimension\":" + std::to_string(d) +
              ",\"seed\":" + std::to_string(seed) + ",\"policy\":\"" +
              hcs::wake_policy_name(policy) + "\"" +
              (macro ? ",\"engine\":\"macro\"" : "") + "}}";
  return cell;
}

/// The ranked universe: macro cells at their fixed ranks, event cells in
/// a seed-drawn order over the remaining ranks. `pass_order` lists the
/// ranks in the order a set-up requests them: event cells by shape, then
/// the macro cells. It does not depend on the seed, so neither does the
/// set-up's allocation sequence (a rank-order pass made peak RSS a
/// function of the seed).
std::vector<Cell> build_universe(std::uint64_t seed,
                                 std::vector<std::size_t>* pass_order) {
  Rng rng(mix(seed, 0x5e7e));
  const std::size_t size =
      std::size(kStrategies) * std::size(kEventDims) * std::size(kPolicies) *
          kSeedsPerShape +
      std::size(kMacroCells);
  std::vector<Cell> universe(size);
  std::vector<bool> taken(size, false);
  for (const MacroCell& m : kMacroCells) taken[m.rank] = true;
  std::vector<std::size_t> event_ranks;
  for (std::size_t rank = 0; rank < size; ++rank) {
    if (!taken[rank]) event_ranks.push_back(rank);
  }
  for (std::size_t i = event_ranks.size(); i > 1; --i) {
    std::swap(event_ranks[i - 1], event_ranks[rng.below(i)]);
  }

  pass_order->clear();
  std::size_t next = 0;
  for (const char* strategy : kStrategies) {
    for (const unsigned d : kEventDims) {
      for (const sim::WakePolicy policy : kPolicies) {
        for (std::size_t i = 0; i < kSeedsPerShape; ++i) {
          const std::size_t rank = event_ranks[next++];
          universe[rank] = make_cell(rank + 1, strategy, d, rng.next() >> 2,
                                     policy, false);
          pass_order->push_back(rank);
        }
      }
    }
  }
  for (const MacroCell& m : kMacroCells) {
    universe[m.rank] = make_cell(m.rank + 1, m.strategy, m.dimension,
                                 rng.next() >> 2, sim::WakePolicy::kFifo, true);
    pass_order->push_back(m.rank);
  }
  return universe;
}

/// A never-requested event cell: a fresh seed (bit 62 set keeps it apart
/// from every universe seed) on a drawn shape.
Cell first_time_cell(unsigned client, std::uint64_t n, Rng& rng) {
  const char* strategy = kStrategies[rng.below(std::size(kStrategies))];
  const unsigned d = kEventDims[rng.below(std::size(kEventDims))];
  const sim::WakePolicy policy = kPolicies[rng.below(std::size(kPolicies))];
  const std::uint64_t seed =
      (std::uint64_t{1} << 62) | (std::uint64_t{client} << 40) | n;
  return make_cell(1, strategy, d, seed, policy, false);
}

/// zipf(s) over ranks 0..n-1 by inverse-CDF lookup (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

serve::ServerConfig server_config() {
  serve::ServerConfig config;
  // Single-threaded run paths: one execution worker, serial macro engine.
  config.service.threads = 1;
  config.service.shards = 1;
  return config;
}

/// Parses a reply's body outcome and checks it against the closed forms.
std::string check_reply_outcome(const std::string& reply, const Expected& e) {
  const std::optional<hcs::Json> doc = hcs::Json::parse(reply);
  const hcs::Json* body = doc ? doc->get("body") : nullptr;
  const hcs::Json* outcome_json = body ? body->get("outcome") : nullptr;
  hcs::core::SimOutcome outcome;
  if (outcome_json == nullptr ||
      !hcs::ckpt::parse_outcome(*outcome_json, &outcome)) {
    return "reply without a parsable outcome: " + reply.substr(0, 200);
  }
  return check_outcome(outcome, e);
}

/// The body Service::execute caches for `key`: the key and the outcome of
/// a Session::run under `options`.
std::string session_body(const hcs::CellKey& key, sim::RunOptions options) {
  hcs::SessionConfig config;
  config.dimension = key.dimension;
  config.options = std::move(options);
  hcs::Session session(std::move(config));
  hcs::Json body = hcs::Json::object();
  body.set("key", key.to_json());
  body.set("outcome", hcs::ckpt::outcome_json(session.run(key.strategy)));
  return body.dump_compact();
}

/// A direct Session::run of `key`, for comparison with the served bytes.
std::string direct_body(const hcs::CellKey& key) {
  sim::RunOptions options;
  options.policy = key.policy;
  options.seed = key.seed;
  options.engine = key.engine;
  return session_body(key, std::move(options));
}

/// Service::handle for op "run", rebuilt from the public calls it makes,
/// over a cache owned by the benchmark.
class Rebuild {
 public:
  explicit Rebuild(const serve::ServiceConfig& config)
      : config_(config), cache_(config.cache_bytes) {}

  std::string handle(std::string_view line, Spans& spans) {
    Scope op(spans, "serve.rebuild");
    serve::Request req;
    std::string error;
    bool parsed = false;
    {
      Scope s(spans, "serve.parse");
      parsed = serve::parse_request(line, &req, &error);
    }
    if (!parsed) return serve::error_reply(0, error);
    if (req.op != serve::Op::kRun) {
      return serve::error_reply(req.id, "not a run");
    }

    serve::Request run = req;
    {
      Scope s(spans, "serve.admit");
      const hcs::core::Strategy* strategy =
          hcs::core::StrategyRegistry::instance().find(req.key.strategy);
      if (strategy == nullptr) {
        return serve::error_reply(req.id, "unknown strategy");
      }
      run.key.strategy = strategy->name();
      if (run.key.dimension > config_.max_dimension) {
        return serve::error_reply(req.id, "dimension over limit");
      }
      if (run.key.engine == sim::EngineKind::kMacro) {
        if (run.key.policy != sim::WakePolicy::kFifo ||
            run.delay.kind != hcs::run::DelaySpec::Kind::kUnit) {
          return serve::error_reply(req.id, "macro needs fifo and unit delay");
        }
        Scope m(spans, "serve.admit.macro");
        if (!strategy->macro_program(run.key.dimension).has_value()) {
          return serve::error_reply(req.id, "no macro program");
        }
      }
    }
    std::string cache_key;
    {
      Scope s(spans, "serve.key");
      cache_key = run.key.hash() + (run.trace ? "+trace" : "");
    }
    std::string body;
    bool hit = false;
    {
      Scope s(spans, "serve.cache");
      const std::lock_guard<std::mutex> lock(mutex_);
      hit = cache_.get(cache_key, &body);
    }
    if (!hit) {
      Scope s(spans, "serve.exec");
      body = execute(run);
      const std::lock_guard<std::mutex> lock(mutex_);
      cache_.put(cache_key, body);
    }
    Scope s(spans, "serve.encode");
    return serve::ok_reply(req.id, hit, false, body);
  }

 private:
  std::string execute(const serve::Request& req) const {
    sim::RunOptions options;
    options.delay = req.delay.make();
    options.policy = req.key.policy;
    options.seed = req.key.seed;
    options.trace = req.trace;
    options.visibility = req.key.visibility;
    options.semantics = req.key.semantics;
    options.max_agent_steps = req.key.max_agent_steps;
    options.livelock_window = req.key.livelock_window;
    options.faults = req.key.faults;
    options.recovery = req.key.recovery;
    options.engine = req.key.engine;
    options.shards = req.shards != 0 ? req.shards : config_.shards;
    return session_body(req.key, std::move(options));
  }

  serve::ServiceConfig config_;
  std::mutex mutex_;  ///< guards cache_
  serve::ResultCache cache_;
};

/// One set-up's server and its connections (the first one warms it).
struct Setup {
  std::unique_ptr<serve::Server> server;
  /// The connections the timed window reuses.
  std::vector<serve::Client> clients;
  double seconds = 0.0;
  std::vector<std::string> replies;  ///< one per universe rank
};

/// One set-up: start a fresh server, open the window's connections and
/// pass once over the universe (every cell executes once). Replies are
/// checked after the clock stops.
void set_up(const std::vector<Cell>& universe,
            const std::vector<std::size_t>& pass_order, Setup* setup,
            Tally* tally) {
  const auto start = Clock::now();
  setup->server = std::make_unique<serve::Server>(server_config());
  std::string error;
  if (!setup->server->start(&error)) {
    tally->record("server start: " + error);
    return;
  }
  setup->clients.resize(kConnections);
  for (serve::Client& client : setup->clients) {
    if (!client.connect("127.0.0.1", setup->server->port(), &error)) {
      tally->record("connect: " + error);
      return;
    }
  }
  setup->replies.resize(universe.size());
  for (const std::size_t rank : pass_order) {
    if (!setup->clients[0].request(universe[rank].line,
                                   &setup->replies[rank])) {
      setup->replies[rank].clear();
    }
  }
  setup->seconds = ms_since(start) / 1e3;
}

void check_setup(const Setup& setup, const std::vector<Cell>& universe,
                 BodyLedger& ledger, Tally* tally) {
  for (std::size_t rank = 0; rank < setup.replies.size(); ++rank) {
    const std::string& reply = setup.replies[rank];
    std::string error = ledger.check(rank, reply);
    if (error.empty()) {
      error = check_reply_outcome(reply, universe[rank].expected);
    }
    tally->record(error);
  }
}

/// Per-connection state of the closed loop.
struct Loop {
  unsigned index = 0;
  std::vector<double> latencies_ms;
  std::vector<double> transport_ms;  ///< traced: request minus handle
  Tally tally;
  std::uint64_t macro_requests = 0;
  std::uint64_t first_time = 0;
  std::unique_ptr<Spans> spans;
};

struct Traced {
  serve::Service* mirror = nullptr;
  Rebuild* rebuild = nullptr;
};

void client_loop(Loop& out, serve::Client& client, std::uint64_t seed,
                 const std::vector<Cell>& universe, const Zipf& zipf,
                 BodyLedger& ledger, Clock::time_point deadline,
                 const Traced* traced) {
  std::string error;
  Rng rng(mix(seed, 1000 + out.index));
  // Reserved, not touched: RSS then grows with the request count alone,
  // never by a vector doubling that one run crosses and the next does not.
  out.latencies_ms.reserve(kReservedRequests);
  std::string reply;
  std::uint32_t op = 0;
  while (Clock::now() < deadline) {
    const bool fresh = rng.below(kFirstTimeOneIn) == 0;
    const std::size_t rank = fresh ? 0 : zipf.sample(rng);
    std::optional<Cell> first;
    if (fresh) first = first_time_cell(out.index, out.first_time++, rng);
    const Cell& cell = fresh ? *first : universe[rank];
    if (cell.macro) ++out.macro_requests;

    if (traced != nullptr) out.spans->begin_op(op++);
    std::int32_t request_span = -1;
    const auto start = Clock::now();
    bool sent = false;
    {
      std::optional<Scope> s;
      if (traced != nullptr) s.emplace(*out.spans, "serve.request");
      sent = client.request(cell.line, &reply);
      if (s) request_span = s->index();
    }
    out.latencies_ms.push_back(ms_since(start));
    if (!sent) {
      out.tally.record("transport failure");
      return;
    }
    error = fresh ? check_reply_outcome(reply, cell.expected)
                  : ledger.check(rank, reply);
    if (traced != nullptr && error.empty()) {
      std::string handled;
      std::int32_t handle_span = -1;
      {
        Scope s(*out.spans, "serve.handle");
        handle_span = s.index();
        handled = traced->mirror->handle(cell.line).line;
      }
      const std::string rebuilt =
          traced->rebuild->handle(cell.line, *out.spans);
      out.transport_ms.push_back(out.spans->ms(request_span) -
                                 out.spans->ms(handle_span));
      if (handled != reply + "\n") {
        error = "in-process Service reply differs from the TCP reply";
      } else if (rebuilt != handled) {
        error = "rebuilt Service::handle reply differs from Service::handle";
      }
    }
    out.tally.record(error);
  }
}

}  // namespace

Result run_serve(const Args& args) {
  Result result;
  std::vector<std::size_t> pass_order;
  const std::vector<Cell> universe = build_universe(args.seed, &pass_order);
  const Zipf zipf(universe.size(), kZipfS);
  BodyLedger ledger(universe.size());

  // Every set-up's server stays up until the run ends, so no server
  // thread exits and hands its malloc arena to a later thread (which made
  // peak RSS depend on thread timing). The last one serves the window.
  std::vector<Setup> setups(args.trace ? 1 : kSetups);
  std::vector<double> setups_s;
  for (Setup& s : setups) {
    set_up(universe, pass_order, &s, &result.tally);
    setups_s.push_back(s.seconds);
    check_setup(s, universe, ledger, &result.tally);
    s.replies = {};
  }
  Setup& setup = setups.back();
  if (result.tally.failed != 0) return result;

  // Traced: an in-process Service and the rebuild, warmed by the same pass.
  std::unique_ptr<serve::Service> mirror;
  std::unique_ptr<Rebuild> rebuild;
  Traced traced;
  if (args.trace) {
    mirror = std::make_unique<serve::Service>(server_config().service);
    rebuild = std::make_unique<Rebuild>(server_config().service);
    Spans warm(0);
    for (const std::size_t rank : pass_order) {
      const std::string& line = universe[rank].line;
      const std::string handled = mirror->handle(line).line;
      if (rebuild->handle(line, warm) != handled) {
        result.tally.record("rebuilt Service::handle differs on warm-up");
      }
    }
    traced = {mirror.get(), rebuild.get()};
  }

  const serve::ServiceStats before = setup.server->service().stats();
  std::vector<Loop> loops(kConnections);
  const Usage usage_before = usage_now();
  const auto window_start = Clock::now();
  const auto deadline = after_seconds(window_start, args.seconds);
  {
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kConnections; ++w) {
      loops[w].index = w;
      if (args.trace) loops[w].spans = std::make_unique<Spans>(w + 1);
      threads.emplace_back(client_loop, std::ref(loops[w]),
                           std::ref(setup.clients[w]), args.seed,
                           std::cref(universe), std::cref(zipf),
                           std::ref(ledger), deadline,
                           args.trace ? &traced : nullptr);
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_s = ms_since(window_start) / 1e3;
  const double peak_rss = peak_rss_mb();
  const Usage used = usage_now() - usage_before;
  const serve::ServiceStats after = setup.server->service().stats();

  std::vector<double> latencies_ms;
  std::uint64_t macro_requests = 0, first_time = 0;
  for (const Loop& c : loops) {
    latencies_ms.insert(latencies_ms.end(), c.latencies_ms.begin(),
                        c.latencies_ms.end());
    macro_requests += c.macro_requests;
    first_time += c.first_time;
    result.tally.merge(c.tally);
  }
  const double requests = static_cast<double>(latencies_ms.size());

  // Served bytes must equal a direct Session::run of the same CellKey,
  // for a seed-drawn sample of event cells and the two largest macro cells.
  Rng pick(mix(args.seed, 0x5a3b1e));
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < kSampleEventCells; ++i) {
    std::size_t rank = pick.below(universe.size());
    while (universe[rank].macro) rank = pick.below(universe.size());
    sample.push_back(rank);
  }
  sample.push_back(kMacroCells[std::size(kMacroCells) - 2].rank);
  sample.push_back(kMacroCells[std::size(kMacroCells) - 1].rank);
  for (const std::size_t rank : sample) {
    hcs::CellKey key = universe[rank].key;
    const std::string body = direct_body(key);
    const bool same = body_hash(serve::ok_reply(0, false, false, body)) ==
                      ledger.first(rank);
    result.tally.record(same ? "" : "cell " + std::to_string(rank) +
                                         ": served body differs from a direct "
                                         "Session::run");
  }

  const double hits = static_cast<double>(after.hits - before.hits);
  const double served = static_cast<double>(after.requests - before.requests);
  hcs::Json mix_report = hcs::Json::object();
  mix_report.set("requests", static_cast<std::uint64_t>(requests));
  mix_report.set("hit_share", served > 0 ? hits / served : 0.0);
  mix_report.set("macro_share", static_cast<double>(macro_requests) / requests);
  mix_report.set("first_time", first_time);
  mix_report.set("executions", after.executions - before.executions);
  mix_report.set("coalesced", after.coalesced - before.coalesced);
  mix_report.set("rejected", after.rejected - before.rejected);
  mix_report.set("errors", after.errors - before.errors);
  mix_report.set("evictions", after.cache_evictions - before.cache_evictions);
  result.report.set("workload", args.workload);
  result.report.set("mix", std::move(mix_report));
  result.report.set("connections", kConnections);
  result.report.set("client_threads", kConnections);
  result.report.set("server_exec_threads", server_config().service.threads);
  result.report.set("universe", static_cast<std::uint64_t>(universe.size()));
  result.report.set("sampled_direct_runs",
                    static_cast<std::uint64_t>(sample.size()));

  if (!args.trace) {
    add_end_to_end(&result, median(setups_s), latencies_ms, window_s,
                   peak_rss);
    hcs::Json setup_times = hcs::Json::array();
    for (const double s : setups_s) setup_times.push_back(s);
    result.report.set("setups_s", std::move(setup_times));
    result.report.set("req_user_ms_mean", used.user_ms / requests);
    result.report.set("req_sys_ms_mean", used.sys_ms / requests);
    result.report.set("req_minflt_mean", used.minflt / requests);
    return result;
  }

  std::vector<const Spans*> recorders;
  std::vector<double> transport_ms;
  for (const Loop& c : loops) {
    recorders.push_back(c.spans.get());
    transport_ms.insert(transport_ms.end(), c.transport_ms.begin(),
                        c.transport_ms.end());
  }
  const auto layers = layer_times(recorders);
  const auto us = [&layers](const char* name) {
    return layer_median_ms(layers, name) * 1e3;
  };
  double rebuild_self_ms = 0.0;
  for (const auto& [layer, times] : layers) {
    if (layer == "serve.rebuild") rebuild_self_ms = median(times.self_ms);
  }
  std::vector<std::pair<std::string, double>> values = {
      {"serve.transport_us", median(transport_ms) * 1e3},
      {"serve.handle_us", us("serve.handle")},
      {"serve.parse_us", us("serve.parse")},
      {"serve.admit_us", us("serve.admit")},
      {"serve.admit_macro_ms", layer_median_ms(layers, "serve.admit.macro")},
      {"serve.key_us", us("serve.key")},
      {"serve.cache_us", us("serve.cache")},
      {"serve.exec_ms", layer_median_ms(layers, "serve.exec")},
      {"serve.encode_us", us("serve.encode")},
      {"op.self_ms", rebuild_self_ms},
      {"op.user_ms", used.user_ms / requests},
      {"op.sys_ms", used.sys_ms / requests},
      {"op.minflt", used.minflt / requests},
      {"serve.hit_share", served > 0 ? hits / served : 0.0},
      {"serve.macro_share", static_cast<double>(macro_requests) / requests},
      {"serve.executions",
       static_cast<double>(after.executions - before.executions)},
      {"serve.coalesced",
       static_cast<double>(after.coalesced - before.coalesced)},
      {"serve.rejected", static_cast<double>(after.rejected - before.rejected)},
      {"serve.errors", static_cast<double>(after.errors - before.errors)},
      {"serve.evictions",
       static_cast<double>(after.cache_evictions - before.cache_evictions)},
      {"trace.overhead_pct",
       (layer_median_ms(layers, "serve.rebuild") /
            layer_median_ms(layers, "serve.handle") -
        1.0) *
           100.0},
  };
  add_per_layer(&result, values);
  result.report.set("layers", layer_report(layers));
  if (!args.trace_out.empty() &&
      !write_chrome_trace(args.trace_out, recorders, kTraceFileOps)) {
    result.tally.record("cannot write " + args.trace_out);
  }
  return result;
}

}  // namespace hcsbench
