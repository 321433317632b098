#include "serve/service.hpp"

#include <chrono>
#include <utility>

#include "ckpt/outcome_io.hpp"
#include "core/session.hpp"
#include "core/strategy_registry.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

namespace hcs::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_bytes),
      pool_(std::make_unique<ThreadPool>(config_.threads)) {}

Service::~Service() {
  // Drain queued executions before the cache / in-flight tables go away.
  pool_->wait_idle();
}

Service::Reply Service::handle(std::string_view line) {
  const auto start = std::chrono::steady_clock::now();

  Request req;
  std::string error;
  if (!parse_request(line, &req, &error)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return {error_reply(req.id, error), false};
  }

  requests_.fetch_add(1, std::memory_order_relaxed);

  Reply reply;
  switch (req.op) {
    case Op::kPing:
      reply = {ok_reply(req.id, false, false, "{\"pong\":true}"), false};
      break;
    case Op::kStats:
      reply = {ok_reply(req.id, false, false, stats_body()), false};
      break;
    case Op::kShutdown:
      reply = {ok_reply(req.id, false, false, "{\"shutting_down\":true}"),
               true};
      break;
    case Op::kRun:
      reply = handle_run(req);
      break;
  }

  if (config_.obs != nullptr) {
    config_.obs->hist_record("serve.request_us", elapsed_us(start));
  }
  return reply;
}

Service::Reply Service::handle_run(const Request& req) {
  const auto reject = [this](std::uint64_t id, const std::string& why) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Reply{error_reply(id, why), false};
  };

  const core::Strategy* strategy =
      core::StrategyRegistry::instance().find(req.key.strategy);
  if (strategy == nullptr) {
    return reject(req.id, "unknown strategy \"" + req.key.strategy + "\"");
  }

  // Canonicalize the registry spelling before hashing, so "clean" and
  // "CLEAN" are the same cache entry.
  Request run = req;
  run.key.strategy = strategy->name();

  if (run.key.dimension > config_.max_dimension) {
    return reject(req.id, "dimension " + std::to_string(run.key.dimension) +
                              " exceeds server limit " +
                              std::to_string(config_.max_dimension));
  }
  if (run.key.engine == sim::EngineKind::kMacro) {
    // Session treats an ineligible macro run as a precondition violation;
    // for untrusted input that must be an admission error instead.
    if (run.key.policy != sim::WakePolicy::kFifo ||
        run.delay.kind != run::DelaySpec::Kind::kUnit) {
      return reject(req.id,
                    "macro engine requires the fifo wake policy and the "
                    "unit delay model");
    }
    if (!strategy->has_macro_program()) {
      return reject(req.id, "strategy \"" + run.key.strategy +
                                "\" has no macro program");
    }
  }

  const std::string cache_key =
      run.key.hash() + (run.trace ? "+trace" : "");

  std::shared_ptr<Inflight> flight;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    std::string body;
    if (cache_.get(cache_key, &body)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      return {ok_reply(req.id, true, false, body), false};
    }
    const auto it = inflight_.find(cache_key);
    if (it != inflight_.end()) {
      flight = it->second;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (inflight_.size() >= config_.max_pending) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        return {error_reply(req.id, "overloaded: " +
                                        std::to_string(config_.max_pending) +
                                        " cells already in flight"),
                false};
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      flight = std::make_shared<Inflight>();
      inflight_.emplace(cache_key, flight);
      leader = true;
    }
  }

  if (leader) {
    pool_->submit(
        [this, run, cache_key, flight] { execute(run, cache_key, flight); });
  }

  std::unique_lock<std::mutex> lock(mutex_);
  flight->cv.wait(lock, [&flight] { return flight->done; });
  const std::string body = flight->body;
  lock.unlock();
  return {ok_reply(req.id, false, !leader, body), false};
}

void Service::execute(const Request& req, const std::string& cache_key,
                      const std::shared_ptr<Inflight>& flight) {
  if (config_.exec_gate) config_.exec_gate(req.key);
  executions_.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();

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

  SessionConfig session_config;
  session_config.dimension = req.key.dimension;
  session_config.options = std::move(options);
  Session session(std::move(session_config));
  const core::SimOutcome outcome = session.run(req.key.strategy);

  Json body = Json::object();
  body.set("key", req.key.to_json());
  body.set("outcome", ckpt::outcome_json(outcome));
  if (req.trace) {
    Json events = Json::array();
    for (const sim::TraceEvent& event : session.trace().events()) {
      Json row = Json::object();
      row.set("t", event.time);
      row.set("kind", static_cast<std::uint64_t>(event.kind));
      row.set("agent", static_cast<std::uint64_t>(event.agent));
      row.set("node", static_cast<std::uint64_t>(event.node));
      row.set("other", static_cast<std::uint64_t>(event.other));
      if (!event.detail.empty()) row.set("detail", event.detail);
      events.push_back(std::move(row));
    }
    body.set("trace", std::move(events));
  }
  std::string bytes = body.dump_compact();

  if (config_.obs != nullptr) {
    config_.obs->hist_record("serve.exec_us", elapsed_us(start));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.put(cache_key, bytes);
    flight->body = std::move(bytes);
    flight->done = true;
    inflight_.erase(cache_key);
  }
  flight->cv.notify_all();
}

ServiceStats Service::stats() const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.executions = executions_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.cache_entries = cache_.entries();
    out.cache_bytes = cache_.bytes();
    out.cache_evictions = cache_.evictions();
  }
  return out;
}

std::string Service::stats_body() const {
  const ServiceStats s = stats();
  Json body = Json::object();
  body.set("requests", s.requests);
  body.set("hits", s.hits);
  body.set("misses", s.misses);
  body.set("coalesced", s.coalesced);
  body.set("executions", s.executions);
  body.set("rejected", s.rejected);
  body.set("errors", s.errors);
  body.set("cache_entries", static_cast<std::uint64_t>(s.cache_entries));
  body.set("cache_bytes", static_cast<std::uint64_t>(s.cache_bytes));
  body.set("cache_evictions", s.cache_evictions);
  return body.dump_compact();
}

}  // namespace hcs::serve
