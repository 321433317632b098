// The serving suite (`ctest -L serve`): CellKey identity, the result
// cache, the protocol parser, Service coalescing/admission, and the TCP
// server end-to-end. Everything but the last fixture runs in-process
// against serve::Service -- the same surface the socket layer drives.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cell_key.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace hcs {
namespace {

using serve::Client;
using serve::Op;
using serve::Request;
using serve::ResultCache;
using serve::Server;
using serve::ServerConfig;
using serve::Service;
using serve::ServiceConfig;
using serve::ServiceStats;

constexpr const char* kRunClean6 =
    R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":6,"seed":3}})";

/// The reply's body span (after "\"body\":", minus the outer '}').
std::string body_of(const std::string& reply) {
  const std::size_t pos = reply.find("\"body\":");
  EXPECT_NE(pos, std::string::npos) << reply;
  if (pos == std::string::npos) return {};
  // Strip the line terminator and the envelope's closing '}'.
  std::string body = reply.substr(pos + 7);
  if (!body.empty() && body.back() == '\n') body.pop_back();
  if (!body.empty() && body.back() == '}') body.pop_back();
  return body;
}

bool wait_until(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// --- CellKey -----------------------------------------------------------

// The canonical form and hash are the cross-subsystem identity contract
// (fuzz artifact names, the server cache). Changing either silently
// invalidates every stored artifact, so both are pinned as goldens.
TEST(CellKey, GoldenCanonicalAndHash) {
  CellKey key;
  key.strategy = "CLEAN";
  key.dimension = 4;
  EXPECT_EQ(key.hash(), "c29a863a9de5a0e4");

  const std::optional<Json> doc = Json::parse(key.canonical(), nullptr);
  ASSERT_TRUE(doc.has_value());
  std::vector<std::string> order;
  for (const auto& [name, value] : doc->members()) order.push_back(name);
  const std::vector<std::string> expected = {
      "strategy",        "dimension",       "seed",
      "delay",           "policy",          "visibility",
      "semantics",       "max_agent_steps", "livelock_window",
      "faults",          "recovery",        "engine"};
  EXPECT_EQ(order, expected);
}

TEST(CellKey, HashCoversEveryField) {
  CellKey base;
  base.strategy = "CLEAN";
  const std::string h0 = base.hash();

  std::vector<CellKey> variants(9, base);
  variants[0].strategy = "CLONING";
  variants[1].dimension = 5;
  variants[2].seed = 2;
  variants[3].delay = "uniform(0.5,2)";
  variants[4].policy = sim::WakePolicy::kRandom;
  variants[5].visibility = true;
  variants[6].semantics = sim::MoveSemantics::kVacateOnDeparture;
  variants[7].faults.crash_rate = 0.1;
  variants[8].engine = sim::EngineKind::kMacro;
  for (const CellKey& v : variants) {
    EXPECT_NE(v.hash(), h0);
    EXPECT_FALSE(v == base);
  }
}

// --- ResultCache -------------------------------------------------------

TEST(ResultCache, LruEvictionUnderByteBudget) {
  // Budget fits two of the three 10-byte entries (key 1 + body 9).
  ResultCache cache(20);
  cache.put("a", "AAAAAAAAA");
  cache.put("b", "BBBBBBBBB");
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch "a" so "b" is the LRU victim when "c" arrives.
  std::string out;
  ASSERT_TRUE(cache.get("a", &out));
  EXPECT_EQ(out, "AAAAAAAAA");
  cache.put("c", "CCCCCCCCC");

  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get("a", &out));
  EXPECT_TRUE(cache.get("c", &out));
  EXPECT_FALSE(cache.get("b", &out));
}

TEST(ResultCache, OversizedEntryIsStillAdmitted) {
  ResultCache cache(8);
  cache.put("small", "x");
  cache.put("big", std::string(64, 'y'));
  std::string out;
  EXPECT_TRUE(cache.get("big", &out));
  EXPECT_FALSE(cache.get("small", &out));
  EXPECT_EQ(cache.entries(), 1u);
}

// --- protocol parser ---------------------------------------------------

TEST(Protocol, ParsesFullCell) {
  const std::string line = R"({"id":9,"op":"run","trace":true,"shards":4,"cell":{
      "strategy":"CLONING","dimension":5,"seed":7,
      "delay":{"kind":"uniform","lo":0.5,"hi":2.0},
      "policy":"random","visibility":true,
      "semantics":"vacate-on-departure","max_agent_steps":1000,
      "livelock_window":100,"engine":"auto"}})";
  Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(line, &req, &error)) << error;
  EXPECT_EQ(req.id, 9u);
  EXPECT_EQ(req.op, Op::kRun);
  EXPECT_TRUE(req.trace);
  EXPECT_EQ(req.shards, 4u);
  EXPECT_EQ(req.key.strategy, "CLONING");
  EXPECT_EQ(req.key.dimension, 5u);
  EXPECT_EQ(req.key.seed, 7u);
  EXPECT_EQ(req.key.delay, "uniform(0.5,2)");
  EXPECT_EQ(req.key.policy, sim::WakePolicy::kRandom);
  EXPECT_TRUE(req.key.visibility);
  EXPECT_EQ(req.key.semantics, sim::MoveSemantics::kVacateOnDeparture);
  EXPECT_EQ(req.key.max_agent_steps, 1000u);
  EXPECT_EQ(req.key.livelock_window, 100u);
  EXPECT_EQ(req.key.engine, sim::EngineKind::kAuto);
}

TEST(Protocol, RejectsMalformedInputWithDiagnostics) {
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",
      R"({"op":"run"})",                                      // no id
      R"({"id":-1,"op":"ping"})",                             // negative id
      R"({"id":1,"op":"frobnicate"})",                        // unknown op
      R"({"id":1,"op":"run"})",                               // no cell
      R"({"id":1,"op":"run","cell":{"dimension":4}})",        // no strategy
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN"}})",   // no dimension
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":0}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"seed":-3}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"bogus":1}})",
      R"({"id":1,"op":"ping","bogus":1})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"policy":"lifo"}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"delay":"gaussian"}})",
      // uniform bounds that would trip DelayModel's precondition if they
      // reached it: parse_request must reject them as plain errors.
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"delay":{"kind":"uniform","lo":0.0,"hi":1.0}}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"delay":{"kind":"uniform","lo":2.0,"hi":1.0}}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"delay":{"kind":"uniform","lo":1.0}}})",
      R"({"id":1,"op":"run","shards":-2,"cell":{"strategy":"CLEAN","dimension":4}})",
      R"({"id":1,"op":"run","shards":"many","cell":{"strategy":"CLEAN","dimension":4}})",
      // fault rates outside [0, 1] and stall factors below 1 would trip
      // FaultSchedule's preconditions if they reached it.
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"faults":{"crash_rate":2.0,"wb_loss_rate":0,"wb_corrupt_rate":0,"wake_drop_rate":0,"link_stall_rate":0,"stall_factor":8,"seed":1,"events":[]}}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"faults":{"crash_rate":0,"wb_loss_rate":0,"wb_corrupt_rate":0,"wake_drop_rate":-0.5,"link_stall_rate":0,"stall_factor":8,"seed":1,"events":[]}}})",
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"faults":{"crash_rate":0,"wb_loss_rate":0,"wb_corrupt_rate":0,"wake_drop_rate":0,"link_stall_rate":0,"stall_factor":0.5,"seed":1,"events":[]}}})",
  };
  for (const char* line : bad) {
    Request req;
    std::string error;
    EXPECT_FALSE(serve::parse_request(line, &req, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

// --- Service -----------------------------------------------------------

TEST(Service, CacheHitReplaysByteIdenticalBody) {
  Service service(ServiceConfig{.threads = 2, .cache_bytes = 1 << 20});

  const Service::Reply cold = service.handle(kRunClean6);
  ASSERT_NE(cold.line.find("\"ok\":true"), std::string::npos) << cold.line;
  EXPECT_NE(cold.line.find("\"cached\":false"), std::string::npos);

  const Service::Reply warm = service.handle(kRunClean6);
  EXPECT_NE(warm.line.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(body_of(cold.line), body_of(warm.line));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.executions, 1u);
}

TEST(Service, CaseInsensitiveStrategySharesOneCacheEntry) {
  Service service(ServiceConfig{.threads = 1});
  const Service::Reply a = service.handle(
      R"({"id":1,"op":"run","cell":{"strategy":"clean","dimension":4}})");
  const Service::Reply b = service.handle(
      R"({"id":2,"op":"run","cell":{"strategy":"CLEAN","dimension":4}})");
  ASSERT_NE(a.line.find("\"ok\":true"), std::string::npos) << a.line;
  EXPECT_NE(b.line.find("\"cached\":true"), std::string::npos) << b.line;
  EXPECT_EQ(body_of(a.line), body_of(b.line));
}

TEST(Service, TraceVariantIsADistinctCacheEntry) {
  Service service(ServiceConfig{.threads = 1});
  const Service::Reply plain = service.handle(kRunClean6);
  const Service::Reply traced = service.handle(
      R"({"id":2,"op":"run","trace":true,"cell":{"strategy":"CLEAN","dimension":6,"seed":3}})");
  ASSERT_NE(traced.line.find("\"ok\":true"), std::string::npos)
      << traced.line;
  EXPECT_NE(traced.line.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(traced.line.find("\"trace\":["), std::string::npos);
  EXPECT_EQ(plain.line.find("\"trace\":["), std::string::npos);
  EXPECT_EQ(service.stats().cache_entries, 2u);
}

TEST(Service, ShardCountNeverSplitsTheCache) {
  // Shard count is an execution detail (sim/shard.hpp): a cell computed
  // under one count must serve requests made under any other, with
  // byte-identical body bytes and a single cache entry.
  Service service(ServiceConfig{.threads = 1});
  const Service::Reply serial = service.handle(
      R"({"id":1,"op":"run","shards":1,"cell":{"strategy":"CLEAN","dimension":8,"engine":"macro"}})");
  ASSERT_NE(serial.line.find("\"ok\":true"), std::string::npos) << serial.line;
  const Service::Reply sharded = service.handle(
      R"({"id":2,"op":"run","shards":8,"cell":{"strategy":"CLEAN","dimension":8,"engine":"macro"}})");
  EXPECT_NE(sharded.line.find("\"cached\":true"), std::string::npos)
      << sharded.line;
  EXPECT_EQ(body_of(serial.line), body_of(sharded.line));
  EXPECT_EQ(service.stats().cache_entries, 1u);
  EXPECT_EQ(service.stats().executions, 1u);
}

TEST(Service, CoalescesConcurrentIdenticalRequestsIntoOneExecution) {
  constexpr int kClients = 4;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;

  ServiceConfig config;
  config.threads = 1;
  config.exec_gate = [&](const CellKey&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  Service service(config);

  std::vector<std::thread> clients;
  std::vector<std::string> replies(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { replies[i] = service.handle(kRunClean6).line; });
  }

  // All four requests target one cell: one leader executes (held at the
  // gate), three join the in-flight entry.
  ASSERT_TRUE(wait_until([&] { return service.stats().coalesced == 3; }));
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::thread& t : clients) t.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.hits, 0u);

  int coalesced_replies = 0;
  for (const std::string& reply : replies) {
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    EXPECT_EQ(body_of(reply), body_of(replies[0]));
    if (reply.find("\"coalesced\":true") != std::string::npos) {
      ++coalesced_replies;
    }
  }
  EXPECT_EQ(coalesced_replies, 3);
}

TEST(Service, RejectsWhenPendingCellsExceedBudget) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;

  ServiceConfig config;
  config.threads = 1;
  config.max_pending = 1;
  config.exec_gate = [&](const CellKey&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  Service service(config);

  std::thread leader([&] { (void)service.handle(kRunClean6); });
  ASSERT_TRUE(wait_until([&] { return service.stats().misses == 1; }));

  // A *distinct* cell must be turned away while the slot is held...
  const Service::Reply rejected = service.handle(
      R"({"id":2,"op":"run","cell":{"strategy":"CLEAN","dimension":5}})");
  EXPECT_NE(rejected.line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(rejected.line.find("overloaded"), std::string::npos);
  EXPECT_EQ(service.stats().rejected, 1u);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  leader.join();

  // ...and admitted once the in-flight table drains.
  const Service::Reply accepted = service.handle(
      R"({"id":3,"op":"run","cell":{"strategy":"CLEAN","dimension":5}})");
  EXPECT_NE(accepted.line.find("\"ok\":true"), std::string::npos)
      << accepted.line;
}

TEST(Service, AdmissionErrorsForInvalidRuns) {
  Service service(ServiceConfig{.threads = 1, .max_dimension = 6});
  // Every refused line is answered under its own id once the parser has
  // read a valid one; a line that is not JSON gets id 0.
  const struct {
    const char* line;
    const char* expect;
    const char* reply_prefix;
  } cases[] = {
      {R"({"id":1,"op":"run","cell":{"strategy":"CLEEN","dimension":4}})",
       "unknown strategy", R"({"id":1,"ok":false)"},
      {R"({"id":2,"op":"run","cell":{"strategy":"CLEAN","dimension":9}})",
       "exceeds server limit", R"({"id":2,"ok":false)"},
      {R"({"id":3,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"engine":"macro","policy":"random"}})",
       "macro engine requires", R"({"id":3,"ok":false)"},
      {"{\"id\":4,\"op\":\"run\"}", "missing", R"({"id":4,"ok":false)"},
      {R"({"id":5,"op":"frobnicate"})", "unknown op", R"({"id":5,"ok":false)"},
      {"not json at all", "not valid JSON", R"({"id":0,"ok":false)"},
  };
  for (const auto& c : cases) {
    const Service::Reply reply = service.handle(c.line);
    EXPECT_EQ(reply.line.rfind(c.reply_prefix, 0), 0u) << reply.line;
    EXPECT_NE(reply.line.find(c.expect), std::string::npos) << reply.line;
    EXPECT_FALSE(reply.shutdown);
  }
  EXPECT_EQ(service.stats().executions, 0u);
}

TEST(Service, OutOfRangeFaultSpecGetsAnErrorReplyAndServiceStaysUp) {
  ServiceConfig config;
  config.threads = 1;
  Service service(config);
  const Service::Reply bad = service.handle(
      R"({"id":1,"op":"run","cell":{"strategy":"CLEAN","dimension":4,"faults":{"crash_rate":2.0,"wb_loss_rate":0,"wb_corrupt_rate":0,"wake_drop_rate":0,"link_stall_rate":0,"stall_factor":0.5,"seed":1,"events":[]}}})");
  EXPECT_EQ(bad.line.rfind(R"({"id":1,"ok":false)", 0), 0u) << bad.line;
  EXPECT_NE(bad.line.find("crash_rate"), std::string::npos) << bad.line;

  const Service::Reply ping = service.handle(R"({"id":2,"op":"ping"})");
  EXPECT_NE(ping.line.find("\"pong\":true"), std::string::npos) << ping.line;
  EXPECT_EQ(service.stats().errors, 1u);
  EXPECT_EQ(service.stats().executions, 0u);
}

TEST(Service, StatsAndPingAndShutdownOps) {
  Service service(ServiceConfig{.threads = 1});
  const Service::Reply ping = service.handle(R"({"id":5,"op":"ping"})");
  EXPECT_NE(ping.line.find("\"id\":5"), std::string::npos);
  EXPECT_NE(ping.line.find("\"pong\":true"), std::string::npos);
  EXPECT_FALSE(ping.shutdown);

  (void)service.handle(kRunClean6);
  const Service::Reply stats = service.handle(R"({"id":6,"op":"stats"})");
  EXPECT_NE(stats.line.find("\"executions\":1"), std::string::npos)
      << stats.line;
  EXPECT_NE(stats.line.find("\"cache_entries\":1"), std::string::npos);

  const Service::Reply bye = service.handle(R"({"id":7,"op":"shutdown"})");
  EXPECT_TRUE(bye.shutdown);
  EXPECT_NE(bye.line.find("\"shutting_down\":true"), std::string::npos);
}

// --- TCP end-to-end ----------------------------------------------------

TEST(ServerTcp, ServesRunsAndSurvivesGarbageThenShutsDown) {
  // Several start -> shutdown-op -> wait() rounds: the shutdown op runs
  // stop() on the server's own shutdown thread while the acceptor is
  // still blocked in accept(), which is the listener race the
  // thread-sanitizer job watches for.
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ServerConfig config;  // ephemeral port on 127.0.0.1
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0);

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

    std::string reply;
    ASSERT_TRUE(client.request(R"({"id":1,"op":"ping"})", &reply));
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);

    // Malformed bytes on a live socket: an error reply, not a dropped
    // connection or a dead server.
    ASSERT_TRUE(client.request("this is not json", &reply));
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);

    ASSERT_TRUE(client.request(kRunClean6, &reply));
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    const std::string cold_body = body_of(reply);

    // A second connection sees the cache entry the first one created.
    Client other;
    ASSERT_TRUE(other.connect("127.0.0.1", server.port(), &error)) << error;
    ASSERT_TRUE(other.request(kRunClean6, &reply));
    EXPECT_NE(reply.find("\"cached\":true"), std::string::npos);
    EXPECT_EQ(body_of(reply), cold_body);

    ASSERT_TRUE(other.request(R"({"id":9,"op":"shutdown"})", &reply));
    EXPECT_NE(reply.find("\"shutting_down\":true"), std::string::npos);
    server.wait();

    const ServiceStats stats = server.service().stats();
    EXPECT_EQ(stats.executions, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.errors, 1u);
  }
}

}  // namespace
}  // namespace hcs
