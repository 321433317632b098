#include "checks.hpp"

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/clean_sync.hpp"
#include "core/formulas.hpp"
#include "core/session.hpp"
#include "serve/protocol.hpp"

namespace hcsbench {

namespace core = hcs::core;

Expected expected_macro(std::string_view strategy, unsigned d) {
  Expected e;
  e.engine = hcs::sim::EngineKind::kMacro;
  if (strategy == "CLEAN") {
    e.team = core::clean_team_size(d);
    e.agent_moves = core::clean_agent_moves(d);
  } else {
    e.team = core::visibility_team_size(d);
    e.total_moves = core::visibility_moves(d);
    e.makespan = static_cast<double>(core::visibility_time(d));
  }
  return e;
}

Expected expected_event(std::string_view strategy, unsigned d) {
  Expected e;
  e.engine = hcs::sim::EngineKind::kEvent;
  if (strategy == "CLEAN") {
    e.team = core::clean_team_size(d);
    e.agent_moves = core::clean_agent_moves(d);
    e.total_moves =
        e.agent_moves + core::measure_clean_sync(d).sync_moves_total;
  } else if (strategy == "CLONING") {
    e.team = core::cloning_agents(d);
    e.total_moves = core::cloning_moves(d);
  } else {  // CLEAN-WITH-VISIBILITY, SYNCHRONOUS
    e.team = core::visibility_team_size(d);
    e.total_moves = core::visibility_moves(d);
  }
  return e;
}

std::string check_outcome(const core::SimOutcome& o, const Expected& e) {
  const std::string who = o.strategy + " H_" + std::to_string(o.dimension);
  const auto mismatch = [&who](const char* what, double got, double want) {
    return who + ": " + what + " " + std::to_string(got) + " != " +
           std::to_string(want);
  };
  if (!o.correct()) return who + ": verdict " + o.verdict();
  if (!o.all_clean) return who + ": not all clean";
  if (!o.clean_region_connected) return who + ": clean region disconnected";
  if (o.recontaminations != 0) return who + ": recontaminated";
  if (o.engine_used != e.engine) {
    return who + ": ran on engine " + hcs::sim::to_string(o.engine_used);
  }
  if (o.team_size != e.team) {
    return mismatch("team", static_cast<double>(o.team_size),
                    static_cast<double>(e.team));
  }
  if (e.total_moves != 0 && o.total_moves != e.total_moves) {
    return mismatch("moves", static_cast<double>(o.total_moves),
                    static_cast<double>(e.total_moves));
  }
  if (e.agent_moves != 0 && o.agent_moves != e.agent_moves) {
    return mismatch("agent moves", static_cast<double>(o.agent_moves),
                    static_cast<double>(e.agent_moves));
  }
  if (e.makespan >= 0.0 && o.makespan != e.makespan) {
    return mismatch("makespan", o.makespan, e.makespan);
  }
  return {};
}

std::uint64_t body_hash(std::string_view reply) {
  constexpr std::string_view kBody = "\"body\":";
  const std::size_t pos = reply.find(kBody);
  if (pos == std::string_view::npos) return 0;
  std::string_view body = reply.substr(pos + kBody.size());
  // Drop the line terminator, then the reply object's own closing brace.
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  if (!body.empty() && body.back() == '}') body.remove_suffix(1);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

std::string BodyLedger::check(std::size_t cell, std::string_view reply) {
  if (cell >= cells_) return "reply for unknown cell";
  if (reply.find("\"ok\":true") == std::string_view::npos) {
    return "reply not ok: " + std::string(reply.substr(0, 200));
  }
  const std::uint64_t h = body_hash(reply);
  if (h == 0) return "reply without body";
  std::uint64_t expected = 0;
  if (hashes_[cell].compare_exchange_strong(expected, h,
                                            std::memory_order_relaxed)) {
    return {};
  }
  if (expected != h) {
    return "cell " + std::to_string(cell) + ": body bytes changed on repeat";
  }
  return {};
}

bool self_test(std::string* why) {
  // Expected verdicts, in order: good outcome, corrupted outcome, good
  // body, corrupted body.
  std::vector<std::string> errors;

  hcs::SessionConfig config;
  config.dimension = 6;
  config.options.engine = hcs::sim::EngineKind::kMacro;
  hcs::Session session(std::move(config));
  core::SimOutcome outcome = session.run("CLEAN");
  const Expected expected = expected_macro("CLEAN", 6);
  errors.push_back(check_outcome(outcome, expected));
  outcome.team_size += 1;
  errors.push_back(check_outcome(outcome, expected));

  const std::string good =
      hcs::serve::ok_reply(1, true, false, "{\"outcome\":{\"team\":12}}");
  std::string corrupted = good;
  corrupted[corrupted.find("12")] = '3';
  BodyLedger ledger(1);
  errors.push_back(ledger.check(0, good));
  errors.push_back(ledger.check(0, corrupted));

  Tally tally;
  for (const std::string& error : errors) tally.record(error);
  if (errors[0].empty() && !errors[1].empty() && errors[2].empty() &&
      !errors[3].empty() && tally.failed == 2) {
    return true;
  }
  *why = "self-test: the corrupted outcome and body must be the only "
         "failed checks (got " + std::to_string(tally.failed) + " of " +
         std::to_string(tally.attempted) + " failed; first: " +
         tally.first_error + ")";
  return false;
}

}  // namespace hcsbench
