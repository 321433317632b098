#include "serve/protocol.hpp"

#include <utility>

#include "ckpt/outcome_io.hpp"
#include "fault/fault_io.hpp"

namespace hcs::serve {

namespace {

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

/// kUint-only: Json(int64) normalizes non-negative values to kUint, so a
/// kInt member is a negative number and as_uint() on it would abort
/// instead of failing -- the corrupt-input guard every parser in this
/// codebase uses.
const Json* get_uint(const Json& json, const char* key) {
  const Json* member = json.get(key);
  if (member == nullptr || member->type() != Json::Type::kUint) return nullptr;
  return member;
}

bool parse_cell(const Json& json, Request* out, std::string* error) {
  if (!json.is_object()) return fail(error, "\"cell\" must be an object");

  const Json* strategy = json.get("strategy");
  if (strategy == nullptr || !strategy->is_string()) {
    return fail(error, "cell missing string \"strategy\"");
  }
  out->key.strategy = strategy->as_string();

  const Json* dimension = get_uint(json, "dimension");
  if (dimension == nullptr) {
    return fail(error, "cell missing unsigned \"dimension\"");
  }
  if (dimension->as_uint() < 1 || dimension->as_uint() > 30) {
    return fail(error, "cell dimension out of range [1, 30]");
  }
  out->key.dimension = static_cast<unsigned>(dimension->as_uint());

  for (const auto& [name, value] : json.members()) {
    if (name == "strategy" || name == "dimension") continue;
    if (name == "seed") {
      if (value.type() != Json::Type::kUint) {
        return fail(error, "cell \"seed\" must be unsigned");
      }
      out->key.seed = value.as_uint();
    } else if (name == "delay") {
      if (!run::parse_delay(value, &out->delay, error)) return false;
      out->key.delay = out->delay.label();
    } else if (name == "policy") {
      if (!value.is_string() ||
          !wake_policy_from_name(value.as_string(), &out->key.policy)) {
        return fail(error, "unknown wake policy");
      }
    } else if (name == "visibility") {
      if (value.type() != Json::Type::kBool) {
        return fail(error, "cell \"visibility\" must be a bool");
      }
      out->key.visibility = value.as_bool();
    } else if (name == "semantics") {
      if (!value.is_string() ||
          !move_semantics_from_name(value.as_string(), &out->key.semantics)) {
        return fail(error, "unknown move semantics");
      }
    } else if (name == "max_agent_steps") {
      if (value.type() != Json::Type::kUint || value.as_uint() == 0) {
        return fail(error, "cell \"max_agent_steps\" must be unsigned > 0");
      }
      out->key.max_agent_steps = value.as_uint();
    } else if (name == "livelock_window") {
      if (value.type() != Json::Type::kUint || value.as_uint() == 0) {
        return fail(error, "cell \"livelock_window\" must be unsigned > 0");
      }
      out->key.livelock_window = value.as_uint();
    } else if (name == "faults") {
      std::string sub;
      if (!fault::parse_fault_spec(value, &out->key.faults, &sub)) {
        return fail(error, "cell \"faults\": " + sub);
      }
    } else if (name == "recovery") {
      std::string sub;
      if (!fault::parse_recovery_config(value, &out->key.recovery, &sub)) {
        return fail(error, "cell \"recovery\": " + sub);
      }
    } else if (name == "engine") {
      if (!value.is_string() ||
          !ckpt::engine_kind_from_string(value.as_string(),
                                         &out->key.engine)) {
        return fail(error, "unknown engine kind");
      }
    } else {
      return fail(error, "unknown cell field \"" + name + "\"");
    }
  }
  return true;
}

}  // namespace

bool parse_request(std::string_view line, Request* out, std::string* error) {
  out->id = 0;
  std::string parse_error;
  const std::optional<Json> doc = Json::parse(line, &parse_error);
  if (!doc.has_value()) {
    return fail(error, "request is not valid JSON: " + parse_error);
  }
  if (!doc->is_object()) return fail(error, "request must be a JSON object");

  Request req;
  const Json* id = get_uint(*doc, "id");
  if (id == nullptr) return fail(error, "request missing unsigned \"id\"");
  req.id = id->as_uint();
  out->id = req.id;  // a refused request is still answered under its id

  const Json* op = doc->get("op");
  if (op == nullptr || !op->is_string()) {
    return fail(error, "request missing string \"op\"");
  }
  const std::string& op_name = op->as_string();
  if (op_name == "run") {
    req.op = Op::kRun;
  } else if (op_name == "stats") {
    req.op = Op::kStats;
  } else if (op_name == "ping") {
    req.op = Op::kPing;
  } else if (op_name == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    return fail(error, "unknown op \"" + op_name + "\"");
  }

  for (const auto& [name, value] : doc->members()) {
    if (name == "id" || name == "op" || name == "cell") continue;
    if (name == "trace") {
      if (value.type() != Json::Type::kBool) {
        return fail(error, "\"trace\" must be a bool");
      }
      req.trace = value.as_bool();
    } else if (name == "shards") {
      if (value.type() != Json::Type::kUint) {
        return fail(error, "\"shards\" must be an unsigned integer");
      }
      req.shards = static_cast<std::uint32_t>(value.as_uint());
    } else {
      return fail(error, "unknown request field \"" + name + "\"");
    }
  }

  if (req.op == Op::kRun) {
    const Json* cell = doc->get("cell");
    if (cell == nullptr) {
      return fail(error, "run request missing \"cell\"");
    }
    if (!parse_cell(*cell, &req, error)) return false;
  }

  *out = std::move(req);
  return true;
}

std::string ok_reply(std::uint64_t id, bool cached, bool coalesced,
                     const std::string& body) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":true";
  out += ",\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"coalesced\":";
  out += coalesced ? "true" : "false";
  // The body is spliced in verbatim: cached bytes replay byte-identical.
  out += ",\"body\":";
  out += body;
  out += "}\n";
  return out;
}

std::string error_reply(std::uint64_t id, const std::string& message) {
  Json doc = Json::object();
  doc.set("id", id);
  doc.set("ok", false);
  doc.set("error", message);
  return doc.dump_compact() + "\n";
}

}  // namespace hcs::serve
