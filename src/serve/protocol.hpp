// The hcsd wire protocol: line-delimited JSON over TCP (docs/SERVING.md).
//
// One request per line, one reply line per request, in order. A request is
// a compact JSON object:
//
//   {"id":7,"op":"run","cell":{"strategy":"CLEAN","dimension":6,...},
//    "trace":false}
//
// ops: "run" (execute/serve a cell), "stats" (service counters), "ping",
// "shutdown" (drain and stop the server). The "cell" object's fields
// mirror hcs::CellKey's canonical schema; everything but strategy and
// dimension is optional and defaults to the CellKey defaults. "delay"
// accepts the string shorthands "unit" / "heavy-tailed" or a
// {"kind":...,"lo":...,"hi":...} object (run::DelaySpec's JSON form).
// "shards" (top-level, like "trace") picks the macro executor's subcube
// shard count for this execution; unlike "trace" it never splits the
// cache, because results are shard-invariant.
//
// Replies are one compact JSON line:
//
//   {"id":7,"ok":true,"cached":true,"coalesced":false,"body":{...}}
//   {"id":7,"ok":false,"error":"unknown strategy \"CLEEN\""}
//
// The "body" bytes of a run reply are stored verbatim in the result
// cache, so a cache hit replays byte-identical bytes to the cold run --
// the protocol-level contract test_serve.cpp pins.
//
// Parsing is strict and total: malformed input yields a diagnostic, never
// an abort -- this is the one layer of the codebase that consumes
// untrusted bytes.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/cell_key.hpp"
#include "run/sweep.hpp"
#include "util/json.hpp"

namespace hcs::serve {

enum class Op : std::uint8_t { kRun, kStats, kPing, kShutdown };

struct Request {
  std::uint64_t id = 0;
  Op op = Op::kPing;
  /// Run identity (op == kRun). key.delay holds the canonical label;
  /// `delay` holds the enumerable spec the executor rebuilds the sampler
  /// from.
  CellKey key;
  run::DelaySpec delay;
  /// Include the full event trace in the result body (cached separately:
  /// the same cell with and without trace are distinct cache entries).
  bool trace = false;
  /// Subcube shards for the macro executor (sim/shard.hpp); 0 defers to
  /// the server's configured default. Like the knob everywhere else this
  /// is an execution detail, not identity: results are byte-identical at
  /// any value, so it never enters the cache key -- a cell computed under
  /// one shard count serves requests made under another.
  std::uint32_t shards = 0;
};

/// Parses one request line. False -- with a one-line diagnostic in
/// `*error` -- on any malformed input; `*out` is unspecified then, except
/// `out->id`: the request's id once a valid one was read, else 0. Never
/// aborts. Shape-only: unknown strategies, oversized dimensions and
/// macro-ineligible cells are admission decisions made by serve::Service.
[[nodiscard]] bool parse_request(std::string_view line, Request* out,
                                 std::string* error);

/// {"id":N,"ok":true,"cached":...,"coalesced":...,"body":<body>}\n with
/// `body` -- an already-compact JSON document -- spliced in verbatim.
[[nodiscard]] std::string ok_reply(std::uint64_t id, bool cached,
                                   bool coalesced, const std::string& body);

/// {"id":N,"ok":false,"error":"..."}\n
[[nodiscard]] std::string error_reply(std::uint64_t id,
                                      const std::string& message);

}  // namespace hcs::serve
