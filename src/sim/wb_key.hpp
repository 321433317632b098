// Interned whiteboard keys.
//
// The paper's strategies use a fixed, small set of whiteboard register
// names ("present", "cmd_move", ...): the key set is a constant of the
// algorithm, not of the input size. The simulator therefore interns every
// key name once into a process-wide table and passes a dense 16-bit id
// (WbKey) through the hot path, so a whiteboard access costs an integer
// compare instead of a string compare, and recording a key in a trace or
// journal costs a pointer chase instead of a copy.
//
// The table is append-only and thread-safe: wb_key() interns under a
// mutex (slow path, called once per distinct name -- strategy code caches
// the result in a namespace-scope constant), while wb_key_name() is a
// lock-free acquire-load, safe to call concurrently with interning from
// the sweep pool's worker threads.

#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace hcs::sim {

/// Dense id of an interned whiteboard key. Value-semantic and cheap to
/// copy; default-constructed keys are invalid until assigned from
/// wb_key().
class WbKey {
 public:
  constexpr WbKey() = default;

  [[nodiscard]] constexpr std::uint16_t id() const { return id_; }
  [[nodiscard]] constexpr bool valid() const { return id_ != kInvalid; }

  friend constexpr bool operator==(WbKey, WbKey) = default;
  friend constexpr auto operator<=>(WbKey, WbKey) = default;

 private:
  friend WbKey wb_key(std::string_view name);

  static constexpr std::uint16_t kInvalid = 0xffff;

  constexpr explicit WbKey(std::uint16_t id) : id_(id) {}

  std::uint16_t id_ = kInvalid;
};

/// Interns `name` (non-empty) and returns its key; repeated calls with the
/// same name return the same key. Thread-safe.
[[nodiscard]] WbKey wb_key(std::string_view name);

/// The name `key` was interned under. Lock-free; the reference stays valid
/// for the life of the process.
[[nodiscard]] const std::string& wb_key_name(WbKey key);

/// Number of distinct keys interned so far (diagnostics/tests).
[[nodiscard]] std::size_t wb_key_count();

}  // namespace hcs::sim
