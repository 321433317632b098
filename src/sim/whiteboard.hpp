// Per-node whiteboards (Section 2 of the paper).
//
// Each node has a local storage area that agents read and write in fair
// mutual exclusion. In the discrete-event engine every agent step is
// atomic, so exclusion is structural.
//
// The paper's strategies need only O(log n) bits of whiteboard per node; to
// make that claim *checkable*, the whiteboard tracks the peak number of
// live 64-bit registers it ever held, and Metrics reports the max over all
// nodes. Keys are short fixed strings ("agents", "status", "order_target",
// ...): the key set is a constant of the algorithm, so peak_registers * 64
// bits is the honest measure of the state the algorithm keeps per node.
//
// Storage is a flat vector of (interned key, value) entries sorted by key
// id (see wb_key.hpp): the key set is tiny, so a whiteboard access is a
// short scan of one cache line instead of a string-keyed tree walk. The
// std::string_view overloads are thin shims that intern and forward --
// they keep external callers and the fault layer's key-targeting API
// working; protocol hot paths should pass WbKey directly.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/wb_key.hpp"

namespace hcs::sim {

class Whiteboard {
 public:
  /// Observer invoked after every committed set()/add(). The fault layer
  /// installs these to model storage failures: the hook may erase or
  /// overwrite the key it is told about (re-entrant writes from inside a
  /// hook do not re-fire it). Protocol code never installs hooks.
  using WriteHook = std::function<void(Whiteboard&, WbKey key)>;

  // The WbKey accessors are defined inline: they sit on the engine's
  // innermost loop (every agent step reads registers) and the whole body
  // is a short scan the compiler folds into the caller.

  /// Value of `key`, or `fallback` if never written.
  [[nodiscard]] std::int64_t get(WbKey key, std::int64_t fallback = 0) const {
    const std::size_t i = lower_bound(key);
    return i < entries_.size() && entries_[i].key == key ? entries_[i].value
                                                         : fallback;
  }

  /// Value of `key`, or nullopt when absent -- the read that distinguishes
  /// "never written / lost to a fault" from a legitimate zero. Readers must
  /// never observe stale data for an entry the fault layer erased.
  [[nodiscard]] std::optional<std::int64_t> try_get(WbKey key) const {
    const std::size_t i = lower_bound(key);
    if (i < entries_.size() && entries_[i].key == key) {
      return entries_[i].value;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool has(WbKey key) const {
    const std::size_t i = lower_bound(key);
    return i < entries_.size() && entries_[i].key == key;
  }

  /// Writes `key` = `value`.
  void set(WbKey key, std::int64_t value) {
    const std::size_t i = lower_bound(key);
    if (i < entries_.size() && entries_[i].key == key) {
      entries_[i].value = value;
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{key, value});
      if (entries_.size() > peak_) peak_ = entries_.size();
    }
    fire_hook(key);
  }

  /// Adds `delta` to `key` (missing keys start at 0); returns the new
  /// value. Commits via a single lookup and fires the write hook once.
  std::int64_t add(WbKey key, std::int64_t delta) {
    const std::size_t i = lower_bound(key);
    std::int64_t next;
    if (i < entries_.size() && entries_[i].key == key) {
      next = entries_[i].value += delta;
    } else {
      next = delta;
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{key, delta});
      if (entries_.size() > peak_) peak_ = entries_.size();
    }
    // The hook may damage the entry; the returned value is the committed
    // one, exactly as the historical get-then-set implementation returned.
    fire_hook(key);
    return next;
  }

  /// Removes `key` if present (algorithms erase finished fields to respect
  /// the O(log n)-bit budget).
  void erase(WbKey key) {
    const std::size_t i = lower_bound(key);
    if (i < entries_.size() && entries_[i].key == key) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  // String shims: intern and forward. The intern table is append-only, so
  // even read misses are bounded by the number of distinct names used.
  [[nodiscard]] std::int64_t get(std::string_view key,
                                 std::int64_t fallback = 0) const {
    return get(wb_key(key), fallback);
  }
  [[nodiscard]] std::optional<std::int64_t> try_get(
      std::string_view key) const {
    return try_get(wb_key(key));
  }
  [[nodiscard]] bool has(std::string_view key) const {
    return has(wb_key(key));
  }
  void set(std::string_view key, std::int64_t value) {
    set(wb_key(key), value);
  }
  std::int64_t add(std::string_view key, std::int64_t delta) {
    return add(wb_key(key), delta);
  }
  void erase(std::string_view key) { erase(wb_key(key)); }

  /// Number of live registers now / at peak.
  [[nodiscard]] std::size_t live_registers() const { return entries_.size(); }
  [[nodiscard]] std::size_t peak_registers() const { return peak_; }

  /// Peak storage in bits (64 bits per register).
  [[nodiscard]] std::size_t peak_bits() const { return peak_ * 64; }

  void clear() { entries_.clear(); }

  /// Installs (or clears, with an empty function) the fault write hook.
  void set_write_hook(WriteHook hook) { hook_ = std::move(hook); }

 private:
  struct Entry {
    WbKey key;
    std::int64_t value;
  };

  [[nodiscard]] std::size_t lower_bound(WbKey key) const {
    // Entry counts are O(log n) bits / 64 per node -- single digits -- so
    // a forward scan beats binary search on the sorted vector.
    std::size_t i = 0;
    while (i < entries_.size() && entries_[i].key < key) ++i;
    return i;
  }

  void fire_hook(WbKey key);

  std::vector<Entry> entries_;  // sorted by key id
  std::size_t peak_ = 0;
  WriteHook hook_;
  bool in_hook_ = false;
};

}  // namespace hcs::sim
