// Output checks: every op's answer is compared with the paper's closed
// forms (runs) or with the bytes first served for the same cell (serve).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/strategy.hpp"

namespace hcsbench {

/// The exact costs one run must report; 0 (or a negative makespan) means
/// the field has no closed form and is not checked.
struct Expected {
  hcs::sim::EngineKind engine = hcs::sim::EngineKind::kEvent;
  std::uint64_t team = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t agent_moves = 0;
  double makespan = -1.0;
};

/// Macro runs: CLEAN -> Theorem 2 team and Theorem 3 agent moves;
/// CLEAN-WITH-VISIBILITY -> Theorem 5 team, Theorem 7 makespan (= d) and
/// Theorem 8 moves.
[[nodiscard]] Expected expected_macro(std::string_view strategy, unsigned d);

/// Event runs of the four paper strategies: team and total moves, which
/// no wake order changes (CLEAN's synchronizer total from the counting
/// planner of Theorem 3's arithmetic, the rest from the closed forms).
[[nodiscard]] Expected expected_event(std::string_view strategy, unsigned d);

/// Empty when `outcome` is correct, all clean, has a connected clean
/// region, no recontamination, ran on the expected engine and matches
/// every checked cost; otherwise the first mismatch.
[[nodiscard]] std::string check_outcome(const hcs::core::SimOutcome& outcome,
                                        const Expected& expected);

/// FNV-1a over the "body" member of a reply line (everything after
/// `"body":` up to the closing brace); 0 when the line has no body.
[[nodiscard]] std::uint64_t body_hash(std::string_view reply);

/// First body hash seen per cell; every later reply for the cell must
/// carry the same bytes. Safe to share between client threads.
class BodyLedger {
 public:
  explicit BodyLedger(std::size_t cells)
      : hashes_(std::make_unique<std::atomic<std::uint64_t>[]>(cells)),
        cells_(cells) {}

  /// Empty when `reply` is ok and its body matches the cell's first body.
  [[nodiscard]] std::string check(std::size_t cell, std::string_view reply);

  /// The cell's first body hash (0 before any reply was seen).
  [[nodiscard]] std::uint64_t first(std::size_t cell) const {
    return hashes_[cell].load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> hashes_;
  std::size_t cells_;
};

}  // namespace hcsbench
