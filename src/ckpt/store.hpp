// hcs::ckpt -- a bounded-retention snapshot store.
//
// One directory holds a monotone sequence of sealed snapshots,
// snap-<16 hex seq>.ckpt, each a canonical hcs::Json document wrapped in
// the blob.hpp checksum footer. commit() assigns the next sequence number,
// writes crash-consistently (temp + fsync + atomic rename), and prunes
// down to the kSnapshotsKept newest good files. Its one caller is the
// fuzz campaign (fuzz/campaign.hpp), which commits its manifest after
// every batch; sweeps and single runs are not checkpointed, because
// running them again reproduces them byte for byte.
//
// load_latest() scans newest to oldest and returns the first snapshot that
// unseals and parses, counting how many corrupt/torn files it skipped on
// the way. A crash mid-commit therefore costs at most the interrupted
// snapshot: the previous one is still intact under its own name and is
// what the restorer sees.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace hcs::ckpt {

/// Good snapshots retained after every commit; older ones are pruned. At
/// least 2, so one torn newest file always leaves a good predecessor.
inline constexpr std::uint32_t kSnapshotsKept = 3;
static_assert(kSnapshotsKept >= 2);

struct LoadedSnapshot {
  std::uint64_t seq = 0;
  std::string path;
  Json doc;
  /// Newer snapshots skipped because they failed the checksum or did not
  /// parse -- nonzero means a torn write was detected and survived.
  std::uint64_t corrupt_skipped = 0;
};

class Store {
 public:
  explicit Store(std::string dir);

  /// Seals and writes `doc` as the next snapshot and prunes old ones.
  /// Returns the assigned sequence number, 0 on failure.
  std::uint64_t commit(const Json& doc, std::string* error = nullptr);

  /// Newest snapshot that unseals and parses; nullopt when none does (or
  /// the directory is empty/absent).
  [[nodiscard]] std::optional<LoadedSnapshot> load_latest(
      std::string* error = nullptr) const;

  /// Sequence numbers present on disk, ascending (corrupt files included:
  /// presence is judged by name only).
  [[nodiscard]] std::vector<std::uint64_t> list() const;

  [[nodiscard]] std::string path_for(std::uint64_t seq) const;

 private:
  std::string dir_;
};

}  // namespace hcs::ckpt
