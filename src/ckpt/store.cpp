#include "ckpt/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "ckpt/blob.hpp"
#include "util/assert.hpp"

namespace hcs::ckpt {

namespace {

constexpr std::string_view kPrefix = "snap-";
constexpr std::string_view kSuffix = ".ckpt";

bool parse_seq(const std::string& name, std::uint64_t* seq) {
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(kPrefix.size() + 16, kSuffix.size(), kSuffix) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[kPrefix.size() + i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *seq = value;
  return true;
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
  HCS_EXPECTS(!dir_.empty());
}

std::string Store::path_for(std::uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof name, "snap-%016llx.ckpt",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

std::vector<std::uint64_t> Store::list() const {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return seqs;
  for (const auto& entry : it) {
    std::uint64_t seq = 0;
    if (parse_seq(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

std::uint64_t Store::commit(const Json& doc, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::vector<std::uint64_t> seqs = list();
  const std::uint64_t seq = seqs.empty() ? 1 : seqs.back() + 1;
  if (!write_sealed_atomic(path_for(seq), doc.dump(), error)) return 0;
  seqs.push_back(seq);
  // Retention counts *good* snapshots only: a torn/corrupt file must not
  // displace a restorable one (a run that tears N snapshots still keeps N
  // good ones). Walk newest-to-oldest, keep the newest kSnapshotsKept
  // files that pass the seal check, and delete everything older than the
  // last of those -- so corrupt files newer than the oldest good snapshot
  // kept age out naturally without costing retention.
  std::uint32_t good = 0;
  std::size_t cut = seqs.size();  // index of the oldest good file kept
  for (std::size_t i = seqs.size(); i-- > 0 && good < kSnapshotsKept;) {
    std::string payload;
    if (read_sealed(path_for(seqs[i]), &payload, nullptr)) {
      ++good;
      cut = i;
    }
  }
  for (std::size_t i = 0; i < cut; ++i) {
    std::filesystem::remove(path_for(seqs[i]), ec);
  }
  return seq;
}

std::optional<LoadedSnapshot> Store::load_latest(std::string* error) const {
  const std::vector<std::uint64_t> seqs = list();
  std::uint64_t skipped = 0;
  std::string last_reason = "no snapshots in " + dir_;
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    LoadedSnapshot snap;
    snap.seq = *it;
    snap.path = path_for(*it);
    std::string payload;
    std::string reason;
    if (!read_sealed(snap.path, &payload, &reason)) {
      ++skipped;
      last_reason = std::move(reason);
      continue;
    }
    std::optional<Json> doc = Json::parse(payload, &reason);
    if (!doc.has_value()) {
      ++skipped;
      last_reason = snap.path + ": " + reason;
      continue;
    }
    snap.doc = std::move(*doc);
    snap.corrupt_skipped = skipped;
    return snap;
  }
  if (error != nullptr) *error = last_reason;
  return std::nullopt;
}

}  // namespace hcs::ckpt
