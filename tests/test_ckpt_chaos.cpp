// The chaos-kill harness: SIGKILL a fuzz campaign -- the one job that
// checkpoints -- at randomized points, resume it until it reaches the
// reference run's iteration count, and require manifest.json and every
// art_*.json byte-identical to an uninterrupted run's; also truncate the
// newest sealed snapshot of a partial campaign and require the loader to
// fall back one batch, then resume to the same bytes.
//
// The subject is the real hcs_fuzz binary (path injected via
// HCS_FUZZ_BINARY) on a known-bad campaign with a fixed seed: --expect
// correct over fault workloads, so most cells fail and write artifacts.
// Kill delays are fractions of the reference run's own wall time, so one
// schedule fits a Release and a sanitizer build. Progress is read with
// load_campaign_state (the sealed snapshot), never from the manifest.json
// mirror, which is rewritten separately.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.hpp"
#include "fuzz/campaign.hpp"
#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kIterations = 1024;
const std::uint64_t kBatch = hcs::fuzz::CampaignConfig{}.batch_size;

struct Exit {
  bool signaled = false;
  int signal = 0;
  int code = -1;
};

/// Runs hcs_fuzz with `args` (stdout discarded: the campaign prints one
/// line per failure); if kill_after_ms >= 0, SIGKILLs it from outside
/// after that many milliseconds.
Exit run_fuzz(std::vector<std::string> args, int kill_after_ms = -1) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execv(HCS_FUZZ_BINARY, argv.data());
    _exit(127);
  }
  EXPECT_GT(pid, 0);
  if (kill_after_ms >= 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
    kill(pid, SIGKILL);
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  Exit result;
  if (WIFSIGNALED(status)) {
    result.signaled = true;
    result.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    result.code = WEXITSTATUS(status);
  }
  return result;
}

/// `run` starts the known-bad campaign; `resume` continues it. Minimizing
/// is a CLI setting, not campaign state, so both verbs pass it.
std::vector<std::string> fuzz_args(const std::string& verb,
                                   const std::string& corpus,
                                   std::uint64_t iterations) {
  std::vector<std::string> args = {HCS_FUZZ_BINARY, verb, "--corpus", corpus,
                                   "--iterations", std::to_string(iterations),
                                   "--threads", "2", "--no-minimize"};
  if (verb == "run") {
    args.insert(args.end(), {"--seed", "5", "--expect", "correct",
                             "--max-dim", "6"});
  }
  return args;
}

/// Cells the sealed campaign state records as done; nullopt before the
/// first batch commit.
std::optional<std::uint64_t> progress(const std::string& corpus) {
  hcs::fuzz::Manifest manifest;
  if (!hcs::fuzz::load_campaign_state(corpus, &manifest)) return std::nullopt;
  return manifest.iterations_done;
}

/// One attempt to finish the campaign: resume from the sealed state, or
/// start afresh when no batch was committed yet.
Exit advance(const std::string& corpus, int kill_after_ms = -1) {
  const std::optional<std::uint64_t> done = progress(corpus);
  return run_fuzz(done.has_value()
                      ? fuzz_args("resume", corpus, kIterations - *done)
                      : fuzz_args("run", corpus, kIterations),
                  kill_after_ms);
}

/// manifest.json and every art_*.json, by name.
std::map<std::string, std::string> corpus_files(const std::string& corpus) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(corpus)) {
    const std::string name = entry.path().filename().string();
    if (name != "manifest.json" &&
        !(name.starts_with("art_") && name.ends_with(".json"))) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[name] = bytes.str();
  }
  return files;
}

std::string fresh_root(const std::string& name) {
  const std::string root = testing::TempDir() + "hcs_chaos_" + name;
  fs::remove_all(root);
  return root;
}

/// The uninterrupted campaign every scenario is compared against, run
/// once per suite.
class CkptChaosTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string corpus = fresh_root("reference");
    const auto start = std::chrono::steady_clock::now();
    const Exit result = run_fuzz(fuzz_args("run", corpus, kIterations));
    reference_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    ASSERT_FALSE(result.signaled);
    ASSERT_EQ(result.code, 0);
    ASSERT_EQ(progress(corpus), kIterations);
    reference = corpus_files(corpus);
    // The campaign is known-bad: it must have written artifacts.
    ASSERT_GT(reference.size(), 1u);
  }

  static inline std::map<std::string, std::string> reference;
  static inline double reference_ms = 0;
};

TEST_F(CkptChaosTest, RandomizedKillsResumeByteIdentical) {
  const std::string corpus = fresh_root("kills");
  std::mt19937 rng(20261020u);  // fixed seed: reproducible kill schedule
  std::uniform_real_distribution<double> fraction(0.05, 0.45);
  int kills = 0;
  for (int attempt = 0; attempt < 12 && progress(corpus) != kIterations;
       ++attempt) {
    const Exit result =
        advance(corpus, static_cast<int>(fraction(rng) * reference_ms));
    if (result.signaled) {
      EXPECT_EQ(result.signal, SIGKILL);
      ++kills;
    } else {
      EXPECT_EQ(result.code, 0);
    }
  }
  if (progress(corpus) != kIterations) {
    const Exit result = advance(corpus);
    ASSERT_FALSE(result.signaled);
    ASSERT_EQ(result.code, 0);
  }
  EXPECT_GT(kills, 0) << "no attempt died before finishing";
  EXPECT_EQ(progress(corpus), kIterations);
  EXPECT_EQ(corpus_files(corpus), reference);
}

TEST_F(CkptChaosTest, TruncatedSnapshotFallsBackOneBatch) {
  const std::string corpus = fresh_root("truncated");
  const Exit partial = run_fuzz(fuzz_args("run", corpus, 3 * kBatch));
  ASSERT_EQ(partial.code, 0);
  ASSERT_EQ(progress(corpus), 3 * kBatch);

  // Tear the newest snapshot: chopping its tail breaks the length and
  // checksum footer.
  const hcs::ckpt::Store store(corpus + "/ckpt");
  const std::vector<std::uint64_t> seqs = store.list();
  ASSERT_FALSE(seqs.empty());
  const std::string newest = store.path_for(seqs.back());
  fs::resize_file(newest, fs::file_size(newest) - 40);

  const std::optional<hcs::ckpt::LoadedSnapshot> loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
  EXPECT_EQ(progress(corpus), 2 * kBatch);

  const Exit resumed = advance(corpus);
  ASSERT_FALSE(resumed.signaled);
  ASSERT_EQ(resumed.code, 0);
  EXPECT_EQ(progress(corpus), kIterations);
  EXPECT_EQ(corpus_files(corpus), reference);
}

}  // namespace
