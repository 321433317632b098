// Corpus regression gate (`ctest -L fuzz`): every artifact committed under
// tests/data/fuzz/ is a cell the campaign once flagged. Each one must still
// (a) parse, (b) reproduce its recorded failure signature exactly, and
// (c) re-serialize byte-identically -- so a behaviour change that silently
// fixes, alters, or un-reproduces a known failure fails this test instead
// of passing unnoticed. The nightly soak job runs the same gate after
// extending the campaign.
//
// An empty signature records a cell that must run clean.
// art_23db33d9c46d0500.json (campaign seed 7, iteration 208 under the
// default axes: CLEAN, d=5, vacate-on-departure, all five fault rates on)
// is one: a corrupted whiteboard value named a move target past the last
// vertex, and the engine aborted on has_edge's range precondition. With
// Engine::step_agent's range check the agent crash-stops into recovery
// instead; without it this test aborts.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "util/json.hpp"

#ifndef HCS_FUZZ_CORPUS_DIR
#error "HCS_FUZZ_CORPUS_DIR must point at tests/data/fuzz"
#endif

namespace hcs::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(HCS_FUZZ_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("art_", 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FuzzCorpus, CommittedCorpusIsNonEmpty) {
  EXPECT_GE(corpus_files().size(), 3u)
      << "tests/data/fuzz must carry the seeded minimized artifacts";
}

TEST(FuzzCorpus, EveryArtifactReplaysByteIdentically) {
  for (const fs::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    Artifact artifact;
    std::string error;
    ASSERT_TRUE(load_artifact(path.string(), &artifact, &error)) << error;

    // Content addressing: the file carries the CellKey-based hash of its
    // own cell.
    EXPECT_EQ(path.filename().string(), artifact.file_name());
    // Byte-stable serialization: parse(dump) is the identity on disk.
    EXPECT_EQ(artifact.to_json().dump(), read_file(path));

    // The recorded failure must still reproduce, exactly.
    const CellResult result = run_cell(artifact.cell);
    EXPECT_EQ(result.signature(), artifact.signature);
  }
}

}  // namespace
}  // namespace hcs::fuzz
