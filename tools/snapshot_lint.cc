// CI artifact checker for engine checkpoint files.
//
// Validates what the recovery smoke job snapshots mid-bench:
//
//   snapshot_lint FILE [FILE...]
//
// Each file goes through the real loader (system::load_checkpoint), which
// parses every line as JSON, checks that the header names the format
// ("dspcam.checkpoint") and a version this build reads, checks every shard
// record's fields and order, and re-verifies each snapshot's FNV-1a content
// checksum - a flipped bit anywhere in the entry payload fails the lint,
// not just malformed syntax.
//
// Exits non-zero on the first failing file.
#include <cstdio>
#include <exception>
#include <string>

#include "src/system/checkpoint_io.h"

namespace {

bool check_checkpoint(const std::string& path) {
  try {
    const auto ckpt = dspcam::system::load_checkpoint(path);
    std::size_t entries = 0;
    for (const auto& snap : ckpt.shard_snaps) entries += snap.entries.size();
    std::printf("snapshot_lint: %s ok (version=%u shards=%u partition=%s "
                "entries=%zu)\n",
                path.c_str(), ckpt.version, ckpt.shards,
                dspcam::system::to_string(ckpt.partition), entries);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snapshot_lint: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: snapshot_lint FILE [FILE...]\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    if (!check_checkpoint(argv[i])) return 1;
  }
  return 0;
}
