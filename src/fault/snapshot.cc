#include "src/fault/snapshot.h"

#include "src/common/error.h"

namespace dspcam::fault {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, const std::string& s) {
  mix(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t ShardSnapshot::compute_checksum() const {
  std::uint64_t h = kFnvOffset;
  mix(h, version);
  mix(h, shard);
  mix(h, data_width);
  mix(h, cam_kind);
  mix(h, capacity);
  mix(h, entry_count);
  mix(h, entry_bits);
  mix(h, parity_protected ? 1 : 0);
  mix(h, entries.size());
  for (const EntryState& e : entries) {
    mix(h, e.stored);
    mix(h, e.mask);
    mix(h, (e.valid ? 2u : 0u) | (e.parity ? 1u : 0u));
  }
  mix(h, cursors.size());
  for (const std::uint64_t c : cursors) mix(h, c);
  return h;
}

void ShardSnapshot::seal() {
  version = kVersion;
  entry_count = entries.size();
  checksum = compute_checksum();
}

void ShardSnapshot::verify() const {
  if (version != kVersion) {
    throw SimError("ShardSnapshot: unsupported version " +
                   std::to_string(version) + " (this build reads version " +
                   std::to_string(kVersion) + ")");
  }
  if (entry_count != entries.size()) {
    throw SimError("ShardSnapshot: entry_count field says " +
                   std::to_string(entry_count) + " but the snapshot carries " +
                   std::to_string(entries.size()) + " entries");
  }
  const std::uint64_t want = compute_checksum();
  if (checksum != want) {
    throw SimError("ShardSnapshot: checksum mismatch (stored " +
                   std::to_string(checksum) + ", recomputed " +
                   std::to_string(want) + ") - the snapshot is corrupt");
  }
}

void snapshot_target(const FaultTarget& target, ShardSnapshot& snap) {
  snap.entry_count = target.entry_count();
  snap.entry_bits = target.entry_bits();
  snap.parity_protected = target.parity_protected();
  snap.entries.clear();
  snap.entries.reserve(snap.entry_count);
  for (std::size_t i = 0; i < snap.entry_count; ++i) {
    snap.entries.push_back(target.peek(i));
  }
}

void check_restorable(const FaultTarget& target, const ShardSnapshot& snap) {
  snap.verify();
  if (snap.entry_count != target.entry_count()) {
    throw SimError("ShardSnapshot: geometry mismatch - snapshot holds " +
                   std::to_string(snap.entry_count) +
                   " physical entries, the target exposes " +
                   std::to_string(target.entry_count()));
  }
  if (snap.entry_bits != target.entry_bits()) {
    throw SimError("ShardSnapshot: geometry mismatch - snapshot entries are " +
                   std::to_string(snap.entry_bits) + "-bit, the target stores " +
                   std::to_string(target.entry_bits()) + "-bit entries");
  }
  if (snap.parity_protected != target.parity_protected()) {
    throw SimError(
        "ShardSnapshot: parity-protection mismatch between snapshot and "
        "target");
  }
}

void restore_target(FaultTarget& target, const ShardSnapshot& snap) {
  check_restorable(target, snap);
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    target.poke(i, snap.entries[i]);
  }
}

}  // namespace dspcam::fault
