// Shard snapshots: the checkpoint/restore format of the robustness layer.
//
// A ShardSnapshot captures everything a shard needs to come back from the
// dead: every physical entry's registered state (read through the backend's
// FaultTarget peek window, so the format is eval-mode independent - a
// snapshot taken under EvalMode::kFast restores under kReference and vice
// versa), the host-side fill cursors the peek window does not cover, the
// geometry the contents assume, and a version + FNV-1a content checksum so
// a corrupt or mismatched snapshot is rejected with a descriptive SimError
// instead of silently loaded.
//
// The sharded engine's snapshot_shard()/restore_shard()/checkpoint()/
// restore() (src/system/sharded_engine.h) produce and consume these;
// src/system/checkpoint_io.h serialises them to a versioned JSONL file that
// tools/snapshot_lint validates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.h"

namespace dspcam::fault {

/// Full recoverable state of one shard.
struct ShardSnapshot {
  static constexpr std::uint32_t kVersion = 1;

  std::uint32_t version = kVersion;
  unsigned shard = 0;  ///< Slot the snapshot was taken from.

  // Geometry the entries assume; restore refuses any mismatch.
  unsigned data_width = 0;
  std::string cam_kind;          ///< to_string(cam::CamKind).
  unsigned capacity = 0;         ///< Logical entries (one group copy).
  std::size_t entry_count = 0;   ///< Physical entries (= entries.size()).
  unsigned entry_bits = 0;
  bool parity_protected = false;

  /// Physical entry states, FaultTarget window order.
  std::vector<EntryState> entries;

  /// Backend fill-cursor vector (CamBackend::snapshot_cursors()).
  std::vector<std::uint64_t> cursors;

  /// FNV-1a over version, shard, geometry, entries, and cursors.
  std::uint64_t checksum = 0;

  /// Recomputes the content checksum over every field above it.
  std::uint64_t compute_checksum() const;

  /// Stamps version and checksum; call after filling the other fields.
  void seal();

  /// Throws SimError naming the failure when the version is unsupported,
  /// entry_count disagrees with entries.size(), or the checksum mismatches.
  void verify() const;
};

/// Reads every entry of `target` into `snap.entries` and fills the
/// target-derived geometry fields (entry_count/entry_bits/parity_protected).
void snapshot_target(const FaultTarget& target, ShardSnapshot& snap);

/// verify() plus a geometry check: entry_count/entry_bits/parity_protected
/// must match `target`. Throws SimError naming the mismatch.
void check_restorable(const FaultTarget& target, const ShardSnapshot& snap);

/// Pokes `snap.entries` back into `target` after check_restorable(). Never
/// partially applies on a detected mismatch.
void restore_target(FaultTarget& target, const ShardSnapshot& snap);

}  // namespace dspcam::fault
