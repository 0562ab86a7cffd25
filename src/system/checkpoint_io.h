// Versioned on-disk format for engine checkpoints.
//
// A checkpoint file is JSONL: one header record naming the fleet geometry,
// then one record per shard carrying that shard's sealed ShardSnapshot.
// Every line is a standalone JSON object, hand-serialised like the
// telemetry exporters and read back with telemetry::json::parse(). Integer
// fields go through json::Value::u64(), which reads the token exactly and
// refuses a sign, a fraction or an overflow, because stored words and
// checksums are full 64-bit integers that strtod would silently round.
//
//   {"kind":"dspcam.checkpoint","version":1,"shards":4,"partition":"hash",
//    "key_bits":32,"shard_capacity":64}
//   {"kind":"shard","shard":0,"version":1,"data_width":36,...,
//    "cursors":[...],"checksum":...,"entries":[[stored,mask,valid,parity],..]}
//
// load_checkpoint() re-verifies every snapshot checksum, so a corrupt or
// hand-edited file is rejected with a descriptive SimError, never silently
// restored. The disaster-recovery path is: checkpoint() -> save_checkpoint()
// -> (crash) -> load_checkpoint() -> restore().
#pragma once

#include <string>

#include "src/system/sharded_engine.h"

namespace dspcam::system {

/// "hash" / "range".
const char* to_string(ShardedCamEngine::Partition partition);

/// Inverse of to_string; throws SimError on an unknown name.
ShardedCamEngine::Partition partition_from_string(const std::string& name);

/// Writes `ckpt` to `path` (truncating), one JSON record per line, flushing
/// before close. Throws SimError when the file cannot be written.
void save_checkpoint(const ShardedCamEngine::EngineCheckpoint& ckpt,
                     const std::string& path);

/// Reads a checkpoint file back, verifying the header version, the per-shard
/// record shape, and every snapshot's checksum. Throws SimError naming the
/// offending line/field on any mismatch.
ShardedCamEngine::EngineCheckpoint load_checkpoint(const std::string& path);

}  // namespace dspcam::system
