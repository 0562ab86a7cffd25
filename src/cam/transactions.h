// Request/response records exchanged on CAM block and unit buses.
//
// These mirror the paper's bus contents: "The input bus for the CAM block
// comprises both data bits and control signals that include update, search,
// and reset" (Fig. 3); the unit bus additionally carries multiple search
// keys for multi-query operation (Fig. 4). Tags are bookkeeping the
// testbench uses to pair responses with requests; hardware equivalents are
// positional (results come back in issue order at fixed latency).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bitvec.h"
#include "src/common/inline_vec.h"
#include "src/cam/types.h"

namespace dspcam::cam {

/// Elements one unit bus beat carries inline: a 512-bit beat holds 16
/// 32-bit words, and a 16-group unit takes one key per group. Wider
/// payloads spill to the heap.
inline constexpr std::size_t kBeatLanes = 16;

/// A bus beat's payload: held inside the request/response record, so beats
/// move through the FIFOs and reorder buffers without touching the heap.
template <typename T>
using BeatVec = InlineVec<T, kBeatLanes>;

/// Identifies an in-flight operation end-to-end.
struct QueryTag {
  std::uint64_t seq = 0;      ///< Issue sequence number.
  std::uint16_t key_index = 0;///< Which key of a multi-query bundle.
  std::uint16_t group = 0;    ///< CAM group the key was routed to.
  std::uint16_t shard = 0;    ///< Engine shard the operation was routed to
                              ///< (0 for unsharded deployments).

  bool operator==(const QueryTag&) const = default;
};

/// One beat on a CAM block's input bus.
struct BlockRequest {
  OpKind op = OpKind::kIdle;

  /// kUpdate: the data words carried by this bus beat (at most
  /// words_per_beat). The block's Cell Address Controller stores them in
  /// consecutive cells.
  std::vector<Word> words;

  /// kUpdate, TCAM/RMCAM only: per-entry MASK values parallel to `words`
  /// (build with tcam_mask()/rmcam_mask()). Empty means plain width masks.
  std::vector<std::uint64_t> masks;

  /// kSearch: the search key (the paper masks the redundant bus bits so a
  /// single word acts as the key).
  Word key = 0;

  /// kUpdate: write starting at this cell instead of the fill pointer
  /// (extension: addressed update; the fill pointer is untouched).
  /// kInvalidate: the cell whose valid flag clears.
  std::optional<std::uint32_t> address;

  QueryTag tag;
};

/// A CAM block's search result, shaped by the configured EncodingScheme.
struct BlockResponse {
  QueryTag tag;
  bool hit = false;
  std::uint32_t first_match = 0;  ///< Lowest matching cell (priority scheme).
  std::uint32_t match_count = 0;  ///< Population count (match-count scheme).
  BitVec raw;                     ///< Full match vector (one-hot scheme).

  /// Parity-protected blocks only (BlockConfig::parity): number of entries
  /// whose stored parity bit disagreed with their registered state at the
  /// edge this compare latched. Nonzero means the result may be corrupt
  /// (false hit or false miss); the match lines themselves are unaffected -
  /// parity flags, it does not veto.
  std::uint32_t parity_errors = 0;
};

/// Acknowledgement of a completed block update beat.
struct UpdateAck {
  std::uint64_t seq = 0;
  unsigned words_written = 0;  ///< May be < words sent if the block filled up.
  bool block_full = false;     ///< Fill pointer reached the block size.
};

/// One beat on the CAM unit's input bus.
struct UnitRequest {
  OpKind op = OpKind::kIdle;

  /// kUpdate: data words (at most the unit's words_per_beat). Replicated to
  /// every CAM group by the routing logic.
  BeatVec<Word> words;
  /// Optional per-entry masks (TCAM/RMCAM updates only), so kept off the
  /// record: an empty vector costs a search beat nothing.
  std::vector<std::uint64_t> masks;

  /// kSearch: up to M keys, one per CAM group (multi-query).
  BeatVec<Word> keys;

  /// kUpdate/kInvalidate extension: group-local entry index to write at /
  /// invalidate (applied to every group's copy). Without it, updates append
  /// at the Block Address Controller's fill pointer.
  std::optional<std::uint32_t> address;

  std::uint64_t seq = 0;
};

/// Per-key result of a unit-level search.
/// Fields are ordered widest first, so the record packs into 24 bytes: a
/// beat's results travel inline (BeatVec), 16 of them per response.
struct UnitSearchResult {
  Word key = 0;
  std::uint32_t global_address = 0;  ///< block_id * block_size + cell index.
  std::uint32_t match_count = 0;     ///< Aggregated across the group's blocks.
  std::uint16_t group = 0;
  std::uint16_t shard = 0;  ///< Shard that answered (engine deployments).
  bool hit = false;

  /// A parity-protected block contributing to this result held at least one
  /// entry whose parity check failed when the compare latched: treat hit /
  /// miss as suspect (see src/fault/).
  bool parity_error = false;

  /// The shard this key routed to is quarantined (degraded-shard mode):
  /// no search was performed and hit is forced false. Distinguishes "no
  /// match" from "could not ask".
  bool shard_failed = false;
};

/// A completed unit-level search beat (all keys of one request).
struct UnitResponse {
  std::uint64_t seq = 0;
  BeatVec<UnitSearchResult> results;
};

/// Acknowledgement of a completed unit update beat.
struct UnitUpdateAck {
  std::uint64_t seq = 0;
  unsigned words_written = 0;  ///< Words stored per group (each group gets a copy).
  bool unit_full = false;      ///< Every block of every group is full.
};

}  // namespace dspcam::cam
