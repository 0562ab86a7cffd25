// Architecture parameters (paper Table III).
//
// The CAM is "fully parameterized with different hierarchies of
// configurations": cell-level (type, storage data width), block-level (cells
// per block, block bus width, result encoding) and unit-level (blocks per
// unit, unit bus width). These structs are the C++ equivalent of the paper's
// generation-time template parameters; validate() enforces the legal space
// and throws ConfigError with a specific message otherwise.
#pragma once

#include <cstdint>
#include <string>

#include "src/cam/types.h"

namespace dspcam::cam {

/// How a CamUnit is evaluated by the simulator. Both modes are cycle- and
/// bit-identical (asserted by the lockstep fuzz equivalence tests); they
/// differ only in host cost:
///   kReference - the unit builds every CamBlock, and every cell is a full
///                Dsp48e2 behavioural model (CamUnit::block() and
///                CamBlock::cell() expose each slice's registers).
///   kFast      - the unit builds no CamBlock: it mirrors stored words,
///                per-entry masks and valid flags into one packed FastPlane
///                per CAM group and answers a search with a branch-free
///                ((stored ^ key) & ~mask) == 0 sweep - or, on a deep binary
///                plane, an exact-match index lookup - behind the same
///                pipeline timing. Orders of magnitude faster.
/// This is a simulation-host choice, not an architecture parameter: resource
/// and timing models are unaffected. A standalone CamBlock is always the
/// per-cell model.
enum class EvalMode : std::uint8_t { kReference, kFast };

std::string to_string(EvalMode mode);

/// Cell-level parameters.
struct CellConfig {
  CamKind kind = CamKind::kBinary;  ///< Cell type (Table III "Cell type").
  unsigned data_width = 32;         ///< Stored-data width, <= 48 bits.

  void validate() const;
};

/// Block-level parameters.
struct BlockConfig {
  CellConfig cell;
  unsigned block_size = 128;      ///< Cells per block; power of two, >= 2.
  unsigned bus_width = 512;       ///< Block input data-path width in bits.
  EncodingScheme encoding = EncodingScheme::kPriorityIndex;
  bool output_buffer = false;     ///< Extra encoder output register for timing
                                  ///< closure (adds 1 cycle search latency).
  bool parity = false;            ///< Per-entry parity bit over stored word +
                                  ///< MASK + valid (robustness extension; see
                                  ///< src/fault/). Zero cost when off.

  /// Data words carried per bus beat (update parallelism).
  unsigned words_per_beat() const noexcept { return bus_width / cell.data_width; }

  void validate() const;

  /// The paper's observed timing-closure policy for a standalone block:
  /// blocks of 256 cells or more need the encoder output register
  /// (Table VI: search latency rises from 3 to 4 at size 256).
  static bool standalone_buffer_policy(unsigned block_size) { return block_size >= 256; }
};

/// Unit-level parameters.
struct UnitConfig {
  BlockConfig block;
  unsigned unit_size = 16;      ///< Blocks per unit (>= 1).
  unsigned bus_width = 512;     ///< Unit input data-path width in bits.
  unsigned initial_groups = 1;  ///< Runtime group count at reset; must divide unit_size.
  EvalMode eval_mode = EvalMode::kFast;  ///< Simulator evaluation path.

  unsigned total_entries() const noexcept { return unit_size * block.block_size; }
  unsigned words_per_beat() const noexcept { return bus_width / block.cell.data_width; }

  void validate() const;

  /// The paper's observed in-unit timing policy: units of 2048 entries and
  /// up enable the block encoder buffer (Table VIII's latency column steps
  /// 7 -> 8 at the 2048 row; the prose says "larger than 2K" but the table
  /// is authoritative).
  static bool unit_buffer_policy(unsigned total_entries) { return total_entries >= 2048; }

  /// Convenience factory applying unit_buffer_policy automatically.
  static UnitConfig with_auto_timing(UnitConfig cfg);

  std::string to_string() const;
};

}  // namespace dspcam::cam
