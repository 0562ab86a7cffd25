// FaultTarget adapter for the DSP CAM unit.
//
// UnitFaultTarget exposes a CamUnit's physical storage - unit_size x
// block_size cells, every group replica separately corruptible - as the flat
// entry window the injector and scrubber operate on. Entry i maps to block
// i / block_size, cell i % block_size, the same layout CamUnit::poke_entry
// uses. ShardedCamEngine composes its shards' targets into one window; this
// header only covers the DSP unit because it is the one target the cam
// layer can serve without depending on src/system/.
#pragma once

#include "src/cam/unit.h"
#include "src/fault/fault.h"

namespace dspcam::fault {

/// Flat injection/scrub window over one cam::CamUnit.
class UnitFaultTarget final : public FaultTarget {
 public:
  explicit UnitFaultTarget(cam::CamUnit& unit) : unit_(&unit) {}

  std::size_t entry_count() const override { return unit_->config().total_entries(); }
  unsigned entry_bits() const override { return unit_->config().block.cell.data_width; }
  bool parity_protected() const override { return unit_->config().block.parity; }

  EntryState peek(std::size_t entry) const override;
  void poke(std::size_t entry, const EntryState& state) override;

 private:
  cam::CamUnit* unit_;
};

}  // namespace dspcam::fault
