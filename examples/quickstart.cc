// Quickstart: build a binary CAM unit, store values, search them.
//
// Shows the three things every user of the library does:
//   1. describe the architecture with a UnitConfig (Table III parameters),
//   2. drive the cycle-accurate unit one clock at a time
//      (issue -> eval/commit -> poll response),
//   3. read the calibrated resource/timing model for the same config.
#include <cstdio>

#include "src/cam/unit.h"
#include "src/model/resources.h"
#include "src/model/timing.h"

using namespace dspcam;

namespace {

void clock_cycle(cam::CamUnit& unit) {
  unit.eval();
  unit.commit();
}

}  // namespace

int main() {
  // 1. Architecture: 512 entries of 32-bit binary CAM, 4 blocks of 128
  //    cells, 512-bit bus - a small instance of the paper's design.
  cam::UnitConfig cfg;
  cfg.block.cell.kind = cam::CamKind::kBinary;
  cfg.block.cell.data_width = 32;
  cfg.block.block_size = 128;
  cfg.block.bus_width = 512;
  cfg.unit_size = 4;
  cfg.bus_width = 512;
  cfg = cam::UnitConfig::with_auto_timing(cfg);

  cam::CamUnit unit(cfg);
  std::printf("Built CAM unit: %s\n", cfg.to_string().c_str());
  // Which simulation path answers searches: the eval mode picks the engine
  // (per-cell DSP reference vs packed-array fast path) and, for kFast, the
  // registry picks the geometry-specialized match kernel (match_kernel.h).
  // A deep binary plane like this one answers from its exact-match index
  // instead of sweeping (DESIGN.md §11). Confirm all three before
  // benchmarking anything.
  std::printf("Eval mode: %s, match kernel: %s, exact-match index: %s\n",
              cam::to_string(cfg.eval_mode).c_str(),
              unit.match_kernel_name().c_str(), unit.group_indexed(0) ? "on" : "off");

  // 2a. Store a few values. One bus beat carries up to 16 x 32-bit words;
  //     the update lands 6 cycles later (Table VIII).
  cam::UnitRequest update;
  update.op = cam::OpKind::kUpdate;
  update.words = {0xCAFE, 0xBEEF, 0xF00D, 0x1234};
  update.seq = 1;
  unit.issue(std::move(update));
  while (!unit.update_ack().has_value()) clock_cycle(unit);
  std::printf("Stored %u words (update latency %u cycles)\n",
              unit.update_ack()->words_written, cam::CamUnit::update_latency());

  // 2b. Search. The response carries hit + global address; latency is 7
  //     cycles at this size.
  for (cam::Word key : {0xBEEFULL, 0xDEADULL}) {
    cam::UnitRequest search;
    search.op = cam::OpKind::kSearch;
    search.keys = {key};
    search.seq = 100 + key;
    unit.issue(std::move(search));
    unsigned cycles = 0;
    while (!unit.response().has_value() || unit.response()->seq != 100 + key) {
      clock_cycle(unit);
      ++cycles;
    }
    const auto& res = unit.response()->results[0];
    std::printf("search 0x%llX -> %s", static_cast<unsigned long long>(key),
                res.hit ? "HIT" : "miss");
    if (res.hit) std::printf(" @ address %u", res.global_address);
    std::printf(" (%u cycles)\n", cycles);
  }

  // 3. What would this cost on the U250?
  const auto res = model::unit_resources(cfg);
  std::printf("Model: %llu DSPs, %llu LUTs, %llu BRAMs @ %.0f MHz\n",
              static_cast<unsigned long long>(res.dsps),
              static_cast<unsigned long long>(res.luts),
              static_cast<unsigned long long>(res.brams),
              model::unit_frequency_mhz(cfg));
  return 0;
}
