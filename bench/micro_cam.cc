// Host-side microbenchmarks of the CAM block/unit simulation (google-
// benchmark): simulated cycles per host second across block sizes, i.e. the
// cost of running the reproduction itself. BM_BlockSearchCycle times the
// per-cell CamBlock model (a Dsp48e2 per cell); the unit rows time the
// default EvalMode::kFast unit.
#include <benchmark/benchmark.h>

#include "src/cam/block.h"
#include "src/cam/unit.h"

using namespace dspcam;

namespace {

void step_block(cam::CamBlock& b) {
  b.eval();
  b.commit();
}

void BM_BlockSearchCycle(benchmark::State& state) {
  cam::BlockConfig cfg;
  cfg.cell.data_width = 32;
  cfg.block_size = static_cast<unsigned>(state.range(0));
  cfg.bus_width = 512;
  cam::CamBlock block(cfg);
  cam::BlockRequest upd;
  upd.op = cam::OpKind::kUpdate;
  for (cam::Word w = 0; w < 16; ++w) upd.words.push_back(w);
  block.issue(std::move(upd));
  step_block(block);

  std::uint64_t key = 0;
  for (auto _ : state) {
    cam::BlockRequest req;
    req.op = cam::OpKind::kSearch;
    req.key = ++key % 24;
    req.tag.seq = key;
    block.issue(std::move(req));
    step_block(block);
    benchmark::DoNotOptimize(block.response());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockSearchCycle)->Arg(32)->Arg(128)->Arg(512);

void BM_UnitSearchCycle(benchmark::State& state) {
  cam::UnitConfig cfg;
  cfg.block.cell.data_width = 32;
  cfg.block.block_size = 128;
  cfg.block.bus_width = 512;
  cfg.unit_size = static_cast<unsigned>(state.range(0));
  cfg.bus_width = 512;
  cam::CamUnit unit(cfg);

  std::uint64_t seq = 0;
  for (auto _ : state) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {seq % 64};
    req.seq = ++seq;
    unit.issue(std::move(req));
    unit.eval();
    unit.commit();
    benchmark::DoNotOptimize(unit.response());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnitSearchCycle)->Arg(4)->Arg(16);

void BM_UnitUpdateCycle(benchmark::State& state) {
  cam::UnitConfig cfg;
  cfg.block.cell.data_width = 32;
  cfg.block.block_size = 128;
  cfg.block.bus_width = 512;
  cfg.unit_size = 16;
  cfg.bus_width = 512;
  cam::CamUnit unit(cfg);

  std::uint64_t seq = 0;
  for (auto _ : state) {
    if (unit.stored_per_group() + 16 > unit.capacity_per_group()) {
      state.PauseTiming();
      cam::UnitRequest reset;
      reset.op = cam::OpKind::kReset;
      unit.issue(std::move(reset));
      for (int i = 0; i < 8; ++i) {
        unit.eval();
        unit.commit();
      }
      state.ResumeTiming();
    }
    cam::UnitRequest req;
    req.op = cam::OpKind::kUpdate;
    for (cam::Word w = 0; w < 16; ++w) req.words.push_back(w);
    req.seq = ++seq;
    unit.issue(std::move(req));
    unit.eval();
    unit.commit();
    benchmark::DoNotOptimize(unit.update_ack());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnitUpdateCycle);

}  // namespace
