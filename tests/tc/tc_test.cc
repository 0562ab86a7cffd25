#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/random.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/triangle.h"
#include "src/tc/cam_accel.h"
#include "src/tc/memory_model.h"
#include "src/tc/dynamic_tc.h"
#include "src/system/cam_system.h"
#include "src/system/sharded_engine.h"
#include "src/tc/merge_accel.h"
#include "src/tc/validate.h"

namespace dspcam::tc {
namespace {

graph::CsrGraph random_graph(unsigned n, unsigned m, std::uint64_t seed) {
  Rng rng(seed);
  return graph::erdos_renyi(n, m, rng);
}

TEST(MemoryModel, BeatsAndFetchCycles) {
  MemoryModel mem;  // 64B bus, 4B words, 1 cycle of per-request overhead
  EXPECT_EQ(mem.words_per_beat(), 16u);
  EXPECT_EQ(mem.beats(1), 1u);
  EXPECT_EQ(mem.beats(16), 1u);
  EXPECT_EQ(mem.beats(17), 2u);
  EXPECT_EQ(mem.fetch_cycles(0), 0u);
  EXPECT_EQ(mem.fetch_cycles(16), 2u);
  EXPECT_EQ(mem.fetch_cycles(160), 11u);
}

TEST(MemoryModel, Validation) {
  MemoryModel::Config bad;
  bad.bus_bytes = 60;  // not a multiple of 4? it is - use word 7
  bad.word_bytes = 7;
  EXPECT_THROW(MemoryModel{bad}, ConfigError);
}

TEST(CamAccel, ConfigValidation) {
  CamTcAccelerator::Config cfg;
  cfg.cam_entries = 2000;  // not a multiple of 128
  EXPECT_THROW(CamTcAccelerator{cfg}, ConfigError);
  cfg = {};
  cfg.cam_entries = 1536;  // 12 blocks: not a power of two
  EXPECT_THROW(CamTcAccelerator{cfg}, ConfigError);
}

TEST(CamAccel, PaperConfiguration) {
  const CamTcAccelerator accel;  // defaults = the paper's Section V-B config
  const auto u = accel.config().unit_config();
  EXPECT_EQ(u.total_entries(), 2048u);
  EXPECT_EQ(u.block.block_size, 128u);
  EXPECT_EQ(u.block.cell.data_width, 32u);
  EXPECT_EQ(u.bus_width, 512u);
  EXPECT_TRUE(u.block.output_buffer);  // Table VIII: 8-cycle search at 2048
}

TEST(CamAccel, GroupsForListLength) {
  const CamTcAccelerator accel;  // 16 blocks of 128
  EXPECT_EQ(accel.groups_for(1), 16u);     // short list -> one block -> M=16
  EXPECT_EQ(accel.groups_for(128), 16u);
  EXPECT_EQ(accel.groups_for(129), 8u);    // two blocks per group
  EXPECT_EQ(accel.groups_for(512), 4u);
  EXPECT_EQ(accel.groups_for(1024), 2u);
  EXPECT_EQ(accel.groups_for(2048), 1u);
  EXPECT_EQ(accel.groups_for(0), 16u);
}

TEST(Accelerators, BothCountExactly) {
  const auto g = random_graph(80, 400, 21);
  const auto expect = graph::count_triangles_merge(graph::orient_by_degree(g));
  const MergeTcAccelerator merge;
  const CamTcAccelerator cam;
  EXPECT_EQ(merge.run(g).triangles, expect);
  EXPECT_EQ(cam.run(g).triangles, expect);
}

TEST(Accelerators, CyclesScaleWithWork) {
  const auto small = random_graph(50, 150, 1);
  const auto big = random_graph(200, 2500, 1);
  const MergeTcAccelerator merge;
  EXPECT_LT(merge.run(small).cycles, merge.run(big).cycles);
  const CamTcAccelerator cam;
  EXPECT_LT(cam.run(small).cycles, cam.run(big).cycles);
}

TEST(Accelerators, CamWinsOnSkewedGraphs) {
  // Hub-heavy graphs are where the parallel intersection pays (the paper's
  // as20000102 shows the largest speedup).
  Rng rng(31);
  const auto g = graph::hub_topology(3000, 40, rng);
  const MergeTcAccelerator merge;
  const CamTcAccelerator cam;
  const auto tm = merge.run(g);
  const auto tc = cam.run(g);
  EXPECT_EQ(tm.triangles, tc.triangles);
  const double speedup = tm.milliseconds() / tc.milliseconds();
  EXPECT_GT(speedup, 3.0);
}

TEST(Accelerators, ModestGainOnRoadLikeGraphs) {
  // Near-constant tiny degrees: both designs are bound by per-edge
  // overheads and memory, so the gap narrows (paper: 1.75x - 2.57x).
  Rng rng(32);
  const auto g = graph::road_network(60, 60, 0.03, 0.3, rng);
  const MergeTcAccelerator merge;
  const CamTcAccelerator cam;
  const double speedup =
      merge.run(g).milliseconds() / cam.run(g).milliseconds();
  EXPECT_GT(speedup, 1.0);
  EXPECT_LT(speedup, 4.0);
}

TEST(Accelerators, ChunkingHandlesListsBeyondCamCapacity) {
  // A star with degree > 2048 forces the resident list to chunk.
  std::vector<graph::Edge> edges;
  const graph::VertexId n = 2600;
  for (graph::VertexId v = 1; v < n; ++v) edges.emplace_back(0, v);
  // Add a few triangles through the hub.
  edges.emplace_back(1, 2);
  edges.emplace_back(3, 4);
  const auto g = graph::build_undirected(n, edges);
  const CamTcAccelerator cam;
  const auto r = cam.run(g);
  EXPECT_EQ(r.triangles, 2u);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Accelerators, ResultDerivedMetrics) {
  AccelResult r;
  r.cycles = 300000;
  r.freq_mhz = 300;
  r.edges_processed = 1000;
  EXPECT_DOUBLE_EQ(r.milliseconds(), 1.0);
  EXPECT_DOUBLE_EQ(r.cycles_per_edge(), 300.0);
}

TEST(Validate, CycleAccurateUnitMatchesAnalyticCounts) {
  // Drive the real CamUnit through the paper's TC flow on small graphs and
  // require the exact triangle count. This ties the case study back to the
  // cycle-accurate core.
  CamTcAccelerator::Config cfg;
  cfg.cam_entries = 256;  // small CAM -> exercises grouping and chunking
  cfg.block_size = 32;
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const auto g = random_graph(40, 160, seed);
    const auto expect = graph::count_triangles_merge(graph::orient_by_degree(g));
    EXPECT_EQ(count_triangles_with_unit(g, cfg), expect) << "seed " << seed;
  }
}

TEST(Validate, BackendFlowMatchesOnEveryEngine) {
  // The same TC kernel, executed through the CamBackend interface: the DSP
  // system and a 2-way sharded engine must both produce the exact triangle
  // count.
  const auto g = random_graph(30, 120, 5);
  const auto expect = graph::count_triangles_merge(graph::orient_by_degree(g));

  system::CamSystem::Config cam_cfg;
  cam_cfg.unit.block.cell.data_width = 32;
  cam_cfg.unit.block.block_size = 32;
  cam_cfg.unit.block.bus_width = 512;
  cam_cfg.unit.unit_size = 4;
  cam_cfg.unit.bus_width = 512;
  system::CamSystem dsp(cam_cfg);
  EXPECT_EQ(count_triangles_with_backend(g, dsp), expect);

  system::ShardedCamEngine::Config ecfg;
  ecfg.shards = 2;
  system::ShardedCamEngine sharded(ecfg, cam_cfg);
  EXPECT_EQ(count_triangles_with_backend(g, sharded), expect);
}

TEST(Validate, BackendFlowChunksLongLists) {
  // Hub degree (40) exceeds the chunk capacity (16) -> multiple passes.
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v <= 40; ++v) edges.emplace_back(0, v);
  edges.emplace_back(1, 2);   // triangle 0-1-2
  edges.emplace_back(39, 40); // triangle 0-39-40
  const auto g = graph::build_undirected(41, edges);

  system::CamSystem::Config cam_cfg;
  cam_cfg.unit.block.cell.data_width = 32;
  cam_cfg.unit.block.block_size = 32;
  cam_cfg.unit.block.bus_width = 512;
  cam_cfg.unit.unit_size = 2;
  cam_cfg.unit.bus_width = 512;
  system::CamSystem dsp(cam_cfg);
  EXPECT_EQ(count_triangles_with_backend(g, dsp, /*chunk_capacity=*/16), 2u);
}

TEST(Validate, ChunkedResidentListInRealUnit) {
  // Hub degree (60) exceeds the tiny CAM (32 entries) -> multiple chunks.
  CamTcAccelerator::Config cfg;
  cfg.cam_entries = 32;
  cfg.block_size = 8;
  cfg.bus_width = 256;  // 8 words/beat: matches the tiny blocks
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v <= 60; ++v) edges.emplace_back(0, v);
  edges.emplace_back(1, 2);   // triangle 0-1-2
  edges.emplace_back(59, 60); // triangle 0-59-60
  const auto g = graph::build_undirected(61, edges);
  EXPECT_EQ(count_triangles_with_unit(g, cfg), 2u);
}

}  // namespace
}  // namespace dspcam::tc

namespace dspcam::tc {
namespace {

TEST(DynamicTc, IncrementalCountEqualsStatic) {
  Rng rng(77);
  const auto g = graph::erdos_renyi(120, 800, rng);
  const auto expect = graph::count_triangles_merge(graph::orient_by_degree(g));
  auto stream = graph::undirected_edges(g);
  // Shuffle the arrival order: the incremental count must not depend on it.
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  for (auto engine : {DynamicEngine::kCam, DynamicEngine::kMerge}) {
    DynamicTcModel::Config cfg;
    cfg.engine = engine;
    const auto r = DynamicTcModel(cfg).run(g.num_vertices(), stream);
    EXPECT_EQ(r.triangles, expect);
    EXPECT_EQ(r.edges_processed, stream.size());
    EXPECT_GT(r.cycles, 0u);
  }
}

TEST(DynamicTc, DuplicatesAndSelfLoopsAreFree) {
  DynamicTcModel model;
  const std::vector<graph::Edge> stream = {{0, 1}, {1, 0}, {2, 2}, {0, 1}};
  const auto r = model.run(3, stream);
  EXPECT_EQ(r.edges_processed, 1u);
  EXPECT_EQ(r.triangles, 0u);
}

TEST(DynamicTc, CamBeatsMergeOnSkewedStream) {
  Rng rng(31);
  const auto g = graph::hub_topology(2000, 50, rng);
  const auto stream = graph::undirected_edges(g);
  DynamicTcModel::Config cam_cfg;
  cam_cfg.engine = DynamicEngine::kCam;
  DynamicTcModel::Config merge_cfg;
  merge_cfg.engine = DynamicEngine::kMerge;
  const auto rc = DynamicTcModel(cam_cfg).run(g.num_vertices(), stream);
  const auto rm = DynamicTcModel(merge_cfg).run(g.num_vertices(), stream);
  EXPECT_EQ(rc.triangles, rm.triangles);
  EXPECT_GT(rm.milliseconds() / rc.milliseconds(), 2.0);
}

TEST(DynamicTc, VertexRangeChecked) {
  DynamicTcModel model;
  EXPECT_THROW(model.run(2, {{0, 5}}), ConfigError);
}

}  // namespace
}  // namespace dspcam::tc
