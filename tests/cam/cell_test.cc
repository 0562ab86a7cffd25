#include "src/cam/cell.h"

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/random.h"
#include "tests/cam/testbench.h"

namespace dspcam::cam {
namespace {

using test::step;
using test::steps;

CellConfig bcam32() {
  CellConfig c;
  c.kind = CamKind::kBinary;
  c.data_width = 32;
  return c;
}

TEST(CamCell, StartsInvalidAndNeverMatches) {
  CamCell cell(bcam32());
  cell.drive_search(0);
  step(cell);
  step(cell);
  EXPECT_FALSE(cell.match());
  EXPECT_FALSE(cell.valid());
}

TEST(CamCell, UpdateLatencyIsOneCycle) {
  // Table V: update latency = 1 cycle.
  CamCell cell(bcam32());
  cell.drive_write(0xCAFE);
  step(cell);
  EXPECT_TRUE(cell.valid());
  EXPECT_EQ(cell.stored(), 0xCAFEu);
}

TEST(CamCell, SearchLatencyIsTwoCycles) {
  // Table V: search latency = 2 cycles.
  CamCell cell(bcam32());
  cell.drive_write(0x1234'5678);
  step(cell);

  cell.drive_search(0x1234'5678);
  step(cell);  // cycle 1: key latched
  EXPECT_FALSE(cell.match()) << "match must not appear after one cycle";
  step(cell);  // cycle 2: compare result latched
  EXPECT_TRUE(cell.match());
}

TEST(CamCell, MissOnDifferentKey) {
  CamCell cell(bcam32());
  cell.drive_write(0xAAAA);
  step(cell);
  cell.drive_search(0xAAAB);
  steps(cell, 2);
  EXPECT_FALSE(cell.match());
}

TEST(CamCell, OverwriteReplacesEntry) {
  CamCell cell(bcam32());
  cell.drive_write(1);
  step(cell);
  cell.drive_write(2);
  step(cell);
  EXPECT_EQ(cell.stored(), 2u);
  cell.drive_search(1);
  steps(cell, 2);
  EXPECT_FALSE(cell.match());
  cell.drive_search(2);
  steps(cell, 2);
  EXPECT_TRUE(cell.match());
}

TEST(CamCell, ClearInvalidates) {
  CamCell cell(bcam32());
  cell.drive_write(7);
  step(cell);
  cell.drive_clear();
  step(cell);
  EXPECT_FALSE(cell.valid());
  cell.drive_search(7);
  steps(cell, 2);
  EXPECT_FALSE(cell.match());
}

TEST(CamCell, PipelinedSearchesEveryCycle) {
  // Searches have initiation interval 1: results stream out back-to-back.
  CamCell cell(bcam32());
  cell.drive_write(5);
  step(cell);
  // Issue keys 4,5,6,5 on consecutive cycles; the result for the key issued
  // in cycle i is readable in cycle i+2, i.e. right after step i+1.
  const Word keys[] = {4, 5, 6, 5};
  const bool expect[] = {false, true, false, true};
  bool got[4] = {};
  for (int cyc = 0; cyc < 5; ++cyc) {
    if (cyc < 4) cell.drive_search(keys[cyc]);
    step(cell);
    if (cyc >= 1) got[cyc - 1] = cell.match();
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], expect[i]) << "key index " << i;
}

TEST(CamCell, TernaryEntryMaskMakesBitsDontCare) {
  CellConfig cfg;
  cfg.kind = CamKind::kTernary;
  cfg.data_width = 16;
  CamCell cell(cfg);
  cell.drive_write(0x12AB, tcam_mask(16, 0x00FF));
  step(cell);
  cell.drive_search(0x12CD);  // differs only in don't-care byte
  steps(cell, 2);
  EXPECT_TRUE(cell.match());
  cell.drive_search(0x13AB);
  steps(cell, 2);
  EXPECT_FALSE(cell.match());
}

TEST(CamCell, RangeEntryMatchesItsSpan) {
  CellConfig cfg;
  cfg.kind = CamKind::kRange;
  cfg.data_width = 16;
  CamCell cell(cfg);
  cell.drive_write(0x80, rmcam_mask(16, 0x80, 5));  // [0x80, 0xA0)
  step(cell);
  for (Word k : {0x80u, 0x9Fu}) {
    cell.drive_search(k);
    steps(cell, 2);
    EXPECT_TRUE(cell.match()) << k;
  }
  for (Word k : {0x7Fu, 0xA0u}) {
    cell.drive_search(k);
    steps(cell, 2);
    EXPECT_FALSE(cell.match()) << k;
  }
}

TEST(CamCell, DataWidthControlMasksHighBits) {
  // Bits above the configured width never participate in the compare.
  CellConfig cfg;
  cfg.data_width = 8;
  CamCell cell(cfg);
  cell.drive_write(0xFFFF'FF12ULL);  // only 0x12 is stored
  step(cell);
  EXPECT_EQ(cell.stored(), 0x12u);
  cell.drive_search(0x0000'0012ULL);
  steps(cell, 2);
  EXPECT_TRUE(cell.match());
}

TEST(CamCell, DoubleDriveIsAnError) {
  CamCell cell(bcam32());
  cell.drive_write(1);
  EXPECT_THROW(cell.drive_write(2), SimError);
  cell.drive_search(1);
  EXPECT_THROW(cell.drive_search(2), SimError);
}

TEST(CamCell, SimultaneousWriteAndSearchUseDistinctPorts) {
  // A and C are distinct ports, so a write and a search coexist in one
  // cycle. Both latch at the same edge; the XOR compare happens one edge
  // later, so the in-flight search key is compared against the *new* entry -
  // updates are reflected immediately, which is exactly the behaviour the
  // paper wants for dynamic data ("immediate reflection of data changes").
  CamCell cell(bcam32());
  cell.drive_write(10);
  step(cell);

  cell.drive_search(10);  // key 10 latches together with...
  cell.drive_write(20);   // ...the replacement entry
  step(cell);
  cell.drive_search(20);
  step(cell);
  EXPECT_FALSE(cell.match()) << "key 10 is compared against the new entry 20";
  step(cell);
  EXPECT_TRUE(cell.match()) << "key 20 sees the new entry";
}

TEST(CamCell, ResourceFootprintIsOneDsp) {
  // Table V: 1 DSP, 0 LUT, 0 BRAM, identical across kinds. The functional
  // model exposes exactly one slice; the resource model (model library)
  // accounts for it.
  CamCell cell(bcam32());
  (void)cell.slice();
  SUCCEED();
}

// Property sweep across kinds and widths: a freshly written random entry
// always matches itself and (for BCAM) never matches a differing key.
struct KindWidth {
  CamKind kind;
  unsigned width;
};

class CellProperty : public ::testing::TestWithParam<KindWidth> {};

TEST_P(CellProperty, WriteThenSearchRoundTrip) {
  const auto [kind, width] = GetParam();
  CellConfig cfg;
  cfg.kind = kind;
  cfg.data_width = width;
  CamCell cell(cfg);
  Rng rng(width * 131 + static_cast<unsigned>(kind));
  for (int trial = 0; trial < 50; ++trial) {
    const Word v = rng.next_bits(width);
    cell.drive_write(v);
    step(cell);
    cell.drive_search(v);
    steps(cell, 2);
    EXPECT_TRUE(cell.match()) << "width=" << width << " v=" << v;
    const Word other = v ^ (Word{1} << rng.next_below(width));
    cell.drive_search(other);
    steps(cell, 2);
    EXPECT_FALSE(cell.match()) << "width=" << width << " other=" << other;
  }
}

// Constant-initialised, so the struct padding is zero: ctest names each case
// after the byte dump of its parameter, and stack garbage in the padding
// would give the cases new names on every build.
constexpr KindWidth kKindWidths[] = {
    KindWidth{CamKind::kBinary, 8},   KindWidth{CamKind::kBinary, 32},
    KindWidth{CamKind::kBinary, 48},  KindWidth{CamKind::kTernary, 16},
    KindWidth{CamKind::kTernary, 48}, KindWidth{CamKind::kRange, 32}};

INSTANTIATE_TEST_SUITE_P(KindsAndWidths, CellProperty, ::testing::ValuesIn(kKindWidths));

}  // namespace
}  // namespace dspcam::cam
