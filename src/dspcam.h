// Umbrella header: the full public API of the DSP-CAM library.
//
//   #include "src/dspcam.h"
//
// Most users need only a few of these; they are grouped by layer so the
// include list below doubles as an API map. See README.md for the
// architecture overview and examples/ for usage.
#pragma once

// Foundations.
#include "src/common/bitops.h"
#include "src/common/bitvec.h"
#include "src/common/error.h"
#include "src/common/random.h"
#include "src/common/table.h"

// Simulation kernel.
#include "src/sim/delay_line.h"
#include "src/sim/fifo.h"
#include "src/sim/stats.h"

// DSP48E2 substrate.
#include "src/dsp/dsp48e2.h"
#include "src/dsp/opmode.h"

// The CAM hierarchy (the paper's contribution).
#include "src/cam/block.h"
#include "src/cam/cell.h"
#include "src/cam/config.h"
#include "src/cam/encoder.h"
#include "src/cam/mask.h"
#include "src/cam/reference_cam.h"
#include "src/cam/routing.h"
#include "src/cam/transactions.h"
#include "src/cam/types.h"
#include "src/cam/unit.h"

// Resource/timing models and the Table I survey.
#include "src/model/characteristics.h"
#include "src/model/device.h"
#include "src/model/resources.h"
#include "src/model/survey.h"
#include "src/model/timing.h"

// Competing CAM families.
#include "src/baseline/bram_cam.h"
#include "src/baseline/lut_cam.h"

// RTL generation (the paper's template flow).
#include "src/codegen/verilog.h"

// System integration: the backend interface, engines, async host driver,
// multi-unit sharding, entry management.
#include "src/system/backend.h"
#include "src/system/cam_system.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"

// Graph substrate and the triangle-counting case study.
#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/triangle.h"
#include "src/tc/accel_result.h"
#include "src/tc/cam_accel.h"
#include "src/tc/dynamic_tc.h"
#include "src/tc/memory_model.h"
#include "src/tc/merge_accel.h"
#include "src/tc/validate.h"

// Applications.
#include "src/apps/lpm.h"
#include "src/apps/semijoin.h"
