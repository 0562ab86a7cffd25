// Seeded, deterministic fault injection.
//
// A FaultInjector flips bits in one FaultTarget according to a declarative
// FaultCampaign. Every decision - whether a cycle fires, which entry, which
// plane, which bit - comes from one xoshiro256** stream seeded by the
// campaign, so the same seed against the same geometry reproduces the exact
// same corruption history (the injector runs between clock edges; see
// CamDriver::set_cycle_hook). That reproducibility is what the acceptance
// tests pin: identical injected/detected/corrected counters across runs.
#pragma once

#include <cstdint>
#include <optional>

#include "src/common/random.h"
#include "src/fault/fault.h"
#include "src/sim/stats.h"

namespace dspcam::telemetry {
class FlightRecorder;  // src/telemetry/flight_recorder.h
}  // namespace dspcam::telemetry

namespace dspcam::fault {

/// Declarative description of one injection campaign. The default is inert
/// (rate 0, no one-shot): constructing an injector changes nothing until the
/// campaign says so.
struct FaultCampaign {
  std::uint64_t seed = 1;       ///< Seeds the injector's private RNG.
  double rate_per_cycle = 0.0;  ///< P(a burst fires) per step(), in [0, 1].
  unsigned burst_size = 1;      ///< Flips applied per firing (SEU = 1; MBU > 1).
  bool one_shot = false;        ///< Fire exactly once, on the first step().

  std::optional<std::size_t> entry;  ///< Pin the victim entry (else uniform).
  std::optional<unsigned> bit;       ///< Pin the victim bit (else uniform).
  std::optional<FaultPlane> plane;   ///< Pin the plane (else uniform draw).

  bool include_valid = true;    ///< Random plane draws may hit the valid flag.
  bool include_parity = false;  ///< Random plane draws may hit the parity bit
                                ///< (only on parity-protected targets).
};

/// Deterministic bit-flipper over one FaultTarget.
class FaultInjector {
 public:
  /// Validates the campaign against the target's geometry (ConfigError on a
  /// pinned entry/bit outside it, rate outside [0,1], zero burst).
  FaultInjector(FaultTarget& target, const FaultCampaign& campaign);

  /// One simulation cycle: fires a burst with probability rate_per_cycle
  /// (or exactly once, immediately, in one_shot mode). Returns the number
  /// of flips applied this cycle.
  unsigned step();

  /// Fires one burst unconditionally (targeted experiments; does not
  /// consume the one_shot budget).
  unsigned inject();

  const FaultCampaign& campaign() const noexcept { return campaign_; }
  const sim::FaultStats& stats() const noexcept { return stats_; }
  std::uint64_t cycles() const noexcept { return cycles_; }

  /// Attaches a flight recorder: every flip records a fault_poke event
  /// (entry/plane/bit) stamped with the injector's cycle counter - which
  /// tracks the driver's clock when stepped from the cycle hook. Borrowed;
  /// nullptr detaches.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  FaultPlane draw_plane();
  void flip_once();

  FaultTarget* target_;
  FaultCampaign campaign_;
  Rng rng_;
  sim::FaultStats stats_;
  std::uint64_t cycles_ = 0;
  bool fired_ = false;
  telemetry::FlightRecorder* recorder_ = nullptr;  ///< Borrowed (null = off).
};

}  // namespace dspcam::fault
