// Longest-prefix-match (LPM) routing table on the DSP TCAM.
//
// The canonical TCAM application the paper's introduction cites ("IP routing
// or packet redirection"). The CAM's priority encoder returns the *lowest
// matching address*; LPM needs the *longest matching prefix* to win. The
// classic reconciliation is spatial: slots are partitioned into one region
// per prefix length, ordered /32 first and /0 last, so address order IS
// prefix-length order and the stock priority encoder performs LPM with no
// extra logic.
//
// Routes are inserted with addressed updates into their length's region and
// removed with the invalidate extension; next-hop payloads live in a
// host-side table indexed by slot (on the FPGA this would be a small BRAM
// addressed by the CAM's match address - the standard pairing).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/system/driver.h"

namespace dspcam::apps {

/// IPv4 longest-prefix-match table.
class LpmTable {
 public:
  struct Config {
    /// Slots reserved for each prefix length 0..32. Capacity must cover
    /// 33 * slots_per_length entries.
    unsigned slots_per_length = 32;
    system::CamSystem::Config cam;  ///< Must be a 32-bit ternary unit.
  };

  LpmTable();  // default Config (a 2K-entry ternary unit)
  explicit LpmTable(const Config& cfg);

  /// Borrows a ternary 32-bit CamBackend: a CamSystem or a 1-shard engine
  /// (engines refuse masked cells at S > 1); it is reconfigured to one group
  /// and cleared.
  /// `slots_per_length` regions must fit its capacity.
  LpmTable(system::CamBackend& backend, unsigned slots_per_length);

  /// Installs prefix/len -> next_hop. Returns false if the length's region
  /// is full or the route already exists (update it by remove + add).
  bool add_route(std::uint32_t prefix, unsigned len, std::uint32_t next_hop);

  /// Removes prefix/len. Returns false if not present.
  bool remove_route(std::uint32_t prefix, unsigned len);

  /// Longest-prefix lookup; returns the route's next hop, if any.
  std::optional<std::uint32_t> lookup(std::uint32_t address);

  unsigned route_count() const noexcept { return routes_; }
  unsigned capacity_per_length() const noexcept { return cfg_.slots_per_length; }

 private:
  struct Slot {
    bool occupied = false;
    std::uint32_t prefix = 0;
    unsigned len = 0;
    std::uint32_t next_hop = 0;
  };

  unsigned region_base(unsigned len) const noexcept {
    // /32 first: longest prefixes get the lowest (highest-priority) slots.
    return (32 - len) * cfg_.slots_per_length;
  }
  std::optional<unsigned> find_route(std::uint32_t prefix, unsigned len) const;

  Config cfg_;
  system::CamDriver driver_;
  std::vector<Slot> slots_;
  unsigned routes_ = 0;
};

}  // namespace dspcam::apps
