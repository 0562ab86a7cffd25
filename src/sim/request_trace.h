// Deterministic record/replay of host request streams.
//
// The recovery features (quarantine -> rebuild, live resharding) claim they
// never drop, duplicate, or reorder in-flight work. The proof harness is
// byte-level: record the requests a driver submits (RequestTrace), replay
// them against a disturbed engine, normalise the completions into a
// CompletionStream, and compare its bytes()/digest() against an undisturbed
// run. Identical bytes = identical completion behaviour.
//
// Two comparison planes:
//  - Placement::kFull keeps every result field including global_address /
//    shard / group. Right for disturbances that must not move entries
//    (checkpoint/restore, quarantine -> rebuild of the same fleet).
//  - Placement::kSemantic drops the placement fields, keeping key / hit /
//    match_count / parity_error / shard_failed and the ack facts. Right for
//    resharding, which legitimately re-homes entries while preserving what
//    each search means.
//
// CamDriver::set_request_trace() records; CamDriver::replay_trace() plays a
// trace (or a slice of one) back and collects the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cam/transactions.h"

namespace dspcam::sim {

/// An ordered capture of submitted host requests (pre-ticket: `seq` holds
/// whatever the caller passed, and replay re-submits in order).
class RequestTrace {
 public:
  void record(const cam::UnitRequest& request) { requests_.push_back(request); }

  const std::vector<cam::UnitRequest>& requests() const noexcept {
    return requests_;
  }
  std::size_t size() const noexcept { return requests_.size(); }
  bool empty() const noexcept { return requests_.empty(); }
  void clear() { requests_.clear(); }

 private:
  std::vector<cam::UnitRequest> requests_;
};

/// Canonical, comparable capture of completed operations.
class CompletionStream {
 public:
  /// Which result fields participate in the canonical bytes.
  enum class Placement {
    kFull,      ///< Everything, including global_address / shard / group.
    kSemantic,  ///< Placement fields dropped (legitimately move on reshard).
  };

  /// One completed ticket, driver-agnostic.
  struct Record {
    std::uint64_t ticket = 0;
    unsigned op = 0;  ///< static_cast of cam::OpKind.
    unsigned words_written = 0;
    bool full = false;
    std::vector<cam::UnitSearchResult> results;  ///< Searches only.
  };

  explicit CompletionStream(Placement placement = Placement::kFull)
      : placement_(placement) {}

  Placement placement() const noexcept { return placement_; }
  void add(Record record) { records_.push_back(std::move(record)); }
  std::size_t size() const noexcept { return records_.size(); }
  void clear() { records_.clear(); }

  /// Canonical text: one line per ticket, sorted by ticket, fields filtered
  /// by the placement mode. Two streams are behaviourally identical exactly
  /// when their bytes() are equal.
  std::string bytes() const;

  /// FNV-1a of bytes(), for cheap equality checks and bench rows.
  std::uint64_t digest() const;

 private:
  Placement placement_;
  std::vector<Record> records_;
};

}  // namespace dspcam::sim
