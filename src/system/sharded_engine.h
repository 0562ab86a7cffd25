// Multi-unit CAM scaling: S backends behind a key partitioner.
//
// One CAM unit pops one request per cycle; serving heavy traffic past that
// rate means sharding the key space over S independent backends. The engine
// implements CamBackend itself, so consumers (the async CamDriver, the
// applications) are oblivious to whether they talk to one unit or many:
//
//   host beat -> partitioner (hash | range) -> per-shard sub-requests
//             -> per-shard credit check + issue -> S backends step in
//                lockstep -> one collection pass per cycle, shards in
//                ascending order -> reorder buffers
//             -> in-order responses/acks, global addresses rebased by shard.
//
// Semantics:
//  - Append updates partition each word by its key value; searches partition
//    each key. The same partitioner on both sides keeps lookups consistent.
//  - Addressed update / invalidate interpret the address as global:
//    shard = address / shard_capacity (range-partitioned address space).
//    At S > 1 an addressed update whose words do not all partition to that
//    shard is refused (SimError, nothing changes).
//  - Every fleet (construction, restore(), reshard()) is homogeneous in all
//    the engine aggregates or indexes by, and binary at S > 1: a masked
//    entry covers keys of many shards but is stored on one.
//  - Responses and acks each complete in submission order (reorder buffers);
//    per-key results keep their beat positions, with `shard` and a rebased
//    `global_address` (shard * shard_capacity + local) filled in.
//  - Credits bound the sub-operations in flight per shard, so one hot shard
//    backpressures the host instead of growing unbounded queues.
//  - With S = 1 the partitioner is the identity and the engine is a
//    pass-through: bit- and cycle-identical to the bare backend (asserted in
//    tests).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ring_queue.h"
#include "src/fault/fault.h"
#include "src/fault/snapshot.h"
#include "src/system/backend.h"
#include "src/system/cam_system.h"
#include "src/telemetry/flight_recorder.h"

namespace dspcam::fault {
class Scrubber;  // src/fault/scrubber.h; golden-shadow rebuild source
}  // namespace dspcam::fault

namespace dspcam::system {

/// S CAM backends behind a configurable key partitioner.
class ShardedCamEngine : public CamBackend {
 public:
  /// How keys map to shards.
  enum class Partition {
    kHash,   ///< splitmix64 finaliser of the key, modulo S.
    kRange,  ///< Contiguous key ranges: shard = key / ceil(2^key_bits / S).
  };

  struct Config {
    unsigned shards = 1;
    Partition partition = Partition::kHash;
    unsigned key_bits = 32;          ///< Key-space width for range partitioning.
    unsigned credits_per_shard = 256;///< Max in-flight sub-ops per shard.

    /// Host threads stepping the shards. Must be 1: the shards are S copies
    /// of one synchronous pipeline and step serially, in ascending order,
    /// every cycle. The field stays only because the end-to-end bench
    /// (bench/e2e/e2e_bench.cc) sets it.
    unsigned step_threads = 1;

    /// Throws ConfigError on an unusable geometry (no shards, zero
    /// credits, key_bits outside 1..64) or a step_threads other than 1.
    void validate() const;
  };

  using ShardFactory = std::function<std::unique_ptr<CamBackend>(unsigned shard)>;

  /// Builds S shards via `make_shard(0..S-1)`. Throws ConfigError unless the
  /// fleet meets the contract above.
  ShardedCamEngine(const Config& cfg, const ShardFactory& make_shard);

  /// Convenience: S identical DSP CamSystems.
  ShardedCamEngine(const Config& cfg, const CamSystem::Config& shard_cfg);

  const Config& config() const noexcept { return cfg_; }
  unsigned shard_count() const noexcept { return static_cast<unsigned>(shards_.size()); }
  CamBackend& shard(unsigned s) { return *shards_.at(s); }
  const CamBackend& shard(unsigned s) const { return *shards_.at(s); }

  /// The partitioner: which shard stores/answers `key`.
  unsigned shard_of(cam::Word key) const;
  /// The same partitioner over a fleet of `count` shards.
  unsigned shard_of(cam::Word key, unsigned count) const;

  // --- CamBackend geometry. ---

  unsigned data_width() const override { return front().data_width(); }
  cam::CamKind kind() const override { return front().kind(); }
  unsigned capacity() const override { return shard_count() * front().capacity(); }
  unsigned words_per_beat() const override { return shard_count() * front().words_per_beat(); }
  unsigned max_keys_per_beat() const override {
    return shard_count() * front().max_keys_per_beat();
  }
  unsigned max_groups() const override { return front().max_groups(); }
  /// Broadcast; requires an idle engine with no shard quarantined.
  void configure_groups(unsigned m) override;

  // --- Protocol. ---

  bool try_submit(cam::UnitRequest request) override;

  /// Reorder-buffer front pops; they never touch a shard. Shards produce
  /// output only on their own clock edge, so step() collects everything the
  /// shards emitted in the cycle they emitted it.
  std::optional<cam::UnitResponse> try_pop_response() override;
  std::optional<cam::UnitUpdateAck> try_pop_ack() override;
  bool request_full() const override;
  std::size_t pending_requests() const override;

  /// One engine cycle: pump parked sub-requests, step every live shard in
  /// ascending order, then one collection pass into the reorder buffers.
  void step() override;

  bool idle() const override;

  /// Always 1 (see Config::step_threads); read by the end-to-end bench.
  unsigned effective_step_threads() const noexcept { return 1; }

  /// The engine cycle at which the most recently popped response/ack first
  /// became poppable (its reorder beat completed). Lets tests pin completion
  /// cycles, not just payloads.
  std::uint64_t last_completion_cycle() const noexcept { return last_completion_cycle_; }

  // --- Reporting. ---

  /// Aggregated over shards; `cycles` is the engine clock (lockstep).
  Stats stats() const override;

  /// Sum of shard resources plus a first-order steering/partitioner adder.
  model::ResourceUsage resources() const override;

  // --- Robustness (src/fault/). ---

  /// Degraded-shard mode: takes shard `s` out of service. Its parked
  /// sub-requests are dropped, every in-flight sub-operation it owed is
  /// settled immediately - searches complete with `shard_failed` results
  /// (hit forced false) at their beat positions, acks complete with zero
  /// words contributed - and from then on the shard is skipped by issue,
  /// stepping and collection: keys routed to it come back `shard_failed`
  /// instead of silently missing or blocking the beat. Re-admitting a shard
  /// whose contents diverged would serve wrong answers, so the only way back
  /// into service is rebuild_shard(), which restores known-good state and
  /// verifies it first. Idempotent.
  void quarantine_shard(unsigned s);
  bool shard_quarantined(unsigned s) const { return quarantined_.at(s) != 0; }
  unsigned quarantined_count() const noexcept;

  // --- Checkpoint / restore (src/fault/snapshot.h). ---

  /// Whole-engine checkpoint: one sealed ShardSnapshot per shard plus the
  /// partitioner configuration the contents assume.
  struct EngineCheckpoint {
    static constexpr std::uint32_t kVersion = 1;

    std::uint32_t version = kVersion;
    unsigned shards = 0;
    Partition partition = Partition::kHash;
    unsigned key_bits = 32;
    unsigned shard_capacity = 0;
    std::vector<fault::ShardSnapshot> shard_snaps;
  };

  /// Captures shard `s` as a sealed snapshot. The shard's sub-operation
  /// state must be settled (no parked sub-requests, nothing owed to the
  /// reorder buffers, backend idle unless quarantined) - drain the driver
  /// first. Throws SimError if the shard exposes no fault target.
  fault::ShardSnapshot snapshot_shard(unsigned s);

  /// Restores shard `s` in place from a verified snapshot. Same settledness
  /// requirement; refuses quarantined shards (use rebuild_shard) and any
  /// snapshot whose slot, geometry, or checksum mismatches - descriptive
  /// SimError, never a silent load. Works across eval modes: the snapshot
  /// format only speaks the FaultTarget peek/poke window.
  void restore_shard(unsigned s, const fault::ShardSnapshot& snap);

  /// Checkpoints every shard. Requires a fully idle engine with both
  /// reorder buffers drained by the host, and no quarantined shard: a
  /// quarantined shard's entries are suspect, and restore() would put them
  /// back into service unverified (rebuild_shard() first).
  EngineCheckpoint checkpoint();

  /// Restores a checkpoint into this engine. Requires the same idle/drained
  /// state as checkpoint(); adopts the checkpoint's partitioner config and,
  /// when the shard counts differ, rebuilds the shard fleet through the
  /// stored factory. Clears all quarantine flags - every restored shard
  /// re-enters service. Fails closed: the version, shard count, adopted
  /// partitioner config, shard capacity and every snapshot (seal, slot,
  /// geometry) are checked before the fleet or any entry is touched, so a
  /// refused restore leaves the engine exactly as it was.
  void restore(const EngineCheckpoint& ckpt);

  // --- Quarantined-shard rebuild. ---

  /// Brings quarantined shard `s` back into service from a snapshot: purges
  /// the shard's crashed pipeline state, restores entries + fill cursors,
  /// re-verifies every entry against the snapshot (a scrub-style read-back
  /// pass), then re-admits the shard with full credits. Throws SimError if
  /// the shard is not quarantined or verification fails (the shard then
  /// stays quarantined). No cycles elapse; in-flight beats owed by *other*
  /// shards are untouched.
  void rebuild_shard(unsigned s, const fault::ShardSnapshot& snap);

  /// Same, but restores the shard's window of the scrubber's golden shadow
  /// (the scrubber must be captured over this engine's composite fault
  /// target). Storage plane only: the shard keeps its own fill cursors,
  /// which quarantine never corrupts.
  void rebuild_shard(unsigned s, const fault::Scrubber& scrubber);

  // --- Live resharding. ---

  /// What reshard() did, for benches and telemetry.
  struct ReshardReport {
    unsigned old_shards = 0;
    unsigned new_shards = 0;
    std::size_t entries_moved = 0;   ///< Valid entries redistributed.
    std::uint64_t pause_cycles = 0;  ///< Engine cycles spent settling in-flight work.
  };

  /// Live resharding: settles in-flight sub-operations (stepping the engine;
  /// completed beats stay poppable), collects every valid entry in
  /// deterministic shard-then-address order, rebuilds the fleet at
  /// `new_shard_count` through the stored factory, and re-appends each entry
  /// to the shard the new partitioner picks. Hash partitioner and binary
  /// cells only; requires no quarantined shards. Invalid holes are compacted
  /// away; addressed-op traces spanning a reshard are the caller's contract.
  /// Fails closed: when some new shard could not hold every entry the new
  /// partitioner sends it, reshard throws before the fleet is replaced.
  ReshardReport reshard(unsigned new_shard_count);

  /// Reshard's placement: the valid `entries`, bucketed by
  /// shard_of(stored, count), each bucket in input order. Pure.
  std::vector<std::vector<fault::EntryState>> place(
      std::span<const fault::EntryState> entries, unsigned count) const;

  /// Concatenated injection/scrub window over the shards' storage, or
  /// nullptr if any shard exposes none.
  fault::FaultTarget* fault_target() override;

  /// Per-shard credit/queue/flag state plus reorder-buffer depths.
  std::string debug_dump() const override;

  // --- Telemetry (src/telemetry/). ---

  /// Aggregate Stats plus engine state (reorder-buffer depths, quarantine
  /// events) and per-shard detail under "<prefix>.shard<N>." (credits,
  /// parked sub-requests, quarantine flag, and the shard backend's own
  /// telemetry). Called from the host thread only.
  void record_telemetry(telemetry::MetricRegistry& registry,
                        const std::string& prefix) const override;

  /// Attaches a span tracer: sampled beats record a dispatch -> reorder
  /// completion span (track 2) plus one sub-operation span per shard
  /// (track 16 + shard). Tracer writes happen only on the submit and
  /// collect passes.
  void set_span_tracer(telemetry::SpanTracer* tracer) override;

  /// Attaches a flight recorder: quarantine, rebuild, reshard and
  /// checkpoint/restore record typed events (stamped with the engine
  /// cycle) for black-box dumps. Not forwarded to the shards - their
  /// lifecycle is narrated here, where it is decided.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) override;

  /// Utilization series: reorder-buffer depth plus, per live shard, queue
  /// depth and consumed credits, and each shard backend's own tracks under
  /// "<prefix>.shard<N>".
  void record_counter_tracks(telemetry::SpanTracer& tracer,
                             const std::string& prefix,
                             std::uint64_t cycle) const override;

 private:
  using EventKind = telemetry::FlightRecorder::EventKind;

  /// Reorder-buffer entry for one host search beat.
  struct SearchBeat {
    std::uint64_t seq = 0;
    unsigned pending = 0;
    cam::BeatVec<cam::UnitSearchResult> results;
    std::uint64_t span = 0;  ///< Beat-level span (SpanTracer::kNone if unsampled).
    std::uint64_t ready = 0; ///< Cycle the beat completed (last sub-op landed).
  };

  /// Reorder-buffer entry for one host update/invalidate beat.
  struct AckBeat {
    std::uint64_t seq = 0;
    unsigned pending = 0;
    cam::UnitUpdateAck ack;
    std::uint64_t span = 0;
    std::uint64_t ready = 0;
  };

  /// What the next response/ack popped from a shard corresponds to. The
  /// keys themselves sit in the beat's result slots from submit on, which
  /// is where quarantine back-fill reads them.
  struct ExpectedSearch {
    std::uint64_t beat_id = 0;
    cam::BeatVec<std::uint32_t> positions;  ///< Key indices in the beat.
    std::uint64_t span = 0;                ///< Per-shard sub-operation span.
  };

  /// One shard ack owed to a reorder-buffer beat.
  struct ExpectedAck {
    std::uint64_t beat_id = 0;
    std::uint64_t span = 0;
  };

  /// Concatenation of the shards' fault windows: entry i belongs to shard
  /// i / per_shard (the fleet contract makes every window the same size).
  class CompositeFaultTarget final : public fault::FaultTarget {
   public:
    explicit CompositeFaultTarget(std::vector<fault::FaultTarget*> parts)
        : parts_(std::move(parts)), per_(parts_.front()->entry_count()) {}

    std::size_t entry_count() const override { return parts_.size() * per_; }
    unsigned entry_bits() const override { return parts_.front()->entry_bits(); }
    bool parity_protected() const override { return parts_.front()->parity_protected(); }
    fault::EntryState peek(std::size_t entry) const override {
      return part(entry).peek(entry % per_);
    }
    void poke(std::size_t entry, const fault::EntryState& state) override {
      part(entry).poke(entry % per_, state);
    }

   private:
    /// The shard window holding `entry`; throws SimError past the end.
    fault::FaultTarget& part(std::size_t entry) const;

    std::vector<fault::FaultTarget*> parts_;
    std::size_t per_;  ///< Entries per shard window.
  };

  /// The fleet's shape: every shard matches it (install_fleet()).
  const CamBackend& front() const { return *shards_.front(); }
  /// Credits shard `s` has left: one per sub-operation it owes.
  unsigned credits(unsigned s) const {
    return cfg_.credits_per_shard -
           static_cast<unsigned>(expected_search_[s].size() + expected_ack_[s].size());
  }
  /// Hands shard `s` a sub-request of `beat`'s op and seq whose payload
  /// `fill(sub)` writes: into its FIFO when it has room, else parked in
  /// pending_issue_[s].
  template <typename Fill>
  void issue(unsigned s, const cam::UnitRequest& beat, const Fill& fill);
  void pump(unsigned s);
  /// Drains every live shard's outputs into the reorder buffers, ascending
  /// shard order.
  void collect();

  // --- Control plane: every action validates, settles, places, installs
  // and records through the helpers below. ---

  /// Throws ConfigError("<who>: no such shard") unless `s` names a shard.
  void require_shard(unsigned s, const char* who) const;
  /// Throws SimError unless the engine is idle and the host has drained
  /// both reorder buffers.
  void require_drained(const char* who) const;
  /// Throws SimError while any shard is quarantined.
  void require_in_service(const char* who) const;
  /// rebuild_shard()'s refusals: `s` must name a quarantined shard.
  void require_rebuildable(unsigned s) const;
  /// True when shard `s` owes nothing to the reorder buffers and has no
  /// parked sub-requests (and, unless quarantined, its backend is idle).
  bool shard_settled(unsigned s) const;
  bool all_settled() const;
  /// Throws SimError("<who>: ...") unless shard_settled(s).
  void require_settled(unsigned s, const char* who) const;
  /// Seal, slot and geometry checks a snapshot must pass before it may be
  /// loaded into slot `s`. Checks against the front shard: the fleet is
  /// homogeneous, and so is any fleet install_fleet() would build.
  void check_snapshot(unsigned s, const fault::ShardSnapshot& snap);
  /// Steps until all_settled(); throws with a debug dump when `budget`
  /// cycles pass first. Returns cycles spent.
  std::uint64_t drain_to_idle(std::uint64_t budget, const char* who);
  /// Replaces the fleet with `count` shards from the stored factory, keeping
  /// the current grouping (configure_groups() is not the factory's), and
  /// reopens every slot. Checks the fleet contract against the current
  /// shards (or each other at construction) before changing anything.
  /// Requires settled shards.
  void install_fleet(unsigned count);
  /// Resets shard `s`'s bookkeeping - no reset fence, nothing parked or
  /// expected - and sets its quarantine flag to `quarantined`.
  void reopen_shard(unsigned s, bool quarantined);
  /// Purges shard `s`, pokes `entries` into its storage and restores its
  /// fill cursors when given (null keeps the shard's own).
  void load_shard(unsigned s, std::span<const fault::EntryState> entries,
                  const std::vector<std::uint64_t>* cursors);
  /// rebuild_shard()'s body once its source is validated: load, read-back
  /// verify (a mismatch leaves the shard quarantined), readmit, record.
  void rebuild(unsigned s, const char* source,
               std::span<const fault::EntryState> entries,
               const std::vector<std::uint64_t>* cursors);
  /// Writes one transition: counts it by kind, appends `history` to the
  /// debug dump's history (unless empty), records the flight-recorder event
  /// and, when `span` names one, a zero-length recovery span on the engine
  /// track carrying the first `span_args` of `args`.
  void record_transition(EventKind kind, telemetry::Severity severity, std::string history,
                         std::string what, std::vector<std::pair<std::string, std::uint64_t>> args,
                         const char* span = nullptr, std::size_t span_args = 0);

  Config cfg_;
  ShardFactory make_shard_;  ///< Rebuilds shards for restore()/reshard().
  std::vector<std::unique_ptr<CamBackend>> shards_;
  std::vector<char> resetting_;    ///< Shards settling a reset (fenced).
  std::vector<char> quarantined_;  ///< Shards taken out of service.
  std::unique_ptr<CompositeFaultTarget> fault_target_;  ///< Null if unsupported.

  /// Sub-requests accepted by the engine but not yet in a shard FIFO.
  std::vector<RingQueue<cam::UnitRequest>> pending_issue_;

  std::vector<RingQueue<ExpectedSearch>> expected_search_;
  std::vector<RingQueue<ExpectedAck>> expected_ack_;

  RingQueue<SearchBeat> search_rob_;
  std::uint64_t search_rob_base_ = 0;
  RingQueue<AckBeat> ack_rob_;
  std::uint64_t ack_rob_base_ = 0;

  std::uint64_t cycles_ = 0;
  std::uint64_t last_completion_cycle_ = 0;
  std::map<EventKind, std::uint64_t> transitions_;  ///< record_transition() calls per kind.
  std::uint64_t reshard_entries_moved_ = 0;  ///< Cumulative across reshards.
  std::uint64_t reshard_pause_cycles_ = 0;   ///< Cumulative settling cycles.
  /// Quarantine/rebuild/reshard/restore log, one "@<cycle> <what>" per line.
  std::vector<std::string> history_;

  /// Borrowed span tracer (null = tracing off). Written only from the
  /// submit/collect passes.
  telemetry::SpanTracer* tracer_ = nullptr;

  /// Borrowed flight recorder (null = off); lifecycle events only, so it is
  /// written exclusively from the control-plane entry points.
  telemetry::FlightRecorder* recorder_ = nullptr;

  // try_submit() scratch; it keeps its capacity, so a warm beat path
  // allocates nothing.
  std::vector<unsigned> routed_;      ///< Per shard: values (keyed beats) or sub-ops.
  std::vector<std::uint32_t> route_;  ///< Per key/word: shard, | kOpens if it opens a sub.
};

}  // namespace dspcam::system
