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
//    With the hash partitioner, addressed writes are the caller's contract -
//    the engine does not re-hash them.
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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/freelist.h"
#include "src/common/ring_queue.h"
#include "src/common/thread_pool.h"
#include "src/fault/fault.h"
#include "src/fault/snapshot.h"
#include "src/system/backend.h"
#include "src/system/cam_system.h"

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

    /// Host threads stepping the shards each cycle (1 = serial). Shards are
    /// fully independent between the serial pump and collect passes, so any
    /// thread count produces byte-identical results (asserted in tests);
    /// this only trades host wall-clock. Capped at the shard count.
    unsigned step_threads = 1;

    /// Additionally cap the stepping threads at the host's core count
    /// (std::thread::hardware_concurrency). Oversubscribed pools only add
    /// context-switch overhead - results are byte-identical either way, so
    /// the clamp is on by default; determinism tests turn it off to exercise
    /// real pools regardless of the host.
    bool clamp_threads_to_cores = true;

    /// Throws ConfigError on an unusable geometry (no shards, zero
    /// credits, key_bits outside 1..64). step_threads is deliberately not
    /// validated: any value is legal (clamped to the shard count).
    void validate() const;
  };

  using ShardFactory = std::function<std::unique_ptr<CamBackend>(unsigned shard)>;

  /// Builds S shards via `make_shard(0..S-1)`. Shards must be homogeneous
  /// (same width/kind/capacity).
  ShardedCamEngine(const Config& cfg, const ShardFactory& make_shard);

  /// Convenience: S identical DSP CamSystems.
  ShardedCamEngine(const Config& cfg, const CamSystem::Config& shard_cfg);

  const Config& config() const noexcept { return cfg_; }
  unsigned shard_count() const noexcept { return static_cast<unsigned>(shards_.size()); }
  CamBackend& shard(unsigned s) { return *shards_.at(s); }
  const CamBackend& shard(unsigned s) const { return *shards_.at(s); }

  /// The partitioner: which shard stores/answers `key`.
  unsigned shard_of(cam::Word key) const;

  // --- CamBackend geometry. ---

  unsigned data_width() const override { return shards_.front()->data_width(); }
  cam::CamKind kind() const override { return shards_.front()->kind(); }
  unsigned capacity() const override;  ///< Sum of shard capacities.
  unsigned words_per_beat() const override;     ///< Aggregate update bandwidth.
  unsigned max_keys_per_beat() const override;  ///< Aggregate search bandwidth.
  unsigned max_groups() const override;
  void configure_groups(unsigned m) override;  ///< Broadcast; requires idle.

  // --- Protocol. ---

  bool try_submit(cam::UnitRequest request) override;

  /// Reorder-buffer front pops; they never touch a shard. Shards produce
  /// output only on their own clock edge, so step() / step_many() collect
  /// everything the shards emitted in the cycle they emitted it.
  std::optional<cam::UnitResponse> try_pop_response() override;
  std::optional<cam::UnitUpdateAck> try_pop_ack() override;
  bool request_full() const override;
  std::size_t pending_requests() const override;

  void step() override;

  /// Safe-horizon batch stepping: the shards free-run `n` cycles each -
  /// pumping their own parked sub-requests and draining their own outputs
  /// into per-shard staging buffers - and the serial boundary replay then
  /// re-applies the collection bookkeeping (reorder scatter, credits, span
  /// timestamps) cycle by cycle. Observably identical to n single step()
  /// calls for every step_threads setting (pinned in
  /// tests/system/parallel_determinism_test.cc), but workers cross the
  /// barrier once per window instead of once per cycle.
  void step_many(std::uint64_t n) override;

  /// Conservative horizon: 0 when a reorder-buffer front is already
  /// complete (or nothing bounds the wait), else the minimum over the live
  /// shards still owing sub-operations of their own horizons.
  std::uint64_t output_horizon() const override;

  bool idle() const override;

  /// Stepping threads actually used after the shard-count and (optional)
  /// core-count clamps; what the throughput benches report.
  unsigned effective_step_threads() const noexcept { return effective_threads_; }

  /// The engine cycle at which the most recently popped response/ack first
  /// became poppable (its reorder beat completed). Lets tests pin that
  /// horizon batching never shifts completion cycles.
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
  /// words contributed - and from then on the shard is skipped by planning,
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
  /// reorder buffers drained by the host.
  EngineCheckpoint checkpoint();

  /// Restores a checkpoint into this engine. Requires the same idle/drained
  /// state as checkpoint(); adopts the checkpoint's partitioner config and,
  /// when the shard counts differ, rebuilds the shard fleet through the
  /// stored factory. Clears all quarantine flags - every restored shard
  /// re-enters service.
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
  /// to the shard the new partitioner picks. Hash partitioner only for now;
  /// requires no quarantined shards. Invalid holes are compacted away;
  /// addressed-op traces spanning a reshard are the caller's contract.
  ReshardReport reshard(unsigned new_shard_count);

  /// One recovery-lifecycle event (quarantine / rebuild / reshard), for
  /// debug dumps and post-mortems.
  struct RecoveryEvent {
    std::uint64_t cycle = 0;
    std::string what;
  };
  const std::vector<RecoveryEvent>& recovery_history() const noexcept {
    return history_;
  }

  /// Concatenated injection/scrub window over the shards' storage, or
  /// nullptr if any shard exposes none.
  fault::FaultTarget* fault_target() override;

  /// Per-shard credit/queue/flag state plus reorder-buffer depths.
  std::string debug_dump() const override;

  // --- Telemetry (src/telemetry/). ---

  /// Aggregate Stats plus engine state (reorder-buffer depths, quarantine
  /// events) and per-shard detail under "<prefix>.shard<N>." (credits,
  /// parked sub-requests, quarantine flag, and the shard backend's own
  /// telemetry). Called from the serial host thread only.
  void record_telemetry(telemetry::MetricRegistry& registry,
                        const std::string& prefix) const override;

  /// Attaches a span tracer: sampled beats record a dispatch -> reorder
  /// completion span (track 2) plus one sub-operation span per shard
  /// (track 16 + shard). All tracer writes happen on the serial
  /// submit/collect passes, never on the parallel stepping path.
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
  /// One planned sub-request: what goes to which shard, and which beat
  /// positions its results fill. A search sub-request's keys are gathered
  /// from `positions` only once the beat is accepted.
  struct SubRequest {
    unsigned shard = 0;
    cam::UnitRequest req;
    std::vector<std::uint32_t> positions;  ///< Search: key indices in the beat.
  };

  /// Reorder-buffer entry for one host search beat.
  struct SearchBeat {
    std::uint64_t seq = 0;
    unsigned pending = 0;
    std::vector<cam::UnitSearchResult> results;
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
    std::vector<std::uint32_t> positions;  ///< Recycled via positions_pool_.
    std::uint64_t span = 0;                ///< Per-shard sub-operation span.
  };

  /// One shard ack owed to a reorder-buffer beat.
  struct ExpectedAck {
    std::uint64_t beat_id = 0;
    std::uint64_t span = 0;
  };

  /// Concatenation of the shards' fault windows: entry i belongs to shard
  /// i / per_shard (homogeneous capacity makes the arithmetic exact).
  class CompositeFaultTarget final : public fault::FaultTarget {
   public:
    explicit CompositeFaultTarget(std::vector<fault::FaultTarget*> parts);

    std::size_t entry_count() const override { return total_; }
    unsigned entry_bits() const override { return parts_.front()->entry_bits(); }
    bool parity_protected() const override;
    fault::EntryState peek(std::size_t entry) const override;
    void poke(std::size_t entry, const fault::EntryState& state) override;

   private:
    fault::FaultTarget* locate(std::size_t entry, std::size_t& local) const;

    std::vector<fault::FaultTarget*> parts_;
    std::vector<std::size_t> cumulative_;  ///< Exclusive prefix sums of counts.
    std::size_t total_ = 0;
  };

  /// Outputs a shard produced while free-running a step_many window,
  /// stamped with the 0-based cycle offset they appeared at. Shards must
  /// self-drain during the window: the per-cycle collect() normally frees
  /// their output-FIFO slots, and leaving results queued would stall the
  /// shard's credit-gated issue in ways n single steps never would.
  struct StagedOutputs {
    std::vector<std::pair<std::uint64_t, cam::UnitResponse>> responses;
    std::vector<std::pair<std::uint64_t, cam::UnitUpdateAck>> acks;
  };

  /// Splits `request` into subs_ (scratch reused across beats).
  void plan(const cam::UnitRequest& request);
  void pump(unsigned s);
  /// Drains every live shard's outputs, ascending shard order.
  void collect();
  /// Reorder bookkeeping for one shard output that appeared in cycle `cyc`:
  /// scatter into its beat, return the credit, end the sub-op span.
  void land_response(unsigned s, cam::UnitResponse& resp, std::uint64_t cyc);
  void land_ack(unsigned s, const cam::UnitUpdateAck& ack, std::uint64_t cyc);
  void settle();
  void free_run_shard(unsigned s, std::uint64_t n);
  void replay_staged(std::uint64_t c0, std::uint64_t n);

  /// True when shard `s` owes nothing to the reorder buffers and has no
  /// parked sub-requests (and, unless quarantined, its backend is idle).
  bool shard_settled(unsigned s) const;
  /// Throws SimError("<who>: ...") unless shard_settled(s).
  void require_settled(unsigned s, const char* who) const;
  /// Geometry + slot checks shared by restore_shard/rebuild_shard/restore;
  /// then pokes entries and cursors into the shard. Does not touch engine
  /// bookkeeping.
  void apply_snapshot(unsigned s, const fault::ShardSnapshot& snap);
  /// Read-back verification: every peeked entry must equal `want`.
  void verify_shard(unsigned s, const std::vector<fault::EntryState>& want,
                    const char* who) const;
  /// Replaces the shard fleet with `new_count` factory-built backends,
  /// preserving geometry and group configuration, and resizes/rewires every
  /// per-shard structure. Requires empty reorder state.
  void rebuild_fleet(unsigned new_count);
  /// Steps until idle() (settling in-flight work); throws with a debug dump
  /// when `budget` cycles pass first. Returns cycles spent.
  std::uint64_t drain_to_idle(std::uint64_t budget, const char* who);
  /// Clears the quarantine flag and restores the credit line after a
  /// verified rebuild; records the event.
  void readmit_shard(unsigned s, const char* source);
  void push_history(const std::string& what);

  Config cfg_;
  ShardFactory make_shard_;  ///< Rebuilds shards for restore()/reshard().
  std::vector<std::unique_ptr<CamBackend>> shards_;
  std::vector<unsigned> credits_;
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

  /// Per-shard staging for step_many windows (sized once, buffers recycled).
  std::vector<StagedOutputs> staged_;

  std::uint64_t cycles_ = 0;
  std::uint64_t last_completion_cycle_ = 0;
  unsigned effective_threads_ = 1;  ///< After shard/core clamps.
  std::uint64_t quarantine_events_ = 0;  ///< quarantine_shard() calls that
                                         ///< took a live shard out.
  std::uint64_t rebuild_events_ = 0;     ///< Successful rebuild_shard() calls.
  std::uint64_t reshard_events_ = 0;     ///< Successful reshard() calls.
  std::uint64_t reshard_entries_moved_ = 0;  ///< Cumulative across reshards.
  std::uint64_t reshard_pause_cycles_ = 0;   ///< Cumulative settling cycles.
  std::vector<RecoveryEvent> history_;   ///< Quarantine/rebuild/reshard log.

  /// Borrowed span tracer (null = tracing off). Written only from the
  /// serial submit/collect passes.
  telemetry::SpanTracer* tracer_ = nullptr;

  /// Borrowed flight recorder (null = off); lifecycle events only, so it is
  /// written exclusively from the serial control-plane entry points.
  telemetry::FlightRecorder* recorder_ = nullptr;

  /// Workers for parallel shard stepping (null when stepping serially).
  /// Only the embarrassingly-parallel shard->step() fan-out runs on the
  /// pool; pump/collect/reorder stay on the calling thread.
  std::unique_ptr<ThreadPool> pool_;

  /// Recycles search-result vectors: a shard response's vector is released
  /// here after its contents are scattered into the reorder buffer, and
  /// reacquired for the next accepted search beat.
  FreeList<std::vector<cam::UnitSearchResult>> results_pool_;

  /// Recycles ExpectedSearch::positions once their sub-op lands or settles.
  FreeList<std::vector<std::uint32_t>> positions_pool_;

  // Per-beat scratch for plan()/try_submit(), reused so a beat does not
  // rebuild its bucket and sub-request vectors on the heap.
  std::vector<SubRequest> subs_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<unsigned> need_;
};

}  // namespace dspcam::system
