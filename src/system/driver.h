// Host-side driver over any CamBackend.
//
// The cycle-level API (submit / step / poll) is exact but verbose. This
// driver provides two levels above it:
//
//  - An ASYNC core: submit_async() queues a request (retrying FIFO-full
//    backpressure internally - no beat is ever silently dropped or
//    under-counted) and returns a Ticket; poll() advances the clock one
//    cycle; completed operations appear on a completion queue; drain() runs
//    the clock until every outstanding ticket has completed. This is the
//    software equivalent of a user kernel keeping many requests in flight
//    to hit the CAM's II = 1 throughput.
//  - SYNC wrappers (store / search / search_many / search_stream / reset)
//    reimplemented as thin shims over the async core, so existing callers
//    keep their blocking semantics unchanged.
//
// The driver targets the CamBackend interface, so the same host code runs
// against the DSP CamSystem or a ShardedCamEngine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/ring_queue.h"
#include "src/sim/request_trace.h"
#include "src/system/backend.h"
#include "src/system/cam_system.h"

namespace dspcam::telemetry {
class Counter;    // src/telemetry/metrics.h
class Gauge;
class Histogram;
class HealthMonitor;  // src/telemetry/health.h
}  // namespace dspcam::telemetry

namespace dspcam::system {

/// Async-core host driver; owns the clock of one CamBackend.
class CamDriver {
 public:
  /// Identifies one asynchronously submitted operation.
  using Ticket = std::uint64_t;

  /// Default watchdog budget: cycles without forward progress before
  /// drain()/wait_idle()/reset() declare the backend wedged and throw
  /// SimError with a diagnostic dump. Generous: every completed beat resets
  /// the stagnation counter, so only a backend that stops making progress
  /// for this long trips it.
  static constexpr std::uint64_t kDefaultStallBudget = 1u << 20;

  /// A finished operation from the completion queue.
  struct Completion {
    Ticket ticket = 0;
    cam::OpKind op = cam::OpKind::kIdle;
    cam::BeatVec<cam::UnitSearchResult> results;  ///< kSearch only.
    unsigned words_written = 0;                   ///< kUpdate/kInvalidate only.
    bool full = false;                            ///< Backend reported full.
  };

  /// Owns a DSP CamSystem built from `cfg` (the classic deployment).
  explicit CamDriver(const CamSystem::Config& cfg);

  /// Owns an arbitrary backend.
  explicit CamDriver(std::unique_ptr<CamBackend> backend);

  /// Borrows `backend`; the caller keeps ownership and must outlive the
  /// driver. The driver still owns the clock (nobody else may step it).
  explicit CamDriver(CamBackend& backend);

  CamBackend& backend() noexcept { return *backend_; }
  const CamBackend& backend() const noexcept { return *backend_; }

  /// Legacy accessor for CamSystem-backed drivers; throws SimError when the
  /// backend is a different engine.
  CamSystem& system();
  const CamSystem& system() const;

  // --- Async core. ---

  /// Queues a request (kSearch, kUpdate or kInvalidate) and returns its
  /// ticket. The driver owns the sequence space: request.seq is overwritten
  /// with the ticket. Backend backpressure is absorbed by an internal retry
  /// queue, so submission never fails and never drops a beat.
  ///
  /// The request is validated before it enters the queue: a search with no
  /// keys, a key wider than the backend's data width, or an OpKind outside
  /// the enum throws SimError naming the offending field (kReset/kIdle stay
  /// ConfigError - they are legal ops used through the wrong entry point).
  Ticket submit_async(cam::UnitRequest request);

  /// Pops the oldest completion, if any.
  std::optional<Completion> try_pop_completion();

  /// Operations submitted but not yet on the completion queue.
  std::size_t inflight() const noexcept { return inflight_; }

  /// One clock cycle: pump queued submissions, step the backend, harvest
  /// finished responses/acks onto the completion queue.
  void poll();

  /// Polls until every outstanding ticket has completed (completions stay
  /// queued until popped). Throws SimError with a diagnostic dump (inflight
  /// tickets, backend queue/credit state) if the backend makes no progress
  /// for stall_budget() consecutive cycles.
  void drain();

  // --- Watchdog / instrumentation. ---

  /// Overrides the wedge-detection budget (cycles without progress). Tests
  /// use small budgets to fail fast; 0 is rejected with ConfigError.
  void set_stall_budget(std::uint64_t cycles);
  std::uint64_t stall_budget() const noexcept { return stall_budget_; }

  /// Installs a hook invoked once per poll(), after the backend's clock
  /// edge and before completions are harvested. This is where a fault
  /// campaign's injector and scrubber step (src/fault/): the hook runs
  /// between clock edges, so injection order is deterministic. Pass nullptr
  /// to remove.
  void set_cycle_hook(std::function<void()> hook) { cycle_hook_ = std::move(hook); }

  // --- Record / replay (src/sim/request_trace.h). ---

  /// Attaches a request recorder: every ticketed request accepted by
  /// submit_async() is appended (as the caller handed it over, before the
  /// driver stamps its ticket into seq). Borrowed; pass nullptr to detach.
  void set_request_trace(sim::RequestTrace* trace) noexcept {
    request_trace_ = trace;
  }
  sim::RequestTrace* request_trace() const noexcept { return request_trace_; }

  /// Replays trace entries [begin, min(end, size)): submits each in order,
  /// drains until every ticket completes, and appends the completions to
  /// `out`. Recording is suspended during the replay so an attached trace
  /// does not re-capture its own playback. The recovery determinism tests
  /// replay slices around a mid-trace quarantine/rebuild or reshard and
  /// compare streams byte-for-byte.
  void replay_trace(const sim::RequestTrace& trace, sim::CompletionStream& out,
                    std::size_t begin = 0, std::size_t end = SIZE_MAX);

  // --- Telemetry (src/telemetry/). ---

  /// Attaches a metric registry and (optionally) a span tracer. From then on
  /// the driver maintains "driver.*" metrics - submitted/completed counters,
  /// queue-depth / inflight / stall-headroom gauges, and completion-latency
  /// histograms (overall plus search- and update-only) - and republishes the
  /// backend's own telemetry under "engine.*" every `snapshot_every` polled
  /// cycles (plus on publish_telemetry()). The tracer is forwarded to the
  /// backend via set_span_tracer(); sampled tickets record a whole-lifetime
  /// span on track 0 ("driver.tickets") and a backpressure-wait span on
  /// track 1 ("driver.queue"). Both pointers are borrowed and must outlive
  /// the driver; pass nullptr to detach. All telemetry writes happen in
  /// poll() and the publish calls, on the simulated clock. Throws
  /// ConfigError when snapshot_every is zero.
  void attach_telemetry(telemetry::MetricRegistry* registry,
                        telemetry::SpanTracer* tracer = nullptr,
                        std::uint64_t snapshot_every = 1024);

  /// Forces an immediate publication of the driver gauges and the backend's
  /// record_telemetry() snapshot. No-op without an attached registry.
  void publish_telemetry();

  telemetry::MetricRegistry* telemetry_registry() const noexcept { return registry_; }
  telemetry::SpanTracer* span_tracer() const noexcept { return tracer_; }

  // --- Health plane (src/telemetry/health.h, flight_recorder.h). ---

  /// Attaches a health monitor, evaluated at every telemetry publication
  /// (the snapshot cadence plus explicit publish_telemetry() calls), so rule
  /// transitions land on the same simulated cycle in either eval mode.
  /// Requires attach_telemetry
  /// first and a monitor bound to the same registry (ConfigError otherwise);
  /// nullptr detaches. Borrowed.
  void attach_health(telemetry::HealthMonitor* health);
  telemetry::HealthMonitor* health_monitor() const noexcept { return health_; }

  /// Attaches a flight recorder (borrowed; nullptr detaches) and forwards it
  /// to the backend so engine lifecycle events (quarantine, rebuild,
  /// reshard, checkpoint/restore) are captured too. The driver records
  /// watchdog trips and health-rule transitions. When `blackbox_path` is
  /// non-empty, a self-contained black-box dump is written there
  /// automatically the moment the stall watchdog declares the backend
  /// wedged - evidence survives the SimError.
  void attach_flight_recorder(telemetry::FlightRecorder* recorder,
                              std::string blackbox_path = "");
  telemetry::FlightRecorder* flight_recorder() const noexcept { return recorder_; }
  const std::string& blackbox_path() const noexcept { return blackbox_path_; }

  /// Publishes telemetry, then serialises the black box (events + metric
  /// snapshot + recent spans + health states) with `reason`; also writes it
  /// to blackbox_path() when set. Throws ConfigError without a recorder.
  std::string dump_blackbox(const std::string& reason);

  // --- Synchronous wrappers (thin shims over the async core). ---

  /// Stores `words` (splitting into bus beats), waits for all acks, and
  /// returns the number of words actually accepted (capacity permitting).
  /// FIFO-full backpressure mid-batch is retried, never under-counted.
  unsigned store(std::span<const cam::Word> words,
                 std::span<const std::uint64_t> masks = {});

  /// Addressed store at `address` (slot-managed tables); waits for the ack
  /// and returns it.
  cam::UnitUpdateAck store_at(std::uint32_t address, cam::Word value,
                              std::optional<std::uint64_t> mask = std::nullopt);

  /// Invalidates the entry at `address`; waits for the ack.
  void invalidate_at(std::uint32_t address);

  /// Searches one key; blocks until the response arrives.
  cam::UnitSearchResult search(cam::Word key);

  /// Multi-query: searches up to M keys in one beat.
  std::vector<cam::UnitSearchResult> search_many(std::span<const cam::Word> keys);

  /// Batch search with full pipelining: streams one beat per cycle and
  /// returns per-key results in order. Throughput-optimal (II = 1).
  std::vector<cam::UnitSearchResult> search_stream(std::span<const cam::Word> keys);

  /// Clears the CAM contents.
  void reset();

  /// Reconfigures the group count (drains outstanding work first).
  void configure_groups(unsigned m);

  /// Total cycles this driver has clocked (for throughput accounting).
  std::uint64_t cycles() const noexcept { return backend_->stats().cycles; }

 private:
  /// Per-ticket telemetry state, kept only while telemetry is attached.
  struct TicketTrace {
    std::uint64_t submit_cycle = 0;
    std::uint64_t ticket_span = 0;  ///< Track 0 span (0 = unsampled).
    std::uint64_t queue_span = 0;   ///< Track 1 span, ends at backend accept.
    cam::OpKind op = cam::OpKind::kIdle;
    bool live = false;              ///< Submitted and not yet completed.
  };

  /// One harvested operation awaiting its pop. A search's results wait in
  /// results_ instead, so the burst of acks a bulk store leaves queued costs
  /// a few words each, not a beat's worth of result slots.
  struct Finished {
    Ticket ticket = 0;
    cam::OpKind op = cam::OpKind::kIdle;
    unsigned words_written = 0;
    bool full = false;
  };

  /// Offers `request` to the backend; on acceptance closes its queue-wait
  /// span. Returns whether the backend took it.
  bool offer(const cam::UnitRequest& request);
  void pump();
  void harvest();
  void complete(const Finished& f);
  void wait_idle();
  /// Removes queued completion `i` (an index into finished_) and returns it.
  Completion take(std::size_t i);
  Completion take_completion(Ticket ticket);
  [[noreturn]] void throw_wedged(const char* where);
  void note_submitted(Ticket ticket, cam::OpKind op);
  void note_completed(Ticket ticket);
  /// The live trace of `ticket`, or nullptr (submitted untraced, or done).
  TicketTrace* trace_of(Ticket ticket);
  void evaluate_health();

  std::unique_ptr<CamBackend> owned_;
  CamBackend* backend_ = nullptr;

  RingQueue<cam::UnitRequest> submit_queue_;  ///< Refused beats and those behind them.
  RingQueue<cam::OpKind> ack_ops_;            ///< Op kinds of outstanding acks.

  /// Completion FIFO as vector rings: live entries are
  /// [finished_head_, finished_.size()), and the searches among them own
  /// results_[results_head_, ...) in the same order. Once the consumer
  /// catches up a vector is rewound with its capacity intact, so
  /// steady-state harvest/pop cycles touch no allocator (a deque churns
  /// chunk allocations under the same traffic).
  std::vector<Finished> finished_;
  std::size_t finished_head_ = 0;
  std::vector<cam::BeatVec<cam::UnitSearchResult>> results_;
  std::size_t results_head_ = 0;

  std::size_t inflight_ = 0;
  Ticket next_ticket_ = 1;

  /// Ticket window_base_ + i is submitted and not yet harvested iff
  /// outstanding_[i]; the window drops its completed front, so it spans
  /// the oldest outstanding ticket to the newest one.
  RingQueue<char> outstanding_;
  Ticket window_base_ = 1;
  std::uint64_t stall_budget_ = kDefaultStallBudget;
  std::function<void()> cycle_hook_;
  sim::RequestTrace* request_trace_ = nullptr;  ///< Borrowed recorder (null = off).

  // Telemetry (all borrowed; null = off). Metric handles are cached at
  // attach time so per-event updates cost one pointer bump, not a name
  // lookup.
  telemetry::MetricRegistry* registry_ = nullptr;
  telemetry::SpanTracer* tracer_ = nullptr;
  std::uint64_t snapshot_every_ = 1024;
  std::uint64_t polled_cycles_ = 0;  ///< Driver clock: poll() calls so far.
  /// Ticket trace_base_ + i's trace is ticket_traces_[i]: like
  /// outstanding_, the window drops its completed front, so it spans the
  /// oldest traced ticket still in flight to the newest one. It is only
  /// filled while telemetry is attached, so it never allocates otherwise.
  RingQueue<TicketTrace> ticket_traces_;
  Ticket trace_base_ = 1;
  telemetry::Counter* m_submitted_ = nullptr;
  telemetry::Counter* m_completed_ = nullptr;
  telemetry::Histogram* m_latency_ = nullptr;
  telemetry::Histogram* m_search_latency_ = nullptr;
  telemetry::Histogram* m_update_latency_ = nullptr;
  telemetry::Gauge* m_stall_headroom_ = nullptr;

  // Health plane (borrowed; null = off).
  telemetry::HealthMonitor* health_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  std::string blackbox_path_;
  /// Last cycle a completion was harvested or a ticket submitted. Unlike
  /// drain()'s iteration-local stagnation counter, this is a property of the
  /// completion stream alone, so publish_telemetry() can derive the
  /// stall-headroom gauge from it at any cycle.
  std::uint64_t last_progress_cycle_ = 0;
};

}  // namespace dspcam::system
