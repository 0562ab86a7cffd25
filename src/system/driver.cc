#include "src/system/driver.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <utility>

#include "src/common/error.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {

namespace {

// Span-track layout (see telemetry/span.h header comment).
constexpr std::uint64_t kTrackTickets = 0;
constexpr std::uint64_t kTrackQueue = 1;

const char* ticket_span_name(cam::OpKind op) {
  switch (op) {
    case cam::OpKind::kSearch: return "ticket.search";
    case cam::OpKind::kUpdate: return "ticket.update";
    case cam::OpKind::kInvalidate: return "ticket.invalidate";
    default: return "ticket";
  }
}

}  // namespace

CamDriver::CamDriver(const CamSystem::Config& cfg)
    : owned_(std::make_unique<CamSystem>(cfg)), backend_(owned_.get()) {}

CamDriver::CamDriver(std::unique_ptr<CamBackend> backend)
    : owned_(std::move(backend)), backend_(owned_.get()) {
  if (backend_ == nullptr) throw ConfigError("CamDriver: null backend");
}

CamDriver::CamDriver(CamBackend& backend) : backend_(&backend) {}

CamSystem& CamDriver::system() {
  auto* sys = dynamic_cast<CamSystem*>(backend_);
  if (sys == nullptr) {
    throw SimError("CamDriver: backend is not a CamSystem");
  }
  return *sys;
}

const CamSystem& CamDriver::system() const {
  const auto* sys = dynamic_cast<const CamSystem*>(backend_);
  if (sys == nullptr) {
    throw SimError("CamDriver: backend is not a CamSystem");
  }
  return *sys;
}

// --- Async core. ---

CamDriver::Ticket CamDriver::submit_async(cam::UnitRequest request) {
  switch (request.op) {
    case cam::OpKind::kSearch: {
      if (request.keys.empty()) {
        throw SimError(
            "CamDriver::submit_async: search request field 'keys' is empty - "
            "a search beat must carry at least one key");
      }
      const unsigned width = backend_->data_width();
      if (width < 64) {
        for (std::size_t i = 0; i < request.keys.size(); ++i) {
          if ((request.keys[i] >> width) != 0) {
            throw SimError("CamDriver::submit_async: keys[" + std::to_string(i) +
                           "] = " + std::to_string(request.keys[i]) +
                           " does not fit the backend's " + std::to_string(width) +
                           "-bit data width");
          }
        }
      }
      break;
    }
    case cam::OpKind::kUpdate:
    case cam::OpKind::kInvalidate:
      ack_ops_.push_back(request.op);
      break;
    case cam::OpKind::kReset:
    case cam::OpKind::kIdle:
      throw ConfigError(
          "CamDriver::submit_async: only search/update/invalidate take "
          "tickets (use reset())");
    default:
      throw SimError("CamDriver::submit_async: field 'op' holds unknown OpKind value " +
                     std::to_string(static_cast<unsigned>(request.op)));
  }
  // Record after validation (rejected requests never replay) and before the
  // ticket overwrite, so the trace holds the request as the caller shaped it.
  if (request_trace_ != nullptr) request_trace_->record(request);
  const Ticket ticket = next_ticket_++;
  request.seq = ticket;
  ++inflight_;
  last_progress_cycle_ = polled_cycles_;  // fresh work restarts the stall clock
  outstanding_.push_back(1);
  if (registry_ != nullptr || tracer_ != nullptr) note_submitted(ticket, request.op);
  // With nothing queued ahead the beat is offered at once; only a refused
  // one is queued. A beat behind a refused one is not offered: backend
  // acceptance changes only in step(), and poll() pumps before stepping.
  if (submit_queue_.empty() && offer(request)) return ticket;
  submit_queue_.push_back(std::move(request));
  return ticket;
}

std::optional<CamDriver::Completion> CamDriver::try_pop_completion() {
  if (finished_head_ == finished_.size()) return std::nullopt;
  return take(finished_head_);
}

namespace {

/// Drops entry `i` of a vector ring whose live entries start at `head`: the
/// front by advancing `head`, any other by erasing it. Rewinds the ring,
/// capacity intact, once it is empty.
template <typename T>
void drop(std::vector<T>& ring, std::size_t& head, std::size_t i) {
  if (i == head) {
    ++head;
  } else {
    ring.erase(ring.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (head == ring.size()) {
    ring.clear();
    head = 0;
  }
}

}  // namespace

CamDriver::Completion CamDriver::take(std::size_t i) {
  const Finished f = finished_[i];
  Completion c{f.ticket, f.op, {}, f.words_written, f.full};
  if (f.op == cam::OpKind::kSearch) {
    // The searches queued ahead of this one own the result sets ahead of its.
    std::size_t r = results_head_;
    for (std::size_t j = finished_head_; j < i; ++j) r += finished_[j].op == cam::OpKind::kSearch;
    c.results = std::move(results_[r]);
    drop(results_, results_head_, r);
  }
  drop(finished_, finished_head_, i);
  return c;
}

bool CamDriver::offer(const cam::UnitRequest& request) {
  // A copy, so a refused beat stays with the caller for the next try: the
  // payload is inline (cam::BeatVec), so the copy is a memcpy, not an
  // allocation.
  if (!backend_->try_submit(request)) return false;
  if (tracer_ != nullptr) {
    // The beat left the retry path: close its backpressure-wait span.
    TicketTrace* tr = trace_of(request.seq);
    if (tr != nullptr && tr->queue_span != 0) {
      tracer_->end(tr->queue_span, polled_cycles_);
      tr->queue_span = 0;
    }
  }
  return true;
}

void CamDriver::pump() {
  while (!submit_queue_.empty() && offer(submit_queue_.front())) submit_queue_.pop_front();
}

void CamDriver::harvest() {
  const std::size_t before = inflight_;
  while (auto resp = backend_->try_pop_response()) {
    results_.push_back(std::move(resp->results));
    complete({resp->seq, cam::OpKind::kSearch, 0, false});
  }
  while (auto ack = backend_->try_pop_ack()) {
    const cam::OpKind op = ack_ops_.empty() ? cam::OpKind::kUpdate : ack_ops_.front();
    if (!ack_ops_.empty()) ack_ops_.pop_front();
    complete({ack->seq, op, ack->words_written, ack->unit_full});
  }
  if (inflight_ < before) last_progress_cycle_ = polled_cycles_;
}

void CamDriver::complete(const Finished& f) {
  if (f.ticket >= window_base_ && f.ticket - window_base_ < outstanding_.size()) {
    outstanding_[f.ticket - window_base_] = 0;
    while (!outstanding_.empty() && outstanding_.front() == 0) {
      outstanding_.pop_front();
      ++window_base_;
    }
  }
  if (registry_ != nullptr || tracer_ != nullptr) note_completed(f.ticket);
  finished_.push_back(f);
  --inflight_;
}

CamDriver::TicketTrace* CamDriver::trace_of(Ticket ticket) {
  if (ticket < trace_base_ || ticket - trace_base_ >= ticket_traces_.size()) return nullptr;
  TicketTrace& tr = ticket_traces_[ticket - trace_base_];
  return tr.live ? &tr : nullptr;
}

void CamDriver::note_submitted(Ticket ticket, cam::OpKind op) {
  // Tickets are traced in submission order, so each one extends the window,
  // unless telemetry was detached in between: the traces before the gap
  // can no longer drain in order, so they are dropped.
  if (ticket_traces_.empty() || ticket != trace_base_ + ticket_traces_.size()) {
    ticket_traces_.clear();
    trace_base_ = ticket;
  }
  TicketTrace& tr = ticket_traces_.emplace_back();
  tr.submit_cycle = polled_cycles_;
  tr.op = op;
  tr.live = true;
  if (tracer_ != nullptr && tracer_->sampled(ticket)) {
    tr.ticket_span = tracer_->begin(ticket_span_name(op), kTrackTickets, polled_cycles_);
    tracer_->arg(tr.ticket_span, "ticket", ticket);
    tr.queue_span = tracer_->begin("queue.wait", kTrackQueue, polled_cycles_);
    tracer_->arg(tr.queue_span, "ticket", ticket);
  }
  if (m_submitted_ != nullptr) m_submitted_->inc();
}

void CamDriver::note_completed(Ticket ticket) {
  TicketTrace* tr = trace_of(ticket);
  if (tr == nullptr) return;  // submitted before attach
  const std::uint64_t latency = polled_cycles_ - tr->submit_cycle;
  if (m_completed_ != nullptr) m_completed_->inc();
  if (m_latency_ != nullptr) m_latency_->record(latency);
  if (tr->op == cam::OpKind::kSearch) {
    if (m_search_latency_ != nullptr) m_search_latency_->record(latency);
  } else if (m_update_latency_ != nullptr) {
    m_update_latency_->record(latency);
  }
  if (tracer_ != nullptr) {
    if (tr->queue_span != 0) tracer_->end(tr->queue_span, polled_cycles_);
    if (tr->ticket_span != 0) {
      tracer_->arg(tr->ticket_span, "latency_cycles", latency);
      tracer_->end(tr->ticket_span, polled_cycles_);
    }
  }
  tr->live = false;
  while (!ticket_traces_.empty() && !ticket_traces_.front().live) {
    ticket_traces_.pop_front();
    ++trace_base_;
  }
}

void CamDriver::attach_telemetry(telemetry::MetricRegistry* registry,
                                 telemetry::SpanTracer* tracer,
                                 std::uint64_t snapshot_every) {
  if (snapshot_every == 0) {
    throw ConfigError(
        "CamDriver::attach_telemetry: snapshot_every must be >= 1 cycle");
  }
  registry_ = registry;
  tracer_ = tracer;
  snapshot_every_ = snapshot_every;
  m_submitted_ = nullptr;
  m_completed_ = nullptr;
  m_latency_ = nullptr;
  m_search_latency_ = nullptr;
  m_update_latency_ = nullptr;
  m_stall_headroom_ = nullptr;
  if (registry_ != nullptr) {
    m_submitted_ = &registry_->counter("driver.submitted");
    m_completed_ = &registry_->counter("driver.completed");
    m_latency_ = &registry_->histogram("driver.latency_cycles");
    m_search_latency_ = &registry_->histogram("driver.search_latency_cycles");
    m_update_latency_ = &registry_->histogram("driver.update_latency_cycles");
    m_stall_headroom_ = &registry_->gauge("driver.stall_headroom");
    m_stall_headroom_->set(static_cast<std::int64_t>(stall_budget_));
  }
  if (tracer_ != nullptr) {
    tracer_->set_track_name(kTrackTickets, "driver.tickets");
    tracer_->set_track_name(kTrackQueue, "driver.queue");
  }
  backend_->set_span_tracer(tracer_);
}

void CamDriver::publish_telemetry() {
  if (registry_ == nullptr) return;
  registry_->gauge("driver.queue_depth")
      .set(static_cast<std::int64_t>(submit_queue_.size()));
  registry_->gauge("driver.inflight").set(static_cast<std::int64_t>(inflight_));
  if (m_stall_headroom_ != nullptr) {
    // Published headroom derives from last_progress_cycle_, not drain()'s
    // iteration counter, so it is defined outside drain() too.
    const std::uint64_t waited = (inflight_ == 0 && submit_queue_.empty())
                                     ? 0
                                     : polled_cycles_ - last_progress_cycle_;
    m_stall_headroom_->set(static_cast<std::int64_t>(
        stall_budget_ - std::min(stall_budget_, waited)));
  }
  backend_->record_telemetry(*registry_, "engine");
  if (tracer_ != nullptr) {
    tracer_->counter("driver.queue_depth", polled_cycles_,
                     static_cast<std::int64_t>(submit_queue_.size()));
    tracer_->counter("driver.inflight", polled_cycles_,
                     static_cast<std::int64_t>(inflight_));
    backend_->record_counter_tracks(*tracer_, "engine", polled_cycles_);
  }
  evaluate_health();
}

void CamDriver::evaluate_health() {
  if (health_ == nullptr) return;
  for (const auto& t : health_->evaluate(polled_cycles_)) {
    if (recorder_ == nullptr) continue;
    const bool trip = t.to == telemetry::HealthMonitor::State::kTripped;
    const double v = std::max(0.0, t.value);
    recorder_->record(
        polled_cycles_,
        trip ? telemetry::FlightRecorder::EventKind::kHealthTrip
             : telemetry::FlightRecorder::EventKind::kHealthClear,
        trip ? t.severity : telemetry::Severity::kInfo,
        "health rule '" + t.rule + (trip ? "' tripped" : "' cleared"),
        {{"value", static_cast<std::uint64_t>(std::llround(v))}});
  }
}

void CamDriver::attach_health(telemetry::HealthMonitor* health) {
  if (health != nullptr) {
    if (registry_ == nullptr) {
      throw ConfigError(
          "CamDriver::attach_health: attach_telemetry first - health rules "
          "are evaluated against the driver's registry");
    }
    if (&health->registry() != registry_) {
      throw ConfigError(
          "CamDriver::attach_health: monitor is bound to a different "
          "MetricRegistry than the driver's");
    }
  }
  health_ = health;
}

void CamDriver::attach_flight_recorder(telemetry::FlightRecorder* recorder,
                                       std::string blackbox_path) {
  recorder_ = recorder;
  blackbox_path_ = std::move(blackbox_path);
  backend_->set_flight_recorder(recorder);
}

std::string CamDriver::dump_blackbox(const std::string& reason) {
  if (recorder_ == nullptr) {
    throw ConfigError("CamDriver::dump_blackbox: no flight recorder attached");
  }
  publish_telemetry();  // dump carries fresh gauges and health states
  const std::string json =
      recorder_->dump_json(polled_cycles_, reason, registry_, tracer_, health_);
  if (!blackbox_path_.empty()) {
    std::ofstream out(blackbox_path_, std::ios::trunc);
    if (!out) {
      throw ConfigError("CamDriver::dump_blackbox: cannot open " +
                        blackbox_path_);
    }
    out << json << "\n";
  }
  return json;
}

void CamDriver::poll() {
  pump();
  backend_->step();
  ++polled_cycles_;
  // After the clock edge, before harvest: a fault hook sees the post-edge
  // state the next compare will read, and corruption it applies can never
  // race the result collection below.
  if (cycle_hook_) cycle_hook_();
  harvest();
  if (registry_ != nullptr && polled_cycles_ % snapshot_every_ == 0) {
    publish_telemetry();
  }
}

void CamDriver::set_stall_budget(std::uint64_t cycles) {
  if (cycles == 0) {
    throw ConfigError("CamDriver::set_stall_budget: budget must be >= 1 cycle");
  }
  stall_budget_ = cycles;
}

void CamDriver::throw_wedged(const char* where) {
  std::string msg = std::string("CamDriver::") + where +
                    ": backend made no progress for " +
                    std::to_string(stall_budget_) + " cycles (inflight=" +
                    std::to_string(inflight_) + ", submit_queue=" +
                    std::to_string(submit_queue_.size()) + ", tickets=[";
  std::size_t listed = 0;
  for (std::size_t i = 0; i < outstanding_.size(); ++i) {
    if (outstanding_[i] == 0) continue;
    if (listed == 8) {
      msg += "...";
      break;
    }
    if (listed != 0) msg += ",";
    msg += std::to_string(window_base_ + i);
    ++listed;
  }
  msg += "]";
  const std::string dump = backend_->debug_dump();
  if (!dump.empty()) msg += ", backend=" + dump;
  msg += ")";
  // Preserve the evidence before the exception unwinds the run: a final
  // health evaluation (so the stall rule's trip is in the dump), the
  // watchdog event itself, and - when a black-box path is configured - the
  // dump file. Dump failures must not mask the wedge diagnosis.
  if (m_stall_headroom_ != nullptr) m_stall_headroom_->set(0);
  evaluate_health();
  if (recorder_ != nullptr) {
    recorder_->record(polled_cycles_,
                      telemetry::FlightRecorder::EventKind::kWatchdogTrip,
                      telemetry::Severity::kCritical,
                      std::string("watchdog: no progress in ") + where,
                      {{"inflight", inflight_},
                       {"queued", submit_queue_.size()},
                       {"stall_budget", stall_budget_}});
    if (!blackbox_path_.empty()) {
      try {
        recorder_->write_dump(blackbox_path_, polled_cycles_, msg, registry_,
                              tracer_, health_);
      } catch (...) {
      }
    }
  }
  throw SimError(msg);
}

void CamDriver::drain() {
  std::uint64_t stagnant = 0;
  while (inflight_ > 0) {
    const std::size_t before = inflight_;
    poll();
    stagnant = inflight_ < before ? 0 : stagnant + 1;
    if (m_stall_headroom_ != nullptr) {
      m_stall_headroom_->set(static_cast<std::int64_t>(stall_budget_ - stagnant));
    }
    if (stagnant > stall_budget_) throw_wedged("drain");
  }
}

void CamDriver::replay_trace(const sim::RequestTrace& trace,
                             sim::CompletionStream& out, std::size_t begin,
                             std::size_t end) {
  sim::RequestTrace* recorder = request_trace_;
  request_trace_ = nullptr;  // never re-record a playback
  const std::size_t hi = std::min(end, trace.size());
  for (std::size_t i = begin; i < hi; ++i) {
    submit_async(trace.requests()[i]);
  }
  request_trace_ = recorder;  // only submit_async records; safe to re-attach
  drain();
  while (auto c = try_pop_completion()) {
    sim::CompletionStream::Record rec;
    rec.ticket = c->ticket;
    rec.op = static_cast<unsigned>(c->op);
    rec.words_written = c->words_written;
    rec.full = c->full;
    rec.results = std::move(c->results);
    out.add(std::move(rec));
  }
}

void CamDriver::wait_idle() {
  std::uint64_t guard = 0;
  while (!submit_queue_.empty() || !backend_->idle()) {
    poll();
    ++guard;
    if (m_stall_headroom_ != nullptr) {
      m_stall_headroom_->set(static_cast<std::int64_t>(stall_budget_ - guard));
    }
    if (guard > stall_budget_) throw_wedged("wait_idle");
  }
}

CamDriver::Completion CamDriver::take_completion(Ticket ticket) {
  for (std::size_t i = finished_head_; i < finished_.size(); ++i) {
    if (finished_[i].ticket == ticket) return take(i);
  }
  throw SimError("CamDriver: completion not found for ticket");
}

// --- Synchronous wrappers. ---

unsigned CamDriver::store(std::span<const cam::Word> words,
                          std::span<const std::uint64_t> masks) {
  if (!masks.empty() && masks.size() != words.size()) {
    throw ConfigError("CamDriver::store: mask array must parallel the words");
  }
  const unsigned per_beat = std::max(1u, backend_->words_per_beat());
  const Ticket first = next_ticket_;  // the beats take consecutive tickets
  std::size_t pos = 0;
  while (pos < words.size()) {
    const std::size_t n = std::min<std::size_t>(per_beat, words.size() - pos);
    cam::UnitRequest req;
    req.op = cam::OpKind::kUpdate;
    req.words.assign(words.begin() + pos, words.begin() + pos + n);
    if (!masks.empty()) {
      req.masks.assign(masks.begin() + pos, masks.begin() + pos + n);
    }
    submit_async(std::move(req));
    pos += n;
  }
  const Ticket end = next_ticket_;
  drain();
  unsigned accepted = 0;
  for (Ticket t = first; t < end; ++t) accepted += take_completion(t).words_written;
  return accepted;
}

cam::UnitUpdateAck CamDriver::store_at(std::uint32_t address, cam::Word value,
                                       std::optional<std::uint64_t> mask) {
  cam::UnitRequest req;
  req.op = cam::OpKind::kUpdate;
  req.words = {value};
  if (mask.has_value()) req.masks = {*mask};
  req.address = address;
  const Ticket t = submit_async(std::move(req));
  drain();
  const Completion c = take_completion(t);
  cam::UnitUpdateAck ack;
  ack.seq = c.ticket;
  ack.words_written = c.words_written;
  ack.unit_full = c.full;
  return ack;
}

void CamDriver::invalidate_at(std::uint32_t address) {
  cam::UnitRequest req;
  req.op = cam::OpKind::kInvalidate;
  req.address = address;
  const Ticket t = submit_async(std::move(req));
  drain();
  take_completion(t);
}

cam::UnitSearchResult CamDriver::search(cam::Word key) {
  return search_many(std::span<const cam::Word>(&key, 1)).front();
}

std::vector<cam::UnitSearchResult> CamDriver::search_many(
    std::span<const cam::Word> keys) {
  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.keys.assign(keys.begin(), keys.end());
  const Ticket t = submit_async(std::move(req));
  drain();
  const Completion c = take_completion(t);
  return {c.results.begin(), c.results.end()};
}

std::vector<cam::UnitSearchResult> CamDriver::search_stream(
    std::span<const cam::Word> keys) {
  std::vector<Ticket> tickets;
  tickets.reserve(keys.size());
  for (const cam::Word key : keys) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {key};
    tickets.push_back(submit_async(std::move(req)));
  }
  drain();
  std::vector<cam::UnitSearchResult> out;
  out.reserve(keys.size());
  for (const Ticket t : tickets) out.push_back(take_completion(t).results.front());
  return out;
}

void CamDriver::reset() {
  drain();  // Outstanding tickets complete before the wipe.
  cam::UnitRequest req;
  req.op = cam::OpKind::kReset;
  std::uint64_t guard = 0;
  while (!backend_->try_submit(req)) {
    poll();
    if (++guard > stall_budget_) throw_wedged("reset");
  }
  wait_idle();
}

void CamDriver::configure_groups(unsigned m) {
  drain();
  wait_idle();
  backend_->configure_groups(m);
}

}  // namespace dspcam::system
