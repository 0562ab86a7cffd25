#include "src/system/cam_system.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/cam/match_kernel.h"
#include "src/common/error.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {

namespace {

// Effective fusion width: config value, overridden by DSPCAM_FUSION_MAX_KEYS
// (read once, at construction - same lifecycle as the kernel selection),
// clamped to [1, kMaxFusionKeys]. The reference path always runs at 1: its
// per-cell DSP models have no packed arrays to sweep.
std::size_t resolve_fusion_width(const CamSystem::Config& cfg) {
  if (cfg.unit.block.eval_mode != cam::EvalMode::kFast) return 1;
  std::size_t width = cfg.fusion_max_keys;
  if (const char* v = std::getenv("DSPCAM_FUSION_MAX_KEYS")) {
    if (*v != '\0') {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v, &end, 10);
      if (end != v && *end == '\0') width = parsed;
    }
  }
  return std::clamp<std::size_t>(width, 1, cam::kMaxFusionKeys);
}

}  // namespace

CamSystem::CamSystem(const Config& cfg)
    : cfg_(cfg),
      unit_(cfg.unit),
      request_fifo_(cfg.request_fifo_depth),
      response_fifo_(cfg.response_fifo_depth),
      ack_fifo_(cfg.ack_fifo_depth),
      fusion_width_(resolve_fusion_width(cfg)) {}

bool CamSystem::try_submit(cam::UnitRequest request) {
  if (request_fifo_.full()) return false;
  request_fifo_.push(std::move(request));
  return true;
}

std::optional<cam::UnitResponse> CamSystem::try_pop_response() {
  if (response_fifo_.empty()) return std::nullopt;
  return response_fifo_.pop();
}

std::optional<cam::UnitUpdateAck> CamSystem::try_pop_ack() {
  if (ack_fifo_.empty()) return std::nullopt;
  return ack_fifo_.pop();
}

// Write-barrier-delimited fusion scan: group the FIFO's leading run of
// consecutive search requests (a write-class request - update, invalidate,
// reset - closes the batch) and sweep each block's packed arrays ONCE for
// all their keys, staging per-key match bits for the compares that will
// retire them. Byte-identity with per-cycle evaluation is structural, not
// scheduled: staged bits are a pure function of (key, arrays), every array
// mutation drops them, and a consumer only uses a record whose key equals
// the compare it is retiring (block.cc). The write-quiescence and capacity
// checks below are performance filters - skipping a scan is always sound.
void CamSystem::maybe_stage_fusion() {
  if (fusion_width_ <= 1 || fused_prefix_ != 0 || request_fifo_.empty()) return;
  const cam::UnitRequest* beats[cam::kMaxFusionKeys];
  std::size_t n = 0;
  for (const cam::UnitRequest& req : request_fifo_) {
    if (n >= fusion_width_) break;
    if (req.op != cam::OpKind::kSearch) break;  // write barrier closes the batch
    beats[n++] = &req;
  }
  if (n < 2) return;  // a batch of one gains nothing over the plain path
  if (!unit_.write_quiescent() || !unit_.can_stage_fused(beats, n)) return;
  unit_.stage_fused_searches(beats, n);
  fused_prefix_ = n;
  fusion_occupancy_.record(n);
}

void CamSystem::eval() {
  maybe_stage_fusion();
  // Pop at most one request per cycle into the unit, but only when its
  // eventual result has guaranteed FIFO space once it pops out - the unit
  // pipeline cannot stall, so credit must be reserved at issue time.
  if (!request_fifo_.empty() && unit_.can_accept()) {
    const auto& front = request_fifo_.front();
    bool ok = true;
    const bool acks = front.op == cam::OpKind::kUpdate ||
                      front.op == cam::OpKind::kInvalidate;
    if (front.op == cam::OpKind::kSearch) {
      ok = searches_in_flight_ + response_fifo_.size() < response_fifo_.capacity();
    } else if (acks) {
      ok = updates_in_flight_ + ack_fifo_.size() < ack_fifo_.capacity();
    }
    if (ok) {
      cam::UnitRequest req = request_fifo_.pop();
      if (req.op == cam::OpKind::kSearch) {
        ++searches_in_flight_;
        if (fused_prefix_ > 0) --fused_prefix_;
      }
      if (req.op == cam::OpKind::kUpdate || req.op == cam::OpKind::kInvalidate) {
        ++updates_in_flight_;
      }
      // Every write-class request is a fusion barrier: one event per pop,
      // so the counter reads "how often a write delimited the stream".
      if (req.op != cam::OpKind::kSearch && fusion_width_ > 1) ++barrier_breaks_;
      unit_.issue(std::move(req));
      ++stats_.issued;
    } else {
      ++stats_.stall_cycles;
    }
  }
  unit_.eval();
}

void CamSystem::commit() {
  // Activity gating: a quiescent unit's clock edge is provably a no-op
  // (Component::quiescent contract), so skip the walk entirely. Simulated
  // time still advances.
  if (!unit_.quiescent()) {
    unit_.commit();
  } else {
    ++stats_.gated_cycles;
  }
  ++stats_.cycles;

  // Drain the unit's registered outputs into the interface FIFOs. Space was
  // reserved at issue time, so these pushes cannot overflow.
  if (unit_.response().has_value()) {
    for (const auto& r : unit_.response()->results) {
      if (r.parity_error) ++stats_.parity_flagged;
      if (r.hit) ++stats_.hits;
      ++stats_.keys_searched;
    }
    response_fifo_.push(*unit_.response());
    --searches_in_flight_;
    ++stats_.responses;
  }
  if (unit_.update_ack().has_value()) {
    ack_fifo_.push(*unit_.update_ack());
    --updates_in_flight_;
    ++stats_.acks;
  }
}

void CamSystem::purge() {
  // Crash-stop semantics: everything queued or in flight is dropped on the
  // floor (no responses, no acks), but the registered storage plane and the
  // fill cursors survive - exactly the state a snapshot captures and a
  // rebuild restores. Credits track in-flight work only, so they reset
  // with it; stats_.cycles keeps counting (time is not state).
  request_fifo_.clear();
  response_fifo_.clear();
  ack_fifo_.clear();
  searches_in_flight_ = 0;
  updates_in_flight_ = 0;
  fused_prefix_ = 0;
  unit_.flush_pipelines();
}

std::vector<fault::EntryState> CamSystem::logical_entries() {
  // Every group holds a full replica, so group 0's copy in fill order IS the
  // logical contents: address a lives in block ids[a / bs], cell a % bs.
  const unsigned bs = cfg_.unit.block.block_size;
  const auto& ids = unit_.routing().blocks_of(0);
  std::vector<fault::EntryState> entries;
  entries.reserve(capacity());
  for (unsigned a = 0; a < capacity(); ++a) {
    entries.push_back(unit_.entry(static_cast<std::size_t>(ids.at(a / bs)) * bs + a % bs));
  }
  return entries;
}

void CamSystem::configure_groups(unsigned m) {
  if (!idle()) {
    throw SimError("CamSystem: configure_groups requires an idle system");
  }
  unit_.configure_groups(m);
}

model::ResourceUsage CamSystem::resources() const {
  return model::system_resources(cfg_.unit);
}

void CamSystem::record_telemetry(telemetry::MetricRegistry& registry,
                                 const std::string& prefix) const {
  CamBackend::record_telemetry(registry, prefix);
  registry.gauge(prefix + ".request_fifo_depth")
      .set(static_cast<std::int64_t>(request_fifo_.size()));
  registry.gauge(prefix + ".response_fifo_depth")
      .set(static_cast<std::int64_t>(response_fifo_.size()));
  registry.gauge(prefix + ".ack_fifo_depth")
      .set(static_cast<std::int64_t>(ack_fifo_.size()));
  registry.gauge(prefix + ".searches_in_flight")
      .set(static_cast<std::int64_t>(searches_in_flight_));
  registry.gauge(prefix + ".updates_in_flight")
      .set(static_cast<std::int64_t>(updates_in_flight_));
  registry.gauge(prefix + ".stored_entries")
      .set(static_cast<std::int64_t>(unit_.stored_per_group()));
  registry.gauge(prefix + ".fast_mode")
      .set(cfg_.unit.block.eval_mode == cam::EvalMode::kFast ? 1 : 0);
  // Kernel-as-label gauge: one child per kernel name so bench_diff /
  // dashboards can attribute a perf shift to a kernel change without
  // maintaining a name <-> id mapping ("...kernel.eq32_avx2" = 1).
  registry.gauge(prefix + ".kernel." + unit_.match_kernel_name()).set(1);
  // Fusion plane (pull model: counters/histogram owned here and in the
  // blocks, republished idempotently).
  registry.gauge(prefix + ".fusion.width")
      .set(static_cast<std::int64_t>(fusion_width_));
  registry.counter(prefix + ".fusion.staged").update_to(unit_.fused_staged());
  registry.counter(prefix + ".fusion.hits").update_to(unit_.fused_hits());
  registry.counter(prefix + ".fusion.discards").update_to(unit_.fused_discards());
  registry.counter(prefix + ".fusion.barrier_breaks").update_to(barrier_breaks_);
  registry.histogram(prefix + ".fusion.batch_occupancy").update_to(fusion_occupancy_);
}

void CamSystem::record_counter_tracks(telemetry::SpanTracer& tracer,
                                      const std::string& prefix,
                                      std::uint64_t cycle) const {
  tracer.counter(prefix + ".queue_depth", cycle,
                 static_cast<std::int64_t>(request_fifo_.size()));
  tracer.counter(prefix + ".active_blocks", cycle,
                 static_cast<std::int64_t>(unit_.active_block_count()));
  tracer.counter(prefix + ".fusion.batch", cycle,
                 static_cast<std::int64_t>(fused_prefix_));
}

std::string CamSystem::debug_dump() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "CamSystem{req_fifo=%zu/%zu resp_fifo=%zu/%zu ack_fifo=%zu/%zu "
                "searches_in_flight=%zu updates_in_flight=%zu unit_idle=%d "
                "kernel=%s fusion_width=%zu fused_prefix=%zu}",
                request_fifo_.size(), request_fifo_.capacity(), response_fifo_.size(),
                response_fifo_.capacity(), ack_fifo_.size(), ack_fifo_.capacity(),
                searches_in_flight_, updates_in_flight_, unit_.idle() ? 1 : 0,
                unit_.match_kernel_name().c_str(), fusion_width_, fused_prefix_);
  return buf;
}

}  // namespace dspcam::system
