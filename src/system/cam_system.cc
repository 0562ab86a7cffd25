#include "src/system/cam_system.h"

#include <cstdio>
#include <span>

#include "src/common/error.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {

CamSystem::CamSystem(const Config& cfg)
    : cfg_(cfg),
      unit_(cfg.unit),
      request_fifo_(cfg.request_fifo_depth),
      response_fifo_(cfg.response_fifo_depth),
      ack_fifo_(cfg.ack_fifo_depth) {}

bool CamSystem::try_submit(cam::UnitRequest request) {
  if (request_fifo_.full()) return false;
  request_fifo_.push(std::move(request));
  return true;
}

std::optional<cam::UnitResponse> CamSystem::try_pop_response() {
  return response_fifo_.try_pop();
}

std::optional<cam::UnitUpdateAck> CamSystem::try_pop_ack() { return ack_fifo_.try_pop(); }

void CamSystem::eval() {
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
      if (front.op == cam::OpKind::kSearch) ++searches_in_flight_;
      if (acks) ++updates_in_flight_;
      unit_.issue(request_fifo_.pop());
      ++stats_.issued;
    } else {
      ++stats_.stall_cycles;
    }
  }
  unit_.eval();
}

// Space was reserved at issue time, so these pushes cannot overflow.
void CamSystem::drain_outputs() {
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
  unit_.flush_pipelines();
}

std::vector<fault::EntryState> CamSystem::logical_entries() {
  // Every group holds a full replica, so group 0's copy in fill order IS the
  // logical contents: address a lives in block ids[a / bs], cell a % bs.
  const unsigned bs = cfg_.unit.block.block_size;
  const std::span<const unsigned> ids = unit_.routing().blocks_of(0);
  std::vector<fault::EntryState> entries;
  entries.reserve(capacity());
  for (unsigned a = 0; a < capacity(); ++a) {
    entries.push_back(unit_.entry(static_cast<std::size_t>(ids[a / bs]) * bs + a % bs));
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
      .set(cfg_.unit.eval_mode == cam::EvalMode::kFast ? 1 : 0);
  // Kernel-as-label gauge: one child per kernel name so bench_diff /
  // dashboards can attribute a perf shift to a kernel change without
  // maintaining a name <-> id mapping ("...kernel.generic_avx2" = 1).
  registry.gauge(prefix + ".kernel." + unit_.match_kernel_name()).set(1);
}

void CamSystem::record_counter_tracks(telemetry::SpanTracer& tracer,
                                      const std::string& prefix,
                                      std::uint64_t cycle) const {
  tracer.counter(prefix + ".queue_depth", cycle,
                 static_cast<std::int64_t>(request_fifo_.size()));
  tracer.counter(prefix + ".active_blocks", cycle,
                 static_cast<std::int64_t>(unit_.active_block_count()));
}

std::string CamSystem::debug_dump() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "CamSystem{req_fifo=%zu/%zu resp_fifo=%zu/%zu ack_fifo=%zu/%zu "
                "searches_in_flight=%zu updates_in_flight=%zu unit_idle=%d "
                "kernel=%s}",
                request_fifo_.size(), request_fifo_.capacity(), response_fifo_.size(),
                response_fifo_.capacity(), ack_fifo_.size(), ack_fifo_.capacity(),
                searches_in_flight_, updates_in_flight_, unit_.idle() ? 1 : 0,
                unit_.match_kernel_name().c_str());
  return buf;
}

}  // namespace dspcam::system
