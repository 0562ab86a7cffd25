#include "src/system/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/cam/types.h"
#include "src/common/error.h"
#include "src/fault/scrubber.h"
#include "src/system/driver.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {

namespace {

// Span-track layout (see telemetry/span.h header comment): engine beats on
// track 2, per-shard sub-operations on 16 + shard.
constexpr std::uint64_t kTrackEngineBeats = 2;
constexpr std::uint64_t kTrackShardBase = 16;

/// try_submit(): set in a value's route entry when it opens a sub-request.
constexpr std::uint32_t kOpens = 1u << 31;

}  // namespace

void ShardedCamEngine::Config::validate() const {
  if (shards == 0) throw ConfigError("ShardedCamEngine: need >= 1 shard");
  if (key_bits == 0 || key_bits > 64) {
    throw ConfigError("ShardedCamEngine: key_bits must be 1..64");
  }
  if (credits_per_shard == 0) {
    throw ConfigError("ShardedCamEngine: need >= 1 credit per shard");
  }
  if (step_threads != 1) {
    throw ConfigError("ShardedCamEngine: step_threads must be 1 (shards step "
                      "serially)");
  }
}

ShardedCamEngine::ShardedCamEngine(const Config& cfg, const ShardFactory& make_shard)
    : cfg_(cfg), make_shard_(make_shard) {
  cfg_.validate();
  install_fleet(build_fleet(cfg_.shards));
}

ShardedCamEngine::ShardedCamEngine(const Config& cfg, const CamSystem::Config& shard_cfg)
    // By-value capture: the factory outlives this constructor call (stored as
    // make_shard_ for restore()/reshard() fleet rebuilds).
    : ShardedCamEngine(cfg, ShardFactory([shard_cfg](unsigned) {
        return std::make_unique<CamSystem>(shard_cfg);
      })) {}

unsigned ShardedCamEngine::shard_of(cam::Word key) const {
  return shard_of(key, shard_count());
}

unsigned ShardedCamEngine::shard_of(cam::Word key, unsigned s) const {
  if (s == 1) return 0;
  if (cfg_.partition == Partition::kHash) {
    std::uint64_t x = key;  // splitmix64 finaliser
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    // x % s; a power-of-two fleet takes the low bits, which is the same.
    return static_cast<unsigned>((s & (s - 1)) == 0 ? x & (s - 1) : x % s);
  }
  const std::uint64_t space =
      cfg_.key_bits >= 64 ? ~0ULL : (1ULL << cfg_.key_bits);
  const std::uint64_t span = (space + s - 1) / s;
  return static_cast<unsigned>(std::min<std::uint64_t>(key / span, s - 1));
}

unsigned ShardedCamEngine::capacity() const {
  unsigned total = 0;
  for (const auto& shard : shards_) total += shard->capacity();
  return total;
}

unsigned ShardedCamEngine::words_per_beat() const {
  unsigned total = 0;
  for (const auto& shard : shards_) total += shard->words_per_beat();
  return total;
}

unsigned ShardedCamEngine::max_keys_per_beat() const {
  unsigned total = 0;
  for (const auto& shard : shards_) total += shard->max_keys_per_beat();
  return total;
}

unsigned ShardedCamEngine::max_groups() const {
  unsigned m = shards_.front()->max_groups();
  for (const auto& shard : shards_) m = std::min(m, shard->max_groups());
  return m;
}

void ShardedCamEngine::configure_groups(unsigned m) {
  if (!idle()) {
    throw SimError("ShardedCamEngine: configure_groups requires an idle engine");
  }
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;  // out of service; may not even be idle
    shards_[s]->configure_groups(m);
  }
}

unsigned ShardedCamEngine::per_sub(unsigned s, bool search) const {
  const CamBackend& shard = *shards_[s];
  return std::max(1u, search ? shard.max_keys_per_beat() : shard.words_per_beat());
}

bool ShardedCamEngine::try_submit(cam::UnitRequest request) {
  const unsigned s_count = shard_count();
  for (unsigned s = 0; s < s_count; ++s) {  // a settled reset lifts its fence
    if (resetting_[s] && !quarantined_[s] && shards_[s]->idle()) resetting_[s] = 0;
  }
  const cam::OpKind op = request.op;
  const bool search = op == cam::OpKind::kSearch;
  const bool completes =
      search || op == cam::OpKind::kUpdate || op == cam::OpKind::kInvalidate;
  // Searches and appends send each key (word) to the shard it partitions to.
  // Addressed writes and invalidates go to the shard owning the global
  // (range-partitioned) address, and a reset to every shard.
  const bool keyed =
      search || (op == cam::OpKind::kUpdate && !request.address.has_value());
  const cam::BeatVec<cam::Word>& values = search ? request.keys : request.words;
  unsigned target = 0;     // addressed: the shard owning the address,
  std::uint32_t addr = 0;  // the address within it,
  unsigned per_beat = 1;   // and the words per sub-request

  // Route: count each shard's sub-requests straight from the beat. A keyed
  // value opens one when its shard has none open or the open one is full
  // (one key per group, or a bus beat of words); routed_ counts the values.
  routed_.assign(s_count, op == cam::OpKind::kReset ? 1 : 0);
  if (keyed) {
    route_.resize(values.size());
    for (std::uint32_t i = 0; i < values.size(); ++i) {
      const unsigned s = shard_of(values[i]);
      unsigned& n = routed_[s];
      route_[i] = s | (n == 0 || n % per_sub(s, search) == 0 ? kOpens : 0);
      ++n;
    }
  } else if (completes) {
    const unsigned shard_cap = shards_.front()->capacity();
    const std::uint32_t global = request.address.value_or(0);
    target = global / shard_cap;
    if (target >= s_count) {
      throw SimError(op == cam::OpKind::kUpdate
                         ? "ShardedCamEngine: addressed update beyond capacity"
                         : "ShardedCamEngine: invalidate beyond capacity");
    }
    addr = global % shard_cap;
    if (op == cam::OpKind::kUpdate) per_beat = per_sub(target, false);
    routed_[target] = op == cam::OpKind::kInvalidate
                          ? 1
                          : static_cast<unsigned>((request.words.size() + per_beat - 1) / per_beat);
  }

  // Feasibility first: the whole beat is accepted or refused atomically.
  // Sub-requests bound for a quarantined shard never reach it - they are
  // settled below as shard_failed / zero-word results - so only the live
  // shards gate acceptance.
  unsigned live_subs = 0;
  for (unsigned s = 0; s < s_count; ++s) {
    unsigned& need = routed_[s];
    if (need == 0 || quarantined_[s]) continue;
    if (keyed && need > 1) {
      const unsigned per = per_sub(s, search);
      need = (need + per - 1) / per;
    }
    // A reset beat flushes any search still inside the unit pipeline (the
    // hardware produces no result beat for it), which would orphan the
    // engine's completion bookkeeping. The engine therefore fences: a reset
    // waits for the shard's outstanding completions, and fresh work waits
    // for a settling reset.
    const bool owes = !expected_search_[s].empty() || !expected_ack_[s].empty();
    if (!pending_issue_[s].empty() || shards_[s]->request_full() || resetting_[s] ||
        (completes && credits_[s] < need) || (op == cam::OpKind::kReset && owes)) {
      return false;
    }
    live_subs += need;
  }

  // Allocate the reorder-buffer entry. Sampled beats open their dispatch ->
  // reorder-completion span here (serial path; the tracer is lock-free).
  const bool traced = tracer_ != nullptr && tracer_->sampled(request.seq);
  std::uint64_t beat_id = 0;
  if (search) {
    beat_id = search_rob_base_ + search_rob_.size();
    SearchBeat& beat = search_rob_.emplace_back();
    beat.seq = request.seq;
    beat.pending = live_subs;
    beat.ready = cycles_;  // beats settled entirely at submit pop right away
    // Every result slot carries its key from the start: a live shard's
    // response overwrites the slot, quarantine back-fill keeps the key.
    // Keys routed to a quarantined shard settle now: no search happens, the
    // result says so instead of reporting a miss.
    beat.results.resize(request.keys.size());
    for (std::size_t i = 0; i < request.keys.size(); ++i) {
      cam::UnitSearchResult& r = beat.results[i];
      r.key = request.keys[i];
      const unsigned s = route_[i] & ~kOpens;
      if (quarantined_[s]) {
        r.shard = static_cast<std::uint16_t>(s);
        r.shard_failed = true;
      }
    }
    if (traced) {
      beat.span = tracer_->begin("beat.search", kTrackEngineBeats, cycles_);
      tracer_->arg(beat.span, "ticket", request.seq);
      tracer_->arg(beat.span, "keys", request.keys.size());
      tracer_->arg(beat.span, "sub_ops", live_subs);
    }
  } else if (completes) {
    beat_id = ack_rob_base_ + ack_rob_.size();
    AckBeat& beat = ack_rob_.emplace_back();
    beat.seq = request.seq;
    beat.pending = live_subs;
    beat.ready = cycles_;
    beat.ack.seq = request.seq;
    if (traced) {
      beat.span = tracer_->begin(
          op == cam::OpKind::kUpdate ? "beat.update" : "beat.invalidate",
          kTrackEngineBeats, cycles_);
      tracer_->arg(beat.span, "ticket", request.seq);
      tracer_->arg(beat.span, "sub_ops", live_subs);
    }
  }

  // Issue every live sub-request in the order the beat opens them: build it
  // straight from the beat, hand it to its shard, and expect it back (a
  // search's `exp` entry, else an ack), holding a credit until collection.
  const auto expect = [&](unsigned s, ExpectedSearch* exp) {
    std::uint64_t span = telemetry::SpanTracer::kNone;
    if (traced) {
      span = tracer_->begin(exp ? "sub.search" : "sub.update", kTrackShardBase + s, cycles_);
      tracer_->arg(span, "ticket", request.seq);
      tracer_->arg(span, "shard", s);
      if (exp) tracer_->arg(span, "keys", exp->positions.size());
    }
    if (exp) {
      exp->beat_id = beat_id;
      exp->span = span;
    } else {
      expected_ack_[s].push_back({beat_id, span});
    }
    --credits_[s];
  };
  if (keyed) {
    for (std::uint32_t i = 0; i < values.size(); ++i) {
      const unsigned s = route_[i] & ~kOpens;
      if ((route_[i] & kOpens) == 0 || quarantined_[s]) continue;
      // The sub-request opened here takes its shard's next per_sub() values.
      ExpectedSearch* exp = search ? &expected_search_[s].emplace_back() : nullptr;
      const unsigned per = per_sub(s, search);
      issue(s, request, [&](cam::UnitRequest& sub) {
        for (std::uint32_t j = i, n = 0; n < per && j < values.size(); ++j) {
          if ((route_[j] & ~kOpens) != s) continue;
          ++n;
          if (search) {
            sub.keys.push_back(values[j]);
            exp->positions.push_back(j);
          } else {
            sub.words.push_back(values[j]);
            if (j < request.masks.size()) sub.masks.push_back(request.masks[j]);
          }
        }
      });
      expect(s, exp);
    }
  } else if (op == cam::OpKind::kReset) {
    for (unsigned s = 0; s < s_count; ++s) {
      if (quarantined_[s]) continue;
      resetting_[s] = 1;
      issue(s, request, [](cam::UnitRequest&) {});
    }
  } else if (completes && !quarantined_[target]) {  // addressed write, invalidate
    const std::size_t words = op == cam::OpKind::kUpdate ? request.words.size() : 0;
    for (std::size_t lo = 0, k = 0; k < routed_[target]; ++k, lo += per_beat) {
      const std::size_t hi = std::min(words, lo + per_beat);
      issue(target, request, [&](cam::UnitRequest& sub) {
        sub.address = addr + static_cast<std::uint32_t>(lo);
        sub.words.assign(request.words.begin() + lo, request.words.begin() + hi);
        if (lo < request.masks.size()) {
          sub.masks.assign(request.masks.begin() + lo,
                           request.masks.begin() + std::min(hi, request.masks.size()));
        }
      });
      expect(target, nullptr);
    }
  }
  return true;
}

template <typename Fill>
void ShardedCamEngine::issue(unsigned s, const cam::UnitRequest& beat, const Fill& fill) {
  // Built where it lives next: parked, or as the argument the shard takes.
  const auto build = [&](cam::UnitRequest& sub) {
    sub.op = beat.op;
    sub.seq = beat.seq;
    fill(sub);
  };
  if (shards_[s]->request_full()) {
    build(pending_issue_[s].emplace_back());
  } else if (!shards_[s]->try_submit([&] {
               cam::UnitRequest sub;
               build(sub);
               return sub;
             }())) {
    throw SimError("ShardedCamEngine: shard refused despite request_full() == false");
  }
}

void ShardedCamEngine::pump(unsigned s) {
  auto& queue = pending_issue_[s];
  while (!queue.empty() && !shards_[s]->request_full()) {
    if (!shards_[s]->try_submit(std::move(queue.front()))) {
      throw SimError("ShardedCamEngine: shard refused despite request_full() == false");
    }
    queue.pop_front();
  }
}

void ShardedCamEngine::collect() {
  for (unsigned s = 0; s < shard_count(); ++s) {
    // A quarantined shard is owed nothing (stale output stays put); a shard
    // with no output ready costs no pops.
    if (quarantined_[s] || !shards_[s]->has_output()) continue;
    const unsigned base = s * shards_[s]->capacity();  // shard-local -> global
    // Each output lands in its reorder beat, returns its credit and ends its
    // sub-op span.
    while (auto resp = shards_[s]->try_pop_response()) {
      if (expected_search_[s].empty()) {
        throw SimError("ShardedCamEngine: unexpected shard response");
      }
      ExpectedSearch& exp = expected_search_[s].front();
      if (tracer_ != nullptr) tracer_->end(exp.span, cycles_);
      auto& beat = search_rob_.at(exp.beat_id - search_rob_base_);
      for (std::size_t j = 0; j < resp->results.size(); ++j) {
        cam::UnitSearchResult& r = beat.results.at(exp.positions.at(j));
        r = resp->results[j];
        r.shard = static_cast<std::uint16_t>(s);
        r.global_address += base;
      }
      --beat.pending;
      beat.ready = std::max(beat.ready, cycles_ + 1);
      ++credits_[s];
      expected_search_[s].pop_front();
    }
    while (auto ack = shards_[s]->try_pop_ack()) {
      if (expected_ack_[s].empty()) {
        throw SimError("ShardedCamEngine: unexpected shard ack");
      }
      const ExpectedAck exp = expected_ack_[s].front();
      expected_ack_[s].pop_front();
      if (tracer_ != nullptr) tracer_->end(exp.span, cycles_);
      auto& beat = ack_rob_.at(exp.beat_id - ack_rob_base_);
      beat.ack.words_written += ack->words_written;
      beat.ack.unit_full = beat.ack.unit_full || ack->unit_full;
      --beat.pending;
      beat.ready = std::max(beat.ready, cycles_ + 1);
      ++credits_[s];
    }
  }
}

std::optional<cam::UnitResponse> ShardedCamEngine::try_pop_response() {
  if (search_rob_.empty() || search_rob_.front().pending != 0) return std::nullopt;
  SearchBeat& beat = search_rob_.front();
  std::optional<cam::UnitResponse> resp(std::in_place, beat.seq, std::move(beat.results));
  last_completion_cycle_ = beat.ready;
  if (tracer_ != nullptr) tracer_->end(beat.span, cycles_);
  search_rob_.pop_front();
  ++search_rob_base_;
  return resp;
}

std::optional<cam::UnitUpdateAck> ShardedCamEngine::try_pop_ack() {
  if (ack_rob_.empty() || ack_rob_.front().pending != 0) return std::nullopt;
  const AckBeat& beat = ack_rob_.front();
  const cam::UnitUpdateAck ack = beat.ack;
  last_completion_cycle_ = beat.ready;
  if (tracer_ != nullptr) tracer_->end(beat.span, cycles_);
  ack_rob_.pop_front();
  ++ack_rob_base_;
  return ack;
}

bool ShardedCamEngine::request_full() const {
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;
    if (!pending_issue_[s].empty() || shards_[s]->request_full() ||
        credits_[s] == 0 || (resetting_[s] && !shards_[s]->idle())) {
      return true;  // conservative: some target would refuse
    }
  }
  return false;
}

std::size_t ShardedCamEngine::pending_requests() const {
  std::size_t total = 0;
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;
    total += shards_[s]->pending_requests() + pending_issue_[s].size();
  }
  return total;
}

void ShardedCamEngine::step() {
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;
    pump(s);
    shards_[s]->step();
  }
  collect();
  ++cycles_;
}

bool ShardedCamEngine::idle() const {
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;  // frozen; owes the host nothing
    if (!pending_issue_[s].empty() || !shards_[s]->idle()) return false;
  }
  return true;
}

void ShardedCamEngine::quarantine_shard(unsigned s) {
  if (s >= shard_count()) {
    throw ConfigError("ShardedCamEngine::quarantine_shard: no such shard");
  }
  if (quarantined_[s]) return;  // idempotent
  quarantined_[s] = 1;
  ++quarantine_events_;
  push_history("quarantine shard " + std::to_string(s));
  if (recorder_ != nullptr) {
    recorder_->record(cycles_, telemetry::FlightRecorder::EventKind::kQuarantine,
                      telemetry::Severity::kCritical,
                      "quarantine shard " + std::to_string(s),
                      {{"shard", s},
                       {"settled_searches", expected_search_[s].size()},
                       {"settled_acks", expected_ack_[s].size()}});
  }

  // Parked sub-requests never reached the shard: drop them (their beats are
  // settled through the expectation queues below, which cover every
  // accepted-but-incomplete sub-operation regardless of issue state).
  pending_issue_[s].clear();

  // Settle every search sub-operation the shard still owed: its beat
  // positions become shard_failed results, never misses. Each slot still
  // holds the key try_submit wrote there.
  for (ExpectedSearch& exp : expected_search_[s]) {
    if (tracer_ != nullptr) {
      tracer_->arg(exp.span, "quarantined", 1);
      tracer_->end(exp.span, cycles_);
    }
    auto& beat = search_rob_.at(exp.beat_id - search_rob_base_);
    for (const std::uint32_t pos : exp.positions) {
      auto& r = beat.results.at(pos);
      const cam::Word key = r.key;
      r = cam::UnitSearchResult{};
      r.key = key;
      r.shard = static_cast<std::uint16_t>(s);
      r.shard_failed = true;
    }
    --beat.pending;
    beat.ready = std::max(beat.ready, cycles_);
  }
  expected_search_[s].clear();

  // Outstanding acks complete with zero words contributed from this shard.
  for (const ExpectedAck& exp : expected_ack_[s]) {
    if (tracer_ != nullptr) {
      tracer_->arg(exp.span, "quarantined", 1);
      tracer_->end(exp.span, cycles_);
    }
    auto& beat = ack_rob_.at(exp.beat_id - ack_rob_base_);
    --beat.pending;
    beat.ready = std::max(beat.ready, cycles_);
  }
  expected_ack_[s].clear();

  // Full credit line back; a dead shard must not throttle the live ones
  // through request_full()'s conservative any-shard check.
  credits_[s] = cfg_.credits_per_shard;
  resetting_[s] = 0;
}

unsigned ShardedCamEngine::quarantined_count() const noexcept {
  unsigned n = 0;
  for (const char q : quarantined_) n += q != 0;
  return n;
}

// --- Checkpoint / restore / rebuild / reshard. ---

bool ShardedCamEngine::shard_settled(unsigned s) const {
  if (!expected_search_[s].empty() || !expected_ack_[s].empty() ||
      !pending_issue_[s].empty()) {
    return false;
  }
  return quarantined_[s] != 0 || shards_[s]->idle();
}

bool ShardedCamEngine::all_settled() const {
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (!shard_settled(s)) return false;
  }
  return true;
}

void ShardedCamEngine::require_settled(unsigned s, const char* who) const {
  if (!shard_settled(s)) {
    throw SimError(std::string(who) + ": shard " + std::to_string(s) +
                   " still owes in-flight sub-operations - drain the engine "
                   "first; " + debug_dump());
  }
}

void ShardedCamEngine::push_history(const std::string& what) {
  history_.push_back({cycles_, what});
}

fault::ShardSnapshot ShardedCamEngine::snapshot_shard(unsigned s) {
  if (s >= shard_count()) {
    throw ConfigError("ShardedCamEngine::snapshot_shard: no such shard");
  }
  require_settled(s, "ShardedCamEngine::snapshot_shard");
  fault::FaultTarget* target = shards_[s]->fault_target();
  if (target == nullptr) {
    throw SimError(
        "ShardedCamEngine::snapshot_shard: shard exposes no fault target to "
        "read its entries through");
  }
  fault::ShardSnapshot snap;
  snap.shard = s;
  snap.data_width = shards_[s]->data_width();
  snap.cam_kind = cam::to_string(shards_[s]->kind());
  snap.capacity = shards_[s]->capacity();
  fault::snapshot_target(*target, snap);
  snap.cursors = shards_[s]->snapshot_cursors();
  snap.seal();
  return snap;
}

void ShardedCamEngine::check_snapshot(unsigned s, const fault::ShardSnapshot& snap) {
  CamBackend& like = *shards_.front();
  const fault::FaultTarget* target = like.fault_target();
  if (target == nullptr) {
    throw SimError(
        "ShardedCamEngine: shard exposes no fault target to restore through");
  }
  fault::check_restorable(*target, snap);
  if (snap.shard != s) {
    throw SimError("ShardedCamEngine: snapshot was taken from shard " +
                   std::to_string(snap.shard) + ", refusing to load it into slot " +
                   std::to_string(s));
  }
  const std::string want_kind = cam::to_string(like.kind());
  if (snap.data_width != like.data_width() || snap.cam_kind != want_kind ||
      snap.capacity != like.capacity()) {
    throw SimError("ShardedCamEngine: snapshot geometry (" +
                   std::to_string(snap.data_width) + "-bit " + snap.cam_kind +
                   ", capacity " + std::to_string(snap.capacity) +
                   ") does not match shard " + std::to_string(s) + " (" +
                   std::to_string(like.data_width()) + "-bit " + want_kind +
                   ", capacity " + std::to_string(like.capacity()) + ")");
  }
}

void ShardedCamEngine::load_shard(unsigned s, const RebuildSource& src) {
  shards_[s]->purge();
  fault::FaultTarget* target = shards_[s]->fault_target();
  for (std::size_t i = 0; i < src.entries.size(); ++i) target->poke(i, src.entries[i]);
  if (src.cursors != nullptr) shards_[s]->restore_cursors(*src.cursors);
}

void ShardedCamEngine::restore_shard(unsigned s, const fault::ShardSnapshot& snap) {
  if (s >= shard_count()) {
    throw ConfigError("ShardedCamEngine::restore_shard: no such shard");
  }
  if (quarantined_[s]) {
    throw SimError(
        "ShardedCamEngine::restore_shard: shard " + std::to_string(s) +
        " is quarantined; rebuild_shard() is the verified re-admission path");
  }
  require_settled(s, "ShardedCamEngine::restore_shard");
  check_snapshot(s, snap);
  load_shard(s, {snap.entries, &snap.cursors});
}

ShardedCamEngine::EngineCheckpoint ShardedCamEngine::checkpoint() {
  if (!idle() || !search_rob_.empty() || !ack_rob_.empty()) {
    throw SimError(
        "ShardedCamEngine::checkpoint requires an idle engine with both "
        "reorder buffers drained by the host; " + debug_dump());
  }
  EngineCheckpoint ckpt;
  ckpt.shards = shard_count();
  ckpt.partition = cfg_.partition;
  ckpt.key_bits = cfg_.key_bits;
  ckpt.shard_capacity = shards_.front()->capacity();
  ckpt.shard_snaps.reserve(shard_count());
  for (unsigned s = 0; s < shard_count(); ++s) {
    ckpt.shard_snaps.push_back(snapshot_shard(s));
  }
  if (recorder_ != nullptr) {
    recorder_->record(cycles_, telemetry::FlightRecorder::EventKind::kCheckpoint,
                      telemetry::Severity::kInfo, "checkpoint captured",
                      {{"shards", ckpt.shards}});
  }
  return ckpt;
}

void ShardedCamEngine::restore(const EngineCheckpoint& ckpt) {
  if (ckpt.version != EngineCheckpoint::kVersion) {
    throw SimError("ShardedCamEngine::restore: unsupported checkpoint version " +
                   std::to_string(ckpt.version) + " (this build reads version " +
                   std::to_string(EngineCheckpoint::kVersion) + ")");
  }
  if (ckpt.shards == 0 || ckpt.shard_snaps.size() != ckpt.shards) {
    throw SimError("ShardedCamEngine::restore: checkpoint says " +
                   std::to_string(ckpt.shards) + " shards but carries " +
                   std::to_string(ckpt.shard_snaps.size()) + " snapshots");
  }
  if (!idle() || !search_rob_.empty() || !ack_rob_.empty()) {
    throw SimError(
        "ShardedCamEngine::restore requires an idle engine with both reorder "
        "buffers drained by the host; " + debug_dump());
  }
  // Every refusal happens here, before the fleet or any entry changes.
  Config adopted = cfg_;
  adopted.shards = ckpt.shards;
  adopted.partition = ckpt.partition;
  adopted.key_bits = ckpt.key_bits;
  adopted.validate();
  // A rebuilt fleet keeps the current geometry, so its capacity is known now.
  if (shards_.front()->capacity() != ckpt.shard_capacity) {
    throw SimError("ShardedCamEngine::restore: checkpoint assumes shard "
                   "capacity " + std::to_string(ckpt.shard_capacity) +
                   ", this engine's shards hold " +
                   std::to_string(shards_.front()->capacity()));
  }
  for (unsigned s = 0; s < ckpt.shards; ++s) check_snapshot(s, ckpt.shard_snaps[s]);

  if (ckpt.shards != shard_count()) rebuild_fleet(ckpt.shards);
  cfg_ = adopted;
  for (unsigned s = 0; s < shard_count(); ++s) {
    quarantined_[s] = 0;  // every restored shard re-enters service
    resetting_[s] = 0;
    credits_[s] = cfg_.credits_per_shard;
    pending_issue_[s].clear();
    const fault::ShardSnapshot& snap = ckpt.shard_snaps[s];
    load_shard(s, {snap.entries, &snap.cursors});
  }
  push_history("restore checkpoint (" + std::to_string(ckpt.shards) + " shards)");
  if (recorder_ != nullptr) {
    recorder_->record(cycles_, telemetry::FlightRecorder::EventKind::kRestore,
                      telemetry::Severity::kWarn, "restore checkpoint",
                      {{"shards", ckpt.shards}});
  }
}

void ShardedCamEngine::readmit_shard(unsigned s, const char* source) {
  quarantined_[s] = 0;
  credits_[s] = cfg_.credits_per_shard;
  resetting_[s] = 0;
  ++rebuild_events_;
  push_history("rebuild shard " + std::to_string(s) + " (" + source + ")");
  if (recorder_ != nullptr) {
    recorder_->record(cycles_, telemetry::FlightRecorder::EventKind::kRebuild,
                      telemetry::Severity::kInfo,
                      "rebuild shard " + std::to_string(s) + " (" + source +
                          "), verified and readmitted",
                      {{"shard", s}});
  }
  if (tracer_ != nullptr) {
    const std::uint64_t span =
        tracer_->begin("engine.rebuild", kTrackEngineBeats, cycles_);
    tracer_->arg(span, "shard", s);
    tracer_->end(span, cycles_);
  }
}

void ShardedCamEngine::rebuild_from(unsigned s, const char* source_name,
                                    const std::function<RebuildSource()>& source) {
  if (s >= shard_count()) {
    throw ConfigError("ShardedCamEngine::rebuild_shard: no such shard");
  }
  if (!quarantined_[s]) {
    throw SimError("ShardedCamEngine::rebuild_shard: shard " + std::to_string(s) +
                   " is in service; rebuild only re-admits quarantined shards "
                   "(restore_shard overwrites live ones)");
  }
  const RebuildSource src = source();
  load_shard(s, src);  // purge drops the failed shard's crash-stop leftovers
  // Scrub-style read-back: a mismatch leaves the shard quarantined.
  const fault::FaultTarget* target = shards_[s]->fault_target();
  for (std::size_t i = 0; i < src.entries.size(); ++i) {
    if (!(target->peek(i) == src.entries[i])) {
      throw SimError("ShardedCamEngine::rebuild_shard: read-back verification "
                     "failed at entry " + std::to_string(i) + " of shard " +
                     std::to_string(s) + " - the shard stays quarantined");
    }
  }
  readmit_shard(s, source_name);
}

void ShardedCamEngine::rebuild_shard(unsigned s, const fault::ShardSnapshot& snap) {
  rebuild_from(s, "snapshot", [&] {
    check_snapshot(s, snap);
    return RebuildSource{snap.entries, &snap.cursors};
  });
}

void ShardedCamEngine::rebuild_shard(unsigned s, const fault::Scrubber& scrubber) {
  rebuild_from(s, "golden shadow", [&] {
    if (!scrubber.captured()) {
      throw SimError(
          "ShardedCamEngine::rebuild_shard: the scrubber holds no golden shadow "
          "(capture() it before the shard fails)");
    }
    if (fault_target_ == nullptr) {
      throw SimError(
          "ShardedCamEngine::rebuild_shard: engine exposes no composite fault "
          "target to map the golden shadow onto");
    }
    const std::vector<fault::EntryState>& golden = scrubber.golden();
    if (golden.size() != fault_target_->entry_count()) {
      throw SimError("ShardedCamEngine::rebuild_shard: golden shadow covers " +
                     std::to_string(golden.size()) +
                     " entries but the engine's fault window holds " +
                     std::to_string(fault_target_->entry_count()) +
                     " - the scrubber was captured over a different target");
    }
    std::size_t base = 0;  // this shard's offset in the composite window
    for (unsigned i = 0; i < s; ++i) base += shards_[i]->fault_target()->entry_count();
    // Storage plane only: quarantine never corrupts the host-side fill
    // cursors, so the shard keeps its own.
    return RebuildSource{
        std::span(golden).subspan(base, shards_[s]->fault_target()->entry_count()),
        nullptr};
  });
}

std::uint64_t ShardedCamEngine::drain_to_idle(std::uint64_t budget, const char* who) {
  std::uint64_t spent = 0;
  while (!all_settled()) {
    if (spent >= budget) {
      throw SimError(std::string(who) + ": in-flight work failed to settle "
                     "within " + std::to_string(budget) + " cycles; " +
                     debug_dump());
    }
    step();
    ++spent;
  }
  return spent;
}

std::vector<std::unique_ptr<CamBackend>> ShardedCamEngine::build_fleet(
    unsigned count) const {
  if (!make_shard_) throw ConfigError("ShardedCamEngine: no shard factory");
  std::vector<std::unique_ptr<CamBackend>> fleet;
  fleet.reserve(count);
  for (unsigned s = 0; s < count; ++s) {
    auto shard = make_shard_(s);
    if (!shard) throw ConfigError("ShardedCamEngine: factory returned null shard");
    fleet.push_back(std::move(shard));
  }
  return fleet;
}

void ShardedCamEngine::install_fleet(std::vector<std::unique_ptr<CamBackend>> fleet) {
  const CamBackend& like = shards_.empty() ? *fleet.front() : *shards_.front();
  for (const auto& shard : fleet) {
    if (shard->data_width() != like.data_width() || shard->kind() != like.kind() ||
        shard->capacity() != like.capacity()) {
      throw ConfigError("ShardedCamEngine: shards must be homogeneous (same "
                        "data width, kind and capacity)");
    }
  }
  const auto n = static_cast<unsigned>(fleet.size());
  shards_ = std::move(fleet);
  cfg_.shards = n;
  credits_.assign(n, cfg_.credits_per_shard);
  resetting_.assign(n, 0);
  quarantined_.assign(n, 0);
  pending_issue_ = decltype(pending_issue_)(n);
  expected_search_ = decltype(expected_search_)(n);
  expected_ack_ = decltype(expected_ack_)(n);
  // Compose the shards' fault windows when every shard exposes one; a
  // single opaque shard disables injection for the whole engine (a partial
  // window would silently skew campaign statistics).
  fault_target_.reset();
  std::vector<fault::FaultTarget*> parts;
  parts.reserve(n);
  for (auto& shard : shards_) {
    fault::FaultTarget* target = shard->fault_target();
    if (target == nullptr) {
      parts.clear();
      break;
    }
    parts.push_back(target);
  }
  if (!parts.empty()) {
    fault_target_ = std::make_unique<CompositeFaultTarget>(std::move(parts));
  }
  if (tracer_ != nullptr) set_span_tracer(tracer_);  // name the new shard tracks
}

void ShardedCamEngine::rebuild_fleet(unsigned new_count) {
  if (!all_settled()) {
    throw SimError("ShardedCamEngine: internal error - fleet rebuild with "
                   "unsettled shard state");
  }
  // Preserve the grouping the old fleet ran with (configure_groups was
  // broadcast post-construction and the factory knows nothing of it).
  const unsigned groups = shards_.front()->max_keys_per_beat();
  auto fleet = build_fleet(new_count);
  for (auto& shard : fleet) {
    if (shard->max_keys_per_beat() != groups) shard->configure_groups(groups);
  }
  install_fleet(std::move(fleet));
}

ShardedCamEngine::ReshardReport ShardedCamEngine::reshard(unsigned new_shard_count) {
  if (new_shard_count == 0) {
    throw ConfigError("ShardedCamEngine::reshard: need >= 1 shard");
  }
  if (cfg_.partition != Partition::kHash) {
    throw SimError(
        "ShardedCamEngine::reshard currently supports the hash partitioner "
        "only; range re-splitting is a planned follow-on");
  }
  if (quarantined_count() != 0) {
    throw SimError("ShardedCamEngine::reshard: rebuild quarantined shards "
                   "first (" + std::to_string(quarantined_count()) +
                   " out of service)");
  }

  ReshardReport report;
  report.old_shards = shard_count();
  report.new_shards = new_shard_count;

  // Settle: every accepted sub-operation completes into the reorder buffers.
  // Completed beats stay poppable by the host across the reshard; only the
  // shard-side state must quiesce.
  report.pause_cycles = drain_to_idle(1ull << 20, "ShardedCamEngine::reshard");

  // Collect every valid entry in deterministic shard-major, address-minor
  // order. Invalid holes compact away.
  std::vector<fault::EntryState> moving;
  for (unsigned s = 0; s < shard_count(); ++s) {
    for (const fault::EntryState& e : shards_[s]->logical_entries()) {
      if (e.valid) moving.push_back(e);
    }
  }
  report.entries_moved = moving.size();

  // Bucket by the new partitioner and refuse while the old fleet still
  // stands: a new shard that cannot hold its bucket would lose entries.
  std::vector<std::vector<const fault::EntryState*>> buckets(new_shard_count);
  for (const fault::EntryState& e : moving) {
    buckets[shard_of(e.stored, new_shard_count)].push_back(&e);
  }
  const unsigned shard_cap = shards_.front()->capacity();  // rebuilds keep it
  for (unsigned s = 0; s < new_shard_count; ++s) {
    if (buckets[s].size() > shard_cap) {
      throw SimError("ShardedCamEngine::reshard: " +
                     std::to_string(buckets[s].size()) +
                     " entries map to new shard " + std::to_string(s) +
                     ", which holds only " + std::to_string(shard_cap) +
                     " - repartitioning would lose entries");
    }
  }

  rebuild_fleet(new_shard_count);

  // Redistribute through each new shard's own protocol port (a driver's
  // store()), so parity and fill bookkeeping follow the legitimate write
  // path. Per-entry masks only exist off the binary mode (CamUnit refuses
  // masked updates on kBinary).
  const bool masked = kind() != cam::CamKind::kBinary;
  for (unsigned s = 0; s < new_shard_count; ++s) {
    std::vector<cam::Word> words;
    std::vector<std::uint64_t> masks;
    for (const fault::EntryState* e : buckets[s]) {
      words.push_back(e->stored);
      if (masked) masks.push_back(e->mask);
    }
    const unsigned written = CamDriver(*shards_[s]).store(words, masks);
    if (written != words.size()) {
      throw SimError("ShardedCamEngine::reshard: new shard " + std::to_string(s) +
                     " wrote " + std::to_string(written) + " of " +
                     std::to_string(words.size()) +
                     " re-appended words - repartitioning lost entries");
    }
  }

  ++reshard_events_;
  reshard_entries_moved_ += report.entries_moved;
  reshard_pause_cycles_ += report.pause_cycles;
  push_history("reshard " + std::to_string(report.old_shards) + " -> " +
               std::to_string(report.new_shards) + " (" +
               std::to_string(report.entries_moved) + " entries, " +
               std::to_string(report.pause_cycles) + " pause cycles)");
  if (recorder_ != nullptr) {
    recorder_->record(cycles_, telemetry::FlightRecorder::EventKind::kReshard,
                      telemetry::Severity::kWarn,
                      "reshard " + std::to_string(report.old_shards) + " -> " +
                          std::to_string(report.new_shards),
                      {{"old_shards", report.old_shards},
                       {"new_shards", report.new_shards},
                       {"entries_moved", report.entries_moved},
                       {"pause_cycles", report.pause_cycles}});
  }
  if (tracer_ != nullptr) {
    const std::uint64_t span =
        tracer_->begin("engine.reshard", kTrackEngineBeats, cycles_);
    tracer_->arg(span, "old_shards", report.old_shards);
    tracer_->arg(span, "new_shards", report.new_shards);
    tracer_->arg(span, "entries_moved", report.entries_moved);
    tracer_->end(span, cycles_);
  }
  return report;
}

fault::FaultTarget* ShardedCamEngine::fault_target() {
  return fault_target_.get();
}

std::string ShardedCamEngine::debug_dump() const {
  std::string out = "sharded{partition=";
  out += cfg_.partition == Partition::kHash ? "hash" : "range";
  out += " rob: search=" + std::to_string(search_rob_.size()) +
         " ack=" + std::to_string(ack_rob_.size());
  for (unsigned s = 0; s < shard_count(); ++s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "; shard%u: credits=%u parked=%zu exp_search=%zu exp_ack=%zu%s%s",
                  s, credits_[s], pending_issue_[s].size(),
                  expected_search_[s].size(), expected_ack_[s].size(),
                  resetting_[s] ? " RESETTING" : "",
                  quarantined_[s] ? " QUARANTINED" : "");
    out += buf;
    if (fault::FaultTarget* target = shards_[s]->fault_target()) {
      std::size_t valid = 0;
      for (std::size_t e = 0; e < target->entry_count(); ++e) {
        valid += target->peek(e).valid ? 1 : 0;
      }
      out += " occupancy=" + std::to_string(valid) + "/" +
             std::to_string(shards_[s]->capacity());
    }
    const std::string inner = shards_[s]->debug_dump();
    if (!inner.empty()) out += " [" + inner + "]";
  }
  if (!history_.empty()) {
    out += "; history:";
    const std::size_t from = history_.size() > 4 ? history_.size() - 4 : 0;
    for (std::size_t i = from; i < history_.size(); ++i) {
      out += " [@" + std::to_string(history_[i].cycle) + " " +
             history_[i].what + "]";
    }
  }
  out += "}";
  return out;
}

// --- CompositeFaultTarget. ---

ShardedCamEngine::CompositeFaultTarget::CompositeFaultTarget(
    std::vector<fault::FaultTarget*> parts)
    : parts_(std::move(parts)) {
  cumulative_.reserve(parts_.size());
  for (const fault::FaultTarget* part : parts_) {
    cumulative_.push_back(total_);
    total_ += part->entry_count();
  }
}

bool ShardedCamEngine::CompositeFaultTarget::parity_protected() const {
  for (const fault::FaultTarget* part : parts_) {
    if (!part->parity_protected()) return false;
  }
  return true;
}

fault::FaultTarget* ShardedCamEngine::CompositeFaultTarget::locate(
    std::size_t entry, std::size_t& local) const {
  if (entry >= total_) {
    throw SimError("CompositeFaultTarget: entry index out of range");
  }
  std::size_t s = parts_.size() - 1;
  while (cumulative_[s] > entry) --s;
  local = entry - cumulative_[s];
  return parts_[s];
}

fault::EntryState ShardedCamEngine::CompositeFaultTarget::peek(
    std::size_t entry) const {
  std::size_t local = 0;
  return locate(entry, local)->peek(local);
}

void ShardedCamEngine::CompositeFaultTarget::poke(std::size_t entry,
                                                  const fault::EntryState& state) {
  std::size_t local = 0;
  locate(entry, local)->poke(local, state);
}

void ShardedCamEngine::record_telemetry(telemetry::MetricRegistry& registry,
                                        const std::string& prefix) const {
  CamBackend::record_telemetry(registry, prefix);
  registry.gauge(prefix + ".rob.search_depth")
      .set(static_cast<std::int64_t>(search_rob_.size()));
  registry.gauge(prefix + ".rob.ack_depth")
      .set(static_cast<std::int64_t>(ack_rob_.size()));
  registry.counter(prefix + ".quarantine_events").update_to(quarantine_events_);
  registry.gauge(prefix + ".quarantined_shards")
      .set(static_cast<std::int64_t>(quarantined_count()));
  registry.counter(prefix + ".rebuild_events").update_to(rebuild_events_);
  registry.counter(prefix + ".reshard_events").update_to(reshard_events_);
  registry.counter(prefix + ".reshard.entries_moved")
      .update_to(reshard_entries_moved_);
  registry.counter(prefix + ".reshard.pause_cycles")
      .update_to(reshard_pause_cycles_);
  for (unsigned s = 0; s < shard_count(); ++s) {
    const std::string sp = prefix + ".shard" + std::to_string(s);
    registry.gauge(sp + ".credits").set(static_cast<std::int64_t>(credits_[s]));
    registry.gauge(sp + ".parked")
        .set(static_cast<std::int64_t>(pending_issue_[s].size()));
    registry.gauge(sp + ".expected_search")
        .set(static_cast<std::int64_t>(expected_search_[s].size()));
    registry.gauge(sp + ".expected_ack")
        .set(static_cast<std::int64_t>(expected_ack_[s].size()));
    registry.gauge(sp + ".quarantined").set(quarantined_[s] != 0 ? 1 : 0);
    shards_[s]->record_telemetry(registry, sp);
  }
}

void ShardedCamEngine::set_span_tracer(telemetry::SpanTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    tracer_->set_track_name(kTrackEngineBeats, "engine.beats");
    for (unsigned s = 0; s < shard_count(); ++s) {
      tracer_->set_track_name(kTrackShardBase + s, "shard" + std::to_string(s));
    }
  }
}

void ShardedCamEngine::set_flight_recorder(
    telemetry::FlightRecorder* recorder) {
  recorder_ = recorder;
}

void ShardedCamEngine::record_counter_tracks(telemetry::SpanTracer& tracer,
                                             const std::string& prefix,
                                             std::uint64_t cycle) const {
  tracer.counter(prefix + ".rob.search_depth", cycle,
                 static_cast<std::int64_t>(search_rob_.size()));
  for (unsigned s = 0; s < shard_count(); ++s) {
    const std::string sp = prefix + ".shard" + std::to_string(s);
    tracer.counter(sp + ".parked", cycle,
                   static_cast<std::int64_t>(pending_issue_[s].size()));
    tracer.counter(sp + ".credits_used", cycle,
                   static_cast<std::int64_t>(cfg_.credits_per_shard) -
                       static_cast<std::int64_t>(credits_[s]));
    shards_[s]->record_counter_tracks(tracer, sp, cycle);
  }
}

CamBackend::Stats ShardedCamEngine::stats() const {
  Stats agg;
  for (const auto& shard : shards_) agg += shard->stats();
  agg.cycles = cycles_;
  return agg;
}

model::ResourceUsage ShardedCamEngine::resources() const {
  model::ResourceUsage total;
  for (const auto& shard : shards_) total += shard->resources();
  if (shard_count() > 1) {
    // First-order steering overhead: the partitioner (hash finaliser or
    // range comparators) plus the per-shard issue/collect mux stages.
    total.luts += shard_count() * 2ULL * data_width();
    total.ffs += shard_count() * static_cast<std::uint64_t>(data_width());
  }
  return total;
}

}  // namespace dspcam::system
