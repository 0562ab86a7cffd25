#include "src/system/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/cam/types.h"
#include "src/common/error.h"
#include "src/fault/scrubber.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {

namespace {

// Span-track layout (see telemetry/span.h header comment): engine beats on
// track 2, per-shard sub-operations on 16 + shard.
constexpr std::uint64_t kTrackEngineBeats = 2;
constexpr std::uint64_t kTrackShardBase = 16;

}  // namespace

void ShardedCamEngine::Config::validate() const {
  if (shards == 0) throw ConfigError("ShardedCamEngine: need >= 1 shard");
  if (key_bits == 0 || key_bits > 64) {
    throw ConfigError("ShardedCamEngine: key_bits must be 1..64");
  }
  if (credits_per_shard == 0) {
    throw ConfigError("ShardedCamEngine: need >= 1 credit per shard");
  }
}

ShardedCamEngine::ShardedCamEngine(const Config& cfg, const ShardFactory& make_shard)
    : cfg_(cfg), make_shard_(make_shard) {
  cfg_.validate();
  shards_.reserve(cfg_.shards);
  for (unsigned s = 0; s < cfg_.shards; ++s) {
    auto shard = make_shard(s);
    if (!shard) throw ConfigError("ShardedCamEngine: factory returned null shard");
    shards_.push_back(std::move(shard));
  }
  const auto& first = *shards_.front();
  for (const auto& shard : shards_) {
    if (shard->data_width() != first.data_width() || shard->kind() != first.kind() ||
        shard->capacity() != first.capacity()) {
      throw ConfigError("ShardedCamEngine: shards must be homogeneous");
    }
  }
  credits_.assign(cfg_.shards, cfg_.credits_per_shard);
  resetting_.assign(cfg_.shards, 0);
  quarantined_.assign(cfg_.shards, 0);
  pending_issue_.resize(cfg_.shards);
  expected_search_.resize(cfg_.shards);
  expected_ack_.resize(cfg_.shards);
  staged_.resize(cfg_.shards);
  // Compose the shards' fault windows when every shard exposes one; a
  // single opaque shard disables injection for the whole engine (a partial
  // window would silently skew campaign statistics).
  std::vector<fault::FaultTarget*> parts;
  parts.reserve(cfg_.shards);
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
  // The calling thread always participates in the per-cycle fan-out, so a
  // pool of (threads - 1) workers realises `step_threads` stepping threads.
  unsigned threads = std::min(cfg_.step_threads, cfg_.shards);
  if (cfg_.clamp_threads_to_cores) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0) threads = std::min(threads, hw);
  }
  effective_threads_ = std::max(1u, threads);
  if (effective_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(effective_threads_ - 1);
  }
}

ShardedCamEngine::ShardedCamEngine(const Config& cfg, const CamSystem::Config& shard_cfg)
    // By-value capture: the factory outlives this constructor call (stored as
    // make_shard_ for restore()/reshard() fleet rebuilds).
    : ShardedCamEngine(cfg, ShardFactory([shard_cfg](unsigned) {
        return std::make_unique<CamSystem>(shard_cfg);
      })) {}

unsigned ShardedCamEngine::shard_of(cam::Word key) const {
  const unsigned s = shard_count();
  if (s == 1) return 0;
  if (cfg_.partition == Partition::kHash) {
    std::uint64_t x = key;  // splitmix64 finaliser
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<unsigned>(x % s);
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

void ShardedCamEngine::plan(const cam::UnitRequest& request) {
  const unsigned s_count = shard_count();
  subs_.clear();
  const auto add_sub = [&](unsigned s) -> SubRequest& {
    SubRequest& sub = subs_.emplace_back();
    sub.shard = s;
    sub.req.op = request.op;
    sub.req.seq = request.seq;
    return sub;
  };
  // Beat positions by the shard their value partitions to.
  const auto bucket = [&](const std::vector<cam::Word>& values) {
    buckets_.resize(s_count);
    for (auto& b : buckets_) b.clear();
    for (std::uint32_t i = 0; i < values.size(); ++i) {
      buckets_[shard_of(values[i])].push_back(i);
    }
  };
  switch (request.op) {
    case cam::OpKind::kSearch: {
      bucket(request.keys);
      for (unsigned s = 0; s < s_count; ++s) {
        const auto& b = buckets_[s];
        const unsigned lanes = std::max(1u, shards_[s]->max_keys_per_beat());
        for (std::size_t lo = 0; lo < b.size(); lo += lanes) {
          SubRequest& sub = add_sub(s);
          sub.positions = positions_pool_.acquire();
          sub.positions.assign(b.begin() + lo, b.begin() + std::min(b.size(), lo + lanes));
        }
      }
      break;
    }
    case cam::OpKind::kUpdate: {
      const unsigned shard_cap = shards_.front()->capacity();
      if (request.address.has_value()) {
        // Addressed writes use the global (range-partitioned) address space.
        const std::uint32_t addr = *request.address;
        const unsigned s = addr / shard_cap;
        if (s >= s_count) {
          throw SimError("ShardedCamEngine: addressed update beyond capacity");
        }
        const unsigned per_beat = std::max(1u, shards_[s]->words_per_beat());
        for (std::size_t lo = 0; lo < request.words.size(); lo += per_beat) {
          const std::size_t hi = std::min(request.words.size(), lo + per_beat);
          SubRequest& sub = add_sub(s);
          sub.req.address = addr % shard_cap + static_cast<std::uint32_t>(lo);
          sub.req.words.assign(request.words.begin() + lo, request.words.begin() + hi);
          if (!request.masks.empty()) {
            sub.req.masks.assign(request.masks.begin() + lo,
                                 request.masks.begin() + std::min(hi, request.masks.size()));
          }
        }
      } else {
        // Append: each word lands on the shard its key value hashes to.
        bucket(request.words);
        for (unsigned s = 0; s < s_count; ++s) {
          const auto& b = buckets_[s];
          const unsigned per_beat = std::max(1u, shards_[s]->words_per_beat());
          for (std::size_t lo = 0; lo < b.size(); lo += per_beat) {
            const std::size_t hi = std::min(b.size(), lo + per_beat);
            SubRequest& sub = add_sub(s);
            for (std::size_t i = lo; i < hi; ++i) {
              const std::uint32_t w = b[i];
              sub.req.words.push_back(request.words[w]);
              if (!request.masks.empty() && w < request.masks.size()) {
                sub.req.masks.push_back(request.masks[w]);
              }
            }
          }
        }
      }
      break;
    }
    case cam::OpKind::kInvalidate: {
      const unsigned shard_cap = shards_.front()->capacity();
      const std::uint32_t addr = request.address.value_or(0);
      const unsigned s = addr / shard_cap;
      if (s >= s_count) {
        throw SimError("ShardedCamEngine: invalidate beyond capacity");
      }
      add_sub(s).req.address = addr % shard_cap;
      break;
    }
    case cam::OpKind::kReset: {
      for (unsigned s = 0; s < s_count; ++s) add_sub(s);
      break;
    }
    case cam::OpKind::kIdle:
      break;
  }
}

void ShardedCamEngine::settle() {
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;
    if (resetting_[s] && shards_[s]->idle()) resetting_[s] = 0;
  }
}

bool ShardedCamEngine::try_submit(cam::UnitRequest request) {
  settle();
  plan(request);

  // Feasibility first: the whole beat is accepted or refused atomically.
  // Sub-requests bound for a quarantined shard never reach it - they are
  // settled below as shard_failed / zero-word results - so only the live
  // shards gate acceptance.
  need_.assign(shard_count(), 0);
  unsigned live_subs = 0;
  for (const auto& sub : subs_) {
    if (quarantined_[sub.shard]) continue;
    ++need_[sub.shard];
    ++live_subs;
  }
  const bool completes = request.op == cam::OpKind::kSearch ||
                         request.op == cam::OpKind::kUpdate ||
                         request.op == cam::OpKind::kInvalidate;
  const auto feasible = [&](unsigned s) {
    if (!pending_issue_[s].empty() || shards_[s]->request_full()) return false;
    if (completes && credits_[s] < need_[s]) return false;
    // A reset beat flushes any search still inside the unit pipeline (the
    // hardware produces no result beat for it), which would orphan the
    // engine's completion bookkeeping. The engine therefore fences: a reset
    // waits for the shard's outstanding completions, and fresh work waits
    // for a settling reset.
    if (resetting_[s]) return false;
    return request.op != cam::OpKind::kReset ||
           (expected_search_[s].empty() && expected_ack_[s].empty());
  };
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (need_[s] == 0 || feasible(s)) continue;
    if (request.op == cam::OpKind::kSearch) {
      for (auto& sub : subs_) positions_pool_.release(std::move(sub.positions));
    }
    return false;
  }

  // Allocate the reorder-buffer entry. Sampled beats open their dispatch ->
  // reorder-completion span here (serial path; the tracer is lock-free).
  const bool traced = tracer_ != nullptr && tracer_->sampled(request.seq);
  std::uint64_t beat_id = 0;
  if (request.op == cam::OpKind::kSearch) {
    SearchBeat beat;
    beat.seq = request.seq;
    beat.pending = live_subs;
    beat.ready = cycles_;  // beats settled entirely at submit pop right away
    // Every result slot carries its key from the start: a live shard's
    // response overwrites the slot, quarantine back-fill keeps the key.
    beat.results = results_pool_.acquire();
    beat.results.clear();
    beat.results.resize(request.keys.size());
    for (std::size_t i = 0; i < request.keys.size(); ++i) {
      beat.results[i].key = request.keys[i];
    }
    if (traced) {
      beat.span = tracer_->begin("beat.search", kTrackEngineBeats, cycles_);
      tracer_->arg(beat.span, "ticket", request.seq);
      tracer_->arg(beat.span, "keys", request.keys.size());
      tracer_->arg(beat.span, "sub_ops", live_subs);
    }
    // Keys routed to quarantined shards settle now: no search happens, the
    // result says so instead of reporting a miss.
    for (auto& sub : subs_) {
      if (!quarantined_[sub.shard]) continue;
      for (const std::uint32_t pos : sub.positions) {
        beat.results[pos].shard = static_cast<std::uint16_t>(sub.shard);
        beat.results[pos].shard_failed = true;
      }
      positions_pool_.release(std::move(sub.positions));
    }
    beat_id = search_rob_base_ + search_rob_.size();
    search_rob_.push_back(std::move(beat));
  } else if (completes) {
    AckBeat beat;
    beat.seq = request.seq;
    beat.pending = live_subs;
    beat.ready = cycles_;
    beat.ack.seq = request.seq;
    if (traced) {
      beat.span = tracer_->begin(
          request.op == cam::OpKind::kUpdate ? "beat.update" : "beat.invalidate",
          kTrackEngineBeats, cycles_);
      tracer_->arg(beat.span, "ticket", request.seq);
      tracer_->arg(beat.span, "sub_ops", live_subs);
    }
    beat_id = ack_rob_base_ + ack_rob_.size();
    ack_rob_.push_back(std::move(beat));
  }

  // Expect each live sub-operation back, then issue it: straight into the
  // shard FIFO when it has room, else park in the per-shard issue queue
  // (pumped every cycle). Credits are held from issue to collection either
  // way.
  for (auto& sub : subs_) {
    const unsigned s = sub.shard;
    if (quarantined_[s]) continue;
    std::uint64_t sub_span = telemetry::SpanTracer::kNone;
    if (request.op == cam::OpKind::kSearch) {
      sub.req.keys.reserve(sub.positions.size());
      for (const std::uint32_t pos : sub.positions) sub.req.keys.push_back(request.keys[pos]);
      if (traced) {
        sub_span = tracer_->begin("sub.search", kTrackShardBase + s, cycles_);
        tracer_->arg(sub_span, "ticket", request.seq);
        tracer_->arg(sub_span, "shard", s);
        tracer_->arg(sub_span, "keys", sub.req.keys.size());
      }
      expected_search_[s].push_back({beat_id, std::move(sub.positions), sub_span});
    } else if (completes) {
      if (traced) {
        sub_span = tracer_->begin("sub.update", kTrackShardBase + s, cycles_);
        tracer_->arg(sub_span, "ticket", request.seq);
        tracer_->arg(sub_span, "shard", s);
      }
      expected_ack_[s].push_back({beat_id, sub_span});
    }
    if (request.op == cam::OpKind::kReset) resetting_[s] = 1;
    if (completes) --credits_[s];
    if (shards_[s]->request_full()) {
      pending_issue_[s].push_back(std::move(sub.req));
    } else if (!shards_[s]->try_submit(std::move(sub.req))) {
      throw SimError("ShardedCamEngine: shard refused despite request_full() == false");
    }
  }
  return true;
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
    if (quarantined_[s]) continue;  // owed nothing; stale output stays put
    while (auto resp = shards_[s]->try_pop_response()) land_response(s, *resp, cycles_);
    while (auto ack = shards_[s]->try_pop_ack()) land_ack(s, *ack, cycles_);
  }
}

void ShardedCamEngine::land_response(unsigned s, cam::UnitResponse& resp,
                                     std::uint64_t cyc) {
  if (expected_search_[s].empty()) {
    throw SimError("ShardedCamEngine: unexpected shard response");
  }
  ExpectedSearch& exp = expected_search_[s].front();
  if (tracer_ != nullptr) tracer_->end(exp.span, cyc);
  auto& beat = search_rob_.at(exp.beat_id - search_rob_base_);
  const unsigned base = s * shards_.front()->capacity();
  for (std::size_t j = 0; j < resp.results.size(); ++j) {
    cam::UnitSearchResult& r = beat.results.at(exp.positions.at(j));
    r = resp.results[j];
    r.shard = static_cast<std::uint16_t>(s);
    r.global_address += base;
  }
  --beat.pending;
  beat.ready = std::max(beat.ready, cyc + 1);
  ++credits_[s];
  positions_pool_.release(std::move(exp.positions));
  expected_search_[s].pop_front();
  // The scattered shard response is an empty shell now - recycle its heap
  // buffer for a future SearchBeat.
  results_pool_.release(std::move(resp.results));
}

void ShardedCamEngine::land_ack(unsigned s, const cam::UnitUpdateAck& ack,
                                std::uint64_t cyc) {
  if (expected_ack_[s].empty()) {
    throw SimError("ShardedCamEngine: unexpected shard ack");
  }
  const ExpectedAck exp = expected_ack_[s].front();
  expected_ack_[s].pop_front();
  if (tracer_ != nullptr) tracer_->end(exp.span, cyc);
  auto& beat = ack_rob_.at(exp.beat_id - ack_rob_base_);
  beat.ack.words_written += ack.words_written;
  beat.ack.unit_full = beat.ack.unit_full || ack.unit_full;
  --beat.pending;
  beat.ready = std::max(beat.ready, cyc + 1);
  ++credits_[s];
}

std::optional<cam::UnitResponse> ShardedCamEngine::try_pop_response() {
  if (search_rob_.empty() || search_rob_.front().pending != 0) return std::nullopt;
  SearchBeat& beat = search_rob_.front();
  cam::UnitResponse resp;
  resp.seq = beat.seq;
  resp.results = std::move(beat.results);
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
  // Serial phase: feed parked sub-requests into shard FIFOs.
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (!quarantined_[s]) pump(s);
  }
  // Parallel phase: the shards share no state, so their clock edges can run
  // concurrently; the pool barrier restores lockstep before collection.
  if (pool_) {
    pool_->parallel_for(shards_.size(), [this](std::size_t s) {
      if (!quarantined_[s]) shards_[s]->step();
    });
  } else {
    for (unsigned s = 0; s < shard_count(); ++s) {
      if (!quarantined_[s]) shards_[s]->step();
    }
  }
  // Serial phase: the cycle's one collection pass.
  collect();
  ++cycles_;
}

void ShardedCamEngine::free_run_shard(unsigned s, std::uint64_t n) {
  if (quarantined_[s]) return;
  CamBackend& shard = *shards_[s];
  StagedOutputs& staged = staged_[s];
  for (std::uint64_t c = 0; c < n; ++c) {
    pump(s);
    shard.step();
    // Self-drain: per-cycle collect() would free these output-FIFO slots
    // every cycle; leaving them queued would exhaust the shard's reserved
    // credits and stall issue in ways n single steps never would.
    while (auto resp = shard.try_pop_response()) {
      staged.responses.emplace_back(c, std::move(*resp));
    }
    while (auto ack = shard.try_pop_ack()) {
      staged.acks.emplace_back(c, std::move(*ack));
    }
  }
}

void ShardedCamEngine::replay_staged(std::uint64_t c0, std::uint64_t n) {
  const unsigned s_count = shard_count();
  std::vector<std::size_t> ri(s_count, 0);
  std::vector<std::size_t> ai(s_count, 0);
  // Cycle-major merge: apply the collection bookkeeping in the same order n
  // per-cycle collect() passes would have, with each output's own cycle -
  // not the window boundary - driving span timestamps and beat ready
  // cycles.
  for (std::uint64_t c = 0; c < n; ++c) {
    for (unsigned s = 0; s < s_count; ++s) {
      StagedOutputs& st = staged_[s];
      for (; ri[s] < st.responses.size() && st.responses[ri[s]].first == c; ++ri[s]) {
        land_response(s, st.responses[ri[s]].second, c0 + c);
      }
      for (; ai[s] < st.acks.size() && st.acks[ai[s]].first == c; ++ai[s]) {
        land_ack(s, st.acks[ai[s]].second, c0 + c);
      }
    }
  }
  for (StagedOutputs& st : staged_) {
    st.responses.clear();  // capacity retained for the next window
    st.acks.clear();
  }
}

void ShardedCamEngine::step_many(std::uint64_t n) {
  if (n == 0) return;
  if (n == 1 || shard_count() == 0) {
    for (; n > 0; --n) step();
    return;
  }
  const std::uint64_t c0 = cycles_;
  // Free-run phase: each shard advances n cycles on its own, touching only
  // shard-local state (its backend, parked-issue queue, staging buffer).
  // One barrier per window instead of one per cycle is where the parallel
  // speedup comes from.
  if (pool_) {
    pool_->parallel_for(shards_.size(), [this, n](std::size_t s) {
      free_run_shard(static_cast<unsigned>(s), n);
    });
  } else {
    for (unsigned s = 0; s < shard_count(); ++s) free_run_shard(s, n);
  }
  cycles_ += n;
  replay_staged(c0, n);
}

std::uint64_t ShardedCamEngine::output_horizon() const {
  const bool search_waiting = !search_rob_.empty();
  const bool ack_waiting = !ack_rob_.empty();
  if (!search_waiting && !ack_waiting) return 0;  // nothing owed: no bound
  if (search_waiting && search_rob_.front().pending == 0) return 0;
  if (ack_waiting && ack_rob_.front().pending == 0) return 0;
  std::uint64_t best = 0;
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (quarantined_[s]) continue;
    if (expected_search_[s].empty() && expected_ack_[s].empty()) continue;
    std::uint64_t k = shards_[s]->output_horizon();
    if (k == 0) return 0;  // shard cannot bound its next output
    if (!pending_issue_[s].empty()) {
      // A parked sub-request is invisible to its shard. It cannot issue
      // before the shard's queued requests pop (one per cycle) nor complete
      // in under one further cycle, so it never beats this bound.
      k = std::min<std::uint64_t>(k, shards_[s]->pending_requests() + 1);
    }
    if (best == 0 || k < best) best = k;
  }
  return best;
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
    positions_pool_.release(std::move(exp.positions));
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

void ShardedCamEngine::apply_snapshot(unsigned s, const fault::ShardSnapshot& snap) {
  snap.verify();
  if (snap.shard != s) {
    throw SimError("ShardedCamEngine: snapshot was taken from shard " +
                   std::to_string(snap.shard) + ", refusing to load it into slot " +
                   std::to_string(s));
  }
  const std::string want_kind = cam::to_string(shards_[s]->kind());
  if (snap.data_width != shards_[s]->data_width() || snap.cam_kind != want_kind ||
      snap.capacity != shards_[s]->capacity()) {
    throw SimError("ShardedCamEngine: snapshot geometry (" +
                   std::to_string(snap.data_width) + "-bit " + snap.cam_kind +
                   ", capacity " + std::to_string(snap.capacity) +
                   ") does not match shard " + std::to_string(s) + " (" +
                   std::to_string(shards_[s]->data_width()) + "-bit " + want_kind +
                   ", capacity " + std::to_string(shards_[s]->capacity()) + ")");
  }
  fault::FaultTarget* target = shards_[s]->fault_target();
  if (target == nullptr) {
    throw SimError(
        "ShardedCamEngine: shard exposes no fault target to restore through");
  }
  fault::restore_target(*target, snap);
  shards_[s]->restore_cursors(snap.cursors);
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
  shards_[s]->purge();
  apply_snapshot(s, snap);
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
  if (ckpt.shards != shard_count()) rebuild_fleet(ckpt.shards);
  if (shards_.front()->capacity() != ckpt.shard_capacity) {
    throw SimError("ShardedCamEngine::restore: checkpoint assumes shard "
                   "capacity " + std::to_string(ckpt.shard_capacity) +
                   ", this engine's shards hold " +
                   std::to_string(shards_.front()->capacity()));
  }
  cfg_.partition = ckpt.partition;
  cfg_.key_bits = ckpt.key_bits;
  for (unsigned s = 0; s < shard_count(); ++s) {
    quarantined_[s] = 0;  // every restored shard re-enters service
    resetting_[s] = 0;
    credits_[s] = cfg_.credits_per_shard;
    pending_issue_[s].clear();
    shards_[s]->purge();
    apply_snapshot(s, ckpt.shard_snaps[s]);
  }
  push_history("restore checkpoint (" + std::to_string(ckpt.shards) + " shards)");
  if (recorder_ != nullptr) {
    recorder_->record(cycles_, telemetry::FlightRecorder::EventKind::kRestore,
                      telemetry::Severity::kWarn, "restore checkpoint",
                      {{"shards", ckpt.shards}});
  }
}

void ShardedCamEngine::verify_shard(unsigned s,
                                    const std::vector<fault::EntryState>& want,
                                    const char* who) const {
  fault::FaultTarget* target = shards_[s]->fault_target();
  if (target == nullptr || target->entry_count() != want.size()) {
    throw SimError(std::string(who) + ": shard " + std::to_string(s) +
                   " cannot be read back for verification");
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(target->peek(i) == want[i])) {
      throw SimError(std::string(who) + ": read-back verification failed at "
                     "entry " + std::to_string(i) + " of shard " +
                     std::to_string(s) + " - the shard stays quarantined");
    }
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

void ShardedCamEngine::rebuild_shard(unsigned s, const fault::ShardSnapshot& snap) {
  if (s >= shard_count()) {
    throw ConfigError("ShardedCamEngine::rebuild_shard: no such shard");
  }
  if (!quarantined_[s]) {
    throw SimError("ShardedCamEngine::rebuild_shard: shard " + std::to_string(s) +
                   " is in service; rebuild only re-admits quarantined shards "
                   "(restore_shard overwrites live ones)");
  }
  shards_[s]->purge();  // crash-stop leftovers from the failed shard
  apply_snapshot(s, snap);
  verify_shard(s, snap.entries, "ShardedCamEngine::rebuild_shard");
  readmit_shard(s, "snapshot");
}

void ShardedCamEngine::rebuild_shard(unsigned s, const fault::Scrubber& scrubber) {
  if (s >= shard_count()) {
    throw ConfigError("ShardedCamEngine::rebuild_shard: no such shard");
  }
  if (!quarantined_[s]) {
    throw SimError("ShardedCamEngine::rebuild_shard: shard " + std::to_string(s) +
                   " is in service; rebuild only re-admits quarantined shards");
  }
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
  fault::FaultTarget* target = shards_[s]->fault_target();
  std::size_t base = 0;  // this shard's offset in the composite window
  for (unsigned i = 0; i < s; ++i) {
    base += shards_[i]->fault_target()->entry_count();
  }
  const std::size_t per = target->entry_count();
  shards_[s]->purge();
  // Storage plane only: quarantine never corrupts the host-side fill
  // cursors, so the shard keeps its own.
  const std::vector<fault::EntryState> want(golden.begin() + base,
                                            golden.begin() + base + per);
  for (std::size_t i = 0; i < per; ++i) target->poke(i, want[i]);
  verify_shard(s, want, "ShardedCamEngine::rebuild_shard");
  readmit_shard(s, "golden shadow");
}

std::uint64_t ShardedCamEngine::drain_to_idle(std::uint64_t budget, const char* who) {
  const auto all_settled = [this]() {
    for (unsigned s = 0; s < shard_count(); ++s) {
      if (!expected_search_[s].empty() || !expected_ack_[s].empty() ||
          !pending_issue_[s].empty()) {
        return false;
      }
    }
    return true;
  };
  std::uint64_t spent = 0;
  while (!idle() || !all_settled()) {
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

void ShardedCamEngine::rebuild_fleet(unsigned new_count) {
  if (!make_shard_) {
    throw SimError(
        "ShardedCamEngine: no shard factory stored - cannot rebuild the fleet");
  }
  for (unsigned s = 0; s < shard_count(); ++s) {
    if (!expected_search_[s].empty() || !expected_ack_[s].empty() ||
        !pending_issue_[s].empty()) {
      throw SimError(
          "ShardedCamEngine: internal error - fleet rebuild with unsettled "
          "shard state");
    }
  }
  const unsigned want_width = data_width();
  const cam::CamKind want_kind = kind();
  const unsigned want_cap = shards_.front()->capacity();
  const unsigned want_groups = shards_.front()->max_keys_per_beat();
  std::vector<std::unique_ptr<CamBackend>> fresh;
  fresh.reserve(new_count);
  for (unsigned s = 0; s < new_count; ++s) {
    auto shard = make_shard_(s);
    if (!shard) throw ConfigError("ShardedCamEngine: factory returned null shard");
    if (shard->data_width() != want_width || shard->kind() != want_kind ||
        shard->capacity() != want_cap) {
      throw ConfigError(
          "ShardedCamEngine: factory shards must match the existing geometry");
    }
    // Preserve the grouping the old fleet ran with (configure_groups was
    // broadcast post-construction and the factory knows nothing of it).
    if (shard->max_keys_per_beat() != want_groups) {
      shard->configure_groups(want_groups);
    }
    fresh.push_back(std::move(shard));
  }
  shards_ = std::move(fresh);
  cfg_.shards = new_count;
  credits_.assign(new_count, cfg_.credits_per_shard);
  resetting_.assign(new_count, 0);
  quarantined_.assign(new_count, 0);
  pending_issue_.assign(new_count, {});
  expected_search_.assign(new_count, {});
  expected_ack_.assign(new_count, {});
  staged_.assign(new_count, {});
  // Recompose the injection window over the new fleet (same all-or-nothing
  // rule as construction).
  fault_target_.reset();
  std::vector<fault::FaultTarget*> parts;
  parts.reserve(new_count);
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
  // Re-derive the stepping-thread clamp for the new shard count.
  unsigned threads = std::min(cfg_.step_threads, new_count);
  if (cfg_.clamp_threads_to_cores) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0) threads = std::min(threads, hw);
  }
  effective_threads_ = std::max(1u, threads);
  pool_.reset();
  if (effective_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(effective_threads_ - 1);
  }
  if (tracer_ != nullptr) set_span_tracer(tracer_);  // name the new shard tracks
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

  rebuild_fleet(new_shard_count);

  // Redistribute through each new shard's own protocol port, so parity and
  // fill bookkeeping follow the legitimate write path. Per-entry masks only
  // exist off the binary mode (CamBlock refuses masked appends on kBinary).
  std::vector<std::vector<const fault::EntryState*>> buckets(new_shard_count);
  for (const fault::EntryState& e : moving) {
    buckets[shard_of(e.stored)].push_back(&e);
  }
  const bool masked = kind() != cam::CamKind::kBinary;
  for (unsigned s = 0; s < new_shard_count; ++s) {
    CamBackend& shard = *shards_[s];
    if (buckets[s].size() > shard.capacity()) {
      throw SimError("ShardedCamEngine::reshard: " +
                     std::to_string(buckets[s].size()) +
                     " entries map to new shard " + std::to_string(s) +
                     ", which holds only " + std::to_string(shard.capacity()) +
                     " - repartitioning would lose entries");
    }
    const unsigned per_beat = std::max(1u, shard.words_per_beat());
    std::size_t submitted_words = 0;
    std::size_t submitted_beats = 0;
    std::size_t acked_words = 0;
    std::size_t acks_seen = 0;
    std::uint64_t guard = 0;
    for (std::size_t lo = 0; lo < buckets[s].size(); lo += per_beat) {
      const std::size_t hi = std::min(buckets[s].size(), lo + per_beat);
      cam::UnitRequest req;
      req.op = cam::OpKind::kUpdate;
      for (std::size_t i = lo; i < hi; ++i) {
        req.words.push_back(buckets[s][i]->stored);
        if (masked) req.masks.push_back(buckets[s][i]->mask);
      }
      submitted_words += hi - lo;
      ++submitted_beats;
      while (!shard.try_submit(req)) {
        shard.step();
        while (auto ack = shard.try_pop_ack()) {
          acked_words += ack->words_written;
          ++acks_seen;
        }
        if (++guard > (1ull << 20)) {
          throw SimError("ShardedCamEngine::reshard: new shard " +
                         std::to_string(s) + " refused re-appends; " +
                         shard.debug_dump());
        }
      }
    }
    while (acks_seen < submitted_beats) {
      if (auto ack = shard.try_pop_ack()) {
        acked_words += ack->words_written;
        ++acks_seen;
        continue;
      }
      shard.step();
      if (++guard > (1ull << 20)) {
        throw SimError("ShardedCamEngine::reshard: re-appends failed to "
                       "settle on new shard " + std::to_string(s) + "; " +
                       shard.debug_dump());
      }
    }
    if (acked_words != submitted_words) {
      throw SimError("ShardedCamEngine::reshard: new shard " +
                     std::to_string(s) + " wrote " +
                     std::to_string(acked_words) + " of " +
                     std::to_string(submitted_words) +
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
