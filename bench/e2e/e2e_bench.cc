// End-to-end benchmark: completed searches and writes per host second
// through CamDriver -> [ShardedCamEngine] -> CamSystem -> CamUnit ->
// CamBlock -> match kernel, with every result checked against a functional
// model computed at submit time.
//
//   e2e_bench --workload W --seed N [--seconds S] [--trace 0|1] [--scale F]
//
// One process runs one workload on one thread (step_threads = 1), so the
// numbers measure the program, not the scheduler. It generates its inputs
// from --seed, sets the stack up several times (setup_s samples), runs one
// warm-up rep at 1/5 size, then measured reps of fixed work until --seconds
// have passed (at least two reps). Rep 0 is fixed work for a seed, so
// its simulated statistics repeat exactly. With --trace 1 it instead
// alternates untraced and traced reps on two identical stacks and reports
// the per-layer host-time split (timed_backend.h). --scale shrinks every
// workload's per-rep work (the smoke test runs at 0.02).
//
// Output: one JSON object on stdout (run.py turns it into metrics).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/timed_backend.h"
#include "src/cam/match_kernel.h"
#include "src/cam/match_sweep.h"
#include "src/common/random.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/triangle.h"
#include "src/system/cam_system.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/tc/cam_accel.h"
#include "src/telemetry/metrics.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dspcam;
using bench_e2e::LayerClock;
using bench_e2e::TimedBackend;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Beats a closed-loop client keeps in flight.
constexpr std::uint64_t kOutstanding = 16;

/// Rep `rep` of a seed gets its own generator, so a rep's inputs do not
/// depend on how many reps ran before it.
Rng rep_rng(std::uint64_t seed, std::uint64_t salt, std::uint64_t rep) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL ^ (salt << 48) ^ (rep + 1) * 0xBF58476D1CE4E5B9ULL);
}

/// Distinct stored keys: a seeded bijection on 31 bits, shifted left, so
/// every stored key is even and never repeats. Absent keys are odd, so a
/// key the model calls absent can never be stored.
class KeySpace {
 public:
  explicit KeySpace(std::uint64_t seed) : offset_((seed * 0x9E3779B97F4A7C15ULL) >> 33) {}

  cam::Word next_stored() { return static_cast<cam::Word>(perm((counter_++ + offset_) & kMask)) << 1; }
  static cam::Word absent(Rng& rng) { return (rng.next() & 0xFFFFFFFFULL) | 1; }

 private:
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 31) - 1;
  static std::uint64_t perm(std::uint64_t x) {
    x = (x * 0x2545F491ULL) & kMask;
    x ^= x >> 13;
    x = (x * 0x4F6CDD1DULL) & kMask;
    x ^= x >> 16;
    return x;
  }

  std::uint64_t offset_;
  std::uint64_t counter_ = 0;
};

/// Per-layer clocks of one traced stack, plus the bench's own time inside
/// CamDriver calls.
struct Layers {
  LayerClock engine;
  LayerClock sys;
  std::uint64_t driver_ns = 0;
};

/// Times one call into CamDriver when the stack is traced.
class DriverTimer {
 public:
  explicit DriverTimer(Layers* layers) : layers_(layers) {
    if (layers_ != nullptr) t0_ = Clock::now();
  }
  ~DriverTimer() {
    if (layers_ != nullptr) {
      layers_->driver_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count());
    }
  }
  DriverTimer(const DriverTimer&) = delete;
  DriverTimer& operator=(const DriverTimer&) = delete;

 private:
  Layers* layers_;
  Clock::time_point t0_;
};

/// Host-observed per-beat latency in simulated cycles.
class LatencyHist {
 public:
  void add(std::uint64_t cycles) { ++bins_[std::min<std::uint64_t>(cycles, bins_.size() - 1)]; ++n_; }
  std::uint64_t count() const { return n_; }
  /// Smallest latency with at least q of the samples at or below it.
  std::uint64_t quantile(double q) const {
    const auto need = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      seen += bins_[i];
      if (seen >= std::max<std::uint64_t>(need, 1)) return i;
    }
    return bins_.size() - 1;
  }

 private:
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(4096, 0);  // last bin: 4095+
  std::uint64_t n_ = 0;
};

struct RepResult {
  std::uint64_t ops = 0;       ///< Search keys answered + words written.
  std::uint64_t cycles = 0;    ///< Simulated cycles the rep took.
  std::uint64_t compares = 0;  ///< Block-level compares the keys needed.
  double wall_s = 0;
  LatencyHist latency;
};

/// Packed block arrays and keys for the kernel probe.
struct ProbeInput {
  unsigned block_size = 0;
  std::vector<cam::Word> stored;  ///< Valid entries (<= block_size).
  std::vector<cam::Word> keys;
};

/// A full block of `stored`'s first words, probed with half stored keys and
/// half absent ones (the search mix of the engine workloads).
ProbeInput mixed_probe(unsigned block_size, const std::vector<cam::Word>& stored,
                       std::uint64_t seed) {
  ProbeInput p;
  p.block_size = block_size;
  p.stored.assign(stored.begin(), stored.begin() + block_size);
  Rng rng = rep_rng(seed, 9, 0);
  for (int i = 0; i < 1024; ++i) {
    p.keys.push_back(rng.next_bool() ? p.stored[rng.next_below(block_size)]
                                     : KeySpace::absent(rng));
  }
  return p;
}

/// Fusion / gating counters summed over the stack's CamSystems, read
/// through record_telemetry.
struct SysCounters {
  std::uint64_t staged = 0, hits = 0, discards = 0, barrier_breaks = 0;
  std::uint64_t gated = 0, stall = 0, cycles = 0;
};

SysCounters read_counters(const std::vector<system::CamSystem*>& systems) {
  SysCounters c;
  for (const system::CamSystem* s : systems) {
    telemetry::MetricRegistry reg;
    s->record_telemetry(reg, "sys");
    c.staged += reg.counter("sys.fusion.staged").value();
    c.hits += reg.counter("sys.fusion.hits").value();
    c.discards += reg.counter("sys.fusion.discards").value();
    c.barrier_breaks += reg.counter("sys.fusion.barrier_breaks").value();
    c.gated += reg.counter("sys.gated_cycles").value();
    c.stall += reg.counter("sys.stall_cycles").value();
    c.cycles += reg.counter("sys.cycles").value();
  }
  return c;
}

/// One backend + driver stack. Members are declared so the driver, which
/// borrows everything else, is destroyed first.
struct Stack {
  std::unique_ptr<system::ShardedCamEngine> engine;
  std::unique_ptr<system::CamSystem> sys;
  std::unique_ptr<TimedBackend> top;
  std::unique_ptr<system::CamDriver> driver;
  std::vector<system::CamSystem*> systems;
};

/// Builds a hash-sharded engine of `shards` CamSystems; with `layers`, each
/// shard and the engine itself sit behind a TimedBackend.
std::unique_ptr<Stack> make_engine_stack(unsigned shards, unsigned credits,
                                         const system::CamSystem::Config& sc,
                                         Layers* layers) {
  auto st = std::make_unique<Stack>();
  system::ShardedCamEngine::Config ec;
  ec.shards = shards;
  ec.partition = system::ShardedCamEngine::Partition::kHash;
  ec.credits_per_shard = credits;
  ec.step_threads = 1;
  Stack* raw = st.get();
  st->engine = std::make_unique<system::ShardedCamEngine>(
      ec, [raw, layers, sc](unsigned) -> std::unique_ptr<system::CamBackend> {
        auto sys = std::make_unique<system::CamSystem>(sc);
        raw->systems.push_back(sys.get());
        if (layers == nullptr) return sys;
        return std::make_unique<TimedBackend>(std::move(sys), layers->sys);
      });
  if (layers != nullptr) {
    st->top = std::make_unique<TimedBackend>(*st->engine, layers->engine);
    st->driver = std::make_unique<system::CamDriver>(*st->top);
  } else {
    st->driver = std::make_unique<system::CamDriver>(*st->engine);
  }
  return st;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh stack and preloads it (the timed set-up).
  virtual void setup(Layers* layers) = 0;
  /// Runs one rep of fixed work (`frac` of full size), checking every result.
  virtual RepResult run(std::uint64_t rep, double frac) = 0;
  virtual ProbeInput probe_input() const = 0;

  const Stack& stack() const { return *stack_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 protected:
  /// Records one checked operation.
  void expect(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// One host turn: submit reqs_ in order, advance the clock (one poll, or
  /// drain()), and pop every completion into done_. A traced stack times
  /// the turn as one driver call, so the bench's own request building and
  /// checking stay outside it. Returns the first submitted ticket.
  system::CamDriver::Ticket turn(bool drain) {
    DriverTimer dt(layers_);
    system::CamDriver& d = *stack_->driver;
    system::CamDriver::Ticket first = 0;
    for (cam::UnitRequest& req : reqs_) {
      const auto t = d.submit_async(std::move(req));
      if (first == 0) first = t;
    }
    reqs_.clear();
    if (drain) {
      d.drain();
    } else {
      d.poll();
    }
    done_.clear();
    while (auto c = d.try_pop_completion()) done_.push_back(std::move(*c));
    return first;
  }

  /// Submits reqs_ (the preload) and drains; throws unless every word landed.
  void preload(std::uint64_t words) {
    turn(true);
    std::uint64_t written = 0;
    for (const auto& c : done_) written += c.words_written;
    if (written != words) throw std::runtime_error("preload lost words");
  }

  std::unique_ptr<Stack> stack_;
  Layers* layers_ = nullptr;
  std::vector<cam::UnitRequest> reqs_;
  std::vector<system::CamDriver::Completion> done_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

bool result_ok(const cam::UnitSearchResult& r, cam::Word key, std::int64_t addr) {
  if (r.key != key || r.shard_failed || r.parity_error) return false;
  if (addr < 0) return !r.hit;
  return r.hit && r.global_address == static_cast<std::uint32_t>(addr);
}

// ---------------------------------------------------------------------------
// lookup_8k: Table VIII's largest unit behind an S=1 engine, closed loop of
// single-key searches, half stored keys and half absent.

class Lookup8k final : public Workload {
 public:
  Lookup8k(std::uint64_t seed, double scale) : seed_(seed), scale_(scale) {
    cam::UnitConfig u;
    u.block.cell.kind = cam::CamKind::kBinary;
    u.block.cell.data_width = 32;
    u.block.block_size = 256;
    u.block.bus_width = 512;
    u.block.encoding = cam::EncodingScheme::kPriorityIndex;
    u.unit_size = 32;
    u.bus_width = 512;
    sc_.unit = cam::UnitConfig::with_auto_timing(u);
    KeySpace ks(seed);
    stored_.resize(sc_.unit.total_entries());
    for (auto& k : stored_) k = ks.next_stored();
  }

  void setup(Layers* layers) override {
    layers_ = layers;
    stack_.reset();
    stack_ = make_engine_stack(1, 256, sc_, layers);
    // Addressed preload: key i lives at global address i.
    const unsigned per_beat = stack_->driver->backend().words_per_beat();
    for (std::size_t lo = 0; lo < stored_.size(); lo += per_beat) {
      cam::UnitRequest req;
      req.op = cam::OpKind::kUpdate;
      req.address = static_cast<std::uint32_t>(lo);
      req.words.assign(stored_.begin() + lo,
                       stored_.begin() + std::min(stored_.size(), lo + per_beat));
      reqs_.push_back(std::move(req));
    }
    preload(stored_.size());
  }

  RepResult run(std::uint64_t rep, double frac) override {
    const auto n = static_cast<std::uint64_t>(62'500 * scale_ * frac);
    Rng rng = rep_rng(seed_, 1, rep);
    keys_.resize(n);
    addr_.resize(n);
    for (std::uint64_t b = 0; b < n; ++b) {
      if (rng.next_bool()) {
        const auto i = rng.next_below(stored_.size());
        keys_[b] = stored_[i];
        addr_[b] = static_cast<std::int64_t>(i);
      } else {
        keys_[b] = KeySpace::absent(rng);
        addr_[b] = -1;
      }
    }
    RepResult r;
    std::array<std::uint64_t, 64> submitted_at{};
    std::uint64_t next = 0, done = 0, cycle = 0, base = 0;
    const auto t0 = Clock::now();
    while (done < n) {
      const std::uint64_t first = next;
      while (next < n && next - done < kOutstanding) {
        cam::UnitRequest req;
        req.op = cam::OpKind::kSearch;
        req.keys.push_back(keys_[next]);
        reqs_.push_back(std::move(req));
        submitted_at[next & 63] = cycle;
        ++next;
      }
      const auto t = turn(false);
      if (first == 0) base = t;
      ++cycle;
      for (const auto& c : done_) {
        const std::uint64_t b = c.ticket - base;
        expect(b < n && c.results.size() == 1 && result_ok(c.results[0], keys_[b], addr_[b]));
        r.latency.add(cycle - submitted_at[b & 63]);
        ++done;
      }
    }
    r.wall_s = seconds_since(t0);
    r.ops = n;
    r.cycles = cycle;
    r.compares = n * sc_.unit.unit_size;
    return r;
  }

  ProbeInput probe_input() const override {
    return mixed_probe(sc_.unit.block.block_size, stored_, seed_);
  }

 private:
  std::uint64_t seed_;
  double scale_;
  system::CamSystem::Config sc_;
  std::vector<cam::Word> stored_;
  std::vector<cam::Word> keys_;
  std::vector<std::int64_t> addr_;
};

// ---------------------------------------------------------------------------
// sharded_churn / sharded_open_25: S=4 hash-sharded engine over 16 blocks x
// 16-cell CamSystems (the engine benches' geometry), every slot preloaded
// with a key that hashes to the slot's shard, so each key's global address
// is known.

class Sharded final : public Workload {
 public:
  enum class Mode { kChurn, kOpen };

  Sharded(Mode mode, std::uint64_t seed, double scale)
      : mode_(mode), seed_(seed), scale_(scale), keyspace_(seed) {
    cam::UnitConfig u;
    u.block.cell.kind = cam::CamKind::kBinary;
    u.block.cell.data_width = 32;
    u.block.block_size = 16;
    u.block.bus_width = 512;
    u.unit_size = 16;
    u.bus_width = 512;
    sc_.unit = u;
    // A throwaway engine answers the partitioner question at input time.
    const auto probe = make_engine_stack(kShards, kCredits, sc_, nullptr);
    shard_cap_ = probe->engine->capacity() / kShards;
    initial_keys_.resize(std::size_t{kShards} * shard_cap_);
    for (std::size_t g = 0; g < initial_keys_.size(); ++g) {
      initial_keys_[g] = fresh_key(*probe->engine, static_cast<unsigned>(g / shard_cap_));
    }
  }

  void setup(Layers* layers) override {
    layers_ = layers;
    stack_.reset();
    stack_ = make_engine_stack(kShards, kCredits, sc_, layers);
    slot_key_ = initial_keys_;
    busy_.assign(slot_key_.size(), 0);
    const unsigned per_beat = 16;  // divides the shard capacity
    for (std::size_t lo = 0; lo < slot_key_.size(); lo += per_beat) {
      cam::UnitRequest req;
      req.op = cam::OpKind::kUpdate;
      req.address = static_cast<std::uint32_t>(lo);
      req.words.assign(slot_key_.begin() + lo, slot_key_.begin() + lo + per_beat);
      reqs_.push_back(std::move(req));
    }
    preload(slot_key_.size());
  }

  RepResult run(std::uint64_t rep, double frac) override {
    return mode_ == Mode::kChurn ? run_churn(rep, frac) : run_open(rep, frac);
  }

  ProbeInput probe_input() const override {
    return mixed_probe(sc_.unit.block.block_size, initial_keys_, seed_);
  }

 private:
  static constexpr unsigned kShards = 4;
  static constexpr unsigned kCredits = 64;
  static constexpr unsigned kKeysPerBeat = 4;

  /// What one submitted beat should come back with.
  struct BeatExpect {
    bool update = false;
    std::uint32_t slot = 0;
    std::uint64_t submitted_at = 0;
    std::array<cam::Word, kKeysPerBeat> keys{};
    std::array<std::int64_t, kKeysPerBeat> addr{};
  };

  cam::Word fresh_key(const system::ShardedCamEngine& engine, unsigned shard) {
    cam::Word k = keyspace_.next_stored();
    while (engine.shard_of(k) != shard) k = keyspace_.next_stored();
    return k;
  }

  /// A search key: half the time a stored key from a slot with no write in
  /// flight (so its answer is settled), else an absent key.
  void pick_key(Rng& rng, BeatExpect& e, unsigned j) {
    if (rng.next_bool()) {
      std::uint64_t g = rng.next_below(slot_key_.size());
      while (busy_[g]) g = rng.next_below(slot_key_.size());
      e.keys[j] = slot_key_[g];
      e.addr[j] = static_cast<std::int64_t>(g);
    } else {
      e.keys[j] = KeySpace::absent(rng);
      e.addr[j] = -1;
    }
  }

  cam::UnitRequest search_request(const BeatExpect& e) const {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys.assign(e.keys.begin(), e.keys.end());
    return req;
  }

  /// Checks one completion against its expectation; returns the ops it
  /// carried.
  std::uint64_t check(const system::CamDriver::Completion& c, const BeatExpect& e) {
    if (e.update) {
      expect(c.op == cam::OpKind::kUpdate && c.words_written == 1);
      busy_[e.slot] = 0;
      return 1;
    }
    const bool shaped = c.op == cam::OpKind::kSearch && c.results.size() == kKeysPerBeat;
    for (unsigned j = 0; j < kKeysPerBeat; ++j) {
      expect(shaped && result_ok(c.results[j], e.keys[j], e.addr[j]));
    }
    return kKeysPerBeat;
  }

  /// Closed loop of 16 outstanding beats; every 16th beat is an addressed
  /// replace of a random slot with a fresh key of the slot's shard.
  RepResult run_churn(std::uint64_t rep, double frac) {
    const auto n = static_cast<std::uint64_t>(32'000 * scale_ * frac);
    Rng rng = rep_rng(seed_, 2, rep);
    const system::ShardedCamEngine& engine = *stack_->engine;
    std::array<BeatExpect, 64> ring{};
    RepResult r;
    std::uint64_t next = 0, done = 0, cycle = 0, base = 0;
    const auto t0 = Clock::now();
    while (done < n) {
      const std::uint64_t first = next;
      while (next < n && next - done < kOutstanding) {
        BeatExpect& e = ring[next & 63];
        cam::UnitRequest req;
        e.update = next % 16 == 15;
        if (e.update) {
          std::uint64_t g = rng.next_below(slot_key_.size());
          while (busy_[g]) g = rng.next_below(slot_key_.size());
          e.slot = static_cast<std::uint32_t>(g);
          busy_[g] = 1;
          slot_key_[g] = fresh_key(engine, static_cast<unsigned>(g / shard_cap_));
          req.op = cam::OpKind::kUpdate;
          req.address = e.slot;
          req.words = {slot_key_[g]};
        } else {
          for (unsigned j = 0; j < kKeysPerBeat; ++j) pick_key(rng, e, j);
          req = search_request(e);
        }
        e.submitted_at = cycle;
        reqs_.push_back(std::move(req));
        ++next;
      }
      const auto t = turn(false);
      if (first == 0) base = t;
      ++cycle;
      for (const auto& c : done_) {
        const BeatExpect& e = ring[(c.ticket - base) & 63];
        const std::uint64_t ops = check(c, e);
        r.ops += ops;
        if (!e.update) r.compares += ops * sc_.unit.unit_size;
        r.latency.add(cycle - e.submitted_at);
        ++done;
      }
    }
    r.wall_s = seconds_since(t0);
    r.cycles = cycle;
    return r;
  }

  /// Open loop in simulated time: Poisson arrivals at 0.25 beats/cycle,
  /// each submitted at its due cycle, one poll per cycle. Latency counts
  /// from the due cycle, so driver-queue waits show.
  RepResult run_open(std::uint64_t rep, double frac) {
    const auto horizon = static_cast<std::uint64_t>(100'000 * scale_ * frac);
    Rng rng = rep_rng(seed_, 3, rep);
    beats_.clear();
    double t = 0;
    while (true) {
      t += -std::log(1.0 - rng.next_double()) / 0.25;
      const auto due = static_cast<std::uint64_t>(t);
      if (due >= horizon) break;
      BeatExpect e;
      e.submitted_at = due;
      for (unsigned j = 0; j < kKeysPerBeat; ++j) pick_key(rng, e, j);
      beats_.push_back(e);
    }
    const std::uint64_t n = beats_.size();
    RepResult r;
    std::uint64_t next = 0, done = 0, cycle = 0, base = 0;
    const auto t0 = Clock::now();
    while (done < n) {
      const std::uint64_t first = next;
      while (next < n && beats_[next].submitted_at <= cycle) {
        reqs_.push_back(search_request(beats_[next]));
        ++next;
      }
      const auto t = turn(false);
      if (first == 0 && next > 0) base = t;
      ++cycle;
      for (const auto& c : done_) {
        const BeatExpect& e = beats_[c.ticket - base];
        r.ops += check(c, e);
        r.latency.add(cycle - e.submitted_at);
        ++done;
      }
    }
    r.wall_s = seconds_since(t0);
    r.cycles = cycle;
    r.compares = r.ops * sc_.unit.unit_size;
    return r;
  }

  Mode mode_;
  std::uint64_t seed_;
  double scale_;
  KeySpace keyspace_;
  system::CamSystem::Config sc_;
  unsigned shard_cap_ = 0;
  std::vector<cam::Word> initial_keys_;
  std::vector<cam::Word> slot_key_;  ///< Model: the key each slot holds.
  std::vector<char> busy_;           ///< Slots with a write in flight.
  std::vector<BeatExpect> beats_;    ///< Open-loop arrivals of the current rep.
};

// ---------------------------------------------------------------------------
// tc_paper: the paper's triangle-counting flow (Section V) on a bare
// CamSystem from CamTcAccelerator::Config{}: per resident list, configure
// the group count, store the list, then search each higher-id neighbour's
// list in M-key beats and drain.

class TcPaper final : public Workload {
 public:
  TcPaper(std::uint64_t seed, double scale) : accel_(cfg_) {
    sc_.unit = cfg_.unit_config();
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 4);
    const auto n = static_cast<graph::VertexId>(std::max(64.0, 16000 * scale));
    const auto m = static_cast<std::uint64_t>(std::max(640.0, 160000 * scale));
    g_ = graph::community_graph(n, m, 64, 0.8, rng);
    triangles_ = graph::count_triangles_merge(graph::orient_by_degree(g_));
    pos_.assign(g_.num_vertices(), -1);
  }

  void setup(Layers* layers) override {
    layers_ = layers;
    stack_.reset();
    stack_ = std::make_unique<Stack>();
    stack_->sys = std::make_unique<system::CamSystem>(sc_);
    stack_->systems.push_back(stack_->sys.get());
    if (layers != nullptr) {
      stack_->top = std::make_unique<TimedBackend>(*stack_->sys, layers->sys);
      stack_->driver = std::make_unique<system::CamDriver>(*stack_->top);
    } else {
      stack_->driver = std::make_unique<system::CamDriver>(*stack_->sys);
    }
  }

  /// One pass over the first `frac` of the vertices (every rep is the same
  /// pass; the triangle total is checked on full passes).
  RepResult run(std::uint64_t /*rep*/, double frac) override {
    system::CamDriver& d = *stack_->driver;
    const auto limit = static_cast<graph::VertexId>(g_.num_vertices() * frac);
    const std::size_t cap = cfg_.cam_entries;
    const unsigned blocks = sc_.unit.unit_size;
    RepResult r;
    std::uint64_t matches = 0;
    std::vector<cam::Word> words;
    const std::uint64_t c_start = d.cycles();
    const auto t0 = Clock::now();
    for (graph::VertexId u = 0; u < limit; ++u) {
      const auto nu = g_.neighbors(u);
      if (nu.empty() || nu.back() <= u) continue;  // sorted: no higher-id neighbour
      for (std::size_t lo = 0; lo < nu.size(); lo += cap) {
        const std::size_t len = std::min(cap, nu.size() - lo);
        const unsigned m = std::min(accel_.groups_for(len), d.backend().max_groups());
        words.assign(nu.begin() + lo, nu.begin() + lo + len);
        for (std::size_t i = 0; i < len; ++i) pos_[words[i]] = static_cast<std::int64_t>(i);
        unsigned written = 0;
        {
          DriverTimer dt(layers_);
          d.configure_groups(m);
          written = d.store(words);
        }
        for (std::size_t i = 0; i < len; ++i) expect(i < written);
        r.ops += len;
        const std::int64_t group_cap = d.backend().capacity();
        for (const graph::VertexId v : nu) {
          if (v <= u) continue;
          const auto keys = g_.neighbors(v);
          for (std::size_t k = 0; k < keys.size(); k += m) {
            cam::UnitRequest req;
            req.op = cam::OpKind::kSearch;
            req.keys.assign(keys.begin() + k, keys.begin() + std::min(keys.size(), k + m));
            reqs_.push_back(std::move(req));
          }
          const std::uint64_t c0 = d.cycles();
          const auto base = turn(true);
          const std::uint64_t latency = d.cycles() - c0;
          for (const auto& c : done_) {
            const std::size_t first = (c.ticket - base) * m;
            for (std::size_t j = 0; j < c.results.size(); ++j) {
              const cam::Word key = first + j < keys.size() ? keys[first + j] : ~cam::Word{0};
              const std::int64_t p = key < pos_.size() ? pos_[key] : -1;
              const std::int64_t addr = p < 0 ? -1 : static_cast<std::int64_t>(j) * group_cap + p;
              expect(result_ok(c.results[j], key, addr));
              if (c.results[j].hit) ++matches;
            }
            r.latency.add(latency);
          }
          r.ops += keys.size();
          r.compares += keys.size() * (blocks / m);
        }
        for (std::size_t i = 0; i < len; ++i) pos_[words[i]] = -1;
      }
    }
    r.wall_s = seconds_since(t0);
    r.cycles = d.cycles() - c_start;
    if (limit == g_.num_vertices()) expect(matches == 3 * triangles_);
    return r;
  }

  ProbeInput probe_input() const override {
    ProbeInput p;
    p.block_size = sc_.unit.block.block_size;
    graph::VertexId u = 0;
    while (u + 1 < g_.num_vertices() && g_.degree(u) == 0) ++u;
    const auto nu = g_.neighbors(u);
    p.stored.assign(nu.begin(), nu.begin() + std::min<std::size_t>(nu.size(), p.block_size));
    for (const graph::VertexId v : nu) {
      for (const graph::VertexId k : g_.neighbors(v)) p.keys.push_back(k);
    }
    if (p.keys.empty()) p.keys.push_back(0);
    return p;
  }

 private:
  tc::CamTcAccelerator::Config cfg_;
  tc::CamTcAccelerator accel_;
  system::CamSystem::Config sc_;
  graph::CsrGraph g_;
  std::uint64_t triangles_ = 0;
  std::vector<std::int64_t> pos_;  ///< Model: position of each vertex in the resident chunk.
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double scale) {
  if (name == "lookup_8k") return std::make_unique<Lookup8k>(seed, scale);
  if (name == "sharded_churn") {
    return std::make_unique<Sharded>(Sharded::Mode::kChurn, seed, scale);
  }
  if (name == "sharded_open_25") {
    return std::make_unique<Sharded>(Sharded::Mode::kOpen, seed, scale);
  }
  if (name == "tc_paper") return std::make_unique<TcPaper>(seed, scale);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Kernel probe: the block's own match kernel timed on packed arrays that
// hold the workload's stored words and keys.

volatile std::uint64_t g_probe_sink = 0;

double probe_ns_per_compare(const ProbeInput& in, const std::string& kernel_name) {
  const cam::MatchKernel* k = nullptr;
  for (const cam::MatchKernel& cand : cam::match_kernel_registry()) {
    if (kernel_name == cand.name) k = &cand;
  }
  if (k == nullptr) {
    cam::MatchKernelQuery q;
    q.data_width = 32;
    q.block_size = in.block_size;
    k = &cam::select_match_kernel(q);
  }
  const std::size_t depth = in.block_size;
  const std::size_t words = (depth + 63) / 64;
  std::vector<std::uint64_t> stored(depth, 0), nmask(depth, 0xFFFFFFFFULL), valid(words, 0);
  std::vector<std::uint64_t> bits(words, 0);
  for (std::size_t i = 0; i < in.stored.size(); ++i) {
    stored[i] = in.stored[i];
    valid[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  cam::EncodedMatch enc;
  std::uint64_t sum = 0, calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  while (elapsed < 0.05) {
    for (int rep = 0; rep < 4096; ++rep, ++calls) {
      const cam::Word key = in.keys[calls % in.keys.size()];
      if (k->encode_fn != nullptr) {
        k->encode_fn(stored.data(), nmask.data(), valid.data(), key, depth,
                     cam::EncodingScheme::kPriorityIndex, enc, nullptr);
        sum += enc.first_match + enc.hit;
      } else {
        k->fn(stored.data(), nmask.data(), key, depth, bits.data());
        for (std::size_t w = 0; w < words; ++w) sum += bits[w] & valid[w];
      }
    }
    elapsed = seconds_since(t0);
  }
  g_probe_sink = g_probe_sink + sum;
  return elapsed * 1e9 / static_cast<double>(calls);
}

// ---------------------------------------------------------------------------
// Output.

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string provenance(const Workload& w, const std::string& name, std::uint64_t seed,
                       double scale) {
  const Stack& st = w.stack();
  const system::CamSystem& sys = *st.systems.front();
  const unsigned step_threads = st.engine ? st.engine->effective_step_threads() : 1;
  std::ostringstream o;
  o << "{\"workload\": " << json_str(name) << ", \"seed\": " << seed
    << ", \"scale\": " << num(scale) << ", \"build_type\": " << json_str(E2E_BUILD_TYPE)
    << ", \"compiler\": " << json_str(__VERSION__) << ", \"simd_tier\": "
    << json_str(cam::detail::match_sweep_avx2_available() ? "avx2" : "scalar")
    << ", \"kernel\": " << json_str(sys.unit().match_kernel_name())
    << ", \"fusion_width\": " << sys.fusion_width()
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"step_threads\": " << step_threads << "}";
  return o.str();
}

/// Peak resident set of this program image. VmHWM, not getrusage: Linux
/// carries ru_maxrss across execve, so the parent's (the runner's) peak
/// would leak into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< Measure reps until this much rep time has passed.
  bool trace = false;
  double scale = 1.0;
};

bool more_reps(const Options& opt, std::size_t done, double elapsed) {
  return done < 2 || elapsed < opt.seconds;
}

constexpr double kWarmupFrac = 0.2;
constexpr std::uint64_t kWarmupRep = 1'000'000;  ///< Inputs apart from rep 0's.
/// Set-up samples taken before every rep: up to kSetupsPerBatch, stopping
/// early once kSetupBatchS has gone by. Set-ups take ~15 us to ~1 ms, and
/// host speed drifts over seconds, so many samples spread over the whole
/// run are what keep the median steady.
constexpr std::size_t kSetupsPerBatch = 50;
constexpr double kSetupBatchS = 0.01;

int run_e2e(const Options& opt) {
  auto w = make_workload(opt.workload, opt.seed, opt.scale);
  std::vector<double> setup_s;
  // Every rep runs on the stack its batch set up last.
  const auto setup_batch = [&] {
    double spent = 0;
    for (std::size_t i = 0; i < kSetupsPerBatch && spent < kSetupBatchS; ++i) {
      const auto t0 = Clock::now();
      w->setup(nullptr);
      setup_s.push_back(seconds_since(t0));
      spent += setup_s.back();
    }
  };
  setup_batch();
  w->run(kWarmupRep, kWarmupFrac);
  // Rep 0 keeps its simulated statistics; later reps only their host time,
  // so memory does not grow with the number of reps.
  setup_batch();
  const RepResult r0 = w->run(0, 1.0);
  std::vector<std::pair<std::uint64_t, double>> reps = {{r0.ops, r0.wall_s}};
  double elapsed = r0.wall_s;
  while (more_reps(opt, reps.size(), elapsed)) {
    setup_batch();
    const RepResult r = w->run(reps.size(), 1.0);
    reps.emplace_back(r.ops, r.wall_s);
    elapsed += r.wall_s;
  }
  std::sort(setup_s.begin(), setup_s.end());
  std::ostringstream o;
  o << "{\"trace\": 0, \"provenance\": " << provenance(*w, opt.workload, opt.seed, opt.scale)
    << ", \"setup_s\": {\"median\": " << num(setup_s[setup_s.size() / 2])
    << ", \"n\": " << setup_s.size() << "}, \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    o << (i ? ", " : "") << "{\"ops\": " << reps[i].first
      << ", \"wall_s\": " << num(reps[i].second) << "}";
  }
  o << "], \"sim\": {\"cycles\": " << r0.cycles << ", \"ops\": " << r0.ops
    << ", \"latency_p50\": " << r0.latency.quantile(0.5)
    << ", \"latency_p99\": " << r0.latency.quantile(0.99)
    << ", \"latency_samples\": " << r0.latency.count() << "}, \"peak_rss_mb\": "
    << num(peak_rss_mb()) << ", \"attempted\": " << w->attempted()
    << ", \"failed\": " << w->failed() << "}";
  std::printf("%s\n", o.str().c_str());
  return w->failed() == 0 ? 0 : 1;
}

int run_trace(const Options& opt) {
  auto plain = make_workload(opt.workload, opt.seed, opt.scale);
  auto traced = make_workload(opt.workload, opt.seed, opt.scale);
  Layers layers;
  plain->setup(nullptr);
  traced->setup(&layers);
  plain->run(kWarmupRep, kWarmupFrac);
  traced->run(kWarmupRep, kWarmupFrac);
  layers = Layers{};

  const std::vector<system::CamSystem*>& systems = traced->stack().systems;
  const SysCounters c0 = read_counters(systems);
  Layers first;  // counts of traced rep 0 (fixed work: they repeat exactly)
  RepResult r0;
  SysCounters c1;
  std::vector<double> ratios;
  double wall = 0, elapsed = 0;
  std::size_t n = 0;
  while (more_reps(opt, n, elapsed)) {
    const RepResult rp = plain->run(n, 1.0);
    const RepResult rt = traced->run(n, 1.0);
    if (n == 0) {
      first = layers;
      c1 = read_counters(systems);
      r0 = rt;
    }
    ratios.push_back((rt.wall_s / static_cast<double>(rt.ops)) /
                     (rp.wall_s / static_cast<double>(rp.ops)));
    wall += rt.wall_s;
    elapsed += rt.wall_s + rp.wall_s;
    ++n;
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2] - 1.0;

  const bool has_engine = traced->stack().engine != nullptr;
  const double per_rep = 1e-9 / static_cast<double>(n);
  const LayerClock& top = has_engine ? layers.engine : layers.sys;
  const LayerClock& top0 = has_engine ? first.engine : first.sys;
  const double wall_s = wall / static_cast<double>(n);
  const double sys_s = static_cast<double>(layers.sys.busy_ns) * per_rep;
  const double engine_s = has_engine ? static_cast<double>(layers.engine.busy_ns) * per_rep - sys_s : 0;
  const double driver_s = static_cast<double>(layers.driver_ns) * per_rep -
                          static_cast<double>(top.busy_ns) * per_rep;
  const double ns_cmp = probe_ns_per_compare(traced->probe_input(),
                                             systems.front()->unit().match_kernel_name());
  const double kernel_s = static_cast<double>(r0.compares) * ns_cmp * 1e-9;
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double staged = static_cast<double>(c1.staged - c0.staged);

  std::vector<std::pair<std::string, std::string>> m = {
      {"driver.self_s", num(driver_s)},
      {"driver.share", num(frac(driver_s, wall_s))},
      {"driver.polls", num(top0.steps)},
      {"driver.windows", num(top0.windows)},
      {"driver.window_cycles_frac",
       num(frac(static_cast<double>(top0.window_cycles), static_cast<double>(r0.cycles)))},
      {"driver.mean_window_cycles",
       num(frac(static_cast<double>(top0.window_cycles), static_cast<double>(top0.windows)))},
      {"driver.pop_calls", num(top0.pops)},
      {"driver.horizon_calls", num(top0.horizons)},
      {"engine.self_s", num(engine_s)},
      {"engine.share", num(frac(engine_s, wall_s))},
      {"engine.submit_rejects", num(has_engine ? first.engine.rejects : std::uint64_t{0})},
      {"cam_system.busy_s", num(sys_s)},
      {"cam_system.share", num(frac(sys_s, wall_s))},
      {"cam_system.gated_frac", num(frac(static_cast<double>(c1.gated - c0.gated),
                                         static_cast<double>(c1.cycles - c0.cycles)))},
      {"cam_system.stall_cycles", num(c1.stall - c0.stall)},
      {"fusion.staged", num(c1.staged - c0.staged)},
      {"fusion.hits", num(c1.hits - c0.hits)},
      {"fusion.discards", num(c1.discards - c0.discards)},
      {"fusion.barrier_breaks", num(c1.barrier_breaks - c0.barrier_breaks)},
      {"fusion.hit_frac", num(frac(static_cast<double>(c1.hits - c0.hits), staged))},
      {"fusion.waste_frac", num(frac(static_cast<double>(c1.discards - c0.discards), staged))},
      {"kernel.block_compares", num(r0.compares)},
      {"kernel.ns_per_compare", num(ns_cmp)},
      {"kernel.est_s", num(kernel_s)},
      {"kernel.share", num(frac(kernel_s, wall_s))},
      {"unit_block.est_s", num(sys_s - kernel_s)},
      {"unit_block.share", num(frac(sys_s - kernel_s, wall_s))},
      {"trace.wall_s", num(wall_s)},
      {"trace.overhead_frac", num(overhead)},
  };
  std::ostringstream o;
  o << "{\"trace\": 1, \"provenance\": "
    << provenance(*traced, opt.workload, opt.seed, opt.scale) << ", \"traced_reps\": " << n
    << ", \"layers\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    o << (i ? ", " : "") << json_str(m[i].first) << ": " << m[i].second;
  }
  o << "}, \"attempted\": " << plain->attempted() + traced->attempted()
    << ", \"failed\": " << plain->failed() + traced->failed() << "}";
  std::printf("%s\n", o.str().c_str());
  return plain->failed() + traced->failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (flag == "--scale") {
      opt.scale = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "e2e_bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool known = opt.workload == "lookup_8k" || opt.workload == "sharded_churn" ||
                     opt.workload == "sharded_open_25" || opt.workload == "tc_paper";
  if (!known || !(opt.scale > 0 && opt.scale <= 1)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload lookup_8k|sharded_churn|sharded_open_25|"
                 "tc_paper --seed N [--seconds S] [--trace 0|1] "
                 "[--scale (0,1]]\n");
    return 2;
  }
  try {
    return opt.trace ? run_trace(opt) : run_e2e(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
