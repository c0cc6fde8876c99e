// Measuring program of dhtscale's benchmark of record.
//
// One process runs one workload (static_grid or churn_sync_sweep; see
// perfbench/README.md for why each exists):
//
//   1. set-up, repeated --setup-reps times and timed each time: the
//      workload's structures are built through the library's public
//      constructors, then one untimed warm-up round runs the workload's
//      estimate calls once (call index 0), so first-call costs land in
//      set-up and not in the timed loop;
//   2. a closed loop of timed rounds (call index 1, 2, ...), one estimate
//      call after another, until --seconds have elapsed (at least
//      --min-rounds rounds);
//   3. in the traced run of churn_sync_sweep, a replay of call 0 through
//      the public SparseChurnWorld API (constructor, step(), measure()),
//      merged in shard order and compared bit for bit with the engine's
//      result.
//
// Every estimate is checked (exact taxonomy balance, zero canaries, an
// independent reference band).  With --trace 1 each round runs twice with
// the same inputs, untraced and traced (PhaseProfile sinks attached plus
// the spans below), their counters must be bit-identical, and the traced
// copy supplies the per-layer samples.
//
// The library is timed only from outside, around calls to its public
// functions; this file adds no instrumentation to src/.  All output is one
// JSON record written to --out; perfbench/run.py turns it into metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "churn/churn.hpp"
#include "churn/sparse_trajectory.hpp"
#include "core/registry.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "obs/failure.hpp"
#include "obs/phase_timer.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/failure.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/id_space.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/shard_pool.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"
#include "sparse/density_analysis.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_space.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace dht;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------ workload constants --
// Results are a function of (inputs, shard count), so shard counts are
// fixed per workload and recorded with every run.

// static_grid: the paper's static-resilience question at N = 2^20.
constexpr int kDenseBits = 20;
constexpr int kSparseKeyBits = 32;
constexpr std::uint64_t kSparseNodes = std::uint64_t{1} << 20;
constexpr double kStaticQ = 0.1;
constexpr std::uint64_t kStaticPairs = std::uint64_t{1} << 19;  // per call
constexpr std::uint64_t kStaticShards = 256;
constexpr double kZipfS = 1.1;
// The path cache is per shard: N x 8 slots x 8 B = 64 MiB filled for every
// shard.  At the 256 shards of the uniform calls that fill (16 GiB a call)
// was 3.7 s of a 4.2 s round, hiding the kernels this workload is for, so
// the Zipf call runs 16 shards.
constexpr std::uint64_t kZipfShards = 16;
constexpr int kCacheEntries = 8;

// churn_sync_sweep: N0 = 2^16 in 2^32 keys, pd = pr = 0.05, R = 30, s = 4.
constexpr std::uint64_t kChurnPopulation = std::uint64_t{1} << 16;
constexpr int kChurnKeyBits = 32;
constexpr double kChurnRate = 0.05;
constexpr int kRefreshRounds = 30;
constexpr int kSuccessors = 4;
constexpr int kWarmupRounds = 12;
constexpr int kMeasuredRounds = 30;  // spans one refresh period R
constexpr std::uint64_t kChurnPairs = 2000;  // per round per shard
constexpr std::uint64_t kChurnShards = 8;
const std::vector<double> kSweepRho = {0.0, 0.5};

const char* const kDenseNames[] = {"tree", "hypercube", "xor", "ring",
                                   "symphony"};
constexpr int kDenseCount = 5;

// ------------------------------------------------------------- utilities --

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user + system CPU seconds so far.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// The generator for input stream `stream` of workload seed `seed`.  The
/// library receives only these generated inputs.
math::Rng input_rng(std::uint64_t seed, std::uint64_t stream) {
  return math::Rng(seed).fork(stream);
}

// Streams: structure builds use 1..99, call i uses 1000 + i.
constexpr std::uint64_t kCallStream = 1000;

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ spans --
// Spans are recorded only in the traced run, kept in memory, and written
// when the run ends.  Each carries a name, start, end, its parent span and
// the run id; durations are measured whether or not a log is attached.

struct SpanRecord {
  int id = 0;
  int parent = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Reserves a span's id (its children are recorded before it ends).
  int open(int parent, std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(SpanRecord{id, parent, std::string(name), 0.0, 0.0});
    return id;
  }
  void close(int id, Clock::time_point start, Clock::time_point end) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].start_s =
        seconds_between(origin_, start);
    spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
  }

  std::string to_json(std::string_view run_id) const {
    std::string out = "{\"run_id\":" + json_string(run_id) + ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out += i == 0 ? "" : ",";
      out += "{\"id\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"name\":" + json_string(s.name) +
             ",\"start_s\":" + json_number(s.start_s) +
             ",\"end_s\":" + json_number(s.end_s) + "}";
    }
    out += "]}";
    return out;
  }

 private:
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// A timed scope; records a span on close when a log is attached.
class Span {
 public:
  Span(SpanLog* log, int parent, std::string_view name)
      : log_(log), start_(Clock::now()) {
    if (log_ != nullptr) {
      id_ = log_->open(parent, name);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double close() {
    if (!closed_) {
      end_ = Clock::now();
      closed_ = true;
      if (log_ != nullptr) {
        log_->close(id_, start_, end_);
      }
    }
    return seconds_between(start_, end_);
  }
  int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  Clock::time_point start_;
  Clock::time_point end_;
  int id_ = -1;
  bool closed_ = false;
};

// ----------------------------------------------------------------- record --

struct Record {
  std::map<std::string, std::vector<double>> samples;  // per-call values
  std::map<std::string, double> exact;                 // one value per run
  std::map<std::string, double> reference;             // oracle values
  std::vector<double> setup_wall;
  std::vector<double> round_wall;  // untraced timed rounds
  std::vector<double> round_cpu;
  std::vector<double> round_attempts;
  std::vector<double> traced_round_wall;
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void sample(const std::string& name, double v) { samples[name].push_back(v); }

  /// One estimate checked: counts as failed when any problem is listed.
  void check(const std::string& label,
             const std::vector<std::string>& problems) {
    ++checked;
    if (problems.empty()) {
      return;
    }
    ++failed;
    for (const std::string& p : problems) {
      if (messages.size() < 64) {
        messages.push_back(label + ": " + p);
      }
    }
  }
};

/// Appends a problem unless `ok`.
void require(std::vector<std::string>& problems, bool ok, std::string what) {
  if (!ok) {
    problems.push_back(std::move(what));
  }
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

/// A closed reference band [lo, hi] on a routability estimate.
struct Band {
  double lo = 0.0;
  double hi = 1.0;
  const char* relation = "";
};

void check_band(std::vector<std::string>& problems, double value,
                const Band& band) {
  require(problems, value >= band.lo && value <= band.hi,
          fmt("routability %.6f outside reference band [%.6f, %.6f]", value,
              band.lo, band.hi) +
              " (" + band.relation + ")");
}

std::vector<std::string> dense_problems(const sim::RoutabilityEstimate& e,
                                        const Band& band) {
  std::vector<std::string> p;
  require(p, e.routed.trials == e.hops.count() + e.failures.total(),
          "taxonomy balance attempts == delivered + sum fail_* violated");
  require(p, e.routed.successes == e.hops.count(),
          "successes != delivered hop count");
  require(p, e.hop_limit_hits() == 0, "hop_limit_hits canary nonzero");
  require(p, e.failures[obs::RouteFailure::kCacheDeadOwner] == 0,
          "fail_cache_dead_owner canary nonzero");
  require(p, e.routed.trials > 0, "no attempts");
  check_band(p, e.routability(), band);
  return p;
}

std::vector<std::string> sparse_problems(const sparse::SparseEstimate& e,
                                         const Band& band) {
  std::vector<std::string> p;
  require(p, e.attempts == e.hops.count() + e.failures.total(),
          "taxonomy balance attempts == delivered + sum fail_* violated");
  require(p, e.hop_limit_hits() == 0, "hop_limit_hits canary nonzero");
  require(p, e.failures[obs::RouteFailure::kCacheDeadOwner] == 0,
          "fail_cache_dead_owner canary nonzero");
  require(p, e.cache_hits <= e.cache_probes, "cache_hits > cache_probes");
  require(p, e.attempts > 0, "no attempts");
  check_band(p, e.routability(), band);
  return p;
}

bool same_counters(const sim::RoutabilityEstimate& a,
                   const sim::RoutabilityEstimate& b) {
  return a.routed.trials == b.routed.trials &&
         a.routed.successes == b.routed.successes && a.hops == b.hops &&
         a.failures == b.failures;
}

bool same_result(const churn::SparseChurnResult& a,
                 const churn::SparseChurnResult& b) {
  return a.shards == b.shards && a.per_round == b.per_round &&
         a.overall == b.overall && a.mean_population == b.mean_population &&
         a.mean_alive_fraction == b.mean_alive_fraction &&
         a.mean_entry_age == b.mean_entry_age && a.load_max == b.load_max &&
         a.load_p99 == b.load_p99 && a.load_cv == b.load_cv;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;  // record path; the traced run's spans go beside it
};

/// Worker threads of every workload (recorded with the run).
constexpr unsigned kThreads = 4;
/// Set-ups per run; run.py reports their median as setup_s.
constexpr int kSetupReps = 3;
/// Timed rounds per run at least, however short --seconds is.
constexpr int kMinRounds = 3;

// ============================================================ static_grid ==

/// Dense overlay g of kDenseNames, as the repository's harnesses build it
/// (deterministic Chord fingers, Symphony with one near neighbour and one
/// shortcut).
std::unique_ptr<sim::Overlay> make_dense_overlay(int g,
                                                 const sim::IdSpace& space,
                                                 math::Rng& rng) {
  switch (g) {
    case 0:
      return std::make_unique<sim::TreeOverlay>(space, rng);
    case 1:
      return std::make_unique<sim::HypercubeOverlay>(space);
    case 2:
      return std::make_unique<sim::XorOverlay>(space, rng);
    case 3:
      return std::make_unique<sim::ChordOverlay>(space, rng);
    default:
      return std::make_unique<sim::SymphonyOverlay>(space, 1, 1, rng);
  }
}

struct StaticWorld {
  sim::IdSpace space{kDenseBits};
  std::vector<std::unique_ptr<sim::Overlay>> dense;
  std::unique_ptr<sim::FailureScenario> dense_failures;
  std::unique_ptr<sparse::SparseIdSpace> sparse_space;
  std::unique_ptr<sparse::SparseChordOverlay> ring;
  std::unique_ptr<sparse::SparseKademliaOverlay> kademlia;
  std::unique_ptr<sparse::SparseFailure> sparse_failures;
};

struct StaticRound {
  sim::RoutabilityEstimate dense[kDenseCount];
  sparse::SparseEstimate ring;
  sparse::SparseEstimate kademlia;
  sparse::SparseWorkloadReport zipf;
  std::uint64_t attempts = 0;
};

class StaticGrid {
 public:
  StaticGrid(const Options& opt, Record& rec, SpanLog* spans)
      : opt_(opt), rec_(rec), spans_(spans) {
    double a[kDenseCount] = {};
    for (int g = 0; g < kDenseCount; ++g) {
      const auto geometry =
          g == 4 ? core::make_geometry(core::GeometryKind::kSymphony,
                                       core::SymphonyParams{1, 1})
                 : core::make_geometry(kDenseNames[g]);
      a[g] = core::evaluate_routability(*geometry, kDenseBits, kStaticQ)
                 .conditional_success;
      rec_.reference[std::string("sim.analytic.") + kDenseNames[g]] = a[g];
    }
    // The relations test_sim_vs_analysis pins between the simulated
    // overlays and the RCM model (conditional success fraction).
    dense_band_[0] = {a[0] - 0.02, a[0] + 0.02, "tree: exact model +-0.02"};
    dense_band_[1] = {a[1] - 0.015, a[1] + 0.015,
                      "hypercube: exact model +-0.015"};
    dense_band_[2] = {a[2] - 0.10, a[2] + 0.05,
                      "xor: documented bias [-0.10, +0.05]"};
    dense_band_[3] = {a[3] - 0.005, a[3] + 0.02,
                      "ring: lower bound, within 0.02 at q <= 0.1"};
    dense_band_[4] = {0.0, a[4] + 0.01, "symphony: model is an upper bound"};
    // The density reduction test_sparse pins: sparse routability tracks the
    // dense model at d' = log2 N within 0.08.
    for (int k = 0; k < 2; ++k) {
      const auto geometry = core::make_geometry(k == 0 ? "ring" : "xor");
      const double predicted =
          sparse::predict_sparse_routability(*geometry, kSparseNodes, kStaticQ)
              .conditional_success;
      sparse_band_[k] = {predicted - 0.08, std::min(1.0, predicted + 0.08),
                         "density reduction at d' = log2 N, +-0.08"};
      rec_.reference[k == 0 ? "sparse.predicted.ring"
                            : "sparse.predicted.xor"] = predicted;
    }
    // Zipf GETs route to object owners and cache hits skip dead regions:
    // the uniform prediction stays a lower bound.
    zipf_band_ = {sparse_band_[0].lo, 1.0,
                  "density-reduction lower bound (caching only lifts it)"};
  }

  static std::string shards() {
    return std::to_string(kStaticShards) + " (Zipf call " +
           std::to_string(kZipfShards) + ")";
  }

  /// Builds every structure and runs the untimed warm-up round.
  void setup(int rep) {
    world_.reset();  // one set of structures alive at a time
    Span setup_span(spans_, -1, "setup");
    const int parent = setup_span.id();
    auto w = std::make_unique<StaticWorld>();
    {
      Span build(spans_, parent, "sim.build");
      for (int g = 0; g < kDenseCount; ++g) {
        math::Rng rng = input_rng(opt_.seed, 10 + static_cast<unsigned>(g));
        Span s(spans_, build.id(),
               std::string("sim.overlay_ctor.") + kDenseNames[g]);
        w->dense.push_back(make_dense_overlay(g, w->space, rng));
      }
      math::Rng fail_rng = input_rng(opt_.seed, 20);
      Span s(spans_, build.id(), "sim.FailureScenario");
      w->dense_failures =
          std::make_unique<sim::FailureScenario>(w->space, kStaticQ, fail_rng);
      s.close();
      rec_.sample("sim.build_s", build.close());
    }
    {
      math::Rng space_rng = input_rng(opt_.seed, 30);
      Span s(spans_, parent, "sparse.SparseIdSpace");
      w->sparse_space = std::make_unique<sparse::SparseIdSpace>(
          kSparseKeyBits, kSparseNodes, space_rng);
      rec_.sample("sparse.build_s.space", s.close());
    }
    {
      Span s(spans_, parent, "sparse.SparseChordOverlay");
      w->ring = std::make_unique<sparse::SparseChordOverlay>(*w->sparse_space);
      rec_.sample("sparse.build_s.ring", s.close());
    }
    {
      math::Rng rng = input_rng(opt_.seed, 31);
      Span s(spans_, parent, "sparse.SparseKademliaOverlay");
      w->kademlia = std::make_unique<sparse::SparseKademliaOverlay>(
          *w->sparse_space, rng);
      rec_.sample("sparse.build_s.xor", s.close());
    }
    {
      math::Rng rng = input_rng(opt_.seed, 32);
      Span s(spans_, parent, "sparse.SparseFailure");
      w->sparse_failures = std::make_unique<sparse::SparseFailure>(
          *w->sparse_space, kStaticQ, rng);
      rec_.sample("sparse.build_s.failure", s.close());
    }
    world_ = std::move(w);
    {
      Span warm(spans_, parent, "warmup_round");
      StaticRound r = run(0, spans_, /*profiled=*/false, warm.id());
      check(r, "warmup");
      if (rep == 0) {
        reference_ = std::move(r);
      } else {
        identical(r, reference_, "set-up repeat");
      }
    }
    rec_.setup_wall.push_back(setup_span.close());
  }

  /// One round: every estimate call of the workload with call-i inputs,
  /// spanned into `log` (when not null).  `profiled` attaches PhaseProfile
  /// sinks and records the per-call samples (traced rounds only).
  StaticRound run(std::uint64_t i, SpanLog* log, bool profiled, int parent) {
    StaticRound r;
    const StaticWorld& w = *world_;
    const std::uint64_t call = kCallStream + i;
    for (int g = 0; g < kDenseCount; ++g) {
      obs::PhaseProfile profile;
      sim::ParallelOptions o{.pairs = kStaticPairs,
                             .threads = kThreads,
                             .shards = kStaticShards};
      o.profile = profiled ? &profile : nullptr;
      const math::Rng rng =
          input_rng(opt_.seed, call).fork(static_cast<unsigned>(g));
      Span s(log, parent,
             std::string("sim.estimate_routability_parallel.") +
                 kDenseNames[g]);
      r.dense[g] = sim::estimate_routability_parallel(
          *w.dense[static_cast<std::size_t>(g)], *w.dense_failures, o, rng);
      const double wall = s.close();
      r.attempts += r.dense[g].routed.trials;
      if (profiled) {
        const std::string geom = kDenseNames[g];
        rec_.sample("sim.route_s." + geom, wall);
        record_ns_per_hop("sim.ns_per_hop." + geom, wall,
                          r.dense[g].hops.sum());
        rec_.sample("pool.busy_frac", profile.total() / (wall * kThreads));
      }
    }
    const auto sparse_call = [&](const sparse::SparseOverlay& overlay,
                                 std::uint64_t stream, const char* name,
                                 bool zipf) {
      obs::PhaseProfile profile;
      sparse::SparseParallelOptions o{
          .pairs = kStaticPairs,
          .threads = kThreads,
          .shards = zipf ? kZipfShards : kStaticShards};
      if (zipf) {
        o.workload.zipf_s = kZipfS;
        o.workload.cache_entries = kCacheEntries;
        o.workload.record_load = true;
      }
      o.profile = profiled ? &profile : nullptr;
      const math::Rng rng = input_rng(opt_.seed, call).fork(stream);
      Span s(log, parent,
             std::string(zipf ? "sparse.estimate_workload_parallel."
                              : "sparse.estimate_routability_parallel.") +
                 name);
      sparse::SparseWorkloadReport report;
      if (zipf) {
        report = sparse::estimate_workload_parallel(overlay, *w.sparse_failures,
                                                    o, rng);
      } else {
        report.estimate = sparse::estimate_routability_parallel(
            overlay, *w.sparse_failures, o, rng);
      }
      const double wall = s.close();
      if (profiled) {
        rec_.sample(std::string("sparse.route_s.") + name, wall);
        record_ns_per_hop(std::string("sparse.ns_per_hop.") + name, wall,
                          report.estimate.hops.sum());
        rec_.sample("pool.busy_frac", profile.total() / (wall * kThreads));
      }
      return report;
    };
    r.ring = sparse_call(*w.ring, 5, "ring", false).estimate;
    r.kademlia = sparse_call(*w.kademlia, 6, "xor", false).estimate;
    r.zipf = sparse_call(*w.ring, 7, "zipf", true);
    r.attempts +=
        r.ring.attempts + r.kademlia.attempts + r.zipf.estimate.attempts;
    return r;
  }

  void check(const StaticRound& r, const std::string& label) {
    for (int g = 0; g < kDenseCount; ++g) {
      rec_.check(label + " sim " + kDenseNames[g],
                 dense_problems(r.dense[g], dense_band_[g]));
    }
    rec_.check(label + " sparse ring",
               sparse_problems(r.ring, sparse_band_[0]));
    rec_.check(label + " sparse xor",
               sparse_problems(r.kademlia, sparse_band_[1]));
    std::vector<std::string> p = sparse_problems(r.zipf.estimate, zipf_band_);
    require(p, r.zipf.estimate.cache_probes > 0, "path cache never probed");
    require(p, r.zipf.load.total > 0, "load recording produced no counts");
    rec_.check(label + " sparse zipf", p);
  }

  static std::uint64_t count(const StaticRound& r) { return r.attempts; }

  void identical(const StaticRound& a, const StaticRound& b,
                 const std::string& label) {
    std::vector<std::string> p;
    for (int g = 0; g < kDenseCount; ++g) {
      require(p, same_counters(a.dense[g], b.dense[g]),
              std::string("sim ") + kDenseNames[g] + " counters differ");
    }
    require(p, a.ring == b.ring, "sparse ring counters differ");
    require(p, a.kademlia == b.kademlia, "sparse xor counters differ");
    require(p, a.zipf.estimate == b.zipf.estimate && a.zipf.load == b.zipf.load,
            "sparse zipf counters differ");
    rec_.check(label + " bit-identity", p);
  }

  /// Exact counts of the reference round (call 0) and computed sizes.
  void finish() {
    const StaticRound& r = reference_;
    for (int g = 0; g < kDenseCount; ++g) {
      rec_.exact[std::string("sim.hops.") + kDenseNames[g]] =
          static_cast<double>(r.dense[g].hops.sum());
    }
    rec_.exact["sparse.hops.ring"] = static_cast<double>(r.ring.hops.sum());
    rec_.exact["sparse.hops.xor"] = static_cast<double>(r.kademlia.hops.sum());
    rec_.exact["sparse.hops.zipf"] =
        static_cast<double>(r.zipf.estimate.hops.sum());
    rec_.exact["sparse.cache_hit_rate"] = r.zipf.estimate.cache_hit_rate();
    // Computed from array sizes (not measured traffic): the bytes each
    // kernel's tables occupy, to set against the L2/L3 sizes.
    const StaticWorld& w = *world_;
    const double ring_bytes =
        static_cast<double>(w.ring->route_packed().size()) * 8.0 +
        static_cast<double>(w.ring->route_progress().size()) * 8.0 +
        static_cast<double>(w.ring->route_targets().size()) *
            sizeof(sparse::NodeIndex) +
        static_cast<double>(w.ring->route_lens().size());
    rec_.exact["sparse.table_bytes.ring"] = ring_bytes;
    rec_.exact["sparse.table_bytes.xor"] =
        static_cast<double>(w.kademlia->contact_table().size()) *
        sizeof(sparse::NodeIndex);
  }

 private:
  void record_ns_per_hop(const std::string& name, double wall,
                         std::uint64_t hops) {
    if (hops > 0) {
      rec_.sample(name, wall * kThreads * 1e9 / static_cast<double>(hops));
    }
  }

  const Options& opt_;
  Record& rec_;
  SpanLog* spans_;
  std::unique_ptr<StaticWorld> world_;
  StaticRound reference_;
  Band dense_band_[kDenseCount];
  Band sparse_band_[2];
  Band zipf_band_;
};

// ======================================================= churn_sync_sweep ==

/// The sync sweep: run_sparse_churn_sweep over rho in kSweepRho, one point
/// (trajectory) per rho, each with kChurnShards shard worlds.
class ChurnSweep {
 public:
  ChurnSweep(const Options& opt, Record& rec, SpanLog* spans)
      : opt_(opt),
        rec_(rec),
        spans_(spans),
        params_{.death_per_round = kChurnRate,
                .rebirth_per_round = kChurnRate,
                .refresh_interval = kRefreshRounds},
        availability_(churn::availability(params_)) {
    // Exactly the per-point config and options run_sparse_churn_sweep
    // derives, so the replay can build the same worlds.
    config_ = churn::SparseChurnConfig{
        .bits = kChurnKeyBits,
        .capacity = churn::capacity_for_population(kChurnPopulation, params_),
        .successors = kSuccessors,
        .shortcuts = 6};
    options_ = churn::TrajectoryOptions{.warmup_rounds = kWarmupRounds,
                                        .measured_rounds = kMeasuredRounds,
                                        .pairs_per_round = kChurnPairs,
                                        .shards = kChurnShards,
                                        .threads = kThreads};
    // Successor lists (s > 0) keep the ring above 0.9 under pd = pr = 0.05,
    // R = 30 (test_sparse_churn); the table-only no-return bridge is a
    // lower bound.
    const double q_nr = churn::effective_q_no_return(params_);
    const double bridge =
        sparse::predict_sparse_routability(*core::make_geometry("ring"),
                                           kChurnPopulation, q_nr)
            .conditional_success;
    rec_.reference["churn.q_nr"] = q_nr;
    rec_.reference["churn.bridge.ring"] = bridge;
    band_ = {std::max(0.9, bridge - 0.05), 1.0,
             "s=4 successor lists > 0.9 and >= q_nr bridge - 0.05"};
  }

  static std::string shards() { return std::to_string(kChurnShards); }

  /// Constructs the call-0 shard worlds through the public constructor
  /// (each discarded once built, so no more worlds are alive at once than
  /// the engine itself keeps), then runs the untimed warm-up call.
  void setup(int rep) {
    Span setup_span(spans_, -1, "setup");
    {
      Span build(spans_, setup_span.id(), "churn.world_build");
      const std::vector<double> seconds =
          for_each_world([&](std::size_t point, std::uint64_t shard) {
            Span s(spans_, build.id(), "churn.SparseChurnWorld");
            const churn::SparseChurnWorld world = make_world(point, shard);
            return s.close();
          });
      for (const double v : seconds) {
        rec_.sample("churn.world_build_s", v);
      }
    }
    {
      Span warm(spans_, setup_span.id(), "warmup_call");
      std::vector<churn::SparseChurnResult> r =
          run(0, spans_, /*profiled=*/false, warm.id());
      check(r, "warmup");
      if (rep == 0) {
        reference_ = std::move(r);
      } else {
        identical(r, reference_, "set-up repeat");
      }
    }
    rec_.setup_wall.push_back(setup_span.close());
  }

  /// One sweep call with call-i inputs, spanned into `log` (when not
  /// null).  `profiled` attaches the PhaseProfile sink and records the
  /// per-call samples (traced calls only).  Returns one result per rho.
  std::vector<churn::SparseChurnResult> run(std::uint64_t i, SpanLog* log,
                                            bool profiled, int parent) {
    obs::PhaseProfile profile;
    churn::SparseChurnSweepSpec spec;
    spec.geometry = churn::SparseChurnGeometry::kChord;
    spec.bits = {kChurnKeyBits};
    spec.populations = {kChurnPopulation};
    spec.churn = {params_};
    spec.repair = kSweepRho;
    spec.successors = {kSuccessors};
    spec.options = options_;
    spec.options.profile = profiled ? &profile : nullptr;
    spec.seed = call_seed(i);
    Span s(log, parent, "churn.run_sparse_churn_sweep");
    std::vector<churn::SparseChurnResult> out;
    for (auto& point : churn::run_sparse_churn_sweep(spec)) {
      out.push_back(std::move(point.result));
    }
    const double wall = s.close();
    if (profiled) {
      rec_.sample("pool.busy_frac", profile.total() / (wall * kThreads));
      rec_.sample("churn.lifecycle_s", profile[obs::Phase::kLifecycle]);
      rec_.sample("churn.refresh_repair_s",
                  profile[obs::Phase::kRefreshRepair]);
      rec_.sample("churn.commit_s", profile[obs::Phase::kMembershipCommit]);
      rec_.sample("churn.merge_s", profile[obs::Phase::kMerge]);
      rec_.sample("churn.route_s", profile[obs::Phase::kRoute]);
      std::uint64_t hops = 0;
      for (const auto& r : out) {
        hops += r.overall.hops.sum();
      }
      if (hops > 0) {
        rec_.sample("churn.ns_per_hop", profile[obs::Phase::kRoute] * 1e9 /
                                            static_cast<double>(hops));
      }
    }
    return out;
  }

  static std::uint64_t count(const std::vector<churn::SparseChurnResult>& r) {
    std::uint64_t n = 0;
    for (const auto& x : r) {
      n += x.overall.attempts;
    }
    return n;
  }

  void check(const std::vector<churn::SparseChurnResult>& results,
             const std::string& label) {
    for (std::size_t k = 0; k < results.size(); ++k) {
      const churn::SparseChurnResult& r = results[k];
      std::vector<std::string> p = sparse_problems(r.overall, band_);
      require(p,
              r.per_round.size() == static_cast<std::size_t>(kMeasuredRounds),
              "wrong number of measured rounds");
      for (const auto& round : r.per_round) {
        require(p,
                round.attempts == round.hops.count() + round.failures.total(),
                "per-round taxonomy balance violated");
      }
      // Slot-level lifecycle stationarity: alive fraction tracks
      // a = pr / (pd + pr) (test_sparse_churn pins +-0.03).
      require(p, std::fabs(r.mean_alive_fraction - availability_) <= 0.03,
              fmt("alive fraction %.4f not within 0.03 of a = %.4f",
                  r.mean_alive_fraction, availability_));
      rec_.check(label + " point " + std::to_string(k), p);
    }
  }

  void identical(const std::vector<churn::SparseChurnResult>& a,
                 const std::vector<churn::SparseChurnResult>& b,
                 const std::string& label) {
    std::vector<std::string> p;
    require(p, a.size() == b.size(), "point count differs");
    for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
      require(p, same_result(a[k], b[k]),
              "point " + std::to_string(k) + " counters differ");
    }
    rec_.check(label + " bit-identity", p);
  }

  /// Replays call 0 world by world through the public SparseChurnWorld API
  /// (traced run only) and checks that the shard-order merge equals the
  /// engine's result.  The world-level spans, the exact joins/leaves and
  /// the unit costs come from here.
  void replay() {
    const std::size_t worlds = kSweepRho.size() * kChurnShards;
    std::vector<std::vector<sparse::SparseEstimate>> rounds(worlds);
    std::vector<obs::PhaseProfile> profiles(worlds);
    std::vector<std::uint64_t> joins(worlds, 0);
    std::vector<std::uint64_t> leaves(worlds, 0);
    // Per-world call durations; merged into the samples in world order
    // once the workers are done.
    std::vector<std::vector<double>> step_s(worlds);
    std::vector<std::vector<double>> measure_s(worlds);
    Span replay_span(spans_, -1, "replay");
    for_each_world([&](std::size_t point, std::uint64_t shard) {
      const std::size_t w = point * kChurnShards + shard;
      const int parent = replay_span.id();
      Span ctor(spans_, parent, "churn.SparseChurnWorld");
      churn::SparseChurnWorld world = make_world(point, shard);
      ctor.close();
      world.set_observer(&profiles[w], nullptr);
      for (int r = 0; r < kWarmupRounds + kMeasuredRounds; ++r) {
        Span step(spans_, parent, "churn.step");
        world.step();
        step_s[w].push_back(step.close());
        if (r >= kWarmupRounds) {
          Span measure(spans_, parent, "churn.measure");
          rounds[w].push_back(world.measure(kChurnPairs));
          measure_s[w].push_back(measure.close());
        }
      }
      joins[w] = world.total_joins();
      leaves[w] = world.total_leaves();
      return 0.0;
    });
    replay_span.close();

    std::vector<std::string> p;
    for (std::size_t point = 0; point < kSweepRho.size(); ++point) {
      for (std::size_t r = 0; r < static_cast<std::size_t>(kMeasuredRounds);
           ++r) {
        sparse::SparseEstimate pooled;
        for (std::uint64_t s = 0; s < kChurnShards; ++s) {
          pooled.merge(rounds[point * kChurnShards + s][r]);
        }
        require(p, pooled == reference_[point].per_round[r],
                "point " + std::to_string(point) + " round " +
                    std::to_string(r) +
                    ": replayed worlds differ from the engine's estimate");
      }
    }
    rec_.check("replay of call 0 through SparseChurnWorld", p);

    std::uint64_t total_joins = 0;
    std::uint64_t total_leaves = 0;
    double total_step_wall = 0.0;
    std::uint64_t total_steps = 0;
    obs::PhaseProfile merged;
    for (std::size_t w = 0; w < worlds; ++w) {
      total_joins += joins[w];
      total_leaves += leaves[w];
      merged.merge(profiles[w]);
      for (const double d : step_s[w]) {
        rec_.sample("churn.step_s", d);
        total_step_wall += d;
        ++total_steps;
      }
      for (const double d : measure_s[w]) {
        rec_.sample("churn.measure_s", d);
      }
    }
    // Exact counts of call 0: they move only when behaviour changes.
    std::uint64_t routes = 0;
    std::uint64_t hops = 0;
    obs::FailureTaxonomy failures;
    for (const auto& r : reference_) {
      routes += r.overall.attempts;
      hops += r.overall.hops.sum();
      failures.merge(r.overall.failures);
    }
    rec_.exact["churn.joins"] = static_cast<double>(total_joins);
    rec_.exact["churn.leaves"] = static_cast<double>(total_leaves);
    rec_.exact["churn.routes"] = static_cast<double>(routes);
    rec_.exact["churn.hops"] = static_cast<double>(hops);
    for (int c = 0; c < obs::kRouteFailureCount; ++c) {
      rec_.exact[std::string("churn.fail_") +
                 obs::to_string(static_cast<obs::RouteFailure>(c))] =
          static_cast<double>(failures.counts[c]);
    }
    // Unit costs over exactly the replayed work.
    if (total_joins > 0) {
      rec_.exact["churn.commit_ns_per_join"] =
          merged[obs::Phase::kMembershipCommit] * 1e9 /
          static_cast<double>(total_joins);
    }
    if (total_steps > 0) {
      rec_.exact["churn.step_ns_per_slot"] =
          total_step_wall * 1e9 /
          (static_cast<double>(total_steps) *
           static_cast<double>(config_.capacity));
    }
  }

 private:
  std::uint64_t call_seed(std::uint64_t i) const {
    return input_rng(opt_.seed, kCallStream + i).next_u64();
  }

  /// Shard `shard` world of point `point` of call 0, built from the
  /// generator the engine gives it: run_sparse_churn_sweep forks the
  /// point, the trajectory forks the shard.
  churn::SparseChurnWorld make_world(std::size_t point,
                                     std::uint64_t shard) const {
    return churn::SparseChurnWorld(
        churn::SparseChurnGeometry::kChord, config_, params_, kSweepRho[point],
        options_.max_hops, math::Rng(call_seed(0)).fork(point).fork(shard));
  }

  /// Runs fn(point, shard) for every world of a call on the workload's
  /// worker threads (the library's shard pool, one world per claim) and
  /// returns fn's values in world order.
  template <typename Fn>
  std::vector<double> for_each_world(Fn&& fn) const {
    const std::size_t worlds = kSweepRho.size() * kChurnShards;
    std::vector<double> values(worlds, 0.0);
    sim::run_sharded(worlds,
                     sim::PoolOptions{.threads = kThreads, .chunk = 1},
                     [&](std::uint64_t w) {
                       values[w] = fn(w / kChurnShards, w % kChurnShards);
                     });
    return values;
  }

  const Options& opt_;
  Record& rec_;
  SpanLog* spans_;
  churn::ChurnParams params_;
  double availability_;
  churn::SparseChurnConfig config_;
  churn::TrajectoryOptions options_;
  Band band_;
  std::vector<churn::SparseChurnResult> reference_;
};

// ============================================================== main loop ==

/// Runs the set-ups and the timed closed loop.  The timed rounds are split
/// into one segment after each set-up, so the run's measurements sample
/// its whole duration: on a shared machine whose speed drifts over tens of
/// seconds, that averages the drift instead of catching one phase of it.
/// `Workload` is StaticGrid or ChurnSweep.
template <typename Workload>
void run_workload(Workload& workload, const Options& opt, Record& rec,
                  SpanLog* spans) {
  std::uint64_t i = 0;  // call index; 0 is the warm-up inside set-up
  double timed = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.setup(rep);
    const double segment_end =
        opt.seconds * static_cast<double>(rep + 1) / kSetupReps;
    const int min_rounds =
        (kMinRounds * (rep + 1) + kSetupReps - 1) / kSetupReps;
    while (timed < segment_end || static_cast<int>(i) < min_rounds) {
      ++i;
      // In the traced run each round runs untraced and traced with the
      // same inputs, alternating which goes first so drift cancels; their
      // counters must be bit-identical.
      const bool traced_first = opt.trace && (i % 2 == 0);
      decltype(workload.run(i, nullptr, false, -1)) results[2];
      for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
        const bool traced = opt.trace && ((pass == 0) == traced_first);
        const double cpu0 = process_cpu_seconds();
        Span round_span(traced ? spans : nullptr, -1, "round");
        results[pass] = workload.run(i, traced ? spans : nullptr, traced,
                                     round_span.id());
        const double wall = round_span.close();
        const double cpu = process_cpu_seconds() - cpu0;
        workload.check(results[pass], "round " + std::to_string(i) +
                                          (traced ? " traced" : ""));
        if (traced) {
          rec.traced_round_wall.push_back(wall);
        } else {
          timed += wall;
          rec.round_wall.push_back(wall);
          rec.round_cpu.push_back(cpu);
          rec.round_attempts.push_back(
              static_cast<double>(workload.count(results[pass])));
        }
      }
      if (opt.trace) {
        workload.identical(results[0], results[1], "traced vs untraced");
      }
    }
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag without value: " + std::string(flag));
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out") {
      opt.out = value;
    } else {
      throw std::invalid_argument("unknown flag: " + std::string(flag));
    }
  }
  if (opt.workload != "static_grid" && opt.workload != "churn_sync_sweep") {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  if (!(opt.seconds > 0.0) || opt.out.empty()) {
    throw std::invalid_argument("need --seconds > 0 and --out");
  }
  return opt;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_number(v[i]);
  }
  return out + "]";
}

template <typename Map, typename Format>
std::string json_object(const Map& map, Format format) {
  std::string out = "{";
  for (const auto& [name, value] : map) {
    out += (out.size() == 1 ? "" : ",") + json_string(name) + ":" +
           format(value);
  }
  return out + "}";
}

std::string to_json(const Options& opt, const Record& rec,
                    const std::string& shards) {
  std::string out = "{";
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  out += "\"meta\":{\"workload\":" + json_string(opt.workload) +
         ",\"seed\":" + std::to_string(opt.seed) +
         ",\"threads\":" + std::to_string(kThreads) +
         ",\"shards\":" + json_string(shards) +
         ",\"setup_reps\":" + std::to_string(kSetupReps) +
         ",\"seconds\":" + json_number(opt.seconds) +
         ",\"trace\":" + (opt.trace ? "true" : "false") +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"l2_bytes\":" + std::to_string(l2) +
         ",\"l3_bytes\":" + std::to_string(l3) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + json_string(PERFBENCH_CXX_FLAGS) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) + "}";
  out += ",\"setup_wall_s\":" + json_list(rec.setup_wall);
  out += ",\"round_wall_s\":" + json_list(rec.round_wall);
  out += ",\"round_cpu_s\":" + json_list(rec.round_cpu);
  out += ",\"round_attempts\":" + json_list(rec.round_attempts);
  out += ",\"traced_round_wall_s\":" + json_list(rec.traced_round_wall);
  out += ",\"samples\":" + json_object(rec.samples, json_list);
  out += ",\"exact\":" + json_object(rec.exact, json_number);
  out += ",\"reference\":" + json_object(rec.reference, json_number);
  out += ",\"checks\":{\"checked\":" + std::to_string(rec.checked) +
         ",\"failed\":" + std::to_string(rec.failed) + ",\"messages\":[";
  for (std::size_t i = 0; i < rec.messages.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_string(rec.messages[i]);
  }
  out += "]},\"peak_rss_kb\":" + std::to_string(peak_rss_kb()) + "}";
  return out;
}

/// The traced run's span file beside the record: `x.json` -> `x-spans.json`.
std::string spans_path(const std::string& out) {
  const std::string_view suffix = ".json";
  const bool has_suffix =
      out.size() >= suffix.size() &&
      out.compare(out.size() - suffix.size(), suffix.size(), suffix) == 0;
  return (has_suffix ? out.substr(0, out.size() - suffix.size()) : out) +
         "-spans.json";
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("short write to " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    const auto origin = Clock::now();
    SpanLog span_log(origin);
    SpanLog* const spans = opt.trace ? &span_log : nullptr;
    Record rec;
    std::string shards;
    if (opt.workload == "static_grid") {
      StaticGrid grid(opt, rec, spans);
      run_workload(grid, opt, rec, spans);
      grid.finish();
      shards = StaticGrid::shards();
    } else {
      ChurnSweep sweep(opt, rec, spans);
      run_workload(sweep, opt, rec, spans);
      if (opt.trace) {
        sweep.replay();
      }
      shards = ChurnSweep::shards();
    }
    write_file(opt.out, to_json(opt, rec, shards));
    if (opt.trace) {
      const std::string run_id =
          opt.workload + "-seed" + std::to_string(opt.seed) + "-pid" +
          std::to_string(static_cast<long>(getpid()));
      write_file(spans_path(opt.out), span_log.to_json(run_id));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 2;
  }
}
