// The heavy-traffic workload layer: Zipf object popularity (math/zipf.hpp),
// per-node load accounting (sim/load_stats.hpp + the flat sparse engine),
// finger-path caching, and r-way replication under churn
// (churn/sparse_trajectory.hpp).  The determinism tests mirror
// test_flat_sparse: fixed shards, varying thread counts, exact equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "churn/sparse_trajectory.hpp"
#include "common/check.hpp"
#include "math/rng.hpp"
#include "math/zipf.hpp"
#include "sim/load_stats.hpp"
#include "sim/shard_pool.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"

namespace dht::sparse {
namespace {

TEST(Zipf, RankFrequencyMatchesTheLaw) {
  // s = 1.0 over 1000 ranks: empirical frequencies of the head ranks must
  // match the analytic pmf, and the rank-frequency ratio f(1)/f(10) must
  // come out ~10 (the log-log slope of -1).
  const math::ZipfSampler zipf(1000, 1.0);
  math::CounterRng rng(42);
  constexpr std::uint64_t kDraws = 400000;
  std::vector<std::uint64_t> counts(1000, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    ++counts[zipf.sample(rng)];
  }
  for (const std::uint64_t rank : {0, 1, 4, 9, 99}) {
    const double expected = zipf.probability(rank) * kDraws;
    EXPECT_NEAR(counts[rank], expected, 5.0 * std::sqrt(expected))
        << "rank " << rank;
  }
  const double ratio = static_cast<double>(counts[0]) /
                       static_cast<double>(counts[9]);
  EXPECT_NEAR(ratio, 10.0, 1.0);
}

TEST(Zipf, ZeroSkewIsUniform) {
  const math::ZipfSampler zipf(64, 0.0);
  for (std::uint64_t r = 0; r < 64; ++r) {
    EXPECT_NEAR(zipf.probability(r), 1.0 / 64.0, 1e-12);
  }
  EXPECT_EQ(zipf.invert(0.0), 0u);
  EXPECT_EQ(zipf.invert(0.999999), 63u);
}

TEST(Zipf, DeterministicAcrossEqualStreams) {
  // Sampling is one uniform01 draw + a pure CDF inversion, so two equal
  // CounterRng streams must reproduce the identical rank sequence.
  const math::ZipfSampler zipf(500, 1.1);
  math::CounterRng a(7);
  math::CounterRng b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf.sample(a), zipf.sample(b));
  }
}

// The serial definition of the table: partial sums of (r + 1)^-s in rank
// order, normalized, top entry pinned to 1.
std::vector<double> serial_zipf_cdf(std::uint64_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    total += s == 0.0 ? 1.0 : std::pow(static_cast<double>(r + 1), -s);
    cdf[r] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }
  cdf.back() = 1.0;
  return cdf;
}

TEST(Zipf, TableMatchesSerialReference) {
  const auto pooled = [](std::uint64_t n, double s) {
    // Small blocks on 4 threads: many blocks, filled out of order.
    return math::ZipfSampler(n, s, [](std::uint64_t count, const auto& fill) {
      sim::run_blocks(count, 1000, 4, fill);
    });
  };
  for (const auto& [n, s] : {std::pair<std::uint64_t, double>{100003, 1.1},
                             std::pair<std::uint64_t, double>{5, 0.0}}) {
    const math::ZipfSampler zipf = pooled(n, s);
    const std::vector<double> reference = serial_zipf_cdf(n, s);
    ASSERT_EQ(zipf.cdf().size(), reference.size());
    for (std::uint64_t r = 0; r < n; ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(zipf.cdf()[r]),
                std::bit_cast<std::uint64_t>(reference[r]))
          << "n " << n << " s " << s << " rank " << r;
    }
    EXPECT_TRUE(zipf.cdf() == math::ZipfSampler(n, s).cdf());
  }
  const math::ZipfSampler skewed = pooled(100003, 1.1);
  EXPECT_EQ(skewed.invert(0.0), 0u);
  EXPECT_EQ(skewed.invert(0.25), 3u);
  EXPECT_EQ(skewed.invert(0.5), 41u);
  EXPECT_EQ(skewed.invert(0.75), 987u);
  EXPECT_EQ(skewed.invert(0.9), 12143u);
  EXPECT_EQ(skewed.invert(0.99), 79296u);
  EXPECT_EQ(skewed.invert(0.999999), 100000u);
  const math::ZipfSampler flat = pooled(5, 0.0);
  EXPECT_EQ(flat.invert(0.0), 0u);
  EXPECT_EQ(flat.invert(0.2), 1u);  // cdf[0] == 0.2 exactly: not > u
  EXPECT_EQ(flat.invert(0.39), 1u);
  EXPECT_EQ(flat.invert(0.6), 3u);
  EXPECT_EQ(flat.invert(0.999), 4u);
}

TEST(LoadSummary, ExactDigestAndFilter) {
  const std::vector<std::uint64_t> loads = {5, 0, 100, 3, 7, 0, 9, 1};
  // Unfiltered: 8 entries, total 125, max 100.
  const sim::LoadSummary all = sim::summarize_load(loads);
  EXPECT_EQ(all.nodes, 8u);
  EXPECT_EQ(all.total, 125u);
  EXPECT_EQ(all.max, 100u);
  EXPECT_NEAR(all.mean, 125.0 / 8.0, 1e-12);
  // Even indices only: {5, 100, 7, 9}.
  const sim::LoadSummary even = sim::summarize_load(
      loads, [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(even.nodes, 4u);
  EXPECT_EQ(even.total, 121u);
  EXPECT_EQ(even.p99, 100u);  // ceil-index p99 of 4 samples = the max
  EXPECT_GT(even.cv, 0.0);
}

/// The summary by a full sort: p99 read at the ceil index of the sorted
/// copy, moments from exact integer sums.
sim::LoadSummary sorted_reference(std::vector<std::uint64_t> loads) {
  sim::LoadSummary out;
  out.nodes = loads.size();
  std::sort(loads.begin(), loads.end());
  unsigned __int128 sum = 0;
  unsigned __int128 sum_sq = 0;
  for (const std::uint64_t v : loads) {
    sum += v;
    sum_sq += static_cast<unsigned __int128>(v) * v;
  }
  out.total = static_cast<std::uint64_t>(sum);
  out.max = loads.back();
  // The smallest index i with 100 i >= 99 (m - 1).
  out.p99 = loads[(99 * (loads.size() - 1) + 99) / 100];
  const double n = static_cast<double>(loads.size());
  out.mean = static_cast<double>(sum) / n;
  const double centered =
      static_cast<double>(sum_sq) - n * out.mean * out.mean;
  const double variance = (centered < 0.0 ? 0.0 : centered) / n;
  out.cv = out.mean > 0.0 ? std::sqrt(variance) / out.mean : 0.0;
  return out;
}

TEST(LoadSummary, MatchesSortedReference) {
  math::Rng rng(42);
  std::vector<std::vector<std::uint64_t>> cases;
  // Random loads over a wide range, in several sizes around the p99 index
  // steps (m - 1 crossing multiples of 100).
  for (const std::size_t m : {2u, 99u, 100u, 101u, 201u, 1000u, 94321u}) {
    std::vector<std::uint64_t> loads(m);
    for (auto& v : loads) {
      v = rng.uniform_below(std::uint64_t{1} << 40);
    }
    cases.push_back(std::move(loads));
  }
  cases.push_back(std::vector<std::uint64_t>(1234, 77));  // all equal
  cases.push_back({9});                                   // single element
  // Tie-heavy: a handful of distinct values, the p99 inside a long run.
  std::vector<std::uint64_t> ties(5000);
  for (auto& v : ties) {
    v = rng.uniform_below(4) * 1000;
  }
  cases.push_back(std::move(ties));
  for (const auto& loads : cases) {
    SCOPED_TRACE("m=" + std::to_string(loads.size()));
    const sim::LoadSummary got = sim::summarize_load(loads);
    const sim::LoadSummary want = sorted_reference(loads);
    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.p99, want.p99);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.cv, want.cv);
  }
}

struct ChordInstance {
  std::unique_ptr<SparseIdSpace> space;
  std::unique_ptr<SparseChordOverlay> overlay;
};

ChordInstance make_chord(int bits, std::uint64_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  ChordInstance inst;
  inst.space = std::make_unique<SparseIdSpace>(bits, n, rng);
  inst.overlay = std::make_unique<SparseChordOverlay>(*inst.space);
  return inst;
}

SparseParallelOptions workload_options(unsigned threads) {
  SparseParallelOptions options;
  options.pairs = 20000;
  options.threads = threads;
  options.shards = 32;  // fixed: results are a function of (seed, shards)
  options.workload.zipf_s = 1.1;
  options.workload.objects = 2000;
  options.workload.cache_entries = 4;
  options.workload.record_load = true;
  return options;
}

TEST(Workload, BitIdenticalAcrossThreadCounts) {
  const auto inst = make_chord(22, 3000, 901);
  math::Rng fail_rng(902);
  const SparseFailure failures(*inst.space, 0.1, fail_rng);
  const math::Rng engine_rng(903);
  const SparseWorkloadReport one = estimate_workload_parallel(
      *inst.overlay, failures, workload_options(1), engine_rng);
  const SparseWorkloadReport two = estimate_workload_parallel(
      *inst.overlay, failures, workload_options(2), engine_rng);
  const SparseWorkloadReport eight = estimate_workload_parallel(
      *inst.overlay, failures, workload_options(8), engine_rng);
  EXPECT_TRUE(one.estimate == two.estimate);
  EXPECT_TRUE(one.estimate == eight.estimate);
  // Load counters are relaxed atomic adds into one shared array; the
  // summary over them must still be schedule-independent.
  EXPECT_TRUE(one.load == two.load);
  EXPECT_TRUE(one.load == eight.load);
  EXPECT_GT(one.estimate.cache_probes, 0u);
  EXPECT_GT(one.load.total, 0u);
}

TEST(Workload, CacheBufferReuseIsInvisible) {
  // 64 shards on at most 8 workers: every worker reuses its path-cache
  // buffer across shards, each under a fresh epoch tag.  A stale slot
  // leaking into a later shard would add hits that depend on which shards
  // shared a buffer, i.e. on the thread count.
  const auto inst = make_chord(22, 3000, 961);
  math::Rng fail_rng(962);
  const SparseFailure failures(*inst.space, 0.1, fail_rng);
  const math::Rng engine_rng(963);
  const auto run = [&](unsigned threads, std::uint64_t shards,
                       std::uint64_t pairs) {
    SparseParallelOptions options = workload_options(threads);
    options.shards = shards;
    options.pairs = pairs;
    return estimate_workload_parallel(*inst.overlay, failures, options,
                                      engine_rng);
  };
  const SparseWorkloadReport one = run(1, 64, 40000);
  for (const unsigned threads : {3u, 8u}) {
    const SparseWorkloadReport many = run(threads, 64, 40000);
    EXPECT_TRUE(one.estimate == many.estimate) << threads << " threads";
    EXPECT_TRUE(one.load == many.load) << threads << " threads";
  }
  EXPECT_GT(one.estimate.cache_hits, 0u);

  // More shards than the 6-bit tag period (63 epochs per buffer): the
  // single worker's buffer wraps its tag three times, each wrap one real
  // clear; eight workers wrap less often or never.
  const SparseWorkloadReport wrapped = run(1, 200, 40000);
  const SparseWorkloadReport spread = run(8, 200, 40000);
  EXPECT_TRUE(wrapped.estimate == spread.estimate);
  EXPECT_TRUE(wrapped.load == spread.load);
  EXPECT_GT(wrapped.estimate.cache_hits, 0u);
}

TEST(Workload, RejectsBadOptions) {
  const auto inst = make_chord(16, 200, 971);
  math::Rng fail_rng(972);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  const math::Rng engine_rng(973);
  const auto rejects = [&](const SparseWorkloadOptions& workload,
                           const char* field) {
    SparseParallelOptions options;
    options.pairs = 100;
    options.workload = workload;
    try {
      estimate_workload_parallel(*inst.overlay, failures, options,
                                 engine_rng);
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  rejects({.zipf_s = std::numeric_limits<double>::quiet_NaN()}, "zipf_s");
  rejects({.zipf_s = -0.5}, "zipf_s");
  rejects({.zipf_s = 1.0, .cache_entries = -1}, "cache_entries");
  rejects({.zipf_s = 1.0, .cache_entries = 1025}, "cache_entries");
  rejects({.zipf_s = 1.0, .objects = (std::uint64_t{1} << 26) + 1},
          "objects");
  // The boundary values are accepted.
  SparseParallelOptions options;
  options.pairs = 100;
  options.workload = {.zipf_s = 1.0, .cache_entries = 1024};
  EXPECT_NO_THROW(estimate_workload_parallel(*inst.overlay, failures,
                                             options, engine_rng));
}

TEST(Workload, LoadConservationWithoutFailures) {
  // q = 0, caching off: every sampled route arrives and every forward is
  // counted exactly once, so the total load equals the hop sum.
  const auto inst = make_chord(20, 2000, 911);
  math::Rng fail_rng(912);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions options;
  options.pairs = 10000;
  options.shards = 16;
  options.workload.zipf_s = 1.1;
  options.workload.record_load = true;
  const math::Rng engine_rng(913);
  const SparseWorkloadReport report = estimate_workload_parallel(
      *inst.overlay, failures, options, engine_rng);
  EXPECT_EQ(report.estimate.attempts, options.pairs);
  EXPECT_EQ(report.estimate.successes(), options.pairs);
  EXPECT_EQ(report.load.total, report.estimate.hops.sum());
}

TEST(Workload, PathCacheShortensPopularLookups) {
  const auto inst = make_chord(22, 3000, 921);
  math::Rng fail_rng(922);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions base;
  base.pairs = 30000;
  base.shards = 16;
  base.workload.zipf_s = 1.2;
  base.workload.objects = 1000;
  SparseParallelOptions cached = base;
  cached.workload.cache_entries = 8;
  const math::Rng engine_rng(923);
  const SparseEstimate plain = estimate_routability_parallel(
      *inst.overlay, failures, base, engine_rng);
  const SparseEstimate with_cache = estimate_routability_parallel(
      *inst.overlay, failures, cached, engine_rng);
  EXPECT_EQ(plain.cache_probes, 0u);
  EXPECT_GT(with_cache.cache_probes, 0u);
  // Skewed popularity keeps hitting the same head objects: the per-shard
  // caches warm quickly and a sizable fraction of probes must hit.
  EXPECT_GT(with_cache.cache_hit_rate(), 0.10);
  // A hit short-circuits the remaining route to a single forward, so the
  // mean hop count strictly improves.
  EXPECT_LT(with_cache.mean_hops(), plain.mean_hops());
  // Caching never changes what is routable (q = 0: everything arrives).
  EXPECT_EQ(with_cache.successes(), with_cache.attempts);
}

TEST(Workload, ZipfSkewConcentratesLoad) {
  const auto inst = make_chord(22, 3000, 931);
  math::Rng fail_rng(932);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions uniform;
  uniform.pairs = 30000;
  uniform.shards = 16;
  uniform.workload.record_load = true;  // uniform pairs, load only
  SparseParallelOptions skewed = uniform;
  skewed.workload.zipf_s = 1.4;
  skewed.workload.objects = 1000;
  const math::Rng engine_rng(933);
  const SparseWorkloadReport flat_load = estimate_workload_parallel(
      *inst.overlay, failures, uniform, engine_rng);
  const SparseWorkloadReport hot_load = estimate_workload_parallel(
      *inst.overlay, failures, skewed, engine_rng);
  // Popular objects hammer their owners: the load distribution under Zipf
  // must be visibly more imbalanced than under uniform pairs.
  EXPECT_GT(hot_load.load.cv, flat_load.load.cv);
  EXPECT_GT(hot_load.load.max, flat_load.load.max);
}

churn::TrajectoryOptions churn_options(unsigned threads) {
  churn::TrajectoryOptions options;
  options.warmup_rounds = 12;
  options.measured_rounds = 6;
  options.pairs_per_round = 1500;
  options.shards = 4;
  options.threads = threads;
  return options;
}

TEST(ChurnReplication, AvailabilityDominatesRoutability) {
  churn::SparseChurnConfig config;
  config.bits = 24;
  config.capacity = std::uint64_t{1} << 10;
  config.zipf_s = 0.8;
  const churn::ChurnParams params;  // pd .01, pr .05, R 10
  const math::Rng rng(941);

  config.replicas = 1;
  const churn::SparseChurnResult r1 = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(0),
      rng);
  config.replicas = 4;
  const churn::SparseChurnResult r4 = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(0),
      rng);

  // Every measured lookup is a GET.
  EXPECT_EQ(r1.overall.gets, r1.overall.attempts);
  EXPECT_EQ(r4.overall.gets, r4.overall.attempts);
  // A GET succeeds whenever its primary route does -- and possibly via a
  // replica besides.
  EXPECT_GE(r1.overall.availability(), r1.overall.routability());
  EXPECT_GE(r4.overall.availability(), r4.overall.routability());
  // Three extra replicas must recover a strictly positive fraction of the
  // primary-route failures at these churn rates.
  EXPECT_GT(r4.overall.availability(), r1.overall.availability());
  // Load accounting rode along.
  EXPECT_GT(r4.load_max, 0u);
  EXPECT_GT(r4.load_p99, 0.0);
}

TEST(ChurnReplication, BitIdenticalAcrossThreadCounts) {
  churn::SparseChurnConfig config;
  config.bits = 24;
  config.capacity = std::uint64_t{1} << 10;
  config.replicas = 3;
  config.zipf_s = 1.1;
  const churn::ChurnParams params;
  const math::Rng rng(951);
  const churn::SparseChurnResult one = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(1),
      rng);
  const churn::SparseChurnResult four = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(4),
      rng);
  EXPECT_TRUE(one.overall == four.overall);
  EXPECT_EQ(one.overall.gets_available, four.overall.gets_available);
  EXPECT_EQ(one.load_max, four.load_max);
  EXPECT_EQ(one.load_p99, four.load_p99);
  EXPECT_EQ(one.load_cv, four.load_cv);
}

}  // namespace
}  // namespace dht::sparse
