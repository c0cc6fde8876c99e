// The dynamic-membership sparse churn engine (churn/sparse_trajectory.hpp):
// membership/order-index invariants under joins and leaves, thread-count
// determinism and merge semantics of the sharded replica estimator, the
// successor-list and join-announcement mechanisms, the empty-estimate
// contract on collapsed populations, the sweep grid API, and the headline
// dense-limit oracle -- at full population (capacity = 2^d, join rate =
// rebirth, leave rate = death) the engine statistically matches the dense
// ChurnWorld and the static model at q_eff, pinning it to the PR 2 bridge
// at d' = log2 N.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "churn/sparse_trajectory.hpp"
#include "churn/trajectory.hpp"
#include "common/check.hpp"
#include "core/registry.hpp"
#include "math/rng.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/xor_overlay.hpp"
#include "sparse/density_analysis.hpp"

namespace dht::churn {
namespace {

void expect_identical(const sparse::SparseEstimate& a,
                      const sparse::SparseEstimate& b, const char* what) {
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.hops.count(), b.hops.count()) << what;
  EXPECT_EQ(a.hops.sum(), b.hops.sum()) << what;
  EXPECT_EQ(a.hops.sum_squares(), b.hops.sum_squares()) << what;
  EXPECT_EQ(a.hops.min(), b.hops.min()) << what;
  EXPECT_EQ(a.hops.max(), b.hops.max()) << what;
  EXPECT_EQ(a.hop_limit_hits(), b.hop_limit_hits()) << what;
}

constexpr SparseChurnGeometry kAllGeometries[] = {
    SparseChurnGeometry::kChord, SparseChurnGeometry::kKademlia,
    SparseChurnGeometry::kSymphony};

TEST(SparseMembership, OrderIndexStaysConsistentUnderChurn) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 5};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 2048, .successors = 3, .shortcuts = 4};
  SparseChurnWorld world(SparseChurnGeometry::kChord, config, params, 0.0, 0,
                         math::Rng(61));
  for (int round = 0; round < 40; ++round) {
    world.step();
    const SparseMembership& membership = world.membership();
    // The order index covers exactly the present slots, in strictly
    // ascending id order (ids distinct), each mapping back to a present
    // slot with the matching identifier.
    std::uint64_t present = 0;
    for (NodeSlot slot = 0; slot < membership.capacity(); ++slot) {
      present += membership.present(slot) ? 1 : 0;
    }
    ASSERT_EQ(membership.population(), present) << "round " << round;
    ASSERT_EQ(membership.order_size(), present) << "round " << round;
    for (std::uint64_t pos = 0; pos < membership.order_size(); ++pos) {
      const NodeSlot slot = membership.slot_at(pos);
      ASSERT_TRUE(membership.present(slot)) << "round " << round;
      ASSERT_EQ(membership.id_at(pos), membership.id_of(slot))
          << "round " << round;
      if (pos > 0) {
        ASSERT_LT(membership.id_at(pos - 1), membership.id_at(pos))
            << "round " << round;
      }
    }
  }
  EXPECT_GT(world.total_joins(), 0u);
  EXPECT_GT(world.total_leaves(), 0u);
}

TEST(SparseChurn, BitIdenticalAcrossThreadCounts) {
  const ChurnParams params{.death_per_round = 0.03,
                           .rebirth_per_round = 0.07,
                           .refresh_interval = 6};
  for (const int bits : {30, 40}) {
    const SparseChurnConfig config{
        .bits = bits, .capacity = 1500, .successors = 3, .shortcuts = 4};
    for (const SparseChurnGeometry geometry : kAllGeometries) {
      for (const double rho : {0.0, 0.5}) {
        const TrajectoryOptions base{.warmup_rounds = 8,
                                     .measured_rounds = 3,
                                     .pairs_per_round = 400,
                                     .shards = 8,
                                     .repair_probability = rho};
        const math::Rng rng(17);
        SparseChurnResult reference;
        bool first = true;
        for (const unsigned threads : {1u, 2u, 8u}) {
          TrajectoryOptions options = base;
          options.threads = threads;
          const SparseChurnResult result = run_sparse_churn_trajectory(
              geometry, config, params, options, rng);
          ASSERT_EQ(result.per_round.size(), 3u);
          if (first) {
            reference = result;
            first = false;
            EXPECT_GT(result.overall.attempts, 0u) << to_string(geometry);
            EXPECT_EQ(result.overall.hop_limit_hits(), 0u)
                << to_string(geometry);
          } else {
            for (std::size_t r = 0; r < result.per_round.size(); ++r) {
              expect_identical(reference.per_round[r], result.per_round[r],
                               to_string(geometry));
            }
            expect_identical(reference.overall, result.overall,
                             to_string(geometry));
            EXPECT_EQ(reference.mean_population, result.mean_population);
            EXPECT_EQ(reference.mean_alive_fraction,
                      result.mean_alive_fraction);
            EXPECT_EQ(reference.mean_entry_age, result.mean_entry_age);
            EXPECT_EQ(reference.maintenance, result.maintenance);
          }
        }
      }
    }
  }
}

TEST(SparseChurn, GoldenBitCompatWithPreKBucketEngine) {
  // The k = 1 / geometric-session configuration must reproduce the
  // pre-k-bucket engine bit for bit: these counters were captured from the
  // PR 5 build (before bucket widening, SessionModel threading, and the
  // in-flight refactor) at this exact configuration.  Any rng-stream or
  // table-layout drift in the defaults shows up here as an exact-integer
  // mismatch.
  const ChurnParams params{.death_per_round = 0.03,
                           .rebirth_per_round = 0.07,
                           .refresh_interval = 6};
  const SparseChurnConfig config{
      .bits = 30, .capacity = 1500, .successors = 3, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 8,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 400,
                                  .shards = 8};
  struct Golden {
    SparseChurnGeometry geometry;
    std::uint64_t attempts, count, sum, sum_squares, min, max;
  };
  const Golden goldens[] = {
      {SparseChurnGeometry::kKademlia, 9600, 9352, 48958, 284378, 1, 14},
      {SparseChurnGeometry::kChord, 9600, 9598, 46887, 250337, 1, 10},
      {SparseChurnGeometry::kSymphony, 9600, 9590, 151311, 2873797, 1, 51},
  };
  for (const Golden& golden : goldens) {
    const auto result = run_sparse_churn_trajectory(
        golden.geometry, config, params, options, math::Rng(17));
    EXPECT_EQ(result.overall.attempts, golden.attempts)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.count(), golden.count)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.sum(), golden.sum)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.sum_squares(), golden.sum_squares)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.min(), golden.min)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.max(), golden.max)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hop_limit_hits(), 0u)
        << to_string(golden.geometry);
    EXPECT_DOUBLE_EQ(result.mean_population, 1048.375)
        << to_string(golden.geometry);
  }
}

TEST(SparseChurn, GoldenWideIds) {
  // Key spaces above 2^32 keep 64-bit cached target ids in the rows; a
  // row layout that narrowed them would route on truncated geometry.
  // These exact counters were captured from the engine before the rows
  // were packed (every cached id then a u64), at bits 33 and 63 with
  // eager repair and k = 2 buckets, so the eviction shift runs on wide
  // rows too.
  const ChurnParams params{.death_per_round = 0.03,
                           .rebirth_per_round = 0.07,
                           .refresh_interval = 6};
  const TrajectoryOptions options{.warmup_rounds = 8,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 400,
                                  .shards = 8,
                                  .repair_probability = 0.2};
  struct Golden {
    SparseChurnGeometry geometry;
    int bits;
    std::uint64_t attempts, count, sum, sum_squares, min, max;
    std::uint64_t failures[obs::kRouteFailureCount];
    double mean_population, mean_entry_age;
  };
  const Golden goldens[] = {
      {SparseChurnGeometry::kChord, 33, 9600, 9600, 46235, 243511, 1, 10,
       {0, 0, 0, 0, 0}, 1046.5833333333333, 2.359077834739618},
      {SparseChurnGeometry::kKademlia, 33, 9600, 9577, 47718, 261328, 1, 10,
       {23, 0, 0, 0, 0}, 1046.5833333333333, 2.3854775026871109},
      {SparseChurnGeometry::kSymphony, 33, 9600, 9596, 160168, 3267012, 1,
       50, {4, 0, 0, 0, 0}, 1046.5833333333333, 2.3636014064183173},
      {SparseChurnGeometry::kChord, 63, 9600, 9600, 46298, 244248, 1, 10,
       {0, 0, 0, 0, 0}, 1046.5833333333333, 2.3564062434561133},
      {SparseChurnGeometry::kKademlia, 63, 9600, 9588, 47733, 261639, 1, 11,
       {12, 0, 0, 0, 0}, 1046.5833333333333, 2.3910616835465097},
      {SparseChurnGeometry::kSymphony, 63, 9600, 9597, 240702, 7536978, 1,
       85, {3, 0, 0, 0, 0}, 1046.5833333333333, 2.3594690946117778},
  };
  for (const Golden& golden : goldens) {
    SparseChurnConfig config{.bits = golden.bits,
                             .capacity = 1500,
                             .successors = 3,
                             .shortcuts = 4};
    if (golden.geometry == SparseChurnGeometry::kKademlia) {
      config.bucket_k = 2;
    }
    const auto result = run_sparse_churn_trajectory(
        golden.geometry, config, params, options, math::Rng(53));
    const std::string what = std::string(to_string(golden.geometry)) +
                             " bits=" + std::to_string(golden.bits);
    EXPECT_EQ(result.overall.attempts, golden.attempts) << what;
    EXPECT_EQ(result.overall.hops.count(), golden.count) << what;
    EXPECT_EQ(result.overall.hops.sum(), golden.sum) << what;
    EXPECT_EQ(result.overall.hops.sum_squares(), golden.sum_squares) << what;
    EXPECT_EQ(result.overall.hops.min(), golden.min) << what;
    EXPECT_EQ(result.overall.hops.max(), golden.max) << what;
    for (int c = 0; c < obs::kRouteFailureCount; ++c) {
      EXPECT_EQ(result.overall.failures.counts[c], golden.failures[c])
          << what << " fail_"
          << obs::to_string(static_cast<obs::RouteFailure>(c));
    }
    EXPECT_EQ(result.mean_population, golden.mean_population) << what;
    EXPECT_EQ(result.mean_entry_age, golden.mean_entry_age) << what;
  }
}

TEST(SparseChurn, InflightBitIdenticalAcrossThreadCounts) {
  // In-flight measurement interleaves lifecycle, repair, and routing
  // inside each shard's private world, so the replica-sharding determinism
  // contract must survive it: 1/2/8 threads bit-identical, across
  // geometries and the full realism stack (k buckets + Pareto sessions).
  const ChurnParams params{.death_per_round = 0.04,
                           .rebirth_per_round = 0.06,
                           .refresh_interval = 6};
  struct Stack {
    int bucket_k;
    SessionKind session;
  };
  const Stack stacks[] = {{1, SessionKind::kGeometric},
                          {4, SessionKind::kPareto}};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const Stack& stack : stacks) {
      SparseChurnConfig config{
          .bits = 30, .capacity = 1500, .successors = 3, .shortcuts = 4};
      config.bucket_k = stack.bucket_k;
      config.session = SessionModel{.kind = stack.session,
                                    .pareto_alpha = 1.5};
      TrajectoryOptions base{.warmup_rounds = 6,
                             .measured_rounds = 3,
                             .pairs_per_round = 400,
                             .shards = 8,
                             .repair_probability = 0.4};
      base.inflight = true;
      const math::Rng rng(37);
      SparseChurnResult reference;
      bool first = true;
      for (const unsigned threads : {1u, 2u, 8u}) {
        TrajectoryOptions options = base;
        options.threads = threads;
        const SparseChurnResult result = run_sparse_churn_trajectory(
            geometry, config, params, options, rng);
        ASSERT_EQ(result.per_round.size(), 3u);
        if (first) {
          reference = result;
          first = false;
          EXPECT_GT(result.overall.attempts, 0u) << to_string(geometry);
        } else {
          for (std::size_t r = 0; r < result.per_round.size(); ++r) {
            expect_identical(reference.per_round[r], result.per_round[r],
                             to_string(geometry));
          }
          expect_identical(reference.overall, result.overall,
                           to_string(geometry));
          EXPECT_EQ(reference.mean_population, result.mean_population);
          EXPECT_EQ(reference.mean_entry_age, result.mean_entry_age);
        }
      }
    }
  }
}

TEST(SparseChurn, InflightWorldKeepsRoundAndOrderInvariants) {
  // measure_inflight advances the round itself and interleaves membership
  // events with routing; after it returns, the world must satisfy the same
  // order-index invariants as a step()ed world, and the lifecycle must
  // have run exactly once per slot (population stays near stationarity).
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 5};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 2048, .successors = 3, .shortcuts = 4};
  SparseChurnWorld world(SparseChurnGeometry::kKademlia, config, params, 0.3,
                         0, math::Rng(91));
  for (int round = 0; round < 20; ++round) {
    const int before = world.round();
    (void)world.measure_inflight(50);
    ASSERT_EQ(world.round(), before + 1);
    const SparseMembership& membership = world.membership();
    std::uint64_t present = 0;
    for (NodeSlot slot = 0; slot < membership.capacity(); ++slot) {
      present += membership.present(slot) ? 1 : 0;
    }
    ASSERT_EQ(membership.population(), present) << "round " << round;
    ASSERT_EQ(membership.order_size(), present) << "round " << round;
    for (std::uint64_t pos = 1; pos < membership.order_size(); ++pos) {
      ASSERT_LT(membership.id_at(pos - 1), membership.id_at(pos))
          << "round " << round;
    }
  }
  EXPECT_NEAR(world.alive_fraction(), 0.5, 0.08);  // a = 0.5 stationarity
  EXPECT_GT(world.total_joins(), 0u);
  EXPECT_GT(world.total_leaves(), 0u);
}

TEST(SparseChurn, KBucketsBeatSingleContactUnderHeavyChurn) {
  // The acceptance claim: k = 4 Kademlia buckets with dead-observed LRU
  // eviction measurably beat the single-contact rows under pd = pr = 0.05,
  // R = 30 -- redundancy exactly where decay bites (no successor-list
  // crutch: succ = 0 isolates the bucket effect).
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 30};
  const TrajectoryOptions options{.warmup_rounds = 90,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 600,
                                  .shards = 4};
  double routability[2] = {0.0, 0.0};
  int i = 0;
  for (const int k : {1, 4}) {
    SparseChurnConfig config{
        .bits = 32, .capacity = 4096, .successors = 0, .shortcuts = 4};
    config.bucket_k = k;
    const auto result = run_sparse_churn_trajectory(
        SparseChurnGeometry::kKademlia, config, params, options,
        math::Rng(13));
    routability[i++] = result.overall.routability();
  }
  EXPECT_GT(routability[1], routability[0] + 0.15)
      << "k=1: " << routability[0] << " k=4: " << routability[1];
  EXPECT_GT(routability[1], 0.9);
}

TEST(SparseChurn, HeavyTailedSessionsTrackGeneralizedBridge) {
  // The acceptance claim: measured heavy-tailed routability tracks the
  // static dense model at the density-reduction scale d' = log2 N0
  // evaluated at the GENERALIZED no-return bridge q_nr (the Pareto tail
  // sum), within the dense-limit-oracle tolerance band.  The heavy tail
  // at equal mean lifetime must also strictly beat the geometric run --
  // the inspection-paradox dividend the generalized bridge predicts.
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  const SessionModel pareto{.kind = SessionKind::kPareto,
                            .pareto_alpha = 1.5};
  const TrajectoryOptions options{.warmup_rounds = 90,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 600,
                                  .shards = 8};
  const std::uint64_t n0 = 4096;
  SparseChurnConfig config{
      .bits = 32,
      .capacity = capacity_for_population(n0, params),
      .successors = 0,
      .shortcuts = 4};
  config.session = pareto;
  const auto heavy = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, math::Rng(3));
  config.session = SessionModel{};
  const auto geometric = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, math::Rng(3));

  // The composed model of the ext_sparse_churn bridge: the dense analytic
  // model at the density-reduction scale d' = log2 N0, evaluated at the
  // generalized (Pareto) q_nr.
  const double q_nr = effective_q_no_return(params, pareto);
  const auto xor_geo = core::make_geometry(core::GeometryKind::kXor);
  const double at_q_nr =
      sparse::predict_sparse_routability(*xor_geo, n0, q_nr)
          .conditional_success;
  EXPECT_NEAR(heavy.overall.routability(), at_q_nr, 0.05)
      << "q_nr=" << q_nr;
  // Equal mean, heavier tail: strictly better measured routability, and a
  // strictly lower generalized bridge than the geometric q_nr.
  EXPECT_GT(heavy.overall.routability(), geometric.overall.routability());
  EXPECT_LT(q_nr, effective_q_no_return(params));
}

TEST(SparseMembership, JoinStaysFastAtFullOccupancyDenseLimit) {
  // Regression for the rejection-sampling degeneracy: with capacity =
  // 2^bits and occupancy -> 1, each fresh-id draw used to spin ~2^bits
  // rejection rounds; the free-key enumeration path bounds a join by
  // O(keys).  This churns the LAST free keys of a full 2^12 space many
  // times -- catastrophic before the fix, instant after it.
  const int bits = 12;
  const std::uint64_t keys = std::uint64_t{1} << bits;
  SparseMembership membership(bits, keys);
  math::Rng rng(29);
  std::vector<NodeSlot> cohort;
  cohort.reserve(keys);
  for (NodeSlot slot = 0; slot + 1 < keys; ++slot) {
    cohort.push_back(slot);
  }
  membership.join(cohort, rng);
  membership.commit();
  ASSERT_EQ(membership.population(), keys - 1);
  // Churn single slots at occupancy (2^bits - 1) / 2^bits: each join must
  // find one of the two free keys without scanning the whole space per
  // rejection draw.
  std::vector<NodeSlot> one(1);
  for (int iter = 0; iter < 2000; ++iter) {
    const NodeSlot victim =
        static_cast<NodeSlot>(rng.uniform_below(keys - 1));
    membership.leave(victim);
    one[0] = victim;
    membership.join(one, rng);
    membership.commit();
    ASSERT_EQ(membership.population(), keys - 1);
  }
  // Ids stay distinct under heavy recycling (order-index invariant).
  for (std::uint64_t pos = 1; pos < membership.order_size(); ++pos) {
    ASSERT_LT(membership.id_at(pos - 1), membership.id_at(pos));
  }
  // The fully occupied space still joins its final slot instantly.
  membership.join({static_cast<NodeSlot>(keys - 1)}, rng);
  membership.commit();
  EXPECT_EQ(membership.population(), keys);
}

TEST(SparseChurn, RepeatedCallsAreIdentical) {
  // The engine only forks the caller's rng, so re-running with the same
  // generator must reproduce the whole trajectory exactly.
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 5};
  const SparseChurnConfig config{
      .bits = 32, .capacity = 1024, .successors = 2, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 6,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 500,
                                  .shards = 4};
  const math::Rng rng(23);
  const auto a = run_sparse_churn_trajectory(SparseChurnGeometry::kKademlia,
                                             config, params, options, rng);
  const auto b = run_sparse_churn_trajectory(SparseChurnGeometry::kKademlia,
                                             config, params, options, rng);
  for (std::size_t r = 0; r < a.per_round.size(); ++r) {
    expect_identical(a.per_round[r], b.per_round[r], "repeat");
  }
  expect_identical(a.overall, b.overall, "repeat");
}

TEST(SparseChurn, OverallIsAssociativeMergeOfRounds) {
  const ChurnParams params{.death_per_round = 0.04,
                           .rebirth_per_round = 0.06,
                           .refresh_interval = 4};
  const SparseChurnConfig config{
      .bits = 28, .capacity = 1024, .successors = 2, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 5,
                                  .measured_rounds = 5,
                                  .pairs_per_round = 300,
                                  .shards = 4};
  const math::Rng rng(29);
  const auto result = run_sparse_churn_trajectory(
      SparseChurnGeometry::kChord, config, params, options, rng);
  ASSERT_EQ(result.per_round.size(), 5u);

  sparse::SparseEstimate left_fold;
  for (const auto& round : result.per_round) {
    left_fold.merge(round);
  }
  expect_identical(result.overall, left_fold, "left-fold");

  // ((r0+r1) + (r2+r3+r4)) -- a different association of the same rounds.
  sparse::SparseEstimate head;
  head.merge(result.per_round[0]);
  head.merge(result.per_round[1]);
  sparse::SparseEstimate tail;
  tail.merge(result.per_round[2]);
  tail.merge(result.per_round[3]);
  tail.merge(result.per_round[4]);
  sparse::SparseEstimate grouped;
  grouped.merge(head);
  grouped.merge(tail);
  expect_identical(result.overall, grouped, "grouped");
}

TEST(SparseChurn, PerfectStabilityRoutesEverything) {
  // Tiny churn, instant refresh: routability ~ 1 for every geometry.
  const ChurnParams params{.death_per_round = 1e-6,
                           .rebirth_per_round = 0.5,
                           .refresh_interval = 1};
  const SparseChurnConfig config{
      .bits = 20, .capacity = 1024, .successors = 3, .shortcuts = 6};
  const TrajectoryOptions options{.warmup_rounds = 5,
                                  .measured_rounds = 2,
                                  .pairs_per_round = 800,
                                  .shards = 4};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    const math::Rng rng(9);
    const auto result =
        run_sparse_churn_trajectory(geometry, config, params, options, rng);
    EXPECT_GT(result.overall.routability(), 0.999) << to_string(geometry);
    EXPECT_EQ(result.overall.hop_limit_hits(), 0u) << to_string(geometry);
  }
}

TEST(SparseChurn, WorldsTrackStationaryPopulationAndUniformAges) {
  // a = 0.8; population should hover near a * capacity and entry ages near
  // (R-1)/2 when lifetimes >> R.
  const ChurnParams params{.death_per_round = 0.005,
                           .rebirth_per_round = 0.02,
                           .refresh_interval = 10};
  const SparseChurnConfig config{
      .bits = 32, .capacity = 4096, .successors = 2, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 50,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 200,
                                  .shards = 8};
  const math::Rng rng(31);
  const auto result = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, rng);
  EXPECT_NEAR(result.mean_alive_fraction, 0.8, 0.03);
  EXPECT_NEAR(result.mean_population, 0.8 * 4096, 0.03 * 4096);
  EXPECT_NEAR(result.mean_entry_age, 4.5, 1.0);
}

TEST(SparseChurn, DenseLimitOracleMatchesDenseChurnAndStaticAtEffectiveQ) {
  // The acceptance claim: at full population (capacity = 2^d; join rate =
  // rebirth, leave rate = death at the slot level) the dynamic-membership
  // engine must statistically match (a) the dense ChurnWorld trajectory at
  // the same (pd, pr, R, rho) and (b) the static parallel engine at
  // q_eff -- the PR 2 bridge at d' = log2 N = d.  Join announcement plays
  // the role the dense model gets for free from persistent identities
  // (stale in-edges reviving on rebirth).
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  const TrajectoryOptions options{.warmup_rounds = 60,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 1000,
                                  .shards = 8};
  const SparseChurnConfig config{
      .bits = 10, .capacity = 1024, .successors = 0, .shortcuts = 4};
  const math::Rng rng(101);
  const auto sparse_result = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, rng);
  const sim::IdSpace space(10);
  const auto dense_result =
      run_churn_trajectory(TrajectoryGeometry::kXor, space, params, options,
                           rng);
  EXPECT_NEAR(sparse_result.overall.routability(),
              dense_result.overall.routability(), 0.03);
  // Same slot-level lifecycle chain: alive fractions agree tightly.
  EXPECT_NEAR(sparse_result.mean_alive_fraction,
              dense_result.mean_alive_fraction, 0.01);

  const double q_eff = effective_q(params);
  math::Rng build_rng(44);
  const sim::XorOverlay overlay(space, build_rng);
  math::Rng fail_rng(45);
  const sim::FailureScenario failures(space, q_eff, fail_rng);
  const math::Rng route_rng(46);
  const auto static_estimate = sim::estimate_routability_parallel(
      overlay, failures, {.pairs = 60000}, route_rng);
  EXPECT_NEAR(sparse_result.overall.routability(),
              static_estimate.routability(), 0.04)
      << "q_eff=" << q_eff;

  // Eager repair pushes both engines toward the fully repaired regime.
  TrajectoryOptions repaired = options;
  repaired.repair_probability = 0.7;
  const auto sparse_repaired = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, repaired, rng);
  const auto dense_repaired = run_churn_trajectory(
      TrajectoryGeometry::kXor, space, params, repaired, rng);
  EXPECT_NEAR(sparse_repaired.overall.routability(),
              dense_repaired.overall.routability(), 0.015);
  EXPECT_GT(sparse_repaired.overall.routability(), 0.985);
}

TEST(SparseChurn, SuccessorListsRescueTheRingUnderChurn) {
  // The paper's sequential-neighbors resilience, finally under churn: with
  // heavy turnover and a long refresh interval, bare successor-of-key
  // fingers decay (and without notify a joiner's predecessor is blind to
  // it), while s clockwise successors with per-round list repair keep the
  // ring near-perfectly routable.
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 30};
  const TrajectoryOptions options{.warmup_rounds = 60,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 800,
                                  .shards = 4};
  double previous = -1.0;
  for (const int s : {0, 4, 8}) {
    const SparseChurnConfig config{
        .bits = 32, .capacity = 4096, .successors = s, .shortcuts = 6};
    const auto result = run_sparse_churn_trajectory(
        SparseChurnGeometry::kChord, config, params, options, math::Rng(7));
    EXPECT_GT(result.overall.routability(), previous) << "s=" << s;
    previous = result.overall.routability();
    if (s == 0) {
      EXPECT_LT(result.overall.routability(), 0.6);
    } else {
      EXPECT_GT(result.overall.routability(), 0.9) << "s=" << s;
    }
  }
  EXPECT_GT(previous, 0.98);  // s = 8
}

TEST(SparseChurn, JoinAnnouncementHealsNewcomerBlindness) {
  // Without announcement a joiner is invisible to stale in-edges until
  // their owners refresh (identities never return), so routes toward
  // recent joiners fail -- a dynamic-membership failure mode the dense
  // model cannot express.  Kademlia's deep-bucket inserts must close most
  // of that gap.
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  const TrajectoryOptions options{.warmup_rounds = 60,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 1000,
                                  .shards = 8};
  SparseChurnConfig config{
      .bits = 10, .capacity = 1024, .successors = 0, .shortcuts = 4};
  config.announce = 0;
  const auto blind = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options,
      math::Rng(101));
  config.announce = 8;
  const auto announced = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options,
      math::Rng(101));
  EXPECT_GT(announced.overall.routability(),
            blind.overall.routability() + 0.03);
}

TEST(SparseChurn, CollapsedPopulationHonorsEmptyEstimateContract) {
  // The ChurnWorld::measure contract carried over: with fewer than two
  // present nodes there is nothing to sample, so measure returns an empty
  // estimate -- and the world keeps stepping (joins can repopulate it).
  const ChurnParams params{.death_per_round = 0.99,
                           .rebirth_per_round = 0.005,
                           .refresh_interval = 3};
  const SparseChurnConfig config{
      .bits = 8, .capacity = 8, .successors = 2, .shortcuts = 2};
  SparseChurnWorld world(SparseChurnGeometry::kChord, config, params, 0.5, 0,
                         math::Rng(83));
  bool collapsed = false;
  for (int round = 0; round < 300 && !collapsed; ++round) {
    collapsed = world.population() < 2;
    if (!collapsed) {
      world.step();
    }
  }
  ASSERT_TRUE(collapsed) << "population never dropped below 2";
  const auto estimate = world.measure(100);
  EXPECT_EQ(estimate.attempts, 0u);
  EXPECT_EQ(estimate.hops.count(), 0u);
  EXPECT_EQ(estimate.hop_limit_hits(), 0u);
  EXPECT_EQ(estimate.routability(), 0.0);
  // The world must survive further rounds (and possibly repopulate.)
  for (int round = 0; round < 50; ++round) {
    world.step();
  }
  (void)world.measure(50);
}

// Full-field estimate equality, the availability counters included --
// expect_identical covers only the routing side.
void expect_estimates_equal(const sparse::SparseEstimate& a,
                            const sparse::SparseEstimate& b,
                            const std::string& what) {
  expect_identical(a, b, what.c_str());
  EXPECT_EQ(a.gets, b.gets) << what;
  EXPECT_EQ(a.gets_available, b.gets_available) << what;
}

TEST(SparseChurn, BatchedMatchesScalarPerPair) {
  // The tentpole gate: measure()'s 8-lane batched sync path must agree
  // with the measure_scalar_routes reference PER PAIR -- not merely in
  // aggregate -- across every geometry, bucket width, successor-list
  // length, and replication factor, plus one Zipf-skewed, eagerly
  // repaired config.  Two worlds share a seed (identical rng lineage);
  // measuring one pair at a time makes each call's estimate a single
  // pair's outcome, so any kernel divergence pins itself to the exact
  // pair.
  const ChurnParams params{.death_per_round = 0.06,
                           .rebirth_per_round = 0.06,
                           .refresh_interval = 4};
  struct Case {
    SparseChurnConfig config;
    double repair_probability;
  };
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    // Bucket width shapes only the kademlia rows.
    const std::vector<int> bucket_widths =
        geometry == SparseChurnGeometry::kKademlia ? std::vector<int>{1, 4}
                                                   : std::vector<int>{1};
    std::vector<Case> cases;
    for (const int bucket_k : bucket_widths) {
      for (const int successors : {0, 4}) {
        for (const int replicas : {1, 3}) {
          cases.push_back({{.bits = 16,
                            .capacity = 600,
                            .successors = successors,
                            .shortcuts = 4,
                            .bucket_k = bucket_k,
                            .replicas = replicas},
                           0.0});
        }
      }
    }
    cases.push_back({{.bits = 24,
                      .capacity = 900,
                      .successors = 3,
                      .shortcuts = 4,
                      .bucket_k = 2,
                      .replicas = 2,
                      .zipf_s = 0.8},
                     0.2});
    // Above 32 bits the rows keep 64-bit cached ids.
    cases.push_back({{.bits = 40,
                      .capacity = 900,
                      .successors = 3,
                      .shortcuts = 4,
                      .bucket_k = 2,
                      .replicas = 2},
                     0.3});
    for (const Case& c : cases) {
      const SparseChurnConfig& config = c.config;
      const std::string what =
          std::string(to_string(geometry)) + " bits=" +
          std::to_string(config.bits) +
          " k=" + std::to_string(config.bucket_k) +
          " s=" + std::to_string(config.successors) +
          " r=" + std::to_string(config.replicas) +
          " rho=" + std::to_string(c.repair_probability);
      SparseChurnWorld scalar_world(geometry, config, params,
                                    c.repair_probability, 0, math::Rng(91));
      SparseChurnWorld batched_world(geometry, config, params,
                                     c.repair_probability, 0, math::Rng(91));
      for (int round = 0; round < 6; ++round) {
        scalar_world.step();
        batched_world.step();
        for (int pair = 0; pair < 40; ++pair) {
          expect_estimates_equal(
              scalar_world.measure_scalar_routes(1), batched_world.measure(1),
              what + " round " + std::to_string(round) + " pair " +
                  std::to_string(pair));
        }
      }
      // The load accounting (bumps per forward, including the bump a
      // dropping hop charges) must agree exactly as well.
      EXPECT_EQ(scalar_world.load_summary(), batched_world.load_summary())
          << what;
    }
  }
}

TEST(SparseChurn, RunningEntryAgeMatchesRecount) {
  // mean_entry_age() reads a running stamp sum that every row write,
  // leave and join keeps up to date; after every step it must equal the
  // full recount over the present rows exactly -- across geometries,
  // k = 4 buckets (the eviction shift moves stamps inside a row), Pareto
  // sessions, eager repair, and in-flight rounds (leaves and joins
  // interleaved with routes).  Heavy churn also drives whole-list
  // collapses into full row rebuilds.
  const ChurnParams params{.death_per_round = 0.12,
                           .rebirth_per_round = 0.12,
                           .refresh_interval = 5};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const SessionKind session :
         {SessionKind::kGeometric, SessionKind::kPareto}) {
      for (const bool inflight : {false, true}) {
        for (const double rho : {0.0, 0.5}) {
          SparseChurnConfig config{
              .bits = 24, .capacity = 700, .successors = 2, .shortcuts = 4};
          config.bucket_k = 4;
          config.session =
              SessionModel{.kind = session, .pareto_alpha = 1.5};
          SparseChurnWorld world(geometry, config, params, rho, 0,
                                 math::Rng(71));
          const std::string what =
              std::string(to_string(geometry)) + " " + to_string(session) +
              (inflight ? " inflight" : " sync") +
              " rho=" + std::to_string(rho);
          ASSERT_EQ(world.mean_entry_age(), world.mean_entry_age_recount())
              << what << " at build";
          for (int round = 0; round < 14; ++round) {
            if (inflight) {
              (void)world.measure_inflight(60);
            } else {
              world.step();
              (void)world.measure(60);
            }
            ASSERT_EQ(world.mean_entry_age(),
                      world.mean_entry_age_recount())
                << what << " round " << round;
          }
          EXPECT_GT(world.total_leaves(), 0u) << what;
          if (geometry == SparseChurnGeometry::kKademlia && rho > 0.0) {
            EXPECT_GT(world.maintenance().repairs, 0u) << what;
          }
        }
      }
    }
  }
}

TEST(SparseChurn, MaintenanceCountersAreExactAcrossThreadCounts) {
  // The work counters merge in shard order like the estimates: identical
  // at 1, 3 and 8 threads.  With rho = 0 no entry is examined for repair
  // and no Bernoulli is drawn; with rho > 0 repairs never exceed draws.
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 6};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const double rho : {0.0, 0.5}) {
      SparseChurnConfig config{
          .bits = 28, .capacity = 1200, .successors = 3, .shortcuts = 4};
      config.bucket_k = 2;
      const TrajectoryOptions base{.warmup_rounds = 5,
                                   .measured_rounds = 3,
                                   .pairs_per_round = 200,
                                   .shards = 8,
                                   .repair_probability = rho};
      const std::string what =
          std::string(to_string(geometry)) + " rho=" + std::to_string(rho);
      MaintenanceCounters reference;
      std::uint64_t reference_bytes = 0;
      bool first = true;
      for (const unsigned threads : {1u, 3u, 8u}) {
        TrajectoryOptions options = base;
        options.threads = threads;
        const SparseChurnResult result = run_sparse_churn_trajectory(
            geometry, config, params, options, math::Rng(43));
        const MaintenanceCounters& m = result.maintenance;
        if (first) {
          reference = m;
          reference_bytes = result.row_bytes;
          first = false;
        } else {
          EXPECT_EQ(m, reference) << what << " threads=" << threads;
          EXPECT_EQ(result.row_bytes, reference_bytes) << what;
        }
        EXPECT_GT(m.due_refreshes, 0u) << what;
        EXPECT_GT(m.successor_rebuilds, 0u) << what;
        EXPECT_GT(m.rows_rebuilt, 0u) << what;
        EXPECT_LE(m.repairs, m.repair_draws) << what;
        if (rho == 0.0) {
          EXPECT_EQ(m.entries_examined, 0u) << what;
          EXPECT_EQ(m.repair_draws, 0u) << what;
          EXPECT_EQ(m.repairs, 0u) << what;
        } else {
          EXPECT_GT(m.entries_examined, m.repair_draws) << what;
          EXPECT_GT(m.repairs, 0u) << what;
        }
      }
    }
  }
}

TEST(SparseChurn, RowBytesFollowTheIdWidth) {
  // Per slot: row_width cells of link (8) + cached id (4 at bits <= 32,
  // 8 above) + stamp (4), one due bound (4), s successor entries of
  // link + id, and one successor stamp (4).
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 6};
  for (const int bits : {32, 33}) {
    const SparseChurnConfig config{
        .bits = bits, .capacity = 500, .successors = 3, .shortcuts = 4};
    const SparseChurnWorld world(SparseChurnGeometry::kChord, config, params,
                                 0.0, 0, math::Rng(5));
    const std::uint64_t id_bytes = bits <= 32 ? 4 : 8;
    const std::uint64_t per_slot =
        static_cast<std::uint64_t>(bits) * (8 + id_bytes + 4) + 4 +
        3 * (8 + id_bytes) + 4;
    EXPECT_EQ(world.row_bytes(), 500 * per_slot) << "bits=" << bits;
  }
}

TEST(SparseChurn, BatchedPathHonorsZeroPairAndCollapsedContracts) {
  // The batched driver inherits measure()'s boundary contracts: zero
  // pairs draw nothing (the measurement rng stream must not move), and a
  // collapsed population returns the empty estimate without touching a
  // lane.
  const ChurnParams params{.death_per_round = 0.99,
                           .rebirth_per_round = 0.005,
                           .refresh_interval = 3};
  const SparseChurnConfig config{
      .bits = 8, .capacity = 8, .successors = 2, .shortcuts = 2,
      .replicas = 3};
  SparseChurnWorld world(SparseChurnGeometry::kChord, config, params, 0.0, 0,
                         math::Rng(83));
  world.step();
  const auto none = world.measure(0);
  EXPECT_EQ(none.attempts, 0u);
  EXPECT_EQ(none.gets, 0u);
  // Zero pairs consumed no rng: a twin world that never measured zero
  // pairs produces the same next estimate.
  SparseChurnWorld twin(SparseChurnGeometry::kChord, config, params, 0.0, 0,
                        math::Rng(83));
  twin.step();
  expect_estimates_equal(world.measure(20), twin.measure(20), "zero-pair");
  bool collapsed = false;
  for (int round = 0; round < 300 && !collapsed; ++round) {
    collapsed = world.population() < 2;
    if (!collapsed) {
      world.step();
    }
  }
  ASSERT_TRUE(collapsed) << "population never dropped below 2";
  const auto estimate = world.measure(100);
  EXPECT_EQ(estimate.attempts, 0u);
  EXPECT_EQ(estimate.gets, 0u);
  EXPECT_EQ(estimate.gets_available, 0u);
  EXPECT_EQ(estimate.routability(), 0.0);
}

TEST(SparseChurn, SweepCoversGridInOrderAndIsReproducible) {
  SparseChurnSweepSpec spec;
  spec.geometry = SparseChurnGeometry::kKademlia;
  spec.bits = {24, 32};
  spec.populations = {512};
  spec.churn = {ChurnParams{.death_per_round = 0.02,
                            .rebirth_per_round = 0.08,
                            .refresh_interval = 5}};
  spec.repair = {0.0, 0.8};
  spec.successors = {0, 3};
  spec.options = TrajectoryOptions{.warmup_rounds = 6,
                                   .measured_rounds = 2,
                                   .pairs_per_round = 200,
                                   .shards = 2};
  spec.seed = 7;
  const auto points = run_sparse_churn_sweep(spec);
  ASSERT_EQ(points.size(), 8u);  // 2 bits x 2 repair x 2 successors
  // Nesting order: bits outermost, successors innermost.
  EXPECT_EQ(points[0].bits, 24);
  EXPECT_EQ(points[0].repair_probability, 0.0);
  EXPECT_EQ(points[0].successors, 0);
  EXPECT_EQ(points[1].successors, 3);
  EXPECT_EQ(points[2].repair_probability, 0.8);
  EXPECT_EQ(points[4].bits, 32);
  for (const auto& point : points) {
    EXPECT_EQ(point.population, 512u);
    EXPECT_EQ(point.capacity, capacity_for_population(512, point.params));
    EXPECT_NEAR(point.q_eff, effective_q(point.params), 1e-15);
    EXPECT_EQ(point.result.per_round.size(), 2u);
    EXPECT_GT(point.result.overall.attempts, 0u);
  }
  const auto again = run_sparse_churn_sweep(spec);
  ASSERT_EQ(again.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(points[i].result.overall, again[i].result.overall,
                     "sweep-repeat");
  }
}

TEST(SparseChurn, CapacityForPopulationInvertsAvailability) {
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};  // a = 0.8
  EXPECT_EQ(capacity_for_population(1000, params), 1250u);
  EXPECT_EQ(capacity_for_population(100000, params), 125000u);
  EXPECT_EQ(capacity_for_population(0, params), 2u);
  // Clamped into the membership roster cap instead of throwing mid-sweep.
  EXPECT_EQ(capacity_for_population(60000000, params),
            std::uint64_t{1} << 26);
}

TEST(SparseChurn, RejectsDegenerateInputs) {
  const ChurnParams params{};
  const SparseChurnConfig config{
      .bits = 16, .capacity = 64, .successors = 2, .shortcuts = 2};
  const math::Rng rng(51);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kChord,
                                           config, params,
                                           {.measured_rounds = 0}, rng),
               PreconditionError);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kChord,
                                           config, params,
                                           {.pairs_per_round = 0}, rng),
               PreconditionError);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kChord,
                                           config, params,
                                           {.repair_probability = 1.5}, rng),
               PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(SparseChurnGeometry::kChord,
                       SparseChurnConfig{.bits = 0, .capacity = 64}, params,
                       0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(SparseChurnGeometry::kChord,
                       SparseChurnConfig{.bits = 16, .capacity = 1}, params,
                       0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(SparseChurnGeometry::kChord,
                       SparseChurnConfig{.bits = 4, .capacity = 64}, params,
                       0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(
          SparseChurnGeometry::kChord,
          SparseChurnConfig{.bits = 16, .capacity = 64, .successors = -1},
          params, 0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(
          SparseChurnGeometry::kChord,
          SparseChurnConfig{.bits = 16, .capacity = 64, .announce = -1},
          params, 0.0, 0, rng),
      PreconditionError);
  for (const int bad_k : {0, -1, 65}) {
    SparseChurnConfig bad{.bits = 16, .capacity = 64};
    bad.bucket_k = bad_k;
    EXPECT_THROW(SparseChurnWorld(SparseChurnGeometry::kKademlia, bad,
                                  params, 0.0, 0, rng),
                 PreconditionError)
        << "k=" << bad_k;
  }
  {
    SparseChurnConfig bad{.bits = 16, .capacity = 64};
    bad.session = SessionModel{.kind = SessionKind::kPareto,
                               .pareto_alpha = 1.0};
    EXPECT_THROW(SparseChurnWorld(SparseChurnGeometry::kKademlia, bad,
                                  params, 0.0, 0, rng),
                 PreconditionError);
  }
  SparseChurnSweepSpec empty;
  empty.successors.clear();
  EXPECT_THROW(run_sparse_churn_sweep(empty), PreconditionError);
}

TEST(SparseChurn, GeometryNamesRoundTrip) {
  SparseChurnGeometry geometry = SparseChurnGeometry::kChord;
  for (const char* name : {"ring", "xor", "symphony"}) {
    ASSERT_TRUE(sparse_churn_geometry_from_name(name, geometry)) << name;
    EXPECT_STREQ(to_string(geometry), name);
  }
  EXPECT_FALSE(sparse_churn_geometry_from_name("tree", geometry));
  EXPECT_FALSE(sparse_churn_geometry_from_name("", geometry));
}

}  // namespace
}  // namespace dht::churn
