#include "sim/parallel_monte_carlo.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "sim/flat_route.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

namespace {

inline RouteResult route_one(const flat::FlatCtx& c, const Router& router,
                             NodeId source, NodeId target, math::Rng& rng) {
  switch (c.kind) {
    case flat::KernelKind::kTree:
      return flat::route_tree(c, source, target);
    case flat::KernelKind::kXor:
      return flat::route_xor(c, source, target);
    case flat::KernelKind::kHypercube:
      return flat::route_hypercube(c, source, target, rng);
    case flat::KernelKind::kChordDeterministic:
      return flat::route_chord_deterministic(c, source, target);
    case flat::KernelKind::kChordRandomized:
      return flat::route_chord_randomized(c, source, target);
    case flat::KernelKind::kSymphony:
      return flat::route_symphony(c, source, target);
    case flat::KernelKind::kGeneric:
      break;
  }
  return router.route(source, target, rng);
}

constexpr int kLanes = 8;

// Interleaved shard loop: kLanes independent routes advance one hop per
// turn (struct-of-arrays state), so their table and liveness loads overlap
// in the memory pipeline instead of serializing on cache misses.  Each lane
// samples its pairs from its own counter-based stream
// (shard_rng.counter_stream(lane)), so lane draws are a pure function of
// (seed, shard, lane, draw index); the shared budget decides only how many
// pairs a lane gets, and that is deterministic too (the loop is
// single-threaded per shard, lanes serviced in lane order).  `step_lane`
// advances one route one hop and returns flat::kNoHop on a drop; the
// accounting below matches flat::route_stepped hop for hop, so estimates
// equal those of routing the same pairs one at a time.
template <typename StepLane>
void run_dense_lanes(const flat::FlatCtx& c, const FailureScenario& failures,
                     std::uint64_t pairs, const math::Rng& shard_rng,
                     RoutabilityEstimate& estimate, StepLane step_lane) {
  math::CounterRng pair_streams[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    pair_streams[l] = shard_rng.counter_stream(static_cast<std::uint64_t>(l));
  }
  NodeId cur[kLanes];
  NodeId target[kLanes];
  std::uint32_t hops[kLanes];
  std::uint8_t active[kLanes];
  std::uint64_t remaining = pairs;
  int live = 0;
  const auto retire = [&](RouteStatus status, int l) {
    estimate.record(
        flat::finish(status, static_cast<int>(hops[l]), target[l]));
    if (remaining == 0) {
      active[l] = 0;
      --live;
      return;
    }
    --remaining;
    math::CounterRng& rng = pair_streams[l];
    const NodeId source = failures.sample_alive(rng);
    NodeId t = failures.sample_alive(rng);
    while (t == source) {
      t = failures.sample_alive(rng);
    }
    cur[l] = source;
    target[l] = t;
    hops[l] = 0;
  };
  for (int l = 0; l < kLanes; ++l) {
    active[l] = 0;
    if (remaining == 0) {
      continue;
    }
    --remaining;
    math::CounterRng& rng = pair_streams[l];
    const NodeId source = failures.sample_alive(rng);
    NodeId t = failures.sample_alive(rng);
    while (t == source) {
      t = failures.sample_alive(rng);
    }
    cur[l] = source;
    target[l] = t;
    hops[l] = 0;
    active[l] = 1;
    ++live;
  }
  while (live > 0) {
    for (int l = 0; l < kLanes; ++l) {
      if (!active[l]) {
        continue;
      }
      // A refilled pair is never terminal (source != target, 0 hops), so
      // one retire check per turn suffices and lanes never idle.
      if (cur[l] == flat::kNoHop) {
        retire(RouteStatus::kDropped, l);
      } else if (cur[l] == target[l]) {
        retire(RouteStatus::kArrived, l);
      } else if (hops[l] >= c.max_hops) {
        retire(RouteStatus::kHopLimit, l);
      }
    }
    if (live == 0) {
      break;
    }
    for (int l = 0; l < kLanes; ++l) {
      if (!active[l]) {
        continue;
      }
      const NodeId next = step_lane(l, cur[l], target[l]);
      if (next == flat::kNoHop) {
        cur[l] = flat::kNoHop;
      } else {
        cur[l] = next;
        ++hops[l];
      }
    }
  }
}

// One shard of the sampled estimator: dispatch to the kernel (or the
// virtual path) through the shared lane driver.  Hypercube hop draws come
// from dedicated per-lane counter streams (ids kLanes..2*kLanes-1, disjoint
// from the pair streams); the generic path's next_hop takes a sequential
// math::Rng, so each lane forks one -- rng-free rules consume neither, which
// is what keeps flat and generic runs bit-identical for them.
void run_dense_shard(const flat::FlatCtx& c, const Overlay& overlay,
                     const FailureScenario& failures, std::uint64_t pairs,
                     const math::Rng& shard_rng,
                     RoutabilityEstimate& estimate) {
  switch (c.kind) {
    case flat::KernelKind::kTree:
      run_dense_lanes(c, failures, pairs, shard_rng, estimate,
                      [&c](int, NodeId cur, NodeId target) {
                        return flat::step_tree(c, cur, target);
                      });
      return;
    case flat::KernelKind::kXor:
      run_dense_lanes(c, failures, pairs, shard_rng, estimate,
                      [&c](int, NodeId cur, NodeId target) {
                        return flat::step_xor(c, cur, target);
                      });
      return;
    case flat::KernelKind::kHypercube: {
      math::CounterRng hop_streams[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        hop_streams[l] =
            shard_rng.counter_stream(static_cast<std::uint64_t>(kLanes + l));
      }
      run_dense_lanes(c, failures, pairs, shard_rng, estimate,
                      [&c, &hop_streams](int l, NodeId cur, NodeId target) {
                        return flat::step_hypercube(c, cur, target,
                                                    hop_streams[l]);
                      });
      return;
    }
    case flat::KernelKind::kChordDeterministic:
      run_dense_lanes(c, failures, pairs, shard_rng, estimate,
                      [&c](int, NodeId cur, NodeId target) {
                        return flat::step_chord_deterministic(c, cur, target);
                      });
      return;
    case flat::KernelKind::kChordRandomized:
      run_dense_lanes(c, failures, pairs, shard_rng, estimate,
                      [&c](int, NodeId cur, NodeId target) {
                        return flat::step_chord_randomized(c, cur, target);
                      });
      return;
    case flat::KernelKind::kSymphony:
      run_dense_lanes(c, failures, pairs, shard_rng, estimate,
                      [&c](int, NodeId cur, NodeId target) {
                        return flat::step_symphony(c, cur, target);
                      });
      return;
    case flat::KernelKind::kGeneric: {
      math::Rng lane_rngs[kLanes] = {
          shard_rng.fork(0), shard_rng.fork(1), shard_rng.fork(2),
          shard_rng.fork(3), shard_rng.fork(4), shard_rng.fork(5),
          shard_rng.fork(6), shard_rng.fork(7)};
      run_dense_lanes(
          c, failures, pairs, shard_rng, estimate,
          [&overlay, &failures, &lane_rngs](int l, NodeId cur, NodeId target) {
            const auto next =
                overlay.next_hop(cur, target, failures, lane_rngs[l]);
            return next.has_value() ? *next : flat::kNoHop;
          });
      return;
    }
  }
}

}  // namespace

RoutabilityEstimate estimate_routability_parallel(
    const Overlay& overlay, const FailureScenario& failures,
    const ParallelOptions& options, const math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  DHT_CHECK(options.pairs > 0, "at least one pair must be sampled");
  // Observability is a timing side-channel: with both sinks null (the
  // default) every PhaseTimer below is constructed with null pointers and
  // reads no clock; the shard profiles are reduced in shard order like
  // every other per-shard result, and nothing here feeds back into the
  // estimates.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  obs::PhaseProfile serial_profile;
  obs::PhaseProfile* const serial =
      observed ? &serial_profile : nullptr;
  flat::FlatCtx ctx;
  {
    obs::PhaseTimer timer(serial, obs::Phase::kWorldBuild, options.trace);
    ctx = flat::make_ctx(overlay, failures, options.max_hops,
                         options.use_flat_kernels);
  }

  const std::uint64_t shards =
      options.shards != 0 ? options.shards
                          : std::min<std::uint64_t>(options.pairs, 256);
  const std::uint64_t base = options.pairs / shards;
  const std::uint64_t extra = options.pairs % shards;

  std::vector<RoutabilityEstimate> results(shards);
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  run_sharded(shards, resolve_threads(options.threads),
              [&](std::uint64_t s) {
                // Shard s is a pure function of (caller seed, s): fork a
                // private lineage whose counter streams feed the lanes.
                obs::PhaseTimer timer(
                    observed ? &shard_profiles[s] : nullptr,
                    obs::Phase::kRoute, options.trace);
                const math::Rng shard_rng = rng.fork(s);
                const std::uint64_t pairs = base + (s < extra ? 1 : 0);
                RoutabilityEstimate estimate;
                run_dense_shard(ctx, overlay, failures, pairs, shard_rng,
                                estimate);
                results[s] = estimate;
              });

  RoutabilityEstimate merged;
  {
    obs::PhaseTimer timer(serial, obs::Phase::kMerge, options.trace);
    for (const RoutabilityEstimate& shard : results) {
      merged.merge(shard);
    }
  }
  if (options.profile != nullptr) {
    options.profile->merge(serial_profile);
    for (const obs::PhaseProfile& p : shard_profiles) {
      options.profile->merge(p);
    }
  }
  return merged;
}

RoutabilityEstimate exact_routability_parallel(
    const Overlay& overlay, const FailureScenario& failures,
    const ExactParallelOptions& options, const math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  const Router router(overlay, failures, options.max_hops);
  const flat::FlatCtx ctx = flat::make_ctx(overlay, failures, options.max_hops,
                                           options.use_flat_kernels);

  const std::uint64_t size = failures.size();
  const std::uint64_t shards =
      options.shards != 0 ? std::min(options.shards, size)
                          : std::min<std::uint64_t>(size, 256);
  const std::uint64_t base = size / shards;
  const std::uint64_t extra = size % shards;

  std::vector<RoutabilityEstimate> results(shards);
  run_sharded(shards, resolve_threads(options.threads),
              [&](std::uint64_t s) {
                // Shard s owns the contiguous source block [lo, hi).
                const std::uint64_t lo = s * base + std::min(s, extra);
                const std::uint64_t hi = lo + base + (s < extra ? 1 : 0);
                math::Rng shard_rng = rng.fork(s);
                RoutabilityEstimate estimate;
                for (NodeId source = lo; source < hi; ++source) {
                  if (!failures.alive(source)) {
                    continue;
                  }
                  for (NodeId target = 0; target < size; ++target) {
                    if (target == source || !failures.alive(target)) {
                      continue;
                    }
                    estimate.record(
                        route_one(ctx, router, source, target, shard_rng));
                  }
                }
                results[s] = estimate;
              });

  RoutabilityEstimate merged;
  for (const RoutabilityEstimate& shard : results) {
    merged.merge(shard);
  }
  return merged;
}

}  // namespace dht::sim
