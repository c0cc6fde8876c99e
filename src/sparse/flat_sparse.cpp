#include "sparse/flat_sparse.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "math/zipf.hpp"
#include "sim/shard_pool.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_symphony.hpp"

namespace dht::sparse {

namespace flat {

FlatSparseCtx make_sparse_ctx(const SparseOverlay& overlay,
                              const SparseFailure& failures,
                              std::uint64_t max_hops, bool use_flat_kernels) {
  const SparseIdSpace& space = overlay.space();
  FlatSparseCtx c;
  c.d = space.bits();
  c.key_mask = space.key_space_size() - 1;
  c.n = space.node_count();
  c.ids = space.ids().data();
  c.alive = failures.alive_data();
  c.max_hops = max_hops == 0 ? space.node_count() : max_hops;
  if (!use_flat_kernels) {
    return c;
  }
  if (const auto* chord = dynamic_cast<const SparseChordOverlay*>(&overlay)) {
    c.kind = SparseKernelKind::kChord;
    if (!chord->route_packed().empty()) {
      c.packed = chord->route_packed().data();
    } else {
      c.table = chord->route_targets().data();
      c.progress = chord->route_progress().data();
    }
    c.row_len = chord->route_lens().data();
    c.row_width = chord->route_stride();
  } else if (const auto* kad =
                 dynamic_cast<const SparseKademliaOverlay*>(&overlay)) {
    c.kind = SparseKernelKind::kKademlia;
    c.table = kad->contact_table().data();
    c.bucket_k = kad->bucket_k();
    c.row_width = c.d * kad->bucket_k();
  } else if (const auto* sym =
                 dynamic_cast<const SparseSymphonyOverlay*>(&overlay)) {
    c.kind = SparseKernelKind::kSymphony;
    c.table = sym->shortcut_table().data();
    c.row_width = sym->shortcuts();
    c.kn = sym->near_neighbors();
    c.ks = sym->shortcuts();
  }
  if (c.kind != SparseKernelKind::kGeneric) {
    // Pack the byte mask into bits once per engine invocation (the failure
    // scenario is frozen for the whole estimate): N/8 bytes instead of N,
    // small enough to stay cache-resident under the kernels' random probes.
    auto bits = std::make_shared<std::vector<std::uint64_t>>(c.n / 64 + 1, 0);
    for (std::uint64_t i = 0; i < c.n; ++i) {
      (*bits)[i >> 6] |= static_cast<std::uint64_t>(c.alive[i] ? 1 : 0)
                         << (i & 63);
    }
    c.alive_bits = bits->data();
    c.alive_bits_owner = std::move(bits);
  }
  return c;
}

namespace {

// Path-cache slot fields (FlatSparseCtx::cache): (epoch tag << 26) | rank.
// Ranks are below the 2^26 object cap, which leaves 6 bits for the tag;
// tag 0 marks a never-written slot and is never a shard's epoch.
constexpr int kCacheTagShift = 26;
constexpr std::uint32_t kCacheTagPeriod = std::uint32_t{1}
                                          << (32 - kCacheTagShift);

inline void record(SparseEstimate& estimate, SparseRouteStatus status,
                   int hops) {
  record_route(estimate, status, static_cast<std::uint64_t>(hops));
}

// The shared struct-of-arrays lane driver.  Retires every terminal lane
// (drop sentinel / arrival / hop cap), refills it from the pair source,
// then advances all still-active lanes one hop with the batch step; repeat
// until the pair source runs dry and every lane retires.  Lanes are
// serviced in lane order, so the whole schedule -- which lane routes which
// pair -- is a deterministic function of the pair source and the (rng-free)
// route outcomes, identically for the flat kernels and the virtual path.
//
// A freshly refilled pair is never terminal (source != target, 0 hops <
// max_hops >= 1), so one settle pass per turn suffices and a refilled lane
// steps in the same turn -- lanes never idle while pairs remain.
//
// Workload hooks, both no-ops in the default configuration: with a path
// cache (c.cache != null), each settled lane probes its current node's
// cache row before stepping -- a hit forwards straight to the cached
// owner in one hop, a miss installs the mapping (the lookup's answer IS
// the owner, so caching on the miss models response-path caching exactly).
// With load recording (c.load != null), every forward -- one per active
// lane per step, plus the cache-hit forward -- bumps the forwarding node's
// counter.  Both hooks are rng-free, so the pair handout schedule (and
// hence the draw streams) is untouched; with the hooks off the loop
// retires, refills, and steps in byte-for-byte the historical order.
template <typename PairSource, typename StepBatch>
void drive_lanes(const FlatSparseCtx& c, PairSource& pair_source,
                 SparseEstimate& estimate, StepBatch step_batch) {
  RouteBatch b;
  int active = 0;
  const auto refill = [&](int l) {
    NodeIndex source;
    NodeIndex target;
    std::uint32_t rank;
    if (!pair_source(l, source, target, rank)) {
      if (b.active[l]) {
        b.active[l] = 0;
        --active;
      }
      return;
    }
    b.cur[l] = source;
    b.target[l] = target;
    b.target_id[l] = c.ids[target];
    b.dist[l] = (b.target_id[l] - c.ids[source]) & c.key_mask;
    b.hops[l] = 0;
    b.rank[l] = rank;
    if (!b.active[l]) {
      b.active[l] = 1;
      ++active;
    }
  };
  // Probes lane l's object in its current node's cache row.  True on a
  // hit: the holder forwards straight to the cached owner (one hop, load
  // accounted), and the settle loop re-checks the lane -- which then
  // records the arrival.  A slot caches only the object's rank: the owner
  // it maps to is the object's owner, i.e. the lane's target, so a hit can
  // never misroute.  A slot from an earlier epoch never matches, so it
  // misses and is overwritten exactly like an empty one.
  const auto probe = [&](int l) -> bool {
    if (c.cache == nullptr || b.rank[l] == kNoRank) {
      return false;
    }
    const std::uint64_t entries =
        static_cast<std::uint64_t>(c.cache_entries);
    std::uint32_t& slot = c.cache[b.cur[l] * entries + b.rank[l] % entries];
    const std::uint32_t key = c.cache_tag | b.rank[l];
    ++estimate.cache_probes;
    if (slot == key) {
      ++estimate.cache_hits;
      if (c.load != nullptr) {
        c.load[b.cur[l]].fetch_add(1, std::memory_order_relaxed);
      }
      b.cur[l] = b.target[l];
      b.hops[l] += 1;
      return true;
    }
    slot = key;
    return false;
  };
  // Retires and refills lane l until it is steppable (mid-route with a
  // cache miss) or the pair source runs dry.  The batch kernels require
  // every active lane to be strictly mid-route, so a cache-hit jump to the
  // target must be resolved here, never handed to a kernel.
  const auto settle = [&](int l) {
    while (b.active[l]) {
      if (b.cur[l] == kNoNode) {
        record(estimate, SparseRouteStatus::kDropped,
               static_cast<int>(b.hops[l]));
        refill(l);
      } else if (b.cur[l] == b.target[l]) {
        record(estimate, SparseRouteStatus::kArrived,
               static_cast<int>(b.hops[l]));
        refill(l);
      } else if (b.hops[l] >= c.max_hops) {
        record(estimate, SparseRouteStatus::kHopLimit,
               static_cast<int>(b.hops[l]));
        refill(l);
      } else if (!probe(l)) {
        break;
      }
    }
  };
  for (int l = 0; l < RouteBatch::kLanes; ++l) {
    b.active[l] = 0;
    refill(l);
    settle(l);
  }
  while (active > 0) {
    if (c.load != nullptr) {
      for (int l = 0; l < RouteBatch::kLanes; ++l) {
        if (b.active[l]) {
          c.load[b.cur[l]].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    step_batch(c, b);
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      if (b.active[l]) {
        settle(l);
      }
    }
  }
}

// Production pair source: a shared budget of `pairs` draws, each lane
// sampling from its own counter-based stream.  Lane l's j-th pair is a
// pure function of (caller seed, shard, l, j) -- no sequential state is
// shared between lanes, so a lane's draws do not depend on how the other
// lanes' routes went (only *how many* pairs it gets does, and that is
// deterministic too: the driver is single-threaded per shard).
// Each lane keeps TWO pre-drawn pairs in flight, pipelined: a handout
// returns the front pair (whose identifiers and neighbor rows were
// prefetched one handout -- i.e. one whole route -- ago), promotes the
// back pair and warms its rows, and draws a fresh back pair.  The fresh
// draw's alive-id loads issue immediately but nothing needs their values
// until the NEXT handout, so the sampling misses overlap an entire route
// instead of stalling the refill.  Buffering never changes what is handed
// out: lane l's j-th handout is still its stream's j-th drawn pair, and
// the shared budget is spent at handout time, exactly as in the unbuffered
// loop (each lane's final buffered draws simply go unused -- lane streams
// are independent, so unused draws affect nothing).
// When the workload model is engaged (tables != null), a draw samples the
// source uniformly over alive nodes and the *object* by Zipf rank; the
// target is the object's precomputed owner.  Owner collisions (source
// already owns the object) redraw both, like the uniform path's
// target-equals-source redraw -- the loop terminates because at least two
// nodes are alive and the source is resampled each round.
struct WorkloadTables {
  const math::ZipfSampler* zipf = nullptr;
  const NodeIndex* owner = nullptr;  // object rank -> owning alive node
};

struct LanePairSource {
  LanePairSource(const FlatSparseCtx& c, const SparseFailure& failures,
                 const math::Rng& shard_rng, std::uint64_t pairs,
                 const WorkloadTables* workload = nullptr)
      : ctx_(c), failures_(failures), workload_(workload),
        remaining_(pairs) {
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      streams_[l] = shard_rng.counter_stream(static_cast<std::uint64_t>(l));
      front_[l] = draw(l);
      warm(front_[l]);
    }
  }

  bool operator()(int lane, NodeIndex& source, NodeIndex& target,
                  std::uint32_t& rank) {
    if (remaining_ == 0) {
      return false;
    }
    --remaining_;
    source = front_[lane].source;
    target = front_[lane].target;
    rank = front_[lane].rank;
    front_[lane] = draw(lane);
    warm(front_[lane]);
    return true;
  }

  struct Pair {
    NodeIndex source;
    NodeIndex target;
    std::uint32_t rank;
  };

  Pair draw(int lane) {
    math::CounterRng& rng = streams_[lane];
    if (workload_ == nullptr) {
      const NodeIndex source = failures_.sample_alive(rng);
      NodeIndex target = failures_.sample_alive(rng);
      while (target == source) {
        target = failures_.sample_alive(rng);
      }
      return Pair{source, target, kNoRank};
    }
    for (;;) {
      const NodeIndex source = failures_.sample_alive(rng);
      const std::uint64_t object = workload_->zipf->sample(rng);
      const NodeIndex target = workload_->owner[object];
      if (target != source) {
        return Pair{source, target, static_cast<std::uint32_t>(object)};
      }
    }
  }

  // Warm everything the pair's refill and first hop will touch.
  void warm(const Pair& p) const {
    __builtin_prefetch(&ctx_.ids[p.source]);
    __builtin_prefetch(&ctx_.ids[p.target]);
    const std::uint64_t row =
        p.source * static_cast<std::uint64_t>(ctx_.row_width);
    if (ctx_.packed != nullptr) {
      __builtin_prefetch(&ctx_.packed[row]);
    } else if (ctx_.table != nullptr) {
      __builtin_prefetch(&ctx_.table[row]);
      if (ctx_.progress != nullptr) {
        __builtin_prefetch(&ctx_.progress[row]);
      }
    }
  }

  const FlatSparseCtx& ctx_;
  const SparseFailure& failures_;
  const WorkloadTables* workload_;
  math::CounterRng streams_[RouteBatch::kLanes];
  Pair front_[RouteBatch::kLanes];
  std::uint64_t remaining_;
};

// Scripted pair source for the route_pairs_batched test hook: hands out a
// fixed pair list in order, whichever lane asks.
struct ListPairSource {
  bool operator()(int /*lane*/, NodeIndex& source, NodeIndex& target,
                  std::uint32_t& rank) {
    if (next == count) {
      return false;
    }
    source = pairs[next].first;
    target = pairs[next].second;
    rank = kNoRank;
    ++next;
    return true;
  }

  const std::pair<NodeIndex, NodeIndex>* pairs;
  std::uint64_t count;
  std::uint64_t next = 0;
};

// Virtual-dispatch batch step on the shared driver, so generic and flat
// runs share the lane schedule hop for hop and are bit-comparable.
struct GenericStepBatch {
  const SparseOverlay& overlay;
  const SparseFailure& failures;

  void operator()(const FlatSparseCtx&, RouteBatch& b) const {
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      if (!b.active[l]) {
        continue;
      }
      const auto next = overlay.next_hop(b.cur[l], b.target[l], failures);
      if (!next.has_value()) {
        b.cur[l] = kNoNode;
        continue;
      }
      b.cur[l] = *next;
      b.hops[l] += 1;
    }
  }
};

// Path-cache buffers for one estimate call, reused across its shards.  A
// worker thread holds at most one buffer at a time, so at most `threads`
// buffers ever exist, each zeroed once when allocated.  acquire() opens a
// new epoch on the buffer, so the shard sees it as all-empty without a
// clear; only a wrapped tag forces one real clear.
class PathCachePool {
 public:
  struct Buffer {
    std::unique_ptr<std::uint32_t[]> slots;
    std::uint32_t epoch = 0;  // current tag; 0 = never handed out
  };

  explicit PathCachePool(std::uint64_t slots) : slots_(slots) {}

  Buffer acquire() {
    Buffer buffer;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        buffer = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (buffer.slots == nullptr) {
      buffer.slots = std::make_unique<std::uint32_t[]>(slots_);
    }
    if (++buffer.epoch == kCacheTagPeriod) {
      std::fill_n(buffer.slots.get(), slots_, 0);
      buffer.epoch = 1;
    }
    return buffer;
  }

  void release(Buffer buffer) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(buffer));
  }

 private:
  std::uint64_t slots_;
  std::mutex mutex_;
  std::vector<Buffer> free_;  // guarded by mutex_
};

template <typename PairSource>
void run_lanes(const FlatSparseCtx& c, const SparseOverlay& overlay,
               const SparseFailure& failures, PairSource& pair_source,
               SparseEstimate& estimate) {
  switch (c.kind) {
    case SparseKernelKind::kChord:
      drive_lanes(c, pair_source, estimate,
                  [](const FlatSparseCtx& ctx, RouteBatch& b) {
                    step_batch_chord(ctx, b);
                  });
      return;
    case SparseKernelKind::kKademlia:
      drive_lanes(c, pair_source, estimate,
                  [](const FlatSparseCtx& ctx, RouteBatch& b) {
                    step_batch_kademlia(ctx, b);
                  });
      return;
    case SparseKernelKind::kSymphony:
      drive_lanes(c, pair_source, estimate,
                  [](const FlatSparseCtx& ctx, RouteBatch& b) {
                    step_batch_symphony(ctx, b);
                  });
      return;
    case SparseKernelKind::kGeneric:
      drive_lanes(c, pair_source, estimate,
                  GenericStepBatch{overlay, failures});
      return;
  }
}

}  // namespace

void route_pairs_batched(const FlatSparseCtx& c, const SparseOverlay& overlay,
                         const SparseFailure& failures,
                         const std::pair<NodeIndex, NodeIndex>* pairs,
                         std::uint64_t count, SparseEstimate& estimate) {
  ListPairSource source{pairs, count};
  run_lanes(c, overlay, failures, source, estimate);
}

}  // namespace flat

SparseEstimate estimate_routability_parallel(
    const SparseOverlay& overlay, const SparseFailure& failures,
    const SparseParallelOptions& options, const math::Rng& rng) {
  return estimate_workload_parallel(overlay, failures, options, rng).estimate;
}

SparseWorkloadReport estimate_workload_parallel(
    const SparseOverlay& overlay, const SparseFailure& failures,
    const SparseParallelOptions& options, const math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  DHT_CHECK(options.pairs > 0, "at least one pair must be sampled");
  const SparseWorkloadOptions& wl = options.workload;
  DHT_CHECK(std::isfinite(wl.zipf_s) && wl.zipf_s >= 0.0,
            "workload zipf_s must be finite and >= 0");
  DHT_CHECK(wl.cache_entries >= 0 && wl.cache_entries <= 1024,
            "workload cache_entries must be in [0, 1024]");
  DHT_CHECK(wl.objects <= (std::uint64_t{1} << 26),
            "workload objects exceeds the 2^26 population cap");
  // Observability is a timing side-channel: null sinks (the default) read
  // no clock, shard profiles reduce in shard order, and nothing here
  // feeds back into the estimates.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  obs::PhaseProfile serial_profile;
  obs::PhaseProfile* const serial = observed ? &serial_profile : nullptr;
  obs::PhaseTimer build_timer(serial, obs::Phase::kWorldBuild, options.trace);
  flat::FlatSparseCtx ctx = flat::make_sparse_ctx(
      overlay, failures, options.max_hops, options.use_flat_kernels);

  // Workload tables, built once and shared read-only by every shard.  The
  // object->key map is a fixed keyed hash (independent of the caller seed,
  // so the object placement is a property of the space alone); the owner
  // is the key's successor, walked clockwise past dead nodes -- the
  // consistent-hashing reassignment a real DHT performs on failure.
  // Both tables are filled block-parallel; every entry is a pure function
  // of its index, so they match the serial build bit for bit.
  const unsigned threads = sim::resolve_threads(options.threads);
  constexpr std::uint64_t kTableBlock = std::uint64_t{1} << 14;
  flat::WorkloadTables tables;
  std::optional<math::ZipfSampler> zipf;
  std::vector<NodeIndex> owner;
  if (wl.enabled()) {
    const std::uint64_t objects =
        wl.objects != 0 ? wl.objects : failures.alive_count();
    zipf.emplace(objects, wl.zipf_s, [&](std::uint64_t count,
                                         const auto& fill) {
      sim::run_blocks(count, kTableBlock, threads, fill);
    });
    const SparseIdSpace& space = overlay.space();
    const math::CounterRng object_keys(0xb10c9a3f0b173c75ULL);
    owner.resize(objects);
    sim::run_blocks(objects, kTableBlock, threads, [&](std::uint64_t begin,
                                                       std::uint64_t end) {
      for (std::uint64_t o = begin; o < end; ++o) {
        NodeIndex holder =
            space.successor_of_key(object_keys.at(o) & ctx.key_mask);
        while (!failures.alive(holder)) {
          holder = space.ring_step(holder, 1);
        }
        owner[o] = holder;
      }
    });
    tables.zipf = &*zipf;
    tables.owner = owner.data();
    ctx.cache_entries = wl.cache_entries;
  }

  // One shared per-node load array: relaxed atomic adds commute, so the
  // final counts are independent of thread interleaving (load_stats.hpp).
  std::vector<std::atomic<std::uint64_t>> loads;
  if (wl.record_load) {
    loads = std::vector<std::atomic<std::uint64_t>>(ctx.n);
    ctx.load = loads.data();
  }

  build_timer.stop();

  const std::uint64_t shards =
      options.shards != 0 ? options.shards
                          : std::min<std::uint64_t>(options.pairs, 256);
  const std::uint64_t base = options.pairs / shards;
  const std::uint64_t extra = options.pairs % shards;

  std::vector<SparseEstimate> results(shards);
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  flat::PathCachePool caches(
      ctx.n * static_cast<std::uint64_t>(ctx.cache_entries));
  sim::run_sharded(
      shards, threads, [&](std::uint64_t s) {
        obs::PhaseTimer route_timer(observed ? &shard_profiles[s] : nullptr,
                                    obs::Phase::kRoute, options.trace);
        // Shard s is a pure function of (caller seed, s): fork a private
        // stream whose counter_stream(lane) draws sample the shard's slice
        // of the pair budget.
        const math::Rng shard_rng = rng.fork(s);
        const std::uint64_t pairs = base + (s < extra ? 1 : 0);
        flat::FlatSparseCtx local = ctx;
        // Shard-private path cache: the worker's reused buffer under a
        // fresh epoch tag, which reads as all-empty, so hits are a pure
        // function of the shard's lane schedule and the estimate stays
        // bit-identical at any thread count.  At most one buffer per
        // worker exists: the footprint is threads x n x entries x 4 B,
        // never multiplied by the shard count.
        flat::PathCachePool::Buffer cache;
        if (local.cache_entries > 0) {
          cache = caches.acquire();
          local.cache = cache.slots.get();
          local.cache_tag = cache.epoch << flat::kCacheTagShift;
        }
        flat::LanePairSource source(local, failures, shard_rng, pairs,
                                    tables.zipf != nullptr ? &tables
                                                           : nullptr);
        SparseEstimate estimate;
        flat::run_lanes(local, overlay, failures, source, estimate);
        results[s] = estimate;
        if (cache.slots != nullptr) {
          caches.release(std::move(cache));
        }
      });

  SparseWorkloadReport report;
  {
    obs::PhaseTimer merge_timer(serial, obs::Phase::kMerge, options.trace);
    for (const SparseEstimate& shard : results) {
      report.estimate.merge(shard);
    }
    if (wl.record_load) {
      std::vector<std::uint64_t> counts(loads.size());
      for (std::size_t i = 0; i < loads.size(); ++i) {
        counts[i] = loads[i].load(std::memory_order_relaxed);
      }
      report.load = sim::summarize_load(
          counts, [&](std::size_t i) {
            return failures.alive(static_cast<NodeIndex>(i));
          });
    }
  }
  if (options.profile != nullptr) {
    options.profile->merge(serial_profile);
    for (const obs::PhaseProfile& p : shard_profiles) {
      options.profile->merge(p);
    }
  }
  return report;
}

}  // namespace dht::sparse
