#include "sim/shard_pool.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace dht::sim {
namespace {

TEST(ShardPool, EveryShardRunsExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (std::uint64_t chunk : {0ull, 1ull, 7ull, 1000ull}) {
      const std::uint64_t shards = 257;  // prime: never divides chunk runs
      std::vector<std::atomic<int>> hits(shards);
      run_sharded(shards, PoolOptions{.threads = threads, .chunk = chunk},
                  [&](std::uint64_t s) {
                    ASSERT_LT(s, shards);
                    hits[s].fetch_add(1, std::memory_order_relaxed);
                  });
      for (std::uint64_t s = 0; s < shards; ++s) {
        EXPECT_EQ(hits[s].load(), 1)
            << "shard " << s << " threads=" << threads << " chunk=" << chunk;
      }
    }
  }
}

TEST(ShardPool, MoreThreadsThanShards) {
  std::vector<std::atomic<int>> hits(3);
  run_sharded(3, PoolOptions{.threads = 16}, [&](std::uint64_t s) {
    hits[s].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ShardPool, ZeroShardsIsANoOp) {
  int calls = 0;
  run_sharded(0, PoolOptions{.threads = 4}, [&](std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// Marks the pool's own failure point.  The throwing shard arms its
// worker's sentinel; the worker stores the pool's `failed` flag before it
// returns, and thread_local destructors run only after the thread function
// returns, so once `visible` reads true the failure is visible to every
// worker's next check.
struct FailureSentinel {
  std::atomic<bool>* visible = nullptr;
  ~FailureSentinel() {
    if (visible != nullptr) {
      visible->store(true, std::memory_order_release);
    }
  }
};
thread_local FailureSentinel failure_sentinel;

TEST(ShardPool, ThrowingShardPropagatesWithoutDeadlock) {
  // The original bug: workers claimed a new run BEFORE checking the failure
  // flag, so a failed sweep kept starting fresh shards.  This must (a) not
  // deadlock, (b) rethrow the first exception, (c) start no shard once the
  // failure is visible.  A worker may have passed its check just before
  // the failure became visible, so each of the other workers can still
  // start one shard that sees the sentinel -- never a second.
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::uint64_t shards = 10000;
    std::atomic<std::uint64_t> started{0};
    std::atomic<std::uint64_t> after_failure{0};
    std::atomic<bool> failure_visible{false};
    const auto work = [&](std::uint64_t s) {
      if (failure_visible.load(std::memory_order_acquire)) {
        after_failure.fetch_add(1, std::memory_order_relaxed);
      }
      started.fetch_add(1, std::memory_order_relaxed);
      if (s == 5) {
        failure_sentinel.visible = &failure_visible;
        throw std::runtime_error("shard 5 exploded");
      }
    };
    EXPECT_THROW(
        run_sharded(shards, PoolOptions{.threads = threads, .chunk = 1}, work),
        std::runtime_error)
        << "threads=" << threads;
    // The serial path runs on this thread: disarm its sentinel before
    // `failure_visible` goes out of scope.
    failure_sentinel.visible = nullptr;
    if (threads == 1) {
      EXPECT_EQ(started.load(std::memory_order_relaxed), 6u);
      continue;
    }
    // The throwing worker has exited, so its sentinel has fired.
    EXPECT_TRUE(failure_visible.load(std::memory_order_acquire))
        << "threads=" << threads;
    EXPECT_LE(after_failure.load(std::memory_order_relaxed),
              std::uint64_t{threads} - 1)
        << "threads=" << threads;
  }
}

TEST(ShardPool, FirstExceptionWins) {
  // Every shard throws; exactly one exception must surface and the pool
  // must still join all workers.
  EXPECT_THROW(
      run_sharded(64, PoolOptions{.threads = 8, .chunk = 1},
                  [](std::uint64_t s) {
                    throw std::runtime_error("shard " + std::to_string(s));
                  }),
      std::runtime_error);
}

TEST(ShardPool, ShardOrderMergeIsThreadCountInvariant) {
  // The engines' contract in miniature: per-shard results merged in shard
  // order are bit-identical at any thread count.
  const std::uint64_t shards = 512;
  const auto run = [&](unsigned threads) {
    std::vector<std::uint64_t> value(shards);
    run_sharded(shards, PoolOptions{.threads = threads},
                [&](std::uint64_t s) { value[s] = s * 0x9e3779b97f4a7c15ULL; });
    return std::accumulate(value.begin(), value.end(), std::uint64_t{0});
  };
  const std::uint64_t one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(8), one);
}

TEST(ShardPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace dht::sim
