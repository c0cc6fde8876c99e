#include "sparse/sparse_chord.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sparse {

namespace {

/// One forward-only successor cursor per finger level.  Positions live on
/// the doubled ring: index j < n is node j, index j >= n stands for node
/// j - n one lap on (identifier ids[j - n] + 2^d).  For level i the key
/// id(v) + 2^{d-i} grows with v, so its successor position never moves
/// back as v sweeps a block of consecutive nodes -- each cursor crosses at
/// most the block plus one lap of the ring.
class FingerSweep {
 public:
  /// Cursors for a sweep starting at node `first`: cursor i is the first
  /// doubled-ring position at or past first's level-i key.  The positions
  /// are strictly increasing in their identifiers, so this is exactly where
  /// a sweep from node 0 would hold the cursor on reaching `first`.
  FingerSweep(const SparseIdSpace& space, NodeIndex first)
      : ids_(space.ids().data()),
        n_(space.node_count()),
        bits_(space.bits()),
        lap_(space.key_space_size()),
        cursor_(static_cast<std::size_t>(space.bits())) {
    const auto lower = [this](std::uint64_t key) {
      return static_cast<std::uint64_t>(
          std::lower_bound(ids_, ids_ + n_, key) - ids_);
    };
    for (int i = 1; i <= bits_; ++i) {
      // A key below 2^d whose successor wraps gets position n (node 0 on
      // the second lap); a key past 2^d is searched as key - 2^d there.
      const std::uint64_t key =
          ids_[first] + (std::uint64_t{1} << (bits_ - i));
      cursor_[static_cast<std::size_t>(i - 1)] =
          key < lap_ ? lower(key) : n_ + lower(key - lap_);
    }
  }

  /// Calls emit(progress, target) for node v's distinct fingers in
  /// decreasing-progress order, self-links dropped.  Must be called for
  /// v = first, first + 1, ... in turn.
  template <typename Emit>
  void row(NodeIndex v, Emit&& emit) {
    const std::uint64_t base = ids_[v];
    const std::uint64_t self = v + n_;  // v one lap on: the self-link
    std::uint64_t previous = self;
    for (int i = 1; i <= bits_; ++i) {
      // Unwrapped key: < 2^d + 2^{d-1}, always below position v + n's
      // identifier id(v) + 2^d, so the cursor stops at or before `self`.
      const std::uint64_t key = base + (std::uint64_t{1} << (bits_ - i));
      std::uint64_t& j = cursor_[static_cast<std::size_t>(i - 1)];
      while (at(j) < key) {
        ++j;
      }
      // Positions along a row never increase (the offsets halve), so
      // collapsed fingers are adjacent and the row comes out sorted.
      if (j == previous) {
        continue;
      }
      previous = j;
      emit(at(j) - base, static_cast<NodeIndex>(j < n_ ? j : j - n_));
    }
  }

 private:
  std::uint64_t at(std::uint64_t j) const noexcept {
    return j < n_ ? ids_[j] : ids_[j - n_] + lap_;
  }

  const sim::NodeId* ids_;
  std::uint64_t n_;
  int bits_;
  std::uint64_t lap_;
  std::vector<std::uint64_t> cursor_;
};

}  // namespace

SparseChordOverlay::SparseChordOverlay(const SparseIdSpace& space,
                                       unsigned threads)
    : space_(&space) {
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const unsigned workers = sim::resolve_threads(threads);
  // Both passes run over fixed blocks of kBuildBlock nodes on the shard
  // pool, each block sweeping its own rows from freshly seeded cursors.
  // Every row is a pure function of the ids, and a block writes only its
  // own rows, so the tables do not depend on the thread count.
  //
  // Lengths pass: distinct non-self fingers per node give the stride.
  route_lens_.resize(n);
  std::vector<std::uint64_t> block_widest((n + kBuildBlock - 1) / kBuildBlock);
  sim::run_blocks(n, kBuildBlock, workers, [&](std::uint64_t begin,
                                               std::uint64_t end) {
    FingerSweep sweep(space, static_cast<NodeIndex>(begin));
    std::uint64_t widest = 1;
    for (std::uint64_t v = begin; v < end; ++v) {
      std::uint64_t len = 0;
      sweep.row(static_cast<NodeIndex>(v),
                [&](std::uint64_t, NodeIndex) { ++len; });
      route_lens_[v] = static_cast<std::uint8_t>(len);
      widest = std::max(widest, len);
    }
    block_widest[begin / kBuildBlock] = widest;
  });
  const std::uint64_t widest =
      *std::max_element(block_widest.begin(), block_widest.end());
  // Fill pass into fixed-stride rows, padded with (0, kNoNode).  Real
  // entries always have progress > 0 (self-links are dropped), so pads
  // never look admissible and mark the end of a row.  Stride rounded to a
  // whole number of 64-byte lines keeps rows line-aligned.  The tables
  // are allocated uninitialized and each block writes its rows' pads
  // itself, so the first touch of every page is spread over the workers.
  route_stride_ = static_cast<int>((widest + 7) & ~std::uint64_t{7});
  const std::uint64_t stride = static_cast<std::uint64_t>(route_stride_);
  route_size_ = n * stride;
  if (d <= 32) {
    // Packed shape: (progress << 32) | target per entry; pad is
    // (0 << 32) | kNoNode, below every admissibility key.
    route_packed_ =
        std::make_unique_for_overwrite<std::uint64_t[]>(route_size_);
    std::uint64_t* const packed = route_packed_.get();
    sim::run_blocks(n, kBuildBlock, workers, [&](std::uint64_t begin,
                                                 std::uint64_t end) {
      FingerSweep sweep(space, static_cast<NodeIndex>(begin));
      for (std::uint64_t v = begin; v < end; ++v) {
        std::uint64_t* const row = packed + v * stride;
        std::uint64_t* out = row;
        sweep.row(static_cast<NodeIndex>(v),
                  [&](std::uint64_t progress, NodeIndex target) {
                    *out++ = (progress << 32) | target;
                  });
        std::fill(out, row + stride, std::uint64_t{kNoNode});
      }
    });
  } else {
    route_progress_ =
        std::make_unique_for_overwrite<std::uint64_t[]>(route_size_);
    route_targets_ = std::make_unique_for_overwrite<NodeIndex[]>(route_size_);
    std::uint64_t* const progress_rows = route_progress_.get();
    NodeIndex* const target_rows = route_targets_.get();
    sim::run_blocks(n, kBuildBlock, workers, [&](std::uint64_t begin,
                                                 std::uint64_t end) {
      FingerSweep sweep(space, static_cast<NodeIndex>(begin));
      for (std::uint64_t v = begin; v < end; ++v) {
        std::uint64_t* progress_out = progress_rows + v * stride;
        NodeIndex* target_out = target_rows + v * stride;
        sweep.row(static_cast<NodeIndex>(v),
                  [&](std::uint64_t progress, NodeIndex target) {
                    *progress_out++ = progress;
                    *target_out++ = target;
                  });
        std::fill(progress_out, progress_rows + (v + 1) * stride,
                  std::uint64_t{0});
        std::fill(target_out, target_rows + (v + 1) * stride, kNoNode);
      }
    });
  }
}

NodeIndex SparseChordOverlay::finger(NodeIndex node, int index) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  DHT_CHECK(index >= 1 && index <= space_->bits(),
            "finger index out of range");
  const int d = space_->bits();
  const sim::NodeId key = (space_->ids()[node] +
                           (std::uint64_t{1} << (d - index))) &
                          (space_->key_space_size() - 1);
  return space_->successor_of_key(key);
}

std::optional<NodeIndex> SparseChordOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  // Range checks live here at the API boundary; the scan below reads the
  // route row and id array raw.
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const sim::NodeId* ids = space_->ids().data();
  const std::uint64_t distance =
      sim::ring_distance(ids[current], ids[target], space_->bits());
  // Greedy clockwise without overshoot.  The row holds current's distinct
  // fingers in decreasing progress, so the first alive entry that does not
  // overshoot is the max-progress admissible alive finger.
  const std::uint64_t stride = static_cast<std::uint64_t>(route_stride_);
  const std::uint64_t len = route_lens_[current];
  for (std::uint64_t e = 0; e < len; ++e) {
    std::uint64_t progress = 0;
    NodeIndex f = kNoNode;
    if (route_packed_ != nullptr) {
      const std::uint64_t entry = route_packed_[current * stride + e];
      progress = entry >> 32;
      f = static_cast<NodeIndex>(entry);
    } else {
      progress = route_progress_[current * stride + e];
      f = route_targets_[current * stride + e];
    }
    if (progress <= distance && failures.alive(f)) {
      return f;
    }
  }
  return std::nullopt;
}

}  // namespace dht::sparse
