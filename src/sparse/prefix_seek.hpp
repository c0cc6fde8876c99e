// Prefix-seek window over a sorted identifier array.
//
// seek[b] is the first position whose id is >= (b << shift), and
// seek.back() is the array size.  Every id at a position below seek[b] is
// below bucket b's range and every id at or past seek[b + 1] is above it,
// so the lower and upper bound of any key in bucket b lie inside
// [seek[b], seek[b + 1]].  A successor or range query then binary-searches
// the handful of ids in one bucket instead of the whole population -- the
// answers stay exact bounds over a provably sufficient window, so they are
// bit-identical to plain std::lower_bound / std::upper_bound.
//
// Shared by the static id space (SparseIdSpace, built once) and the churn
// membership index (churn::SparseMembership, rebuilt by commit()).  Each
// caller sizes its own table; the build is one streaming pass over the ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dht::sparse {

class PrefixSeek {
 public:
  PrefixSeek() = default;

  /// 2^bucket_bits buckets over a bits-bit key space
  /// (0 <= bucket_bits <= bits <= 63).  Table cost: 4 B per bucket.
  PrefixSeek(int bits, int bucket_bits)
      : shift_(bits - bucket_bits),
        seek_((std::uint64_t{1} << bucket_bits) + 1, 0) {}

  /// Rebuilds the table over ascending ids[0, count) (count < 2^32): every
  /// bucket up to an id's prefix that has not started yet starts at that
  /// id's position (empty buckets collapse onto the next occupied one);
  /// trailing buckets start at the end.
  void build(const std::uint64_t* ids, std::uint64_t count) {
    const std::uint64_t buckets = seek_.size() - 1;
    std::uint64_t b = 0;
    for (std::uint64_t pos = 0; pos < count; ++pos) {
      const std::uint64_t prefix = ids[pos] >> shift_;
      while (b <= prefix) {
        seek_[b++] = static_cast<std::uint32_t>(pos);
      }
    }
    while (b <= buckets) {
      seek_[b++] = static_cast<std::uint32_t>(count);
    }
  }

  /// Position of the first id >= key in the array the table was built
  /// over (its size when every id is smaller).
  std::uint64_t lower_bound(const std::uint64_t* ids,
                            std::uint64_t key) const {
    const std::uint64_t b = key >> shift_;
    return static_cast<std::uint64_t>(
        std::lower_bound(ids + seek_[b], ids + seek_[b + 1], key) - ids);
  }

  /// Position of the first id > key, searched from position `from` on.
  /// Precondition: from <= the answer (e.g. the lower bound of a smaller
  /// key), so narrowing the window to it keeps the result exact.
  std::uint64_t upper_bound(const std::uint64_t* ids, std::uint64_t key,
                            std::uint64_t from = 0) const {
    const std::uint64_t b = key >> shift_;
    return static_cast<std::uint64_t>(
        std::upper_bound(ids + std::max<std::uint64_t>(from, seek_[b]),
                         ids + seek_[b + 1], key) -
        ids);
  }

 private:
  int shift_ = 0;
  std::vector<std::uint32_t> seek_;
};

}  // namespace dht::sparse
