// Deterministic Zipf (power-law) rank sampler for the workload layer.
//
// Query popularity in deployed DHTs is heavily skewed: a handful of hot
// objects draw most of the traffic.  ZipfSampler models that as
// P(rank = r) proportional to 1 / (r + 1)^s over ranks 0..n-1 (s = 0 is the
// uniform workload), via exact CDF inversion: one uniform draw, one binary
// search over a precomputed partial-sum table.  The table is built once,
// purely from (n, s), so a sample is a pure function of (n, s, the drawn
// u64) -- which is what lets the batched sparse estimator sample workload
// targets from its per-lane CounterRng streams and stay bit-identical at
// any thread count (the draw sequence never depends on scheduling).
//
// Memory is 8 bytes per rank (the CDF table); n is capped at 2^26 ranks,
// matching the engines' population cap.
#pragma once

#include <cstdint>
#include <vector>

namespace dht::math {

class ZipfSampler {
 public:
  /// Ranks 0..n-1 with P(r) proportional to (r + 1)^-s.  Preconditions:
  /// 1 <= n <= 2^26, s >= 0 and finite.
  ZipfSampler(std::uint64_t n, double s);

  /// The same table with the (r + 1)^-s terms filled by
  /// `for_each_block(n, fill)`, which must call fill(begin, end) once per
  /// block of a partition of [0, n), possibly from several threads.  Each
  /// term lands in its own slot and the prefix sum stays serial in rank
  /// order, so the table is bit-identical to the serial constructor's.
  template <typename ForEachBlock>
  ZipfSampler(std::uint64_t n, double s, const ForEachBlock& for_each_block)
      : s_(s), cdf_(checked_ranks(n, s)) {
    for_each_block(n, [this](std::uint64_t begin, std::uint64_t end) {
      fill_terms(begin, end);
    });
    accumulate();
  }

  std::uint64_t ranks() const noexcept { return cdf_.size(); }
  double skew() const noexcept { return s_; }

  /// The table: cdf()[r] = P(rank <= r), cdf().back() == 1.
  const std::vector<double>& cdf() const noexcept { return cdf_; }

  /// P(rank = r); exact to the table's normalization.
  double probability(std::uint64_t rank) const;

  /// One sample: a single uniform01 draw inverted through the CDF.  Works
  /// with any generator exposing uniform01 (math::Rng for the sequential
  /// engines, math::CounterRng for the batched estimator's lane streams).
  template <typename Generator>
  std::uint64_t sample(Generator& rng) const {
    return invert(rng.uniform01());
  }

  /// The rank whose CDF interval contains u (u in [0, 1)); the
  /// deterministic core of sample().
  std::uint64_t invert(double u) const;

 private:
  /// Validates (n, s) and returns n.
  static std::uint64_t checked_ranks(std::uint64_t n, double s);
  /// cdf_[r] = (r + 1)^-s for r in [begin, end).
  void fill_terms(std::uint64_t begin, std::uint64_t end);
  /// Serial in-place prefix sum and normalization of the terms.
  void accumulate();

  double s_ = 0.0;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r), cdf_.back() == 1
};

}  // namespace dht::math
