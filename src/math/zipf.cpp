#include "math/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dht::math {

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : ZipfSampler(n, s, [](std::uint64_t count, const auto& fill) {
        fill(std::uint64_t{0}, count);
      }) {}

std::uint64_t ZipfSampler::checked_ranks(std::uint64_t n, double s) {
  DHT_CHECK(n >= 1, "zipf sampler needs at least one rank");
  DHT_CHECK(n <= (std::uint64_t{1} << 26),
            "zipf sampler rank count exceeds the 2^26 population cap");
  DHT_CHECK(std::isfinite(s) && s >= 0.0,
            "zipf skew must be finite and >= 0");
  return n;
}

void ZipfSampler::fill_terms(std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t r = begin; r < end; ++r) {
    cdf_[r] = s_ == 0.0 ? 1.0 : std::pow(static_cast<double>(r + 1), -s_);
  }
}

void ZipfSampler::accumulate() {
  // Partial sums of the terms, normalized in a second pass.  Built once
  // per sampler from (n, s) alone -- every consumer sees the same table, so
  // inversion results depend only on the drawn u.
  double total = 0.0;
  for (double& term : cdf_) {
    total += term;
    term = total;
  }
  for (double& partial : cdf_) {
    partial /= total;
  }
  cdf_.back() = 1.0;  // guard the top interval against rounding
}

double ZipfSampler::probability(std::uint64_t rank) const {
  DHT_CHECK(rank < cdf_.size(), "zipf rank out of range");
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::uint64_t ZipfSampler::invert(double u) const {
  // First r with cdf_[r] > u; u < 1 and cdf_.back() == 1 keep it in range.
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

}  // namespace dht::math
