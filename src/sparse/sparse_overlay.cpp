#include "sparse/sparse_overlay.hpp"

#include "common/check.hpp"

namespace dht::sparse {

SparseOverlay::~SparseOverlay() = default;

SparseFailure::SparseFailure(const SparseIdSpace& space, double q,
                             math::Rng& rng)
    : alive_(space.node_count(), 1) {
  DHT_CHECK(q >= 0.0 && q <= 1.0, "failure probability q must be in [0, 1]");
  const auto n = static_cast<NodeIndex>(space.node_count());
  alive_ids_.reserve(n);
  if (q == 0.0) {
    for (NodeIndex i = 0; i < n; ++i) {
      alive_ids_.push_back(i);
    }
    return;
  }
  for (NodeIndex i = 0; i < n; ++i) {
    if (rng.bernoulli(q)) {
      alive_[i] = 0;
    } else {
      alive_ids_.push_back(i);
    }
  }
}

std::optional<int> route(const SparseOverlay& overlay,
                         const SparseFailure& failures, NodeIndex source,
                         NodeIndex target) {
  DHT_CHECK(source != target, "route requires source != target");
  const std::uint64_t max_hops = overlay.space().node_count();
  NodeIndex current = source;
  int hops = 0;
  while (current != target) {
    if (static_cast<std::uint64_t>(hops) >= max_hops) {
      DHT_CHECK(false, "sparse route exceeded N hops: protocol bug");
    }
    const auto next = overlay.next_hop(current, target, failures);
    if (!next.has_value()) {
      return std::nullopt;
    }
    current = *next;
    ++hops;
  }
  return hops;
}

SparseEstimate estimate_routability(const SparseOverlay& overlay,
                                    const SparseFailure& failures,
                                    std::uint64_t pairs, math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  DHT_CHECK(pairs > 0, "at least one pair must be sampled");
  SparseEstimate estimate;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const NodeIndex source = failures.sample_alive(rng);
    NodeIndex target = failures.sample_alive(rng);
    while (target == source) {
      target = failures.sample_alive(rng);
    }
    const auto hops = route(overlay, failures, source, target);
    if (hops.has_value()) {
      estimate.record_arrival(static_cast<std::uint64_t>(*hops));
    } else {
      estimate.record_drop();
    }
  }
  return estimate;
}

}  // namespace dht::sparse
