#include "sparse/sparse_symphony.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dht::sparse {

SparseSymphonyOverlay::SparseSymphonyOverlay(const SparseIdSpace& space,
                                             int near_neighbors,
                                             int shortcuts, math::Rng& rng)
    : space_(&space), kn_(near_neighbors), ks_(shortcuts) {
  DHT_CHECK(kn_ >= 1, "symphony requires at least one near neighbor");
  DHT_CHECK(ks_ >= 1, "symphony requires at least one shortcut");
  DHT_CHECK(static_cast<std::uint64_t>(kn_ + ks_) < space.node_count(),
            "kn + ks must be smaller than the network");
  const std::uint64_t n = space.node_count();
  const std::uint64_t keys = space.key_space_size();
  const double log_range = std::log(static_cast<double>(keys - 1));
  shortcuts_.resize(n * static_cast<std::uint64_t>(ks_));
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = space.id_of(v);
    for (int j = 0; j < ks_; ++j) {
      // Harmonic key distance, then link to the owning node.  Re-draw when
      // the owner degenerates to the node itself (tiny offsets whose whole
      // gap belongs to v's successor arc are fine; landing back on v is
      // not a usable link).
      NodeIndex link = v;
      for (int attempt = 0; attempt < 64 && link == v; ++attempt) {
        const double u = rng.uniform01();
        std::uint64_t offset =
            static_cast<std::uint64_t>(std::exp(u * log_range));
        offset = std::min<std::uint64_t>(std::max<std::uint64_t>(offset, 1),
                                         keys - 1);
        link = space.successor_of_key((base + offset) & (keys - 1));
      }
      if (link == v) {
        link = space.ring_step(v, 1);  // degenerate fallback: successor
      }
      shortcuts_[v * static_cast<std::uint64_t>(ks_) +
                 static_cast<std::uint64_t>(j)] = link;
    }
  }
}

NodeIndex SparseSymphonyOverlay::shortcut(NodeIndex node, int j) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  DHT_CHECK(j >= 0 && j < ks_, "shortcut index out of range");
  return shortcuts_[node * static_cast<std::uint64_t>(ks_) +
                    static_cast<std::uint64_t>(j)];
}

std::optional<NodeIndex> SparseSymphonyOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  // Range checks live here at the API boundary; the scans below read the
  // shortcut row and id array raw (shortcut()/id_of()/ring_step() would
  // re-check per call on the hot path).
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const int d = space_->bits();
  const std::uint64_t n = space_->node_count();
  const sim::NodeId* ids = space_->ids().data();
  const NodeIndex* row =
      shortcuts_.data() + current * static_cast<std::uint64_t>(ks_);
  const sim::NodeId current_id = ids[current];
  const std::uint64_t distance =
      sim::ring_distance(current_id, ids[target], d);

  std::uint64_t best_progress = 0;
  NodeIndex best = current;
  const auto consider = [&](NodeIndex link) {
    if (link == current) {
      return;
    }
    const std::uint64_t progress =
        sim::ring_distance(current_id, ids[link], d);
    if (progress > distance || progress <= best_progress) {
      return;  // overshoots, or no better than the current best
    }
    if (failures.alive(link)) {
      best_progress = progress;
      best = link;
    }
  };
  for (int j = 0; j < ks_; ++j) {
    consider(row[j]);
  }
  for (int k = 1; k <= kn_; ++k) {
    consider(static_cast<NodeIndex>((current + static_cast<std::uint64_t>(k)) %
                                    n));
  }
  if (best_progress == 0) {
    return std::nullopt;
  }
  return best;
}

}  // namespace dht::sparse
