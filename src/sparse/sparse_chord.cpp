#include "sparse/sparse_chord.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace dht::sparse {

SparseChordOverlay::SparseChordOverlay(const SparseIdSpace& space)
    : space_(&space) {
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const std::uint64_t size = space.key_space_size();
  const std::uint64_t mask = size - 1;
  fingers_.resize(n * static_cast<std::uint64_t>(d));
  // First pass: distinct fingers per node, CSR-compressed into temporaries.
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> progress_csr;
  std::vector<NodeIndex> targets_csr;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<std::pair<std::uint64_t, NodeIndex>> row;
  row.reserve(static_cast<std::size_t>(d));
  std::uint64_t widest = 1;
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = space.id_of(v);
    row.clear();
    for (int i = 1; i <= d; ++i) {
      const sim::NodeId key =
          (base + (std::uint64_t{1} << (d - i))) & mask;
      const NodeIndex f = space.successor_of_key(key);
      fingers_[v * static_cast<std::uint64_t>(d) +
               static_cast<std::uint64_t>(i - 1)] = f;
      if (f != v) {
        row.emplace_back((space.id_of(f) - base) & mask, f);
      }
    }
    // Distinct fingers sorted by decreasing progress; equal progress means
    // the same identifier, i.e. the same node, so dedup drops exactly the
    // fingers that collapsed onto one successor.
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (const auto& [progress, target] : row) {
      progress_csr.push_back(progress);
      targets_csr.push_back(target);
    }
    offsets.push_back(progress_csr.size());
    widest = std::max<std::uint64_t>(widest, row.size());
  }
  // Second pass: repack into fixed-stride rows, padded with (0, kNoNode).
  // Real entries always have progress > 0 (self-links were dropped above),
  // so pads never look admissible and mark the end of a row.  Stride
  // rounded to a whole number of 64-byte lines keeps rows line-aligned.
  route_stride_ = static_cast<int>((widest + 7) & ~std::uint64_t{7});
  const std::uint64_t stride = static_cast<std::uint64_t>(route_stride_);
  route_lens_.resize(n);
  for (NodeIndex v = 0; v < n; ++v) {
    route_lens_[v] = static_cast<std::uint8_t>(offsets[v + 1] - offsets[v]);
  }
  if (d <= 32) {
    // Packed shape: (progress << 32) | target per entry; pad is
    // (0 << 32) | kNoNode, below every admissibility key.
    route_packed_.assign(n * stride, std::uint64_t{kNoNode});
    for (NodeIndex v = 0; v < n; ++v) {
      const std::uint64_t lo = offsets[v];
      const std::uint64_t len = offsets[v + 1] - lo;
      for (std::uint64_t e = 0; e < len; ++e) {
        route_packed_[v * stride + e] =
            (progress_csr[lo + e] << 32) | targets_csr[lo + e];
      }
    }
  } else {
    route_progress_.assign(n * stride, 0);
    route_targets_.assign(n * stride, kNoNode);
    for (NodeIndex v = 0; v < n; ++v) {
      const std::uint64_t lo = offsets[v];
      const std::uint64_t len = offsets[v + 1] - lo;
      std::copy_n(
          progress_csr.begin() + static_cast<std::ptrdiff_t>(lo), len,
          route_progress_.begin() + static_cast<std::ptrdiff_t>(v * stride));
      std::copy_n(
          targets_csr.begin() + static_cast<std::ptrdiff_t>(lo), len,
          route_targets_.begin() + static_cast<std::ptrdiff_t>(v * stride));
    }
  }
}

NodeIndex SparseChordOverlay::finger(NodeIndex node, int index) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  DHT_CHECK(index >= 1 && index <= space_->bits(),
            "finger index out of range");
  return fingers_[node * static_cast<std::uint64_t>(space_->bits()) +
                  static_cast<std::uint64_t>(index - 1)];
}

std::optional<NodeIndex> SparseChordOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  // Range checks live here at the API boundary; the scan below reads the
  // finger row and id array raw (finger()/id_of() would re-check per call).
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const int d = space_->bits();
  const sim::NodeId* ids = space_->ids().data();
  const NodeIndex* row = fingers_.data() + current * static_cast<std::uint64_t>(d);
  const sim::NodeId current_id = ids[current];
  const std::uint64_t distance =
      sim::ring_distance(current_id, ids[target], d);
  // Greedy clockwise without overshoot.  Sparse finger offsets are not
  // strictly ordered by index (each is a successor jump past the dyadic
  // point), so scan all fingers and keep the best admissible alive one.
  std::uint64_t best_progress = 0;
  NodeIndex best = current;
  for (int i = 0; i < d; ++i) {
    const NodeIndex f = row[i];
    if (f == current) {
      continue;  // finger wrapped onto ourselves (tiny networks)
    }
    const std::uint64_t progress =
        sim::ring_distance(current_id, ids[f], d);
    if (progress > distance || progress <= best_progress) {
      continue;
    }
    if (failures.alive(f)) {
      best_progress = progress;
      best = f;
    }
  }
  if (best_progress == 0) {
    return std::nullopt;
  }
  return best;
}

}  // namespace dht::sparse
