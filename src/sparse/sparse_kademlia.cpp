#include "sparse/sparse_kademlia.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace dht::sparse {

SparseKademliaOverlay::SparseKademliaOverlay(const SparseIdSpace& space,
                                             math::Rng& rng)
    : SparseKademliaOverlay(space, rng, 1) {}

SparseKademliaOverlay::SparseKademliaOverlay(const SparseIdSpace& space,
                                             math::Rng& rng, int k)
    : space_(&space), k_(k) {
  DHT_CHECK(k >= 1 && k <= 64, "bucket width must be in [1, 64]");
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const auto row_width = static_cast<std::uint64_t>(d) * k;
  contacts_.resize(n * row_width, kNoNode);
  // Bucket i of v is the sibling of v's own depth-i subtree: the ids that
  // share id(v)'s first i-1 bits and differ at bit i.  With v's own
  // depth-i subtree at index range [lo[i], hi[i]) (depth 0 = everyone),
  // the sibling is [hi[i], hi[i-1]) when bit i of id(v) is 0 and
  // [lo[i-1], lo[i]) when it is 1.  Ids are sorted, so consecutive nodes
  // share every subtree down to their common prefix; only the deeper ones
  // are new, each starting at v and ending inside its parent, so its end
  // is a search over a range that shrinks with depth.
  const sim::NodeId* ids = space.ids().data();
  std::vector<std::uint64_t> lo(static_cast<std::size_t>(d) + 1, 0);
  std::vector<std::uint64_t> hi(static_cast<std::size_t>(d) + 1, n);
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = ids[v];
    const int shared =
        v == 0 ? 0 : d - static_cast<int>(std::bit_width(ids[v - 1] ^ base));
    for (int i = shared + 1; i <= d; ++i) {
      const sim::NodeId subtree_last =
          base | ((std::uint64_t{1} << (d - i)) - 1);
      lo[i] = v;
      hi[i] = static_cast<std::uint64_t>(
          std::upper_bound(ids + v, ids + hi[i - 1], subtree_last) - ids);
    }
    for (int i = 1; i <= d; ++i) {
      const bool bit_set = ((base >> (d - i)) & 1) != 0;
      const std::uint64_t first = bit_set ? lo[i - 1] : hi[i];
      const std::uint64_t last = bit_set ? lo[i] : hi[i - 1];
      if (first == last) {
        continue;  // empty bucket: nobody lives in this subtree
      }
      const std::uint64_t bucket_base =
          v * row_width + static_cast<std::uint64_t>(i - 1) * k;
      // Cell 0 is the historical single uniform draw (bit-compatible rng
      // stream at k = 1); further cells add distinct members -- bounded
      // rejection against the cells already chosen, then a deterministic
      // scan from the rejected draw (k and bucket overlaps are small).
      const std::uint64_t size = last - first;
      const auto head =
          static_cast<NodeIndex>(first + rng.uniform_below(size));
      contacts_[bucket_base] = head;
      const int cells = static_cast<int>(
          size < static_cast<std::uint64_t>(k) ? size : k);
      for (int cell = 1; cell < cells; ++cell) {
        const auto taken = [&](NodeIndex candidate) {
          for (int prev = 0; prev < cell; ++prev) {
            if (contacts_[bucket_base + prev] == candidate) {
              return true;
            }
          }
          return false;
        };
        auto pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        for (int attempt = 0; attempt < 16 && taken(pick); ++attempt) {
          pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        }
        while (taken(pick)) {  // walk to the next free member (cells < size)
          pick = pick + 1 == last ? static_cast<NodeIndex>(first)
                                  : static_cast<NodeIndex>(pick + 1);
        }
        contacts_[bucket_base + cell] = pick;
      }
    }
  }
}

std::optional<NodeIndex> SparseKademliaOverlay::contact(NodeIndex node,
                                                        int bucket,
                                                        int cell) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  DHT_CHECK(bucket >= 1 && bucket <= space_->bits(),
            "bucket index out of range");
  DHT_CHECK(cell >= 0 && cell < k_, "bucket cell out of range");
  const NodeIndex entry =
      contacts_[node * static_cast<std::uint64_t>(space_->bits()) * k_ +
                static_cast<std::uint64_t>(bucket - 1) * k_ +
                static_cast<std::uint64_t>(cell)];
  if (entry == kNoNode) {
    return std::nullopt;
  }
  return entry;
}

std::optional<NodeIndex> SparseKademliaOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  // Range checks live here at the API boundary; the bucket walk below reads
  // the contact row and id array raw (contact()/id_of() would re-check per
  // call, d times per hop on the hot path).
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const int d = space_->bits();
  const sim::NodeId* ids = space_->ids().data();
  const NodeIndex* row = contacts_.data() +
                         current * static_cast<std::uint64_t>(d) * k_;
  const sim::NodeId current_id = ids[current];
  const sim::NodeId target_id = ids[target];
  const std::uint64_t current_distance =
      sim::xor_distance(current_id, target_id);
  // Buckets at levels where current and target differ, highest order
  // first; within a bucket, cells head first.  The first alive contact
  // strictly closer to the target is the greedy choice (correcting a
  // higher-order bit dominates any suffix noise).
  sim::NodeId diff = current_distance;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const NodeIndex* bucket = row + static_cast<std::uint64_t>(d - bw) * k_;
    for (int cell = 0; cell < k_; ++cell) {  // bucket level d - bw + 1
      const NodeIndex entry = bucket[cell];
      if (entry != kNoNode && failures.alive(entry) &&
          sim::xor_distance(ids[entry], target_id) < current_distance) {
        return entry;
      }
    }
    diff &= ~(sim::NodeId{1} << (bw - 1));
  }
  return std::nullopt;
}

}  // namespace dht::sparse
