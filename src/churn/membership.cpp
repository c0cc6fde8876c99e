#include "churn/membership.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace dht::churn {

SparseMembership::SparseMembership(int bits, std::uint64_t capacity)
    : bits_(bits) {
  DHT_CHECK(bits >= 1 && bits <= 63,
            "sparse membership supports 1 <= bits <= 63");
  DHT_CHECK(capacity >= 2, "membership needs at least two slots");
  DHT_CHECK(bits >= 26 || capacity <= (std::uint64_t{1} << bits),
            "capacity must fit the key space");
  DHT_CHECK(capacity <= (std::uint64_t{1} << 26),
            "capacity must stay <= 2^26 (per-slot state is materialized)");
  ids_.resize(capacity, 0);
  present_.resize(capacity, 0);
  generations_.resize(capacity, 0);
  alive_bits_.resize((capacity + 63) / 64, 0);
  in_pending_.resize(capacity, 0);
  // Size the seek table to ~capacity/2 buckets: population never exceeds
  // capacity, so mean occupancy stays around 1-2 ids per bucket -- enough
  // to collapse the binary searches -- while commit()'s streaming refresh
  // of the table costs less than the survivor compaction it rides on.
  // Capped at 2^20 buckets (4 MiB) and at the key space itself.
  const int bucket_bits = std::min(
      bits_, std::min(20, static_cast<int>(std::bit_width(capacity)) - 2));
  seek_ = sparse::PrefixSeek(bits_, bucket_bits);
}

void SparseMembership::leave(NodeSlot slot) {
  DHT_CHECK(present_[slot] != 0, "leave requires a present slot");
  present_[slot] = 0;
  alive_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  --population_;
  stale_ = true;
}

bool SparseMembership::id_occupied(std::uint64_t id) const {
  // Occupied = owned by a still-present node: either an order entry whose
  // slot has not left since the last commit, or a pending joiner.  Ids of
  // departed nodes are free for re-draw immediately.
  const std::uint64_t pos = order_lower_bound(id);
  if (pos < order_ids_.size() && order_ids_[pos] == id) {
    const NodeSlot slot = order_slots_[pos];
    // The order entry holds the id iff its slot is still present under its
    // committed identity; a recycled slot's old id is free again (the
    // recycled identity is tracked by the pending list instead).
    if (present_[slot] != 0 && in_pending_[slot] == 0) {
      return true;
    }
  }
  const auto pending = std::lower_bound(
      pending_.begin(), pending_.end(), id,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  return pending != pending_.end() && pending->first == id;
}

void SparseMembership::join(const std::vector<NodeSlot>& slots,
                            math::Rng& rng) {
  if (slots.empty()) {
    return;
  }
  const std::uint64_t k = slots.size();
  DHT_CHECK(population_ + k <= key_space_size(),
            "population would exceed the key space");
  const std::uint64_t keys = key_space_size();
  // Every present slot owns exactly one occupied id (order entries of
  // still-present, non-recycled slots plus the pending joiners), so the
  // free-key count is keys - population.
  const std::uint64_t free_keys = keys - population_;
  std::vector<std::uint64_t> fresh;
  fresh.reserve(k);
  if (free_keys < keys / 8) {  // keys is a power of two; no overflow
    // Dense regime (occupancy > 7/8, e.g. capacity = 2^bits near full
    // availability): uniform rejection degenerates -- each fresh id costs
    // ~keys/free draws, up to ~2^bits draws per id as occupancy -> 1.
    // Enumerate the free keys directly instead: walk the gaps of the
    // sorted occupied stream (surviving order entries merged with the
    // pending joins) in O(keys), then partial-Fisher-Yates k of them.
    std::vector<std::uint64_t> free_ids;
    free_ids.reserve(free_keys);
    std::uint64_t next_key = 0;
    std::uint64_t i = 0;
    std::uint64_t j = 0;
    const auto push_gap = [&free_ids](std::uint64_t from, std::uint64_t to) {
      for (std::uint64_t id = from; id < to; ++id) {
        free_ids.push_back(id);
      }
    };
    while (i < order_ids_.size() || j < pending_.size()) {
      std::uint64_t occupied_id;
      if (j >= pending_.size() ||
          (i < order_ids_.size() && order_ids_[i] <= pending_[j].first)) {
        const NodeSlot slot = order_slots_[i];
        occupied_id = order_ids_[i];
        ++i;
        if (present_[slot] == 0 || in_pending_[slot] != 0) {
          continue;  // departed or recycled: its old id is free
        }
      } else {
        occupied_id = pending_[j].first;
        ++j;
      }
      push_gap(next_key, occupied_id);
      next_key = occupied_id + 1;
    }
    push_gap(next_key, keys);
    DHT_CHECK(free_ids.size() == free_keys,
              "free-key enumeration out of sync with the population");
    for (std::uint64_t pick = 0; pick < k; ++pick) {
      const std::uint64_t other =
          pick + rng.uniform_below(free_ids.size() - pick);
      std::swap(free_ids[pick], free_ids[other]);
      fresh.push_back(free_ids[pick]);
    }
    std::sort(fresh.begin(), fresh.end());
  } else {
    // Sparse regime: batched distinct-fresh-id draw -- top the pool up to
    // k raw draws, sort, dedup against itself and the occupied keys,
    // repeat.  Converges cheaply while free keys dominate.
    while (fresh.size() < k) {
      while (fresh.size() < k) {
        fresh.push_back(rng.uniform_below(keys));
      }
      std::sort(fresh.begin(), fresh.end());
      fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
      fresh.erase(std::remove_if(
                      fresh.begin(), fresh.end(),
                      [this](std::uint64_t id) { return id_occupied(id); }),
                  fresh.end());
    }
  }
  // Ascending fresh ids onto the ascending cohort; slot numbers carry no
  // ring meaning, so the pairing is free to be the convenient one.
  const std::uint64_t before = pending_.size();
  for (std::uint64_t i = 0; i < k; ++i) {
    const NodeSlot slot = slots[i];
    DHT_CHECK(present_[slot] == 0, "join requires an absent slot");
    ids_[slot] = fresh[i];
    present_[slot] = 1;
    alive_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++generations_[slot];
    in_pending_[slot] = 1;
    pending_.emplace_back(fresh[i], slot);
  }
  population_ += k;
  std::inplace_merge(
      pending_.begin(),
      pending_.begin() + static_cast<std::ptrdiff_t>(before), pending_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

void SparseMembership::commit(bool refresh_seek) {
  // Incremental maintenance of the sorted parallel arrays.  An old entry
  // survives iff its slot is present AND not recycled this cycle --
  // presence alone is not enough, because a slot that left and re-joined is
  // present under a new identity carried by the pending list (and may even
  // have re-drawn its old identifier).
  if (pending_.empty() && !stale_) {
    return;  // membership unchanged since the last commit
  }
  // Pass 1 (departures): compact the survivors in place, keeping order.
  std::uint64_t kept = order_ids_.size();
  if (stale_) {
    std::uint64_t w = 0;
    for (std::uint64_t r = 0; r < order_ids_.size(); ++r) {
      const NodeSlot slot = order_slots_[r];
      if (present_[slot] != 0 && in_pending_[slot] == 0) {
        order_ids_[w] = order_ids_[r];
        order_slots_[w] = order_slots_[r];
        ++w;
      }
    }
    kept = w;
  }
  // Pass 2 (joins): backward shift-merge of the sorted pending cohort into
  // the compacted tail.  A survivor's id is occupied, so the fresh draws
  // never collide with it -- the merge sees no ties.
  if (pending_.empty()) {
    order_ids_.resize(kept);
    order_slots_.resize(kept);
  } else {
    const std::uint64_t joins = pending_.size();
    order_ids_.resize(kept + joins);
    order_slots_.resize(kept + joins);
    std::uint64_t i = kept;
    std::uint64_t j = joins;
    std::uint64_t out = kept + joins;
    while (j > 0) {
      if (i > 0 && order_ids_[i - 1] > pending_[j - 1].first) {
        order_ids_[out - 1] = order_ids_[i - 1];
        order_slots_[out - 1] = order_slots_[i - 1];
        --i;
      } else {
        order_ids_[out - 1] = pending_[j - 1].first;
        order_slots_[out - 1] = pending_[j - 1].second;
        --j;
      }
      --out;
    }
    for (const auto& [id, slot] : pending_) {
      (void)id;
      in_pending_[slot] = 0;
    }
    pending_.clear();
  }
  stale_ = false;
  DHT_CHECK(order_ids_.size() == population_,
            "order index out of sync with the population");
  if (!refresh_seek) {
    // The arrays moved under the seek table; queries fall back to
    // full-range searches until a refreshing commit.
    seek_fresh_ = false;
    return;
  }
  seek_.build(order_ids_.data(), order_ids_.size());
  seek_fresh_ = true;
}

}  // namespace dht::churn
