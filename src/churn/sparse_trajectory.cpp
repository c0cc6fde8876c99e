#include "churn/sparse_trajectory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"
#include "sparse/flat_sparse.hpp"

namespace dht::churn {

// Flattened routing view over a world's slot state: identifiers (stale for
// departed slots), the packed epoch structure (one alive-bitmap u64 word
// per 64 slots + the flat generation array), the row-major tables with
// their cached install-time target ids, and the successor lists.  Kernels
// compare identifiers but step between slots -- the sparse/flat_sparse.hpp
// pattern with mutable membership underneath.  `Id` is the cached-id word
// of the rows (u32 when the key space fits in 32 bits, else u64); every
// kernel is written once over it and widens a cached id only where it
// meets a full identifier.
template <typename Id>
struct ChurnKernelCtx {
  const std::uint64_t* ids = nullptr;
  const std::uint64_t* alive_bits = nullptr;
  const std::uint32_t* generations = nullptr;
  const std::uint64_t* table_links = nullptr;
  const Id* table_id = nullptr;
  const std::uint64_t* successor_links = nullptr;
  const Id* successors_id = nullptr;
  int row_width = 0;
  int bucket_k = 1;  // kademlia contacts per bucket (row_width = d * k)
  int s = 0;
  std::uint64_t key_mask = 0;
};

namespace {

namespace flat = sparse::flat;
using flat::RouteBatch;
using flat::SparseRouteStatus;

// Upper bound on a greedy-ring candidate set: the table row (<= 63
// entries; bits <= 63, shortcuts capped at 64) plus the successor list
// (capped at 64) -- enforced by check_config so the per-hop progress
// lattice fits on the stack.
constexpr int kMaxCandidates = 128;

// An entry's link word: the target slot in the low half, the generation
// it was installed against in the high half.  One load answers both
// halves of the validity probe.  An empty cell is kNoSlot with
// generation 0.
constexpr std::uint64_t kEmptyLink = kNoSlot;

inline std::uint64_t make_link(NodeSlot slot, std::uint32_t generation) {
  return (static_cast<std::uint64_t>(generation) << 32) | slot;
}

inline NodeSlot link_slot(std::uint64_t link) {
  return static_cast<NodeSlot>(link);
}

inline std::uint32_t link_generation(std::uint64_t link) {
  return static_cast<std::uint32_t>(link >> 32);
}

template <typename Id>
inline bool ctx_slot_alive(const ChurnKernelCtx<Id>& c, NodeSlot slot) {
  return ((c.alive_bits[slot >> 6] >> (slot & 63)) & 1) != 0;
}

// An entry is routable only while its target slot is present under the
// generation the entry was installed against.  The probe is the only
// random access a candidate costs: its geometry was already computed from
// the cached install-time id, which equals the current id exactly when
// this probe passes (ids change only on rejoin, which bumps the
// generation) -- so screening candidates by cached geometry first can
// never change which entry a kernel picks.
template <typename Id>
inline bool ctx_link_valid(const ChurnKernelCtx<Id>& c, std::uint64_t link) {
  const NodeSlot entry = link_slot(link);
  return entry != kNoSlot && ctx_slot_alive(c, entry) &&
         c.generations[entry] == link_generation(link);
}

// Classifies a no-admissible-hop drop for the failure taxonomy: if the
// dropping node keeps a successor list and every entry in it is dead or
// self (the ring's guaranteed-progress channel has collapsed), the drop
// is a successor collapse; otherwise some table entry merely decayed --
// a dead-entry stall.  The probe re-reads state the failing step already
// touched: rng-free, so classification is a pure function of the frozen
// snapshot and merges bit-identically at any thread count.
template <typename Id>
inline obs::RouteFailure classify_drop(const ChurnKernelCtx<Id>& c,
                                       NodeSlot cur) {
  if (c.s > 0) {
    const std::uint64_t base = cur * static_cast<std::uint64_t>(c.s);
    for (int t = 0; t < c.s; ++t) {
      const std::uint64_t link =
          c.successor_links[base + static_cast<std::uint64_t>(t)];
      if (link_slot(link) != cur && ctx_link_valid(c, link)) {
        return obs::RouteFailure::kDeadEntry;
      }
    }
    return obs::RouteFailure::kSuccessorCollapse;
  }
  return obs::RouteFailure::kDeadEntry;
}

// A hop's outcome: the chosen slot and its identifier (threaded through
// the route so the next hop never loads ids[cur]).
struct StepResult {
  NodeSlot next = kNoSlot;
  std::uint64_t next_id = 0;
};

// Warms the next hop's sequential working set: the cached-id row (and
// successor-id row), the only per-hop streams the ring kernels scan.
template <typename Id>
inline void prefetch_ring_row(const ChurnKernelCtx<Id>& c, NodeSlot slot) {
  const auto* row = reinterpret_cast<const char*>(
      c.table_id + slot * static_cast<std::uint64_t>(c.row_width));
  const int row_bytes = c.row_width * static_cast<int>(sizeof(Id));
  for (int off = 0; off < row_bytes; off += 64) {
    __builtin_prefetch(row + off);
  }
  if (c.s > 0) {
    const auto* succ = reinterpret_cast<const char*>(
        c.successors_id + slot * static_cast<std::uint64_t>(c.s));
    const int succ_bytes = c.s * static_cast<int>(sizeof(Id));
    for (int off = 0; off < succ_bytes; off += 64) {
      __builtin_prefetch(succ + off);
    }
  }
}

// Warms the first bucket the next XOR hop will read -- its index is a
// pure function of the new distance -- in the cached-id row.
template <typename Id>
inline void prefetch_xor_bucket(const ChurnKernelCtx<Id>& c, NodeSlot slot,
                                std::uint64_t cur_id,
                                std::uint64_t target_id) {
  const std::uint64_t distance = cur_id ^ target_id;
  if (distance == 0) {
    return;
  }
  const int d = c.row_width / c.bucket_k;
  const std::uint64_t base =
      slot * static_cast<std::uint64_t>(c.row_width) +
      static_cast<std::uint64_t>(d - std::bit_width(distance)) *
          static_cast<std::uint64_t>(c.bucket_k);
  constexpr int kIdsPerLine = 64 / static_cast<int>(sizeof(Id));
  for (int cell = 0; cell < c.bucket_k; cell += kIdsPerLine) {
    __builtin_prefetch(&c.table_id[base + static_cast<std::uint64_t>(cell)]);
  }
}

// Clockwise progress of each candidate from `cur_id`, in the id word: all
// identifiers lie below 2^bits <= 2^(8 sizeof(Id)), so the modular
// difference taken in Id and masked equals the u64 one.  Row cells come
// first, then the successor list.
template <typename Id>
inline void ring_progress(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                          std::uint64_t cur_id, Id* progress) {
  const auto mask = static_cast<Id>(c.key_mask);
  const auto from = static_cast<Id>(cur_id);
  const Id* row = c.table_id + cur * static_cast<std::uint64_t>(c.row_width);
  for (int j = 0; j < c.row_width; ++j) {
    progress[j] = static_cast<Id>(row[j] - from) & mask;
  }
  const Id* succ = c.successors_id + cur * static_cast<std::uint64_t>(c.s);
  for (int t = 0; t < c.s; ++t) {
    progress[c.row_width + t] = static_cast<Id>(succ[t] - from) & mask;
  }
}

// The max-progress admissible candidate (1 <= p <= distance, as the single
// wrap-around compare p - 1 < distance: p = 0 wraps past every distance
// the key space allows), or -1.
template <typename Id>
inline int best_candidate(const Id* progress, int m, Id distance) {
  Id best = 0;
  int bj = -1;
  for (int j = 0; j < m; ++j) {
    const Id p = progress[j];
    if (static_cast<Id>(p - 1) < distance && p > best) {
      best = p;
      bj = j;
    }
  }
  return bj;
}

// Row offset (row cell) or successor-list offset (successor entry) of
// candidate `j` of `cur`'s ring lattice.
template <typename Id>
inline std::uint64_t candidate_offset(const ChurnKernelCtx<Id>& c,
                                      NodeSlot cur, int j) {
  return j < c.row_width
             ? cur * static_cast<std::uint64_t>(c.row_width) +
                   static_cast<std::uint64_t>(j)
             : cur * static_cast<std::uint64_t>(c.s) +
                   static_cast<std::uint64_t>(j - c.row_width);
}

// Chord / Symphony: greedy clockwise without overshoot over the table row
// plus the successor list -- the list entries are ordinary candidate
// edges, so they both repair deep progress (a dead finger's gap) and
// guarantee the last hops.  Progress comes from the cached install-time
// ids (one sequential row scan, no pointer chasing): admissible candidates
// are probed in decreasing-progress order against the packed epoch
// structure, and a failed probe simply excludes the candidate -- for a
// valid entry the cached id IS the current id, and ties in progress are
// only possible against invalid entries (present ids are distinct), so
// the surviving pick equals the historical current-id kernel's bit for
// bit.  Empty cells carry the owner's own id: progress 0, inadmissible.
template <typename Id>
inline StepResult step_clockwise(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                                 std::uint64_t cur_id,
                                 std::uint64_t target_id) {
  const auto distance = static_cast<Id>((target_id - cur_id) & c.key_mask);
  const int m = c.row_width + c.s;
  Id progress[kMaxCandidates];
  ring_progress(c, cur, cur_id, progress);
  for (;;) {
    const int bj = best_candidate(progress, m, distance);
    if (bj < 0) {
      return {};
    }
    const bool in_row = bj < c.row_width;
    const std::uint64_t off = candidate_offset(c, cur, bj);
    const std::uint64_t link =
        in_row ? c.table_links[off] : c.successor_links[off];
    if (ctx_link_valid(c, link)) {
      return {link_slot(link), in_row ? c.table_id[off] : c.successors_id[off]};
    }
    progress[bj] = 0;  // dead candidate: exclude and rescan
  }
}

// Kademlia: walk the differing levels highest order first; within a
// bucket, probe the k cells head first (the longest-lived contacts --
// Kademlia's LRU preference, which heavy-tailed sessions reward); the
// first contact strictly closer in XOR distance by its cached id AND
// valid under the epoch probe wins -- the same first cell as the
// historical kernel, since a valid entry's cached id is its current id.
// The successor list is the sibling-list fallback: its entries are
// admissible whenever they are strictly closer, which covers the endgame
// where the deep buckets have decayed (an entry equal to cur, or an empty
// cell carrying the owner's id, has equal distance and falls out of the
// strict compare).  bucket_k = 1 reads exactly the pre-k cells.
template <typename Id>
inline StepResult step_xor(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                           std::uint64_t cur_id, std::uint64_t target_id) {
  const std::uint64_t cur_distance = cur_id ^ target_id;
  const std::uint64_t row_base =
      cur * static_cast<std::uint64_t>(c.row_width);
  const int d = c.row_width / c.bucket_k;
  std::uint64_t diff = cur_distance;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const std::uint64_t bucket_base =
        row_base +
        static_cast<std::uint64_t>(d - bw) *
            static_cast<std::uint64_t>(c.bucket_k);  // bucket d - bw + 1
    for (int cell = 0; cell < c.bucket_k; ++cell) {
      const std::uint64_t j = bucket_base + static_cast<std::uint64_t>(cell);
      const std::uint64_t eid = c.table_id[j];
      if ((eid ^ target_id) < cur_distance &&
          ctx_link_valid(c, c.table_links[j])) {
        return {link_slot(c.table_links[j]), eid};
      }
    }
    diff &= ~(std::uint64_t{1} << (bw - 1));
  }
  const std::uint64_t succ_base = cur * static_cast<std::uint64_t>(c.s);
  for (int t = 0; t < c.s; ++t) {
    const std::uint64_t j = succ_base + static_cast<std::uint64_t>(t);
    const std::uint64_t eid = c.successors_id[j];
    if ((eid ^ target_id) < cur_distance &&
        ctx_link_valid(c, c.successor_links[j])) {
      return {link_slot(c.successor_links[j]), eid};
    }
  }
  return {};
}

template <typename Id>
using StepFn = StepResult (*)(const ChurnKernelCtx<Id>&, NodeSlot,
                              std::uint64_t, std::uint64_t);

// One route against a frozen (sync) or moving (in-flight) world -- the
// shared single-route core behind measure()'s scalar reference path and
// measure_inflight().  `step` is one of the scalar kernels above; `sweep`
// runs after every completed hop (the in-flight lifecycle advance; sync
// passes a no-op and the holder-departure check compiles out).  Load is
// bumped for the holding slot of every forward, before the step -- a
// dropped route charges the node that had no admissible hop, matching the
// historical accounting.
template <bool kInflight, typename Id, typename Sweep>
bool route_one(const ChurnKernelCtx<Id>& c, StepFn<Id> step, NodeSlot source,
               std::uint64_t source_id, NodeSlot target,
               std::uint64_t target_id, std::uint64_t max_hops,
               std::uint64_t* load, sparse::SparseEstimate* rec,
               Sweep&& sweep) {
  NodeSlot cur = source;
  std::uint64_t cur_id = source_id;
  std::uint64_t hops = 0;
  for (;;) {
    if constexpr (kInflight) {
      if (!ctx_slot_alive(c, cur)) {
        // The node holding the message departed between hops -- the
        // mid-flight loss the round-synchronous mode cannot express.
        if (rec != nullptr) {
          rec->record_drop(obs::RouteFailure::kHolderDeparted);
        }
        return false;
      }
    }
    if (cur == target) {
      if (rec != nullptr) {
        rec->record_arrival(hops);
      }
      return true;
    }
    if (hops >= max_hops) {
      if (rec != nullptr) {
        rec->record_hop_limit();
      }
      return false;
    }
    ++load[cur];
    const StepResult next = step(c, cur, cur_id, target_id);
    if (next.next == kNoSlot) {
      if (rec != nullptr) {
        rec->record_drop(classify_drop(c, cur));
      }
      return false;
    }
    cur = next.next;
    cur_id = next.next_id;
    ++hops;
    if constexpr (kInflight) {
      sweep();
    }
  }
}

// One greedy-ring hop for every active lane, phased like the static
// engine's batch kernels: (A) scan each lane's cached-id row (prefetched
// a batch turn ahead) into a progress lattice and pick the max-progress
// admissible candidate, (B) probe candidates against the packed epoch
// structure, excluding failures and rescanning -- ~2 expected probes per
// hop under churn vs the historical kernel's row_width + s pointer
// chases.  b.dist carries the lane's current-hop id.
template <typename Id>
inline void step_batch_ring(const ChurnKernelCtx<Id>& c, RouteBatch& b) {
  constexpr int kLanes = RouteBatch::kLanes;
  Id progress[kLanes][kMaxCandidates];
  Id dist[kLanes];
  int cand[kLanes];
  const int m = c.row_width + c.s;
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    dist[l] = static_cast<Id>((b.target_id[l] - b.dist[l]) & c.key_mask);
    ring_progress(c, b.cur[l], b.dist[l], progress[l]);
    const int bj = best_candidate(progress[l], m, dist[l]);
    cand[l] = bj;
    if (bj >= 0) {
      // Warm the candidate's link word for phase B while the other lanes'
      // scans provide latency cover.
      const std::uint64_t off = candidate_offset(c, b.cur[l], bj);
      __builtin_prefetch(bj < c.row_width ? &c.table_links[off]
                                          : &c.successor_links[off]);
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    int bj = cand[l];
    for (;;) {
      if (bj < 0) {
        b.cur[l] = kNoSlot;  // dead end: the drop sentinel
        break;
      }
      const bool in_row = bj < c.row_width;
      const std::uint64_t off = candidate_offset(c, b.cur[l], bj);
      const std::uint64_t link =
          in_row ? c.table_links[off] : c.successor_links[off];
      if (ctx_link_valid(c, link)) {
        const NodeSlot entry = link_slot(link);
        b.cur[l] = entry;
        b.dist[l] = in_row ? c.table_id[off] : c.successors_id[off];
        ++b.hops[l];
        if (entry != b.target[l]) {
          prefetch_ring_row(c, entry);
        }
        break;
      }
      progress[l][bj] = 0;
      bj = best_candidate(progress[l], m, dist[l]);
    }
  }
}

// One XOR hop for every active lane: phase A walks the differing levels
// over the cached-id row alone -- sequential, no liveness loads -- to the
// first strictly-closer cell and warms it; phase B probes that cell and
// falls back to the full scalar step on a stale candidate (the re-walk
// probes the same cells in the same order, so the pick is unchanged).  A
// lane with no cached-closer cell anywhere holds no valid closer entry at
// all (valid entries' cached ids are current) and drops without a single
// random load.
template <typename Id>
inline void step_batch_xor(const ChurnKernelCtx<Id>& c, RouteBatch& b) {
  constexpr int kLanes = RouteBatch::kLanes;
  constexpr std::uint64_t kNoCand = ~std::uint64_t{0};
  std::uint64_t cand[kLanes];  // (offset << 1) | is_successor
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    const std::uint64_t target = b.target_id[l];
    const std::uint64_t cur_distance = b.dist[l] ^ target;
    const std::uint64_t row_base =
        b.cur[l] * static_cast<std::uint64_t>(c.row_width);
    const int d = c.row_width / c.bucket_k;
    std::uint64_t diff = cur_distance;
    std::uint64_t found = kNoCand;
    while (diff != 0 && found == kNoCand) {
      const int bw = std::bit_width(diff);
      const std::uint64_t bucket_base =
          row_base + static_cast<std::uint64_t>(d - bw) *
                         static_cast<std::uint64_t>(c.bucket_k);
      for (int cell = 0; cell < c.bucket_k; ++cell) {
        const std::uint64_t j =
            bucket_base + static_cast<std::uint64_t>(cell);
        if ((c.table_id[j] ^ target) < cur_distance) {
          found = j << 1;
          break;
        }
      }
      diff &= ~(std::uint64_t{1} << (bw - 1));
    }
    if (found == kNoCand) {
      const std::uint64_t succ_base =
          b.cur[l] * static_cast<std::uint64_t>(c.s);
      for (int t = 0; t < c.s; ++t) {
        const std::uint64_t j = succ_base + static_cast<std::uint64_t>(t);
        if ((c.successors_id[j] ^ target) < cur_distance) {
          found = (j << 1) | 1;
          break;
        }
      }
    }
    cand[l] = found;
    if (found != kNoCand) {
      const std::uint64_t j = found >> 1;
      __builtin_prefetch((found & 1) != 0 ? &c.successor_links[j]
                                          : &c.table_links[j]);
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    if (cand[l] == kNoCand) {
      b.cur[l] = kNoSlot;  // no closer contact exists: drop
      continue;
    }
    const std::uint64_t j = cand[l] >> 1;
    const bool in_succ = (cand[l] & 1) != 0;
    const std::uint64_t link =
        in_succ ? c.successor_links[j] : c.table_links[j];
    StepResult hop;
    if (ctx_link_valid(c, link)) {
      hop = {link_slot(link), in_succ ? c.successors_id[j] : c.table_id[j]};
    } else {
      // Stale head candidate: resolve the lane with the full scalar walk
      // (it skips the failed cell via the same probe and continues).
      hop = step_xor(c, b.cur[l], b.dist[l], b.target_id[l]);
    }
    if (hop.next == kNoSlot) {
      b.cur[l] = kNoSlot;
      continue;
    }
    b.cur[l] = hop.next;
    b.dist[l] = hop.next_id;
    ++b.hops[l];
    if (hop.next != b.target[l]) {
      prefetch_xor_bucket(c, hop.next, hop.next_id, b.target_id[l]);
    }
  }
}

// The lane driver of the batched sync path (the drive_lanes shape of the
// static engine): retire every terminal lane -- drop sentinel, arrival,
// hop cap -- refill it from the pair source, then charge each active
// lane's holder one forward and advance all lanes one hop.  Identical
// accounting to route_one: a lane is charged before the step that drops
// it and not for the turn it retires on.  `retire` additionally receives
// the lane's pre-step slot -- the node that had no admissible hop -- so a
// drop can be classified (the batch kernels overwrite cur with the kNoSlot
// sentinel, erasing the dropping slot).
template <typename Id, typename StepBatch, typename Refill, typename Retire>
void drive_churn_lanes(const ChurnKernelCtx<Id>& c, std::uint64_t max_hops,
                       std::uint64_t* load, StepBatch&& step_batch,
                       Refill&& refill, Retire&& retire) {
  RouteBatch b;
  NodeSlot last_cur[RouteBatch::kLanes] = {};
  int active = 0;
  for (int l = 0; l < RouteBatch::kLanes; ++l) {
    b.active[l] = refill(b, l) ? 1 : 0;
    active += b.active[l];
  }
  while (active > 0) {
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      while (b.active[l] != 0) {
        SparseRouteStatus status;
        if (b.cur[l] == kNoSlot) {
          status = SparseRouteStatus::kDropped;
        } else if (b.cur[l] == b.target[l]) {
          status = SparseRouteStatus::kArrived;
        } else if (b.hops[l] >= max_hops) {
          status = SparseRouteStatus::kHopLimit;
        } else {
          break;
        }
        retire(b, l, status, last_cur[l]);
        if (!refill(b, l)) {
          b.active[l] = 0;
          --active;
        }
      }
    }
    if (active == 0) {
      break;
    }
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      if (b.active[l] != 0) {
        ++load[b.cur[l]];
        last_cur[l] = b.cur[l];
      }
    }
    step_batch(c, b);
  }
}

// Visits present slots in ascending order by scanning the packed alive
// bitmap one u64 word at a time (countr_zero per member) -- the flattened
// replacement for full-capacity presence scans.  Visit order is identical
// to `for slot < capacity: if present`, so every rng and accumulation
// stream downstream is unchanged.  The callback must not change presence.
template <typename Fn>
void for_each_alive(const SparseMembership& membership, Fn&& fn) {
  const std::uint64_t* words = membership.alive_bits_data();
  const std::uint64_t nwords = membership.alive_words();
  for (std::uint64_t w = 0; w < nwords; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto b = static_cast<std::uint64_t>(std::countr_zero(bits));
      fn(static_cast<NodeSlot>((w << 6) + b));
      bits &= bits - 1;
    }
  }
}

void check_config(const SparseChurnConfig& config,
                  SparseChurnGeometry geometry) {
  DHT_CHECK(config.successors >= 0 && config.successors <= 64,
            "successor-list length must be in [0, 64]");
  DHT_CHECK(config.bucket_k >= 1 && config.bucket_k <= 64,
            "kademlia bucket width must be in [1, 64]");
  DHT_CHECK(config.replicas >= 1 && config.replicas <= 64,
            "replication factor must be in [1, 64]");
  DHT_CHECK(config.announce >= 0,
            "join-announcement budget (announce) must be >= 0");
  DHT_CHECK(std::isfinite(config.zipf_s) && config.zipf_s >= 0.0,
            "workload zipf skew must be finite and >= 0");
  DHT_CHECK(config.objects <= (std::uint64_t{1} << 26),
            "workload object count exceeds the 2^26 population cap");
  if (geometry == SparseChurnGeometry::kSymphony) {
    // The upper cap (with bits <= 63 and the successor cap above) keeps
    // every routing row + successor list within kMaxCandidates, so the
    // kernels' per-hop progress lattices live on the stack.
    DHT_CHECK(config.shortcuts >= 1 && config.shortcuts <= 64,
              "symphony shortcut count must be in [1, 64]");
  }
}

// Fixed object->key hash key, shared with the static workload engine so a
// given object rank lands on the same key in both (placement is a property
// of the key space, not of any run's seed).
constexpr std::uint64_t kObjectKeySalt = 0xb10c9a3f0b173c75ULL;

}  // namespace

bool sparse_churn_geometry_from_name(std::string_view name,
                                     SparseChurnGeometry& out) {
  if (name == "ring") {
    out = SparseChurnGeometry::kChord;
    return true;
  }
  if (name == "xor") {
    out = SparseChurnGeometry::kKademlia;
    return true;
  }
  if (name == "symphony") {
    out = SparseChurnGeometry::kSymphony;
    return true;
  }
  return false;
}

const char* to_string(SparseChurnGeometry geometry) noexcept {
  switch (geometry) {
    case SparseChurnGeometry::kChord:
      return "ring";
    case SparseChurnGeometry::kKademlia:
      return "xor";
    case SparseChurnGeometry::kSymphony:
      return "symphony";
  }
  return "?";
}

std::uint64_t capacity_for_population(std::uint64_t population,
                                      const ChurnParams& params) {
  const double a = availability(params);
  auto capacity = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(population) / a));
  // Clamp into SparseMembership's supported roster range: a derived
  // capacity above the 2^26 per-slot-state cap would otherwise throw from
  // inside a sweep's shard pool, discarding every computed grid point.
  capacity = std::min(capacity, std::uint64_t{1} << 26);
  return capacity < 2 ? 2 : capacity;
}

SparseChurnWorld::SparseChurnWorld(SparseChurnGeometry geometry,
                                   const SparseChurnConfig& config,
                                   const ChurnParams& params,
                                   double repair_probability,
                                   std::uint64_t max_hops,
                                   const math::Rng& rng)
    : geometry_(geometry),
      config_(config),
      params_(params),
      repair_probability_(repair_probability),
      max_hops_(max_hops == 0 ? config.capacity : max_hops),
      row_width_(geometry == SparseChurnGeometry::kSymphony
                     ? config.shortcuts
                     : (geometry == SparseChurnGeometry::kKademlia
                            ? config.bits * config.bucket_k
                            : config.bits)),
      session_(params, config.session),
      lifecycle_rng_(rng.fork(1)),
      table_rng_(rng.fork(2)),
      measure_rng_(rng.fork(3)),
      id_rng_(rng.fork(4)),
      membership_(config.bits, config.capacity),
      object_keys_(kObjectKeySalt) {
  const double a = availability(params);  // validates the lifecycle rates
  DHT_CHECK(repair_probability >= 0.0 && repair_probability <= 1.0,
            "repair probability must be in [0, 1]");
  check_config(config, geometry);
  const std::uint64_t capacity = membership_.capacity();
  joined_at_.assign(capacity, 0);
  load_.assign(capacity, 0);
  if (workload_enabled()) {
    zipf_.emplace(object_count(), config_.zipf_s);
  }
  // Stationary membership: each slot present w.p. a, like the dense world's
  // stationary liveness -- the dense-limit oracle depends on the two
  // lifecycle processes being the same slot-level chain.  (The Pareto
  // calibration pins the mean session to 1/pd, so `a` is the geometric
  // availability for every session model.)  Heavy-tailed sessions also
  // draw a stationary session age per initial member -- the age-dependent
  // hazard starts in steady state; geometric sessions are memoryless and
  // skip the draw, keeping the historical rng stream bit for bit.
  joiners_.clear();
  for (NodeSlot slot = 0; slot < capacity; ++slot) {
    if (lifecycle_rng_.bernoulli(a)) {
      joiners_.push_back(slot);
      if (!session_.geometric()) {
        joined_at_[slot] = -session_.sample_stationary_age(lifecycle_rng_);
      }
    }
  }
  membership_.join(joiners_, id_rng_);
  membership_.commit();
  total_joins_ += joiners_.size();
  const std::uint64_t row_cells =
      capacity * static_cast<std::uint64_t>(row_width_);
  const std::uint64_t succ_cells =
      capacity * static_cast<std::uint64_t>(config_.successors);
  table_.assign(row_cells, kEmptyLink, narrow_ids());
  refreshed_at_.assign(row_cells, 0);
  // INT32_MIN = "possibly due immediately": rows earn a real bound at
  // their first full maintenance scan.
  table_due_round_.assign(capacity, std::numeric_limits<std::int32_t>::min());
  successors_.assign(succ_cells, kEmptyLink, narrow_ids());
  successors_refreshed_at_.assign(capacity, 0);
  for_each_alive(membership_, [&](NodeSlot slot) { rebuild_node(slot); });
  // Stagger refresh phases so entry ages start uniform over 0..R-1,
  // matching the q_eff derivation (and the dense world's construction).
  const auto interval =
      static_cast<std::uint64_t>(params_.refresh_interval);
  for_each_alive(membership_, [&](NodeSlot slot) {
    for (int j = 0; j < row_width_; ++j) {
      refreshed_at_[slot * static_cast<std::uint64_t>(row_width_) +
                    static_cast<std::uint64_t>(j)] =
          -static_cast<std::int32_t>(table_rng_.uniform_below(interval));
    }
    if (config_.successors > 0) {
      successors_refreshed_at_[slot] =
          -static_cast<std::int32_t>(table_rng_.uniform_below(interval));
    }
  });
  // The staggered stamps bypass install_cell, so the running sum starts
  // from one recount; the build's installs are not maintenance work.
  entry_stamp_sum_ = 0;
  for_each_alive(membership_, [&](NodeSlot slot) {
    entry_stamp_sum_ += row_stamp_sum(slot);
  });
  maintenance_ = MaintenanceCounters{};
}

void SparseChurnWorld::EntryRows::assign(std::uint64_t entries,
                                         std::uint64_t link, bool narrow) {
  links.assign(entries, link);
  ids32.assign(narrow ? entries : 0, 0);
  ids64.assign(narrow ? 0 : entries, 0);
}

bool SparseChurnWorld::entry_valid(std::uint64_t link) const {
  // Probe the packed alive bitmap rather than the byte mask: the bitmap
  // for a full-sized roster is 16 KiB (L1-resident under the maintenance
  // sweeps' random slot access), the byte mask 64x that.
  const NodeSlot entry = link_slot(link);
  return entry != kNoSlot &&
         (membership_.alive_bits_data()[entry >> 6] >> (entry & 63) & 1) !=
             0 &&
         membership_.generation(entry) == link_generation(link);
}

std::uint64_t SparseChurnWorld::link_to(NodeSlot target) const {
  return target == kNoSlot ? kEmptyLink
                           : make_link(target, membership_.generation(target));
}

void SparseChurnWorld::put_cell(std::uint64_t offset, std::uint64_t link,
                                std::uint64_t id, std::int32_t stamp) {
  table_.put(offset, link, id);
  refreshed_at_[offset] = stamp;
}

// Every install lands in a present row -- maintenance visits present
// slots only, and announcements follow a commit whose order index holds
// present slots only -- so the stamp change goes straight into the sum,
// read from the line being written.
void SparseChurnWorld::install_cell(std::uint64_t offset, std::uint64_t link,
                                    std::uint64_t id, std::int32_t stamp) {
  entry_stamp_sum_ +=
      static_cast<std::int64_t>(stamp) - refreshed_at_[offset];
  put_cell(offset, link, id, stamp);
}

std::int64_t SparseChurnWorld::row_stamp_sum(NodeSlot slot) const {
  const std::int32_t* row =
      refreshed_at_.data() + slot * static_cast<std::uint64_t>(row_width_);
  std::int64_t sum = 0;
  for (int j = 0; j < row_width_; ++j) {
    sum += row[j];
  }
  return sum;
}

// Every departure goes through here, so the stamp sum drops the row the
// moment its owner stops counting as present.
void SparseChurnWorld::leave_slot(NodeSlot slot) {
  membership_.leave(slot);
  ++total_leaves_;
  entry_stamp_sum_ -= row_stamp_sum(slot);
}

NodeSlot SparseChurnWorld::choose_target(NodeSlot slot, int index) {
  const std::uint64_t id = membership_.id_of(slot);
  const std::uint64_t mask = membership_.key_mask();
  NodeSlot chosen = kNoSlot;
  switch (geometry_) {
    case SparseChurnGeometry::kChord: {
      // Finger i = index+1 points at successor(id + 2^{d-i}).
      const std::uint64_t key =
          (id + (std::uint64_t{1} << (config_.bits - index - 1))) & mask;
      chosen = membership_.successor_of_key(key);
      break;
    }
    case SparseChurnGeometry::kKademlia: {
      // Cell `index % k` of bucket `index / k + 1`; every cell re-draws a
      // uniform bucket member, so k = 1 consumes the pre-k stream exactly.
      const auto [lo, hi] = kademlia_bucket_range(
          id, index / config_.bucket_k + 1, config_.bits);
      const auto [first, last] = membership_.order_range(lo, hi);
      if (first < last) {
        chosen = membership_.slot_at(
            first + table_rng_.uniform_below(last - first));
      }
      break;
    }
    case SparseChurnGeometry::kSymphony: {
      // Harmonic key-distance draw, linked to the key's current owner;
      // re-draw when it degenerates to the node itself.  This is the
      // shortcut re-draw semantics the dense trajectory engine lacks: the
      // sparse world re-draws the *key* and resolves it against the
      // current membership.
      const std::uint64_t keys = membership_.key_space_size();
      const double log_range =
          std::log(static_cast<double>(keys - 1));
      NodeSlot link = slot;
      for (int attempt = 0; attempt < 64 && link == slot; ++attempt) {
        const double u = table_rng_.uniform01();
        std::uint64_t key_offset =
            static_cast<std::uint64_t>(std::exp(u * log_range));
        key_offset = key_offset < 1 ? 1 : key_offset;
        key_offset = key_offset > keys - 1 ? keys - 1 : key_offset;
        link = membership_.successor_of_key((id + key_offset) & mask);
      }
      chosen = link;  // may stay self in degenerate tiny populations
      break;
    }
  }
  return chosen;
}

// Cache the target's install-time id: for as long as the entry stays valid
// this IS its current id (ids change only on rejoin, which bumps the
// generation).  Empty cells carry the owner's own id, which every kernel's
// admissibility arithmetic rejects (progress 0 on the ring, equal XOR
// distance), so kernels can screen candidates by cached id without ever
// probing an out-of-row slot.
std::uint64_t SparseChurnWorld::cached_id(NodeSlot owner,
                                          NodeSlot target) const {
  return membership_.id_of(target == kNoSlot ? owner : target);
}

void SparseChurnWorld::refresh_entry(NodeSlot slot, int index) {
  const NodeSlot chosen = choose_target(slot, index);
  install_cell(slot * static_cast<std::uint64_t>(row_width_) +
                   static_cast<std::uint64_t>(index),
               link_to(chosen), cached_id(slot, chosen),
               static_cast<std::int32_t>(round_));
}

// Whole-row rebuild: the same choices and writes as refresh_entry per
// index, but the row's new stamp sum is known outright (every cell gets
// this round), so the row's stale stamps -- cold for a joiner -- are never
// read.  The row enters the stamp sum whole: a joiner's row is outside it
// until here, and a present row's caller takes its old stamps out first.
void SparseChurnWorld::rebuild_tables(NodeSlot slot) {
  ++maintenance_.rows_rebuilt;
  const std::uint64_t base = slot * static_cast<std::uint64_t>(row_width_);
  const auto stamp = static_cast<std::int32_t>(round_);
  if (geometry_ == SparseChurnGeometry::kChord) {
    // Bulk finger rebuild -- the join-storm path (every joiner re-derives
    // its whole row, hundreds of millions of entries per trajectory).
    // The per-call reloads (owner id, mask) are hoisted out of the loop;
    // chord refreshes consume no rng, so the fusion is stream-exact.
    const std::uint64_t id = membership_.id_of(slot);
    const std::uint64_t mask = membership_.key_mask();
    for (int j = 0; j < row_width_; ++j) {
      const std::uint64_t key =
          (id + (std::uint64_t{1} << (config_.bits - j - 1))) & mask;
      const NodeSlot chosen = membership_.successor_of_key(key);
      put_cell(base + static_cast<std::uint64_t>(j),
               make_link(chosen, membership_.generation(chosen)),
               membership_.id_of(chosen), stamp);
    }
  } else {
    for (int j = 0; j < row_width_; ++j) {
      const NodeSlot chosen = choose_target(slot, j);
      put_cell(base + static_cast<std::uint64_t>(j), link_to(chosen),
               cached_id(slot, chosen), stamp);
    }
  }
  entry_stamp_sum_ += static_cast<std::int64_t>(row_width_) * stamp;
}

void SparseChurnWorld::rebuild_successors(NodeSlot slot,
                                          std::uint64_t from_position) {
  ++maintenance_.successor_rebuilds;
  const int s = config_.successors;
  const std::uint64_t base = slot * static_cast<std::uint64_t>(s);
  for (int t = 0; t < s; ++t) {
    const NodeSlot succ = membership_.ring_successor(
        from_position, static_cast<std::uint64_t>(t));
    // Install-time id cache; a self-entry (tiny populations wrap the
    // ring onto the owner) carries the owner's id, inadmissible to every
    // kernel by arithmetic alone.
    successors_.put(base + static_cast<std::uint64_t>(t),
                    make_link(succ, membership_.generation(succ)),
                    membership_.id_of(succ));
  }
  successors_refreshed_at_[slot] = static_cast<std::int32_t>(round_);
}

void SparseChurnWorld::rebuild_node(NodeSlot slot) {
  rebuild_tables(slot);
  if (config_.successors > 0) {
    const std::uint64_t own =
        membership_.successor_position(membership_.id_of(slot));
    rebuild_successors(slot, own + 1);  // first node strictly clockwise
  }
}

void SparseChurnWorld::announce_join(NodeSlot slot) {
  const std::uint64_t population = membership_.order_size();
  if (population < 2) {
    return;
  }
  const std::uint64_t own =
      membership_.successor_position(membership_.id_of(slot));
  // Chord's notify: the clockwise predecessor learns its new successor
  // immediately (its rebuilt list starts at the joiner).  This is what
  // keeps arrival working under membership turnover -- without it a
  // newcomer is unreachable until its neighborhood refreshes.
  if (config_.successors > 0) {
    const NodeSlot predecessor =
        membership_.slot_at((own + population - 1) % population);
    if (predecessor != slot) {
      rebuild_successors(predecessor, own);
    }
  }
  // Kademlia's join lookup: the joiner installs itself into the matching
  // bucket of its closest peers (deepest shared-prefix levels first),
  // filling entries that are empty or point at departed/recycled nodes.
  // Bucket membership is symmetric -- u in v's level-l bucket iff v in
  // u's -- so the peers are exactly the members of the joiner's own deep
  // buckets.
  if (geometry_ == SparseChurnGeometry::kKademlia && config_.announce > 0) {
    int budget = config_.announce;
    const int k = config_.bucket_k;
    const std::uint64_t id = membership_.id_of(slot);
    const std::uint64_t link = link_to(slot);
    for (int level = config_.bits; level >= 1 && budget > 0; --level) {
      const auto [lo, hi] = kademlia_bucket_range(id, level, config_.bits);
      const auto [first, last] = membership_.order_range(lo, hi);
      for (std::uint64_t pos = first; pos < last && budget > 0; ++pos) {
        const NodeSlot peer = membership_.slot_at(pos);
        // The joiner enters the peer's bucket at its first free cell --
        // empty or observed-stale -- i.e. at the tail of the live entries,
        // the newcomer end of the LRU order.  A bucket full of valid
        // contacts ignores the announcement (classic Kademlia keeps its
        // long-lived members).
        const std::uint64_t bucket_base =
            peer * static_cast<std::uint64_t>(row_width_) +
            static_cast<std::uint64_t>(level - 1) *
                static_cast<std::uint64_t>(k);
        for (int cell = 0; cell < k; ++cell) {
          const std::uint64_t offset =
              bucket_base + static_cast<std::uint64_t>(cell);
          if (!entry_valid(table_.links[offset])) {
            install_cell(offset, link, id,
                         static_cast<std::int32_t>(round_));
            break;
          }
        }
        --budget;
      }
    }
  }
}

void SparseChurnWorld::maintain_successors(NodeSlot slot) {
  const int s = config_.successors;
  if (s == 0) {
    return;
  }
  const std::uint64_t base = slot * static_cast<std::uint64_t>(s);
  bool broken = false;
  NodeSlot first_alive = kNoSlot;
  for (int t = 0; t < s; ++t) {
    const std::uint64_t link =
        successors_.links[base + static_cast<std::uint64_t>(t)];
    if (link_slot(link) == slot || !entry_valid(link)) {
      broken = true;
    } else if (first_alive == kNoSlot) {
      first_alive = link_slot(link);
    }
  }
  if (broken) {
    if (first_alive != kNoSlot) {
      // Consult the list: the first alive entry seeds the repaired list
      // (its current clockwise chain).  Joiners between this node and that
      // entry are picked up by the next scheduled rebuild -- the
      // stabilization lag of real successor lists.
      rebuild_successors(
          slot,
          membership_.successor_position(membership_.id_of(first_alive)));
    } else {
      // Every sequential neighbor is gone: fall back to a full rebuild
      // (tables included), the re-join-like recovery path.
      entry_stamp_sum_ -= row_stamp_sum(slot);
      rebuild_node(slot);
    }
  } else if (round_ - successors_refreshed_at_[slot] >=
             params_.refresh_interval) {
    const std::uint64_t own =
        membership_.successor_position(membership_.id_of(slot));
    rebuild_successors(slot, own + 1);
  }
}

// Entry maintenance for the single-contact row geometries (Chord fingers,
// Symphony shortcuts): due refreshes plus the eager-repair channel (an
// entry observed dead is re-pointed with probability rho between scheduled
// refreshes).  Fresh joiner rows are stamped with the current round, so
// they fall through every branch.
void SparseChurnWorld::maintain_entries(NodeSlot slot) {
  if (geometry_ == SparseChurnGeometry::kKademlia) {
    maintain_kademlia_buckets(slot);
    return;
  }
  if (repair_probability_ == 0.0) {
    // Pure lazy refresh consumes no rng during the scan, so a row whose
    // earliest possibly-due round lies in the future can be skipped
    // outright -- the dirty-row worklist that replaces the full-width
    // sweep.  The bound is conservative: stamps only move forward between
    // scans (refreshes and announcements re-stamp with the current
    // round), so a skipped row provably has nothing due.
    if (round_ < table_due_round_[slot]) {
      return;
    }
    // Two passes so the common case -- scanning a row with nothing or
    // almost nothing due -- is a branch-free strip over the contiguous
    // stamps (row_width <= 64 outside Kademlia, so the due set packs into
    // one word).  Refreshing ascending mask bits then reproduces the
    // interleaved loop exactly: refreshes re-stamp with round_, so the
    // post-scan minimum is min(surviving stamps, round_), and round_ only
    // enters when something was refreshed -- surviving stamps never
    // exceed it.
    const std::uint64_t row_base =
        slot * static_cast<std::uint64_t>(row_width_);
    const std::int32_t* stamps = refreshed_at_.data() + row_base;
    const std::int32_t due_at =
        static_cast<std::int32_t>(round_) -
        static_cast<std::int32_t>(params_.refresh_interval);
    std::uint64_t due = 0;
    std::int32_t min_live = std::numeric_limits<std::int32_t>::max();
    for (int j = 0; j < row_width_; ++j) {
      const bool is_due = stamps[j] <= due_at;
      due |= static_cast<std::uint64_t>(is_due) << j;
      min_live = !is_due && stamps[j] < min_live ? stamps[j] : min_live;
    }
    std::int32_t min_stamp = min_live;
    if (due != 0) {
      maintenance_.due_refreshes +=
          static_cast<std::uint64_t>(std::popcount(due));
      do {
        refresh_entry(slot, std::countr_zero(due));
        due &= due - 1;
      } while (due != 0);
      min_stamp = std::min(min_live, static_cast<std::int32_t>(round_));
    }
    table_due_round_[slot] =
        min_stamp + static_cast<std::int32_t>(params_.refresh_interval);
    return;
  }
  maintenance_.entries_examined += static_cast<std::uint64_t>(row_width_);
  for (int j = 0; j < row_width_; ++j) {
    const std::uint64_t offset =
        slot * static_cast<std::uint64_t>(row_width_) +
        static_cast<std::uint64_t>(j);
    if (round_ - refreshed_at_[offset] >= params_.refresh_interval) {
      ++maintenance_.due_refreshes;
      refresh_entry(slot, j);
    } else {
      // Observed-dead covers departed targets AND recycled slots (the
      // node at that address is a different one now) -- both are
      // generation mismatches.
      const std::uint64_t link = table_.links[offset];
      if (link_slot(link) != kNoSlot && !entry_valid(link) &&
          repair_draw()) {
        refresh_entry(slot, j);
      }
    }
  }
}

bool SparseChurnWorld::repair_draw() {
  ++maintenance_.repair_draws;
  const bool repair = table_rng_.bernoulli(repair_probability_);
  maintenance_.repairs += repair ? 1 : 0;
  return repair;
}

// k-bucket maintenance (the Roos et al. LRU discipline): a cell due for
// refresh is re-drawn in place (the scheduled touch); a cell observed dead
// by the rho channel is EVICTED -- the bucket compacts toward the head,
// preserving insertion order, and the freed tail cell is refreshed (the
// replacement enters at the newcomer end).  With k = 1 the compaction is
// empty and both branches collapse onto the single-contact sequence, so
// the pre-k rng stream and tables are reproduced bit for bit.
void SparseChurnWorld::maintain_kademlia_buckets(NodeSlot slot) {
  const int k = config_.bucket_k;
  const std::uint64_t row_base =
      slot * static_cast<std::uint64_t>(row_width_);
  // rho == 0: the scan is rng-free, so the due-round bound applies
  // exactly as in maintain_entries (evictions -- which shift stamps
  // mid-scan -- exist only on the rho > 0 branch, where the bound is
  // never consulted or maintained).
  const bool lazy_only = repair_probability_ == 0.0;
  if (lazy_only && round_ < table_due_round_[slot]) {
    return;
  }
  if (!lazy_only) {
    maintenance_.entries_examined += static_cast<std::uint64_t>(row_width_);
  }
  std::int32_t min_stamp = std::numeric_limits<std::int32_t>::max();
  for (int b = 0; b < config_.bits; ++b) {
    const std::uint64_t bucket_base =
        row_base + static_cast<std::uint64_t>(b) * static_cast<std::uint64_t>(k);
    for (int cell = 0; cell < k; ++cell) {
      const std::uint64_t offset =
          bucket_base + static_cast<std::uint64_t>(cell);
      if (round_ - refreshed_at_[offset] >= params_.refresh_interval) {
        ++maintenance_.due_refreshes;
        refresh_entry(slot, b * k + cell);
      } else if (!lazy_only) {
        const std::uint64_t link = table_.links[offset];
        if (link_slot(link) != kNoSlot && !entry_valid(link) &&
            repair_draw()) {
          for (int t = cell; t + 1 < k; ++t) {
            const std::uint64_t dst =
                bucket_base + static_cast<std::uint64_t>(t);
            install_cell(dst, table_.links[dst + 1], table_.id(dst + 1),
                         refreshed_at_[dst + 1]);
          }
          refresh_entry(slot, b * k + (k - 1));
          // The shifted-in cell keeps its own stamps and gets its next
          // look next round -- each cell is examined once per round.
        }
      }
      min_stamp = std::min(min_stamp, refreshed_at_[offset]);
    }
  }
  if (lazy_only) {
    table_due_round_[slot] =
        min_stamp + static_cast<std::int32_t>(params_.refresh_interval);
  }
}

// Integrates the joiner cohort collected since the last call: fresh-id
// draw, order-index commit, bootstrap against the committed membership
// (which already includes the whole cohort, mirroring the dense rejoiner
// rebuilds), then announcement (predecessor notify / deep-bucket inserts).
// `commit_always` forces the order-index rebuild even with no joiners --
// the round-boundary contract (departed entries dropped every round); the
// in-flight path skips the O(N) rebuild at joinerless lookup boundaries
// (mid-round the order index may briefly carry departed entries, which
// read as dead through the presence mask like any stale state).
void SparseChurnWorld::integrate_joiners(bool commit_always) {
  // Round-boundary commits (commit_always) also refresh the membership's
  // prefix-seek table: a round of maintenance queries follows and
  // amortizes the rebuild many times over.  The in-flight engine's
  // per-lookup boundary commits skip the rebuild -- their delta is a
  // handful of slots and the next boundary is one lookup away -- at the
  // price of full-range (pre-accelerator) searches in between.
  if (joiners_.empty()) {
    if (commit_always) {
      membership_.commit(/*refresh_seek=*/true);
    }
    return;
  }
  membership_.join(joiners_, id_rng_);
  membership_.commit(/*refresh_seek=*/commit_always);
  total_joins_ += joiners_.size();
  for (const NodeSlot slot : joiners_) {
    joined_at_[slot] = round_;
  }
  for (const NodeSlot slot : joiners_) {
    rebuild_node(slot);
  }
  for (const NodeSlot slot : joiners_) {
    announce_join(slot);
  }
  joiners_.clear();
}

// One slot of the fused in-flight sweep: the lifecycle flip, then -- for a
// surviving member -- its round maintenance in place.  Unlike step(),
// where every flip happens before any repair, the world here is genuinely
// un-frozen: a slot's maintenance sees whatever the sweep has already done
// this round.  The lifecycle stream still draws exactly one Bernoulli per
// slot in slot order, so it stays the same sequence as step()'s.
void SparseChurnWorld::lifecycle_and_maintain_slot(NodeSlot slot) {
  if (membership_.present(slot)) {
    if (lifecycle_rng_.bernoulli(
            session_.hazard(static_cast<std::int64_t>(round_) -
                            joined_at_[slot]))) {
      leave_slot(slot);
      return;
    }
    if (membership_.order_size() == 0) {
      return;  // order index momentarily empty: nothing to repair against
    }
    maintain_successors(slot);
    maintain_entries(slot);
  } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
    joiners_.push_back(slot);
  }
}

void SparseChurnWorld::advance_sweep(std::uint64_t& cursor,
                                     std::uint64_t slots) {
  const std::uint64_t capacity = membership_.capacity();
  const std::uint64_t end =
      slots > capacity - cursor ? capacity : cursor + slots;
  for (; cursor < end; ++cursor) {
    lifecycle_and_maintain_slot(static_cast<NodeSlot>(cursor));
  }
}

void SparseChurnWorld::step() {
  ++round_;
  const std::uint64_t capacity = membership_.capacity();
  // Lifecycle flips first: a slot's decision reads its pre-round state
  // (leave() flips presence in place, but each slot is visited once; join
  // assignment is deferred to the batch below).  The departure draw runs
  // through the session model's age-dependent hazard; geometric sessions
  // have the constant hazard pd, reproducing the historical stream.
  obs::PhaseTimer lifecycle_timer(profile_, obs::Phase::kLifecycle, trace_);
  joiners_.clear();
  for (NodeSlot slot = 0; slot < capacity; ++slot) {
    if (membership_.present(slot)) {
      if (lifecycle_rng_.bernoulli(
              session_.hazard(static_cast<std::int64_t>(round_) -
                              joined_at_[slot]))) {
        leave_slot(slot);
      }
    } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
      joiners_.push_back(slot);
    }
  }
  lifecycle_timer.stop();
  {
    obs::PhaseTimer commit_timer(profile_, obs::Phase::kMembershipCommit,
                                 trace_);
    integrate_joiners(/*commit_always=*/true);
  }
  // Maintenance for present nodes: successor-list stabilization, due
  // refreshes, and eager repair.  Members are enumerated through the
  // packed alive bitmap (same ascending order as the historical
  // full-capacity presence scan) and rows that provably have nothing due
  // are skipped inside maintain_entries.
  obs::PhaseTimer refresh_timer(profile_, obs::Phase::kRefreshRepair, trace_);
  for_each_alive(membership_, [&](NodeSlot slot) {
    maintain_successors(slot);
    maintain_entries(slot);
  });
}

template <typename Id>
ChurnKernelCtx<Id> SparseChurnWorld::kernel_ctx() const {
  const auto id_data = [](const EntryRows& rows) -> const Id* {
    if constexpr (sizeof(Id) == sizeof(std::uint32_t)) {
      return rows.ids32.data();
    } else {
      return rows.ids64.data();
    }
  };
  ChurnKernelCtx<Id> ctx;
  ctx.ids = membership_.id_data();
  ctx.alive_bits = membership_.alive_bits_data();
  ctx.generations = membership_.generation_data();
  ctx.table_links = table_.links.data();
  ctx.table_id = id_data(table_);
  ctx.successor_links = successors_.links.data();
  ctx.successors_id = id_data(successors_);
  ctx.row_width = row_width_;
  ctx.bucket_k = config_.bucket_k;
  ctx.s = config_.successors;
  ctx.key_mask = membership_.key_mask();
  return ctx;
}

sparse::SparseEstimate SparseChurnWorld::measure(std::uint64_t pairs,
                                                 math::Rng& rng) {
  return narrow_ids() ? measure_with<std::uint32_t>(pairs, rng, false)
                      : measure_with<std::uint64_t>(pairs, rng, false);
}

template <typename Id>
sparse::SparseEstimate SparseChurnWorld::measure_with(std::uint64_t pairs,
                                                      math::Rng& rng,
                                                      bool scalar) {
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  sparse::SparseEstimate estimate;
  if (membership_.population() < 2) {
    return estimate;  // nothing to sample: the empty-estimate contract
  }
  const ChurnKernelCtx<Id> ctx = kernel_ctx<Id>();
  const std::uint64_t capacity = membership_.capacity();
  const bool workload = workload_enabled();
  // Replica attempts are capped by the population once for the whole
  // call: the world is frozen in sync mode, so the historical per-pair
  // min is a constant.
  const int attempts =
      workload ? static_cast<int>(std::min<std::uint64_t>(
                     static_cast<std::uint64_t>(config_.replicas),
                     membership_.order_size()))
               : 1;
  // Draws are pulled a chunk at a time BEFORE any routing: routing is
  // rng-free, so hoisting the draws out of the route loop consumes the
  // measurement stream byte for byte like the historical interleaved
  // loop, while giving the batch driver a pair source to refill lanes
  // from.  Chunking bounds the scratch (and keeps pair tags in u32).
  constexpr std::uint64_t kDrawChunk = 4096;
  for (std::uint64_t start = 0; start < pairs; start += kDrawChunk) {
    const std::uint64_t n = std::min(kDrawChunk, pairs - start);
    draws_.clear();
    draws_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      GetDraw draw;
      if (!workload) {
        NodeSlot source =
            static_cast<NodeSlot>(rng.uniform_below(capacity));
        while (!membership_.present(source)) {
          source = static_cast<NodeSlot>(rng.uniform_below(capacity));
        }
        NodeSlot target =
            static_cast<NodeSlot>(rng.uniform_below(capacity));
        while (!membership_.present(target) || target == source) {
          target = static_cast<NodeSlot>(rng.uniform_below(capacity));
        }
        draw.source = source;
        draw.target = target;
      } else {
        // Replicated GET: the object's key places it on its successor
        // (the primary, attempt 0 -- what the routing estimate records)
        // and the next r - 1 clockwise present nodes hold the replicas.
        // Sources colliding with the primary redraw both draws, like the
        // uniform path's target rejection.
        for (;;) {
          draw.source =
              static_cast<NodeSlot>(rng.uniform_below(capacity));
          while (!membership_.present(draw.source)) {
            draw.source =
                static_cast<NodeSlot>(rng.uniform_below(capacity));
          }
          const std::uint64_t object = zipf_->sample(rng);
          draw.position = membership_.successor_position(
              object_keys_.at(object) & ctx.key_mask);
          draw.target = membership_.ring_successor(draw.position, 0);
          if (draw.target != draw.source) {
            break;
          }
        }
      }
      draws_.push_back(draw);
    }
    // Forensics: the sink's stride selects pairs by their index within
    // this measure() call -- a pure function of (shard, round, pair
    // index), so the traced set is identical at any thread count.  The
    // re-route runs against the same frozen snapshot the measurement
    // routes see and touches no rng, load counter, or estimate.
    if (trace_sink_ != nullptr && trace_sink_->enabled()) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t pair_index = start + i;
        if (trace_sink_->selects(pair_index)) {
          trace_route(ctx, draws_[i].source, draws_[i].target, pair_index);
        }
      }
    }
    if (scalar) {
      route_chunk_scalar(ctx, attempts, estimate);
    } else {
      route_chunk_batched(ctx, attempts, estimate);
    }
  }
  return estimate;
}

// Re-routes one selected pair hop by hop against the frozen snapshot,
// recording each chosen hop's slot, cached id, table rank (the index in
// the forwarding node's row; -1 marks a successor-list hop), and the
// generation probe that admitted it.  Routing is rng-free and the world
// is frozen in sync mode, so the walk reproduces the measurement route
// exactly without perturbing it.
template <typename Id>
void SparseChurnWorld::trace_route(const ChurnKernelCtx<Id>& ctx,
                                   NodeSlot source, NodeSlot target,
                                   std::uint64_t pair_index) {
  const StepFn<Id> step_fn = geometry_ == SparseChurnGeometry::kKademlia
                                 ? &step_xor<Id>
                                 : &step_clockwise<Id>;
  obs::RouteTrace trace;
  trace.shard = trace_shard_;
  trace.round = round_;
  trace.pair_index = pair_index;
  trace.source_slot = source;
  trace.source_id = ctx.ids[source];
  trace.target_id = ctx.ids[target];
  NodeSlot cur = source;
  std::uint64_t cur_id = trace.source_id;
  std::uint64_t hops = 0;
  for (;;) {
    if (cur == target) {
      trace.status = 0;  // arrived
      break;
    }
    if (hops >= max_hops_) {
      trace.status = 2;  // hop limit
      break;
    }
    const StepResult next = step_fn(ctx, cur, cur_id, trace.target_id);
    if (next.next == kNoSlot) {
      trace.status = 1;  // dropped
      break;
    }
    obs::RouteHop hop;
    hop.slot = next.next;
    hop.id = next.next_id;
    hop.rank = -1;
    hop.gen_ok = false;
    // Recover the rank: the chosen entry lives in the forwarding node's
    // table row (rank = cell index) or its successor list (rank = -1);
    // match on slot + cached id so a recycled slot in another cell can't
    // alias the pick.
    const std::uint64_t row_base =
        cur * static_cast<std::uint64_t>(ctx.row_width);
    for (int j = 0; j < ctx.row_width; ++j) {
      const std::uint64_t off = row_base + static_cast<std::uint64_t>(j);
      const std::uint64_t link = ctx.table_links[off];
      if (link_slot(link) == next.next && ctx.table_id[off] == next.next_id &&
          ctx_link_valid(ctx, link)) {
        hop.rank = j;
        hop.gen_ok = true;
        break;
      }
    }
    if (hop.rank < 0) {
      const std::uint64_t succ_base =
          cur * static_cast<std::uint64_t>(ctx.s);
      for (int t = 0; t < ctx.s; ++t) {
        const std::uint64_t off = succ_base + static_cast<std::uint64_t>(t);
        const std::uint64_t link = ctx.successor_links[off];
        if (link_slot(link) == next.next &&
            ctx.successors_id[off] == next.next_id &&
            ctx_link_valid(ctx, link)) {
          hop.gen_ok = true;
          break;
        }
      }
    }
    trace.hops.push_back(hop);
    cur = next.next;
    cur_id = next.next_id;
    ++hops;
  }
  trace_sink_->push(std::move(trace));
}

// The scalar reference path: pair by pair through the shared single-route
// core, replicas consulted in attempt order only while unavailable --
// exactly the historical control flow over the drawn chunk.
template <typename Id>
void SparseChurnWorld::route_chunk_scalar(const ChurnKernelCtx<Id>& ctx,
                                          int attempts,
                                          sparse::SparseEstimate& estimate) {
  const StepFn<Id> step_fn = geometry_ == SparseChurnGeometry::kKademlia
                                 ? &step_xor<Id>
                                 : &step_clockwise<Id>;
  const bool workload = workload_enabled();
  const auto no_sweep = [] {};
  for (const GetDraw& draw : draws_) {
    const std::uint64_t source_id = ctx.ids[draw.source];
    bool available = route_one<false>(
        ctx, step_fn, draw.source, source_id, draw.target,
        ctx.ids[draw.target], max_hops_, load_.data(), &estimate, no_sweep);
    if (!workload) {
      continue;
    }
    ++estimate.gets;
    for (int a = 1; a < attempts && !available; ++a) {
      const NodeSlot holder = membership_.ring_successor(
          draw.position, static_cast<std::uint64_t>(a));
      if (!membership_.present(holder)) {
        continue;  // the replica departed with its holder
      }
      available =
          holder == draw.source  // the source holds the replica itself
              ? true
              : route_one<false>(ctx, step_fn, draw.source, source_id, holder,
                                 ctx.ids[holder], max_hops_, load_.data(),
                                 nullptr, no_sweep);
    }
    if (available) {
      ++estimate.gets_available;
    }
  }
}

// The batched path: the drawn chunk feeds the 8 SoA lanes; replica
// attempts are failure-driven (attempt a launches only once attempts
// 0..a-1 have failed, via the LIFO retry worklist), so exactly the scalar
// attempt set gets routed.  Every recorded quantity -- estimate counters,
// availability flags, load bumps -- is a commutative sum over that
// identical set, so lane scheduling cannot change the merged result;
// per-pair equality against route_chunk_scalar is gated in
// test_sparse_churn.
template <typename Id>
void SparseChurnWorld::route_chunk_batched(const ChurnKernelCtx<Id>& ctx,
                                           int attempts,
                                           sparse::SparseEstimate& estimate) {
  const bool workload = workload_enabled();
  const bool xor_geometry = geometry_ == SparseChurnGeometry::kKademlia;
  const auto n = static_cast<std::uint32_t>(draws_.size());
  get_available_.assign(n, 0);
  retry_.clear();
  std::uint32_t next = 0;
  int lane_attempt[RouteBatch::kLanes] = {};
  const auto launch = [&](RouteBatch& b, int l, std::uint32_t pair,
                          int attempt, NodeSlot target) {
    const GetDraw& draw = draws_[pair];
    b.rank[l] = pair;  // the lane's GET tag
    lane_attempt[l] = attempt;
    b.cur[l] = draw.source;
    b.dist[l] = ctx.ids[draw.source];
    b.target[l] = target;
    b.target_id[l] = ctx.ids[target];
    b.hops[l] = 0;
    if (xor_geometry) {
      prefetch_xor_bucket(ctx, draw.source, b.dist[l], b.target_id[l]);
    } else {
      prefetch_ring_row(ctx, draw.source);
    }
  };
  const auto refill = [&](RouteBatch& b, int l) -> bool {
    for (;;) {
      std::uint32_t pair;
      int attempt;
      if (!retry_.empty()) {
        pair = retry_.back().first;
        attempt = retry_.back().second;
        retry_.pop_back();
      } else if (next < n) {
        pair = next++;
        attempt = 0;
      } else {
        return false;
      }
      const GetDraw& draw = draws_[pair];
      if (attempt == 0) {
        launch(b, l, pair, attempt, draw.target);
        return true;
      }
      const NodeSlot holder = membership_.ring_successor(
          draw.position, static_cast<std::uint64_t>(attempt));
      if (!membership_.present(holder)) {
        // The replica departed with its holder: fall through to the
        // next attempt without routing, like the scalar `continue`.
        if (attempt + 1 < attempts) {
          retry_.emplace_back(pair, attempt + 1);
        }
        continue;
      }
      if (holder == draw.source) {
        get_available_[pair] = 1;  // the source holds the replica itself
        continue;
      }
      launch(b, l, pair, attempt, holder);
      return true;
    }
  };
  const auto retire = [&](RouteBatch& b, int l, SparseRouteStatus status,
                          NodeSlot drop_slot) {
    if (lane_attempt[l] == 0) {
      // Attempt 0 is what the routing estimate records (the historical
      // uniform route / primary GET).  A drop is classified at the slot
      // that had no admissible hop -- the lane's pre-step position, which
      // is exactly the `cur` the scalar path classifies at.
      flat::record_route(estimate, status,
                         static_cast<std::uint64_t>(b.hops[l]),
                         status == SparseRouteStatus::kDropped
                             ? classify_drop(ctx, drop_slot)
                             : obs::RouteFailure::kDeadEntry);
    }
    if (!workload) {
      return;
    }
    if (status == SparseRouteStatus::kArrived) {
      get_available_[b.rank[l]] = 1;
    } else if (lane_attempt[l] + 1 < attempts) {
      retry_.emplace_back(b.rank[l], lane_attempt[l] + 1);
    }
  };
  if (xor_geometry) {
    drive_churn_lanes(ctx, max_hops_, load_.data(), step_batch_xor<Id>,
                      refill, retire);
  } else {
    drive_churn_lanes(ctx, max_hops_, load_.data(), step_batch_ring<Id>,
                      refill, retire);
  }
  if (workload) {
    estimate.gets += n;
    for (const std::uint8_t available : get_available_) {
      estimate.gets_available += available;
    }
  }
}

sparse::SparseEstimate SparseChurnWorld::measure(std::uint64_t pairs) {
  return measure(pairs, measure_rng_);
}

sparse::SparseEstimate SparseChurnWorld::measure_scalar_routes(
    std::uint64_t pairs) {
  return narrow_ids()
             ? measure_with<std::uint32_t>(pairs, measure_rng_, true)
             : measure_with<std::uint64_t>(pairs, measure_rng_, true);
}

sparse::SparseEstimate SparseChurnWorld::measure_inflight(
    std::uint64_t pairs, std::uint64_t events_per_hop, math::Rng& rng) {
  return narrow_ids()
             ? measure_inflight_with<std::uint32_t>(pairs, events_per_hop,
                                                    rng)
             : measure_inflight_with<std::uint64_t>(pairs, events_per_hop,
                                                    rng);
}

template <typename Id>
sparse::SparseEstimate SparseChurnWorld::measure_inflight_with(
    std::uint64_t pairs, std::uint64_t events_per_hop, math::Rng& rng) {
  // The in-flight round fuses the lifecycle sweep into the routes (each
  // hop advances the world), so the whole body is one route-phase span --
  // nesting lifecycle/commit timers inside it would double-count.
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  ++round_;
  const std::uint64_t capacity = membership_.capacity();
  joiners_.clear();
  std::uint64_t cursor = 0;
  std::uint64_t eph = events_per_hop;
  if (eph == 0) {
    // Derive the rate from the pair budget: one full capacity sweep
    // spread over the round's expected hop count, `pairs` routes of
    // ~log2 N hops each.  Routes shorter than the estimate leave a sweep
    // remainder, flushed below -- the round always completes exactly one
    // lifecycle sweep either way.
    const std::uint64_t population =
        membership_.population() < 2 ? 2 : membership_.population();
    // max(1, ...): pairs == 0 still closes the round (the flush below runs
    // the whole sweep), it just samples nothing.
    const std::uint64_t hop_budget = std::max<std::uint64_t>(
        1, pairs * static_cast<std::uint64_t>(std::bit_width(population)));
    eph = (capacity + hop_budget - 1) / hop_budget;
    eph = eph == 0 ? 1 : eph;
  }
  sparse::SparseEstimate estimate;
  // The ctx pointers stay valid while the world moves: the per-slot
  // arrays never resize, and membership mutations (leave / join) update
  // the packed epoch structure in place.  Ids can change only on rejoin,
  // which happens at lookup boundaries -- never mid-route -- so the
  // cached-id kernels' carried identifiers cannot go stale in flight.
  const ChurnKernelCtx<Id> ctx = kernel_ctx<Id>();
  const StepFn<Id> step_fn = geometry_ == SparseChurnGeometry::kKademlia
                                 ? &step_xor<Id>
                                 : &step_clockwise<Id>;
  // In-flight route through the shared single-route core: the holder's
  // departure drops the message (checked before arrival -- a route
  // "arriving" at a slot that just left gets no reply), and the lifecycle
  // sweep advances under every hop, which is what keeps this path scalar:
  // each hop depends on the sweep the previous hop triggered.  Forwards
  // bump the holding slot's load counter, rng-free as in measure().
  const auto sweep = [&] { advance_sweep(cursor, eph); };
  const auto route_to = [&](NodeSlot source, NodeSlot target,
                            sparse::SparseEstimate* rec) -> bool {
    return route_one<true>(ctx, step_fn, source, ctx.ids[source], target,
                           ctx.ids[target], max_hops_, load_.data(), rec,
                           sweep);
  };
  const bool workload = workload_enabled();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    // Joins become routable at lookup boundaries only: a node that
    // arrived mid-route has not finished bootstrapping until the overlay
    // absorbs it here (id draw, order-index commit, bootstrap, announce).
    // A replicated GET is one lookup transaction: all its attempts run
    // against the membership of its boundary.
    integrate_joiners(/*commit_always=*/false);
    if (membership_.population() < 2) {
      continue;  // nothing to sample this instant; the sweep still flushes
    }
    if (!workload) {
      NodeSlot source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      while (!membership_.present(source)) {
        source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      }
      NodeSlot target = static_cast<NodeSlot>(rng.uniform_below(capacity));
      while (!membership_.present(target) || target == source) {
        target = static_cast<NodeSlot>(rng.uniform_below(capacity));
      }
      route_to(source, target, &estimate);
      continue;
    }
    NodeSlot source;
    NodeSlot primary;
    std::uint64_t position;
    for (;;) {
      source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      while (!membership_.present(source)) {
        source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      }
      const std::uint64_t object = zipf_->sample(rng);
      position = membership_.successor_position(object_keys_.at(object) &
                                                ctx.key_mask);
      primary = membership_.ring_successor(position, 0);
      if (primary != source) {
        break;
      }
    }
    ++estimate.gets;
    bool available = route_to(source, primary, &estimate);
    const auto attempts = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(config_.replicas),
        membership_.order_size()));
    for (int a = 1; a < attempts && !available; ++a) {
      const NodeSlot holder =
          membership_.ring_successor(position, static_cast<std::uint64_t>(a));
      if (!membership_.present(holder)) {
        continue;  // the replica departed with its holder
      }
      available = holder == source  // the source holds the replica itself
                      ? true
                      : route_to(source, holder, nullptr);
    }
    if (available) {
      ++estimate.gets_available;
    }
  }
  // Flush the sweep remainder and close the round: exactly one full
  // lifecycle round per measured round, so the stationary population (and
  // the q_nr bridge) matches the round-synchronous mode.
  advance_sweep(cursor, capacity);
  integrate_joiners(/*commit_always=*/true);
  return estimate;
}

sparse::SparseEstimate SparseChurnWorld::measure_inflight(
    std::uint64_t pairs, std::uint64_t events_per_hop) {
  return measure_inflight(pairs, events_per_hop, measure_rng_);
}

sim::LoadSummary SparseChurnWorld::load_summary() const {
  return sim::summarize_load(load_, [this](std::size_t slot) {
    return membership_.present(static_cast<NodeSlot>(slot));
  });
}

double SparseChurnWorld::alive_fraction() const noexcept {
  return static_cast<double>(membership_.population()) /
         static_cast<double>(membership_.capacity());
}

namespace {

// Every age is round - stamp, so the age sum over `counted` entries is
// counted * round minus their stamp sum, taken exactly in int64.  The
// historical per-entry double sum only ever added integers below 2^53, so
// it was exact too and the quotient is bit-identical.
double mean_age(std::int64_t stamp_sum, std::uint64_t counted, int round) {
  if (counted == 0) {
    return 0.0;
  }
  const std::int64_t ages =
      static_cast<std::int64_t>(counted) * round - stamp_sum;
  return static_cast<double>(ages) / static_cast<double>(counted);
}

}  // namespace

double SparseChurnWorld::mean_entry_age() const {
  return mean_age(entry_stamp_sum_,
                  membership_.population() *
                      static_cast<std::uint64_t>(row_width_),
                  round_);
}

double SparseChurnWorld::mean_entry_age_recount() const {
  std::int64_t stamps = 0;
  for_each_alive(membership_,
                 [&](NodeSlot slot) { stamps += row_stamp_sum(slot); });
  return mean_age(stamps,
                  membership_.population() *
                      static_cast<std::uint64_t>(row_width_),
                  round_);
}

std::uint64_t SparseChurnWorld::row_bytes() const noexcept {
  return table_.bytes() + successors_.bytes() +
         (refreshed_at_.size() + table_due_round_.size() +
          successors_refreshed_at_.size()) *
             sizeof(std::int32_t);
}

SparseChurnResult run_sparse_churn_trajectory(
    SparseChurnGeometry geometry, const SparseChurnConfig& config,
    const ChurnParams& params, const TrajectoryOptions& options,
    const math::Rng& rng) {
  validate_trajectory_options(options);
  DHT_CHECK(options.trace_routes == 0 || !options.inflight,
            "route forensics requires the round-synchronous mode (in-flight "
            "routes have no frozen snapshot to re-route against)");
  (void)availability(params);

  const std::uint64_t shards =
      options.shards != 0 ? options.shards : kDefaultTrajectoryShards;
  const int rounds = options.measured_rounds;
  std::vector<std::vector<sparse::SparseEstimate>> shard_rounds(shards);
  std::vector<double> population_sum(shards, 0.0);
  std::vector<double> alive_sum(shards, 0.0);
  std::vector<double> age_sum(shards, 0.0);
  std::vector<sim::LoadSummary> shard_loads(shards);
  std::vector<MaintenanceCounters> shard_maintenance(shards);
  std::vector<std::uint64_t> shard_row_bytes(shards, 0);
  // Timing side-channel only: per-shard profiles reduce in shard order
  // below; a null profile/trace reads no clock anywhere.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  // Forensics sinks: each shard keeps the newest `budget` traces of the
  // pairs its stride selects -- both pure functions of (shard, round, pair
  // index), so the drained set is bit-identical at any thread count.
  std::vector<obs::RouteTraceSink> shard_sinks;
  if (options.trace_routes != 0) {
    const std::uint64_t budget =
        std::max<std::uint64_t>(1, options.trace_routes / shards);
    const std::uint64_t per_shard_pairs =
        options.pairs_per_round * static_cast<std::uint64_t>(rounds);
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, per_shard_pairs / budget);
    shard_sinks.reserve(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      shard_sinks.emplace_back(stride, budget);
    }
  }

  sim::run_sharded(
      shards,
      sim::PoolOptions{.threads = sim::resolve_threads(options.threads),
                       // Replica worlds are heavy; claim one at a time so
                       // the tail load-balances.
                       .chunk = 1},
      [&](std::uint64_t s) {
        obs::PhaseProfile* const profile =
            observed ? &shard_profiles[s] : nullptr;
        // Shard s is an independent replica of the whole trajectory, a
        // pure function of (caller seed, s).
        obs::PhaseTimer build_timer(profile, obs::Phase::kWorldBuild,
                                    options.trace);
        SparseChurnWorld world(geometry, config, params,
                               options.repair_probability, options.max_hops,
                               rng.fork(s));
        build_timer.stop();
        world.set_observer(profile, options.trace);
        if (!shard_sinks.empty()) {
          world.set_route_trace(&shard_sinks[s], s);
        }
        for (int i = 0; i < options.warmup_rounds; ++i) {
          world.step();
        }
        auto& mine = shard_rounds[s];
        mine.reserve(static_cast<std::size_t>(rounds));
        for (int r = 0; r < rounds; ++r) {
          if (options.inflight) {
            // In-flight: the round's lifecycle advances DURING the
            // measured routes (measure_inflight steps the round itself).
            mine.push_back(world.measure_inflight(
                options.pairs_per_round, options.inflight_events_per_hop));
          } else {
            world.step();
            mine.push_back(world.measure(options.pairs_per_round));
          }
          population_sum[s] += static_cast<double>(world.population());
          alive_sum[s] += world.alive_fraction();
          age_sum[s] += world.mean_entry_age();
        }
        shard_loads[s] = world.load_summary();
        shard_maintenance[s] = world.maintenance();
        shard_row_bytes[s] = world.row_bytes();
      });

  SparseChurnResult result;
  result.shards = shards;
  result.per_round.resize(static_cast<std::size_t>(rounds));
  {
    obs::PhaseProfile merge_profile;
    obs::PhaseTimer merge_timer(observed ? &merge_profile : nullptr,
                                obs::Phase::kMerge, options.trace);
    for (int r = 0; r < rounds; ++r) {
      for (std::uint64_t s = 0; s < shards; ++s) {
        result.per_round[static_cast<std::size_t>(r)].merge(
            shard_rounds[s][static_cast<std::size_t>(r)]);
      }
      result.overall.merge(result.per_round[static_cast<std::size_t>(r)]);
    }
    merge_timer.stop();
    if (options.profile != nullptr) {
      for (const obs::PhaseProfile& p : shard_profiles) {
        options.profile->merge(p);
      }
      options.profile->merge(merge_profile);
    }
  }
  // Drain the forensics sinks in shard order: the concatenation is the
  // same regardless of which worker ran which shard.
  for (obs::RouteTraceSink& sink : shard_sinks) {
    for (obs::RouteTrace& trace : sink.drain()) {
      result.traces.push_back(std::move(trace));
    }
  }
  double population_total = 0.0;
  double alive_total = 0.0;
  double age_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    population_total += population_sum[s];
    alive_total += alive_sum[s];
    age_total += age_sum[s];
    result.maintenance.merge(shard_maintenance[s]);
    result.row_bytes = std::max(result.row_bytes, shard_row_bytes[s]);
  }
  // validate_trajectory_options guarantees rounds >= 1 and shards >= 1, but
  // keep the division guarded: an empty run must surface zeroed
  // diagnostics, never NaN leaking into JSONL.
  const double snapshots =
      static_cast<double>(shards) * static_cast<double>(rounds);
  result.mean_population =
      snapshots > 0.0 ? population_total / snapshots : 0.0;
  result.mean_alive_fraction = snapshots > 0.0 ? alive_total / snapshots : 0.0;
  result.mean_entry_age = snapshots > 0.0 ? age_total / snapshots : 0.0;
  // Load reduction in shard order: the hottest slot of any world, and the
  // shape statistics averaged over worlds (each shard is an independent
  // trajectory; max commutes, so the result is thread-count-independent).
  double p99_total = 0.0;
  double cv_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    result.load_max = std::max(result.load_max, shard_loads[s].max);
    p99_total += static_cast<double>(shard_loads[s].p99);
    cv_total += shard_loads[s].cv;
  }
  result.load_p99 = p99_total / static_cast<double>(shards);
  result.load_cv = cv_total / static_cast<double>(shards);
  return result;
}

std::vector<SparseChurnSweepPoint> run_sparse_churn_sweep(
    const SparseChurnSweepSpec& spec) {
  DHT_CHECK(!spec.bits.empty(), "sweep needs at least one bits value");
  DHT_CHECK(!spec.populations.empty(),
            "sweep needs at least one population value");
  DHT_CHECK(!spec.churn.empty(), "sweep needs at least one churn point");
  DHT_CHECK(!spec.repair.empty(), "sweep needs at least one repair value");
  DHT_CHECK(!spec.successors.empty(),
            "sweep needs at least one successor-list length");
  const math::Rng root(spec.seed);
  std::vector<SparseChurnSweepPoint> points;
  points.reserve(spec.bits.size() * spec.populations.size() *
                 spec.churn.size() * spec.repair.size() *
                 spec.successors.size());
  std::uint64_t index = 0;
  for (const int bits : spec.bits) {
    for (const std::uint64_t population : spec.populations) {
      for (const ChurnParams& params : spec.churn) {
        std::uint64_t capacity = capacity_for_population(population, params);
        if (bits < 26 && capacity > (std::uint64_t{1} << bits)) {
          capacity = std::uint64_t{1} << bits;  // dense-limit clamp
        }
        for (const double rho : spec.repair) {
          for (const int s : spec.successors) {
            SparseChurnConfig config;
            config.bits = bits;
            config.capacity = capacity;
            config.successors = s;
            config.shortcuts = spec.shortcuts;
            config.bucket_k = spec.bucket_k;
            config.session = spec.session;
            config.replicas = spec.replicas;
            config.zipf_s = spec.zipf_s;
            config.objects = spec.objects;
            TrajectoryOptions options = spec.options;
            options.repair_probability = rho;
            SparseChurnSweepPoint point;
            point.bits = bits;
            point.population = population;
            point.capacity = capacity;
            point.params = params;
            point.repair_probability = rho;
            point.successors = s;
            point.q_eff = effective_q(params);
            point.result = run_sparse_churn_trajectory(
                spec.geometry, config, params, options, root.fork(index));
            points.push_back(std::move(point));
            ++index;
          }
        }
      }
    }
  }
  return points;
}

}  // namespace dht::churn
