// Dynamic-membership churn over non-fully-populated identifier spaces --
// the fusion of the repo's two flagship engines.
//
// The dense churn engine (churn/trajectory.hpp) evolves liveness on a fixed
// fully-populated roster; the sparse engine (sparse/flat_sparse.hpp) routes
// static populations scattered in huge key spaces.  Here N itself evolves:
// a SparseChurnWorld runs a slot roster (churn/membership.hpp) over a 2^d
// key space (d <= 63) in which joining nodes draw fresh identifiers,
// bootstrap their row-major tables (Chord fingers / Kademlia bucket
// contacts / Symphony harmonic shortcuts) against the current membership,
// and leaving nodes are removed -- their in-edges decay until lazy refresh
// (every R rounds per entry), eager repair (the rho knob), or
// successor-list repair re-points them.  Entries are stamped with the
// target slot's occupancy generation: a departed node's in-edges stay dead
// even after the slot is recycled, because in dynamic membership
// identities never return.  That drops the rebirth term from the dense
// q_eff bridge -- the engine's routability tracks the static model at the
// *no-return* effective failure probability q_nr(R) = effective_q_no_return
// (churn/churn.hpp), the dynamic-membership generalization of PR 2's
// bridge, asserted in test_sparse_churn.
//
// The successor-list model (the paper's "sequential neighbors", Section 2,
// finally run under churn): each node keeps its s clockwise successors.
// Routing may fall back on the list when the table offers no admissible
// alive hop, and per-round maintenance repairs a broken list by consulting
// the list itself -- the first alive entry seeds the rebuilt list -- before
// falling back to a full table rebuild when every entry is dead.  s = 0
// disables the list and recovers the pure-table decay model.
//
// Estimation reuses the replica sharding of the dense churn engine: shard k
// forks the caller's generator (Rng::fork(k)) and owns a private world, so
// the whole trajectory is a pure function of (seed, k); per-(shard, round)
// SparseEstimates (exact integer counters) are merged round-wise in shard
// order -- bit-identical at any thread count.  Grid sweeps over
// (N0, d, churn, rho, s) ride run_sparse_churn_sweep; the dense-limit
// oracle (capacity = 2^d, join rate = rebirth, leave rate = death) pins the
// engine to the PR 2 q_eff bridge in test_sparse_churn.
//
// Three live-churn realism axes ride on top of the round-synchronous
// engine (all default-off, all bit-compatible with the historical
// defaults):
//  * In-flight lookup measurement (TrajectoryOptions::inflight /
//    measure_inflight): the round's lifecycle sweep advances DURING each
//    measured route, so a lookup can lose its next hop -- or the node
//    holding the message -- mid-flight; joins integrate at lookup
//    boundaries.
//  * k-bucket Kademlia (SparseChurnConfig::bucket_k): up to k contacts
//    per bucket in insertion order, dead-observed LRU eviction, announce
//    inserts at the first free cell; k = 1 reproduces the single-contact
//    engine bit for bit (golden-pinned).
//  * Heavy-tailed sessions (SparseChurnConfig::session): geometric or
//    discrete shifted-Pareto lifetimes at the same mean 1/pd, with the
//    generalized no-return bridge effective_q_no_return(params, model).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "churn/membership.hpp"
#include "churn/trajectory.hpp"
#include "math/rng.hpp"
#include "math/zipf.hpp"
#include "obs/route_trace.hpp"
#include "sim/load_stats.hpp"
#include "sparse/sparse_overlay.hpp"

namespace dht::churn {

template <typename Id>
struct ChurnKernelCtx;  // flattened routing view (sparse_trajectory.cpp)

/// Geometries of the sparse churn world (the three sparse overlay
/// families; named like the dhtscale_cli sparse geometries).
enum class SparseChurnGeometry {
  kChord,     // "ring": successor-of-key fingers, greedy clockwise
  kKademlia,  // "xor": bucket contacts, XOR-greedy bucket walk
  kSymphony,  // "symphony": harmonic shortcuts, greedy clockwise
};

/// Maps "ring" | "xor" | "symphony" to the enum; anything else is false.
bool sparse_churn_geometry_from_name(std::string_view name,
                                     SparseChurnGeometry& out);

const char* to_string(SparseChurnGeometry geometry) noexcept;

struct SparseChurnConfig {
  /// Key-space bits (1 <= bits <= 63).
  int bits = 32;
  /// Slot-roster size C.  Each slot runs the two-state lifecycle of
  /// churn/churn.hpp (present w.p. a = pr/(pd+pr) at stationarity), so the
  /// stationary population is a * C.  Capacity <= min(2^bits, 2^26).
  std::uint64_t capacity = std::uint64_t{1} << 14;
  /// Successor-list length s (0 disables sequential neighbors).
  int successors = 4;
  /// Symphony shortcut count ks (ignored by the other geometries).
  int shortcuts = 6;
  /// Join-announcement budget: how many nearby nodes a joiner installs
  /// itself into (Kademlia's self-lookup deep-bucket inserts; 0 disables,
  /// negative is rejected).
  /// The ring geometries announce to the clockwise predecessor's successor
  /// list instead (Chord's notify), which costs nothing extra.  Without
  /// announcement a newcomer is invisible to in-edges until their owners
  /// refresh -- up to R rounds of arrival blindness the dense model cannot
  /// express, because there a reborn node keeps its identity and every
  /// stale in-edge revives instantly.
  int announce = 8;
  /// Kademlia bucket width k (the Roos et al. k-bucket model): each of the
  /// d buckets holds up to k contacts in insertion order -- longest-lived
  /// at the head, newcomers at the tail.  Routing probes a bucket head
  /// first (Kademlia's preference for long-lived contacts, which the
  /// heavy-tailed session model rewards); maintenance evicts a contact
  /// observed dead by compacting the bucket and refreshing the freed tail
  /// cell (the LRU replacement), and join announcement inserts into the
  /// first free cell.  k = 1 reproduces the single-contact rows of the
  /// pre-k engine bit for bit.  Ignored by the ring geometries.
  int bucket_k = 1;
  /// Session-length distribution of the lifecycle (churn/churn.hpp):
  /// geometric (memoryless, the historical model) or heavy-tailed Pareto
  /// with the same mean session 1/pd.
  SessionModel session{};
  /// r-way object replication over the successor list: a GET succeeds when
  /// ANY of the object key's first r clockwise present holders is reached
  /// (attempt 0, toward the primary, is what the routing estimate records;
  /// the extra attempts feed only the availability counters).  replicas = 1
  /// together with zipf_s = 0 keeps the historical uniform-pair
  /// measurement, bit for bit.
  int replicas = 1;
  /// Zipf skew of object popularity for the measured GETs (0 = uniform
  /// over objects; only meaningful with the workload measurement engaged,
  /// i.e. replicas > 1 or zipf_s > 0).
  double zipf_s = 0.0;
  /// Distinct objects (0 = one per roster slot).  Capped at 2^26.
  std::uint64_t objects = 0;
};

/// The capacity whose stationary population is `population`:
/// round(population / availability(params)).
std::uint64_t capacity_for_population(std::uint64_t population,
                                      const ChurnParams& params);

/// Exact counts of the table and successor-list maintenance a world did:
/// the unit counts behind the refresh/repair and commit phase seconds.
/// Every field is a pure function of the world's trajectory, so
/// shard-order merges are bit-identical at any thread count.
struct MaintenanceCounters {
  /// Table entries looked at by the rho > 0 scan (every entry of every
  /// scanned row; the rho = 0 path reads only stamps and counts none).
  std::uint64_t entries_examined = 0;
  /// Entries refreshed because R rounds had passed since their stamp.
  std::uint64_t due_refreshes = 0;
  /// Bernoulli(rho) draws: entries observed dead between refreshes.
  std::uint64_t repair_draws = 0;
  /// Draws that re-pointed (Kademlia: evicted and replaced) the entry.
  std::uint64_t repairs = 0;
  /// Successor lists rebuilt: joiner bootstraps, predecessor notifies,
  /// broken-list repairs and scheduled refreshes.
  std::uint64_t successor_rebuilds = 0;
  /// Whole table rows rebuilt: joiner bootstraps plus the full rebuild a
  /// node falls back on when its whole successor list is dead.
  std::uint64_t rows_rebuilt = 0;

  void merge(const MaintenanceCounters& other) noexcept {
    entries_examined += other.entries_examined;
    due_refreshes += other.due_refreshes;
    repair_draws += other.repair_draws;
    repairs += other.repairs;
    successor_rebuilds += other.successor_rebuilds;
    rows_rebuilt += other.rows_rebuilt;
  }

  bool operator==(const MaintenanceCounters&) const = default;
};

/// One dynamic sparse overlay world: membership churn (joins draw fresh
/// ids, leaves free slots), per-entry lazy refresh every R rounds, optional
/// eager repair of entries observed dead (rho), per-round successor-list
/// maintenance, and routing against the *current* membership via flattened
/// slot-indexed kernels.  The constructor only fork()s the caller's
/// generator, so a world's trajectory is a pure function of (rng lineage,
/// inputs).
class SparseChurnWorld {
 public:
  /// Starts at the stationary membership (each slot present w.p. a) with
  /// fresh tables and refresh phases staggered uniformly.  `max_hops` of 0
  /// selects the default cap C; hits land in the hop_limit_hits canary.
  SparseChurnWorld(SparseChurnGeometry geometry,
                   const SparseChurnConfig& config, const ChurnParams& params,
                   double repair_probability, std::uint64_t max_hops,
                   const math::Rng& rng);

  /// Advances one round: lifecycle flips (leaves + joins with fresh ids),
  /// order-index commit, joiner bootstraps + join announcements,
  /// successor-list maintenance, due refreshes, and eager repair.
  void step();

  /// Samples `pairs` routes among currently-present pairs against the
  /// stored (possibly stale) tables.  With fewer than two present nodes
  /// there is nothing to sample: returns an empty estimate (the
  /// ChurnWorld::measure contract).
  ///
  /// All per-pair randomness (sources, targets, Zipf objects) is drawn up
  /// front in pair order; routing itself is rng-free, so the measurement
  /// stream is byte-for-byte the historical interleaved one.  The routes
  /// then run through the 8-lane SoA batch driver.
  sparse::SparseEstimate measure(std::uint64_t pairs, math::Rng& rng);

  /// Same, drawing from the world's own measurement sub-stream.
  sparse::SparseEstimate measure(std::uint64_t pairs);

  /// The scalar reference for measure(pairs): the same pair draws from
  /// the world's measurement sub-stream, routed pair by pair through the
  /// single-route core in attempt order.  It must be bit-identical to
  /// measure() -- every recorded quantity (estimate counters, per-slot
  /// load adds) is commutative and the batch driver executes exactly the
  /// scalar attempt set -- which test_sparse_churn gates per pair.  Not
  /// used by the engines.
  sparse::SparseEstimate measure_scalar_routes(std::uint64_t pairs);

  /// One in-flight measured round: advances the round AND samples `pairs`
  /// routes while the world moves underneath them.  Instead of the
  /// step()-then-measure freeze, the round's lifecycle sweep (leaves,
  /// join draws, per-slot maintenance) is spread across the routes --
  /// `events_per_hop` slots advance after every hop (0 derives the rate
  /// from `pairs`: one full sweep over pairs x ~log2 N expected hops), so
  /// a lookup can lose its next hop, or the node currently holding the
  /// message, mid-flight.  Joiners collected by the sweep are integrated
  /// (id draw, order-index commit, bootstrap, announcement) at lookup
  /// boundaries -- a join becomes routable only once the overlay absorbs
  /// it.  Any sweep remainder is flushed at the end, so a measured round
  /// always performs exactly one full lifecycle round and the stationary
  /// population matches the round-synchronous mode.
  sparse::SparseEstimate measure_inflight(std::uint64_t pairs,
                                          std::uint64_t events_per_hop,
                                          math::Rng& rng);

  /// Same, drawing from the world's own measurement sub-stream.
  sparse::SparseEstimate measure_inflight(std::uint64_t pairs,
                                          std::uint64_t events_per_hop = 0);

  int round() const noexcept { return round_; }
  std::uint64_t population() const noexcept {
    return membership_.population();
  }
  std::uint64_t capacity() const noexcept { return membership_.capacity(); }
  /// Population over capacity (tracks availability a at stationarity).
  double alive_fraction() const noexcept;
  /// Cumulative membership turnover (diagnostics).
  std::uint64_t total_joins() const noexcept { return total_joins_; }
  std::uint64_t total_leaves() const noexcept { return total_leaves_; }

  /// Mean age (rounds since refresh) over present nodes' table entries --
  /// the q_eff derivation's uniform-age diagnostic.  O(1): the world keeps
  /// an exact running sum of the present rows' stamps.
  double mean_entry_age() const;

  /// The full-recount reference for mean_entry_age(): streams every
  /// present row's stamps.  It must be bit-identical to the running sum,
  /// which test_sparse_churn gates after every step.  Not used by the
  /// engines.
  double mean_entry_age_recount() const;

  /// Maintenance work done since construction (the build's own row
  /// installs are not counted).
  const MaintenanceCounters& maintenance() const noexcept {
    return maintenance_;
  }

  /// Bytes of the row state: per materialized row, the table links,
  /// cached ids and stamps, the due bound, the successor list with its
  /// stamp, and the slot holding the row; per roster slot, its row word.
  std::uint64_t row_bytes() const noexcept;

  /// Rows held by present nodes (always population()).
  std::uint64_t rows_in_use() const noexcept {
    return rows_materialized_ - free_rows_.size() - released_rows_.size();
  }
  /// Rows ever handed out: the high-water of rows held at once.  Freed
  /// rows are reused before a fresh one is taken, so in round-synchronous
  /// mode this is the largest population the world has had.
  std::uint64_t rows_materialized() const noexcept {
    return rows_materialized_;
  }

  const SparseMembership& membership() const noexcept { return membership_; }

  /// Digest of the per-slot forwarded-message counters over present slots
  /// (accumulated by every measured route; rng-free, so recording never
  /// perturbs the lifecycle/table/measure streams).
  sim::LoadSummary load_summary() const;

  /// Attaches observability sinks (obs/phase_timer.hpp): step() attributes
  /// its lifecycle sweep, joiner commit, and refresh/repair pass, and the
  /// measure paths their route sampling, to the profile/trace.  In-flight
  /// measurement fuses the lifecycle sweep INTO the routes, so
  /// measure_inflight attributes its whole body to the route phase.  Pure
  /// timing side-channels: null (the default) reads no clock, and
  /// attaching them never changes a counter.
  void set_observer(obs::PhaseProfile* profile, obs::Trace* trace) noexcept {
    profile_ = profile;
    trace_ = trace;
  }

  /// Attaches a route-forensics sink (obs/route_trace.hpp): sync-mode
  /// measure() re-routes the pairs the sink's stride selects against the
  /// frozen round snapshot, recording each hop's (slot, id, table rank,
  /// generation check).  The re-route touches no load counter and no rng,
  /// so estimates and goldens are unchanged.  `shard` labels the records.
  void set_route_trace(obs::RouteTraceSink* sink,
                       std::uint64_t shard) noexcept {
    trace_sink_ = sink;
    trace_shard_ = shard;
  }

 private:
  bool workload_enabled() const noexcept {
    return config_.replicas > 1 || config_.zipf_s > 0.0;
  }
  std::uint64_t object_count() const noexcept {
    return config_.objects != 0 ? config_.objects : membership_.capacity();
  }
  // Rows cache target ids in 32 bits whenever the key space fits.
  bool narrow_ids() const noexcept { return config_.bits <= 32; }
  // A present slot's pool row, and the offsets of its table row and
  // successor list.
  std::uint32_t row_of(NodeSlot slot) const noexcept {
    return static_cast<std::uint32_t>(row_of_[slot]);
  }
  std::uint64_t table_base(NodeSlot slot) const noexcept {
    return static_cast<std::uint64_t>(row_of(slot)) *
           static_cast<std::uint64_t>(row_width_);
  }
  std::uint64_t successor_base(NodeSlot slot) const noexcept {
    return static_cast<std::uint64_t>(row_of(slot)) *
           static_cast<std::uint64_t>(config_.successors);
  }
  // Hands `slot` a row: the most recently freed one, else a fresh one.
  void take_row(NodeSlot slot);
  // Takes the released rows' stamps out of the stamp sum in one prefetched
  // pass and puts the rows on the free list.  Runs before any row is taken.
  void release_rows();
  bool entry_valid(std::uint64_t link) const;
  std::uint64_t link_to(NodeSlot target) const;
  template <typename Id>
  ChurnKernelCtx<Id> kernel_ctx() const;
  // Route one chunk of draws_ (scalar reference path / 8-lane batched
  // path); both consume no rng and record identical per-pair outcomes.
  template <typename Id>
  void route_chunk_scalar(const ChurnKernelCtx<Id>& ctx, int attempts,
                          sparse::SparseEstimate& estimate);
  template <typename Id>
  void route_chunk_batched(const ChurnKernelCtx<Id>& ctx, int attempts,
                           sparse::SparseEstimate& estimate);
  // measure()'s body: draws the pairs a chunk at a time and routes each
  // chunk through the scalar or the batched path.
  template <typename Id>
  sparse::SparseEstimate measure_with(std::uint64_t pairs, math::Rng& rng,
                                      bool scalar);
  template <typename Id>
  sparse::SparseEstimate measure_inflight_with(std::uint64_t pairs,
                                               std::uint64_t events_per_hop,
                                               math::Rng& rng);
  // Table-cell writes.  put_cell is the one store of a cell's link word,
  // cached id and stamp; install_cell also adds the cell's stamp change to
  // the stamp sum; whole-row rebuilds put every cell and add the row's new
  // sum once.
  void put_cell(std::uint64_t offset, std::uint64_t link, std::uint64_t id,
                std::int32_t stamp);
  void install_cell(std::uint64_t offset, std::uint64_t link,
                    std::uint64_t id, std::int32_t stamp);
  // Streams one row's stamps (the build's seed, a released or rebuilt
  // row, and the recount oracle).
  std::int64_t row_stamp_sum(std::uint32_t row) const;
  // The geometry's pick for table cell `index` of `slot` against the
  // current membership (kNoSlot when nothing qualifies).
  NodeSlot choose_target(NodeSlot slot, int index);
  std::uint64_t cached_id(NodeSlot owner, NodeSlot target) const;
  void leave_slot(NodeSlot slot);
  void refresh_entry(NodeSlot slot, int index);
  void announce_join(NodeSlot slot);
  void rebuild_tables(NodeSlot slot);
  void rebuild_successors(NodeSlot slot, std::uint64_t from_position);
  // Successor-list maintenance, split into what the list calls for and
  // doing it: keep it, refresh it when due, repair it from its first
  // alive entry, or -- every entry dead -- rebuild the whole node.
  struct SuccessorPlan {
    enum Kind : std::uint8_t { kKeep, kRefresh, kRepair, kRebuildNode };
    Kind kind = kKeep;
    NodeSlot first_alive = kNoSlot;  // kRepair's seed entry
  };
  SuccessorPlan plan_successors(NodeSlot slot, std::uint32_t row) const;
  // Returns true when it rebuilt the whole node (table row included).
  bool apply_successors(NodeSlot slot, SuccessorPlan plan);
  bool maintain_successors(NodeSlot slot) {
    return apply_successors(slot, plan_successors(slot, row_of(slot)));
  }
  void maintain_entries(NodeSlot slot);
  void maintain_kademlia_buckets(NodeSlot slot);
  // Eager repair of one Chord / Symphony row (rho > 0): the row's due
  // cells and its observed-dead cells (not due, non-empty, failing the
  // validity probe), one bit per cell.  Maintenance of other rows never
  // writes this row, so masks taken before the round's pass equal the
  // ones its per-entry walk would see.
  struct RowMasks {
    std::uint64_t due = 0;
    std::uint64_t dead = 0;
  };
  RowMasks row_masks(std::uint32_t row) const;
  // Refreshes the due cells and draws a repair for each dead cell, in
  // ascending cell order.
  void repair_row(NodeSlot slot, RowMasks masks);
  // The rho channel's Bernoulli draw on an entry observed dead, counted.
  bool repair_draw();
  void rebuild_node(NodeSlot slot);
  void lifecycle_and_maintain_slot(NodeSlot slot);
  void integrate_joiners(bool commit_always);
  void advance_sweep(std::uint64_t& cursor, std::uint64_t slots);
  // Re-routes one selected pair against the frozen round snapshot and
  // pushes the hop record into trace_sink_ (sync mode only; rng-free, no
  // load accounting).
  template <typename Id>
  void trace_route(const ChurnKernelCtx<Id>& ctx, NodeSlot source,
                   NodeSlot target, std::uint64_t pair_index);

  // Row-major entries of one kind (table cells or successor-list
  // entries): per entry one link word, (generation << 32) | slot -- an
  // entry is valid only while its target slot keeps the generation it
  // was installed against (identities never return) -- and the target's
  // install-time identifier.  While an entry is valid that id cannot
  // have changed (ids change only on rejoin, which bumps the
  // generation), so the kernels compute progress / XOR distance from
  // this sequential row instead of chasing ids_[entry] pointers; invalid
  // entries yield garbage geometry but are rejected by the validity
  // probe exactly as before.  Empty cells (kNoSlot, generation 0) store
  // the row owner's own id: zero clockwise progress / XOR distance equal
  // to the owner's, inadmissible in both metrics, so they fall out
  // arithmetically.  The ids take 4 B when bits <= 32 (ids32) and 8 B
  // above (ids64); exactly one of the two is used.  An entry is thus 12 B,
  // or 16 B with a wide id.  Both vectors are reserved for a full roster
  // and only ever grow inside it, so data() never moves.
  struct EntryRows {
    std::vector<std::uint64_t> links;
    std::vector<std::uint32_t> ids32;
    std::vector<std::uint64_t> ids64;
    bool narrow = true;

    void reserve(std::uint64_t entries, bool narrow_ids);
    void resize(std::uint64_t entries);
    std::uint64_t id(std::uint64_t offset) const {
      return narrow ? ids32[offset] : ids64[offset];
    }
    void put(std::uint64_t offset, std::uint64_t link, std::uint64_t id) {
      links[offset] = link;
      if (narrow) {
        ids32[offset] = static_cast<std::uint32_t>(id);
      } else {
        ids64[offset] = id;
      }
    }
    std::uint64_t bytes() const noexcept {
      return links.size() * sizeof(std::uint64_t) +
             ids32.size() * sizeof(std::uint32_t) +
             ids64.size() * sizeof(std::uint64_t);
    }
  };

  const SparseChurnGeometry geometry_;
  const SparseChurnConfig config_;
  const ChurnParams params_;
  const double repair_probability_;
  const std::uint64_t max_hops_;
  const int row_width_;
  const SessionProcess session_;
  math::Rng lifecycle_rng_;
  math::Rng table_rng_;
  math::Rng measure_rng_;
  math::Rng id_rng_;
  int round_ = 0;
  SparseMembership membership_;
  std::uint64_t total_joins_ = 0;
  std::uint64_t total_leaves_ = 0;
  // Round each slot's current occupant joined; with heavy-tailed sessions
  // the departure hazard depends on this age (negative stamps encode the
  // stationary ages the world is initialized with).
  std::vector<std::int64_t> joined_at_;
  // The row pool.  Only present nodes hold rows: row_of_ maps each slot
  // to its row, and an absent slot maps to kNoRow (all ones), so a stray
  // read of a departed node's row faults instead of landing in another
  // node's row.  Each slot's word is (generation << 32) | row, the
  // occupancy generation beside the row like the link words' generation
  // beside the slot, so one load both validates an entry and finds its
  // target's row.  A leaver's row goes on released_rows_ until its stamps
  // leave the stamp sum, then on the LIFO free list; a joiner takes the
  // most recently freed row, or the next never-used one.  Rows in use
  // thus stay below the population high-water, and the pages of rows no
  // node has held are never touched.
  std::vector<std::uint64_t> row_of_;
  // The slot holding each row (kNoSlot while the row is free).
  std::vector<NodeSlot> holder_;
  std::vector<std::uint32_t> free_rows_;
  std::vector<std::uint32_t> released_rows_;
  std::uint64_t rows_materialized_ = 0;
  // Row-major [row][index] table entries (links + cached ids) and the
  // round each entry was refreshed.  The stamps live apart because only
  // maintenance reads them.  At bits <= 32 a cell costs 16 B (8 link +
  // 4 id + 4 stamp), 20 B above; a Chord world of 2^16 present nodes at
  // bits = 32 (32 fingers per row) holds 32 MiB of table cells, whatever
  // its roster size.
  EntryRows table_;
  std::vector<std::int32_t> refreshed_at_;
  // Exact stamp sum over present nodes' rows: install_cell adds a present
  // row's stamp changes, a joiner's rebuild adds its whole row at the join
  // round, and release_rows streams the leavers' rows out.
  // mean_entry_age() reads it in O(1).
  std::int64_t entry_stamp_sum_ = 0;
  // Earliest round at which a row can hold a due entry (min refreshed_at
  // over the row + R, maintained conservatively: stamps only increase
  // between scans, and a reused row's stale bound is never later than its
  // new holder's).  Lets rho = 0 maintenance skip whole rows without
  // touching them -- a skipped row consumes no rng, exactly like a
  // scanned row with nothing due.
  std::vector<std::int32_t> table_due_round_;
  // Row-major [row][0..s) successor lists (links + cached ids, same
  // discipline as table_) + per-row refresh stamps.
  EntryRows successors_;
  std::vector<std::int32_t> successors_refreshed_at_;
  MaintenanceCounters maintenance_;
  // Scratch for sync rho > 0 maintenance: each present node's plan, taken
  // in one row-order pass before nodes are visited in slot order.
  struct SlotPlan {
    RowMasks masks;
    SuccessorPlan successors;
  };
  std::vector<SlotPlan> plans_;
  // Scratch for step() (avoids per-round allocation).
  std::vector<NodeSlot> joiners_;
  // Sync-mode measurement scratch, reused across rounds: the up-front
  // per-pair draws, the per-GET availability flags, and the batch
  // driver's failed-attempt worklist.
  struct GetDraw {
    NodeSlot source = kNoSlot;
    NodeSlot target = kNoSlot;      // attempt-0 holder (the primary)
    std::uint64_t position = 0;     // ring position of the primary
  };
  std::vector<GetDraw> draws_;
  std::vector<std::uint8_t> get_available_;
  std::vector<std::pair<std::uint32_t, int>> retry_;  // (pair, attempt)
  // Messages forwarded per slot across all measured routes (plain u64: the
  // world is single-threaded; see sim/load_stats.hpp for the shapes).
  std::vector<std::uint64_t> load_;
  // Workload measurement state (engaged by replicas > 1 or zipf_s > 0):
  // object popularity and the fixed object->key hash.  The key map is
  // independent of the world's rng lineage, so object placement is a
  // property of the key space alone.
  std::optional<math::ZipfSampler> zipf_;
  math::CounterRng object_keys_;
  // Observability sinks (all optional, all timing/forensics side-channels
  // that never feed back into the trajectory).
  obs::PhaseProfile* profile_ = nullptr;
  obs::Trace* trace_ = nullptr;
  obs::RouteTraceSink* trace_sink_ = nullptr;
  std::uint64_t trace_shard_ = 0;
};

/// Result of a sharded sparse churn trajectory; the sparse counterpart of
/// churn::TrajectoryResult, with SparseEstimate as the merged currency.
struct SparseChurnResult {
  std::uint64_t shards = 0;
  /// Round r's estimate pooled across shards (merged in shard order).
  std::vector<sparse::SparseEstimate> per_round;
  /// All measured rounds pooled in round order.
  sparse::SparseEstimate overall;
  /// Population averaged over (shard, measured round) snapshots.
  double mean_population = 0.0;
  /// Population / capacity, same averaging (tracks a at stationarity).
  double mean_alive_fraction = 0.0;
  /// Mean table-entry age of present nodes, same averaging.
  double mean_entry_age = 0.0;
  /// Maintenance work of all shard worlds (warm-up and measured rounds),
  /// merged in shard order.
  MaintenanceCounters maintenance;
  /// Row bytes of the largest shard world at the end of its trajectory
  /// (a world holds rows only for the nodes it has had present at once).
  std::uint64_t row_bytes = 0;
  /// Per-node load digest of the measured routes: hottest slot across all
  /// shard worlds, and p99 / coefficient-of-variation averaged over shards
  /// in shard order (each shard world is an independent trajectory).
  std::uint64_t load_max = 0;
  double load_p99 = 0.0;
  double load_cv = 0.0;
  /// Sampled hop-by-hop route traces (TrajectoryOptions::trace_routes),
  /// collected per shard and concatenated in shard order -- deterministic
  /// at any thread count.  Empty when tracing is off.
  std::vector<obs::RouteTrace> traces;
};

/// Runs the sharded sparse churn trajectory; reuses TrajectoryOptions
/// (warmup/measured rounds, pairs per round, shards, threads, max hops,
/// rho).  `rng` is only fork()ed.  Bit-identical at any thread count.
SparseChurnResult run_sparse_churn_trajectory(SparseChurnGeometry geometry,
                                              const SparseChurnConfig& config,
                                              const ChurnParams& params,
                                              const TrajectoryOptions& options,
                                              const math::Rng& rng);

/// One evaluated grid point of a sparse churn sweep.
struct SparseChurnSweepPoint {
  int bits = 0;
  std::uint64_t population = 0;  ///< target stationary population N0
  std::uint64_t capacity = 0;    ///< derived roster size
  ChurnParams params;
  double repair_probability = 0.0;
  int successors = 0;
  double q_eff = 0.0;  ///< the PR 2 static-model bridge value for `params`
  SparseChurnResult result;
};

/// A (N0, d, churn, rho, s) grid.  Points are the cartesian product in that
/// nesting order (bits outermost, successors innermost); point i uses
/// Rng(seed).fork(i), so each point is reproducible independent of the grid
/// shape.  Capacity is derived per point as capacity_for_population.
struct SparseChurnSweepSpec {
  SparseChurnGeometry geometry = SparseChurnGeometry::kChord;
  std::vector<int> bits = {32};
  std::vector<std::uint64_t> populations = {std::uint64_t{1} << 14};
  std::vector<ChurnParams> churn = {ChurnParams{}};
  std::vector<double> repair = {0.0};
  std::vector<int> successors = {4};
  int shortcuts = 6;
  /// Kademlia bucket width and session model, applied to every point.
  int bucket_k = 1;
  SessionModel session{};
  /// Replication factor, object-popularity skew, and object count,
  /// applied to every point (SparseChurnConfig semantics).
  int replicas = 1;
  double zipf_s = 0.0;
  std::uint64_t objects = 0;
  TrajectoryOptions options{};
  std::uint64_t seed = 1;
};

std::vector<SparseChurnSweepPoint> run_sparse_churn_sweep(
    const SparseChurnSweepSpec& spec);

}  // namespace dht::churn
