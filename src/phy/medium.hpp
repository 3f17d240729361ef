// Radio medium: the broadcast physical layer whose openness the paper
// contrasts with "the physical security of the network jacks" (§3.1).
// Every radio within range on the same channel hears every frame — the
// MAC layer above decides what to keep, which is exactly why monitor-mode
// sniffing and rogue APs work.
//
// Propagation: log-distance path loss; a frame is delivered to a radio if
// its RSSI clears the radio's sensitivity, it survives a margin-dependent
// error probability, and it did not overlap another audible transmission
// on the same channel (collision, no capture effect).
//
// Two delivery geometries share this interface:
//   - flat (default): every radio on the channel is a delivery candidate,
//     and any world change bumps one global epoch. Right for office-sized
//     worlds where everyone hears everyone.
//   - spatial grid (MediumConfig::spatial_grid): radios are bucketed into
//     square cells whose side is the maximum audible range, and each cell
//     into per-channel lanes, so a sender's delivery plan only walks its
//     own channel's lanes in the 3x3 cell neighborhood, and a position or
//     channel change invalidates only the same-channel senders whose
//     neighborhoods contain the affected lane. Carrier sense and
//     collisions localize the same way. Right for metro-scale worlds
//     (hundreds of APs, 10k+ roaming STAs).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/pcap.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/flat_map.hpp"

namespace rogue::phy {

/// 802.11b channel number (1..14).
using Channel = std::uint8_t;

struct Position {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double distance(const Position& a, const Position& b);

/// Reception metadata handed to the MAC with each frame.
struct RxInfo {
  sim::Time time = 0;
  double rssi_dbm = 0.0;
  Channel channel = 1;
};

struct MediumConfig {
  double path_loss_exponent = 3.0;   ///< indoor office
  double ref_loss_dbm = 40.0;        ///< loss at 1 m
  double bitrate_bps = 11e6;         ///< 802.11b
  sim::Time preamble_us = 192;       ///< long preamble + PLCP header
  /// Extra random loss applied even at high margin (interference floor).
  double base_loss_prob = 0.0;
  /// Margin (dB) at which frame success reaches ~63%; success prob is
  /// 1 - exp(-margin/margin_scale) scaled into [0, 1-base_loss].
  double margin_scale_db = 3.0;
  /// Per-reception fading: RSSI jitters uniformly in +/- this many dB.
  /// Gives scan results realistic sample noise (affects AP selection).
  double rssi_noise_db = 2.0;
  /// Carrier-sense blind window: a transmission started within the last
  /// `sense_latency_us` is invisible to CSMA (propagation + slot time),
  /// which is how genuinely simultaneous transmissions still collide.
  sim::Time sense_latency_us = 15;
  /// Max random backoff added when deferring to a busy channel.
  sim::Time max_backoff_us = 300;

  // ---- Spatial grid (metro scale) ----------------------------------------
  /// Bucket radios into square cells of the maximum audible range and
  /// deliver from the 3x3 cell neighborhood instead of the whole channel.
  /// Off by default: flat worlds keep their exact delivery and RNG-draw
  /// behavior (including golden report digests).
  bool spatial_grid = false;
  /// Explicit cell side in metres; 0 derives it from the power ceiling /
  /// sensitivity floor below. The effective side is never below the
  /// derived audible range — an undersized cell would silence receivers a
  /// flat medium could reach.
  double grid_cell_m = 0.0;
  /// Loudest transmitter / most sensitive receiver the grid is sized for
  /// (defaults match Radio's defaults). Attaching or re-tuning a radio
  /// beyond these bounds widens them and triggers a (rare) full regrid,
  /// so the 3x3 neighborhood always covers the true audible range.
  double grid_tx_power_ceiling_dbm = 15.0;
  double grid_sensitivity_floor_dbm = -85.0;
  /// Pairwise-RSSI memoisation (Radio::pair_cache_). Worth it for mostly
  /// static worlds; metro-scale roaming turns it off because every
  /// mobility tick stales the entries while tens of thousands of
  /// per-sender slices cost real memory.
  bool pair_rssi_cache = true;
};

class Medium;

/// A radio attached to the medium. MAC layers (dot11::AccessPoint /
/// dot11::Station / attack::Sniffer) own one or more of these.
class Radio {
 public:
  using RxHandler = std::function<void(util::ByteView frame, const RxInfo& info)>;

  Radio(Medium& medium, std::string name);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Channel channel() const { return channel_; }
  void set_channel(Channel ch);
  [[nodiscard]] const Position& position() const { return position_; }
  void set_position(Position p);
  [[nodiscard]] double tx_power_dbm() const { return tx_power_dbm_; }
  void set_tx_power_dbm(double p);
  [[nodiscard]] double sensitivity_dbm() const { return sensitivity_dbm_; }
  void set_sensitivity_dbm(double s);

  void set_receive_handler(RxHandler handler) { handler_ = std::move(handler); }

  /// Queue a frame for transmission on the current channel. The radio
  /// serializes its own transmissions and defers (CSMA) while the channel
  /// is sensed busy; delivery lands at tx start + airtime.
  void transmit(util::Bytes frame);

  /// Pooled buffer for building the next transmit() frame: recycled from
  /// the simulator's BufferPool, returned to it after delivery.
  [[nodiscard]] util::Bytes acquire_buffer(std::size_t reserve_hint = 0);

  /// Release the per-sender fan-out state (delivery plan + pair-RSSI
  /// slice) back to the allocator. Purely a memory knob for worlds with
  /// many rarely-transmitting radios (a metro STA sends a handful of
  /// join frames, then holds a neighborhood-sized plan forever); the
  /// state rebuilds transparently on the next transmission.
  void trim_tx_state();

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t frames_deferred() const { return deferred_; }
  [[nodiscard]] std::size_t tx_queue_depth() const { return queue_.size(); }

  /// This radio's tracer track (interned from its name at attach). MAC
  /// layers reuse it so phy and dot11 records share one track per radio.
  [[nodiscard]] obs::TraceActorId trace_actor() const { return trace_actor_; }

 private:
  friend class Medium;

  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  /// Pairwise RSSI (before per-reception noise) memoised between geometry
  /// changes; entries are revalidated against both radios' geom_epoch_.
  struct RssiCacheEntry {
    std::uint32_t tx_epoch = 0;
    std::uint32_t rx_epoch = 0;
    double rssi_dbm = 0.0;
  };

  /// One receiver's row in this radio's cached delivery plan: the pairwise
  /// RSSI (pre-noise) and the receiver's sensitivity, flattened so the
  /// fan-out loop streams a contiguous array instead of probing a hash map
  /// per (sender, receiver) pair.
  struct PlanEntry {
    Radio* rx;
    double rssi_dbm;
    double sens_dbm;
  };

  /// Per-sender fan-out table for one channel. Flat mode validates it
  /// against the medium's world epoch (any attach/detach/channel/
  /// geometry/sensitivity change invalidates every plan at once). Grid
  /// mode validates it against the sender's cell plus the summed epochs
  /// of the plan channel's lanes in the 3x3 neighborhood (lane epochs only
  /// move forward, so an unchanged sum over a fixed neighborhood means an
  /// unchanged same-channel world within audible range). `geom_tick` and
  /// `cache_gen` only decide which rows the next rebuild may reuse: every
  /// row's RSSI is exact as of `geom_tick`.
  struct DeliveryPlan {
    std::uint64_t epoch = 0;  ///< world epoch (flat) / grid epoch (grid); 0 = never built
    Channel channel = 0;
    std::uint32_t cell = kNoCell;    ///< sender's cell index at build (grid)
    std::uint64_t neigh_epochs = 0;  ///< 3x3 lane-epoch sum at build (grid)
    std::uint64_t geom_tick = 0;     ///< Medium::geom_clock_ at build
    std::uint64_t cache_gen = 0;     ///< Medium::cache_generation_ at build
    std::vector<PlanEntry> entries;
  };

  void attempt_transmit();

  Medium& medium_;
  std::string name_;
  Channel channel_ = 1;
  Position position_{};
  double tx_power_dbm_ = 15.0;
  double sensitivity_dbm_ = -85.0;
  std::uint64_t attach_seq_ = 0;   ///< attach order; keys the medium's caches
  obs::TraceActorId trace_actor_;  ///< tracer track for this radio's records
  std::uint32_t geom_epoch_ = 0;   ///< bumped on position/tx-power changes
  /// Medium::geom_clock_ at this radio's last position/tx-power change: a
  /// plan built at a later tick holds this radio's current geometry. (Pair
  /// cache entries keep the per-radio 32-bit geom_epoch_ instead, so they
  /// stay 16 bytes.)
  std::uint64_t geom_tick_ = 0;
  std::uint32_t cell_ = kNoCell;   ///< grid cell index (grid mode only)
  std::size_t radios_index_ = 0;   ///< slot in Medium::radios_ (O(1) detach)
  /// Mutable: rebuilt lazily inside deliver_impl(), which sees the sender
  /// through a const pointer recorded at transmit time.
  mutable DeliveryPlan plan_;
  /// This radio's slice of the pairwise RSSI cache, keyed by the receiver's
  /// attach_seq_. Keeping the slice with the sender makes a plan rebuild an
  /// L2-sized walk instead of 2N probes into one world-sized table, and
  /// lets detach invalidate every slice in O(1) via cache_generation_.
  mutable util::FlatU64Map<RssiCacheEntry> pair_cache_;
  mutable std::uint64_t cache_gen_seen_ = 0;  ///< Medium::cache_generation_ sync
  RxHandler handler_;
  std::vector<util::Bytes> queue_;
  /// Causal context captured when each queued frame was handed to the
  /// radio — CSMA deferral must not sever the chain a response rides.
  std::vector<std::uint64_t> queue_chain_;
  sim::TimerHandle attempt_timer_;
  bool attempt_pending_ = false;
  bool contended_ = false;
  sim::Time own_busy_until_ = 0;
  unsigned backoff_attempts_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t deferred_ = 0;
};

class Medium {
 public:
  Medium(sim::Simulator& simulator, MediumConfig config = {});
  ~Medium();

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const MediumConfig& config() const { return config_; }

  /// Airtime for a frame of `bytes` octets at the configured bitrate.
  [[nodiscard]] sim::Time airtime(std::size_t bytes) const;
  /// RSSI (dBm) at distance d metres for the given tx power.
  [[nodiscard]] double rssi_at(double tx_power_dbm, double dist_m) const;
  /// Distance at which a transmitter at `tx_power_dbm` can still reach a
  /// receiver at `sensitivity_dbm` after the most favourable +rssi_noise_db
  /// fade — the radius the grid's cell side must cover.
  [[nodiscard]] double audible_range(double tx_power_dbm,
                                     double sensitivity_dbm) const;
  /// Latest end time of transmissions on `channel` that a carrier-sensing
  /// radio can currently see (ignores those inside the blind window).
  /// World-wide view; grid-mode senders use the localized overload below.
  [[nodiscard]] sim::Time channel_busy_until(Channel channel) const;

  [[nodiscard]] std::uint64_t frames_transmitted() const { return tx_count_; }
  [[nodiscard]] std::uint64_t collisions() const { return collision_count_; }
  /// Number of per-sender delivery-plan rebuilds (each rebuild re-derives
  /// one sender's flattened fan-out table after a world change). A static
  /// world settles at one rebuild per active sender.
  [[nodiscard]] std::uint64_t plan_rebuilds() const { return plan_rebuild_count_; }
  /// Monotonic world epoch: bumped by any attach/detach/channel change (and
  /// in flat mode by geometry/sensitivity changes too — grid mode keeps
  /// those cell-local, which is the whole point). Flat delivery plans are
  /// validated against it.
  [[nodiscard]] std::uint64_t world_epoch() const { return world_epoch_; }

  // ---- Spatial-grid introspection (tests, benchmarks) ---------------------
  [[nodiscard]] bool grid_enabled() const { return config_.spatial_grid; }
  /// Effective cell side (0 when the grid is off). May grow over the run
  /// if a radio exceeds the configured power ceiling / sensitivity floor.
  [[nodiscard]] double grid_cell_size_m() const { return cell_size_m_; }
  /// Cells that have ever held a radio (never shrinks during a run).
  [[nodiscard]] std::size_t grid_cell_count() const { return cells_.size(); }
  /// Bumped on every regrid (bounds widening); plans from before a regrid
  /// are all stale.
  [[nodiscard]] std::uint64_t grid_generation() const { return grid_epoch_; }
  /// Cell coordinates a radio at `p` belongs to.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> grid_coords(
      const Position& p) const;
  /// Members of one cell on every channel, in attach_seq_ order (empty if
  /// the cell does not exist). For property tests against brute-force
  /// recomputation.
  [[nodiscard]] std::vector<const Radio*> grid_cell_members(
      std::int32_t cx, std::int32_t cy) const;
  /// Members of one cell's lane for `channel`, in lane (attach_seq_) order.
  [[nodiscard]] std::vector<const Radio*> grid_lane_members(
      std::int32_t cx, std::int32_t cy, Channel channel) const;

  /// Chaos knob: extra loss probability layered on top of the configured
  /// base_loss_prob while a degradation window is open (fault injection,
  /// scripted burst loss). 0 restores the configured floor.
  void set_loss_override(double extra_loss_prob);
  [[nodiscard]] double loss_override() const { return extra_loss_; }

  // Transport-chaos knobs (fault injection). All default to 0 = off; while
  // off the delivery path makes no extra RNG draws, so enabling them in
  // one variant cannot perturb another variant's draw sequence.
  /// Probability that a delivered frame is held back long enough to arrive
  /// after frames transmitted later (per receiver).
  void set_reorder(double probability);
  [[nodiscard]] double reorder() const { return reorder_prob_; }
  /// Probability that a delivered frame arrives twice (per receiver).
  void set_duplicate(double probability);
  [[nodiscard]] double duplicate() const { return duplicate_prob_; }
  /// Max uniform extra delivery latency, in milliseconds (per receiver).
  void set_jitter_ms(double max_ms);
  [[nodiscard]] double jitter_ms() const {
    return static_cast<double>(jitter_max_us_) / 1000.0;
  }

  /// Append every frame put on the air to `writer` (verbatim bytes +
  /// simulated timestamp) for pcap export; nullptr detaches the tap.
  void set_pcap(obs::PcapWriter* writer) { pcap_ = writer; }

 private:
  friend class Radio;

  struct ActiveTx {
    std::uint64_t id;
    Channel channel;
    sim::Time start_time;
    sim::Time end_time;
    const Radio* sender;
    bool corrupted;
    std::int32_t cx;  ///< sender cell coords at tx start (grid mode)
    std::int32_t cy;
    /// Causal chain id the frame carries through delivery. Rides here, not
    /// in the delivery event's capture — the EventFn capture is exactly
    /// sized to its inline storage and must not grow.
    std::uint64_t trace_id;
  };

  /// The radios of one grid cell tuned to one channel, sorted by
  /// attach_seq_ so neighborhood gathers preserve the flat path's RNG draw
  /// order. Lanes are created on first occupancy and kept for the life of
  /// the run (their epoch must stay monotone).
  struct Lane {
    Channel channel = 0;
    std::uint64_t epoch = 1;  ///< bumped on membership/geometry change
    std::vector<Radio*> members;
  };

  /// One grid cell: the radios currently inside one cell-sized square,
  /// split into per-channel lanes. Sparse — a cell holds a lane only for
  /// channels it has held a radio on (a handful, so lookup is a scan).
  /// Cells are created on first occupancy and kept for the life of the run.
  struct Cell {
    std::int32_t cx = 0;
    std::int32_t cy = 0;
    std::vector<Lane> lanes;
  };

  /// Flat-mode per-channel index. Sized by occupancy — worlds touch a
  /// handful of channels, so a fixed 256-entry array was dead weight per
  /// sweep replica. Lists are sorted by attach_seq_ (RNG draw order).
  struct ChannelList {
    Channel channel = 0;
    std::vector<Radio*> radios;
  };

  void attach(Radio* radio);
  void detach(Radio* radio);
  /// set_channel() hook, called with the radio already on its new channel.
  void move_channel(Radio* radio, Channel from);
  /// Insert into a list kept sorted by attach_seq_ (RNG draw order).
  static void insert_by_attach_seq(std::vector<Radio*>& list, Radio* radio);
  void transmit(Radio& sender, util::Bytes frame);
  void deliver(std::uint64_t tx_id, const Radio* sender, const util::Bytes& frame);
  void deliver_impl(std::uint64_t tx_id, const Radio* sender,
                    const util::Bytes& frame);
  [[nodiscard]] double pair_rssi(const Radio& tx, const Radio& rx);
  /// Hand a chaos-delayed (or duplicated) frame copy to `rx` at the
  /// scheduled time, re-validating attachment/channel/handler — and, in
  /// grid mode, that the receiver is still within audible range of the
  /// cell the frame left from (`from_cx`/`from_cy`).
  void deliver_late(Radio* rx, Channel channel, double rssi, sim::Time at,
                    const util::Bytes& frame, std::int32_t from_cx,
                    std::int32_t from_cy, std::uint64_t trace_id);
  /// Flat mode: invalidate every sender's cached delivery plan (O(1):
  /// plans revalidate lazily against the bumped epoch on their next use).
  void invalidate_plans() { ++world_epoch_; }
  /// The sender's flattened fan-out table for `channel`, rebuilt if stale.
  [[nodiscard]] const Radio::DeliveryPlan& delivery_plan(const Radio& sender,
                                                         Channel channel);
  /// Cursor over the old rows a rebuild may reuse, in attach_seq_ order.
  struct Reuse {
    const Radio::PlanEntry* next;
    const Radio::PlanEntry* end;
    std::uint64_t tick;  ///< the old plan's geom_tick
  };
  /// Rebuild prologue: stash the rows a rebuild may reuse (none unless the
  /// sender has not moved and no radio has detached since the last build),
  /// then restamp the plan and clear its rows for the gather.
  [[nodiscard]] Reuse begin_rebuild(const Radio& sender, Radio::DeliveryPlan& plan,
                                    Channel channel);
  /// Append the row for `rx`; rows must arrive in attach_seq_ order. Its
  /// pre-noise RSSI is the stashed row's when the receiver has not moved
  /// either, else pair_rssi().
  void add_row(const Radio& sender, Radio::DeliveryPlan& plan, Reuse& reuse,
               Radio* rx);
  /// CSMA view for one listening radio: in grid mode only transmissions
  /// from the listener's 3x3 neighborhood are sensed.
  [[nodiscard]] sim::Time channel_busy_for(const Radio& listener) const;
  /// Publish the plain member tallies below into the stats registry;
  /// runs from the registry's on_snapshot() hook.
  void flush_stats();

  // ---- Flat-mode channel index --------------------------------------------
  [[nodiscard]] std::vector<Radio*>& channel_list(Channel ch);
  [[nodiscard]] const std::vector<Radio*>* find_channel_list(Channel ch) const;

  // ---- Grid internals -----------------------------------------------------
  [[nodiscard]] static std::uint64_t cell_key(std::int32_t cx, std::int32_t cy);
  /// Cell index for (cx, cy), creating the cell on first use.
  [[nodiscard]] std::uint32_t cell_at(std::int32_t cx, std::int32_t cy);
  /// Index of an existing cell, or Radio::kNoCell.
  [[nodiscard]] std::uint32_t find_cell(std::int32_t cx, std::int32_t cy) const;
  /// The cell's lane for `channel`, or nullptr if it never held one.
  [[nodiscard]] static const Lane* find_lane(const Cell& cell, Channel channel);
  /// The cell's lane for `channel`, created on first use.
  [[nodiscard]] static Lane& lane_at(Cell& cell, Channel channel);
  /// The lane `radio` currently sits in.
  [[nodiscard]] Lane& lane_of(const Radio& radio);
  /// The existing `channel` lanes of one 3x3 neighborhood.
  struct NeighborLanes {
    std::array<const Lane*, 9> lanes{};
    std::size_t count = 0;
  };
  /// Collect the `channel` lanes of the 3x3 neighborhood around (cx, cy)
  /// into `out` and return the sum of their epochs. Missing cells and
  /// lanes contribute 0; a lane springing into existence bumps the sum
  /// because insertion bumps its epoch past the initial value.
  std::uint64_t neighborhood_lanes(std::int32_t cx, std::int32_t cy,
                                   Channel channel, NeighborLanes& out) const;
  /// Insert `radio` into its channel's lane of the cell for its current
  /// position (sorted by attach_seq_) and bump that lane's epoch.
  void grid_insert(Radio* radio);
  /// Remove `radio` from its lane and bump that lane's epoch.
  void grid_remove(Radio* radio);
  /// set_position() hook: same cell -> bump its lane's epoch (geometry
  /// changed); cell crossing -> move membership and bump both lanes.
  void radio_moved(Radio& radio);
  /// set_tx_power/set_sensitivity hook: widen grid bounds if needed, bump
  /// the radio's lane.
  void radio_retuned(Radio& radio);
  /// Widen the power ceiling / sensitivity floor to cover `radio`; regrids
  /// (rare, O(N)) when the audible range outgrows the current cell side.
  void ensure_grid_bounds(const Radio& radio);
  /// Rebuild every cell at `new_cell_m`; all outstanding plans go stale
  /// via grid_epoch_.
  void regrid(double new_cell_m);
  /// Chebyshev distance in cells between two cell coordinates.
  [[nodiscard]] static std::int32_t cell_chebyshev(std::int32_t ax, std::int32_t ay,
                                                   std::int32_t bx, std::int32_t by);

  sim::Simulator& sim_;
  MediumConfig config_;
  /// Every attached radio, unordered (detach swap-removes via
  /// Radio::radios_index_). Delivery order never reads this — flat mode
  /// orders by the per-channel lists, grid mode by per-cell membership.
  std::vector<Radio*> radios_;
  /// attach_seq_ -> radio, nulled on detach (FlatU64Map has no erase).
  /// Lets chaos-delayed deliveries revalidate a receiver without an O(N)
  /// scan and without dereferencing a possibly-destroyed pointer.
  util::FlatU64Map<Radio*> by_seq_;
  std::vector<ChannelList> channels_;
  std::vector<ActiveTx> active_;
  /// Rows of the plan being rebuilt, kept for RSSI reuse (begin_rebuild()).
  /// One buffer per medium: its capacity tracks the largest plan only once.
  std::vector<Radio::PlanEntry> stash_;

  // Spatial grid state (grid mode only; empty containers otherwise).
  std::vector<Cell> cells_;
  util::FlatU64Map<std::uint32_t> cell_index_;  ///< cell_key -> index + 1
  double cell_size_m_ = 0.0;
  double grid_power_ceiling_ = 0.0;
  double grid_sens_floor_ = 0.0;
  std::uint64_t grid_epoch_ = 1;

  double extra_loss_ = 0.0;
  double reorder_prob_ = 0.0;
  double duplicate_prob_ = 0.0;
  sim::Time jitter_max_us_ = 0;
  std::uint64_t next_attach_seq_ = 1;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t world_epoch_ = 1;  ///< starts above 0 so fresh plans are stale
  std::uint64_t plan_rebuild_count_ = 0;
  /// Bumped on detach: every radio's pair_cache_ slice is lazily dropped on
  /// its next probe (same observable miss pattern as clearing one global
  /// pair cache eagerly, without the world-sized sweep per detach).
  std::uint64_t cache_generation_ = 1;
  /// Ticks once per position/tx-power change anywhere (Radio::geom_tick_).
  std::uint64_t geom_clock_ = 0;
  obs::PcapWriter* pcap_ = nullptr;

  // Hot-path tallies stay plain members (an increment is one add, no
  // registry indirection); flush_stats() publishes them at snapshot time.
  std::uint64_t tx_count_ = 0;
  std::uint64_t collision_count_ = 0;
  std::uint64_t rssi_lookup_count_ = 0;  ///< non-sender receiver visits
  std::uint64_t drop_margin_count_ = 0;
  std::uint64_t drop_loss_count_ = 0;
  std::uint64_t rssi_miss_count_ = 0;
  std::uint64_t no_handler_count_ = 0;
  std::uint64_t deferral_count_ = 0;
  std::uint64_t chaos_delayed_count_ = 0;    ///< reorder/jitter-held frames
  std::uint64_t chaos_duplicated_count_ = 0; ///< extra copies delivered

  // Interned stats handles (see Simulator::stats()), written by
  // flush_stats(); the histogram alone is observed per transmit.
  obs::CounterId stat_tx_;
  obs::CounterId stat_collisions_;
  obs::CounterId stat_delivered_;
  obs::CounterId stat_drop_margin_;
  obs::CounterId stat_drop_loss_;
  obs::CounterId stat_rssi_hits_;
  obs::CounterId stat_rssi_misses_;
  obs::CounterId stat_deferrals_;
  // Interned lazily (first nonzero at snapshot) so legacy snapshots keep
  // their exact metric set.
  obs::CounterId stat_chaos_delayed_;
  obs::CounterId stat_chaos_duplicated_;
  bool chaos_stats_interned_ = false;
  obs::HistogramId stat_frame_bytes_;
  obs::Profiler::ScopeId deliver_scope_;
  obs::Profiler::ScopeId plan_scope_;
  // Tracer record names (interned at construction; recording is gated on
  // the tracer's enabled flag, one branch per site when off).
  obs::TraceNameId trace_tx_;
  obs::TraceNameId trace_rx_;
  obs::TraceNameId trace_rx_late_;
  obs::TraceNameId trace_drop_margin_;
  obs::TraceNameId trace_drop_loss_;
  obs::TraceNameId trace_drop_corrupt_;
  std::uint64_t flush_token_ = 0;
};

// Geometry/sensitivity setters route through the medium so the right
// invalidation fires (global world epoch in flat mode, cell-local epochs
// in grid mode); their bodies live after Medium's definition.
inline void Radio::set_position(Position p) {
  position_ = p;
  ++geom_epoch_;
  geom_tick_ = ++medium_.geom_clock_;
  if (medium_.grid_enabled()) {
    medium_.radio_moved(*this);
  } else {
    medium_.invalidate_plans();
  }
}

inline void Radio::set_tx_power_dbm(double p) {
  tx_power_dbm_ = p;
  ++geom_epoch_;
  geom_tick_ = ++medium_.geom_clock_;
  if (medium_.grid_enabled()) {
    medium_.radio_retuned(*this);
  } else {
    medium_.invalidate_plans();
  }
}

inline void Radio::set_sensitivity_dbm(double s) {
  sensitivity_dbm_ = s;
  if (medium_.grid_enabled()) {
    medium_.radio_retuned(*this);
  } else {
    medium_.invalidate_plans();
  }
}

}  // namespace rogue::phy
