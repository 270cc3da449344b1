// The discrete-event scheduler at the heart of the simulator.
//
// Components schedule callbacks at absolute or relative simulated times; the
// scheduler executes them in (time, insertion-order) order, which makes runs
// bit-for-bit reproducible. Handles returned by schedule_*() can cancel a
// pending event (used by TCP retransmission timers).
//
// The hot path is allocation-free: callbacks live in an EventPool slab (see
// event_pool.hpp) and ready-queue entries are small trivially-copyable
// records keyed on (time, sequence). Two interchangeable queue backends
// exist behind one firing path (see SchedulerBackend in event_queue.hpp):
//
//   * kHeap — one 4-ary implicit heap over everything pending. O(log n) per
//     operation; the reference backend.
//   * kWheel — a hierarchical timing wheel (timing_wheel.hpp) holds the
//     future; events beyond its multi-day span overflow into a far heap. As
//     the clock advances, the earliest wheel bucket (~67 µs wide) drains
//     into a small sorted "due" heap that the firing path pops from.
//     Scheduling into the wheel is O(1), and the due heap re-sorting a
//     bucket's handful of entries restores the exact global (time, seq)
//     order — both backends fire every workload in bitwise-identical order.
//
// Internally the heap backend is the degenerate wheel configuration: its due
// window extends to infinity, so every event lands directly in the due heap
// and the wheel/overflow structures stay empty. One firing path, no
// per-event backend branches.
//
// Cancellation marks the pool slot and queues reap dead entries lazily —
// plus eagerly, in one sweep, whenever cancelled entries come to dominate
// the queue — so TCP timer churn cannot grow the queue without bound.
//
// Wire lanes carry the one kind of event that dominates packet simulations:
// a packet propagating along a link. A link's delay is constant, so its wire
// is a FIFO; instead of one callback event per packet, each link owns a lane
// (add_lane) whose items are plain nodes from one shared slab pool, and only
// the lane's head sits in the ready queue. Every item still reserves its own
// sequence number when it is pushed, and a head is armed at its reserved
// (time, seq), so the global fire order is exactly the order the items
// would have fired in as individual events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "sim/event_class.hpp"
#include "sim/event_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace rbs::check {
class AuditReport;
}

namespace rbs::telemetry {
class EngineProfiler;
}

namespace rbs::sim {

/// Resolves SchedulerBackend::kAuto against a schedule-horizon hint: the
/// furthest-ahead-of-now() delay the workload will ever schedule. Workloads
/// whose whole schedule fits inside one wheel bucket (~67 µs) would keep the
/// wheel's cascade machinery busy for nothing — every event lands in the
/// current bucket and the due-heap refill degenerates into a per-event
/// resort, the documented 12–24% BM_SchedulerScheduleRun regression — so
/// they get the plain heap. Everything else (including an absent hint,
/// SimTime::infinity()) gets the wheel. Explicit kHeap/kWheel requests pass
/// through untouched.
[[nodiscard]] constexpr SchedulerBackend resolve_scheduler_backend(
    SchedulerBackend requested, SimTime horizon_hint) noexcept {
  if (requested != SchedulerBackend::kAuto) return requested;
  return horizon_hint.ps() < TimingWheel::kBucketWidthPs ? SchedulerBackend::kHeap
                                                         : SchedulerBackend::kWheel;
}

/// Executes scheduled callbacks in deterministic time order.
class Scheduler {
 public:
  RBS_THREAD_CONFINED(
      "one Scheduler belongs to one Simulation, driven by one thread; parallel "
      "sweep points own disjoint Simulations. Backend selection and all queue "
      "mutation paths (schedule/cancel/fire/reap) assume this confinement.");

  /// Type-erased callback for call sites that need to store one; the
  /// schedule_*() entry points accept any callable directly and store it
  /// without a std::function wrapper.
  using Callback = std::function<void()>;

  /// Cancellation token for a scheduled event. Default-constructed handles
  /// refer to no event; cancelling is idempotent and safe after the event
  /// has fired. Handles are small value types (scheduler pointer + slot +
  /// generation); they must not be used after their Scheduler is destroyed.
  class EventHandle {
   public:
    EventHandle() noexcept = default;

    /// Prevents the event from firing. No-op if it already fired or was
    /// already cancelled.
    void cancel() noexcept;

    /// True if the event is still scheduled to fire.
    [[nodiscard]] bool pending() const noexcept;

   private:
    friend class Scheduler;
    EventHandle(Scheduler* scheduler, std::uint32_t slot, std::uint32_t generation) noexcept
        : scheduler_{scheduler}, slot_{slot}, generation_{generation} {}
    Scheduler* scheduler_{nullptr};
    std::uint32_t slot_{0};
    std::uint32_t generation_{0};
  };

  /// Live occupancy counters for the wheel backend (telemetry gauges). All
  /// zero on the heap backend except `due_entries`.
  struct WheelStats {
    std::size_t wheel_entries{0};
    std::size_t occupied_buckets{0};
    std::size_t overflow_entries{0};
    std::size_t due_entries{0};
    std::uint64_t cascades{0};
  };

  /// `horizon_hint` only matters for SchedulerBackend::kAuto (see
  /// resolve_scheduler_backend); it is the furthest schedule_after() delay
  /// the workload expects to use. backend() reports the resolved choice.
  explicit Scheduler(SchedulerBackend backend = SchedulerBackend::kWheel,
                     SimTime horizon_hint = SimTime::infinity()) noexcept
      : backend_{resolve_scheduler_backend(backend, horizon_hint)},
        due_limit_{backend_ == SchedulerBackend::kHeap ? SimTime::infinity() : SimTime::zero()} {}
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] SchedulerBackend backend() const noexcept { return backend_; }

  /// Current simulated time. Advances only while run()/run_until() executes
  /// events.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Identifies a wire lane registered with add_lane().
  using LaneId = std::uint32_t;
  /// Receives one lane item when it fires: the owner the lane was
  /// registered with, and the item's payload (a copy of the object passed
  /// to lane_push(), valid for the duration of the call).
  using LaneDeliver = void (*)(void* owner, const void* payload);
  /// Largest lane payload: a 64-byte Packet plus an 8-byte tag.
  static constexpr std::size_t kLanePayloadBytes = 72;

  /// Schedules `cb` at absolute time `t`. A target earlier than now() is
  /// clamped to now() — the event fires on the current tick, after the
  /// events already due — so stale timers can never move the clock
  /// backwards or be silently lost in Release builds.
  ///
  /// `cls` tags the event for the engine profiler (per-class fire counts and
  /// durations); it never affects execution order or results.
  template <typename F>
  EventHandle schedule_at(SimTime t, F&& cb, EventClass cls = EventClass::kGeneric) {
    if (t < now_) t = now_;  // clamp-to-now policy (see above)
    const std::uint32_t idx = pool_.allocate();
    pool_.emplace(idx, std::forward<F>(cb));
    EventPool::Slot& slot = pool_[idx];
    slot.arm();
    push_ready(ReadyEntry{t, next_seq_++, idx, cls});
    ++live_events_;
    return EventHandle{this, idx, slot.generation()};
  }

  /// Schedules `cb` at now() + delay. Negative delays clamp to now().
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& cb, EventClass cls = EventClass::kGeneric) {
    return schedule_at(now_ + delay, std::forward<F>(cb), cls);
  }

  /// Registers a wire lane: items pushed onto it fire `deliver(owner, ...)`
  /// in (time, seq) order, each as one event of class `cls`. `owner` must
  /// stay valid while the lane holds items. Registration allocates nothing
  /// beyond the lane's entry in a table.
  LaneId add_lane(void* owner, LaneDeliver deliver, EventClass cls);

  /// Puts `payload` on `lane`, to be delivered at absolute time `t` (clamped
  /// to now(), like schedule_at). The item reserves its sequence number
  /// here, exactly as schedule_at would, so it fires in the same place in
  /// the global order as an event scheduled now. Items arriving no earlier
  /// than the lane's tail (a constant-delay wire) append in O(1); an
  /// earlier one (the delay shrank) is sorted in. Items cannot be cancelled.
  template <typename T>
  void lane_push(LaneId lane, SimTime t, const T& payload) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kLanePayloadBytes &&
                      alignof(T) <= alignof(std::uint64_t),
                  "lane payloads are trivially copied into fixed-size lane nodes");
    if (t < now_) t = now_;
    const std::uint32_t idx = lane_nodes_.allocate();
    LaneNode& node = lane_nodes_[idx];
    node.time = t;
    node.seq = next_seq_++;
    node.queued = false;
    std::memcpy(node.payload, &payload, sizeof(T));
    ++live_events_;
    lane_insert(lanes_[lane], lane, idx);
  }

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs all events with timestamp <= `t`, then sets now() to `t`.
  /// Returns true if the queue was drained before reaching `t`.
  bool run_until(SimTime t);

  /// Requests that run()/run_until() return after the current callback.
  void stop() noexcept { stopped_ = true; }

  /// Number of live events still scheduled to fire, lane items included.
  /// Cancelled-but-unreaped queue entries are excluded, so this is exactly
  /// the number of callbacks that would still execute if the scheduler ran
  /// to completion.
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_events_; }

  /// Total callbacks executed so far.
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// Total event slots ever allocated (high-water mark of concurrent
  /// callback events, rounded up to a slab; lane items are not events in
  /// this sense). Exposed so tests can assert that schedule/cancel churn
  /// reuses memory instead of growing it.
  [[nodiscard]] std::size_t pool_capacity() const noexcept { return pool_.capacity(); }

  /// Lane nodes ever created: the high-water mark of items on all lanes at
  /// once, rounded up to a slab. Bounded-memory tests assert that packet
  /// churn recycles nodes.
  [[nodiscard]] std::size_t lane_node_capacity() const noexcept {
    return lane_nodes_.capacity();
  }

  /// Raw queue entries across all backend structures (due heap + wheel
  /// buckets + overflow heap), including cancelled ones awaiting reap and
  /// one per armed lane head (for tests of the reaping policy; experiments
  /// should use pending_events()).
  [[nodiscard]] std::size_t queue_entries() const noexcept {
    return due_.size() + wheel_.size() + overflow_.size();
  }

  /// Backend occupancy snapshot for telemetry gauges.
  [[nodiscard]] WheelStats wheel_stats() const noexcept {
    return WheelStats{wheel_.size(), wheel_.occupied_buckets(), overflow_.size(), due_.size(),
                      wheel_.cascades()};
  }

  /// Installs a hook that fires after every `every_n_events` executed
  /// callbacks — the cadence the InvariantAuditor runs on. The hook runs
  /// between events (the finished event's slot is already recycled), so it
  /// may inspect any scheduler state. `every_n_events` == 0 (or an empty
  /// hook) disables auditing; the unchecked hot path then pays one
  /// predictable branch per event.
  void set_audit_hook(std::uint64_t every_n_events, std::function<void()> hook);

  /// Attaches (or detaches, with nullptr) an engine profiler: every executed
  /// event is host-clock timed and binned by its EventClass tag. The
  /// profiler must outlive the scheduler or be detached first. Detached cost
  /// is one branch per event; profiling never touches simulated state.
  void set_profiler(telemetry::EngineProfiler* profiler) noexcept { profiler_ = profiler; }

  /// Recounts scheduler internals and reports inconsistencies: due/overflow
  /// heap order, wheel bucket placement and window membership, no event
  /// scheduled in the past, live/cancelled bookkeeping vs. actual queue
  /// contents, event-pool slot conservation, and lane shape (each lane
  /// sorted, each non-empty lane's head armed, allocated lane nodes equal
  /// to the total lane length). Must not be called from
  /// inside an executing callback (the in-flight event's slot would be
  /// counted as leaked); the audit-hook cadence and any call made while the
  /// scheduler is not running are safe.
  void audit(check::AuditReport& report) const;

  /// Swaps the arrival times of `lane`'s first two items, leaving the lane
  /// unsorted, so tests can check that audit() notices. The lane must hold
  /// at least two items.
  void corrupt_lane_order_for_test(LaneId lane) noexcept;

 private:
  /// ReadyEntry::slot bit marking an armed lane head; the low bits hold the
  /// LaneId. Pool slot indices never reach it.
  static constexpr std::uint32_t kLaneBit = 0x8000'0000u;
  /// "No node": an empty lane's head and tail, the last node's next.
  static constexpr std::uint32_t kNoNode = EventPool::kNullIndex;

  /// One item on a lane. `next` links the lane (or, while free, the pool's
  /// free list). `queued` is set once a ready entry carrying this node's
  /// (time, seq) has been pushed: a node pushed ahead of the head gets its
  /// own entry, and the displaced head keeps its entry if it has one (it
  /// cannot pop before that node is the head again) or is armed once it is
  /// the head again. Aligned to 32 bytes so that every node spans exactly
  /// two cache lines.
  struct alignas(32) LaneNode {
    SimTime time;
    std::uint64_t seq{0};
    std::uint32_t next{kNoNode};
    bool queued{false};
    alignas(std::uint64_t) unsigned char payload[kLanePayloadBytes];
  };
  static_assert(sizeof(LaneNode) == 96, "lane node layout drifted");

  struct Lane {
    std::uint32_t head{kNoNode};
    std::uint32_t tail{kNoNode};
    void* owner{nullptr};
    LaneDeliver deliver{nullptr};
    EventClass cls{EventClass::kGeneric};
  };

  [[nodiscard]] static bool is_lane_entry(const ReadyEntry& entry) noexcept {
    return (entry.slot & kLaneBit) != 0;
  }
  /// Lane heads are never cancelled; slot entries are live while armed.
  [[nodiscard]] bool entry_live(const ReadyEntry& entry) const noexcept {
    return is_lane_entry(entry) || pool_[entry.slot].armed();
  }
  void push_ready(const ReadyEntry& entry) {
    if (entry.time < due_limit_) {
      due_.push(entry);  // heap backend always lands here (infinite window)
    } else {
      enqueue_far(entry);  // wheel backend: O(1) bucket or overflow heap
    }
  }
  void arm_lane_node(const Lane& lane, LaneId id, LaneNode& node);
  void lane_insert(Lane& lane, LaneId id, std::uint32_t idx);
  void fire_lane_head(const ReadyEntry& entry);
  void prefetch_lane(const ReadyEntry& entry) const noexcept;
  void prefetch_node(std::uint32_t idx) const noexcept;
  template <typename Body>
  void run_body(EventClass cls, Body&& body);

  bool execute_next();       // fires one event; false if nothing pending
  void execute_prepared();   // fires due_.min(); prepare_next() must be true
  bool prepare_next();       // surfaces the earliest live event at due_.min()
  void refill_due();     // drains the next wheel bucket into the due heap
  void enqueue_far(const ReadyEntry& entry);  // wheel or overflow insert
  void drop_dead_due_tops();
  void cancel_slot(std::uint32_t idx, std::uint32_t generation) noexcept;
  void reap();  // one sweep removing every cancelled entry from all queues
  void audit_lanes(check::AuditReport& report, std::size_t lane_entries) const;

  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t live_events_{0};
  std::size_t cancelled_in_queue_{0};
  bool stopped_{false};
  SchedulerBackend backend_{SchedulerBackend::kWheel};
  // Sorted near window: every pending event before due_limit_ is in due_,
  // so the global minimum is due_.min() once tombstones are skimmed off.
  EventHeap due_;
  SimTime due_limit_{SimTime::zero()};
  TimingWheel wheel_;       // [due_limit_, wheel horizon): unsorted buckets
  EventHeap overflow_;      // beyond the wheel horizon (rare, far timers)
  std::vector<ReadyEntry> scratch_;  // reused bucket-drain buffer
  EventPool pool_;
  std::vector<Lane> lanes_;
  Slabs<LaneNode, 9> lane_nodes_;  // 512 nodes (48 KiB) per slab, shared by all lanes
  std::uint64_t audit_every_{0};
  std::uint64_t events_since_audit_{0};
  std::function<void()> audit_hook_;
  telemetry::EngineProfiler* profiler_{nullptr};
};

}  // namespace rbs::sim
