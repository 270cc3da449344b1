#include "sim/scheduler.hpp"

#include <string>
#include <utility>

#include "check/auditor.hpp"
#include "check/invariant.hpp"
#include "telemetry/profiler.hpp"

namespace rbs::sim {
namespace {

// Reaping policy: sweep the queues once cancelled entries are both numerous
// enough to matter and make up at least half the queue. The sweep is
// O(queue) and amortizes to O(1) per cancel, keeping queue memory
// proportional to the number of *live* events even under heavy TCP timer
// churn.
constexpr std::size_t kReapMinCancelled = 64;

}  // namespace

Scheduler::~Scheduler() {
  // Destroy the callbacks of events that never fired so captured state
  // (flow objects, stats sinks, ...) is released. Lane items hold only
  // trivially copyable payloads and go with their slabs.
  const auto release = [this](const ReadyEntry& entry) {
    if (!is_lane_entry(entry)) pool_.release(entry.slot);
  };
  for (const ReadyEntry& entry : due_.entries()) release(entry);
  for (const ReadyEntry& entry : overflow_.entries()) release(entry);
  wheel_.for_each([&release](int, int, const ReadyEntry& entry) { release(entry); });
}

void Scheduler::EventHandle::cancel() noexcept {
  if (scheduler_ != nullptr) scheduler_->cancel_slot(slot_, generation_);
}

bool Scheduler::EventHandle::pending() const noexcept {
  if (scheduler_ == nullptr) return false;
  const EventPool::Slot& slot = scheduler_->pool_[slot_];
  return slot.generation() == generation_ && slot.armed();
}

Scheduler::LaneId Scheduler::add_lane(void* owner, LaneDeliver deliver, EventClass cls) {
  const auto id = static_cast<LaneId>(lanes_.size());
  RBS_INVARIANT(id < kLaneBit, "lane ids must stay clear of the lane tag bit");
  lanes_.push_back(Lane{kNoNode, kNoNode, owner, deliver, cls});
  return id;
}

void Scheduler::arm_lane_node(const Lane& lane, LaneId id, LaneNode& node) {
  node.queued = true;
  push_ready(ReadyEntry{node.time, node.seq, kLaneBit | id, lane.cls});
}

// The pushed node holds the largest sequence number issued so far, so it
// sorts after every node with the same or an earlier time: a constant-delay
// wire always appends. Only a shrunken delay (fault_set_extra_propagation)
// puts a node ahead of the tail, and only then is the lane walked.
void Scheduler::lane_insert(Lane& lane, LaneId id, std::uint32_t idx) {
  LaneNode& node = lane_nodes_[idx];
  if (lane.head == kNoNode) {
    node.next = kNoNode;
    lane.head = lane.tail = idx;
    arm_lane_node(lane, id, node);
    return;
  }
  if (lane_nodes_[lane.tail].time <= node.time) {
    node.next = kNoNode;
    lane_nodes_[lane.tail].next = idx;
    lane.tail = idx;
    return;
  }
  if (node.time < lane_nodes_[lane.head].time) {
    // Overtakes the head: the new head needs its own ready entry. The old
    // head keeps its entry, which now sorts after this node's.
    node.next = lane.head;
    lane.head = idx;
    arm_lane_node(lane, id, node);
    return;
  }
  std::uint32_t prev = lane.head;
  while (lane_nodes_[lane_nodes_[prev].next].time <= node.time) prev = lane_nodes_[prev].next;
  node.next = lane_nodes_[prev].next;
  lane_nodes_[prev].next = idx;
}

void Scheduler::corrupt_lane_order_for_test(LaneId lane) noexcept {
  LaneNode& first = lane_nodes_[lanes_[lane].head];
  std::swap(first.time, lane_nodes_[first.next].time);
}

void Scheduler::enqueue_far(const ReadyEntry& entry) {
  if (wheel_.accepts(entry.time)) {
    wheel_.insert(entry);
  } else {
    overflow_.push(entry);
  }
}

void Scheduler::cancel_slot(std::uint32_t idx, std::uint32_t generation) noexcept {
  EventPool::Slot& slot = pool_[idx];
  if (slot.generation() != generation || !slot.armed()) return;  // stale or already done
  slot.disarm();
  slot.destroy_callback();  // release captured state eagerly
  --live_events_;
  ++cancelled_in_queue_;
  if (cancelled_in_queue_ >= kReapMinCancelled && cancelled_in_queue_ * 2 >= queue_entries()) {
    reap();
  }
}

void Scheduler::reap() {
  const auto dead = [this](const ReadyEntry& entry) {
    if (entry_live(entry)) return false;
    pool_.release(entry.slot);
    return true;
  };
  due_.remove_if(dead);
  wheel_.remove_if(dead);
  overflow_.remove_if(dead);
  cancelled_in_queue_ = 0;
}

void Scheduler::drop_dead_due_tops() {
  while (!due_.empty() && !entry_live(due_.min())) {
    const ReadyEntry entry = due_.pop_min();
    --cancelled_in_queue_;
    pool_.release(entry.slot);
  }
}

// Moves the due window forward: drains the earliest wheel bucket (rebasing
// an idle wheel at the overflow minimum first) into the due heap, then pulls
// in any overflow entries that the new window now covers. Overflow entries
// can predate wheel ones — an event scheduled beyond the horizon ends up
// earlier than events inserted after the base advanced — so the window must
// merge both sources before anything fires.
void Scheduler::refill_due() {
  if (wheel_.empty()) {
    wheel_.rebase(overflow_.min().time);
    while (!overflow_.empty() && wheel_.accepts(overflow_.min().time)) {
      wheel_.insert(overflow_.pop_min());
    }
  }
  scratch_.clear();
  const std::int64_t start = wheel_.drain_earliest_bucket(scratch_);
  due_limit_ = SimTime::picoseconds(start + TimingWheel::kBucketWidthPs);
  for (const ReadyEntry& entry : scratch_) {
    if (is_lane_entry(entry)) {
      prefetch_lane(entry);
      due_.push(entry);
    } else if (pool_[entry.slot].armed()) {
      due_.push(entry);
    } else {
      --cancelled_in_queue_;
      pool_.release(entry.slot);
    }
  }
  while (!overflow_.empty() && overflow_.min().time < due_limit_) {
    const ReadyEntry entry = overflow_.pop_min();
    if (entry_live(entry)) {
      due_.push(entry);
    } else {
      --cancelled_in_queue_;
      pool_.release(entry.slot);
    }
  }
}

bool Scheduler::prepare_next() {
  for (;;) {
    drop_dead_due_tops();
    if (!due_.empty()) return true;
    if (wheel_.empty() && overflow_.empty()) return false;
    refill_due();  // may surface only tombstones; loop until a live event
  }
}

bool Scheduler::execute_next() {
  if (!prepare_next()) return false;
  execute_prepared();
  return true;
}

template <typename Body>
void Scheduler::run_body(EventClass cls, Body&& body) {
  if (profiler_ != nullptr) {
    profiler_->begin_event();
    body();
    profiler_->end_event(cls);
  } else {
    body();
  }
}

// A drained bucket fires within the next bucket width of simulated time, so
// its lane heads and their owners are about to be touched: start the loads
// now, while the due heap still has other events to fire. The heap backend
// never drains buckets and gets no prefetch.
void Scheduler::prefetch_lane(const ReadyEntry& entry) const noexcept {
  const Lane& lane = lanes_[entry.slot & ~kLaneBit];
  if (lane.head != kNoNode) prefetch_node(lane.head);
  __builtin_prefetch(lane.owner);
}

void Scheduler::prefetch_node(std::uint32_t idx) const noexcept {
  const auto* bytes = reinterpret_cast<const char*>(&lane_nodes_[idx]);
  __builtin_prefetch(bytes);
  __builtin_prefetch(bytes + sizeof(LaneNode) - 1);
}

// Pops the lane's head (the node this entry was armed for: no other node of
// the lane can sort before it), starts loading the next node and delivers.
// Only then is the lane's head armed, unless it already holds an entry, so
// the next node's cache lines arrive while the owner runs. Every (time, seq)
// was reserved at push, so arming late changes no order; an item the owner
// pushes ahead of the unarmed next node is the ordinary overtake, and the
// node it displaces is armed when it is head again. The popped node is
// recycled only after the owner returns, so the payload stays valid while
// the owner pushes more items.
void Scheduler::fire_lane_head(const ReadyEntry& entry) {
  const LaneId id = entry.slot & ~kLaneBit;
  Lane& lane = lanes_[id];
  const std::uint32_t idx = lane.head;
  const LaneNode& node = lane_nodes_[idx];
  RBS_INVARIANT(node.seq == entry.seq, "lane entry fired for a node that is not the head");
  lane.head = node.next;
  if (lane.head == kNoNode) {
    lane.tail = kNoNode;
  } else {
    prefetch_node(lane.head);
  }
  // The owner may register lanes (reallocating lanes_), so copy out first.
  void* const owner = lane.owner;
  const LaneDeliver deliver = lane.deliver;
  run_body(entry.cls, [&] { deliver(owner, node.payload); });
  lane_nodes_.release(idx);
  const Lane& after = lanes_[id];
  if (after.head != kNoNode && !lane_nodes_[after.head].queued) {
    arm_lane_node(after, id, lane_nodes_[after.head]);
  }
}

void Scheduler::execute_prepared() {
  const ReadyEntry entry = due_.pop_min();
  RBS_INVARIANT(entry.time >= now_, "event would move the simulation clock backwards");
  now_ = entry.time;
  --live_events_;
  ++executed_;
  if (is_lane_entry(entry)) {
    fire_lane_head(entry);
  } else {
    EventPool::Slot& slot = pool_[entry.slot];
    slot.disarm();  // fired: pending() is false, cancel() a no-op
    // Invoke straight from the slot: slabs never move, and the slot is not
    // recycled until after the callback returns, so the callback may freely
    // schedule or cancel other events (growing the pool if needed).
    run_body(entry.cls, [&slot] { slot.invoke(); });
    pool_.release(entry.slot);
  }
  if (audit_every_ != 0 && ++events_since_audit_ >= audit_every_) {
    // Fires between events: the finished slot is recycled, so the audit
    // sees a consistent queue/pool pairing.
    events_since_audit_ = 0;
    audit_hook_();
  }
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && execute_next()) {
  }
}

void Scheduler::set_audit_hook(std::uint64_t every_n_events, std::function<void()> hook) {
  audit_hook_ = std::move(hook);
  audit_every_ = audit_hook_ ? every_n_events : 0;
  events_since_audit_ = 0;
}

void Scheduler::audit(check::AuditReport& report) const {
  if (!due_.heap_order_ok()) {
    report.violation("due-heap order broken (an entry sorts before its 4-ary parent)");
  }
  if (!overflow_.heap_order_ok()) {
    report.violation("overflow-heap order broken (an entry sorts before its 4-ary parent)");
  }

  std::size_t armed = 0;
  std::size_t lane_entries = 0;
  const auto check_entry = [&](const ReadyEntry& entry, const char* where) {
    if (entry.time < now_) {
      report.violation(std::string{where} + " event at " + std::to_string(entry.time.ps()) +
                       " ps is in the past (now " + std::to_string(now_.ps()) + " ps)");
    }
    if (entry.seq >= next_seq_) {
      report.violation(std::string{where} + " event carries unissued sequence number " +
                       std::to_string(entry.seq));
    }
    if (is_lane_entry(entry)) {
      ++lane_entries;
    } else if (pool_[entry.slot].armed()) {
      ++armed;
    }
  };

  for (const ReadyEntry& entry : due_.entries()) {
    check_entry(entry, "due");
    // The due window is the sorted frontier: everything at or past the
    // window limit must still be in the wheel or overflow.
    if (entry.time >= due_limit_) {
      report.violation("due entry at " + std::to_string(entry.time.ps()) +
                       " ps is outside the due window (limit " +
                       std::to_string(due_limit_.ps()) + " ps)");
    }
  }
  for (const ReadyEntry& entry : overflow_.entries()) {
    check_entry(entry, "overflow");
    if (entry.time < due_limit_) {
      report.violation("overflow entry at " + std::to_string(entry.time.ps()) +
                       " ps is inside the due window (limit " +
                       std::to_string(due_limit_.ps()) + " ps) and would fire late");
    }
  }
  bool wheel_placement_ok = true;
  bool wheel_window_ok = true;
  wheel_.for_each([&](int level, int bucket, const ReadyEntry& entry) {
    check_entry(entry, "wheel");
    const int shift = TimingWheel::level_shift(level);
    const std::int64_t abs_bucket = entry.time.ps() >> shift;
    if ((abs_bucket & (TimingWheel::kBuckets - 1)) != bucket) wheel_placement_ok = false;
    // One-lap window: the entry's bucket must be within 256 buckets of the
    // base at its level, else a drain would fire it a whole lap early/late.
    const std::int64_t lap_offset = abs_bucket - (wheel_.base().ps() >> shift);
    if (lap_offset < 0 || lap_offset >= TimingWheel::kBuckets) wheel_window_ok = false;
    if (entry.time < due_limit_) {
      report.violation("wheel entry at " + std::to_string(entry.time.ps()) +
                       " ps is inside the due window (limit " +
                       std::to_string(due_limit_.ps()) + " ps) and would fire late");
    }
  });
  if (!wheel_placement_ok) {
    report.violation("wheel entry filed in a bucket that does not match its timestamp");
  }
  if (!wheel_window_ok) {
    report.violation("wheel entry outside its level's one-lap window from the base");
  }

  // Every lane item is a live event; every other live event is an armed
  // slot. audit_lanes() checks the allocated lane nodes against the lanes.
  const std::size_t lane_items = lane_nodes_.allocated();
  if (armed + lane_items != live_events_) {
    report.violation("live-event count " + std::to_string(live_events_) + " but " +
                     std::to_string(armed) + " armed entries across the queues + " +
                     std::to_string(lane_items) + " lane items");
  }
  const std::size_t slot_entries = queue_entries() - lane_entries;
  if (armed + cancelled_in_queue_ != slot_entries) {
    report.violation("armed (" + std::to_string(armed) + ") + cancelled (" +
                     std::to_string(cancelled_in_queue_) + ") != slot entries (" +
                     std::to_string(slot_entries) + ")");
  }
  // Slot conservation: outside callback execution every allocated pool slot
  // is referenced by exactly one queue entry.
  if (pool_.allocated() != slot_entries) {
    report.violation("event pool has " + std::to_string(pool_.allocated()) +
                     " allocated slots but the queues hold " + std::to_string(slot_entries) +
                     " slot entries (slot leak or double-release)");
  }
  audit_lanes(report, lane_entries);
}

void Scheduler::audit_lanes(check::AuditReport& report, std::size_t lane_entries) const {
  std::size_t items = 0;
  std::size_t queued = 0;
  for (std::size_t id = 0; id < lanes_.size(); ++id) {
    const Lane& lane = lanes_[id];
    const std::string name = "lane " + std::to_string(id);
    if (lane.head == kNoNode) {
      if (lane.tail != kNoNode) report.violation(name + " is empty but has a tail");
      continue;
    }
    if (!lane_nodes_[lane.head].queued) {
      report.violation(name + " is non-empty but its head has no ready entry");
    }
    std::uint32_t last = kNoNode;
    for (std::uint32_t idx = lane.head; idx != kNoNode;
         idx = lane_nodes_[idx].next) {
      const LaneNode& node = lane_nodes_[idx];
      if (++items > lane_nodes_.allocated()) {
        report.violation(name + " is longer than the allocated lane nodes (a cycle?)");
        return;
      }
      if (node.queued) ++queued;
      if (node.time < now_) {
        report.violation(name + " holds an item at " + std::to_string(node.time.ps()) +
                         " ps, in the past (now " + std::to_string(now_.ps()) + " ps)");
      }
      if (last != kNoNode) {
        const LaneNode& prev = lane_nodes_[last];
        if (node.time < prev.time || (node.time == prev.time && node.seq < prev.seq)) {
          report.violation(name + " is not sorted by (time, seq) at " +
                           std::to_string(node.time.ps()) + " ps");
        }
      }
      last = idx;
    }
    if (last != lane.tail) report.violation(name + "'s tail is not its last item");
  }
  if (items != lane_nodes_.allocated()) {
    report.violation("lane node pool has " + std::to_string(lane_nodes_.allocated()) +
                     " allocated nodes but the lanes hold " + std::to_string(items) +
                     " items (node leak or double-release)");
  }
  if (queued != lane_entries) {
    report.violation(std::to_string(queued) + " lane items are marked queued but the queues hold " +
                     std::to_string(lane_entries) + " lane entries");
  }
}

bool Scheduler::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    if (!prepare_next()) {  // find the next live event time
      now_ = t;
      return true;
    }
    if (due_.min().time > t) {
      now_ = t;
      return false;
    }
    // prepare_next() above already surfaced the next live event; firing it
    // directly avoids a second pass (and pool-slot touch) per event.
    execute_prepared();
  }
  return live_events_ == 0;
}

}  // namespace rbs::sim
