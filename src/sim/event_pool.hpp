// Slab-allocated storage for scheduled events.
//
// The scheduler's hot path used to pay two heap allocations per event (a
// shared_ptr control block plus a std::function capture). EventPool removes
// both: event callbacks live in fixed-size slots carved out of large slabs,
// recycled through an intrusive free list, with a per-slot generation
// counter so cancellation handles stay O(1) and safe without shared
// ownership.
//
// Callables larger than a slot's inline storage fall back to a heap
// allocation owned by the slot. Nothing on the per-packet path takes it:
// packets on a wire are not callbacks but wire-lane nodes (see
// Scheduler::lane_push), which live in their own Slabs of the same kind.
//
// Slots never move once allocated (slabs are chunked, not reallocated), so
// a callback may safely schedule further events — and thereby grow the pool
// — while it is being invoked from its own slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"

namespace rbs::sim {

/// Chunked slab storage with an intrusive free list, indexed by 32-bit
/// handles. `T` must be default-constructible and expose a
/// `std::uint32_t next` member, which the free list threads through while
/// an item is free (and which the item's owner may use while it is not).
/// Items never move, and released ones are reused before a new slab is
/// grown, so capacity tracks the peak number allocated at once.
template <typename T, std::size_t kSlabBits>
class Slabs {
 public:
  static constexpr std::uint32_t kNull = 0xffff'ffffu;

  std::uint32_t allocate() {
    if (free_head_ == kNull) grow();
    const std::uint32_t idx = free_head_;
    free_head_ = (*this)[idx].next;
    ++allocated_;
    return idx;
  }

  void release(std::uint32_t idx) noexcept {
    (*this)[idx].next = free_head_;
    free_head_ = idx;
    --allocated_;
  }

  [[nodiscard]] T& operator[](std::uint32_t idx) noexcept {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }
  [[nodiscard]] const T& operator[](std::uint32_t idx) const noexcept {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }

  /// Items currently handed out.
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }
  /// Total items ever created; bounded-memory tests assert on this.
  [[nodiscard]] std::size_t capacity() const noexcept { return slabs_.size() * kSlabSize; }

 private:
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabBits;

  void grow() {
    const auto base = static_cast<std::uint32_t>(capacity());
    slabs_.push_back(std::make_unique<T[]>(kSlabSize));
    // Thread the new slab onto the free list in ascending order so freshly
    // grown pools hand out contiguous items (better cache locality).
    T* slab = slabs_.back().get();
    for (std::size_t i = 0; i + 1 < kSlabSize; ++i) {
      slab[i].next = base + static_cast<std::uint32_t>(i) + 1;
    }
    slab[kSlabSize - 1].next = free_head_;
    free_head_ = base;
  }

  std::vector<std::unique_ptr<T[]>> slabs_;
  std::uint32_t free_head_ = kNull;
  std::size_t allocated_ = 0;
};

/// Recycling pool of event slots with inline callback storage.
class EventPool {
  RBS_THREAD_CONFINED(
      "owned by one Scheduler; slots are armed, fired, and recycled on the "
      "owning simulation thread only — handing a Slot reference to another "
      "thread (or past a recycle point) is the R7 hazard rbs-analyze flags.");

 public:
  /// Sentinel slot index ("no slot").
  static constexpr std::uint32_t kNullIndex = 0xffff'ffffu;
  /// Callables up to this size (and max_align_t alignment) are stored
  /// inline; larger captures cost one owned heap allocation. 40 bytes
  /// covers a std::function (32 on libstdc++) and every lambda on the hot
  /// path, while keeping the whole slot to a single 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 40;

  /// One event's storage: type-erased callable + lifecycle state.
  class Slot {
   public:
    /// Calls the stored callable. The slot must hold one.
    void invoke() { invoke_(storage_); }

    /// Destroys the stored callable (releasing captured state); idempotent.
    void destroy_callback() noexcept {
      if (destroy_ != nullptr) {
        destroy_(storage_);
        destroy_ = nullptr;
        invoke_ = nullptr;
      }
    }

    /// An armed slot holds an event that is scheduled and not cancelled.
    /// The flag shares a word with the generation counter (bit 0) so the
    /// slot packs into one cache line.
    [[nodiscard]] bool armed() const noexcept { return (gen_armed_ & 1u) != 0; }
    void arm() noexcept { gen_armed_ |= 1u; }
    void disarm() noexcept { gen_armed_ &= ~1u; }

    /// Bumped on every release; lets handles detect slot reuse. A stale
    /// handle would need 2^31 reuses of one slot to alias — out of reach
    /// for any run this simulator performs.
    [[nodiscard]] std::uint32_t generation() const noexcept { return gen_armed_ >> 1; }

   private:
    friend class EventPool;
    friend class Slabs<Slot, 9>;
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void (*invoke_)(void*) = nullptr;
    void (*destroy_)(void*) noexcept = nullptr;
    std::uint32_t gen_armed_ = 0;  // bits 31..1: generation, bit 0: armed
    std::uint32_t next = kNullIndex;
  };
  static_assert(sizeof(Slot) == 64, "one event slot should fill exactly one cache line");

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Hands out an empty slot (from the free list, growing by one slab when
  /// exhausted). The caller must emplace() a callback and arm() it.
  std::uint32_t allocate() { return slots_.allocate(); }

  /// Stores `fn` in slot `idx`, replacing nothing (the slot must be empty).
  /// Small callables live inline in the slot; larger ones cost one owned
  /// heap allocation.
  template <typename F>
  void emplace(std::uint32_t idx, F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    Slot& s = (*this)[idx];
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage_)) Fn(std::forward<F>(fn));
      s.invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      s.destroy_ = [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); };
    } else {
      // Oversized capture: the slot owns a single heap-allocated copy.
      ::new (static_cast<void*>(s.storage_)) Fn*(new Fn(std::forward<F>(fn)));
      s.invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      s.destroy_ = [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); };
    }
  }

  /// Destroys the slot's callback (if still present), invalidates handles
  /// via the generation counter, and recycles the slot.
  void release(std::uint32_t idx) noexcept {
    Slot& s = (*this)[idx];
    s.destroy_callback();
    s.gen_armed_ = (s.gen_armed_ | 1u) + 1u;  // disarm and bump the generation
    slots_.release(idx);
  }

  [[nodiscard]] Slot& operator[](std::uint32_t idx) noexcept { return slots_[idx]; }
  [[nodiscard]] const Slot& operator[](std::uint32_t idx) const noexcept { return slots_[idx]; }

  /// Slots currently handed out (live + cancelled-but-unreaped events).
  [[nodiscard]] std::size_t allocated() const noexcept { return slots_.allocated(); }
  /// Total slots ever created; bounded-memory tests assert on this.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.capacity(); }

 private:
  Slabs<Slot, 9> slots_;  // 512 slots (32 KiB) per slab
};

}  // namespace rbs::sim
