// Packet FIFO for queues: a growable power-of-two ring buffer.
//
// Every queue discipline in src/net keeps its packets in one of these.
// std::deque<Packet> allocates a block and its map even while empty, and a
// topology builds one queue per link direction, most of them idle access
// links; a ring allocates nothing until its first push, then doubles when
// full and keeps its buffer for reuse. Packets are trivially copyable, so
// growth is one copy of the resident packets in FIFO order.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

#include "net/packet.hpp"

namespace rbs::net {

/// FIFO of packets with O(1) push/pop at the back and pop at the front.
/// References returned by front()/back() stay valid until the next push or
/// pop.
class PacketRing {
 public:
  PacketRing() noexcept = default;
  PacketRing(const PacketRing&) = delete;
  PacketRing& operator=(const PacketRing&) = delete;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Packets the current buffer holds without growing; 0 until the first
  /// push.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void push_back(const Packet& p) {
    if (size_ == capacity_) grow();
    buf_[(head_ + size_) & (capacity_ - 1)] = p;
    ++size_;
  }

  [[nodiscard]] const Packet& front() const noexcept {
    assert(size_ != 0);
    return buf_[head_];
  }
  [[nodiscard]] const Packet& back() const noexcept {
    assert(size_ != 0);
    return (*this)[size_ - 1];
  }

  void pop_front() noexcept {
    assert(size_ != 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }
  void pop_back() noexcept {
    assert(size_ != 0);
    --size_;
  }

  /// The i-th packet from the front; walks the FIFO in order for i < size().
  [[nodiscard]] const Packet& operator[](std::size_t i) const noexcept {
    return buf_[(head_ + i) & (capacity_ - 1)];
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kFirstCapacity : capacity_ * 2;
    auto buf = std::make_unique<Packet[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) buf[i] = (*this)[i];
    buf_ = std::move(buf);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<Packet[]> buf_;
  std::size_t capacity_{0};  // zero or a power of two
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace rbs::net
