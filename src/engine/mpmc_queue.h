#ifndef TREEQ_ENGINE_MPMC_QUEUE_H_
#define TREEQ_ENGINE_MPMC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

/// \file mpmc_queue.h
/// A bounded multi-producer multi-consumer queue (mutex + two condition
/// variables), the hand-off between Executor::Submit and the worker pool.
/// Push blocks while the queue is full; Pop blocks while it is empty.
/// Close() lets producers fail fast and consumers drain: pushes after Close
/// are rejected, pops return the remaining items and then nullopt.

namespace treeq {
namespace engine {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room (or the queue is closed). Returns false iff
  /// the queue was closed; `item` is moved from only when accepted, so a
  /// refused item stays with the caller.
  bool Push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push for admission control: returns false when the queue
  /// is full or closed, instead of waiting for room. Like Push, `item` is
  /// moved from only when accepted.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available. Returns nullopt once the queue is
  /// closed and fully drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace engine
}  // namespace treeq

#endif  // TREEQ_ENGINE_MPMC_QUEUE_H_
