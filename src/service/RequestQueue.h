//===- service/RequestQueue.h - Bounded queue with shedding -----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's bounded request queue (DESIGN.md §10). Backpressure is
/// deterministic load shedding, never blocking the producer: push()
/// refuses immediately when the queue holds Capacity items (or after
/// close()), and the front door turns that refusal into an explicit
/// Overloaded response. pop() blocks workers until an item, a pause flip,
/// or close-and-empty.
///
/// The pause latch exists for deterministic overload experiments: while
/// paused, workers park and pushes keep accumulating, so a burst of
/// B > Capacity requests sheds exactly B - Capacity - (in-flight) of them
/// regardless of scheduler timing. Drain uses close(), which wakes every
/// parked worker, lets them run the queue dry, and then returns nullopt
/// so worker loops exit.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SERVICE_REQUESTQUEUE_H
#define ANOSY_SERVICE_REQUESTQUEUE_H

#include "expr/Module.h"
#include "service/Service.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>

namespace anosy::service {

/// One queued request: the request, its response promise, and the
/// deadline stamped at the front door (queue wait counts against it).
struct WorkItem {
  ServiceRequest Req;
  /// A Register request's module, parsed once at the front door.
  std::optional<Module> Parsed;
  uint64_t Id = 0;
  std::promise<ServiceResponse> Promise;
  std::chrono::steady_clock::time_point Accepted;
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;
};

class RequestQueue {
public:
  explicit RequestQueue(size_t Capacity) : Capacity(Capacity) {}

  /// Enqueues \p Item; false when the queue is full or closed — the
  /// caller sheds the request with an explicit Overloaded response.
  bool push(WorkItem &&Item) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Closed || Items.size() >= Capacity)
        return false;
      Items.push_back(std::move(Item));
    }
    Ready.notify_one();
    return true;
  }

  /// Blocks until an item is available (and the queue is not paused);
  /// nullopt once the queue is closed and empty.
  std::optional<WorkItem> pop() {
    std::unique_lock<std::mutex> Lock(Mu);
    Ready.wait(Lock, [&] { return (!Items.empty() && !Paused) || Closed; });
    // Closed queues still drain: the wait falls through with items
    // pending, and only an empty closed queue ends the worker loop.
    if (Items.empty())
      return std::nullopt;
    WorkItem Item = std::move(Items.front());
    Items.pop_front();
    return Item;
  }

  /// Non-blocking pop for manual-pump mode; ignores the pause latch (the
  /// pumper *is* the worker).
  std::optional<WorkItem> tryPop() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Items.empty())
      return std::nullopt;
    WorkItem Item = std::move(Items.front());
    Items.pop_front();
    return Item;
  }

  /// Parks workers (items accumulate) / releases them.
  void setPaused(bool On) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Paused = On;
    }
    Ready.notify_all();
  }

  /// Stops intake; parked workers wake, drain the backlog, then exit.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Closed = true;
      Paused = false;
    }
    Ready.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Items.size();
  }

  size_t capacity() const { return Capacity; }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Closed;
  }

private:
  const size_t Capacity;
  mutable std::mutex Mu;
  std::condition_variable Ready;
  std::deque<WorkItem> Items;
  bool Paused = false;
  bool Closed = false;
};

} // namespace anosy::service

#endif // ANOSY_SERVICE_REQUESTQUEUE_H
