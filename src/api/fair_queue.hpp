// The weighted-fair run queue underneath api::Executor.
//
// Two nested disciplines, both work-conserving:
//   * ACROSS classes — weighted round-robin with per-class credits: while
//     several classes hold work, class c wins weight(c) of every
//     sum-of-weights dispatches, and a class with no work forfeits its
//     share to the others. Because every weight is >= 1, a queued run of
//     ANY class is dispatched within one credit cycle of the backlog —
//     the bounded-starvation guarantee the scheduler tests pin down.
//   * WITHIN a class — plain round-robin across lanes (one lane per
//     client connection), so two connections at the same priority share
//     that class's slots evenly no matter how many runs either queued;
//     runs of one lane stay FIFO (determinism: admission order is
//     preserved where no fairness rule says otherwise).
//
// The queue is payload-agnostic and NOT internally synchronized: the
// Executor guards it with its own mutex — statically enforced by the
// `queue_ MOELA_GUARDED_BY(mutex_)` annotation in executor.hpp — and the
// unit tests drive it single-threaded to assert pop order exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "api/priority.hpp"

namespace moela::api {

/// One queued unit of work. `work` is what an Executor worker runs; `tag`
/// is caller-defined identity (the unit tests queue bare tags).
struct QueueItem {
  std::uint64_t tag = 0;
  std::function<void()> work;
};

class FairQueue {
 public:
  explicit FairQueue(Weights weights = {});

  /// Enqueues onto `lane` of `priority`. Lanes are created on first use
  /// and forgotten when they drain (a closed connection leaves nothing
  /// behind).
  void push(Priority priority, std::uint64_t lane, QueueItem item);

  /// Dequeues the next item under the weighted-fair discipline. Returns
  /// false when the queue is empty.
  bool pop(Priority& priority_out, QueueItem& item_out);

  std::size_t size() const { return size_; }
  std::size_t size(Priority priority) const {
    return classes_[index(priority)].size;
  }
  bool empty() const { return size_ == 0; }

 private:
  struct ClassQueue {
    /// FIFO per lane; a lane id appears in `rotation` iff its deque is
    /// non-empty.
    std::map<std::uint64_t, std::deque<QueueItem>> lanes;
    std::deque<std::uint64_t> rotation;
    std::size_t size = 0;
    /// Remaining dispatches this credit cycle.
    std::uint32_t credit = 0;
  };

  static std::size_t index(Priority priority) {
    return static_cast<std::size_t>(priority);
  }
  /// Pops from `cls`'s front lane and rotates the lane to the back.
  QueueItem pop_from(ClassQueue& cls);

  Weights weights_;
  ClassQueue classes_[kNumClasses];
  std::size_t size_ = 0;
};

}  // namespace moela::api
