#include "api/fair_queue.hpp"

#include <utility>

namespace moela::api {

FairQueue::FairQueue(Weights weights) : weights_(weights) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    classes_[c].credit = weights_.of(static_cast<Priority>(c));
  }
}

void FairQueue::push(Priority priority, std::uint64_t lane, QueueItem item) {
  ClassQueue& cls = classes_[index(priority)];
  std::deque<QueueItem>& queue = cls.lanes[lane];
  if (queue.empty()) cls.rotation.push_back(lane);
  queue.push_back(std::move(item));
  ++cls.size;
  ++size_;
}

QueueItem FairQueue::pop_from(ClassQueue& cls) {
  const std::uint64_t lane = cls.rotation.front();
  cls.rotation.pop_front();
  auto it = cls.lanes.find(lane);
  QueueItem item = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) {
    cls.lanes.erase(it);
  } else {
    cls.rotation.push_back(lane);  // round-robin within the class
  }
  --cls.size;
  --size_;
  return item;
}

bool FairQueue::pop(Priority& priority_out, QueueItem& item_out) {
  if (size_ == 0) return false;
  // Weighted round-robin: the first non-empty class (most urgent first)
  // with credit left wins and pays one credit. When every non-empty class
  // is out of credit, a new cycle starts: refill ALL credits from the
  // weights. An empty class keeps (and wastes) its credit — forfeited
  // share, not banked: a class must not hoard credit while idle and then
  // monopolize the cycle it wakes in.
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      ClassQueue& cls = classes_[c];
      if (cls.size == 0 || cls.credit == 0) continue;
      --cls.credit;
      priority_out = static_cast<Priority>(c);
      item_out = pop_from(cls);
      return true;
    }
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      classes_[c].credit = weights_.of(static_cast<Priority>(c));
    }
  }
  return false;  // unreachable while size_ > 0; defensive
}

}  // namespace moela::api
