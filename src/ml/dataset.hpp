// Row-major regression dataset used to train MOELA's Eval function.
//
// Each sample is (feature vector, scalar target). MOELA appends local-search
// trajectories here — features encode (design, weight vector), the target is
// the final Eq. (8) value reached by the search — and keeps only the most
// recent `capacity` samples (the paper bounds |S_train| <= 10K).
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

namespace moela::ml {

class Dataset {
 public:
  /// `capacity` == 0 means unbounded. Otherwise the oldest samples are
  /// discarded once the bound is exceeded (sliding window).
  explicit Dataset(std::size_t num_features, std::size_t capacity = 0)
      : num_features_(num_features), capacity_(capacity) {}

  void add(std::vector<double> features, double target);

  std::size_t size() const { return features_.size(); }
  bool empty() const { return features_.empty(); }
  std::size_t num_features() const { return num_features_; }

  std::span<const double> features(std::size_t i) const {
    return features_[i];
  }
  double target(std::size_t i) const { return targets_[i]; }

 private:
  std::size_t num_features_;
  std::size_t capacity_;
  std::deque<std::vector<double>> features_;
  std::deque<double> targets_;
};

}  // namespace moela::ml
