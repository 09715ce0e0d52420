#include "moo/archive.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace moela::moo {

bool ParetoArchive::insert(const ObjectiveVector& objectives) {
  if (m_ == 0) m_ = objectives.size();
  if (m_ == 0 || objectives.size() != m_) {
    throw std::invalid_argument(
        "ParetoArchive::insert: " + std::to_string(objectives.size()) +
        " objectives, the archive holds " + std::to_string(m_));
  }
  const std::size_t n = size();
  dominated_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const Dominance d = compare(member(k), objectives);
    if (d == Dominance::kDominates || d == Dominance::kEqual) return false;
    if (d == Dominance::kDominatedBy) dominated_.push_back(k);
  }
  // Compact only after the full pass. With NaN components dominance is not
  // transitive: a member after one the point dominates can still reject
  // it, and a rejected point must leave the archive as it was.
  if (!dominated_.empty()) {
    // Move each run of kept members between two dominated ones down.
    dominated_.push_back(n);
    double* v = values_.data();
    double* out = v + dominated_.front() * m_;
    for (std::size_t d = 1; d < dominated_.size(); ++d) {
      out = std::copy(v + (dominated_[d - 1] + 1) * m_, v + dominated_[d] * m_,
                      out);
    }
    values_.resize(static_cast<std::size_t>(out - v));
  }
  values_.insert(values_.end(), objectives.begin(), objectives.end());
  return true;
}

std::vector<ObjectiveVector> ParetoArchive::objective_set() const {
  std::vector<ObjectiveVector> out;
  out.reserve(size());
  for (auto it = values_.begin(); it != values_.end(); it += m_) {
    out.emplace_back(it, it + m_);
  }
  return out;
}

}  // namespace moela::moo
