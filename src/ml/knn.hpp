// k-nearest-neighbor classifier — the supervised ablation comparator for the
// paper's unsupervised k-means detector.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/kmeans.hpp"

namespace earsonar::ml {

class KnnClassifier {
 public:
  explicit KnnClassifier(std::size_t k = 5);

  /// Stores the training set (lazy learner).
  void fit(Matrix x, std::vector<std::size_t> y);

  /// Majority vote among the k nearest training samples (distance ties go to
  /// the earlier training sample); vote ties break toward the smaller class
  /// index.
  [[nodiscard]] std::size_t predict(const std::vector<double>& x) const;

  [[nodiscard]] bool fitted() const { return !train_x_.empty(); }
  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::size_t k_;
  Matrix train_x_;
  std::vector<std::size_t> train_y_;
};

}  // namespace earsonar::ml
