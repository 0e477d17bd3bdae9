#include "ml/knn.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace earsonar::ml {

KnnClassifier::KnnClassifier(std::size_t k) : k_(k) {
  require(k >= 1, "KnnClassifier: k must be >= 1");
}

void KnnClassifier::fit(Matrix x, std::vector<std::size_t> y) {
  require_nonempty("KnnClassifier x", x.size());
  require(x.size() == y.size(), "KnnClassifier: x/y size mismatch");
  train_x_ = std::move(x);
  train_y_ = std::move(y);
}

std::size_t KnnClassifier::predict(const std::vector<double>& x) const {
  require(fitted(), "KnnClassifier: predict before fit");
  const std::size_t k = std::min(k_, train_x_.size());

  std::vector<double> dist(train_x_.size());
  for (std::size_t i = 0; i < dist.size(); ++i) dist[i] = squared_distance(train_x_[i], x);
  std::vector<std::size_t> order(train_x_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Ties in distance go to the smaller training index.
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&dist](std::size_t a, std::size_t b) {
                      return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
                    });

  std::vector<std::size_t> votes;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t label = train_y_[order[i]];
    if (label >= votes.size()) votes.resize(label + 1, 0);
    votes[label]++;
  }
  return static_cast<std::size_t>(std::max_element(votes.begin(), votes.end()) -
                                  votes.begin());
}

}  // namespace earsonar::ml
