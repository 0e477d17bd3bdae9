#include "ml/laplacian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace earsonar::ml {

namespace {

// Pairwise squared distances as one row-major n x n buffer. Rows go four at a
// time so four independent add chains overlap; each chain sums over the
// features in the same order as squared_distance(), so every entry is
// bit-identical to it (and (a-b)^2 == (b-a)^2 keeps the mirror exact).
std::vector<double> pairwise_squared_distances(const Matrix& data) {
  const std::size_t n = data.size();
  const std::size_t d = data.front().size();
  std::vector<double> dist(n * n, 0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = data[i].data();
    const double* r1 = data[i + 1].data();
    const double* r2 = data[i + 2].data();
    const double* r3 = data[i + 3].data();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double* b = data[j].data();
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (std::size_t f = 0; f < d; ++f) {
        const double d0 = r0[f] - b[f];
        const double d1 = r1[f] - b[f];
        const double d2 = r2[f] - b[f];
        const double d3 = r3[f] - b[f];
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
      }
      // Pairs with j <= row inside the block are recomputed to the same bits
      // (or +0.0 on the diagonal), so writing them is harmless.
      const double acc[4] = {a0, a1, a2, a3};
      for (std::size_t r = 0; r < 4; ++r) {
        dist[(i + r) * n + j] = acc[r];
        dist[j * n + i + r] = acc[r];
      }
    }
  }
  for (; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      dist[i * n + j] = dist[j * n + i] = squared_distance(data[i], data[j]);
  return dist;
}

}  // namespace

std::vector<double> laplacian_scores(const Matrix& data, const LaplacianConfig& config) {
  require_nonempty("laplacian data", data.size());
  require(config.neighbors >= 1, "LaplacianConfig: neighbors must be >= 1");
  require(config.heat_sigma > 0.0, "LaplacianConfig: heat_sigma must be > 0");
  const std::size_t n = data.size();
  const std::size_t d = data.front().size();
  require_nonempty("laplacian feature dimension", d);
  for (const auto& row : data)
    require(row.size() == d, "laplacian_scores: ragged matrix");
  require(n >= 2, "laplacian_scores: need >= 2 samples");

  const std::size_t k = std::min(config.neighbors, n - 1);
  const std::vector<double> dist = pairwise_squared_distances(data);

  // kNN sets: the k nearest other samples, ties broken by the smaller index.
  // Each edge is recorded in both directions; the union is the symmetric graph.
  std::vector<std::vector<std::size_t>> adjacency(n);
  std::vector<std::size_t> order(n - 1);
  double mean_knn_dist2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = &dist[i * n];
    for (std::size_t j = 0, m = 0; j < n; ++j)
      if (j != i) order[m++] = j;
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                      order.end(), [row](std::size_t a, std::size_t b) {
                        return row[a] < row[b] || (row[a] == row[b] && a < b);
                      });
    for (std::size_t m = 0; m < k; ++m) {
      mean_knn_dist2 += row[order[m]];
      adjacency[i].push_back(order[m]);
      adjacency[order[m]].push_back(i);
    }
  }
  mean_knn_dist2 = std::max(mean_knn_dist2 / static_cast<double>(n * k), 1e-12);
  const double t = config.heat_sigma * mean_knn_dist2;

  // Heat-kernel weights on the symmetric kNN graph, neighbours ascending so
  // every sum below adds its nonzero terms in the same order as a dense sweep
  // over j would (the absent entries of a dense matrix only add +0.0).
  std::vector<std::vector<double>> weights(n);
  std::vector<double> degree(n, 0.0);
  double total_degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& nbrs = adjacency[i];
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    weights[i].reserve(nbrs.size());
    for (std::size_t j : nbrs) {
      weights[i].push_back(std::exp(-dist[i * n + j] / t));
      degree[i] += weights[i].back();
    }
    total_degree += degree[i];
  }

  // Center every feature against its degree-weighted mean (removes the
  // trivial all-ones eigenvector of the graph Laplacian).
  std::vector<double> weighted_mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < d; ++f) weighted_mean[f] += data[i][f] * degree[i];
  for (double& m : weighted_mean) m /= std::max(total_degree, 1e-12);
  std::vector<double> centered(n * d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < d; ++f) centered[i * d + f] = data[i][f] - weighted_mean[f];

  // One pass over rows and edges for all features at once; per feature the
  // terms are added in ascending (i, j) order.
  std::vector<double> smoothness(d, 0.0);  // f~^T L f~  = sum_ij w_ij (fi - fj)^2 / 2
  std::vector<double> variance(d, 0.0);    // f~^T D f~
  for (std::size_t i = 0; i < n; ++i) {
    const double* fi = &centered[i * d];
    for (std::size_t f = 0; f < d; ++f) variance[f] += fi[f] * fi[f] * degree[i];
    for (std::size_t e = 0; e < adjacency[i].size(); ++e) {
      const double* fj = &centered[adjacency[i][e] * d];
      const double w = weights[i][e];
      for (std::size_t f = 0; f < d; ++f) smoothness[f] += w * (fi[f] - fj[f]) * (fi[f] - fj[f]);
    }
  }

  std::vector<double> scores(d, std::numeric_limits<double>::max());
  for (std::size_t f = 0; f < d; ++f) {
    // Constant features carry no information: keep score at +inf-like max.
    if (variance[f] > 1e-12) scores[f] = (smoothness[f] / 2.0) / variance[f];
  }
  return scores;
}

std::vector<std::size_t> select_best_features(const std::vector<double>& scores,
                                              std::size_t count) {
  require_nonempty("scores", scores.size());
  require(count >= 1 && count <= scores.size(),
          "select_best_features: count out of range");
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  order.resize(count);
  return order;
}

std::vector<double> project_features(const std::vector<double>& features,
                                     const std::vector<std::size_t>& selected) {
  std::vector<double> out;
  out.reserve(selected.size());
  for (std::size_t idx : selected) {
    require(idx < features.size(), "project_features: index out of range");
    out.push_back(features[idx]);
  }
  return out;
}

Matrix project_matrix(const Matrix& data, const std::vector<std::size_t>& selected) {
  Matrix out;
  out.reserve(data.size());
  for (const auto& row : data) out.push_back(project_features(row, selected));
  return out;
}

}  // namespace earsonar::ml
