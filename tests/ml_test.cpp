// ML module tests: k-means, outlier removal, Laplacian scores, scaler,
// logistic regression, kNN, Hungarian assignment, metrics, CV splitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/crossval.hpp"
#include "ml/hungarian.hpp"
#include "ml/kmeans.hpp"
#include "ml/knn.hpp"
#include "ml/laplacian.hpp"
#include "ml/logistic.hpp"
#include "ml/metrics.hpp"
#include "ml/outlier.hpp"
#include "ml/scaler.hpp"

namespace earsonar::ml {
namespace {

// Four well-separated Gaussian blobs in 2-D; returns data + true labels.
std::pair<Matrix, std::vector<std::size_t>> four_blobs(std::size_t per_cluster,
                                                       std::uint64_t seed,
                                                       double sigma = 0.3) {
  earsonar::Rng rng(seed);
  const double centers[4][2] = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  Matrix data;
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < 4; ++c)
    for (std::size_t i = 0; i < per_cluster; ++i) {
      data.push_back({centers[c][0] + rng.normal(0, sigma),
                      centers[c][1] + rng.normal(0, sigma)});
      labels.push_back(c);
    }
  return {data, labels};
}

// ----------------------------------------------------------------- k-means

TEST(KMeansTest, DistanceHelpers) {
  const std::vector<double> a{0, 3};
  const std::vector<double> b{4, 0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_THROW(squared_distance({1}, {1, 2}), std::invalid_argument);
}

TEST(KMeansTest, RecoversFourBlobs) {
  const auto [data, truth] = four_blobs(25, 1);
  KMeansConfig cfg;
  cfg.k = 4;
  const KMeansResult result = KMeans(cfg).fit(data);
  // Clusters must be pure: map each cluster to its majority label.
  std::vector<std::vector<std::size_t>> counts(4, std::vector<std::size_t>(4, 0));
  for (std::size_t i = 0; i < data.size(); ++i) counts[result.labels[i]][truth[i]]++;
  const auto mapping = best_cluster_to_label(counts);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (mapping[result.labels[i]] == truth[i]) ++correct;
  EXPECT_EQ(correct, data.size());
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  const auto [data, truth] = four_blobs(10, 2);
  (void)truth;
  KMeansConfig cfg;
  cfg.k = 4;
  const auto a = KMeans(cfg).fit(data);
  const auto b = KMeans(cfg).fit(data);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  const auto [data, truth] = four_blobs(20, 3);
  (void)truth;
  KMeansConfig c2;
  c2.k = 2;
  KMeansConfig c4;
  c4.k = 4;
  EXPECT_GT(KMeans(c2).fit(data).inertia, KMeans(c4).fit(data).inertia);
}

TEST(KMeansTest, PredictChoosesNearestCentroid) {
  const Matrix centroids{{0, 0}, {10, 10}};
  EXPECT_EQ(KMeans::predict(centroids, {1, 1}), 0u);
  EXPECT_EQ(KMeans::predict(centroids, {9, 9}), 1u);
}

TEST(KMeansTest, FitWithInitRefinesGivenCenters) {
  const auto [data, truth] = four_blobs(15, 4);
  (void)truth;
  // Slightly-off initial centers still converge to the blob centers.
  const Matrix init{{1, 1}, {9, 1}, {1, 9}, {9, 9}};
  KMeansConfig cfg;
  cfg.k = 4;
  const auto result = KMeans(cfg).fit_with_init(data, init);
  std::vector<double> xs;
  for (const auto& c : result.centroids) xs.push_back(c[0] + c[1]);
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[0], 0.0, 0.5);
  EXPECT_NEAR(xs[3], 20.0, 0.5);
}

TEST(KMeansTest, FitWithInitWrongCountThrows) {
  const auto [data, truth] = four_blobs(5, 5);
  (void)truth;
  KMeansConfig cfg;
  cfg.k = 4;
  EXPECT_THROW(KMeans(cfg).fit_with_init(data, Matrix{{0, 0}}), std::invalid_argument);
}

TEST(KMeansTest, FewerPointsThanClustersThrows) {
  const Matrix tiny{{1, 2}, {3, 4}};
  KMeansConfig cfg;
  cfg.k = 4;
  EXPECT_THROW(KMeans(cfg).fit(tiny), std::invalid_argument);
}

TEST(KMeansTest, RaggedMatrixThrows) {
  const Matrix bad{{1, 2}, {3}};
  KMeansConfig cfg;
  cfg.k = 1;
  EXPECT_THROW(KMeans(cfg).fit(bad), std::invalid_argument);
}

TEST(KMeansTest, DuplicatePointsHandled) {
  Matrix data(10, {1.0, 1.0});
  data.push_back({5.0, 5.0});
  KMeansConfig cfg;
  cfg.k = 2;
  EXPECT_NO_THROW(KMeans(cfg).fit(data));
}

// ----------------------------------------------------------------- outlier

TEST(OutlierTest, FlagsInjectedOutlier) {
  auto [data, truth] = four_blobs(20, 6);
  (void)truth;
  data.push_back({50.0, 50.0});  // way outside every blob
  KMeansConfig cfg;
  cfg.k = 4;
  const OutlierResult result = remove_outliers_by_distance(data, KMeans(cfg));
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_EQ(result.removed[0], data.size() - 1);
}

TEST(OutlierTest, CleanDataKeepsEverything) {
  const auto [data, truth] = four_blobs(20, 7);
  (void)truth;
  KMeansConfig cfg;
  cfg.k = 4;
  const OutlierResult result = remove_outliers_by_distance(data, KMeans(cfg));
  EXPECT_GE(result.kept.size(), data.size() - 3);
}

TEST(OutlierTest, MinKeepFractionRespected) {
  auto [data, truth] = four_blobs(5, 8, 3.0);  // very loose blobs
  (void)truth;
  KMeansConfig cfg;
  cfg.k = 4;
  OutlierConfig oc;
  oc.distance_sigma = 0.1;  // absurdly aggressive
  oc.min_keep_fraction = 0.8;
  const OutlierResult result = remove_outliers_by_distance(data, KMeans(cfg), oc);
  EXPECT_GE(result.kept.size(),
            static_cast<std::size_t>(0.8 * static_cast<double>(data.size())));
}

TEST(OutlierTest, RandomSamplingClustersFullData) {
  const auto [data, truth] = four_blobs(30, 9);
  (void)truth;
  KMeansConfig cfg;
  cfg.k = 4;
  const KMeansResult result = cluster_with_random_sampling(data, KMeans(cfg), 0.5, 11);
  EXPECT_EQ(result.labels.size(), data.size());
  EXPECT_EQ(result.centroids.size(), 4u);
}

// --------------------------------------------------------------- laplacian

TEST(LaplacianTest, StructuredFeatureBeatsNoise) {
  // Feature 0 carries the cluster structure; feature 1 is pure noise.
  earsonar::Rng rng(10);
  Matrix data;
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 30; ++i)
      data.push_back({c * 10.0 + rng.normal(0, 0.2), rng.uniform(-5, 5)});
  const auto scores = laplacian_scores(data);
  EXPECT_LT(scores[0], scores[1]);
}

TEST(LaplacianTest, ConstantFeatureScoresWorst) {
  earsonar::Rng rng(11);
  Matrix data;
  for (int i = 0; i < 40; ++i)
    data.push_back({rng.normal(0, 1), 7.0});  // feature 1 constant
  const auto scores = laplacian_scores(data);
  EXPECT_GT(scores[1], scores[0]);
}

TEST(LaplacianTest, SelectBestOrdersAscending) {
  const std::vector<double> scores{0.5, 0.1, 0.9, 0.3};
  const auto best = select_best_features(scores, 2);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0], 1u);
  EXPECT_EQ(best[1], 3u);
}

TEST(LaplacianTest, ProjectFeatures) {
  const std::vector<double> row{10, 20, 30, 40};
  const std::vector<std::size_t> selected{3, 0};
  const auto projected = project_features(row, selected);
  EXPECT_EQ(projected, (std::vector<double>{40, 10}));
}

TEST(LaplacianTest, ProjectOutOfRangeThrows) {
  const std::vector<double> row{1, 2};
  EXPECT_THROW(project_features(row, {5}), std::invalid_argument);
}

TEST(LaplacianTest, SelectCountBounds) {
  const std::vector<double> scores{0.1, 0.2};
  EXPECT_THROW(select_best_features(scores, 0), std::invalid_argument);
  EXPECT_THROW(select_best_features(scores, 3), std::invalid_argument);
}

// The dense n x n formulation of the Laplacian score, kept here as the
// reference for the sparse kNN-graph implementation. kNN ties follow the
// (distance, index) rule through stable_sort.
std::vector<double> dense_laplacian_scores(const Matrix& data, const LaplacianConfig& config) {
  const std::size_t n = data.size();
  const std::size_t d = data.front().size();
  const std::size_t k = std::min(config.neighbors, n - 1);
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      dist[i][j] = dist[j][i] = squared_distance(data[i], data[j]);

  std::vector<std::vector<std::size_t>> knn(n);
  double mean_knn_dist2 = 0.0;
  std::size_t knn_edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return dist[i][a] < dist[i][b]; });
    for (std::size_t j = 0; j < n && knn[i].size() < k; ++j) {
      if (order[j] == i) continue;
      knn[i].push_back(order[j]);
      mean_knn_dist2 += dist[i][order[j]];
      ++knn_edges;
    }
  }
  mean_knn_dist2 = std::max(mean_knn_dist2 / static_cast<double>(knn_edges), 1e-12);
  const double t = config.heat_sigma * mean_knn_dist2;

  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j : knn[i]) {
      const double weight = std::exp(-dist[i][j] / t);
      w[i][j] = std::max(w[i][j], weight);
      w[j][i] = w[i][j];
    }

  std::vector<double> degree(n, 0.0);
  double total_degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) degree[i] += w[i][j];
    total_degree += degree[i];
  }

  std::vector<double> scores(d, std::numeric_limits<double>::max());
  for (std::size_t f = 0; f < d; ++f) {
    double weighted_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) weighted_mean += data[i][f] * degree[i];
    weighted_mean /= std::max(total_degree, 1e-12);
    double smoothness = 0.0;
    double variance = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double fi = data[i][f] - weighted_mean;
      variance += fi * fi * degree[i];
      for (std::size_t j = 0; j < n; ++j) {
        const double fj = data[j][f] - weighted_mean;
        smoothness += w[i][j] * (fi - fj) * (fi - fj);
      }
    }
    smoothness /= 2.0;
    if (variance > 1e-12) scores[f] = smoothness / variance;
  }
  return scores;
}

TEST(LaplacianTest, SparseGraphMatchesDenseReferenceBitwise) {
  struct Shape {
    std::size_t n, d, neighbors;
    double sigma, scale;
    bool constant_column, duplicate_rows;
  };
  const std::vector<Shape> shapes = {
      {2, 3, 5, 1.0, 1.0, false, false},     // neighbors > n - 1
      {3, 1, 2, 1.0, 1.0, false, false},     // neighbors == n - 1
      {5, 4, 1, 1.0, 1.0, false, false},
      {7, 6, 6, 0.5, 1.0, true, false},      // complete graph, constant column
      {13, 9, 5, 1.0, 1.0, false, true},     // exact distance ties
      {21, 17, 5, 1.0, 1.0, true, true},
      {33, 25, 4, 2.0, 3.0, false, false},
      {40, 11, 5, 1.5e-3, 100.0, false, false},  // zero, subnormal and normal weights
      {40, 11, 5, 1e-6, 100.0, false, false},    // every heat weight underflows to 0
      {47, 8, 3, 1.0, 1.0, false, true},
      {60, 105, 5, 1.0, 1.0, true, false},
  };
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    earsonar::Rng rng(seed++);
    Matrix data(s.n, std::vector<double>(s.d));
    for (auto& row : data)
      for (double& v : row) v = s.scale * rng.normal(0, 1);
    if (s.constant_column)
      for (auto& row : data) row[s.d / 2] = 3.5;
    if (s.duplicate_rows)
      for (std::size_t i = 1; i < s.n; i += 3) data[i] = data[i / 2];
    LaplacianConfig config;
    config.neighbors = s.neighbors;
    config.heat_sigma = s.sigma;
    const std::vector<double> expected = dense_laplacian_scores(data, config);
    const std::vector<double> actual = laplacian_scores(data, config);
    ASSERT_EQ(actual.size(), expected.size());
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(), actual.size() * sizeof(double)), 0)
        << "n=" << s.n << " d=" << s.d << " neighbors=" << s.neighbors;
  }
}

// ------------------------------------------------------------------ scaler

TEST(ScalerTest, TransformsToZeroMeanUnitVar) {
  earsonar::Rng rng(12);
  Matrix data;
  for (int i = 0; i < 200; ++i) data.push_back({rng.normal(5, 2), rng.normal(-3, 0.5)});
  StandardScaler scaler;
  scaler.fit(data);
  const Matrix scaled = scaler.transform(data);
  std::vector<double> col0, col1;
  for (const auto& row : scaled) {
    col0.push_back(row[0]);
    col1.push_back(row[1]);
  }
  EXPECT_NEAR(mean(col0), 0.0, 1e-9);
  EXPECT_NEAR(stddev(col0), 1.0, 1e-9);
  EXPECT_NEAR(mean(col1), 0.0, 1e-9);
}

TEST(ScalerTest, ConstantColumnMapsToZero) {
  const Matrix data{{3.0, 1.0}, {3.0, 2.0}, {3.0, 3.0}};
  StandardScaler scaler;
  scaler.fit(data);
  for (const auto& row : scaler.transform(data)) EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(ScalerTest, TransformBeforeFitThrows) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- logistic

TEST(LogisticTest, LearnsLinearlySeparableClasses) {
  const auto [data, truth] = four_blobs(25, 13);
  LogisticConfig cfg;
  cfg.classes = 4;
  cfg.epochs = 400;
  LogisticRegression model(cfg);
  model.fit(data, truth);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (model.predict(data[i]) == truth[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.98);
}

TEST(LogisticTest, ProbabilitiesSumToOne) {
  const auto [data, truth] = four_blobs(10, 14);
  LogisticRegression model;
  model.fit(data, truth);
  const auto p = model.predict_proba(data[0]);
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LogisticTest, LabelOutOfRangeThrows) {
  const Matrix x{{1, 2}, {3, 4}};
  const std::vector<std::size_t> y{0, 7};
  LogisticRegression model;
  EXPECT_THROW(model.fit(x, y), std::invalid_argument);
}

TEST(LogisticTest, PredictBeforeFitThrows) {
  LogisticRegression model;
  EXPECT_THROW((void)model.predict({1.0}), std::invalid_argument);
}

// -------------------------------------------------------------------- knn

TEST(KnnTest, ClassifiesBlobs) {
  const auto [data, truth] = four_blobs(20, 15);
  KnnClassifier knn(3);
  knn.fit(data, truth);
  EXPECT_EQ(knn.predict({0.1, 0.2}), 0u);
  EXPECT_EQ(knn.predict({9.8, 9.9}), 3u);
}

TEST(KnnTest, KLargerThanTrainingSetWorks) {
  const Matrix x{{0, 0}, {1, 1}};
  const std::vector<std::size_t> y{0, 0};
  KnnClassifier knn(10);
  knn.fit(x, y);
  EXPECT_EQ(knn.predict({0.5, 0.5}), 0u);
}

TEST(KnnTest, MatchesBruteForceVoting) {
  // Integer coordinates on a small grid make exact distance ties common;
  // the reference scans for the nearest unused sample, smaller index first.
  earsonar::Rng rng(16);
  Matrix x;
  std::vector<std::size_t> y;
  for (int i = 0; i < 40; ++i) {
    x.push_back({std::floor(rng.uniform(0, 5)), std::floor(rng.uniform(0, 5))});
    y.push_back(static_cast<std::size_t>(std::floor(rng.uniform(0, 3))));
  }
  for (std::size_t k : {1u, 2u, 4u, 7u}) {
    KnnClassifier knn(k);
    knn.fit(x, y);
    for (int q = 0; q < 25; ++q) {
      const std::vector<double> query{std::floor(rng.uniform(0, 5)),
                                      std::floor(rng.uniform(0, 5))};
      std::vector<bool> used(x.size(), false);
      std::vector<std::size_t> votes(3, 0);
      for (std::size_t m = 0; m < k; ++m) {
        std::size_t best = x.size();
        for (std::size_t i = 0; i < x.size(); ++i)
          if (!used[i] && (best == x.size() || squared_distance(x[i], query) <
                                                   squared_distance(x[best], query)))
            best = i;
        used[best] = true;
        votes[y[best]]++;
      }
      const auto expected = static_cast<std::size_t>(
          std::max_element(votes.begin(), votes.end()) - votes.begin());
      EXPECT_EQ(knn.predict(query), expected) << "k=" << k << " q=" << q;
    }
  }
}

TEST(KnnTest, ZeroKRejected) { EXPECT_THROW(KnnClassifier(0), std::invalid_argument); }

// --------------------------------------------------------------- hungarian

TEST(HungarianTest, IdentityCost) {
  const std::vector<std::vector<double>> cost{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
  const auto assignment = hungarian_min_cost(cost);
  EXPECT_EQ(assignment, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(HungarianTest, AntiDiagonalOptimal) {
  const std::vector<std::vector<double>> cost{{5, 1}, {1, 5}};
  const auto assignment = hungarian_min_cost(cost);
  EXPECT_EQ(assignment, (std::vector<std::size_t>{1, 0}));
}

TEST(HungarianTest, KnownThreeByThree) {
  // Classic example: optimal cost 5 with assignment 0->1, 1->0, 2->2.
  const std::vector<std::vector<double>> cost{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto assignment = hungarian_min_cost(cost);
  double total = 0;
  std::set<std::size_t> used;
  for (std::size_t r = 0; r < 3; ++r) {
    total += cost[r][assignment[r]];
    used.insert(assignment[r]);
  }
  EXPECT_EQ(used.size(), 3u);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(HungarianTest, NonSquareThrows) {
  const std::vector<std::vector<double>> cost{{1, 2}};
  EXPECT_THROW(hungarian_min_cost(cost), std::invalid_argument);
}

TEST(HungarianTest, ClusterMappingMaximizesAgreement) {
  // Cluster 0 is mostly label 2, cluster 1 mostly label 0, etc.
  const std::vector<std::vector<std::size_t>> counts{
      {1, 0, 9, 0}, {8, 1, 0, 0}, {0, 0, 1, 7}, {0, 9, 0, 1}};
  const auto mapping = best_cluster_to_label(counts);
  EXPECT_EQ(mapping, (std::vector<std::size_t>{2, 0, 3, 1}));
}

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, HandComputedConfusion) {
  ConfusionMatrix cm(2);
  cm.add(0, 0, 8);  // TN for class 1 viewpoint
  cm.add(0, 1, 2);
  cm.add(1, 0, 1);
  cm.add(1, 1, 9);
  EXPECT_EQ(cm.total(), 20u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 17.0 / 20.0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 9.0 / 11.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 9.0 / 10.0);
  const double p = 9.0 / 11.0, r = 0.9;
  EXPECT_NEAR(cm.f1(1), 2 * p * r / (p + r), 1e-12);
}

TEST(MetricsTest, FarFrrDefinitions) {
  ConfusionMatrix cm(2);
  cm.add(0, 0, 90);
  cm.add(0, 1, 10);  // 10 false acceptances of class 1
  cm.add(1, 0, 5);   // 5 false rejections of class 1
  cm.add(1, 1, 95);
  EXPECT_DOUBLE_EQ(cm.false_acceptance_rate(1), 0.10);
  EXPECT_DOUBLE_EQ(cm.false_rejection_rate(1), 0.05);
}

TEST(MetricsTest, EmptyClassGivesZeroNotNan) {
  ConfusionMatrix cm(3);
  cm.add(0, 0, 5);
  EXPECT_DOUBLE_EQ(cm.precision(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(2), 0.0);
}

TEST(MetricsTest, RowNormalizedRowsSumToOne) {
  ConfusionMatrix cm(3);
  cm.add(0, 0, 3);
  cm.add(0, 1, 1);
  cm.add(1, 1, 2);
  cm.add(2, 2, 5);
  const auto rn = cm.row_normalized();
  for (std::size_t r = 0; r < 3; ++r) {
    double sum = 0;
    for (double v : rn[r]) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12) << r;
  }
}

TEST(MetricsTest, MergeAddsCounts) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0, 1);
  b.add(0, 0, 2);
  b.add(1, 0, 3);
  a.merge(b);
  EXPECT_EQ(a.at(0, 0), 3u);
  EXPECT_EQ(a.at(1, 0), 3u);
}

TEST(MetricsTest, ConfusionFromLabels) {
  const std::vector<std::size_t> truth{0, 1, 1, 0};
  const std::vector<std::size_t> pred{0, 1, 0, 0};
  const ConfusionMatrix cm = confusion_from_labels(truth, pred, 2);
  EXPECT_EQ(cm.at(1, 0), 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
}

TEST(MetricsTest, MacroAverages) {
  ConfusionMatrix cm(2);
  cm.add(0, 0, 10);
  cm.add(1, 1, 10);
  EXPECT_DOUBLE_EQ(cm.macro_precision(), 1.0);
  EXPECT_DOUBLE_EQ(cm.macro_recall(), 1.0);
  EXPECT_DOUBLE_EQ(cm.macro_f1(), 1.0);
}

// ---------------------------------------------------------------- crossval

TEST(CrossvalTest, LeaveOneGroupOutProducesOneSplitPerGroup) {
  const std::vector<std::size_t> groups{0, 0, 1, 1, 2, 2};
  const auto splits = leave_one_group_out(groups);
  ASSERT_EQ(splits.size(), 3u);
  for (const Split& s : splits) {
    EXPECT_EQ(s.test.size(), 2u);
    EXPECT_EQ(s.train.size(), 4u);
    // Train and test must not overlap.
    for (std::size_t t : s.test)
      EXPECT_EQ(std::find(s.train.begin(), s.train.end(), t), s.train.end());
  }
}

TEST(CrossvalTest, LeaveOneGroupOutTestGroupIsPure) {
  const std::vector<std::size_t> groups{5, 7, 5, 7, 9};
  for (const Split& s : leave_one_group_out(groups)) {
    std::set<std::size_t> test_groups;
    for (std::size_t idx : s.test) test_groups.insert(groups[idx]);
    EXPECT_EQ(test_groups.size(), 1u);
  }
}

TEST(CrossvalTest, SingleGroupThrows) {
  const std::vector<std::size_t> groups{3, 3, 3};
  EXPECT_THROW(leave_one_group_out(groups), std::invalid_argument);
}

TEST(CrossvalTest, KFoldCoversEverySampleExactlyOnce) {
  const auto splits = k_fold(20, 4, 77);
  ASSERT_EQ(splits.size(), 4u);
  std::vector<int> seen(20, 0);
  for (const Split& s : splits)
    for (std::size_t idx : s.test) seen[idx]++;
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(CrossvalTest, KFoldTrainTestDisjoint) {
  for (const Split& s : k_fold(15, 3, 5)) {
    for (std::size_t t : s.test)
      EXPECT_EQ(std::find(s.train.begin(), s.train.end(), t), s.train.end());
    EXPECT_EQ(s.train.size() + s.test.size(), 15u);
  }
}

TEST(CrossvalTest, StratifiedSubsampleKeepsEveryClass) {
  std::vector<std::size_t> labels;
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 20; ++i) labels.push_back(c);
  const auto kept = stratified_subsample(labels, 0.25, 9);
  std::vector<int> per_class(4, 0);
  for (std::size_t idx : kept) per_class[labels[idx]]++;
  for (int c = 0; c < 4; ++c) EXPECT_EQ(per_class[c], 5) << c;
}

TEST(CrossvalTest, StratifiedSubsampleAtLeastOnePerClass) {
  const std::vector<std::size_t> labels{0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  const auto kept = stratified_subsample(labels, 0.1, 9);
  std::set<std::size_t> classes;
  for (std::size_t idx : kept) classes.insert(labels[idx]);
  EXPECT_EQ(classes.size(), 2u);
}

}  // namespace
}  // namespace earsonar::ml
