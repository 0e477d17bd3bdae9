// Stage-graph batching tests: cross-request batched execution must be
// bit-identical to per-request analysis at every batch size — including
// ragged lane tails, degraded lane-mates, and forced per-request fallback.
// Built with the `stagegraph` ctest label so the suite can be re-run under
// ASan/TSan (scripts/check_sanitize.sh) to certify the batched path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/stage_graph.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

// Realistic screening recordings (10 chirps each unless asked otherwise);
// distinct seeds give each "request" distinct audio so lane crosstalk would
// be visible.
audio::Waveform test_recording(std::uint64_t seed, std::size_t chirps = 10) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = chirps;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

core::PipelineConfig causal_config() {
  core::PipelineConfig cfg;
  cfg.preprocess.zero_phase = false;
  return cfg;
}

serve::StreamingConfig causal_stream_config() {
  serve::StreamingConfig sc;
  sc.pipeline = causal_config();
  return sc;
}

// Feed one whole recording into a fresh session (single chunk; chunking
// granularity is already pinned by StreamingSessionTest).
std::unique_ptr<serve::StreamingSession> fed_session(
    const audio::Waveform& recording) {
  auto session = std::make_unique<serve::StreamingSession>(causal_stream_config());
  EXPECT_EQ(session->feed(recording.view()), serve::FeedStatus::kAccepted);
  return session;
}

void expect_bit_identical(const core::EchoAnalysis& got,
                          const core::EchoAnalysis& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    EXPECT_EQ(got.events[i].start, want.events[i].start);
    EXPECT_EQ(got.events[i].end, want.events[i].end);
  }
  ASSERT_EQ(got.echoes.size(), want.echoes.size());
  for (std::size_t i = 0; i < want.echoes.size(); ++i) {
    EXPECT_EQ(got.echoes[i].event_start, want.echoes[i].event_start);
    EXPECT_EQ(got.echoes[i].peak_index, want.echoes[i].peak_index);
    EXPECT_EQ(got.echoes[i].direct_peak_index, want.echoes[i].direct_peak_index);
  }
  ASSERT_EQ(got.mean_spectrum.psd.size(), want.mean_spectrum.psd.size());
  for (std::size_t i = 0; i < want.mean_spectrum.psd.size(); ++i)
    EXPECT_EQ(got.mean_spectrum.psd[i], want.mean_spectrum.psd[i]) << "psd bin " << i;
  ASSERT_EQ(got.features.size(), want.features.size());
  for (std::size_t i = 0; i < want.features.size(); ++i)
    EXPECT_EQ(got.features[i], want.features[i]) << "feature " << i;
  EXPECT_EQ(got.quality.degraded, want.quality.degraded);
  EXPECT_EQ(got.quality.chirps_used, want.quality.chirps_used);
  ASSERT_EQ(got.quality.drops.size(), want.quality.drops.size());
  for (std::size_t i = 0; i < want.quality.drops.size(); ++i) {
    EXPECT_EQ(got.quality.drops[i].chirp, want.quality.drops[i].chirp);
    EXPECT_EQ(got.quality.drops[i].stage, want.quality.drops[i].stage);
  }
}

// ------------------------------------------------- stage graph bookkeeping

TEST(StageGraphTest, NamesCoverEveryStage) {
  using pipeline::StageId;
  EXPECT_EQ(pipeline::kStageCount, 6u);
  EXPECT_STREQ(pipeline::stage_name(StageId::kFilter), "filter");
  EXPECT_STREQ(pipeline::stage_name(StageId::kEventDetect), "event_detect");
  EXPECT_STREQ(pipeline::stage_name(StageId::kSegment), "segment");
  EXPECT_STREQ(pipeline::stage_name(StageId::kEchoPsd), "echo_psd");
  EXPECT_STREQ(pipeline::stage_name(StageId::kFeatures), "features");
  EXPECT_STREQ(pipeline::stage_name(StageId::kInference), "inference");
  EXPECT_EQ(pipeline::stage_names().size(), pipeline::kStageCount);
}

TEST(StageGraphTest, RecordAccumulatesAndSnapshotExportsEveryStage) {
  pipeline::StageGraph graph;
  graph.record(pipeline::StageId::kEchoPsd, 2.0, 8, true);
  graph.record(pipeline::StageId::kEchoPsd, 1.0, 1, false);
  const pipeline::StageStats& stats =
      graph.stats(pipeline::StageId::kEchoPsd);
  EXPECT_EQ(stats.items.load(), 9u);
  EXPECT_EQ(stats.passes.load(), 2u);
  EXPECT_EQ(stats.batched_items.load(), 8u);  // only the batched pass counts
  EXPECT_EQ(stats.busy_us.load(), 3000u);

  const std::string snapshot = graph.text_snapshot();
  for (const char* stage : pipeline::stage_names()) {
    const std::string label = std::string("{stage=\"") + stage + "\"}";
    EXPECT_NE(snapshot.find("earsonar_serve_stage_items" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_passes" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_batched_items" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_busy_ms" + label),
              std::string::npos) << stage;
  }
}

TEST(BoundedQueueTest, TryPopUntilReturnsItemOrTimesOut) {
  serve::BoundedQueue<int> queue(4);
  int out = 0;
  const auto past = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.try_pop_until(out, past));  // empty: gives up at deadline
  queue.try_push(7);
  EXPECT_TRUE(queue.try_pop_until(out, past));  // item ready: no wait needed
  EXPECT_EQ(out, 7);
  queue.close();
  EXPECT_FALSE(queue.try_pop_until(
      out, std::chrono::steady_clock::now() + std::chrono::seconds(1)));
}

// --------------------------------------- batched bit-identity, all sizes

// One batch of N requests through finish_many must match N independent
// finish() calls bit for bit. 10-chirp recordings make every size here a
// ragged x4 case within each request (10 % 4 != 0); size 3 is ragged in
// request count too.
TEST(StageGraphBatchTest, FinishManyBitIdenticalAtBatchSizes) {
  const std::size_t kDistinct = 6;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    recordings.push_back(test_recording(100 + i));
    baselines.push_back(fed_session(recordings.back())->finish());
    ASSERT_TRUE(baselines.back().usable());
  }

  const std::size_t sizes[] = {1, 2, 3, 4, 64};
  for (std::size_t n : sizes) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
    std::vector<serve::StreamingSession*> ptrs;
    for (std::size_t i = 0; i < n; ++i) {
      sessions.push_back(fed_session(recordings[i % kDistinct]));
      ptrs.push_back(sessions.back().get());
    }
    std::vector<CancelToken> cancels(n);
    pipeline::StageGraph graph;
    pipeline::BatchRunInfo info;
    std::vector<pipeline::BatchOutcome> outcomes =
        serve::StreamingSession::finish_many(ptrs, cancels, &graph, &info);
    ASSERT_EQ(outcomes.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ASSERT_TRUE(outcomes[i].ok());
      expect_bit_identical(outcomes[i].analysis, baselines[i % kDistinct]);
    }
    EXPECT_FALSE(info.forced_fallback);
    if (n >= 4) {
      // Enough echoes across requests to engage the shared x4 PSD pass.
      EXPECT_TRUE(info.psd_batched);
      EXPECT_GT(info.psd_lanes, 0u);
      const pipeline::StageStats& psd =
          graph.stats(pipeline::StageId::kEchoPsd);
      EXPECT_GT(psd.batched_items.load(), 0u);
    }
  }
}

// A request whose chirp is dropped by graceful degradation mid-batch must
// produce the exact degraded result of the unbatched path, and its
// lane-mates must be untouched. The fault counter is global and the batched
// path runs per-request segmentation in submission order, so the same
// `nth:` policy lands on the same chirp of the same request either way.
TEST(StageGraphBatchTest, DegradedRequestMatchesUnbatchedAndSparesLaneMates) {
  const std::size_t kRequests = 3;
  std::vector<audio::Waveform> recordings;
  for (std::size_t i = 0; i < kRequests; ++i)
    recordings.push_back(test_recording(200 + i));

  // nth:15 fires on the 15th segmented chirp overall — inside request 1
  // (requests hold 10 chirps each).
  std::vector<core::EchoAnalysis> baselines;
  {
    fault::ScopedFault guard("pipeline.segment_chirp=nth:15");
    for (const audio::Waveform& recording : recordings)
      baselines.push_back(fed_session(recording)->finish());
  }
  ASSERT_FALSE(baselines[0].quality.degraded);
  ASSERT_TRUE(baselines[1].quality.degraded);
  ASSERT_EQ(baselines[1].quality.drops.size(), 1u);
  ASSERT_FALSE(baselines[2].quality.degraded);

  std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
  std::vector<serve::StreamingSession*> ptrs;
  for (const audio::Waveform& recording : recordings) {
    sessions.push_back(fed_session(recording));
    ptrs.push_back(sessions.back().get());
  }
  std::vector<CancelToken> cancels(kRequests);
  fault::ScopedFault guard("pipeline.segment_chirp=nth:15");
  std::vector<pipeline::BatchOutcome> outcomes =
      serve::StreamingSession::finish_many(ptrs, cancels);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(outcomes[i].ok());
    expect_bit_identical(outcomes[i].analysis, baselines[i]);
  }
}

// The pipeline.batch fault point forces wholesale per-request fallback —
// the batched entry must still return every request's exact result.
TEST(StageGraphBatchTest, PipelineBatchFaultFallsBackPerRequest) {
  const std::size_t kRequests = 3;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(300 + i));
    baselines.push_back(fed_session(recordings.back())->finish());
  }

  std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
  std::vector<serve::StreamingSession*> ptrs;
  for (const audio::Waveform& recording : recordings) {
    sessions.push_back(fed_session(recording));
    ptrs.push_back(sessions.back().get());
  }
  std::vector<CancelToken> cancels(kRequests);
  fault::ScopedFault guard("pipeline.batch=always");
  pipeline::BatchRunInfo info;
  std::vector<pipeline::BatchOutcome> outcomes =
      serve::StreamingSession::finish_many(ptrs, cancels, nullptr, &info);
  EXPECT_TRUE(info.forced_fallback);
  EXPECT_FALSE(info.psd_batched);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(outcomes[i].ok());
    expect_bit_identical(outcomes[i].analysis, baselines[i]);
  }
}

// Offline analyze() and serving finish() run one walk, so a failed shared
// echo-PSD pass resolves the same way on both: the request recomputes its
// own PSDs once and, when that succeeds, stays undegraded. The pipeline and
// sessions are built before the fault is armed, because each construction
// runs one transform (set_reference).
TEST(StageGraphBatchTest, FailedSharedPsdPassRetriesOnceOnEveryPath) {
  const audio::Waveform recording = test_recording(900, 30);
  const core::EarSonar pipeline(causal_config());
  const core::EchoAnalysis clean = pipeline.analyze(recording);
  ASSERT_TRUE(clean.usable());
  std::unique_ptr<serve::StreamingSession> session = fed_session(recording);

  core::EchoAnalysis offline;
  {
    fault::ScopedFault guard("fft.execute=nth:1");
    offline = pipeline.analyze(recording);
  }
  core::EchoAnalysis streamed;
  {
    fault::ScopedFault guard("fft.execute=nth:1");
    streamed = session->finish();
  }
  EXPECT_FALSE(offline.quality.degraded);
  EXPECT_TRUE(offline.quality.drops.empty());
  expect_bit_identical(offline, clean);
  expect_bit_identical(streamed, offline);

  // Under the same fault, one batch of three equals three batches of one.
  const std::size_t kRequests = 3;
  std::vector<audio::Waveform> recordings;
  for (std::size_t i = 0; i < kRequests; ++i)
    recordings.push_back(test_recording(901 + i, 30));
  auto finish_in_batches = [&](std::size_t batch) {
    std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
    std::vector<serve::StreamingSession*> ptrs;
    for (const audio::Waveform& r : recordings) {
      sessions.push_back(fed_session(r));
      ptrs.push_back(sessions.back().get());
    }
    const std::vector<CancelToken> cancels(kRequests);
    fault::ScopedFault guard("fft.execute=nth:1");
    std::vector<pipeline::BatchOutcome> out;
    for (std::size_t i = 0; i < kRequests; i += batch)
      for (pipeline::BatchOutcome& outcome : serve::StreamingSession::finish_many(
               std::span(ptrs).subspan(i, batch),
               std::span(cancels).subspan(i, batch)))
        out.push_back(std::move(outcome));
    return out;
  };
  const std::vector<pipeline::BatchOutcome> together = finish_in_batches(kRequests);
  const std::vector<pipeline::BatchOutcome> alone = finish_in_batches(1);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(together[i].ok());
    ASSERT_TRUE(alone[i].ok());
    expect_bit_identical(together[i].analysis, alone[i].analysis);
  }
}

// One bad session (nothing fed) must fail alone; lane-mates still finish
// with exact results.
TEST(StageGraphBatchTest, EmptySessionFailsWithoutTakingDownLaneMates) {
  const audio::Waveform recording = test_recording(400);
  const core::EchoAnalysis baseline = fed_session(recording)->finish();

  std::unique_ptr<serve::StreamingSession> good = fed_session(recording);
  serve::StreamingSession empty(causal_stream_config());  // never fed
  std::vector<serve::StreamingSession*> ptrs = {good.get(), &empty};
  std::vector<CancelToken> cancels(2);
  std::vector<pipeline::BatchOutcome> outcomes =
      serve::StreamingSession::finish_many(ptrs, cancels);
  ASSERT_TRUE(outcomes[0].ok());
  expect_bit_identical(outcomes[0].analysis, baseline);
  EXPECT_FALSE(outcomes[1].ok());
}

// Each request's feature_ms carries its lane share of the shared echo_psd
// pass: over one batch the shares sum to the pass time, each share follows
// the request's chirp-window count, and a batch of one is charged the whole
// pass — what a lone analyze_filtered() reports inside its features stage.
TEST(StageGraphBatchTest, FeatureTimingChargesLaneShareOfSharedPsdPass) {
  const std::size_t sizes[] = {1, 3};
  for (std::size_t n : sizes) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
    std::vector<serve::StreamingSession*> ptrs;
    for (std::size_t i = 0; i < n; ++i) {
      sessions.push_back(fed_session(test_recording(700 + i)));
      ptrs.push_back(sessions.back().get());
    }
    std::vector<CancelToken> cancels(n);
    pipeline::BatchRunInfo info;
    const std::vector<pipeline::BatchOutcome> outcomes =
        serve::StreamingSession::finish_many(ptrs, cancels, nullptr, &info);
    ASSERT_TRUE(info.psd_batched);
    ASSERT_GT(info.psd_lanes, 0u);
    double share_sum = 0.0;
    for (const pipeline::BatchOutcome& outcome : outcomes) {
      ASSERT_TRUE(outcome.ok());
      const double echoes = static_cast<double>(outcome.analysis.echoes.size());
      EXPECT_DOUBLE_EQ(outcome.psd_share_ms,
                       info.psd_ms * echoes / static_cast<double>(info.psd_lanes));
      EXPECT_GE(outcome.analysis.timings.feature_ms, outcome.psd_share_ms);
      share_sum += outcome.psd_share_ms;
    }
    EXPECT_NEAR(share_sum, info.psd_ms, 1e-9 * (1.0 + info.psd_ms));
    if (n == 1) {
      EXPECT_DOUBLE_EQ(outcomes[0].psd_share_ms, info.psd_ms);
    }
  }
}

// ----------------------------------------------------- engine integration

// A batching engine (batch_max > 1) must return the same answers as a lone
// session's finish() and surface its batch passes in the metrics and
// stage-graph occupancy counters.
TEST(StageGraphEngineTest, BatchedEngineMatchesPerRequestResults) {
  const std::size_t kRequests = 4;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(500 + i));
    baselines.push_back(fed_session(recordings.back())->finish());
  }

  serve::EngineConfig cfg;
  cfg.workers = 1;  // one worker so every request rides one batch
  cfg.queue_capacity = 16;
  cfg.session.pipeline = causal_config();
  cfg.batch_max = kRequests;
  cfg.batch_wait_us = 200000;  // generous linger: the test submits fast
  serve::ServingEngine engine(cfg);
  engine.start();
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.recording = recordings[i];
    serve::Submission sub = engine.submit(std::move(request));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    futures.push_back(std::move(sub.result));
  }
  std::vector<serve::ServeResult> results;
  for (auto& future : futures) results.push_back(future.get());
  engine.stop();

  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(results[i].id);
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    ASSERT_TRUE(results[i].usable);
    ASSERT_EQ(results[i].features.size(), baselines[i].features.size());
    for (std::size_t f = 0; f < baselines[i].features.size(); ++f)
      EXPECT_EQ(results[i].features[f], baselines[i].features[f])
          << "feature " << f;
  }
  EXPECT_EQ(engine.metrics().completed.load(), kRequests);
  EXPECT_GE(engine.metrics().batches.load(), 1u);
  EXPECT_GE(engine.metrics().batched_requests.load(), 2u);
  const pipeline::StageStats& psd = engine.stage_graph().stats(
      pipeline::StageId::kEchoPsd);
  EXPECT_GT(psd.items.load(), 0u);

  const std::string snapshot = engine.metrics_snapshot();
  EXPECT_NE(snapshot.find("earsonar_serve_batch_max 4"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_batch_wait_us"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_batches_total"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_stage_items{stage=\"echo_psd\"}"),
            std::string::npos);
}

// batch_max 1 runs each request as a batch of one through the same code as
// wider batches, so the stage graph sees every stage, not only inference.
TEST(StageGraphEngineTest, BatchOfOneRecordsEveryStage) {
  serve::EngineConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.session.pipeline = causal_config();
  ASSERT_EQ(cfg.batch_max, 1u);
  serve::ServingEngine engine(cfg);
  core::DetectorModel model;
  const std::size_t dim = core::EarSonar(causal_config()).feature_dimension();
  model.scaler_mean.assign(dim, 0.0);
  model.scaler_std.assign(dim, 1.0);
  model.selected_features = {0, 1};
  model.centroids = {{-1.0, -1.0}, {1.0, 1.0}};
  model.cluster_to_state = {0, 2};
  engine.registry().install(std::move(model), "test");
  engine.start();
  serve::ServeRequest request;
  request.id = "solo";
  request.recording = test_recording(800);
  serve::Submission sub = engine.submit(std::move(request));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  const serve::ServeResult result = sub.result.get();
  engine.stop();
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_TRUE(result.diagnosis.has_value());

  for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
    const auto stage = static_cast<pipeline::StageId>(s);
    SCOPED_TRACE(pipeline::stage_name(stage));
    const pipeline::StageStats& stats = engine.stage_graph().stats(stage);
    EXPECT_GT(stats.passes.load(), 0u);
    EXPECT_EQ(stats.batched_items.load(), 0u);  // a batch of one shares nothing
  }
  EXPECT_EQ(engine.metrics().batches.load(), 0u);
}

// A shared echo-PSD pass that throws is retried per request and counted as
// one batch fallback: both whole uploads still return the undegraded,
// bit-identical answer of an in-process causal analyze().
TEST(StageGraphEngineTest, FailedSharedPsdPassCountsOneBatchFallback) {
  const std::size_t kRequests = 2;
  const core::EarSonar pipeline(causal_config());
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(1000 + i));
    baselines.push_back(pipeline.analyze(recordings.back()));
  }

  serve::EngineConfig cfg;
  cfg.workers = 1;  // one worker so both requests ride one batch
  cfg.queue_capacity = 16;
  cfg.session.pipeline = causal_config();
  cfg.batch_max = 4;
  cfg.batch_wait_us = 200000;  // generous linger: the test submits fast
  serve::ServingEngine engine(cfg);
  engine.start();
  // Each lane's session construction runs one transform (set_reference), so
  // transform kRequests + 1 is the first one inside the shared echo_psd pass.
  fault::ScopedFault guard("fft.execute=nth:" + std::to_string(kRequests + 1));
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.recording = recordings[i];
    serve::Submission sub = engine.submit(std::move(request));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    futures.push_back(std::move(sub.result));
  }
  std::vector<serve::ServeResult> results;
  for (auto& future : futures) results.push_back(future.get());
  engine.stop();

  EXPECT_EQ(engine.metrics().batched_requests.load(), kRequests);
  EXPECT_EQ(engine.metrics().batch_fallbacks.load(), 1u);
  EXPECT_NE(engine.metrics_snapshot().find("earsonar_serve_batch_fallbacks_total 1\n"),
            std::string::npos);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(results[i].id);
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    EXPECT_FALSE(results[i].quality.degraded);
    EXPECT_TRUE(results[i].quality.drops.empty());
    EXPECT_EQ(results[i].features, baselines[i].features);
  }
}

// Deadline-mid-linger shed: a request whose deadline expires while the batch
// leader lingers must be shed before pipeline work, flagged
// deadline_exceeded, while fresh lane-mates complete normally.
TEST(StageGraphEngineTest, ExpiredRequestIsShedBeforeBatchWork) {
  serve::EngineConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.session.pipeline = causal_config();
  cfg.batch_max = 4;
  cfg.batch_wait_us = 100000;  // 100 ms linger > the 5 ms deadline below
  serve::ServingEngine engine(cfg);

  serve::ServeRequest doomed;
  doomed.id = "doomed";
  doomed.recording = test_recording(600);
  doomed.timeout_ms = 5.0;
  serve::ServeRequest fresh;
  fresh.id = "fresh";
  fresh.recording = test_recording(601);

  // The worker pops `doomed` as batch leader, then lingers 100 ms for
  // stragglers — far past the 5 ms deadline. Admission after the linger must
  // shed it without running any pipeline work.
  engine.start();
  serve::Submission doomed_sub = engine.submit(std::move(doomed));
  serve::Submission fresh_sub = engine.submit(std::move(fresh));
  ASSERT_TRUE(doomed_sub.accepted) << doomed_sub.reason;
  ASSERT_TRUE(fresh_sub.accepted) << fresh_sub.reason;

  const serve::ServeResult doomed_result = doomed_sub.result.get();
  const serve::ServeResult fresh_result = fresh_sub.result.get();
  engine.stop();

  EXPECT_TRUE(doomed_result.deadline_exceeded);
  EXPECT_FALSE(doomed_result.usable);
  EXPECT_TRUE(fresh_result.error.empty()) << fresh_result.error;
  EXPECT_TRUE(fresh_result.usable);
  EXPECT_GE(engine.metrics().deadline_exceeded.load(), 1u);
}

}  // namespace
}  // namespace earsonar
