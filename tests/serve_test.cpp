// Serving-layer tests: streaming-vs-batch equivalence, backpressure,
// hot-swapping, and the concurrency primitives underneath. Built with the
// `serve` ctest label so the suite can be re-run under ThreadSanitizer
// (EARSONAR_SANITIZE=thread) to certify the engine's locking.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/ring_buffer.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

// A short but realistic recording (10 chirps, ~55 ms) shared by the suite.
audio::Waveform test_recording(std::uint64_t seed = 7) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

// Streaming sessions require causal filtering; the batch reference uses the
// same configuration so both paths run the identical pipeline.
core::PipelineConfig causal_config() {
  core::PipelineConfig cfg;
  cfg.preprocess.zero_phase = false;
  return cfg;
}

// A tiny valid model over the pipeline's 105-dim feature space.
core::DetectorModel tiny_model(double shift = 0.0) {
  core::DetectorModel model;
  const std::size_t dim = core::EarSonar(causal_config()).feature_dimension();
  model.scaler_mean.assign(dim, shift);
  model.scaler_std.assign(dim, 1.0);
  model.selected_features = {0, 1};
  model.centroids = {{-1.0, -1.0}, {1.0, 1.0}};
  model.cluster_to_state = {0, 2};
  return model;
}

// ------------------------------------------------------------ ring / queue

TEST(RingBufferTest, FifoOrderAndCapacity) {
  serve::RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_TRUE(ring.push(3));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(4));  // full: rejected, not resized
  EXPECT_EQ(ring[0], 1);
  EXPECT_EQ(ring[2], 3);
  EXPECT_EQ(ring.pop(), 1);
  EXPECT_TRUE(ring.push(4));  // wraps around
  EXPECT_EQ(ring.pop(), 2);
  EXPECT_EQ(ring.pop(), 3);
  EXPECT_EQ(ring.pop(), 4);
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.pop(), std::exception);
}

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  serve::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.try_push(3));
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  serve::BoundedQueue<int> queue(4);
  queue.try_push(1);
  queue.try_push(2);
  queue.close();
  EXPECT_FALSE(queue.try_push(3));  // closed: no new work
  int out = 0;
  EXPECT_TRUE(queue.pop(out));  // ...but queued work still drains
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out));  // closed and drained
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  serve::BoundedQueue<int> queue(1);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(queue.pop(out));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
}

TEST(BoundedQueueTest, ZeroCapacityIsRejectedAtConstruction) {
  // A zero-slot queue could never accept work — surfacing the misconfig at
  // construction beats a silent always-full queue. Same contract as the
  // underlying ring.
  EXPECT_THROW(serve::BoundedQueue<int> queue(0), std::exception);
  EXPECT_THROW(serve::RingBuffer<int> ring(0), std::exception);
}

TEST(BoundedQueueTest, ReopenRestoresServiceAfterClose) {
  serve::BoundedQueue<int> queue(2);
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(1));
  queue.reopen();
  EXPECT_FALSE(queue.closed());
  EXPECT_TRUE(queue.try_push(1));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
}

// The engine's shutdown contract: items the queue *accepted* before close()
// are never lost, no matter how the producers race the closer. Run with the
// serve label under TSan to certify the locking.
TEST(BoundedQueueTest, ConcurrentCloseNeverDropsAcceptedItems) {
  serve::BoundedQueue<int> queue(8);
  std::atomic<int> accepted{0};
  std::atomic<int> drained{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 200; ++i)
        if (queue.try_push(p * 1000 + i)) accepted.fetch_add(1);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      int out = 0;
      while (queue.pop(out)) drained.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();  // races the producers: late pushes are refused, not lost
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();  // pop() drains the backlog, then false
  EXPECT_EQ(accepted.load(), drained.load());
  EXPECT_EQ(queue.size(), 0u);
}

// The batching worker's linger pop must honor close() promptly and still
// drain every accepted item when close() races it mid-wait — a consumer
// parked in try_pop_until with a far deadline must wake on close, not sleep
// the deadline out, and nothing accepted may vanish. Run under TSan via the
// serve label.
TEST(BoundedQueueTest, TryPopUntilRacingCloseWakesAndDrains) {
  using SteadyClock = std::chrono::steady_clock;
  for (int round = 0; round < 8; ++round) {
    serve::BoundedQueue<int> queue(16);
    std::atomic<int> accepted{0};
    std::atomic<int> drained{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        int out = 0;
        for (;;) {
          // Far deadline: without the close() wakeup this would stall the
          // test; with it, the loop exits as soon as closed-and-drained.
          if (queue.try_pop_until(out, SteadyClock::now() +
                                           std::chrono::seconds(30))) {
            drained.fetch_add(1);
            continue;
          }
          if (queue.closed()) return;  // false + closed = drained, done
        }
      });
    }
    std::thread producer([&] {
      for (int i = 0; i < 50; ++i)
        if (queue.try_push(i)) accepted.fetch_add(1);
    });
    // Close at a jittered instant so different rounds hit the race at
    // different points: before, during, and after the producer's burst.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    queue.close();
    producer.join();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(accepted.load(), drained.load()) << "round " << round;
    EXPECT_EQ(queue.size(), 0u);
  }
}

// ----------------------------------------------------------------- metrics

TEST(LatencyHistogramTest, CountMeanPercentile) {
  serve::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ms(0.5), 0.0);
  for (int i = 0; i < 100; ++i) h.record(1.0);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_NEAR(h.mean_ms(), (100.0 + 1000.0) / 101.0, 0.5);
  // Bucketed percentiles are exact to a factor of sqrt(2).
  EXPECT_NEAR(h.percentile_ms(0.5), 1.0, 1.0);
  EXPECT_GT(h.percentile_ms(0.999), 500.0);
}

TEST(LatencyHistogramTest, InterpolatedPercentilesAreExactWithinBuckets) {
  serve::LatencyHistogram h;
  EXPECT_EQ(h.percentile_interpolated_ms(0.5), 0.0);  // empty: defined, 0
  for (int i = 0; i < 99; ++i) h.record(1.5);
  h.record(700.0);
  // 1.5 ms lives in bucket [1, 2): any quantile that resolves inside the
  // bucket interpolates within those bounds instead of snapping to sqrt(2).
  const double p50 = h.percentile_interpolated_ms(0.50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // The 700 ms outlier owns the top 1%: p999 must land in its bucket
  // [512, 1024), which the midpoint estimator also reports — but the
  // interpolated value is additionally monotone in the quantile.
  const double p99 = h.percentile_interpolated_ms(0.99);
  const double p999 = h.percentile_interpolated_ms(0.999);
  EXPECT_GE(p999, 512.0);
  EXPECT_LE(p999, 1024.0);  // hi edge inclusive: rank == last sample in bucket
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  // Out-of-range quantiles clamp instead of reading past the buckets.
  EXPECT_EQ(h.percentile_interpolated_ms(-1.0),
            h.percentile_interpolated_ms(0.0));
  EXPECT_EQ(h.percentile_interpolated_ms(2.0),
            h.percentile_interpolated_ms(1.0));
}

TEST(ServeMetricsTest, LatencyPercentileHelperReadsTotalStage) {
  serve::ServeMetrics metrics;
  EXPECT_EQ(metrics.latency_percentile(0.99), 0.0);
  for (int i = 0; i < 100; ++i) metrics.latency.total.record(4.0);
  const double p50 = metrics.latency_percentile(0.5);
  EXPECT_GE(p50, 2.0);  // 4 ms bucket is [4, 8)
  EXPECT_LE(p50, 8.0);
  EXPECT_LE(p50, metrics.latency_percentile(0.999));
  // The tail stat is exported alongside the existing ones.
  const std::string text = metrics.text_snapshot();
  EXPECT_NE(text.find("earsonar_serve_latency_ms{stage=\"total\",stat=\"p999\"}"),
            std::string::npos);
}

TEST(ServeMetricsTest, SnapshotListsEveryCounter) {
  serve::ServeMetrics metrics;
  metrics.accepted.fetch_add(3);
  metrics.latency.total.record(2.0);
  const std::string text = metrics.text_snapshot();
  EXPECT_NE(text.find("earsonar_serve_requests_accepted_total 3"), std::string::npos);
  EXPECT_NE(text.find("queue_full"), std::string::npos);
  EXPECT_NE(text.find("earsonar_serve_latency_count{stage=\"total\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("earsonar_serve_latency_ms{stage=\"total\",stat=\"p50\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------- registry

TEST(ModelRegistryTest, InstallSwapAndSnapshotIsolation) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.install(tiny_model(), "v1"), 1u);
  const auto held = registry.current();
  EXPECT_EQ(registry.install(tiny_model(1.0), "v2"), 2u);
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(registry.source(), "v2");
  // The pointer taken before the swap still reads the old model.
  EXPECT_EQ(held->scaler_mean[0], 0.0);
  EXPECT_EQ(registry.current()->scaler_mean[0], 1.0);
}

TEST(ModelRegistryTest, BrokenInstallKeepsCurrentModel) {
  serve::ModelRegistry registry;
  registry.install(tiny_model(), "good");
  core::DetectorModel bad = tiny_model();
  bad.centroids[0][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(registry.install(std::move(bad), "bad"), std::runtime_error);
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.source(), "good");
}

// ---------------------------------------------- streaming/batch equivalence

TEST(StreamingSessionTest, BitIdenticalToBatchAtEveryChunkSize) {
  const audio::Waveform recording = test_recording();
  const core::EarSonar batch_pipeline(causal_config());
  const core::EchoAnalysis batch = batch_pipeline.analyze(recording);
  ASSERT_TRUE(batch.usable());

  const std::size_t chunks[] = {1, 64, 480, 4800, recording.size()};
  for (std::size_t chunk : chunks) {
    SCOPED_TRACE("chunk size " + std::to_string(chunk));
    serve::StreamingConfig sc;
    sc.pipeline = causal_config();
    serve::StreamingSession session(sc);
    std::span<const double> samples = recording.view();
    for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
      const std::size_t len = std::min(chunk, samples.size() - pos);
      ASSERT_EQ(session.feed(samples.subspan(pos, len)),
                serve::FeedStatus::kAccepted);
    }
    const core::EchoAnalysis stream = session.finish();

    // Same events, same echoes, bit-identical features: chunked causal
    // filtering commutes with concatenation, and finalization shares the
    // batch code path.
    ASSERT_EQ(stream.events.size(), batch.events.size());
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
      EXPECT_EQ(stream.events[i].start, batch.events[i].start);
      EXPECT_EQ(stream.events[i].end, batch.events[i].end);
    }
    ASSERT_EQ(stream.echoes.size(), batch.echoes.size());
    for (std::size_t i = 0; i < batch.echoes.size(); ++i) {
      EXPECT_EQ(stream.echoes[i].peak_index, batch.echoes[i].peak_index);
      EXPECT_EQ(stream.echoes[i].direct_peak_index,
                batch.echoes[i].direct_peak_index);
    }
    ASSERT_EQ(stream.features.size(), batch.features.size());
    for (std::size_t i = 0; i < batch.features.size(); ++i)
      EXPECT_EQ(stream.features[i], batch.features[i]) << "feature " << i;

    // Identical features imply the identical diagnosis under any model.
    const core::DetectorModel model = tiny_model();
    const core::Diagnosis a = model.predict(batch.features);
    const core::Diagnosis b = model.predict(stream.features);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.distance, b.distance);
  }
}

TEST(StreamingSessionTest, RejectPolicyRefusesOverflowWithoutStateChange) {
  serve::StreamingConfig sc;
  sc.pipeline = causal_config();
  sc.max_buffered_samples = 2048;
  serve::StreamingSession session(sc);
  const std::vector<double> chunk(1500, 0.0);
  EXPECT_EQ(session.feed(chunk), serve::FeedStatus::kAccepted);
  EXPECT_EQ(session.feed(chunk), serve::FeedStatus::kRejected);
  EXPECT_EQ(session.samples_fed(), 1500u);
  EXPECT_EQ(session.rejected_chunks(), 1u);
  EXPECT_FALSE(session.truncated());
}

TEST(StreamingSessionTest, EvictPolicyKeepsTail) {
  serve::StreamingConfig sc;
  sc.pipeline = causal_config();
  sc.max_buffered_samples = 2048;
  sc.overflow = serve::StreamingConfig::OverflowPolicy::kEvictOldest;
  serve::StreamingSession session(sc);
  const std::vector<double> chunk(1500, 0.0);
  EXPECT_EQ(session.feed(chunk), serve::FeedStatus::kAccepted);
  EXPECT_EQ(session.feed(chunk), serve::FeedStatus::kAccepted);
  EXPECT_EQ(session.samples_fed(), 3000u);
  EXPECT_EQ(session.samples_buffered(), 2048u);
  EXPECT_EQ(session.samples_dropped(), 952u);
  EXPECT_TRUE(session.truncated());
}

TEST(StreamingSessionTest, LifecycleErrors) {
  serve::StreamingConfig sc;  // defaults keep zero_phase = true
  EXPECT_THROW(serve::StreamingSession{sc}, std::exception);

  sc.pipeline = causal_config();
  serve::StreamingSession session(sc);
  EXPECT_THROW(session.finish(), std::exception);  // nothing fed
  session.feed(std::vector<double>(64, 0.0));
  session.finish();
  EXPECT_THROW(session.feed(std::vector<double>(1, 0.0)), std::exception);
  EXPECT_THROW(session.finish(), std::exception);  // finish twice
}

// ------------------------------------------------------------------ engine

serve::EngineConfig small_engine(std::size_t workers, std::size_t queue) {
  serve::EngineConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue;
  cfg.session.pipeline = causal_config();
  return cfg;
}

// An EarSonar upload with the engine's defaults for everything else.
serve::ServeRequest upload(std::string id, audio::Waveform recording) {
  serve::ServeRequest request;
  request.id = std::move(id);
  request.recording = std::move(recording);
  return request;
}

TEST(ServingEngineTest, DiagnosesMatchDirectPrediction) {
  const audio::Waveform recording = test_recording();
  const core::EarSonar batch_pipeline(causal_config());
  const core::EchoAnalysis batch = batch_pipeline.analyze(recording);
  const core::DetectorModel model = tiny_model();
  const core::Diagnosis direct = model.predict(batch.features);

  serve::ServingEngine engine(small_engine(2, 8));
  engine.registry().install(tiny_model(), "test");
  engine.start();
  serve::Submission sub = engine.submit(upload("r0", recording));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  const serve::ServeResult result = sub.result.get();
  engine.stop();

  EXPECT_TRUE(result.error.empty()) << result.error;
  ASSERT_TRUE(result.usable);
  ASSERT_TRUE(result.diagnosis.has_value());
  EXPECT_EQ(result.diagnosis->state, direct.state);
  EXPECT_EQ(result.diagnosis->distance, direct.distance);
  EXPECT_EQ(result.model_version, 1u);
  EXPECT_EQ(engine.metrics().completed.load(), 1u);
}

TEST(ServingEngineTest, FullQueueRejectsWithReasonAndDropsNothing) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 2));
  engine.registry().install(tiny_model(), "test");
  engine.start();

  // Slow, paced requests so the single worker falls behind: each request
  // sleeps between chunks like a live device upload.
  std::vector<std::future<serve::ServeResult>> accepted;
  std::size_t rejected = 0;
  std::string reason;
  for (int i = 0; i < 10; ++i) {
    serve::ServeRequest request;
    // Appended, not "r" + std::to_string(i): GCC 12 flags that operator+
    // with a false-positive -Wrestrict.
    request.id = "r";
    request.id += std::to_string(i);
    request.recording = recording;
    request.chunk_samples = recording.size() / 4 + 1;
    request.chunk_period_s = 0.02;
    serve::Submission sub = engine.submit(std::move(request));
    if (sub.accepted) {
      accepted.push_back(std::move(sub.result));
    } else {
      ++rejected;
      reason = sub.reason;
    }
  }
  ASSERT_GT(rejected, 0u);
  EXPECT_NE(reason.find("queue full"), std::string::npos) << reason;

  // Every accepted request completes — backpressure rejects, never drops.
  for (auto& future : accepted) {
    const serve::ServeResult result = future.get();
    EXPECT_TRUE(result.error.empty()) << result.error;
  }
  engine.stop();
  EXPECT_EQ(engine.metrics().accepted.load(), accepted.size());
  EXPECT_EQ(engine.metrics().completed.load(), accepted.size());
  EXPECT_EQ(engine.metrics().rejected_queue_full.load(), rejected);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(ServingEngineTest, SubmitWhileStoppedIsRejected) {
  serve::ServingEngine engine(small_engine(1, 4));
  serve::Submission sub = engine.submit(upload("r0", test_recording()));
  EXPECT_FALSE(sub.accepted);
  EXPECT_NE(sub.reason.find("not running"), std::string::npos);
  EXPECT_EQ(engine.metrics().rejected_stopped.load(), 1u);
}

TEST(ServingEngineTest, HotSwapChangesModelForLaterRequests) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(2, 8));
  engine.registry().install(tiny_model(), "v1");
  engine.start();

  serve::Submission first = engine.submit(upload("r0", recording));
  ASSERT_TRUE(first.accepted);
  const serve::ServeResult r0 = first.result.get();
  EXPECT_EQ(r0.model_version, 1u);

  EXPECT_EQ(engine.registry().install(tiny_model(1.0), "v2"), 2u);
  serve::Submission second = engine.submit(upload("r1", recording));
  ASSERT_TRUE(second.accepted);
  const serve::ServeResult r1 = second.result.get();
  EXPECT_EQ(r1.model_version, 2u);
  engine.stop();
}

TEST(ServingEngineTest, ConcurrentSubmittersAndSwapsStayConsistent) {
  // Stress the registry + queue + metrics under concurrency (the TSan
  // target): 3 submitter threads race a hot-swapper.
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(2, 16));
  engine.registry().install(tiny_model(), "v1");
  engine.start();

  std::vector<std::future<serve::ServeResult>> futures;
  std::mutex futures_mutex;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        serve::Submission sub =
            engine.submit(upload("t" + std::to_string(t) + "-" + std::to_string(i),
                                 recording));
        if (sub.accepted) {
          std::lock_guard<std::mutex> lock(futures_mutex);
          futures.push_back(std::move(sub.result));
        }
      }
    });
  }
  std::thread swapper([&] {
    for (int i = 0; i < 5; ++i) {
      engine.registry().install(tiny_model(static_cast<double>(i)), "swap");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : submitters) t.join();
  swapper.join();

  std::size_t completed = 0;
  for (auto& future : futures) {
    const serve::ServeResult result = future.get();
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_GE(result.model_version, 1u);
    ++completed;
  }
  engine.stop();
  EXPECT_EQ(engine.metrics().completed.load(), completed);
  const std::string snapshot = engine.metrics_snapshot();
  EXPECT_NE(snapshot.find("earsonar_serve_workers 2"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_model_version 6"), std::string::npos);
}

TEST(ServingEngineTest, StopDrainsAcceptedWorkAndRestarts) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 8));
  engine.registry().install(tiny_model(), "test");
  engine.start();
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < 4; ++i) {
    serve::Submission sub = engine.submit(upload("r" + std::to_string(i), recording));
    if (sub.accepted) futures.push_back(std::move(sub.result));
  }
  engine.stop();  // must drain, not drop
  for (auto& future : futures)
    EXPECT_TRUE(future.get().error.empty());

  engine.start();  // restart works
  serve::Submission sub = engine.submit(upload("again", recording));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  EXPECT_TRUE(sub.result.get().error.empty());
  engine.stop();
}

// ------------------------------------------------------------- chaos: faults
// and deadlines. These arm fault points / tight deadlines and assert the
// engine degrades exactly as documented — sheds, isolates, keeps serving.

TEST(ServingEngineChaosTest, ExpiredDeadlineIsShedWithoutPipelineWork) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 8));
  engine.registry().install(tiny_model(), "test");
  engine.start();

  // Occupy the lone worker with a paced request (~0.2 s of chunk arrivals)...
  serve::ServeRequest slow;
  slow.id = "slow";
  slow.recording = recording;
  slow.chunk_samples = 480;
  slow.chunk_period_s = 0.04;
  serve::Submission slow_sub = engine.submit(std::move(slow));
  ASSERT_TRUE(slow_sub.accepted) << slow_sub.reason;

  // ...so this 1 ms-deadline request is already stale when a worker finally
  // pops it, and must be shed at dequeue: no events, no chunks, just the
  // deadline_exceeded verdict.
  serve::ServeRequest doomed;
  doomed.id = "doomed";
  doomed.recording = recording;
  doomed.timeout_ms = 1.0;
  serve::Submission doomed_sub = engine.submit(std::move(doomed));
  ASSERT_TRUE(doomed_sub.accepted) << doomed_sub.reason;

  const serve::ServeResult shed = doomed_sub.result.get();
  EXPECT_TRUE(shed.deadline_exceeded);
  EXPECT_NE(shed.error.find("shed at dequeue"), std::string::npos) << shed.error;
  EXPECT_EQ(shed.events, 0u);
  EXPECT_FALSE(shed.usable);

  const serve::ServeResult slow_result = slow_sub.result.get();
  EXPECT_TRUE(slow_result.error.empty()) << slow_result.error;
  engine.stop();

  EXPECT_EQ(engine.metrics().deadline_exceeded.load(), 1u);
  EXPECT_EQ(engine.metrics().failed.load(), 0u);
  EXPECT_EQ(engine.metrics().completed.load(), 1u);
  const std::string snapshot = engine.metrics_snapshot();
  EXPECT_NE(snapshot.find("earsonar_serve_requests_deadline_exceeded_total 1"),
            std::string::npos);
}

TEST(ServingEngineChaosTest, MidIngestDeadlineCancelsBetweenChunks) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 4));
  engine.start();
  // The deadline expires while chunks are still arriving; the worker must
  // abandon the session at the next chunk boundary instead of finishing.
  serve::ServeRequest request;
  request.id = "late";
  request.recording = recording;
  request.chunk_samples = 480;
  request.chunk_period_s = 0.03;
  request.timeout_ms = 40.0;
  serve::Submission sub = engine.submit(std::move(request));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  const serve::ServeResult result = sub.result.get();
  engine.stop();
  EXPECT_TRUE(result.deadline_exceeded);
  EXPECT_EQ(std::string(result.error).rfind("deadline_exceeded", 0), 0u)
      << result.error;
  EXPECT_EQ(engine.metrics().deadline_exceeded.load(), 1u);
  EXPECT_EQ(engine.metrics().failed.load(), 0u);
}

TEST(ServingEngineChaosTest, StreamFeedFaultFailsOneRequestNotTheEngine) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 4));
  engine.registry().install(tiny_model(), "test");
  engine.start();
  {
    fault::ScopedFault guard("serve.stream.feed=nth:1");
    serve::Submission sub = engine.submit(upload("faulted", recording));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    const serve::ServeResult result = sub.result.get();
    EXPECT_NE(result.error.find("injected fault: serve.stream.feed"),
              std::string::npos)
        << result.error;
  }
  // The worker survives the injected failure and serves the next request.
  serve::Submission sub = engine.submit(upload("healthy", recording));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  const serve::ServeResult result = sub.result.get();
  engine.stop();
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(engine.metrics().failed.load(), 1u);
  EXPECT_EQ(engine.metrics().completed.load(), 1u);
}

// Inside one shared ingest pass the fault must land on the lane that owns
// it: with two whole uploads collected into one batch, `nth:1` fails the
// first lane's first chunk, and its lane-mate still answers exactly what
// in-process causal analyze() computes.
TEST(ServingEngineChaosTest, StreamFeedFaultInBatchFailsOnlyItsOwnLane) {
  const std::vector<audio::Waveform> recordings = {test_recording(7),
                                                   test_recording(8)};
  const core::EarSonar pipeline(causal_config());
  serve::EngineConfig cfg = small_engine(1, 4);
  cfg.batch_max = 4;
  cfg.batch_wait_us = 200000;  // the leader lingers until both are queued
  serve::ServingEngine engine(cfg);
  engine.start();
  std::vector<serve::ServeResult> results;
  {
    fault::ScopedFault guard("serve.stream.feed=nth:1");
    std::vector<std::future<serve::ServeResult>> futures;
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      serve::ServeRequest request;
      request.id = "r" + std::to_string(i);
      request.recording = recordings[i];
      serve::Submission sub = engine.submit(std::move(request));
      ASSERT_TRUE(sub.accepted) << sub.reason;
      futures.push_back(std::move(sub.result));
    }
    for (auto& future : futures) results.push_back(future.get());
  }
  engine.stop();
  ASSERT_EQ(engine.metrics().batches.load(), 1u) << "both uploads in one batch";
  EXPECT_EQ(engine.metrics().batched_requests.load(), 2u);

  std::size_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(results[i].id);
    if (!results[i].error.empty()) {
      ++failed;
      EXPECT_NE(results[i].error.find("injected fault: serve.stream.feed"),
                std::string::npos)
          << results[i].error;
      continue;
    }
    const core::EchoAnalysis want = pipeline.analyze(recordings[i]);
    ASSERT_TRUE(results[i].usable);
    ASSERT_EQ(results[i].features.size(), want.features.size());
    for (std::size_t f = 0; f < want.features.size(); ++f)
      EXPECT_EQ(results[i].features[f], want.features[f]) << "feature " << f;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(engine.metrics().failed.load(), 1u);
  EXPECT_EQ(engine.metrics().completed.load(), 1u);
}

TEST(ServingEngineChaosTest, QueuePushFaultLooksLikeBackpressure) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 8));
  engine.start();
  {
    fault::ScopedFault guard("serve.queue.push=always");
    serve::Submission sub = engine.submit(upload("rejected", recording));
    EXPECT_FALSE(sub.accepted);
    EXPECT_NE(sub.reason.find("queue full"), std::string::npos) << sub.reason;
  }
  serve::Submission sub = engine.submit(upload("accepted", recording));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  (void)sub.result.get();
  engine.stop();
  EXPECT_EQ(engine.metrics().rejected_queue_full.load(), 1u);
}

TEST(ServingEngineChaosTest, DegradedRequestCompletesAndIsCounted) {
  const audio::Waveform recording = test_recording();
  serve::ServingEngine engine(small_engine(1, 4));
  engine.registry().install(tiny_model(), "test");
  engine.start();
  serve::ServeResult result;
  {
    // Every 5th per-chirp segmentation throws inside the authoritative
    // finish() pass; the request must still complete, flagged degraded.
    fault::ScopedFault guard("pipeline.segment_chirp=every:5");
    serve::Submission sub = engine.submit(upload("degraded", recording));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    result = sub.result.get();
  }
  engine.stop();
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.quality.degraded);
  EXPECT_GT(result.quality.chirps_dropped, 0u);
  EXPECT_GT(result.quality.chirps_used, 0u);
  EXPECT_EQ(engine.metrics().degraded.load(), 1u);
  const std::string snapshot = engine.metrics_snapshot();
  EXPECT_NE(snapshot.find("earsonar_serve_requests_degraded_total 1"),
            std::string::npos);
}

}  // namespace
}  // namespace earsonar
