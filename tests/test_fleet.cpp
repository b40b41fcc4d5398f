// Fleet serving plane tests: SpscRing units + cross-thread stress, and
// WindowBatcher parity — N interleaved sessions (mixed chunk sizes, mixed
// ciphers, concurrent producers) must produce detections bit-identical to
// sequential single-session runs and to offline locate, batch composition
// and flush timing notwithstanding. Includes the FaultInjector isolation
// case (one session's injected fault must not poison its batchmates) and
// the batch/pool telemetry identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/spsc_ring.hpp"
#include "runtime/streaming_locator.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/window_batcher.hpp"
#include "trace/scenario.hpp"

namespace scalocate {
namespace {

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(runtime::SpscRing(1).capacity(), 64u);
  EXPECT_EQ(runtime::SpscRing(64).capacity(), 64u);
  EXPECT_EQ(runtime::SpscRing(65).capacity(), 128u);
  EXPECT_EQ(runtime::SpscRing(4096).capacity(), 4096u);
  EXPECT_EQ(runtime::SpscRing(5000).capacity(), 8192u);
}

TEST(SpscRing, FifoAcrossManyWraps) {
  // Mirrors the SampleRing::view overflow/wrap regression posture: the
  // monotonic head/tail accounting must survive many trips around the
  // physical buffer with uneven chunk sizes.
  runtime::SpscRing ring(64);  // minimal capacity: wraps constantly
  std::vector<float> out;
  std::size_t produced = 0;
  const std::size_t kTotal = 10000;
  std::size_t chunk_len = 1;
  while (produced < kTotal) {
    std::vector<float> chunk;
    const std::size_t n = std::min(chunk_len % 97 + 1, kTotal - produced);
    for (std::size_t i = 0; i < n; ++i)
      chunk.push_back(static_cast<float>(produced + i));
    std::size_t off = 0;
    while (off < chunk.size()) {
      off += ring.try_push(std::span<const float>(chunk).subspan(off));
      if (off < chunk.size())
        ring.drain([&](std::span<const float> part) {
          out.insert(out.end(), part.begin(), part.end());
        });
    }
    produced += n;
    chunk_len += 13;
  }
  ring.drain([&](std::span<const float> part) {
    out.insert(out.end(), part.begin(), part.end());
  });
  ASSERT_EQ(out.size(), kTotal);
  for (std::size_t i = 0; i < kTotal; ++i)
    ASSERT_FLOAT_EQ(out[i], static_cast<float>(i)) << "i=" << i;
  EXPECT_EQ(ring.pushed(), kTotal);
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_LE(ring.high_watermark(), ring.capacity());
  EXPECT_GT(ring.high_watermark(), 0u);
}

TEST(SpscRing, PartialAcceptAtCapacityNeverOverflows) {
  runtime::SpscRing ring(64);
  std::vector<float> big(1000, 1.0f);
  // A chunk larger than the whole ring is accepted as a capacity-sized
  // prefix, never silently dropped or overflowed.
  const std::size_t accepted = ring.try_push(big);
  EXPECT_EQ(accepted, ring.capacity());
  EXPECT_EQ(ring.size_approx(), ring.capacity());
  EXPECT_EQ(ring.try_push(big), 0u);  // full: zero accepted
  EXPECT_EQ(ring.high_watermark(), ring.capacity());
  std::size_t drained = 0;
  ring.drain([&](std::span<const float> part) { drained += part.size(); });
  EXPECT_EQ(drained, ring.capacity());
  EXPECT_EQ(ring.size_approx(), 0u);
  // Empty push is a no-op.
  EXPECT_EQ(ring.try_push({}), 0u);
}

TEST(SpscRing, CrossThreadStress) {
  // One producer, one consumer, minimal capacity, adversarial chunk sizes:
  // every sample must arrive exactly once, in order.
  runtime::SpscRing ring(256);
  const std::size_t kTotal = 1 << 18;
  std::vector<float> received;
  received.reserve(kTotal);
  std::atomic<bool> done{false};

  std::thread producer([&] {
    std::mt19937 rng(123);
    std::uniform_int_distribution<std::size_t> len(1, 700);
    std::vector<float> chunk;
    std::size_t sent = 0;
    while (sent < kTotal) {
      const std::size_t n = std::min(len(rng), kTotal - sent);
      chunk.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        chunk[i] = static_cast<float>(sent + i);
      std::size_t off = 0;
      while (off < n) {
        off += ring.try_push(std::span<const float>(chunk).subspan(off));
        if (off < n) std::this_thread::yield();
      }
      sent += n;
    }
    done.store(true);
  });

  while (!done.load() || ring.size_approx() != 0) {
    ring.drain([&](std::span<const float> part) {
      received.insert(received.end(), part.begin(), part.end());
    });
  }
  producer.join();
  ring.drain([&](std::span<const float> part) {
    received.insert(received.end(), part.begin(), part.end());
  });

  ASSERT_EQ(received.size(), kTotal);
  for (std::size_t i = 0; i < kTotal; ++i)
    ASSERT_FLOAT_EQ(received[i], static_cast<float>(i)) << "i=" << i;
  EXPECT_EQ(ring.pushed(), kTotal);
  EXPECT_LE(ring.high_watermark(), ring.capacity());
}

// ---------------------------------------------------------------------------
// ThreadPool telemetry
// ---------------------------------------------------------------------------

TEST(ThreadPoolMetrics, TasksAndQueueDepth) {
  obs::Registry registry;
  runtime::ThreadPool pool(2);
  pool.attach_metrics(registry);
  std::atomic<std::size_t> ran{0};
  for (int i = 0; i < 50; ++i)
    pool.post([&](std::size_t) { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 50u);
  EXPECT_EQ(registry.counter("pool.tasks").value(), 50u);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0);
  EXPECT_GE(registry.gauge("pool.queue_depth").max(), 1);
  EXPECT_LE(registry.gauge("pool.queue_depth").max(), 50);
}

// ---------------------------------------------------------------------------
// Fleet fixture: two trained models (mixed ciphers) + eval traces with
// offline references. Training budget is kept small — parity tests need
// determinism, not accuracy.
// ---------------------------------------------------------------------------

struct FleetModel {
  trace::ScenarioConfig sc;
  core::CoLocator* locator = nullptr;
  std::vector<trace::Trace> traces;
  std::vector<std::vector<std::size_t>> offline;  ///< locate() per trace
};

class Fleet : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    key_ = new crypto::Key16{};
    for (int i = 0; i < 16; ++i)
      (*key_)[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x40 + i);

    aes_ = train_model(crypto::CipherId::kAes128, 31, 192, 4);
    camellia_ = train_model(crypto::CipherId::kCamellia128, 32, 96, 2);
  }

  static void TearDownTestSuite() {
    delete aes_->locator;
    delete camellia_->locator;
    delete aes_;
    delete camellia_;
    delete key_;
  }

  static FleetModel* train_model(crypto::CipherId cipher, unsigned seed,
                                 std::size_t captures, std::size_t epochs) {
    auto* m = new FleetModel;
    m->sc.cipher = cipher;
    m->sc.random_delay = trace::RandomDelayConfig::kRd2;
    m->sc.seed = seed;
    auto acq = trace::acquire_cipher_traces(m->sc, captures, *key_);
    auto noise = trace::acquire_noise_trace(m->sc, 40000);
    core::LocatorConfig lc;
    lc.params = core::PipelineParams::defaults_for(cipher);
    lc.params.epochs = epochs;
    lc.params.threshold = 0.0f;  // fixed boundary: streaming parity
    lc.params.merge_gap_windows = 2;
    m->locator = new core::CoLocator(lc);
    m->locator->train(acq, noise);
    for (const std::size_t n_cos : {std::size_t{5}, std::size_t{8}, std::size_t{11}}) {
      m->traces.push_back(trace::acquire_eval_trace(m->sc, n_cos, *key_,
                                                    /*interleave=*/false));
      m->offline.push_back(m->locator->locate(m->traces.back().samples));
    }
    return m;
  }

  /// Feeds `samples` through one batched stream in `chunk`-sized pieces
  /// and returns every detection start.
  static std::vector<std::size_t> batched_starts(
      runtime::WindowBatcher& batcher, std::span<const float> samples,
      std::size_t chunk, runtime::StreamingConfig config = {}) {
    auto stream = batcher.open_stream(config);
    std::vector<runtime::Detection> dets;
    for (std::size_t off = 0; off < samples.size(); off += chunk) {
      const std::size_t n = std::min(chunk, samples.size() - off);
      stream->feed(samples.subspan(off, n));
      stream->poll(dets);
    }
    for (const auto& d : stream->finish()) dets.push_back(d);
    std::vector<std::size_t> starts;
    starts.reserve(dets.size());
    for (const auto& d : dets) starts.push_back(d.start);
    return starts;
  }

  /// The pool the direct WindowBatcher tests score on (an Engine hands
  /// its batchers its own).
  runtime::ThreadPool pool_{2};

  static crypto::Key16* key_;
  static FleetModel* aes_;
  static FleetModel* camellia_;
};

crypto::Key16* Fleet::key_ = nullptr;
FleetModel* Fleet::aes_ = nullptr;
FleetModel* Fleet::camellia_ = nullptr;

// ---------------------------------------------------------------------------
// Batched parity
// ---------------------------------------------------------------------------

TEST_F(Fleet, SingleStreamParityAcrossChunkSizes) {
  // Small max_batch_windows forces many multi-flush ticks; every chunking
  // must still match offline locate bit for bit.
  runtime::EngineConfig ec;
  ec.max_batch_windows = 16;
  ec.batch_linger_us = 100;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);
  const auto& samples = aes_->traces[1].samples;
  const auto& offline = aes_->offline[1];
  EXPECT_EQ(batched_starts(batcher, samples, 48), offline);
  EXPECT_EQ(batched_starts(batcher, samples, 1024), offline);
  EXPECT_EQ(batched_starts(batcher, samples, samples.size()), offline);
}

TEST_F(Fleet, InterleavedSessionsBitIdenticalToSequential) {
  // Six sessions over three distinct traces, fed round-robin with mixed
  // chunk sizes from ONE thread (deterministic interleaving): every
  // session's detections must equal its offline reference — i.e. the
  // batch composition (which mixes windows of all six streams into shared
  // GEMMs) must not leak between sessions.
  runtime::EngineConfig ec;
  ec.max_batch_windows = 32;
  ec.batch_linger_us = 200;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);

  constexpr std::size_t kSessions = 6;
  const std::size_t chunks[kSessions] = {97, 256, 513, 1024, 2048, 331};
  std::vector<std::shared_ptr<runtime::BatchedStream>> streams;
  std::vector<std::size_t> offsets(kSessions, 0);
  std::vector<std::vector<runtime::Detection>> dets(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s)
    streams.push_back(batcher.open_stream({}));

  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const auto& samples = aes_->traces[s % 3].samples;
      if (offsets[s] >= samples.size()) continue;
      const std::size_t n =
          std::min(chunks[s], samples.size() - offsets[s]);
      streams[s]->feed(
          std::span<const float>(samples).subspan(offsets[s], n));
      streams[s]->poll(dets[s]);
      offsets[s] += n;
      progress = true;
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (const auto& d : streams[s]->finish()) dets[s].push_back(d);
    std::vector<std::size_t> starts;
    for (const auto& d : dets[s]) starts.push_back(d.start);
    EXPECT_EQ(starts, aes_->offline[s % 3]) << "session " << s;
  }
}

TEST_F(Fleet, ConcurrentProducersBitIdentical) {
  // Each stream fed from its own thread: exercises the wait-free SPSC
  // hand-off and scheduler-side demux under real concurrency. Producer 0
  // feeds chunks longer than the ingest ring, so it must fill the ring and
  // spin until the scheduler drains (bounded-memory backpressure).
  runtime::EngineConfig ec;
  ec.max_batch_windows = 48;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);
  constexpr std::size_t kRing = runtime::BatchedStream::kIngestCapacity;
  ASSERT_GT(aes_->traces[0].samples.size(), 2 * kRing);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::size_t>> got(kThreads);
  std::vector<std::size_t> watermark(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto& samples = aes_->traces[t % 3].samples;
      auto stream = batcher.open_stream({});
      const std::size_t chunk = t == 0 ? 2 * kRing + 123 : 128 + 64 * t;
      std::vector<runtime::Detection> dets;
      for (std::size_t off = 0; off < samples.size(); off += chunk) {
        const std::size_t n = std::min(chunk, samples.size() - off);
        stream->feed(std::span<const float>(samples).subspan(off, n));
        stream->poll(dets);
      }
      for (const auto& d : stream->finish()) dets.push_back(d);
      for (const auto& d : dets) got[t].push_back(d.start);
      watermark[t] = stream->ingest_high_watermark();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(got[t], aes_->offline[t % 3]) << "producer " << t;
  EXPECT_EQ(watermark[0], kRing);
}

TEST_F(Fleet, JobsAndBatchedStreamsShareOneModel) {
  // Whole-trace jobs on the pool workers, two producer threads feeding
  // batched streams and the batcher's scheduler thread all score through
  // the one classifier the model compiled, at the same time. Every result
  // must still equal offline locate.
  api::EngineConfig ec;
  ec.workers = 2;
  ec.max_batch_windows = 32;
  api::Engine engine(ec);
  engine.attach_model(*aes_->locator);
  auto session = engine.open_session();

  constexpr std::size_t kProducers = 2;
  std::vector<std::vector<std::size_t>> streamed(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto& samples = aes_->traces[p + 1].samples;
      auto stream = session.open_stream();
      const std::size_t chunk = 300 + 200 * p;
      for (std::size_t off = 0; off < samples.size(); off += chunk) {
        const std::size_t n = std::min(chunk, samples.size() - off);
        for (const auto& d :
             stream.feed(std::span<const float>(samples).subspan(off, n)))
          streamed[p].push_back(d.start);
      }
      for (const auto& d : stream.finish()) streamed[p].push_back(d.start);
    });
  }
  std::vector<std::future<std::vector<std::size_t>>> jobs;
  for (std::size_t j = 0; j < 6; ++j)
    jobs.push_back(session.submit_view(aes_->traces[j % 3].samples));
  for (auto& p : producers) p.join();
  for (std::size_t j = 0; j < jobs.size(); ++j)
    EXPECT_EQ(jobs[j].get(), aes_->offline[j % 3]) << "job " << j;
  for (std::size_t p = 0; p < kProducers; ++p)
    EXPECT_EQ(streamed[p], aes_->offline[p + 1]) << "stream " << p;
}

TEST_F(Fleet, BatchedParityAcrossWorkerCounts) {
  // A flush runs as pool tasks, one per 32-window tile, next to
  // the whole-trace jobs. Whatever the pool's width, every stream must
  // equal offline locate, and the tiles must really reach the pool.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    obs::Registry registry;
    api::EngineConfig ec;
    ec.workers = workers;
    ec.max_batch_windows = 256;
    ec.batch_linger_us = 2000;
    ec.registry = &registry;
    api::Engine engine(ec);
    engine.attach_model(*aes_->locator);
    auto session = engine.open_session();

    constexpr std::size_t kSessions = 4;
    constexpr std::size_t kChunk = runtime::BatchedStream::kIngestCapacity;
    std::vector<api::Stream> streams;
    for (std::size_t s = 0; s < kSessions; ++s)
      streams.push_back(session.open_stream());
    auto job = session.submit_view(aes_->traces[0].samples);

    std::vector<std::vector<std::size_t>> got(kSessions);
    std::vector<std::size_t> offsets(kSessions, 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t s = 0; s < kSessions; ++s) {
        const auto& samples = aes_->traces[s % 3].samples;
        if (offsets[s] >= samples.size()) continue;
        const std::size_t n = std::min(kChunk, samples.size() - offsets[s]);
        for (const auto& d : streams[s].feed(
                 std::span<const float>(samples).subspan(offsets[s], n)))
          got[s].push_back(d.start);
        offsets[s] += n;
        progress = true;
      }
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (const auto& d : streams[s].finish()) got[s].push_back(d.start);
      EXPECT_FALSE(got[s].empty()) << workers << " workers, session " << s;
      EXPECT_EQ(got[s], aes_->offline[s % 3])
          << workers << " workers, session " << s;
    }
    EXPECT_EQ(job.get(), aes_->offline[0]) << workers << " workers";
    session.drain();

    EXPECT_GT(registry.histogram("batch.aes.occupancy_windows").snapshot().max,
              core::SlidingWindowClassifier::kScoreTile)
        << workers << " workers: no flush held two tiles";
    EXPECT_GT(registry.counter("pool.tasks").value(),
              registry.counter("engine.aes.completed").value())
        << workers << " workers: no tile ran on the pool";
  }
}

TEST_F(Fleet, BatchedFinishCompletesBehindAJob) {
  // One worker, held by a whole-trace job: the stream's tiles queue behind
  // it in the pool's FIFO, and finish() still returns every detection.
  runtime::FaultInjector::instance().reset();
  api::EngineConfig ec;
  ec.workers = 1;
  ec.max_batch_windows = 256;
  api::Engine engine(ec);
  engine.attach_model(*aes_->locator);
  auto session = engine.open_session();

  runtime::FaultSpec stall;
  stall.action = runtime::FaultSpec::Action::kStall;
  stall.stall = std::chrono::milliseconds(300);
  stall.times = 1;
  runtime::FaultInjector::instance().arm("engine.aes.job", stall);
  auto job = session.submit_view(aes_->traces[1].samples);
  while (runtime::FaultInjector::instance().injected("engine.aes.job") == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(job.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

  auto stream = session.open_stream();
  const auto& samples = aes_->traces[2].samples;
  std::vector<std::size_t> got;
  for (const auto& d : stream.feed(samples)) got.push_back(d.start);
  for (const auto& d : stream.finish()) got.push_back(d.start);
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, aes_->offline[2]);
  EXPECT_EQ(job.get(), aes_->offline[1]);
  runtime::FaultInjector::instance().reset();
}

TEST_F(Fleet, BatchedStreamOutlivingItsEngineFails) {
  // A batched Stream keeps its model entry, batcher included, but the
  // batcher scores on the Engine's pool: when the Engine goes, it stops
  // every batcher it made (a replaced model's too), and the Streams left
  // open fail instead of posting tiles to a destroyed pool.
  const auto& samples = aes_->traces[0].samples;
  const std::size_t half = samples.size() / 2;
  std::optional<api::Stream> replaced;
  std::optional<api::Stream> current;
  {
    api::EngineConfig ec;
    ec.workers = 2;
    ec.max_batch_windows = 256;
    api::Engine engine(ec);
    engine.attach_model(*aes_->locator);
    replaced.emplace(engine.open_session().open_stream());
    engine.attach_model(*aes_->locator);  // hot-swap: a new entry
    current.emplace(engine.open_session().open_stream());
    for (api::Stream* s : {&*replaced, &*current})
      s->feed(std::span<const float>(samples).first(half));
  }
  for (api::Stream* s : {&*replaced, &*current}) {
    EXPECT_THROW(s->feed(std::span<const float>(samples).subspan(half)),
                 Error);
    EXPECT_THROW(s->finish(), Error);
  }
}

TEST_F(Fleet, EngineMixedCipherBatchedParity) {
  // The full serving surface: a two-model Engine with batching on. Streams
  // of both ciphers interleave; each must match its model's offline
  // reference, and the batch/stream telemetry must reconcile.
  obs::Registry registry;
  api::EngineConfig ec;
  ec.workers = 2;
  ec.max_batch_windows = 24;
  ec.batch_linger_us = 200;
  ec.registry = &registry;
  api::Engine engine(ec);
  engine.attach_model(*aes_->locator);
  engine.attach_model(*camellia_->locator);

  auto aes_session = engine.open_session(crypto::CipherId::kAes128);
  auto cam_session = engine.open_session(crypto::CipherId::kCamellia128);
  auto s1 = aes_session.open_stream();
  auto s2 = cam_session.open_stream();
  auto s3 = aes_session.open_stream();
  EXPECT_TRUE(s1.batched());

  const auto& aes_samples = aes_->traces[0].samples;
  const auto& cam_samples = camellia_->traces[2].samples;
  std::vector<std::size_t> got1, got2, got3;
  auto drain = [](std::vector<std::size_t>& into,
                  const std::vector<runtime::Detection>& from) {
    for (const auto& d : from) into.push_back(d.start);
  };
  std::size_t o1 = 0, o2 = 0, o3 = 0;
  while (o1 < aes_samples.size() || o2 < cam_samples.size() ||
         o3 < aes_samples.size()) {
    if (o1 < aes_samples.size()) {
      const std::size_t n = std::min<std::size_t>(512, aes_samples.size() - o1);
      drain(got1, s1.feed(std::span<const float>(aes_samples).subspan(o1, n)));
      o1 += n;
    }
    if (o2 < cam_samples.size()) {
      const std::size_t n = std::min<std::size_t>(768, cam_samples.size() - o2);
      drain(got2, s2.feed(std::span<const float>(cam_samples).subspan(o2, n)));
      o2 += n;
    }
    if (o3 < aes_samples.size()) {
      const std::size_t n = std::min<std::size_t>(256, aes_samples.size() - o3);
      drain(got3, s3.feed(std::span<const float>(aes_samples).subspan(o3, n)));
      o3 += n;
    }
  }
  drain(got1, s1.finish());
  drain(got2, s2.finish());
  drain(got3, s3.finish());

  EXPECT_EQ(got1, aes_->offline[0]);
  EXPECT_EQ(got2, camellia_->offline[2]);
  EXPECT_EQ(got3, aes_->offline[0]);

  // Telemetry identities: every window scored for a model went through its
  // batcher (coalesced == stream windows_scored), every flush recorded one
  // occupancy sample, and every flush has exactly one reason.
  const std::uint64_t aes_windows =
      registry.counter("stream.aes.windows_scored").value();
  EXPECT_EQ(registry.counter("batch.aes.coalesced_windows").value(),
            aes_windows);
  EXPECT_GT(aes_windows, 0u);
  const auto batches = registry.counter("batch.aes.batches").value();
  EXPECT_EQ(registry.histogram("batch.aes.occupancy_windows").count(),
            batches);
  EXPECT_EQ(registry.counter("batch.aes.flush_full").value() +
                registry.counter("batch.aes.flush_linger").value() +
                registry.counter("batch.aes.flush_eof").value(),
            batches);
  EXPECT_GE(registry.gauge("batch.aes.sessions").max(), 2);
  EXPECT_GE(registry.gauge("batch.aes.ingest_resident_samples").max(), 0);
}

TEST_F(Fleet, DefaultEngineKeepsLegacyPath) {
  obs::Registry registry;
  api::EngineConfig ec;
  ec.workers = 1;
  ec.registry = &registry;
  api::Engine engine(ec);  // max_batch_windows defaults to 0 = off
  engine.attach_model(*aes_->locator);
  auto stream = engine.open_session().open_stream();
  EXPECT_FALSE(stream.batched());
  const auto& samples = aes_->traces[0].samples;
  std::vector<std::size_t> got;
  for (const auto& d : stream.feed(samples)) got.push_back(d.start);
  for (const auto& d : stream.finish()) got.push_back(d.start);
  EXPECT_EQ(got, aes_->offline[0]);
  // No batcher, no batch.* instruments.
  EXPECT_EQ(registry.render_json().find("batch."), std::string::npos);
}

// ---------------------------------------------------------------------------
// Failure isolation and flush policy
// ---------------------------------------------------------------------------

TEST_F(Fleet, InjectedFaultFailsOneStreamNotBatchmates) {
  runtime::FaultInjector::instance().reset();
  runtime::EngineConfig ec;
  ec.max_batch_windows = 32;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);

  constexpr std::size_t kStreams = 3;
  std::vector<std::shared_ptr<runtime::BatchedStream>> streams;
  for (std::size_t s = 0; s < kStreams; ++s)
    streams.push_back(batcher.open_stream({}));

  // Exactly one staging hit fails; which stream takes it depends on
  // scheduler timing, so assert on the count and on batchmate parity.
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kThrow;
  spec.times = 1;
  runtime::FaultInjector::instance().arm("batch.stage", spec);

  const auto& samples = aes_->traces[0].samples;
  std::size_t failures = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::vector<std::size_t> got;
    try {
      std::vector<runtime::Detection> dets;
      for (std::size_t off = 0; off < samples.size(); off += 512) {
        const std::size_t n = std::min<std::size_t>(512, samples.size() - off);
        streams[s]->feed(std::span<const float>(samples).subspan(off, n));
        streams[s]->poll(dets);
      }
      for (const auto& d : streams[s]->finish()) dets.push_back(d);
      for (const auto& d : dets) got.push_back(d.start);
      // A surviving stream is bit-identical despite a batchmate's fault.
      EXPECT_EQ(got, aes_->offline[0]) << "stream " << s;
    } catch (const runtime::InjectedFault&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(runtime::FaultInjector::instance().injected("batch.stage"), 1u);
  runtime::FaultInjector::instance().reset();
}

TEST_F(Fleet, LingerFlushesPartialBatch) {
  // A batch far below max_batch_windows must still flush once the linger
  // expires, without any further input.
  obs::Registry registry;
  runtime::EngineConfig ec;
  ec.max_batch_windows = 4096;  // never reached
  ec.batch_linger_us = 500;
  ec.registry = &registry;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);
  auto stream = batcher.open_stream({});

  const auto& params = aes_->locator->config().params;
  const std::size_t samples_for_4 = params.n_inf + 3 * params.stride;
  std::vector<float> chunk(samples_for_4);
  for (std::size_t i = 0; i < chunk.size(); ++i)
    chunk[i] = static_cast<float>(i % 17) * 0.1f - 0.8f;
  stream->feed(chunk);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.counter("batch.coalesced_windows").value() < 4 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(registry.counter("batch.coalesced_windows").value(), 4u);
  EXPECT_GE(registry.counter("batch.flush_linger").value(), 1u);
  EXPECT_EQ(registry.counter("batch.flush_full").value(), 0u);
  stream->finish();
}

TEST_F(Fleet, FinishFlushesWithoutWaitingForLinger) {
  // A huge linger must not delay finish(): eof forces the flush.
  obs::Registry registry;
  runtime::EngineConfig ec;
  ec.max_batch_windows = 4096;
  ec.batch_linger_us = 30000000;  // 30 s
  ec.registry = &registry;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);

  const auto& samples = aes_->traces[0].samples;
  const auto start = std::chrono::steady_clock::now();
  auto stream = batcher.open_stream({});
  stream->feed(samples);
  std::vector<std::size_t> got;
  for (const auto& d : stream->finish()) got.push_back(d.start);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(got, aes_->offline[0]);
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  EXPECT_GE(registry.counter("batch.flush_eof").value(), 1u);
}

TEST_F(Fleet, BatchedStreamRejectsNaNAtIngest) {
  runtime::EngineConfig ec;
  ec.max_batch_windows = 32;
  runtime::WindowBatcher batcher(*aes_->locator, pool_, ec);
  auto stream = batcher.open_stream({});  // default policy: kReject

  const auto& samples = aes_->traces[0].samples;
  const std::size_t half = samples.size() / 2;
  stream->feed(std::span<const float>(samples).subspan(0, half));
  std::vector<float> poisoned(64, std::numeric_limits<float>::quiet_NaN());
  EXPECT_THROW(stream->feed(poisoned), CorruptSignal);
  EXPECT_EQ(stream->corrupt_samples(), 64u);
  // The rejected chunk never entered the stream: parity over the accepted
  // samples holds.
  stream->feed(std::span<const float>(samples).subspan(half));
  std::vector<std::size_t> got;
  std::vector<runtime::Detection> dets;
  stream->poll(dets);
  for (const auto& d : stream->finish()) dets.push_back(d);
  for (const auto& d : dets) got.push_back(d.start);
  EXPECT_EQ(got, aes_->offline[0]);
}

TEST_F(Fleet, StreamResetReopensBatchedPath) {
  api::EngineConfig ec;
  ec.workers = 1;
  ec.max_batch_windows = 16;
  api::Engine engine(ec);
  engine.attach_model(*aes_->locator);
  auto stream = engine.open_session().open_stream();
  const auto& samples = aes_->traces[0].samples;
  std::vector<std::size_t> first, second;
  for (const auto& d : stream.feed(samples)) first.push_back(d.start);
  for (const auto& d : stream.finish()) first.push_back(d.start);
  stream.reset();
  for (const auto& d : stream.feed(samples)) second.push_back(d.start);
  for (const auto& d : stream.finish()) second.push_back(d.start);
  EXPECT_EQ(first, aes_->offline[0]);
  EXPECT_EQ(second, aes_->offline[0]);
}

}  // namespace
}  // namespace scalocate
