// WindowBatcher: cross-session dynamic batching for the serving plane.
//
// Per-session scoring (StreamingLocator::feed) does one CNN forward pass
// per session per chunk; with thousands of trickle-fed sessions each pass
// carries a handful of windows and the batched-GEMM backend runs at
// batch-1 efficiency. The batcher turns window scoring into a shared,
// batched resource:
//
//   session threads        scheduler thread             engine pool
//   ---------------        ----------------             -----------
//   feed() -> SpscRing --> drain rings into each        one task per
//   (wait-free ingest,     stream's scoring core,       32-window tile,
//    never takes a lock)   stage ready windows     -->  queued FIFO with
//                          across ALL sessions,         whole-trace jobs:
//                          post the flush's tiles,      each runs the whole
//                          wait on a latch              network in the
//                     <--  demux scores per stream,     worker's workspace
//   poll()/finish()        advance each pipeline,       lane, intra-op
//                          deliver detections           budget 1
//
// Every flush scores through the model's one compiled classifier
// (CoLocator::classifier(), fetched per flush because restore_calibration
// rebuilds it): the batcher compiles no plan of its own, and neither do
// its streams' scoring cores, so whole-trace jobs, self-scoring streams
// and the batcher of one model share one plan. The batcher's settings are
// the batching fields of the engine's EngineConfig (max_batch_windows,
// batch_linger_us, registry).
//
// Every flush runs on the engine's ThreadPool, one task per tile: the
// batchers of every model and the whole-trace jobs share its `workers`
// threads through one FIFO queue, so the fleet plane has one executor and
// one width. The scheduler thread only stages, waits and demuxes.
//
// Flush policy: a staged batch is scored when it reaches
// `max_batch_windows` (full), when a stream that signalled end-of-stream
// has windows in it (eof — finish() never waits on the linger), or when
// `batch_linger` has elapsed since windows first became ready (linger —
// the latency bound a partially filled batch pays).
//
// Bit-identical by construction: score_window_batch standardizes and
// scores every row independently of its batch neighbors (the
// batch-composition invariance the offline/streaming parity suite proves),
// and each stream's scores are handed back to its own StreamingLocator
// core via accept_scores — the identical core::Segmenter the self-scoring
// and offline paths run. Detections therefore match the unbatched and
// offline paths exactly, for every interleaving of sessions and every
// batch composition; tests/test_fleet.cpp asserts this and bench_fleet
// exits nonzero on divergence.
//
// Failure isolation: a fault injected at the per-stream "batch.stage" site
// (or thrown by one stream's pipeline) fails THAT stream — its producer
// sees the typed error on its next feed()/poll()/finish() — while
// batchmates keep scoring, bit-identically.
//
// Threading contract: feed() is wait-free for the producer (one SPSC push;
// under ring backpressure it spins with yield, still lock-free).
// poll()/finish() take a short per-stream mutex to collect results — the
// cold path; samples never cross it. One thread per stream on the producer
// side (the SPSC contract); different streams may be fed from different
// threads concurrently. The batcher must outlive its streams' use, and
// stop() must run before its pool goes: the api::Engine owns the batcher
// inside the model entry every api::Stream keeps alive, and stops every
// batcher still alive before it destroys its pool, so a Stream that
// outlives its Engine fails instead of scoring on a dead pool.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/locator_service.hpp"
#include "runtime/spsc_ring.hpp"
#include "runtime/streaming_locator.hpp"
#include "runtime/thread_pool.hpp"

namespace scalocate::runtime {

class WindowBatcher;

/// Resolved batcher instrument set (README "Observability" lists them).
struct BatchMetrics {
  obs::Counter* coalesced_windows = nullptr;  ///< windows scored via flushes
  obs::Counter* batches = nullptr;            ///< shared batch flushes
  obs::Counter* flush_full = nullptr;         ///< flushes at max_batch_windows
  obs::Counter* flush_linger = nullptr;       ///< flushes forced by the linger
  obs::Counter* flush_eof = nullptr;          ///< flushes forced by finish()
  obs::Gauge* sessions = nullptr;             ///< attached streams (max = peak)
  /// Deepest per-stream ingest-ring occupancy seen last tick; the gauge max
  /// is the all-time ingest-ring high-watermark (backpressure proximity).
  obs::Gauge* ingest_resident_samples = nullptr;
  obs::Histogram* occupancy_windows = nullptr;  ///< windows per flushed batch

  bool enabled() const { return coalesced_windows != nullptr; }
  static BatchMetrics resolve(obs::Registry& registry,
                              const std::string& prefix);
};

/// One session's stream routed through a WindowBatcher. Created by
/// WindowBatcher::open_stream; the producer side (feed/poll/finish) is
/// single-threaded, the scoring side runs on the batcher's scheduler
/// thread.
class BatchedStream {
 public:
  /// Ingest ring capacity in samples. Bounds fleet memory: a full ring
  /// back-pressures its producer.
  static constexpr std::size_t kIngestCapacity = 4096;

  /// Pushes a chunk of samples into the ingest ring. Applies the stream's
  /// NanPolicy on the producer thread (kReject throws CorruptSignal with
  /// the ring untouched; kSanitize scrubs), then hands the samples to the
  /// scheduler wait-free. A full ring spins with yield until the scheduler
  /// drains (bounded-memory backpressure). Rethrows this stream's typed
  /// error if the scheduler failed it (fault injection, pipeline error).
  void feed(std::span<const float> chunk);

  /// Appends every detection finalized so far to `out` (detections arrive
  /// asynchronously, a flush after the chunk that completed them). Rethrows
  /// this stream's error after draining, so already-final detections are
  /// never lost to a later failure.
  void poll(std::vector<Detection>& out);

  /// Signals end-of-stream, blocks until the scheduler has scored every
  /// remaining window and drained the pipeline tail, and returns the
  /// remaining detections. The scheduler flushes eof windows immediately
  /// (never waits on the linger).
  std::vector<Detection> finish();

  // Asynchronous snapshots (safe from the producer thread; the scoring
  // side may be mid-tick).
  std::size_t samples_consumed() const {
    return static_cast<std::size_t>(ingest_.pushed());
  }
  std::size_t resident_samples() const {
    return resident_.load(std::memory_order_relaxed);
  }
  /// Non-finite samples seen by feed() (producer thread only).
  std::size_t corrupt_samples() const { return check_.corrupt_samples(); }
  std::size_t ingest_high_watermark() const {
    return ingest_.high_watermark();
  }
  float threshold() const { return core_.threshold(); }
  std::size_t median_k() const { return core_.median_k(); }

 private:
  friend class WindowBatcher;
  BatchedStream(WindowBatcher& owner, const core::CoLocator& locator,
                const StreamingConfig& config);

  [[noreturn]] void rethrow_error();

  WindowBatcher& owner_;
  SpscRing ingest_;

  // Scheduler-thread state: the scoring core and its bookkeeping. Touched
  // only by the batcher thread after open_stream returns.
  StreamingLocator core_;
  bool sched_eof_done_ = false;

  // Producer-thread state.
  IngestCheck check_;
  bool finish_called_ = false;

  // Cross-thread.
  std::atomic<bool> eof_requested_{false};
  std::atomic<bool> failed_{false};  ///< error_ published under mutex_
  std::atomic<std::size_t> resident_{0};

  // Result hand-off (cold path): the scheduler pushes finalized detections
  // and the terminal eof/error states under this mutex; cv wakes finish().
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Detection> ready_;
  std::exception_ptr error_;
  bool eof_done_ = false;
};

class WindowBatcher {
 public:
  /// `locator` must be trained and outlive the batcher; flushes score
  /// through its compiled classifier (fetched on each flush, never
  /// recompiled) on `pool`, which must outlive the batcher too (api::Engine
  /// hands every model's batcher its one shared pool). Reads the batching
  /// fields of `config`: max_batch_windows (must be > 0 here),
  /// batch_linger_us and registry. `metric_prefix` names the batcher's
  /// instruments in config.registry. Spawns the scheduler thread
  /// immediately.
  WindowBatcher(const core::CoLocator& locator, ThreadPool& pool,
                const EngineConfig& config,
                std::string metric_prefix = "batch");
  /// stop().
  ~WindowBatcher();

  WindowBatcher(const WindowBatcher&) = delete;
  WindowBatcher& operator=(const WindowBatcher&) = delete;

  /// Opens a stream whose windows are scored through the shared batch.
  /// `config` carries the same per-stream knobs as the self-scoring path
  /// (NanPolicy, threshold override, telemetry wiring).
  /// Throws once the batcher is stopped.
  std::shared_ptr<BatchedStream> open_stream(StreamingConfig config = {});

  /// Completes any finish() already signalled, fails every stream still
  /// attached (a blocked finish() wakes with the error; later feeds throw)
  /// and joins the scheduler thread, so the pool is never touched again.
  /// Idempotent; the owner of the pool calls it before the pool goes.
  void stop();

  const BatchMetrics& metrics() const { return metrics_; }
  std::size_t max_batch_windows() const { return config_.max_batch_windows; }
  std::chrono::microseconds batch_linger() const {
    return std::chrono::microseconds(config_.batch_linger_us);
  }

 private:
  friend class BatchedStream;

  /// Producer-side wakeup: a relaxed flag plus a notify, never a lock (the
  /// scheduler's timed wait bounds a lost wakeup by one linger period).
  void notify();

  void run();
  /// One scheduler pass: drain ingest rings, stage ready windows across
  /// sessions, flush per policy, process eofs. Returns true when it made
  /// progress that may have left more work ready (run again immediately).
  bool tick();
  void fail_stream(BatchedStream& stream, std::exception_ptr error);
  /// Fails every attached stream that is not already terminal (scheduler
  /// death, batcher teardown with open streams).
  void fail_all(std::exception_ptr error);
  void deliver(BatchedStream& stream, std::vector<Detection>& detections);
  /// Scores rows_[0, total) into scores_ as one pool task per 32-window
  /// tile and waits for all of them. Rethrows the first tile's error once
  /// every posted tile has finished.
  void score_staged(std::size_t total);

  const core::CoLocator& locator_;
  ThreadPool& pool_;
  /// Scoring scratch: lane w for the tiles pool worker w runs.
  nn::Workspace ws_;
  EngineConfig config_;
  BatchMetrics metrics_;

  std::mutex streams_mutex_;
  std::vector<std::weak_ptr<BatchedStream>> streams_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> work_{false};
  std::atomic<bool> stop_{false};

  // Scheduler-thread scratch.
  struct Staged {
    BatchedStream* stream;
    std::size_t count;
  };
  std::vector<std::shared_ptr<BatchedStream>> live_;
  std::vector<Staged> staged_;
  std::vector<std::span<const float>> rows_;
  std::vector<float> scores_;
  std::vector<std::future<void>> tiles_;
  std::vector<Detection> dets_;
  std::chrono::steady_clock::time_point pending_since_{};
  bool linger_armed_ = false;

  std::thread scheduler_;  ///< last member: started once state is ready
};

}  // namespace scalocate::runtime
