#include "runtime/window_batcher.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/parallel.hpp"
#include "runtime/fault_injector.hpp"

namespace scalocate::runtime {

BatchMetrics BatchMetrics::resolve(obs::Registry& registry,
                                   const std::string& prefix) {
  BatchMetrics m;
  m.coalesced_windows = &registry.counter(prefix + ".coalesced_windows");
  m.batches = &registry.counter(prefix + ".batches");
  m.flush_full = &registry.counter(prefix + ".flush_full");
  m.flush_linger = &registry.counter(prefix + ".flush_linger");
  m.flush_eof = &registry.counter(prefix + ".flush_eof");
  m.sessions = &registry.gauge(prefix + ".sessions");
  m.ingest_resident_samples =
      &registry.gauge(prefix + ".ingest_resident_samples");
  m.occupancy_windows = &registry.histogram(prefix + ".occupancy_windows");
  return m;
}

// ---------------------------------------------------------------------------
// BatchedStream
// ---------------------------------------------------------------------------

BatchedStream::BatchedStream(WindowBatcher& owner,
                             const core::CoLocator& locator,
                             const StreamingConfig& config)
    : owner_(owner),
      ingest_(kIngestCapacity),
      core_(locator, config),
      // The scoring core counts samples/windows/detections on the
      // scheduler thread; corruption is caught on the producer side, into
      // the same instrument the self-scoring path uses.
      check_(config.nan_policy,
             config.registry ? StreamMetrics::resolve(*config.registry,
                                                      config.metric_prefix)
                                   .corrupt_samples
                             : nullptr) {}

void BatchedStream::feed(std::span<const float> chunk) {
  detail::require(!finish_called_, "BatchedStream::feed after finish");
  if (failed_.load(std::memory_order_acquire)) rethrow_error();

  // Ring untouched on a rejected chunk: it never becomes part of the
  // stream, exactly as on the self-scoring path.
  const std::span<const float> data = check_.check(chunk);

  std::size_t offset = 0;
  while (true) {
    offset += ingest_.try_push(data.subspan(offset));
    owner_.notify();
    if (offset == data.size()) break;
    // Ring full: bounded-memory backpressure. Spin (never lock) until the
    // scheduler drains — or until the stream failed, which never drains.
    if (failed_.load(std::memory_order_acquire)) rethrow_error();
    std::this_thread::yield();
  }
}

void BatchedStream::poll(std::vector<Detection>& out) {
  bool failed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.insert(out.end(), ready_.begin(), ready_.end());
    ready_.clear();
    failed = error_ != nullptr;
  }
  // Rethrow AFTER draining: detections that became final before the
  // failure stay delivered (out already holds them).
  if (failed) rethrow_error();
}

std::vector<Detection> BatchedStream::finish() {
  detail::require(!finish_called_, "BatchedStream::finish called twice");
  finish_called_ = true;
  eof_requested_.store(true, std::memory_order_release);
  owner_.notify();

  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return eof_done_ || error_ != nullptr; });
  std::vector<Detection> out(ready_.begin(), ready_.end());
  ready_.clear();
  const std::exception_ptr error = error_;
  lock.unlock();
  if (error) std::rethrow_exception(error);
  return out;
}

void BatchedStream::rethrow_error() {
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
  throw Error("BatchedStream: stream failed");
}

// ---------------------------------------------------------------------------
// WindowBatcher
// ---------------------------------------------------------------------------

WindowBatcher::WindowBatcher(const core::CoLocator& locator, ThreadPool& pool,
                             const EngineConfig& config,
                             std::string metric_prefix)
    : locator_(locator), pool_(pool), config_(config) {
  locator_.classifier();  // throws when untrained
  detail::require(config_.max_batch_windows > 0,
                  "WindowBatcher: max_batch_windows must be > 0");
  ws_.lane(pool_.worker_count() - 1);  // grown once, before any tile runs
  if (config_.registry)
    metrics_ = BatchMetrics::resolve(*config_.registry, metric_prefix);
  scheduler_ = std::thread([this] { run(); });
}

WindowBatcher::~WindowBatcher() { stop(); }

void WindowBatcher::stop() {
  stop_.store(true, std::memory_order_relaxed);
  notify();
  if (scheduler_.joinable()) scheduler_.join();
}

std::shared_ptr<BatchedStream> WindowBatcher::open_stream(
    StreamingConfig config) {
  auto stream = std::shared_ptr<BatchedStream>(
      new BatchedStream(*this, locator_, config));
  {
    // Checked under the lock the scheduler's final fail_all() takes, so a
    // stream is either refused here or failed there, never left hanging.
    std::lock_guard<std::mutex> lock(streams_mutex_);
    detail::require(!stop_.load(std::memory_order_relaxed),
                    "WindowBatcher: open_stream after stop");
    streams_.push_back(stream);
  }
  if (metrics_.enabled()) metrics_.sessions->add();
  notify();
  return stream;
}

void WindowBatcher::notify() {
  work_.store(true, std::memory_order_release);
  wake_cv_.notify_one();
}

void WindowBatcher::deliver(BatchedStream& stream,
                            std::vector<Detection>& detections) {
  std::lock_guard<std::mutex> lock(stream.mutex_);
  stream.ready_.insert(stream.ready_.end(), detections.begin(),
                       detections.end());
}

void WindowBatcher::fail_stream(BatchedStream& stream,
                                std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(stream.mutex_);
    if (!stream.error_) stream.error_ = std::move(error);
  }
  stream.failed_.store(true, std::memory_order_release);
  stream.cv_.notify_all();
  // Discard whatever ingest is in flight so the producer-side spin (ring
  // full) cannot outlast the failed_ flag it checks.
  stream.ingest_.drain([](std::span<const float>) {});
}

void WindowBatcher::run() {
  // Wake cadence: the linger clamped to [200us, 2ms]. Producers notify on
  // every push, but the notify is lockless so a wakeup racing the wait can
  // be lost — the timed wait bounds that loss to one cadence period, and
  // an idle batcher at this cadence is invisible in a profile.
  auto cadence = batch_linger();
  if (cadence < std::chrono::microseconds(200))
    cadence = std::chrono::microseconds(200);
  if (cadence > std::chrono::milliseconds(2))
    cadence = std::chrono::milliseconds(2);

  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait_for(lock, cadence, [&] {
        return work_.load(std::memory_order_relaxed) ||
               stop_.load(std::memory_order_relaxed);
      });
    }
    work_.store(false, std::memory_order_relaxed);
    try {
      while (tick()) {
      }
    } catch (...) {
      // Scheduler-fatal (e.g. allocation failure mid-flush): fail every
      // open stream so no producer blocks forever; the batcher then keeps
      // serving the terminal error state.
      fail_all(std::current_exception());
    }
  }

  // Shutdown: one final pass completes any finish() already signalled;
  // anything still open afterwards is failed so nothing blocks forever.
  try {
    while (tick()) {
    }
  } catch (...) {
  }
  fail_all(std::make_exception_ptr(
      Error("WindowBatcher stopped while streams were still open")));
}

void WindowBatcher::fail_all(std::exception_ptr error) {
  std::vector<std::shared_ptr<BatchedStream>> live;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    for (auto& weak : streams_)
      if (auto s = weak.lock()) live.push_back(std::move(s));
  }
  for (auto& s : live) {
    bool terminal = false;
    {
      std::lock_guard<std::mutex> lock(s->mutex_);
      terminal = s->eof_done_ || s->error_ != nullptr;
    }
    if (!terminal) fail_stream(*s, error);
  }
}

void WindowBatcher::score_staged(std::size_t total) {
  constexpr std::size_t kTile = core::SlidingWindowClassifier::kScoreTile;
  const core::SlidingWindowClassifier& classifier = locator_.classifier();
  const nn::kernels::detail::Isa isa = nn::kernels::detail::active_isa();
  tiles_.clear();
  std::exception_ptr post_error;
  try {
    for (std::size_t first = 0; first < total; first += kTile)
      tiles_.push_back(pool_.submit([&, first](std::size_t worker) {
        // The scheduler's kernel tier, one core per tile.
        const nn::kernels::detail::IsaCapGuard cap(isa);
        const nn::kernels::IntraOpGuard intra(1);
        classifier.score_window_batch(
            std::min(kTile, total - first),
            [&](std::size_t row) { return rows_[first + row]; },
            scores_.data() + first, ws_.lane(worker));
      }));
  } catch (...) {
    post_error = std::current_exception();  // e.g. allocation failure
  }
  // No tile may outlive this frame: wait for all before any rethrow.
  for (auto& tile : tiles_) tile.wait();
  if (post_error) std::rethrow_exception(post_error);
  for (auto& tile : tiles_) tile.get();
}

bool WindowBatcher::tick() {
  // 1. Snapshot live streams; prune handles whose owners went away.
  live_.clear();
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (auto s = streams_[i].lock()) {
        live_.push_back(std::move(s));
        // Compact in place. The no-gap case would self-move-assign, which
        // empties a libstdc++ weak_ptr — skip it.
        if (kept != i) streams_[kept] = std::move(streams_[i]);
        ++kept;
      } else if (metrics_.enabled()) {
        metrics_.sessions->sub();
      }
    }
    streams_.resize(kept);
  }

  // 2. Drain every ingest ring into its stream's scoring core.
  std::size_t deepest = 0;
  for (auto& s : live_) {
    if (s->failed_.load(std::memory_order_relaxed)) continue;
    deepest = std::max(deepest, s->ingest_.size_approx());
    s->ingest_.drain([&](std::span<const float> part) {
      s->core_.append_ingested(part);
    });
    s->resident_.store(s->core_.resident_samples(),
                       std::memory_order_relaxed);
  }
  if (metrics_.enabled())
    metrics_.ingest_resident_samples->set(static_cast<std::int64_t>(deepest));

  // 3. Stage ready windows across all sessions, up to max_batch_windows.
  staged_.clear();
  std::size_t total = 0;
  bool more_ready = false;
  bool eof_staged = false;
  const std::size_t cap = config_.max_batch_windows;
  for (auto& s : live_) {
    if (s->failed_.load(std::memory_order_relaxed) || s->sched_eof_done_)
      continue;
    const std::size_t avail = s->core_.ready_windows();
    if (avail == 0) continue;
    if (total == cap) {
      more_ready = true;
      break;
    }
    // Per-stream chaos hook: an armed "batch.stage" fault fails THIS
    // stream only; its batchmates keep scoring, bit-identically.
    try {
      FaultInjector::instance().check("batch.stage");
    } catch (...) {
      fail_stream(*s, std::current_exception());
      continue;
    }
    const std::size_t take = std::min(avail, cap - total);
    staged_.push_back({s.get(), take});
    total += take;
    if (take < avail) more_ready = true;
    if (s->eof_requested_.load(std::memory_order_acquire)) eof_staged = true;
  }

  // 4. Flush policy: full beats eof beats linger.
  const auto now = std::chrono::steady_clock::now();
  if (total == 0) {
    linger_armed_ = false;
  } else if (!linger_armed_) {
    linger_armed_ = true;
    pending_since_ = now;
  }
  obs::Counter* reason = nullptr;
  bool flush = false;
  if (total > 0) {
    if (total == cap) {
      flush = true;
      reason = metrics_.flush_full;
    } else if (eof_staged || stop_.load(std::memory_order_relaxed)) {
      flush = true;
      reason = metrics_.flush_eof;
    } else if (now - pending_since_ >= batch_linger()) {
      flush = true;
      reason = metrics_.flush_linger;
    }
  }

  // 5. Flush: ONE shared score_window_batch call over every staged window,
  // then demux the scores back to their streams in staging order.
  if (flush) {
    rows_.clear();
    for (const Staged& st : staged_)
      for (std::size_t i = 0; i < st.count; ++i)
        rows_.push_back(st.stream->core_.ready_window(i));
    scores_.resize(total);
    score_staged(total);
    std::size_t offset = 0;
    for (const Staged& st : staged_) {
      dets_.clear();
      try {
        st.stream->core_.accept_scores({scores_.data() + offset, st.count},
                                       dets_);
      } catch (...) {
        offset += st.count;
        fail_stream(*st.stream, std::current_exception());
        continue;
      }
      offset += st.count;
      st.stream->resident_.store(st.stream->core_.resident_samples(),
                                 std::memory_order_relaxed);
      if (!dets_.empty()) deliver(*st.stream, dets_);
    }
    if (metrics_.enabled()) {
      metrics_.batches->add();
      metrics_.coalesced_windows->add(total);
      metrics_.occupancy_windows->record(total);
      reason->add();
    }
    linger_armed_ = false;
  }

  // 6. End-of-stream: once a finishing stream's ingest is fully drained
  // and every window scored, run the pipeline tail and wake its finish().
  bool eof_pending = false;
  for (auto& s : live_) {
    if (s->sched_eof_done_ || s->failed_.load(std::memory_order_relaxed))
      continue;
    if (!s->eof_requested_.load(std::memory_order_acquire)) continue;
    if (s->ingest_.size_approx() != 0 || s->core_.ready_windows() != 0) {
      eof_pending = true;  // the next tick drains/flushes the rest
      continue;
    }
    dets_.clear();
    try {
      s->core_.finish_into(dets_);
    } catch (...) {
      s->sched_eof_done_ = true;
      fail_stream(*s, std::current_exception());
      continue;
    }
    s->sched_eof_done_ = true;
    {
      std::lock_guard<std::mutex> lock(s->mutex_);
      s->ready_.insert(s->ready_.end(), dets_.begin(), dets_.end());
      s->eof_done_ = true;
    }
    s->cv_.notify_all();
  }

  return (flush && more_ready) || eof_pending;
}

}  // namespace scalocate::runtime
