// Engine/Session: the stable serving surface of scalocate.
//
// An Engine loads one or more model artifacts (or adopts in-process trained
// locators) into a cipher-keyed registry and runs every model over ONE
// shared ThreadPool — a single deployment can serve AES-128, Clefia and
// Camellia models side by side, with per-request model selection by cipher.
// Sessions unify the three workloads that used to be three unrelated
// classes:
//
//   session.submit(trace)      whole-trace jobs with bounded-queue
//                              backpressure and cancellation
//                              (was CoLocator::locate / LocatorService)
//   session.open_stream()      push-based chunk ingestion with online
//                              Detection delivery via callback or poll
//                              (was StreamingLocator)
//
// Lifetime: Sessions, Streams and Jobs hold shared ownership of their model
// entry, so they stay valid even if the Engine replaces the model — but the
// Engine itself (its pool) must outlive every Session and Job, and a Stream
// only works while its Engine lives: a batched Stream's windows score on
// the pool, so ~Engine stops every batcher first, and a batched Stream
// left open fails (its feed()/finish() throw) instead of touching a dead
// pool. All Session methods are safe to call from multiple threads against
// one Engine; a single Stream is single-threaded like the StreamingLocator
// it wraps.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/locator_service.hpp"
#include "runtime/streaming_locator.hpp"
#include "runtime/window_batcher.hpp"

namespace scalocate::api {

using runtime::AdmissionPolicy;
using runtime::Detection;
/// The one serving config (runtime/locator_service.hpp); its `registry`
/// doc lists every instrument an Engine publishes.
using runtime::EngineConfig;
using runtime::StreamingConfig;
using runtime::SubmitOptions;

/// Instrument-name segment for a model: the cipher display name lowercased
/// with non-alphanumerics dropped ("AES-128" -> "aes128").
std::string metric_model_name(crypto::CipherId cipher);

/// Registry row describing one served model.
struct ModelInfo {
  crypto::CipherId cipher = crypto::CipherId::kAes128;
  std::string display_name;
  std::size_t n_inf = 0;
  std::size_t stride = 0;
  std::ptrdiff_t calibration_offset = 0;
};

namespace detail {
/// One registered model: the locator (owned or borrowed) plus its executor
/// over the engine's shared pool. Sessions share ownership of the entry.
/// `registry`/`stream_prefix` carry the engine's telemetry wiring to
/// streams opened later through a Session. `service_prefix` names the
/// service's instruments and fault site ("engine.<model>").
struct ModelEntry {
  ModelEntry(core::CoLocator&& loc, runtime::ThreadPool& pool,
             const EngineConfig& cfg, std::string service_prefix)
      : owned(std::move(loc)),
        locator(&*owned),
        registry(cfg.registry),
        service(*locator, pool, cfg, std::move(service_prefix)) {}
  ModelEntry(const core::CoLocator& loc, runtime::ThreadPool& pool,
             const EngineConfig& cfg, std::string service_prefix)
      : locator(&loc),
        registry(cfg.registry),
        service(loc, pool, cfg, std::move(service_prefix)) {}

  std::optional<core::CoLocator> owned;
  const core::CoLocator* locator;
  obs::Registry* registry = nullptr;  ///< null = telemetry off
  std::string stream_prefix;          ///< e.g. "stream.aes128"
  runtime::LocatorService service;
  /// Cross-session window batcher (EngineConfig::max_batch_windows > 0);
  /// null = streams self-score (legacy path). Declared last so teardown
  /// joins the scheduler thread while the locator is still alive.
  std::unique_ptr<runtime::WindowBatcher> batcher;
};
}  // namespace detail

/// A cancellable whole-trace job. Move-only handle over the job's future
/// and cancel flag.
class Job {
 public:
  /// Requests cancellation. A job not yet started never runs and get()
  /// throws scalocate::Cancelled; a job already running completes normally.
  void cancel() { flag_->store(true); }
  bool cancel_requested() const { return flag_->load(); }

  /// Blocks for the result (rethrows the job's exception, if any).
  std::vector<std::size_t> get() { return future_.get(); }

 private:
  friend class Session;
  Job(runtime::LocatorService::CancelFlag flag,
      std::future<std::vector<std::size_t>> future)
      : flag_(std::move(flag)), future_(std::move(future)) {}

  runtime::LocatorService::CancelFlag flag_;
  std::future<std::vector<std::size_t>> future_;
};

/// Push-based chunk ingestion bound to one session's model. Detections are
/// delivered online, exactly as the offline pipeline would emit them:
/// through the callback when one is installed, otherwise returned from
/// feed()/finish() (poll style).
///
/// With batching on (EngineConfig::max_batch_windows > 0) the stream
/// routes through the model's runtime::WindowBatcher: feed() becomes a
/// wait-free ingest push plus an opportunistic result drain, and
/// detections surface asynchronously — a feed() may return detections
/// completed by earlier chunks, with the full set guaranteed by finish().
/// The DETECTIONS are bit-identical to the self-scoring path either way;
/// only the feed() call that happens to hand them over shifts.
class Stream {
 public:
  using Callback = std::function<void(const Detection&)>;

  /// Installs push delivery; feed()/finish() then return empty vectors.
  /// If the callback throws, delivery stops and the exception propagates;
  /// the detection being handled and every later one stay queued and are
  /// redelivered (at-least-once) by the next feed()/finish().
  void on_detection(Callback callback) { callback_ = std::move(callback); }

  std::vector<Detection> feed(std::span<const float> chunk);
  std::vector<Detection> finish();
  void reset();

  /// True when this stream scores through the model's shared batcher.
  bool batched() const { return batched_ != nullptr; }

  std::size_t samples_consumed() const {
    return batched_ ? batched_->samples_consumed()
                    : streaming_->samples_consumed();
  }
  std::size_t resident_samples() const {
    return batched_ ? batched_->resident_samples()
                    : streaming_->resident_samples();
  }
  float threshold() const {
    return batched_ ? batched_->threshold() : streaming_->threshold();
  }
  std::size_t median_k() const {
    return batched_ ? batched_->median_k() : streaming_->median_k();
  }

 private:
  friend class Session;
  Stream(std::shared_ptr<detail::ModelEntry> entry, StreamingConfig config);

  /// Hands queued detections to the callback (or returns them when none is
  /// installed). A detection leaves the queue only after its callback
  /// invocation returned, so a throw loses nothing.
  std::vector<Detection> deliver();

  std::shared_ptr<detail::ModelEntry> entry_;  ///< keeps the model alive
  StreamingConfig config_;  ///< kept so reset() can reopen the batched path
  std::unique_ptr<runtime::StreamingLocator> streaming_;  ///< legacy path
  std::shared_ptr<runtime::BatchedStream> batched_;       ///< batched path
  std::deque<Detection> pending_;  ///< finalized but not yet delivered
  Callback callback_;
};

/// Handle to one served model; cheap to copy, safe to share across threads.
class Session {
 public:
  /// Whole-trace job; the trace is moved in. At max_queue_depth the
  /// engine's AdmissionPolicy decides (default: block — backpressure).
  /// `options` carries the per-job failure-model knobs: a deadline or
  /// timeout after which the job fails with DeadlineExceeded instead of
  /// occupying a worker (see runtime::SubmitOptions).
  std::future<std::vector<std::size_t>> submit(std::vector<float> trace,
                                               SubmitOptions options = {});

  /// Whole-trace job over caller-owned samples (kept alive by the caller
  /// until the future resolves).
  std::future<std::vector<std::size_t>> submit_view(
      std::span<const float> trace, SubmitOptions options = {});

  /// Whole-trace job with a cancellation handle.
  Job submit_job(std::vector<float> trace, SubmitOptions options = {});

  /// Opens a push-based stream over this session's model.
  Stream open_stream(StreamingConfig config = {}) const;

  const core::CoLocator& locator() const { return *entry_->locator; }
  crypto::CipherId cipher() const {
    return entry_->locator->config().params.cipher;
  }

  /// This model's serving instruments (all-null when the engine was built
  /// without a telemetry registry).
  const runtime::ServiceMetrics& metrics() const {
    return entry_->service.metrics();
  }

  /// Blocks until every job submitted to this session's model so far has
  /// fully settled. A resolved future only proves the job's RESULT is
  /// ready; the service's accounting (completed count, queue_depth back to
  /// zero) lands moments later on the worker thread — call this before
  /// reading metrics() or a registry snapshot that must reconcile exactly.
  void drain() { entry_->service.drain(); }

 private:
  friend class Engine;
  explicit Session(std::shared_ptr<detail::ModelEntry> entry)
      : entry_(std::move(entry)) {}

  std::shared_ptr<detail::ModelEntry> entry_;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  /// Stops every model's batcher, replaced models' included (their open
  /// Streams fail), then drains every model's in-flight jobs.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Loads a versioned artifact (api/artifact) and registers the model
  /// under its cipher id, replacing any previous model for that cipher.
  /// Existing sessions keep serving the replaced model. Returns the cipher
  /// key for open_session().
  crypto::CipherId load_artifact(const std::string& path);

  /// Adopts an in-process trained locator (e.g. straight after train()).
  crypto::CipherId add_model(core::CoLocator&& locator);

  /// Serves a borrowed trained locator; the caller keeps ownership and must
  /// keep it alive for the engine's lifetime.
  crypto::CipherId attach_model(const core::CoLocator& locator);

  /// Opens a session bound to the model registered for `cipher`; throws
  /// InvalidArgument when none is registered.
  Session open_session(crypto::CipherId cipher) const;

  /// Convenience for single-model engines; throws unless exactly one model
  /// is registered.
  Session open_session() const;

  bool has_model(crypto::CipherId cipher) const;
  std::vector<ModelInfo> models() const;
  std::size_t worker_count() const { return pool_.worker_count(); }

  /// The telemetry registry this engine publishes into (null = off).
  obs::Registry* metrics_registry() const { return config_.registry; }
  /// Convenience snapshots of that registry; empty-document/placeholder
  /// output when telemetry is off.
  std::string telemetry_text() const;
  std::string telemetry_json() const;

 private:
  crypto::CipherId register_entry(std::shared_ptr<detail::ModelEntry> entry);

  EngineConfig config_;
  runtime::ThreadPool pool_;  ///< declared before the registry: entries
                              ///< (services) drain against it on teardown
  mutable std::mutex mutex_;
  std::map<crypto::CipherId, std::shared_ptr<detail::ModelEntry>> registry_;
  /// Every entry with a batcher that may still be alive, replaced ones
  /// too (a Stream keeps its entry): ~Engine stops their batchers.
  std::vector<std::weak_ptr<detail::ModelEntry>> batched_;
};

}  // namespace scalocate::api
