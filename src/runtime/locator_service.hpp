// LocatorService: concurrent CO localization over one shared model, with a
// failure model attached. It is the whole-trace job executor behind
// api::Engine, which builds one per registered model over its shared pool.
//
// Accepts whole-trace locate jobs and multiplexes them across a ThreadPool
// the caller owns. All workers share the service's trained CoLocator — the
// nn refactor made eval-mode forward passes const, so the model is never
// copied — while each worker owns a private nn::Workspace holding its
// activation scratch, and each job scores its windows on one core. Results
// come back as futures; exceptions inside a job propagate through the
// future.
//
// Jobs pass through a service-local queue before they reach the pool: the
// service dispatches at most one job per pool worker at a time, and
// everything else waits in the local queue where the failure policies can
// see it:
//
//   - deadlines (SubmitOptions::deadline / timeout): a job whose deadline
//     passes while it queues is rejected cheaply — its future throws
//     DeadlineExceeded before the job ever wastes a worker;
//   - admission control (EngineConfig::admission): at max_queue_depth the
//     service either blocks the submitter (kBlock, the legacy default),
//     fails fast with a synchronous Overloaded throw (kRejectWhenFull), or
//     sheds the queued job least likely to meet its deadline to make room
//     (kShedByDeadline — the victim's future throws Overloaded);
//   - a watchdog (EngineConfig::watchdog_p99_multiple): running jobs that
//     exceed a wall-clock multiple of the service's rolling p99 runtime
//     are flagged (watchdog_trips) — the signal that distinguishes a stuck
//     worker from a merely slow one.
//
// Applications go through api::Engine / api::Session, which add the model
// registry, artifact loading and streaming on top; constructing a service
// directly is for tests of the executor itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"

namespace scalocate::runtime {

/// What submit* does when the service is at max_queue_depth.
enum class AdmissionPolicy {
  /// Block the submitter until a slot frees (backpressure; the default and
  /// the pre-failure-model behavior). A blocked submit with a deadline
  /// gives up when the deadline passes (future throws DeadlineExceeded).
  kBlock,
  /// Fail fast: submit throws Overloaded synchronously. Nothing queues.
  kRejectWhenFull,
  /// Make room: evict the queued job least likely to meet its deadline
  /// (earliest deadline first; jobs without deadlines are evicted last).
  /// The victim's future throws Overloaded. When the incoming job itself
  /// has the tightest deadline — or nothing is queued to evict — the
  /// incoming job is the one shed (synchronous Overloaded throw).
  kShedByDeadline,
};

/// Per-job failure-model knobs, shared by every submit* flavor.
struct SubmitOptions {
  /// Absolute deadline. A job that has not COMPLETED by this point fails
  /// with DeadlineExceeded: immediately at submit when already past,
  /// cheaply at dispatch when it expires in the queue, or via the blocked
  /// submitter waking up (kBlock). A job already running is never aborted
  /// mid-flight (results stay bit-identical); its caller simply sees the
  /// result late.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Relative form of the same thing: resolved to now() + timeout at
  /// submit. When both are set the earlier one wins.
  std::optional<std::chrono::nanoseconds> timeout;
};

/// The one serving config: api::Engine's (re-exported as api::EngineConfig)
/// and, per model, the LocatorService's.
struct EngineConfig {
  /// Worker threads of the shared pool. 0 = hardware concurrency. Read by
  /// the pool's owner (api::Engine); a LocatorService and a WindowBatcher
  /// run on the pool they are handed, so this is the serving plane's one
  /// width: whole-trace jobs and batch tiles share these threads.
  std::size_t workers = 0;
  /// Per-model bound on in-flight whole-trace jobs. What happens at the
  /// bound is `admission`'s call (default: submit blocks — backpressure).
  /// 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Behavior at max_queue_depth, applied per model: kBlock (default,
  /// today's behavior), kRejectWhenFull (submit throws Overloaded), or
  /// kShedByDeadline (evict the queued job least likely to meet its
  /// deadline). See AdmissionPolicy and README "Failure model".
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Watchdog: flag (never kill) a running job once its wall clock exceeds
  /// this multiple of its model's rolling p99 runtime — the
  /// `watchdog_trips` counter distinguishes "stuck" from "slow". 0 = off.
  double watchdog_p99_multiple = 0.0;
  /// Completed jobs required before the watchdog trusts the p99 baseline.
  std::size_t watchdog_min_samples = 32;
  /// Cross-session dynamic batching — the fleet serving plane (README
  /// "Fleet serving"). 0 = off (default): every stream scores its own
  /// windows on its caller's thread, the legacy path. >0: each registered
  /// model gets a runtime::WindowBatcher, and streams opened through
  /// Sessions feed a wait-free ingest ring instead; the batcher coalesces
  /// up to this many ready windows across ALL of the model's sessions into
  /// one flush, whose 32-window tiles run as tasks on the shared pool
  /// (`workers` is the batchers' width too). Detections are bit-identical
  /// either way (batch composition cannot change a window's score), so the
  /// knob trades nothing but latency shape for fleet throughput.
  std::size_t max_batch_windows = 0;
  /// How long a partially filled batch may wait for more windows before it
  /// is flushed anyway — the added-latency bound a quiet fleet pays.
  /// Ignored when batching is off.
  std::uint64_t batch_linger_us = 200;
  /// Telemetry sink (must outlive the Engine). When set, every registered
  /// model gets per-model instruments — `engine.<model>.requests`,
  /// `.completed`, `.cancelled`, `.backpressure_blocks`, `.rejected`,
  /// `.shed`, `.deadline_exceeded`, `.watchdog_trips`, `.queue_depth`,
  /// `.queue_wait_ns`, `.latency_ns` (see ServiceMetrics) — and every
  /// stream opened through a Session gets `stream.<model>.samples_fed` /
  /// `.windows_scored` / `.detections` / `.emission_lag_samples`; the
  /// shared pool reports `pool.queue_depth` and `pool.tasks` (jobs and
  /// batch tiles alike); and with
  /// batching on, each model's batcher reports `batch.<model>.*` (see
  /// runtime::BatchMetrics). Null = telemetry off (zero overhead and no
  /// behavior change either way). Pass &obs::Registry::global() to publish
  /// into the process-wide registry.
  obs::Registry* registry = nullptr;
};

/// Resolved per-service instrument set (see README "Observability" for the
/// naming scheme). All pointers are either all set or all null.
struct ServiceMetrics {
  obs::Counter* requests = nullptr;       ///< every submit* call
  obs::Counter* completed = nullptr;      ///< accepted jobs finished (any outcome)
  obs::Counter* cancelled = nullptr;      ///< jobs cancelled before running
  obs::Counter* backpressure_blocks = nullptr;  ///< submits that had to wait
  obs::Counter* rejected = nullptr;       ///< submits refused at admission
  obs::Counter* shed = nullptr;           ///< queued jobs evicted to make room
  obs::Counter* deadline_exceeded = nullptr;  ///< jobs failed by deadline
  obs::Counter* watchdog_trips = nullptr;     ///< running jobs flagged stuck
  obs::Gauge* queue_depth = nullptr;      ///< in-flight jobs (queued+running)
  obs::Histogram* queue_wait_ns = nullptr;  ///< enqueue -> job start
  obs::Histogram* latency_ns = nullptr;     ///< enqueue -> job end (e2e)

  bool enabled() const { return requests != nullptr; }
  /// Registers the instrument set under `prefix` in `registry`.
  static ServiceMetrics resolve(obs::Registry& registry,
                                const std::string& prefix);
};

class LocatorService {
 public:
  /// Shared flag a caller sets to abandon a job it no longer needs. The
  /// flag is checked when the job is dispatched: a job cancelled before it
  /// starts never runs and its future throws scalocate::Cancelled. A job
  /// already running completes normally (cancel is then a no-op).
  using CancelFlag = std::shared_ptr<std::atomic<bool>>;

  /// `locator` must be trained; it and `pool` must outlive the service
  /// (api::Engine shares one pool across every registered model this way).
  /// `metric_prefix` names this service's instruments in config.registry
  /// and its fault-injection site "<metric_prefix>.job".
  LocatorService(const core::CoLocator& locator, ThreadPool& pool,
                 const EngineConfig& config,
                 std::string metric_prefix = "service");

  ~LocatorService();  ///< Blocks until in-flight jobs finish.

  LocatorService(const LocatorService&) = delete;
  LocatorService& operator=(const LocatorService&) = delete;

  /// Enqueues a locate job; the trace is moved into the job. At
  /// max_queue_depth the admission policy decides: blocks (kBlock), throws
  /// Overloaded (kRejectWhenFull), or sheds (kShedByDeadline — may also
  /// throw Overloaded when the incoming job is the victim). Deadline and
  /// shed failures of an ACCEPTED job surface through the future.
  std::future<std::vector<std::size_t>> submit(std::vector<float> trace,
                                               CancelFlag cancel = nullptr,
                                               SubmitOptions options = {});

  /// Enqueues a locate job over caller-owned samples. The caller must keep
  /// the memory alive until the future resolves; no copy is made.
  std::future<std::vector<std::size_t>> submit_view(std::span<const float> trace,
                                                    CancelFlag cancel = nullptr,
                                                    SubmitOptions options = {});

  /// The service's instrument set (all-null when constructed without a
  /// registry).
  const ServiceMetrics& metrics() const { return metrics_; }

  /// Blocks until every job accepted by THIS service has completed (on a
  /// shared pool, other services' jobs are not waited for).
  void drain();

  std::size_t worker_count() const { return pool_.worker_count(); }
  std::size_t max_queue_depth() const { return max_depth_; }
  std::size_t jobs_completed() const { return completed_.load(); }
  std::size_t jobs_submitted() const { return submitted_.load(); }
  // Failure-model accounting, maintained with or without telemetry (the
  // obs counters mirror these when a registry is wired).
  std::size_t jobs_rejected() const { return rejected_.load(); }
  std::size_t jobs_shed() const { return shed_.load(); }
  std::size_t jobs_deadline_exceeded() const { return deadline_exceeded_.load(); }
  std::size_t watchdog_trips() const { return watchdog_trips_.load(); }

 private:
  /// One accepted job, queued locally until dispatch. `fail` routes a typed
  /// error into the job's promise without running it; `run` produces the
  /// result on a pool worker (and owns the promise).
  struct JobRec {
    std::function<void(std::size_t worker)> run;
    std::function<void(std::exception_ptr)> fail;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    CancelFlag cancel;
    std::uint64_t enqueued_ns = 0;  ///< telemetry stamp (0 = telemetry off)
  };
  using JobPtr = std::shared_ptr<JobRec>;

  /// Resolves options.deadline/timeout into one absolute deadline.
  static std::optional<std::chrono::steady_clock::time_point> resolve_deadline(
      const SubmitOptions& options);

  /// Builds the JobRec (promise + type-erased run/fail) for a locate over
  /// `trace`, whose samples `keepalive` (if set) owns, then runs admission
  /// via enqueue().
  std::future<std::vector<std::size_t>> submit_impl(
      std::span<const float> trace, std::shared_ptr<const void> keepalive,
      CancelFlag cancel, const SubmitOptions& options);

  /// Admission + enqueue + dispatch for every submit flavor. May fail the
  /// job's promise with a typed error instead of queueing it
  /// (expired-at-submit, blocked-past-deadline), and throws Overloaded for
  /// synchronous admission rejections (kRejectWhenFull; kShedByDeadline
  /// when the incoming job is the victim).
  void enqueue(const JobPtr& job);

  /// Pops and dispatches queued jobs into the pool while fewer jobs run
  /// than the pool has workers; fails expired/cancelled jobs cheaply instead of
  /// dispatching them. Caller holds mutex_.
  void dispatch_locked();

  /// Evicts the queued job least likely to meet its deadline; returns true
  /// when a slot was freed. Caller holds mutex_.
  bool shed_one_locked(std::chrono::steady_clock::time_point incoming_deadline,
                       bool incoming_has_deadline);

  /// Terminal accounting for one accepted job. Caller holds mutex_.
  void finish_locked();

  /// Runs one dispatched job on a pool worker.
  void run_job(const JobPtr& job, std::size_t worker);

  void start_watchdog();
  void watchdog_loop();

  void record_queue_wait(std::uint64_t enqueued_ns) const {
    if (enqueued_ns != 0)
      metrics_.queue_wait_ns->record(obs::steady_now_ns() - enqueued_ns);
  }
  void record_latency(std::uint64_t enqueued_ns) const {
    if (enqueued_ns != 0)
      metrics_.latency_ns->record(obs::steady_now_ns() - enqueued_ns);
  }

  const core::CoLocator& locator_;
  ThreadPool& pool_;
  std::vector<nn::Workspace> scratch_;  ///< one per worker, index-addressed
  std::size_t max_depth_ = 0;
  AdmissionPolicy admission_ = AdmissionPolicy::kBlock;
  std::string fault_site_;  ///< "<metric_prefix>.job"

  std::mutex mutex_;
  std::condition_variable depth_cv_;    ///< a backpressure slot freed
  std::condition_variable drained_cv_;  ///< a job completed (drain watches)
  std::deque<JobPtr> queue_;   ///< accepted, not yet dispatched
  std::size_t in_flight_ = 0;  ///< queued + running (guarded by mutex_)
  std::size_t running_ = 0;    ///< dispatched into the pool (guarded)

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> deadline_exceeded_{0};
  std::atomic<std::size_t> watchdog_trips_{0};

  // Watchdog state: per-worker start stamp + job serial of the running job
  // (0 = idle), an always-on runtime histogram feeding the rolling p99,
  // and the scanning thread (spawned only when the watchdog is enabled).
  obs::Histogram runtime_ns_;
  std::atomic<std::uint64_t> job_serial_{0};
  std::vector<std::atomic<std::uint64_t>> worker_start_ns_;
  std::vector<std::atomic<std::uint64_t>> worker_job_serial_;
  std::vector<std::uint64_t> worker_flagged_serial_;  ///< watchdog thread only
  double watchdog_multiple_ = 0.0;
  std::size_t watchdog_min_samples_ = 32;
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  ServiceMetrics metrics_;  ///< all-null when telemetry is off
};

}  // namespace scalocate::runtime
