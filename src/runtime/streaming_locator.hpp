// StreamingLocator: push-based, bounded-memory CO localization.
//
// The offline CoLocator needs the whole trace in memory before it can
// score a single window. This runtime ingests the trace as arbitrary-size
// chunks (feed), keeps only a bounded tail of samples in a ring buffer,
// scores every window as soon as it is complete, and hands the scores to
// core::Segmenter — the same incremental machine CoLocator::locate runs to
// the end of the trace:
//
//   samples -> [ring] -> sliding CNN scores -> core::Segmenter (threshold,
//           median filter, rising edges, offset correction, fine template
//           alignment, sorted release, dedup) -> detections
//
// Scores come from the locator's own compiled classifier
// (CoLocator::classifier()), so opening a stream compiles no plan. Every
// chunk first passes IngestCheck, the NaN check the batched path
// (runtime::BatchedStream) runs too.
//
// Detections are emitted online, as soon as no future sample can change
// them, and are *identical* to CoLocator::locate on the concatenated
// stream (the parity is tested for chunk sizes from < one window up to the
// full trace). Two consequences of going online:
//
//   - the decision threshold must be fixed up front: Otsu over the whole
//     trace's score distribution is unavailable mid-stream, so automatic
//     (NaN) thresholds fall back to the one measured on the calibration
//     trace during training (CoLocator::calibrated_threshold);
//   - detections lag the stream head by the median-filter half-width plus
//     the fine-alignment search radius (a few hundred samples), the price
//     of emitting exactly what the offline pipeline would.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/ring_buffer.hpp"

namespace scalocate::runtime {

/// One located CO, emitted online.
using Detection = core::Detection;

struct StreamingConfig {
  /// What feed() does with a chunk containing non-finite samples (NaN/Inf
  /// — a dying probe, a truncated capture, an injected poison). Either
  /// way the corruption is counted (StreamMetrics::corrupt_samples,
  /// StreamingLocator::corrupt_samples()) and never reaches the model:
  /// unchecked, one NaN propagates through window standardization into
  /// every score of every window containing it.
  enum class NanPolicy {
    /// Throw CorruptSignal and leave the stream untouched: the bad chunk
    /// is not appended, and the caller may keep feeding clean chunks —
    /// detections then match the offline locate over the samples actually
    /// accepted. The default: corruption is loud.
    kReject,
    /// Replace each non-finite sample with 0.0f and continue. Detections
    /// match the offline locate over the sanitized stream.
    kSanitize,
  };
  NanPolicy nan_policy = NanPolicy::kReject;
  /// Decision threshold override. NaN = inherit: the locator's configured
  /// threshold when fixed, otherwise its calibration-trace Otsu threshold.
  float threshold = std::numeric_limits<float>::quiet_NaN();
  /// Telemetry sink. When set, the stream counts samples fed, windows
  /// scored and detections emitted, and records per-detection emission lag
  /// (stream head minus detection start, in samples) under `metric_prefix`.
  /// Pure observation: detections stay bit-identical to the offline path.
  /// Null = telemetry off. The registry must outlive the stream.
  obs::Registry* registry = nullptr;
  /// Instrument name prefix, e.g. "stream.aes128" (default "stream").
  std::string metric_prefix;
};

/// Resolved per-stream instrument set. Streams sharing a prefix (e.g. every
/// stream of one model) aggregate into the same instruments.
struct StreamMetrics {
  obs::Counter* samples_fed = nullptr;
  obs::Counter* windows_scored = nullptr;
  obs::Counter* detections = nullptr;
  /// Non-finite samples seen at feed() boundaries (rejected or sanitized
  /// per StreamingConfig::nan_policy; either way they never reach the
  /// model).
  obs::Counter* corrupt_samples = nullptr;
  /// Samples between the stream head and the detection start at the moment
  /// the detection became final — the online-emission price (median
  /// half-width + refinement radius, see the class comment).
  obs::Histogram* emission_lag_samples = nullptr;

  bool enabled() const { return samples_fed != nullptr; }
  static StreamMetrics resolve(obs::Registry& registry,
                               const std::string& prefix);
};

/// The check every chunk passes before it joins a stream, shared by both
/// stream paths: StreamingLocator::feed and runtime::BatchedStream::feed
/// (on the producer thread). It runs the "stream.feed" chaos hook, which
/// may NaN-poison the chunk upstream of validation so that injected
/// corruption is caught by the same scan as a real dying probe; counts the
/// non-finite samples (corrupt_samples() and the stream's
/// `.corrupt_samples` counter), and applies the NanPolicy.
class IngestCheck {
 public:
  /// `corrupt_samples` is the stream's telemetry counter (null = off).
  IngestCheck(StreamingConfig::NanPolicy policy,
              obs::Counter* corrupt_samples)
      : policy_(policy), counter_(corrupt_samples) {}

  /// Returns the samples to append: `chunk` itself, or the check's own
  /// scratch holding the poisoned and sanitized copy (valid until the next
  /// call). Under kReject a chunk with non-finite samples throws
  /// CorruptSignal after they are counted, so the caller appends nothing.
  std::span<const float> check(std::span<const float> chunk);

  /// Non-finite samples seen so far (rejected or sanitized).
  std::size_t corrupt_samples() const { return corrupt_; }
  void reset() { corrupt_ = 0; }

 private:
  StreamingConfig::NanPolicy policy_;
  obs::Counter* counter_;
  std::size_t corrupt_ = 0;
  std::vector<float> scratch_;  ///< poison / NaN-scrub copy
};

class StreamingLocator {
 public:
  /// `locator` must be trained and outlive this object. Windows are scored
  /// through the locator's own compiled classifier (fetched on each use,
  /// never copied or recompiled), so opening a stream compiles nothing.
  /// Each StreamingLocator owns its scratch workspace, so independent
  /// instances may run on separate threads against the same locator.
  explicit StreamingLocator(const core::CoLocator& locator,
                            StreamingConfig config = {});

  /// Pushes a chunk of samples; returns every detection that became final.
  /// A chunk with non-finite samples is handled per
  /// StreamingConfig::nan_policy: rejected with CorruptSignal (stream
  /// state untouched — keep feeding clean chunks) or sanitized to 0.0f.
  std::vector<Detection> feed(std::span<const float> chunk);

  /// Marks end-of-stream and flushes the remaining detections. feed() is
  /// invalid afterwards until reset().
  std::vector<Detection> finish();

  /// Forgets all stream state (keeps the model/config) for a new trace.
  void reset();

  // --- external scheduling (cross-session batching) ----------------------
  // The scoring-core half of the ingest/scoring split: a scheduler (see
  // runtime::WindowBatcher) appends pre-validated samples, asks how many
  // windows are ready, scores them TOGETHER with other sessions' windows
  // through one shared score_window_batch call, and hands the scores back.
  // Because every CNN row is computed independently of its batch neighbors
  // (the batch-composition invariance proven by the offline/streaming
  // parity suite), routing scores through accept_scores() yields
  // detections bit-identical to the self-scoring feed() path.
  //
  // All five methods below — like feed()/finish() — must be called from
  // one thread at a time (the scheduler thread); cross-thread hand-off of
  // raw samples is the ingest half's job (runtime::SpscRing).

  /// Appends pre-validated samples (NaN policy already applied by the
  /// ingest half) without scoring anything.
  void append_ingested(std::span<const float> chunk);
  /// Windows fully contained in the stream so far and not yet scored.
  std::size_t ready_windows() const;
  /// Raw (unstandardized) view of ready window i, i < ready_windows().
  /// Standardization happens inside the scheduler's score_window_batch,
  /// exactly as it does on the self-scoring path.
  std::span<const float> ready_window(std::size_t i) const;
  /// Accepts externally computed scores for the first scores.size() ready
  /// windows and advances the Segmenter and the ring trim; appends
  /// finalized detections to out.
  void accept_scores(std::span<const float> scores,
                     std::vector<Detection>& out);
  /// End-of-stream for externally scheduled streams. Requires every ready
  /// window to have been scored (ready_windows() == 0) — the scheduler's
  /// final flush guarantees that — then drains the pipeline tail.
  void finish_into(std::vector<Detection>& out);

  /// Total samples fed so far.
  std::size_t samples_consumed() const { return ring_.size(); }
  /// Windows scored so far.
  std::size_t windows_scored() const { return segmenter_.windows(); }
  /// Samples currently resident in the ring (bounded-memory check).
  std::size_t resident_samples() const {
    return ring_.size() - ring_.oldest();
  }
  float threshold() const { return segmenter_.threshold(); }
  std::size_t median_k() const { return segmenter_.median_k(); }
  bool finished() const { return finished_; }
  /// Non-finite samples seen at feed() boundaries on this stream
  /// (maintained with or without telemetry). reset() clears it.
  std::size_t corrupt_samples() const { return ingest_.corrupt_samples(); }

 private:
  void advance(std::span<const float> scores, std::vector<Detection>& out);
  void record_detections(const std::vector<Detection>& out,
                         std::size_t first);
  std::span<const float> resident() const;

  const core::CoLocator& locator_;
  std::size_t window_;
  std::size_t stride_;
  core::Segmenter segmenter_;
  StreamMetrics metrics_;  ///< all-null when telemetry is off
  IngestCheck ingest_;
  nn::Workspace ws_;

  // Stream state.
  SampleRing ring_;
  bool finished_ = false;

  // Reused scratch. (Windows are standardized from the ring directly into
  // the input region of ws_'s eval-plan arena.)
  std::vector<float> scores_buf_;
};

}  // namespace scalocate::runtime
