// Segmentation (Section III-D) and alignment: window scores -> threshold
// square wave -> median filter -> rising edges -> offset correction + fine
// template snap -> sorted, deduplicated CO starts.
//
// Segmenter is the only code that turns window scores into detections. It
// is incremental: scores arrive in window order, in chunks of any size, and
// a detection is released as soon as no later score or sample can change
// it or precede it. Offline CoLocator::locate scores the whole trace,
// pushes every score and finishes; the streaming runtime pushes each batch
// of scores as it is computed. Both therefore produce the same detections
// by construction. Only the automatic threshold differs: Otsu over the
// whole trace's scores offline, the calibration-trace Otsu threshold online
// (see CoLocator::segmenter_config).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace scalocate::core {

class CoLocator;

struct SegmenterConfig {
  /// Decision threshold on the linear class-1 score. NaN = automatic:
  /// Otsu's method on the score histogram, which tracks the bimodal
  /// distribution (plateau scores vs background) without per-cipher tuning.
  float threshold = std::numeric_limits<float>::quiet_NaN();
  /// Median filter window (odd). 0 = automatic, sized from the expected
  /// plateau width n_inf/stride (see auto_median_k): wide enough to remove
  /// isolated classifier glitches, narrow enough to keep real plateaus.
  std::size_t median_filter_k = 0;
  /// Inference window size (for the automatic median filter size).
  std::size_t window_size = 0;
  /// Expected CO length in samples (diagnostics/auto sizing fallback).
  std::size_t expected_co_length = 0;
  /// Plateau-split merging: a low run of at most this many windows between
  /// two high runs in the filtered square wave is treated as an interior
  /// dip of one plateau, so its rising edge is not reported as a separate
  /// CO start. Bridges the raggedness countermeasure scenarios inflict
  /// (interrupt preemption splitting a start plateau, gain steps / clock
  /// jitter chipping windows out of it) without widening the median filter,
  /// which would erase short genuine plateaus. 0 disables.
  std::size_t merge_gap_windows = 0;
  /// Drift-robust automatic threshold: when > 0, the Otsu histogram range
  /// is clipped to the [p, 100-p] percentiles of the score distribution
  /// instead of [min, max], so a handful of outlier scores (AGC gain jumps,
  /// saturated drift) cannot squash the histogram into a few bins. 0 keeps
  /// the exact min/max range.
  double otsu_clip_percentile = 0.0;
};

/// One located CO.
struct Detection {
  std::size_t start = 0;     ///< offset-corrected, fine-aligned CO start
  std::size_t raw_edge = 0;  ///< uncorrected rising-edge sample (diagnostic)
};

class Segmenter {
 public:
  /// `config.threshold` is used as given (resolve NaN first, see
  /// CoLocator::segmenter_config); the median size is resolve_median_k's.
  /// `min_gap` > 0 drops a detection starting less than `min_gap` samples
  /// after the previous kept one (an echo of the same CO). `aligner`, when
  /// set, supplies the coarse and fine calibration offsets and the fine
  /// template snap and must outlive the segmenter; null keeps every start
  /// at its raw rising edge.
  Segmenter(const SegmenterConfig& config, std::size_t stride,
            std::size_t min_gap = 0, const CoLocator* aligner = nullptr);

  /// Consumes the next window scores and appends every detection that
  /// became final to `out`, in ascending start order. `samples` holds the
  /// trace samples [samples_begin, samples_begin + samples.size()): it ends
  /// at the stream head and starts at or before oldest_needed().
  void push(std::span<const float> scores, std::span<const float> samples,
            std::size_t samples_begin, std::vector<Detection>& out);

  /// End of trace: `samples` (as for push) ends at the last trace sample.
  /// The median filter shrinks its window at the right border and the
  /// template snap clamps its search to the trace end; every remaining
  /// detection is appended to `out`. reset() before reusing.
  void finish(std::span<const float> samples, std::size_t samples_begin,
              std::vector<Detection>& out);

  /// Forgets all trace state, keeping the resolved constants.
  void reset();

  /// Oldest absolute sample a later push or finish can still read: the
  /// left end of the template search region of any edge not yet refined.
  std::size_t oldest_needed() const;

  /// Scores consumed so far.
  std::size_t windows() const { return windows_; }
  float threshold() const { return threshold_; }
  std::size_t median_k() const { return median_k_; }

  /// Automatic odd median-filter size for a given plateau width (in
  /// windows): ~half the plateau, clamped to [3, 11].
  static std::size_t auto_median_k(std::size_t plateau_windows);

  /// The concrete (odd) median-filter size for a config and a
  /// stride/window pair: the configured size when set, the automatic size
  /// otherwise.
  static std::size_t resolve_median_k(const SegmenterConfig& config,
                                      std::size_t stride, std::size_t window);

  /// Otsu's threshold on a score distribution (256-bin histogram). When
  /// `clip_percentile` > 0 the histogram range is clipped to the
  /// [p, 100-p] percentiles (outliers land in the edge bins); 0 uses the
  /// exact [min, max] range.
  static float otsu_threshold(std::span<const float> scores,
                              double clip_percentile);
  static float otsu_threshold(std::span<const float> scores) {
    return otsu_threshold(scores, 0.0);
  }

 private:
  struct Pending {
    std::size_t start;
    std::size_t raw_edge;
  };

  void filter(bool eof);
  void refine(std::span<const float> samples, std::size_t samples_begin,
              bool eof);
  void release(bool eof, std::vector<Detection>& out);
  std::int64_t start_lower_bound(std::size_t raw_edge) const;

  // Constants resolved at construction.
  float threshold_;
  std::size_t median_k_;
  std::size_t half_;       ///< median_k_ / 2
  std::size_t merge_gap_;  ///< SegmenterConfig::merge_gap_windows
  std::size_t stride_;
  std::size_t min_gap_;
  const CoLocator* aligner_;
  std::int64_t coarse_ = 0;
  std::int64_t fine_ = 0;      ///< 0 unless fine alignment is on
  std::size_t tmpl_len_ = 0;   ///< 0 = no template snap
  std::size_t radius_ = 0;     ///< snap search radius (0 without a snap)

  // Trace state.
  std::size_t windows_ = 0;       ///< scores consumed
  std::deque<float> square_;      ///< square wave tail, starts at sq_base_
  std::size_t sq_base_ = 0;       ///< window index of square_[0]
  std::size_t filt_next_ = 0;     ///< next median-filter index to emit
  float prev_filt_ = 0.0f;        ///< filtered[filt_next_ - 1]
  std::optional<std::size_t> last_fall_;  ///< latest falling-edge window
  std::deque<std::size_t> raw_edges_;     ///< unrefined edges (samples)
  std::vector<Pending> pending_;          ///< refined, sorted by start
  std::optional<std::size_t> last_kept_;  ///< dedup state

  std::vector<float> neighborhood_;
  std::vector<float> median_scratch_;
};

}  // namespace scalocate::core
