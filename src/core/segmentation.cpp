#include "core/segmentation.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/signal.hpp"
#include "common/stats.hpp"
#include "core/locator.hpp"

namespace scalocate::core {

std::size_t Segmenter::auto_median_k(std::size_t plateau_windows) {
  // ~half the plateau width bridges interior dips and removes glitch runs
  // while never erasing a true plateau; clamp to a sane odd range.
  std::size_t k = plateau_windows / 2;
  if (k < 3) k = 3;
  if (k > 11) k = 11;
  if (k % 2 == 0) ++k;
  return k;
}

std::size_t Segmenter::resolve_median_k(const SegmenterConfig& config,
                                        std::size_t stride,
                                        std::size_t window_from_swc) {
  if (config.median_filter_k != 0) return config.median_filter_k;
  const std::size_t window =
      config.window_size > 0 ? config.window_size : window_from_swc;
  // The high plateau spans the window offsets whose content matches the
  // start distribution: roughly (window + start-motif)/stride positions,
  // with the motif on the order of a twelfth of the CO.
  const std::size_t span = window + config.expected_co_length / 12;
  const std::size_t plateau =
      stride > 0 ? std::max<std::size_t>(1, span / stride) : 4;
  return auto_median_k(plateau);
}

float Segmenter::otsu_threshold(std::span<const float> scores,
                                double clip_percentile) {
  detail::require(!scores.empty(), "otsu_threshold: empty scores");
  detail::require(clip_percentile >= 0.0 && clip_percentile < 50.0,
                  "otsu_threshold: clip percentile must be in [0, 50)");
  float lo, hi;
  if (clip_percentile > 0.0) {
    lo = static_cast<float>(stats::percentile(scores, clip_percentile));
    hi = static_cast<float>(stats::percentile(scores, 100.0 - clip_percentile));
  } else {
    lo = stats::min_value(scores);
    hi = stats::max_value(scores);
  }
  if (hi <= lo) return lo;

  constexpr std::size_t kBins = 256;
  std::array<std::size_t, kBins> hist{};
  const double scale = static_cast<double>(kBins - 1) / static_cast<double>(hi - lo);
  for (float s : scores) {
    // Clamp before the cast: with a clipped range, outliers below `lo` map
    // to a negative offset (casting that to unsigned is UB).
    double pos = (static_cast<double>(s) - static_cast<double>(lo)) * scale;
    if (pos < 0.0) pos = 0.0;
    auto bin = static_cast<std::size_t>(pos);
    if (bin >= kBins) bin = kBins - 1;
    ++hist[bin];
  }

  const double total = static_cast<double>(scores.size());
  double sum_all = 0.0;
  for (std::size_t i = 0; i < kBins; ++i)
    sum_all += static_cast<double>(i) * static_cast<double>(hist[i]);

  double best_between = -1.0;
  std::size_t best_bin = kBins / 2;
  double w0 = 0.0, sum0 = 0.0;
  for (std::size_t i = 0; i < kBins; ++i) {
    w0 += static_cast<double>(hist[i]);
    if (w0 == 0.0) continue;
    const double w1 = total - w0;
    if (w1 == 0.0) break;
    sum0 += static_cast<double>(i) * static_cast<double>(hist[i]);
    const double mu0 = sum0 / w0;
    const double mu1 = (sum_all - sum0) / w1;
    const double between = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
    if (between > best_between) {
      best_between = between;
      best_bin = i;
    }
  }
  return lo + static_cast<float>((static_cast<double>(best_bin) + 0.5) / scale);
}

Segmenter::Segmenter(const SegmenterConfig& config, std::size_t stride,
                     std::size_t min_gap, const CoLocator* aligner)
    : threshold_(config.threshold),
      median_k_(resolve_median_k(config, stride, config.window_size)),
      half_(median_k_ / 2),
      merge_gap_(config.merge_gap_windows),
      stride_(stride),
      min_gap_(min_gap),
      aligner_(aligner) {
  detail::require(median_k_ % 2 == 1,
                  "Segmenter: median filter size must be odd");
  if (aligner_ == nullptr) return;
  const bool fine_align = aligner_->config().fine_align;
  coarse_ = aligner_->coarse_offset();
  fine_ = fine_align ? aligner_->fine_offset() : 0;
  tmpl_len_ = fine_align ? aligner_->fine_template().size() : 0;
  radius_ = tmpl_len_ > 0 ? aligner_->fine_search_radius() : 0;
}

void Segmenter::reset() {
  windows_ = 0;
  square_.clear();
  sq_base_ = 0;
  filt_next_ = 0;
  prev_filt_ = 0.0f;
  last_fall_.reset();
  raw_edges_.clear();
  pending_.clear();
  last_kept_.reset();
}

void Segmenter::push(std::span<const float> scores,
                     std::span<const float> samples, std::size_t samples_begin,
                     std::vector<Detection>& out) {
  // Filter as each score arrives, so the square wave tail stays within one
  // median window however many scores one push brings.
  for (const float score : scores) {
    square_.push_back(score >= threshold_ ? 1.0f : -1.0f);
    ++windows_;
    filter(/*eof=*/false);
  }
  refine(samples, samples_begin, /*eof=*/false);
  release(/*eof=*/false, out);
}

void Segmenter::finish(std::span<const float> samples,
                       std::size_t samples_begin, std::vector<Detection>& out) {
  filter(/*eof=*/true);
  refine(samples, samples_begin, /*eof=*/true);
  release(/*eof=*/true, out);
}

void Segmenter::filter(bool eof) {
  while (true) {
    const std::size_t i = filt_next_;
    std::size_t hi;
    if (eof) {
      if (i >= windows_) break;
      hi = std::min(windows_ - 1, i + half_);  // right border: shrink window
    } else {
      if (i + half_ >= windows_) break;  // right neighbors not yet scored
      hi = i + half_;
    }
    const std::size_t lo = i >= half_ ? i - half_ : 0;
    neighborhood_.assign(
        square_.begin() + static_cast<std::ptrdiff_t>(lo - sq_base_),
        square_.begin() + static_cast<std::ptrdiff_t>(hi - sq_base_) + 1);
    const float value = signal::median_of(neighborhood_, median_scratch_);

    // Rising edges become CO starts unless plateau-split merging bridges
    // the preceding low run. A plateau that starts at window 0 has no
    // -1 -> +1 transition: a high beginning is a CO start at sample 0.
    if (i == 0) {
      if (value > 0.0f) raw_edges_.push_back(0);
    } else if (prev_filt_ >= 0.0f && value < 0.0f) {
      last_fall_ = i;
    } else if (prev_filt_ < 0.0f && value >= 0.0f) {
      if (!(last_fall_.has_value() && i - *last_fall_ <= merge_gap_))
        raw_edges_.push_back(i * stride_);
    }
    prev_filt_ = value;
    ++filt_next_;

    // Drop square values no later neighborhood can reach.
    const std::size_t keep_from = filt_next_ >= half_ ? filt_next_ - half_ : 0;
    while (sq_base_ < keep_from) {
      square_.pop_front();
      ++sq_base_;
    }
  }
}

void Segmenter::refine(std::span<const float> samples,
                       std::size_t samples_begin, bool eof) {
  const std::size_t head = samples_begin + samples.size();
  while (!raw_edges_.empty()) {
    const std::size_t raw = raw_edges_.front();
    const std::int64_t corrected = static_cast<std::int64_t>(raw) - coarse_;
    const std::size_t base =
        corrected < 0 ? 0 : static_cast<std::size_t>(corrected);

    std::size_t start = base;
    if (tmpl_len_ > 0) {
      // Before end of trace, wait until the whole search region
      // [base - radius, base + radius + len) has arrived: then the
      // trace-end clamp (hi <= L - len) cannot bind, because the final
      // length L is at least the current head.
      if (!eof && head < base + radius_ + tmpl_len_) break;
      const std::size_t lo = base > radius_ ? base - radius_ : 0;
      if (head >= lo + tmpl_len_) {  // some placement fits before the end
        const std::size_t hi = std::min(head - tmpl_len_, base + radius_);
        detail::require(lo >= samples_begin,
                        "Segmenter: search region starts before the "
                        "resident samples (see oldest_needed)");
        start = aligner_->refine_in_region(
            samples.subspan(lo - samples_begin, hi - lo + tmpl_len_), lo);
      }
    }
    const std::int64_t final_start = static_cast<std::int64_t>(start) - fine_;
    const Pending p{
        final_start < 0 ? 0 : static_cast<std::size_t>(final_start), raw};
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), p,
                                     [](const Pending& a, const Pending& b) {
                                       return a.start < b.start;
                                     }),
                    p);
    raw_edges_.pop_front();
  }
}

std::int64_t Segmenter::start_lower_bound(std::size_t raw_edge) const {
  // Smallest start an edge at (or after) raw_edge can map to: coarse
  // correction, at most `radius` leftwards template snap, then the fine
  // residual. Clamps at 0 only raise the true value.
  return static_cast<std::int64_t>(raw_edge) - coarse_ -
         static_cast<std::int64_t>(radius_) - fine_;
}

void Segmenter::release(bool eof, std::vector<Detection>& out) {
  std::int64_t horizon = std::numeric_limits<std::int64_t>::max();
  if (!eof) {
    // Edges the median filter has not confirmed yet start at or after
    // window filt_next_; unrefined queued edges are earlier, and their
    // bounds are monotone, so the queue front dominates.
    horizon = start_lower_bound(filt_next_ * stride_);
    if (!raw_edges_.empty())
      horizon = std::min(horizon, start_lower_bound(raw_edges_.front()));
  }
  std::size_t released = 0;
  for (; released < pending_.size(); ++released) {
    const Pending& p = pending_[released];
    if (static_cast<std::int64_t>(p.start) >= horizon) break;
    // A CO cannot restart within a fraction of its own length, so a later
    // start inside that gap is an echo of the same plateau (classifier
    // glitches re-crossing the threshold); the earlier one is kept.
    if (last_kept_.has_value() && p.start < *last_kept_ + min_gap_) continue;
    out.push_back(Detection{p.start, p.raw_edge});
    last_kept_ = p.start;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(released));
}

std::size_t Segmenter::oldest_needed() const {
  // The left end of the search region of the earliest edge still to be
  // refined: the queue front, or the next edge the filter may confirm.
  std::int64_t oldest = static_cast<std::int64_t>(filt_next_ * stride_) -
                        coarse_ - static_cast<std::int64_t>(radius_);
  if (!raw_edges_.empty()) {
    const std::int64_t base = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(raw_edges_.front()) - coarse_);
    oldest = std::min(oldest, base - static_cast<std::int64_t>(radius_));
  }
  return oldest < 0 ? 0 : static_cast<std::size_t>(oldest);
}

}  // namespace scalocate::core
