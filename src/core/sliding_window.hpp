// Sliding Window Classification (Section III-C).
//
// Slices a side-channel trace into Ninf-sample windows every `stride`
// samples and scores each with the trained CNN. Per the paper, the output
// signal swc is the *linear* (pre-softmax) class-1 score of the fully
// connected block, where the recurrent localization pattern is stronger
// than in the softmax probabilities.
//
// score_window_batch is the one scoring path and the one place that
// parallelises it. CoLocator (via score_into), StreamingLocator, and
// runtime::WindowBatcher all hand it their windows. It cuts them into
// tiles of kScoreTile windows and, per tile, standardizes each window
// straight from the caller's span into a workspace staging tensor (no
// per-window copies) and runs the whole forward pass:
//
//   tiles >= 2, intra-op budget > 1,      min(budget, tiles) workers on
//   caller not in a parallel region  -->  kernels::parallel_for; each takes
//                                         the next tile from a shared
//                                         counter and scores it in its own
//                                         workspace lane, nested kernels
//                                         running inline
//   otherwise                        -->  tiles in order on the caller; a
//                                         lone tile may still fan its conv
//                                         layers out over the budget
//
// A window's score does not depend on its batchmates, so scores are
// bit-identical for every count, budget and tile schedule. Because tiles
// run concurrently, `window_at` must be safe to call from several threads
// at once (a pure read of the caller's samples).
//
// The classifier never mutates the model: it requires an eval-mode network
// and routes every forward pass through a caller-owned (or per-classifier)
// nn::Workspace, so one trained model can serve many concurrent
// classifiers (see runtime/locator_service).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/sequential.hpp"

namespace scalocate::core {

struct SlidingWindowResult {
  std::vector<float> scores;  ///< swc: one linear class-1 score per window
  std::size_t stride = 1;     ///< sample distance between window starts
  std::size_t window = 0;     ///< Ninf

  /// Sample position of window i.
  std::size_t window_start(std::size_t i) const { return i * stride; }
};

class SlidingWindowClassifier {
 public:
  /// Windows per forward pass: the unit score_window_batch schedules.
  static constexpr std::size_t kScoreTile = 32;

  /// `model` must be in eval mode (set_training(false)) and must outlive
  /// the classifier.
  SlidingWindowClassifier(const nn::Sequential& model, std::size_t window,
                          std::size_t stride);

  /// Number of windows a trace of n_samples yields (0 when too short).
  std::size_t num_windows(std::size_t n_samples) const {
    return n_samples < window_ ? 0 : (n_samples - window_) / stride_ + 1;
  }

  /// Scores every window of `trace_samples` into `scores_out`, which must
  /// hold num_windows(trace_samples.size()) floats, with one
  /// score_window_batch call. Thread-safe for concurrent calls with
  /// distinct workspaces.
  void score_into(std::span<const float> trace_samples,
                  std::span<float> scores_out, nn::Workspace& ws) const;

  /// Scores every window of `trace_samples` using the given scratch
  /// workspace. Thread-safe for concurrent calls with distinct workspaces.
  SlidingWindowResult classify(std::span<const float> trace_samples,
                               nn::Workspace& ws) const;

  /// Convenience using the classifier's own workspace (not thread-safe
  /// across concurrent calls on the same classifier instance).
  SlidingWindowResult classify(std::span<const float> trace_samples) const {
    return classify(trace_samples, scratch_);
  }

  /// Scores `count` pre-extracted, pre-standardized windows laid out
  /// contiguously in `inputs` ([count, 1, window]). Used by the streaming
  /// locator, which standardizes windows as they leave its ring buffer.
  void score_batch(const nn::Tensor& inputs, float* scores_out,
                   nn::Workspace& ws) const;

  /// The zero-copy scoring path shared by the offline (score_into),
  /// streaming (StreamingLocator) and batched (WindowBatcher) callers:
  /// standardizes windows `window_at(0..count)` — each a window()-long
  /// span — into workspace staging tensors and scores them into
  /// `scores_out`, tile by tile (see the header comment for the schedule).
  /// `window_at` may be called concurrently. Staging tensors and worker
  /// lanes of `ws` keep their allocations across calls.
  template <typename WindowAt>
  void score_window_batch(std::size_t count, WindowAt&& window_at,
                          float* scores_out, nn::Workspace& ws) const {
    for_each_tile(count, ws, [&](std::size_t first, std::size_t n,
                                 nn::Workspace& lane) {
      nn::Tensor& inputs = lane.staging();
      if (inputs.rank() != 3 || inputs.dim(0) != n || inputs.dim(1) != 1 ||
          inputs.dim(2) != window_)
        inputs.resize({n, 1, window_});
      for (std::size_t i = 0; i < n; ++i)
        nn::kernels::standardize(window_at(first + i),
                                 inputs.data() + i * window_);
      score_batch(inputs, scores_out + first, lane);
    });
  }

  std::size_t window() const { return window_; }
  std::size_t stride() const { return stride_; }

 private:
  /// Runs tile(first, n, lane) over [0, count) in kScoreTile pieces,
  /// either in order on the caller with lane = `ws` or on parallel
  /// workers, each with its own lane of `ws`.
  void for_each_tile(
      std::size_t count, nn::Workspace& ws,
      const std::function<void(std::size_t, std::size_t, nn::Workspace&)>&
          tile) const;

  const nn::Sequential& model_;
  std::size_t window_;
  std::size_t stride_;
  mutable nn::Workspace scratch_;
};

}  // namespace scalocate::core
