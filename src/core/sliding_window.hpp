// Sliding Window Classification (Section III-C).
//
// Slices a side-channel trace into Ninf-sample windows every `stride`
// samples and scores each with the trained CNN. Per the paper, the output
// signal swc is the *linear* (pre-softmax) class-1 score of the fully
// connected block, where the recurrent localization pattern is stronger
// than in the softmax probabilities.
//
// score_window_batch is the one scoring path and the one place that
// parallelises it. A served model has one classifier, compiled and owned
// by its CoLocator (CoLocator::classifier()): offline locate (via
// score_into), every runtime::StreamingLocator and the model's
// runtime::WindowBatcher all hand it their windows. The constructor
// compiles the model into an nn::EvalPlan; score_window_batch cuts the
// windows into tiles of kScoreTile and, per tile, standardizes each window
// straight from the caller's span into the input region of the lane's
// plan arena (no per-window copies) and runs the plan. A warmed-up
// workspace scores without a heap allocation at intra-op budget 1:
// the arena and pack buffers only grow for a larger tile than any before,
// and tile dispatch is a non-owning function reference.
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
// The classifier never mutates the model and holds no mutable state: it
// requires an eval-mode network and runs every plan in a caller-owned
// nn::Workspace, so one classifier serves any number of concurrent
// callers, each with its own workspace (see runtime/locator_service and
// runtime/window_batcher). The plan reads the model's weights in place
// and snapshots its batch-norm statistics: build a new classifier after
// the model changes.
#pragma once

#include <span>
#include <vector>

#include "core/params.hpp"
#include "nn/eval_plan.hpp"
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

  /// `model` must be in eval mode (set_training(false)), must map
  /// [B, 1, window] to [B, >= 2] class scores, and must outlive the
  /// classifier. Compiles the model's eval plan.
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

  /// The zero-copy scoring path shared by the offline (score_into),
  /// streaming (StreamingLocator) and batched (WindowBatcher) callers:
  /// standardizes windows `window_at(0..count)` — each a window()-long
  /// span — into the plan's input region and scores them into
  /// `scores_out`, tile by tile (see the header comment for the schedule).
  /// `window_at` may be called concurrently. The arena and worker lanes
  /// of `ws` keep their allocations across calls.
  template <typename WindowAt>
  void score_window_batch(std::size_t count, WindowAt&& window_at,
                          float* scores_out, nn::Workspace& ws) const {
    auto tile = [&](std::size_t first, std::size_t n, nn::Workspace& lane) {
      float* inputs = plan_.input(n, lane);
      for (std::size_t i = 0; i < n; ++i)
        nn::kernels::standardize(window_at(first + i), inputs + i * window_);
      const float* logits = plan_.run(n, lane);
      // Linear class-1 margin (logit1 - logit0): the pre-softmax pattern
      // the paper exploits (Section III-C), expressed relative to class 0
      // so the natural decision boundary sits at 0 regardless of scale.
      const std::size_t classes = plan_.output_size();
      for (std::size_t i = 0; i < n; ++i)
        scores_out[first + i] =
            logits[i * classes + 1] - logits[i * classes];
    };
    for_each_tile(count, ws, TileFn(tile));
  }

  std::size_t window() const { return window_; }
  std::size_t stride() const { return stride_; }

 private:
  /// Non-owning reference to a tile callback. Unlike std::function it
  /// never allocates, whatever the size of the closure it refers to.
  class TileFn {
   public:
    template <typename F>
    explicit TileFn(F& f)
        : object_(&f),
          call_([](void* object, std::size_t first, std::size_t n,
                   nn::Workspace& lane) {
            (*static_cast<F*>(object))(first, n, lane);
          }) {}
    void operator()(std::size_t first, std::size_t n,
                    nn::Workspace& lane) const {
      call_(object_, first, n, lane);
    }

   private:
    void* object_;
    void (*call_)(void*, std::size_t, std::size_t, nn::Workspace&);
  };

  /// Runs tile(first, n, lane) over [0, count) in kScoreTile pieces,
  /// either in order on the caller with lane = `ws` or on parallel
  /// workers, each with its own lane of `ws`.
  void for_each_tile(std::size_t count, nn::Workspace& ws,
                     TileFn tile) const;

  std::size_t window_;
  std::size_t stride_;
  nn::EvalPlan plan_;
};

}  // namespace scalocate::core
