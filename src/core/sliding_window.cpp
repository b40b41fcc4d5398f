#include "core/sliding_window.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "nn/kernels/parallel.hpp"

namespace scalocate::core {

namespace {

/// Validates the classifier arguments before the plan is compiled from
/// them, so a bad window or a training-mode model gets the classifier's
/// own error message.
const nn::Sequential& checked_model(const nn::Sequential& model,
                                    std::size_t window, std::size_t stride) {
  detail::require(window >= 16, "SlidingWindowClassifier: window too small");
  detail::require(stride >= 1, "SlidingWindowClassifier: stride must be >= 1");
  detail::require(!model.training(),
                  "SlidingWindowClassifier: model must be in eval mode "
                  "(call set_training(false) before classification)");
  return model;
}

}  // namespace

SlidingWindowClassifier::SlidingWindowClassifier(const nn::Sequential& model,
                                                 std::size_t window,
                                                 std::size_t stride)
    : window_(window),
      stride_(stride),
      plan_(checked_model(model, window, stride), 1, window) {
  detail::require(plan_.output_size() >= 2,
                  "SlidingWindowClassifier: model must output >= 2 scores");
}

void SlidingWindowClassifier::for_each_tile(std::size_t count,
                                            nn::Workspace& ws,
                                            TileFn tile) const {
  const std::size_t tiles = (count + kScoreTile - 1) / kScoreTile;
  const auto run = [&](std::size_t t, nn::Workspace& lane) {
    const std::size_t first = t * kScoreTile;
    tile(first, std::min(kScoreTile, count - first), lane);
  };
  const std::size_t workers =
      tiles < 2 || nn::kernels::in_parallel_region()
          ? 1
          : std::min(nn::kernels::intra_op_threads(), tiles);
  if (workers <= 1) {
    for (std::size_t t = 0; t < tiles; ++t) run(t, ws);
    return;
  }
  // Whole tiles are the work unit: each worker runs complete forward
  // passes in its own lane, so the forked region is entered once per call
  // rather than once per layer. Lanes are grown here, before the region.
  ws.lane(workers - 1);
  std::atomic<std::size_t> next{0};
  nn::kernels::parallel_for(workers, [&](std::size_t w) {
    nn::Workspace& lane = ws.lane(w);
    for (std::size_t t = next++; t < tiles; t = next++) run(t, lane);
  });
}

void SlidingWindowClassifier::score_into(std::span<const float> trace_samples,
                                         std::span<float> scores_out,
                                         nn::Workspace& ws) const {
  const std::size_t n_windows = num_windows(trace_samples.size());
  detail::require(scores_out.size() >= n_windows,
                  "SlidingWindowClassifier::score_into: scores_out too small");
  score_window_batch(
      n_windows,
      [&](std::size_t i) { return trace_samples.subspan(i * stride_, window_); },
      scores_out.data(), ws);
}

SlidingWindowResult SlidingWindowClassifier::classify(
    std::span<const float> trace_samples, nn::Workspace& ws) const {
  SlidingWindowResult result;
  result.stride = stride_;
  result.window = window_;
  result.scores.resize(num_windows(trace_samples.size()));
  score_into(trace_samples, result.scores, ws);
  return result;
}

}  // namespace scalocate::core
