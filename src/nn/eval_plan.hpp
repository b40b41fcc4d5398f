// Eval-mode inference plan: an eval Sequential compiled once into a flat
// list of kernel calls over one activation arena.
//
// The layer graph returns a fresh, zero-filled Tensor from every layer
// call. On the scoring path that churn (allocating, zero-filling, and
// glibc trimming and re-faulting the pages) was the largest cost left
// above the conv kernels (README, Performance). An EvalPlan walks the
// graph once and emits steps:
//
//   conv    Conv1d; when followed by BatchNorm1d + ReLU those run in the
//           kernel's epilogue (kernels::BnRelu), and the last conv block
//           of a residual main branch also takes the shortcut add there
//   gap     GlobalAvgPool1d
//   linear  Linear, with a directly following ReLU applied in place
//
// BatchNorm1d and ReLU only compile fused into the step before them, and a
// residual main branch must end in a conv block; other graphs are rejected
// (run them through Sequential::forward, the unfused reference).
//
// The arena (nn::Workspace::arena) holds the inputs and outputs of all
// windows of a run, and the intermediate values of one group of windows
// (as many as fit in kGroupBytes): run() takes every step over one group
// before the next, so a group's activations stay in cache. Each
// intermediate value sits at a fixed per-window offset of that work
// region; values whose lifetimes do not overlap share storage. No step
// writes a buffer it reads, except that a stride-1 conv may write its
// output over the shortcut it adds when nothing reads that shortcut later
// (the paper CNN's work region then holds 5 F N floats per window instead
// of 6 F N). Batch-norm statistics are folded to float (mean, 1/std) at
// compile time exactly as BatchNorm1d's eval forward rounds them, and
// weights are read in place: rebuild the plan after the model's
// parameters change.
//
// Bit-identity: each step calls the kernel the replaced layer calls, with
// the same operands in the same order. The conv epilogue applies BatchNorm
// with the eval forward's roundings, then the ReLU, then the one rounded
// shortcut add Residual::forward makes. No kernel's result for a window
// depends on the other windows of its call, so grouping changes nothing.
// A plan's outputs are therefore memcmp-equal to Sequential::forward on
// the same inputs, on every kernel tier and at every intra-op budget
// (test_nn_kernels holds it to that).
//
// Thread-safety: a plan is immutable after construction and run() is
// const; concurrent runs need distinct workspaces (Workspace::lane).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/sequential.hpp"

namespace scalocate::nn {

class BatchNorm1d;
class Conv1d;
class Linear;

class EvalPlan {
 public:
  /// Compiles `model` for inputs of shape [count, in_channels, length].
  /// Throws InvalidArgument when a layer is in training mode, is of a
  /// type or in a layout the plan does not fuse, or gets an input of the
  /// wrong shape.
  EvalPlan(const Sequential& model, std::size_t in_channels,
           std::size_t length);

  /// Floats per window of the output.
  std::size_t output_size() const { return floats(output_); }

  /// Bytes of intermediate values one group of windows may fill: run()
  /// takes every step over one group before the next, and a group this
  /// size stays in a core's L2 cache, where a 32-window tile would not.
  static constexpr std::size_t kGroupBytes = 512 * 1024;

  /// Windows per group (at least 1).
  std::size_t group() const { return group_; }

  /// Arena floats run() needs for `count` windows: their inputs and
  /// outputs, and the intermediate values of one group.
  std::size_t arena_floats(std::size_t count) const;

  /// Number of compiled steps (kernel calls per run).
  std::size_t size() const { return steps_.size(); }

  /// The input region for `count` windows in `ws`'s arena: the caller
  /// writes [count, in_channels, length] floats here, then calls
  /// run(count, ws). Grows the arena when `count` windows need more room
  /// than it has.
  float* input(std::size_t count, Workspace& ws) const;

  /// Runs the plan over the `count` windows written to input(count, ws)
  /// and returns their outputs, [count, output_size()], in the arena
  /// (valid until the workspace's arena is next used).
  const float* run(std::size_t count, Workspace& ws) const;

 private:
  struct Value {
    std::size_t channels;
    std::size_t length;  ///< 0 for a flat [count, channels] value
    std::size_t offset = 0;  ///< work floats per window before it
  };

  enum class Kind { kConv, kGap, kLinear };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Step {
    explicit Step(Kind k) : kind(k) {}

    Kind kind;
    std::size_t in = kNone, out = kNone;  ///< value ids
    std::size_t res = kNone;  ///< shortcut value added in the epilogue
    // conv: weights and geometry; linear: weight/bias only.
    const float* weight = nullptr;
    const float* bias = nullptr;
    std::size_t kernel = 0, stride = 0, pad_left = 0;
    // BatchNorm of the conv epilogue, folded to float.
    std::vector<float> mean, inv_std;
    const float* gamma = nullptr;
    const float* beta = nullptr;
    bool relu = false;  ///< linear: apply ReLU to the output
  };

  std::size_t floats(std::size_t value) const {
    const Value& v = values_[value];
    return v.channels * (v.length == 0 ? 1 : v.length);
  }
  std::size_t new_value(std::size_t channels, std::size_t length);

  std::size_t compile(const Layer& layer, std::size_t x);
  std::size_t compile_sequential(const Sequential& seq, std::size_t x);
  std::size_t add_conv(const Conv1d& conv, const BatchNorm1d* bn,
                       std::size_t x);
  std::size_t add_linear(const Linear& linear, bool relu, std::size_t x);
  void assign_offsets();
  /// Runs every step over `count` windows whose values are at at(value).
  template <typename At>
  void run_group(std::size_t count, const At& at,
                 kernels::GemmScratch& gemm) const;

  std::vector<Step> steps_;
  std::vector<Value> values_;
  std::size_t input_ = 0, output_ = 0;
  std::size_t work_floats_ = 0;  ///< intermediate values, per window
  std::size_t group_ = 1;
};

}  // namespace scalocate::nn
