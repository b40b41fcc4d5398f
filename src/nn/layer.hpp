// Layer interface of the explicit forward/backward NN framework.
//
// Forward passes are const and write every retained activation into a
// caller-owned Workspace instead of layer members. A trained model can
// therefore be shared across threads: each concurrent caller owns a private
// Workspace and runs eval-mode forward passes on the same layers without
// synchronization (the runtime/ LocatorService relies on this). backward
// reads the caches the paired forward left in the same workspace, so
// callers must pass one workspace per in-flight forward/backward pair.
//
// The Workspace also owns the activation arena of nn::EvalPlan, the
// compiled eval path window scoring runs: one flat float buffer per lane,
// allocated on first use for the largest tile seen and then reused, so
// steady-state scoring allocates nothing.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/kernels/gemm.hpp"
#include "nn/tensor.hpp"

namespace scalocate::nn {

/// A trainable parameter: value plus accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Param(std::vector<std::size_t> shape, std::string param_name = {})
      : value(shape), grad(std::move(shape)), name(std::move(param_name)) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer;

/// Pack buffers for the nn::kernels backend, shared by every layer routed
/// through one workspace. The buffers are transient within a single layer
/// call (no state survives between layers), so one set per concurrent
/// caller suffices regardless of model depth.
struct KernelScratch {
  kernels::GemmScratch gemm;  ///< GEMM A/B packing panels
  std::vector<float> col_a;   ///< im2col column matrix [Cin*K, out_len]
  std::vector<float> col_b;   ///< backward column gradient (same shape)
};

/// Caller-owned scratch holding the per-layer activations a backward pass
/// needs. Slots are keyed by layer identity, so a single workspace serves a
/// whole module tree (Sequential/Residual children included). It also
/// owns the activation arena an nn::EvalPlan runs in: one flat buffer,
/// sized on first use for the largest tile the workspace has scored and
/// reused by every later run. Reusing one workspace across calls avoids
/// reallocation; it is NOT safe to share one workspace between concurrent
/// forward passes — concurrent passes on behalf of one caller each take
/// their own lane().
class Workspace {
 public:
  struct Slot {
    Tensor a;                        ///< primary cache (input / mask / xhat)
    std::vector<float> scalars;      ///< per-channel scalars (batch norm)
    std::vector<std::size_t> shape;  ///< cached input shape (pooling)
  };

  Workspace() = default;
  // Like GemmScratch, a copy starts without lanes or arena: they are
  // transient per-worker scratch regrown on demand.
  Workspace(const Workspace& other)
      : slots_(other.slots_), kernel_scratch_(other.kernel_scratch_) {}
  Workspace& operator=(const Workspace& other) {
    slots_ = other.slots_;
    kernel_scratch_ = other.kernel_scratch_;
    arena_.clear();
    extra_lanes_.clear();
    return *this;
  }
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  Slot& slot(const Layer* layer) { return slots_[layer]; }
  void clear() { slots_.clear(); }

  /// Per-worker workspace for callers that run several forward passes at
  /// once (tile-parallel window scoring): lane(0) is this workspace
  /// itself; higher lanes are grown on demand and reused across calls.
  /// Growing is not thread-safe: call lane(n - 1) before a parallel
  /// region, after which lane(i < n) only reads and each worker uses only
  /// its own.
  Workspace& lane(std::size_t index) {
    if (index == 0) return *this;
    while (extra_lanes_.size() < index)
      extra_lanes_.push_back(std::make_unique<Workspace>());
    return *extra_lanes_[index - 1];
  }

  /// Kernel-backend pack buffers (im2col panels, GEMM packing). Owned here
  /// so const, thread-shared layers stay allocation- and state-free.
  KernelScratch& kernels() { return kernel_scratch_; }

  /// Activation arena of nn::EvalPlan: at least `floats` floats. It grows
  /// only when a call asks for more than any earlier one (a larger tile)
  /// and is never shrunk, so a warmed-up lane scores without allocating.
  /// Contents do not survive growth.
  float* arena(std::size_t floats) {
    if (arena_.size() < floats) {
      arena_.clear();
      arena_.resize(floats);
    }
    return arena_.data();
  }

 private:
  std::unordered_map<const Layer*, Slot> slots_;
  KernelScratch kernel_scratch_;
  std::vector<float> arena_;
  std::vector<std::unique_ptr<Workspace>> extra_lanes_;
};

/// Base class of all layers/modules. Forward is const: it may read
/// parameters and mode flags but retains activations only inside the
/// caller's Workspace. The single exception is BatchNorm1d's running
/// statistics, which are updated in training mode only (training-mode
/// forward passes are therefore not thread-safe; eval-mode passes are).
///
/// In eval mode the stateless layers skip their backward-only caches
/// entirely (no input copies) and clear the slot, so
/// backward after an eval-mode forward throws. BatchNorm1d still caches in
/// eval mode: its eval-mode backward is part of the tested contract.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes outputs for a batch, caching into `ws` what backward needs.
  virtual Tensor forward(const Tensor& input, Workspace& ws) const = 0;

  /// Given dLoss/dOutput and the workspace of the paired forward,
  /// accumulates parameter gradients and returns dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output, Workspace& ws) = 0;

  /// Single-threaded convenience (training loops, tests): routes through an
  /// internal workspace. Not thread-safe; concurrent callers must use the
  /// explicit-workspace overloads.
  Tensor forward(const Tensor& input) { return forward(input, scratch_); }
  Tensor backward(const Tensor& grad_output) {
    return backward(grad_output, scratch_);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Read-only view of the trainable parameters. Saving/snapshotting a
  /// model must not require mutable access, so serialization goes through
  /// this overload. The const_cast is sound: the virtual params() only
  /// collects pointers, and callers of this overload never write through
  /// them.
  std::vector<const Param*> params() const {
    const auto ps = const_cast<Layer*>(this)->params();
    return std::vector<const Param*>(ps.begin(), ps.end());
  }

  /// Non-trainable state that must survive serialization (batch-norm
  /// running statistics). Containers aggregate their children's buffers.
  virtual std::vector<std::vector<float>*> buffers() { return {}; }

  /// Read-only view of the serialized buffers (see the const params()).
  std::vector<const std::vector<float>*> buffers() const {
    const auto bs = const_cast<Layer*>(this)->buffers();
    return std::vector<const std::vector<float>*>(bs.begin(), bs.end());
  }

  /// Switches train/eval behaviour (batch-norm statistics).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Short identifier, e.g. "Conv1d(16->32, k=64)".
  virtual std::string name() const = 0;

 protected:
  bool training_ = true;

 private:
  Workspace scratch_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace scalocate::nn
