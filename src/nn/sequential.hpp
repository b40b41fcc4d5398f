// Module containers: Sequential chains layers; Residual implements the
// ResNet shortcut y = F(x) + P(x), where P is the identity when shapes
// match and a 1x1 projection convolution otherwise (the paper's second
// residual block widens 16 -> 32 channels).
//
// forward() runs every layer as itself, in training and in eval mode: the
// graph does no eval-time fusion. It is the reference the serving path is
// tested against; scoring runs an nn::EvalPlan compiled from the graph
// (fused conv epilogues, one activation arena), which must reproduce this
// forward bit for bit.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace scalocate::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Constructs a layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  using Layer::backward;
  using Layer::forward;
  Tensor forward(const Tensor& input, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override;
  std::vector<std::vector<float>*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "Sequential"; }

  /// Multi-line human-readable architecture listing.
  std::string summary() const;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

 private:
  std::vector<LayerPtr> layers_;
};

/// Residual block: out = main(x) + shortcut(x).
class Residual final : public Layer {
 public:
  /// `main` is the residual branch. When `projection` is non-null it is
  /// applied on the shortcut path (1x1 conv for channel changes);
  /// otherwise the shortcut is the identity.
  Residual(LayerPtr main, LayerPtr projection = nullptr);

  using Layer::backward;
  using Layer::forward;
  Tensor forward(const Tensor& input, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override;
  std::vector<std::vector<float>*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "Residual"; }

  Layer& main() { return *main_; }
  const Layer& main() const { return *main_; }
  bool has_projection() const { return projection_ != nullptr; }
  /// The shortcut's projection, or null for an identity shortcut.
  const Layer* projection() const { return projection_.get(); }

 private:
  LayerPtr main_;
  LayerPtr projection_;
};

}  // namespace scalocate::nn
