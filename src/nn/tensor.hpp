// Dense float tensor with contiguous row-major storage.
//
// The scalocate NN framework deliberately avoids a general autograd tape:
// every Layer implements an explicit forward/backward pair over these
// tensors (validated by finite-difference tests), which keeps the CPU
// training loop small, fast, and fully deterministic.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace scalocate::nn {

class Tensor {
 public:
  /// Empty tensor (numel 0).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Builds a tensor that adopts `data` (size must match the shape).
  static Tensor from_data(std::vector<std::size_t> shape,
                          std::vector<float> data);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  /// Element access (rank/bounds-checked in debug; hot paths use raw
  /// data()). The single-index overload is flat access for any rank.
  float& at(std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  float at(std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }
  float& at(std::size_t i, std::size_t j) {
    assert(rank() == 2 && i < shape_[0] && j < shape_[1]);
    return data_[i * stride_[0] + j];
  }
  float at(std::size_t i, std::size_t j) const {
    assert(rank() == 2 && i < shape_[0] && j < shape_[1]);
    return data_[i * stride_[0] + j];
  }
  float& at(std::size_t i, std::size_t j, std::size_t k) {
    assert(rank() == 3 && i < shape_[0] && j < shape_[1] && k < shape_[2]);
    return data_[i * stride_[0] + j * stride_[1] + k];
  }
  float at(std::size_t i, std::size_t j, std::size_t k) const {
    assert(rank() == 3 && i < shape_[0] && j < shape_[1] && k < shape_[2]);
    return data_[i * stride_[0] + j * stride_[1] + k];
  }

  /// Stride (elements) of an axis.
  std::size_t stride(std::size_t axis) const { return stride_[axis]; }

  /// Sets every element to `value`.
  void fill(float value);

  /// Returns a copy with a new shape of equal numel.
  Tensor reshaped(std::vector<std::size_t> new_shape) const;

  /// In-place metadata-only reshape: the storage is reused (no realloc, no
  /// copy; data() stays valid), so one allocation can be re-viewed. The
  /// new shape must have the same numel.
  Tensor& reshape(std::vector<std::size_t> new_shape);
  Tensor& reshape(std::initializer_list<std::size_t> new_shape) {
    return reshape(std::vector<std::size_t>(new_shape));
  }

  /// "(2, 16, 192)" -- for error messages and summaries.
  std::string shape_string() const;

  /// True when shapes are identical.
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  void compute_strides();

  std::vector<std::size_t> shape_;
  std::vector<std::size_t> stride_;  // strides for all but the last axis
  std::vector<float> data_;
};

}  // namespace scalocate::nn
