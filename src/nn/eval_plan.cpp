#include "nn/eval_plan.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace scalocate::nn {

namespace {

void require_eval(const Layer& layer) {
  detail::require(!layer.training(), "EvalPlan: " + layer.name() +
                                         " is in training mode (call "
                                         "set_training(false) first)");
}

}  // namespace

EvalPlan::EvalPlan(const Sequential& model, std::size_t in_channels,
                   std::size_t length) {
  detail::require(in_channels >= 1 && length >= 1,
                  "EvalPlan: empty input shape");
  input_ = new_value(in_channels, length);
  output_ = compile(model, input_);
  assign_offsets();
}

std::size_t EvalPlan::new_value(std::size_t channels, std::size_t length) {
  values_.push_back({channels, length});
  return values_.size() - 1;
}

std::size_t EvalPlan::compile(const Layer& layer, std::size_t x) {
  require_eval(layer);
  if (const auto* seq = dynamic_cast<const Sequential*>(&layer))
    return compile_sequential(*seq, x);
  if (const auto* conv = dynamic_cast<const Conv1d*>(&layer))
    return add_conv(*conv, nullptr, x);
  if (const auto* linear = dynamic_cast<const Linear*>(&layer))
    return add_linear(*linear, false, x);

  if (const auto* res = dynamic_cast<const Residual*>(&layer)) {
    const std::size_t shortcut =
        res->has_projection() ? compile(*res->projection(), x) : x;
    const std::size_t first = steps_.size();
    const std::size_t main = compile(res->main(), x);
    detail::require(values_[main].channels == values_[shortcut].channels &&
                        values_[main].length == values_[shortcut].length,
                    "EvalPlan: residual branch shapes differ");
    // The main branch must end in a conv block: its epilogue takes the
    // shortcut add after the ReLU, exactly where Residual::forward adds.
    Step* last = steps_.size() > first ? &steps_.back() : nullptr;
    if (last == nullptr || last->kind != Kind::kConv || last->out != main ||
        last->mean.empty() || last->res != kNone)
      throw InvalidArgument(
          "EvalPlan: a residual main branch must end in Conv1d -> "
          "BatchNorm1d -> ReLU");
    last->res = shortcut;
    return main;
  }
  if (dynamic_cast<const GlobalAvgPool1d*>(&layer) != nullptr) {
    const Value in = values_[x];
    detail::require(in.length > 0, "EvalPlan: GlobalAvgPool1d needs [B, C, N]");
    Step step(Kind::kGap);
    step.in = x;
    step.out = new_value(in.channels, 0);
    steps_.push_back(std::move(step));
    return steps_.back().out;
  }
  // BatchNorm1d and ReLU only run fused into the step before them.
  throw InvalidArgument("EvalPlan: unsupported layer " + layer.name() +
                        " (BatchNorm1d and ReLU run only as Conv1d -> "
                        "BatchNorm1d -> ReLU or Linear -> ReLU)");
}

std::size_t EvalPlan::compile_sequential(const Sequential& seq,
                                         std::size_t x) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Layer& layer = seq.layer(i);
    const Layer* next = i + 1 < seq.size() ? &seq.layer(i + 1) : nullptr;
    const Layer* after = i + 2 < seq.size() ? &seq.layer(i + 2) : nullptr;
    const auto* conv = dynamic_cast<const Conv1d*>(&layer);
    const auto* bn = dynamic_cast<const BatchNorm1d*>(next);
    if (conv != nullptr && bn != nullptr &&
        dynamic_cast<const ReLU*>(after) != nullptr) {
      require_eval(*conv);
      require_eval(*bn);
      require_eval(*after);
      x = add_conv(*conv, bn, x);
      i += 2;
      continue;
    }
    const auto* linear = dynamic_cast<const Linear*>(&layer);
    if (linear != nullptr && dynamic_cast<const ReLU*>(next) != nullptr) {
      require_eval(*linear);
      require_eval(*next);
      x = add_linear(*linear, true, x);
      ++i;
      continue;
    }
    x = compile(layer, x);
  }
  return x;
}

std::size_t EvalPlan::add_conv(const Conv1d& conv, const BatchNorm1d* bn,
                               std::size_t x) {
  const Value in = values_[x];
  detail::require(in.length > 0 && in.channels == conv.in_channels(),
                  "EvalPlan: " + conv.name() + " input shape mismatch");
  Step step(Kind::kConv);
  step.in = x;
  step.weight = conv.weight().value.data();
  step.bias = conv.bias().value.data();
  step.kernel = conv.kernel_size();
  step.stride = conv.stride_amount();
  step.pad_left = conv.pad_left();
  if (bn != nullptr) {
    detail::require(bn->running_mean().size() == conv.out_channels(),
                    "EvalPlan: " + bn->name() + " after " + conv.name());
    // Mean and 1/std rounded to float exactly as the eval forward does.
    step.mean.assign(bn->running_mean().begin(), bn->running_mean().end());
    step.inv_std = bn->eval_inv_std();
    step.gamma = bn->gamma().value.data();
    step.beta = bn->beta().value.data();
  }
  step.out = new_value(conv.out_channels(), conv.output_length(in.length));
  steps_.push_back(std::move(step));
  return steps_.back().out;
}

std::size_t EvalPlan::add_linear(const Linear& linear, bool relu,
                                 std::size_t x) {
  const Value in = values_[x];
  detail::require(in.length == 0 && in.channels == linear.in_features(),
                  "EvalPlan: " + linear.name() + " input shape mismatch");
  Step step(Kind::kLinear);
  step.in = x;
  step.weight = linear.weight().value.data();
  step.bias = linear.bias().value.data();
  step.relu = relu;
  step.out = new_value(linear.out_features(), 0);
  steps_.push_back(std::move(step));
  return steps_.back().out;
}

void EvalPlan::assign_offsets() {
  // Step index of each value's last reader; the output outlives every step.
  std::vector<std::size_t> last(values_.size(), 0);
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    last[steps_[i].out] = i;
    last[steps_[i].in] = i;
    if (steps_[i].res != kNone) last[steps_[i].res] = i;
  }
  last[output_] = steps_.size();

  // Each slot holds one value at a time. A value defined by step i may
  // take a slot whose occupant was last read before step i, or the slot of
  // a shortcut that step i reads for the last time when step i is a
  // stride-1 conv that does not also read it as input: the stride-1
  // kernel reads each residual vector just before it stores the output
  // vector in its place (kernels::BnRelu). Among those it prefers the slot
  // that grows least, then the smallest.
  struct Slot {
    std::size_t floats = 0;
    std::size_t value = kNone;
  };
  std::vector<Slot> slots;
  std::vector<std::size_t> slot_of(values_.size(), kNone);
  const auto free_at = [&](const Slot& slot, std::size_t step) {
    if (slot.value == kNone || last[slot.value] < step) return true;
    const Step& s = steps_[step];
    return s.kind == Kind::kConv && s.stride == 1 && slot.value == s.res &&
           s.res != s.in && last[s.res] == step;
  };
  const auto place = [&](std::size_t value, std::size_t step) {
    const std::size_t need = floats(value);
    const auto cost = [need](const Slot& slot) {
      return std::pair(need > slot.floats ? need - slot.floats : 0,
                       slot.floats);
    };
    std::size_t best = kNone;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!free_at(slots[s], step)) continue;
      if (best == kNone || cost(slots[s]) < cost(slots[best])) best = s;
    }
    if (best == kNone) {
      best = slots.size();
      slots.emplace_back();
    }
    slots[best].floats = std::max(slots[best].floats, need);
    slots[best].value = value;
    slot_of[value] = best;
  };
  // The input and the output have regions of their own (run()).
  for (std::size_t i = 0; i < steps_.size(); ++i)
    if (steps_[i].out != output_) place(steps_[i].out, i);

  std::vector<std::size_t> slot_offset(slots.size());
  work_floats_ = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    slot_offset[s] = work_floats_;
    work_floats_ += slots[s].floats;
  }
  for (std::size_t v = 0; v < values_.size(); ++v)
    if (slot_of[v] != kNone) values_[v].offset = slot_offset[slot_of[v]];
  const std::size_t work_bytes = sizeof(float) * work_floats_;
  group_ = work_bytes == 0
               ? 1
               : std::max<std::size_t>(1, kGroupBytes / work_bytes);
}

std::size_t EvalPlan::arena_floats(std::size_t count) const {
  return count * (floats(input_) + floats(output_)) +
         std::min(count, group_) * work_floats_;
}

float* EvalPlan::input(std::size_t count, Workspace& ws) const {
  return ws.arena(arena_floats(count));
}

const float* EvalPlan::run(std::size_t count, Workspace& ws) const {
  // Arena: [count inputs][count outputs][one group's intermediate values].
  float* const input = ws.arena(arena_floats(count));
  float* const output = input + count * floats(input_);
  float* const work = output + count * floats(output_);
  kernels::GemmScratch& gemm = ws.kernels().gemm;
  for (std::size_t first = 0; first < count; first += group_) {
    const std::size_t n = std::min(group_, count - first);
    // Intermediate values are [n, ...] blocks, so a per-window offset
    // scales by n.
    const auto at = [&](std::size_t value) {
      if (value == input_) return input + first * floats(input_);
      if (value == output_) return output + first * floats(output_);
      return work + n * values_[value].offset;
    };
    run_group(n, at, gemm);
  }
  return output_ == input_ ? input : output;
}

template <typename At>
void EvalPlan::run_group(std::size_t count, const At& at,
                         kernels::GemmScratch& gemm) const {
  for (const Step& s : steps_) {
    const Value& in = values_[s.in];
    const Value& out = values_[s.out];
    const float* x = at(s.in);
    float* y = at(s.out);
    switch (s.kind) {
      case Kind::kConv: {
        const kernels::BnRelu epi{s.mean.data(), s.inv_std.data(), s.gamma,
                                  s.beta,
                                  s.res != kNone ? at(s.res) : nullptr};
        kernels::sgemm_conv(out.channels, out.length, count, s.weight, s.bias,
                            x, in.channels, in.length, s.kernel, s.stride,
                            s.pad_left, y, gemm,
                            s.mean.empty() ? nullptr : &epi);
        break;
      }
      case Kind::kGap: {
        const double inv_n = 1.0 / static_cast<double>(in.length);
        for (std::size_t r = 0; r < count * in.channels; ++r)
          y[r] = static_cast<float>(
              kernels::sum(in.length, x + r * in.length) * inv_n);
        break;
      }
      case Kind::kLinear:
        kernels::sgemm(false, true, count, out.channels, in.channels, 1.0f, x,
                       in.channels, s.weight, in.channels, 0.0f, y,
                       out.channels, gemm);
        kernels::add_bias_cols(y, s.bias, count, out.channels);
        if (s.relu) kernels::relu(count * out.channels, y, y);
        break;
    }
  }
}

}  // namespace scalocate::nn
