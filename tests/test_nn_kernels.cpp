// Kernel-backend parity suite: the blocked GEMM path vs the naive
// reference kernels, im2col/col2im round trips, the fused pointwise ops,
// Tensor reshape/view semantics, and gradient checks routed through the
// new backend (Conv1d/Linear).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/eval_plan.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/pack.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/kernels/reference.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"

namespace scalocate::nn {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void expect_close(std::span<const float> a, std::span<const float> b,
                  float tol, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float denom = std::max({1.0f, std::fabs(a[i]), std::fabs(b[i])});
    ASSERT_NEAR(a[i], b[i], tol * denom) << what << " at index " << i;
  }
}

// ---------------------------------------------------------------------------
// GEMM: blocked vs naive reference
// ---------------------------------------------------------------------------

struct GemmCase {
  std::size_t m, n, k;
};

class GemmParity : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParity, AllTransposesAlphaBeta) {
  const auto p = GetParam();
  kernels::GemmScratch scratch;
  std::uint64_t seed = 1000;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      // Row-major storage of op(A) (m x k) and op(B) (k x n).
      const auto a = random_vec(p.m * p.k, seed++);
      const auto b = random_vec(p.k * p.n, seed++);
      const std::size_t lda = ta ? p.m : p.k;
      const std::size_t ldb = tb ? p.k : p.n;
      for (float alpha : {1.0f, -0.5f}) {
        for (float beta : {0.0f, 1.0f, 0.25f}) {
          auto c_ref = random_vec(p.m * p.n, seed);
          auto c_blk = c_ref;  // identical prior contents for beta != 0
          kernels::sgemm_naive(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda,
                               b.data(), ldb, beta, c_ref.data(), p.n);
          kernels::sgemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda, b.data(),
                         ldb, beta, c_blk.data(), p.n, scratch);
          expect_close(c_blk, c_ref, 1e-5f, "gemm");
        }
      }
      ++seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 7}, GemmCase{4, 8, 16},
                      GemmCase{5, 9, 300},   // k spans multiple KC panels? no,
                                             // but exercises long-k loop
                      GemmCase{33, 17, 129}, // ragged in every dimension
                      GemmCase{64, 192, 257},
                      GemmCase{130, 40, 300}));  // m spans multiple MC blocks

TEST(Gemm, KZeroAppliesBetaOnly) {
  kernels::GemmScratch scratch;
  std::vector<float> c = {1.f, 2.f, 3.f, 4.f};
  kernels::sgemm(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.5f,
                 c.data(), 2, scratch);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  kernels::sgemm(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f,
                 c.data(), 2, scratch);
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  kernels::GemmScratch scratch;
  const auto a = random_vec(6, 1);
  const auto b = random_vec(6, 2);
  std::vector<float> c_ref(4, 0.0f);
  std::vector<float> c(4, std::numeric_limits<float>::quiet_NaN());
  kernels::sgemm_naive(false, false, 2, 2, 3, 1.0f, a.data(), 3, b.data(), 2,
                       0.0f, c_ref.data(), 2);
  kernels::sgemm(false, false, 2, 2, 3, 1.0f, a.data(), 3, b.data(), 2, 0.0f,
                 c.data(), 2, scratch);
  expect_close(c, c_ref, 1e-6f, "beta=0");
}

// ---------------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------------

TEST(Im2Col, MatchesDirectIndexing) {
  const std::size_t cin = 3, n = 11, k = 4, stride = 2, pad = 1;
  const std::size_t out_len = kernels::conv_output_length(n, k, stride, pad, pad);
  const auto x = random_vec(cin * n, 7);
  std::vector<float> col(cin * k * out_len, -99.0f);
  kernels::im2col(x.data(), cin, n, k, stride, pad, out_len, col.data());
  for (std::size_t ci = 0; ci < cin; ++ci) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < out_len; ++j) {
        const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(j * stride + kk) -
                                   static_cast<std::ptrdiff_t>(pad);
        const float expected =
            (src >= 0 && src < static_cast<std::ptrdiff_t>(n))
                ? x[ci * n + static_cast<std::size_t>(src)]
                : 0.0f;
        ASSERT_FLOAT_EQ(col[(ci * k + kk) * out_len + j], expected)
            << "ci=" << ci << " k=" << kk << " j=" << j;
      }
    }
  }
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining
  // property of the transpose, which is exactly what backward needs.
  const std::size_t cin = 2, n = 9, k = 3, stride = 1, pad = 1;
  const std::size_t out_len = kernels::conv_output_length(n, k, stride, pad, pad);
  const auto x = random_vec(cin * n, 11);
  const auto c = random_vec(cin * k * out_len, 13);
  std::vector<float> col(cin * k * out_len);
  kernels::im2col(x.data(), cin, n, k, stride, pad, out_len, col.data());
  std::vector<float> xt(cin * n, 0.0f);
  kernels::col2im(c.data(), cin, n, k, stride, pad, out_len, xt.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i)
    lhs += static_cast<double>(col[i] * c[i]);
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i] * xt[i]);
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

// ---------------------------------------------------------------------------
// Conv1d / Linear layer parity against the naive reference kernels
// ---------------------------------------------------------------------------

struct ConvShape {
  std::size_t batch, cin, cout, k, stride, n;
  int pad;  // -1 = same padding
};

class ConvParity : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvParity, ForwardAndBackwardMatchReference) {
  const auto p = GetParam();
  Conv1d conv(p.cin, p.cout, p.k, p.stride, p.pad);
  Rng rng(17);
  he_normal_init(conv.weight().value, rng);
  for (float& v : conv.bias().value.flat())
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const auto x = random_tensor({p.batch, p.cin, p.n}, 19);
  const std::size_t out_len = conv.output_length(p.n);

  // Forward parity.
  conv.set_training(true);
  Workspace ws;
  const Tensor y = conv.forward(x, ws);
  std::vector<float> y_ref(p.batch * p.cout * out_len);
  kernels::conv1d_forward_naive(x.data(), p.batch, p.cin, p.n,
                                conv.weight().value.data(),
                                conv.bias().value.data(), p.cout, p.k,
                                p.stride, conv.pad_left(), out_len,
                                y_ref.data());
  expect_close(y.flat(), y_ref, 1e-4f, "conv forward");

  // Backward parity (input, weight, and bias gradients).
  const auto gout = random_tensor({p.batch, p.cout, out_len}, 23);
  conv.weight().zero_grad();
  conv.bias().zero_grad();
  const Tensor gx = conv.backward(gout, ws);
  std::vector<float> gx_ref(x.numel(), 0.0f);
  std::vector<float> gw_ref(conv.weight().value.numel(), 0.0f);
  std::vector<float> gb_ref(p.cout, 0.0f);
  kernels::conv1d_backward_naive(x.data(), p.batch, p.cin, p.n,
                                 conv.weight().value.data(), p.cout, p.k,
                                 p.stride, conv.pad_left(), out_len,
                                 gout.data(), gx_ref.data(), gw_ref.data(),
                                 gb_ref.data());
  expect_close(gx.flat(), gx_ref, 1e-4f, "conv grad_input");
  expect_close(conv.weight().grad.flat(), gw_ref, 1e-4f, "conv grad_weight");
  expect_close(conv.bias().grad.flat(), gb_ref, 1e-4f, "conv grad_bias");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParity,
    ::testing::Values(ConvShape{2, 1, 4, 3, 1, 16, -1},   // tiny same-pad
                      ConvShape{1, 1, 16, 16, 1, 192, -1},  // paper entry conv
                      ConvShape{2, 16, 32, 16, 1, 192, -1},  // paper widening
                      ConvShape{1, 16, 32, 1, 1, 50, 0},  // 1x1 projection
                      ConvShape{2, 3, 5, 4, 2, 37, -1},   // even k, stride 2
                      ConvShape{1, 2, 2, 5, 3, 29, 0},    // no pad, stride 3
                      ConvShape{3, 4, 4, 7, 1, 21, 2}));  // explicit pad

TEST(LinearParity, ForwardAndBackwardMatchReference) {
  Linear lin(37, 11);
  Rng rng(29);
  he_normal_init(lin.weight().value, rng);
  for (float& v : lin.bias().value.flat())
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const auto x = random_tensor({5, 37}, 31);

  Workspace ws;
  lin.set_training(true);
  const Tensor y = lin.forward(x, ws);
  std::vector<float> y_ref(5 * 11);
  kernels::linear_forward_naive(x.data(), 5, 37, lin.weight().value.data(),
                                lin.bias().value.data(), 11, y_ref.data());
  expect_close(y.flat(), y_ref, 1e-4f, "linear forward");

  const auto gout = random_tensor({5, 11}, 37);
  lin.weight().zero_grad();
  lin.bias().zero_grad();
  const Tensor gx = lin.backward(gout, ws);
  std::vector<float> gx_ref(x.numel(), 0.0f);
  std::vector<float> gw_ref(lin.weight().value.numel(), 0.0f);
  std::vector<float> gb_ref(11, 0.0f);
  kernels::linear_backward_naive(x.data(), 5, 37, lin.weight().value.data(),
                                 11, gout.data(), gx_ref.data(), gw_ref.data(),
                                 gb_ref.data());
  expect_close(gx.flat(), gx_ref, 1e-4f, "linear grad_input");
  expect_close(lin.weight().grad.flat(), gw_ref, 1e-4f, "linear grad_weight");
  expect_close(lin.bias().grad.flat(), gb_ref, 1e-4f, "linear grad_bias");
}

// ---------------------------------------------------------------------------
// Gradient checks through the GEMM backend
// ---------------------------------------------------------------------------

TEST(KernelGradcheck, ConvThroughGemmBackend) {
  for (const auto& p :
       {ConvShape{2, 2, 3, 5, 1, 14, -1}, ConvShape{1, 3, 2, 4, 2, 13, -1},
        ConvShape{2, 2, 2, 1, 1, 8, 0}}) {
    Conv1d conv(p.cin, p.cout, p.k, p.stride, p.pad);
    Rng rng(41);
    he_normal_init(conv.weight().value, rng);
    const auto x = random_tensor({p.batch, p.cin, p.n}, 43);
    // Slightly larger FD step than the default: near-zero gradient entries
    // otherwise sit at the float forward-pass noise floor and trip the
    // relative bound (the FMA contraction of the GEMM path shifts rounding
    // by a few ulp vs plain mul+add).
    const auto result = check_layer_gradients(conv, x, /*epsilon=*/4e-3);
    EXPECT_TRUE(result.passed)
        << "k=" << p.k << " s=" << p.stride
        << " abs=" << result.max_abs_error << " rel=" << result.max_rel_error;
  }
}

TEST(KernelGradcheck, LinearThroughGemmBackend) {
  Linear lin(9, 6);
  Rng rng(47);
  he_normal_init(lin.weight().value, rng);
  EXPECT_TRUE(check_layer_gradients(lin, random_tensor({3, 9}, 53)).passed);
}

// ---------------------------------------------------------------------------
// Intra-op threading: bit-identical to the single-threaded kernels
// ---------------------------------------------------------------------------
// The threaded drivers only repartition the macro-loops; the per-element
// summation order is untouched, so these compare BITWISE (not within a
// tolerance). ParallelGrainGuard(1) forces even these small shapes through
// the parallel path; on a single-core machine the chunks still execute
// (oversubscribed), so the coverage does not depend on the host's cores.

void expect_bit_equal(std::span<const float> a, std::span<const float> b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " at index " << i << ": " << a[i] << " vs " << b[i];
}

TEST(GemmThreaded, BitIdenticalAcrossThreadCounts) {
  kernels::ParallelGrainGuard grain(1);
  struct Shape {
    std::size_t m, n, k;
  };
  // Wide shapes take the column partition, the tall one the row partition
  // (n = 8 < kMinColsPerChunk); the last is ragged in every dimension and
  // spans multiple cache blocks.
  for (const auto& p :
       {Shape{5, 301, 40}, Shape{301, 8, 40}, Shape{130, 97, 129}}) {
    std::uint64_t seed = 900;
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const auto a = random_vec(p.m * p.k, seed++);
        const auto b = random_vec(p.k * p.n, seed++);
        const std::size_t lda = ta ? p.m : p.k;
        const std::size_t ldb = tb ? p.k : p.n;
        for (float alpha : {1.0f, -0.5f}) {
          for (float beta : {0.0f, 0.25f}) {
            const auto c0 = random_vec(p.m * p.n, seed);
            auto c_ref = c0;
            {
              kernels::IntraOpGuard intra(1);
              kernels::GemmScratch scratch;
              kernels::sgemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda,
                             b.data(), ldb, beta, c_ref.data(), p.n, scratch);
            }
            for (std::size_t threads : {2u, 3u, 8u}) {
              kernels::IntraOpGuard intra(threads);
              kernels::GemmScratch scratch;
              auto c_thr = c0;
              kernels::sgemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda,
                             b.data(), ldb, beta, c_thr.data(), p.n, scratch);
              expect_bit_equal(c_thr, c_ref, "threaded gemm");
            }
            ++seed;
          }
        }
      }
    }
  }
}

TEST(GemmThreaded, ConvBitIdenticalAcrossThreadCounts) {
  kernels::ParallelGrainGuard grain(1);
  struct Shape {
    std::size_t batch, cin, cout, k, stride, pad, n;
  };
  // batch > 1 exercises the batch partition (including a ragged 5-way
  // split), batch == 1 the out-channel partition; stride 2 covers the
  // strided packing path.
  for (const auto& p :
       {Shape{5, 3, 8, 7, 1, 3, 40}, Shape{1, 4, 32, 5, 1, 2, 33},
        Shape{3, 2, 12, 6, 2, 2, 37}, Shape{8, 1, 16, 64, 1, 31, 192}}) {
    const std::size_t out_len =
        kernels::conv_output_length(p.n, p.k, p.stride, p.pad, p.pad);
    const auto w = random_vec(p.cout * p.cin * p.k, 501);
    const auto bias = random_vec(p.cout, 503);
    const auto x = random_vec(p.batch * p.cin * p.n, 505);
    std::vector<float> out_ref(p.batch * p.cout * out_len);
    {
      kernels::IntraOpGuard intra(1);
      kernels::GemmScratch scratch;
      kernels::sgemm_conv(p.cout, out_len, p.batch, w.data(), bias.data(),
                          x.data(), p.cin, p.n, p.k, p.stride, p.pad,
                          out_ref.data(), scratch);
    }
    for (std::size_t threads : {2u, 3u, 8u}) {
      kernels::IntraOpGuard intra(threads);
      kernels::GemmScratch scratch;
      std::vector<float> out(p.batch * p.cout * out_len,
                             std::numeric_limits<float>::quiet_NaN());
      kernels::sgemm_conv(p.cout, out_len, p.batch, w.data(), bias.data(),
                          x.data(), p.cin, p.n, p.k, p.stride, p.pad,
                          out.data(), scratch);
      expect_bit_equal(out, out_ref, "threaded conv");
    }
  }
}

TEST(GemmThreaded, GradcheckThroughThreadedBackward) {
  kernels::ParallelGrainGuard grain(1);
  kernels::IntraOpGuard intra(4);
  // out_len 70 >= 2 * kMinColsPerChunk, so the backward dX/dW products
  // actually split under the 4-thread budget.
  Conv1d conv(2, 3, 5, 1, -1);
  Rng rng(41);
  he_normal_init(conv.weight().value, rng);
  // FD step larger again than the 4e-3 of the unthreaded gradchecks: the
  // longer out_len (70 vs 14) deepens the reductions, pushing the noise
  // floor of near-zero gradient entries above the smaller steps.
  const auto result = check_layer_gradients(
      conv, random_tensor({2, 2, 70}, 43), /*epsilon=*/1.6e-2);
  EXPECT_TRUE(result.passed) << "abs=" << result.max_abs_error
                             << " rel=" << result.max_rel_error;

  // in = 70 so the backward dX (m=batch, n=70) and dW (m=6, n=70)
  // products split as well.
  Linear lin(70, 6);
  Rng rng_lin(47);
  he_normal_init(lin.weight().value, rng_lin);
  const auto lin_result = check_layer_gradients(
      lin, random_tensor({3, 70}, 53), /*epsilon=*/4e-3);
  EXPECT_TRUE(lin_result.passed) << "abs=" << lin_result.max_abs_error
                                 << " rel=" << lin_result.max_rel_error;
}

/// Runs a few SGD steps on a Conv1d+Linear stack under the given intra-op
/// budget and returns all trained parameters plus the final forward
/// output (the "detections" of this toy model).
std::vector<float> train_tiny_stack(std::size_t threads) {
  kernels::ParallelGrainGuard grain(1);
  kernels::IntraOpGuard intra(threads);
  const std::size_t batch = 6, cin = 2, cout = 4, n = 20, classes = 3;
  Conv1d conv(cin, cout, 5, 1, -1);
  const std::size_t out_len = conv.output_length(n);
  Linear lin(cout * out_len, classes);
  Rng rng(71);
  he_normal_init(conv.weight().value, rng);
  he_normal_init(lin.weight().value, rng);
  conv.set_training(true);
  lin.set_training(true);
  Workspace ws_conv, ws_lin;
  const auto x = random_tensor({batch, cin, n}, 73);
  Param* params[] = {&conv.weight(), &conv.bias(), &lin.weight(),
                     &lin.bias()};
  for (int step = 0; step < 4; ++step) {
    Tensor y = conv.forward(x, ws_conv);
    y.reshape({batch, cout * out_len});
    const Tensor z = lin.forward(y, ws_lin);
    for (Param* p : params) p->zero_grad();
    Tensor gy = lin.backward(z, ws_lin);  // dL/dz = z for L = 0.5*|z|^2
    gy.reshape({batch, cout, out_len});
    conv.backward(gy, ws_conv);
    for (Param* p : params) {
      auto vals = p->value.flat();
      const auto grads = p->grad.flat();
      for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] -= 0.01f * grads[i];
    }
  }
  Tensor y = conv.forward(x, ws_conv);
  y.reshape({batch, cout * out_len});
  const Tensor z = lin.forward(y, ws_lin);
  std::vector<float> result;
  for (const Param* p : params)
    result.insert(result.end(), p->value.flat().begin(),
                  p->value.flat().end());
  result.insert(result.end(), z.flat().begin(), z.flat().end());
  return result;
}

TEST(GemmThreaded, TrainingBitParityAcrossThreadBudgets) {
  // Whole training runs — every weight after 4 SGD steps AND the final
  // model output — must be bit-identical whatever the kernel fan-out.
  const auto ref = train_tiny_stack(1);
  expect_bit_equal(train_tiny_stack(2), ref, "trained params+output, t=2");
  expect_bit_equal(train_tiny_stack(8), ref, "trained params+output, t=8");
}

// ---------------------------------------------------------------------------
// Dispatch tiers and the fused eval conv block
// ---------------------------------------------------------------------------

using kernels::detail::Isa;
using kernels::detail::IsaCapGuard;

/// Every tier this host runs, widest first.
std::vector<Isa> host_tiers() {
  std::vector<Isa> tiers;
  for (Isa t : {Isa::kAvx512, Isa::kAvx2, Isa::kPortable})
    if (t <= kernels::detail::active_isa()) tiers.push_back(t);
  return tiers;
}

/// Per-channel eval BatchNorm parameters, laid out as kernels::BnRelu
/// wants them.
struct BnParams {
  std::vector<float> mean, inv_std, gamma, beta;
  explicit BnParams(std::size_t c, std::uint64_t seed)
      : mean(random_vec(c, seed)),
        inv_std(random_vec(c, seed + 1)),
        gamma(random_vec(c, seed + 2)),
        beta(random_vec(c, seed + 3)) {
    for (float& v : inv_std) v = 0.5f + std::fabs(v);
  }
  kernels::BnRelu view() const {
    return {mean.data(), inv_std.data(), gamma.data(), beta.data()};
  }
};

TEST(ConvTiers, IsaNameFollowsDispatch) {
  const std::string best = kernels::isa_name();
  EXPECT_TRUE(best == "avx512" || best == "avx2" || best == "portable");
  IsaCapGuard cap(Isa::kPortable);
  EXPECT_STREQ(kernels::isa_name(), "portable");
}

TEST(ConvTiers, Avx512DirectConvBitIdenticalToAvx2) {
  if (kernels::detail::active_isa() != Isa::kAvx512)
    GTEST_SKIP() << "no avx512f tier on this host (dispatch: "
                 << kernels::isa_name() << ")";
  kernels::ParallelGrainGuard grain(1);
  struct Shape {
    std::size_t cout, cin, kernel, pad_left, pad_right, n;
  };
  // Ragged everywhere: cout % 8 != 0 (and one multiple of 8 with a ragged
  // AVX2-only row count), out_len % 32 != 0, kernels 1/16/64, cin 1/3/32,
  // asymmetric padding.
  const Shape shapes[] = {
      {13, 1, 16, 7, 8, 45},  {8, 3, 64, 31, 32, 100},
      {21, 32, 1, 0, 0, 37},  {12, 32, 16, 3, 12, 70},
      {5, 3, 64, 40, 10, 40}, {16, 1, 64, 31, 32, 192}};
  std::uint64_t seed = 2000;
  for (const Shape& s : shapes) {
    const std::size_t out_len =
        kernels::conv_output_length(s.n, s.kernel, 1, s.pad_left, s.pad_right);
    const auto w = random_vec(s.cout * s.cin * s.kernel, seed++);
    const auto bias = random_vec(s.cout, seed++);
    const BnParams bn(s.cout, seed);
    seed += 4;
    for (std::size_t batch : {1u, 3u, 64u}) {
      const auto x = random_vec(batch * s.cin * s.n, seed++);
      for (bool fused : {false, true}) {
        const kernels::BnRelu epi = bn.view();
        const kernels::BnRelu* epilogue = fused ? &epi : nullptr;
        const auto run = [&](Isa tier, std::size_t threads) {
          IsaCapGuard cap(tier);
          kernels::IntraOpGuard intra(threads);
          kernels::GemmScratch scratch;
          std::vector<float> out(batch * s.cout * out_len,
                                 std::numeric_limits<float>::quiet_NaN());
          kernels::sgemm_conv(s.cout, out_len, batch, w.data(), bias.data(),
                              x.data(), s.cin, s.n, s.kernel, 1, s.pad_left,
                              out.data(), scratch, epilogue);
          return out;
        };
        const auto ref = run(Isa::kAvx2, 1);
        for (std::size_t threads : {1u, 2u, 4u})
          expect_bit_equal(run(Isa::kAvx512, threads), ref,
                           fused ? "avx512 vs avx2, fused" : "avx512 vs avx2");
      }
    }
  }
}

TEST(ConvTiers, StridedConvEpilogueMatchesSeparatePass) {
  // Strided convolutions run the blocked GEMM and apply the epilogue as a
  // pass over the finished output; both must give BatchNorm+ReLU exactly.
  const std::size_t cout = 6, cin = 3, kernel = 5, stride = 2, pad = 2;
  const std::size_t n = 41, batch = 2;
  const std::size_t out_len =
      kernels::conv_output_length(n, kernel, stride, pad, pad);
  const auto w = random_vec(cout * cin * kernel, 31);
  const auto bias = random_vec(cout, 32);
  const auto x = random_vec(batch * cin * n, 33);
  const BnParams bn(cout, 34);
  const kernels::BnRelu epi = bn.view();
  for (Isa tier : host_tiers()) {
    IsaCapGuard cap(tier);
    kernels::GemmScratch scratch;
    std::vector<float> plain(batch * cout * out_len);
    std::vector<float> fused(plain.size());
    kernels::sgemm_conv(cout, out_len, batch, w.data(), bias.data(), x.data(),
                        cin, n, kernel, stride, pad, plain.data(), scratch);
    kernels::sgemm_conv(cout, out_len, batch, w.data(), bias.data(), x.data(),
                        cin, n, kernel, stride, pad, fused.data(), scratch,
                        &epi);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t c = 0; c < cout; ++c)
        for (std::size_t i = 0; i < out_len; ++i) {
          const float v = plain[(b * cout + c) * out_len + i];
          const float h = (v - bn.mean[c]) * bn.inv_std[c];
          const float y = bn.gamma[c] * h + bn.beta[c];
          plain[(b * cout + c) * out_len + i] = y > 0.0f ? y : 0.0f;
        }
    expect_bit_equal(fused, plain, "strided fused epilogue");
  }
}

TEST(ConvTiers, ResidualEpilogueAddsAfterRelu) {
  // out = relu(bn(conv)) + residual on every tier, thread split and conv
  // path (direct stride-1 tile, strided GEMM pass). Ragged channel counts
  // leave padded tile rows, which must not read the residual; the
  // residual carries +-0, +-Inf and NaN, so dropping it or adding it
  // before the ReLU changes the bits.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  kernels::ParallelGrainGuard grain(1);
  struct Shape {
    std::size_t cout, cin, kernel, stride, pad, n;
  };
  const Shape shapes[] = {{13, 3, 16, 1, 7, 45},
                          {21, 1, 64, 1, 31, 70},
                          {16, 16, 1, 1, 0, 37},
                          {11, 3, 5, 2, 2, 41}};
  std::uint64_t seed = 5000;
  for (const Shape& s : shapes) {
    const std::size_t out_len = kernels::conv_output_length(
        s.n, s.kernel, s.stride, s.pad, s.kernel - 1 - s.pad);
    const auto w = random_vec(s.cout * s.cin * s.kernel, seed++);
    const auto bias = random_vec(s.cout, seed++);
    const BnParams bn(s.cout, seed);
    seed += 4;
    for (std::size_t batch : {1u, 3u}) {
      const auto x = random_vec(batch * s.cin * s.n, seed++);
      auto residual = random_vec(batch * s.cout * out_len, seed++);
      const float specials[] = {0.0f, -0.0f, kInf, -kInf, kNan};
      for (std::size_t i = 0; i < residual.size(); i += 7)
        residual[i] = specials[(i / 7) % 5];
      kernels::BnRelu epi = bn.view();
      epi.residual = residual.data();
      for (Isa tier : host_tiers()) {
        IsaCapGuard cap(tier);
        // Reference: the plain conv, then BatchNorm, ReLU and the add as
        // separate passes, in that order.
        kernels::GemmScratch scratch;
        std::vector<float> ref(batch * s.cout * out_len);
        {
          kernels::IntraOpGuard one(1);
          kernels::sgemm_conv(s.cout, out_len, batch, w.data(), bias.data(),
                              x.data(), s.cin, s.n, s.kernel, s.stride, s.pad,
                              ref.data(), scratch);
        }
        for (std::size_t b = 0; b < batch; ++b)
          for (std::size_t c = 0; c < s.cout; ++c) {
            float* row = ref.data() + (b * s.cout + c) * out_len;
            for (std::size_t i = 0; i < out_len; ++i) {
              const float h = (row[i] - bn.mean[c]) * bn.inv_std[c];
              const float y = bn.gamma[c] * h + bn.beta[c];
              row[i] = y > 0.0f ? y : 0.0f;
            }
          }
        kernels::add_inplace(ref.size(), residual.data(), ref.data());
        for (std::size_t threads : {1u, 4u}) {
          kernels::IntraOpGuard intra(threads);
          std::vector<float> out(ref.size(),
                                 std::numeric_limits<float>::quiet_NaN());
          kernels::sgemm_conv(s.cout, out_len, batch, w.data(), bias.data(),
                              x.data(), s.cin, s.n, s.kernel, s.stride, s.pad,
                              out.data(), scratch, &epi);
          expect_bit_equal(out, ref, "residual epilogue");
          if (s.stride != 1) continue;
          // A stride-1 conv may write its output over the residual.
          std::vector<float> in_place = residual;
          kernels::BnRelu over = bn.view();
          over.residual = in_place.data();
          kernels::sgemm_conv(s.cout, out_len, batch, w.data(), bias.data(),
                              x.data(), s.cin, s.n, s.kernel, s.stride, s.pad,
                              in_place.data(), scratch, &over);
          expect_bit_equal(in_place, ref, "residual epilogue in place");
        }
      }
    }
  }
}

/// Every Conv1d -> BatchNorm1d -> ReLU block under `layer`.
void collect_conv_blocks(Layer& layer, std::vector<Sequential*>& blocks) {
  if (auto* res = dynamic_cast<Residual*>(&layer)) {
    collect_conv_blocks(res->main(), blocks);
    return;
  }
  auto* seq = dynamic_cast<Sequential*>(&layer);
  if (seq == nullptr) return;
  if (seq->size() == 3 && dynamic_cast<Conv1d*>(&seq->layer(0)) != nullptr &&
      dynamic_cast<BatchNorm1d*>(&seq->layer(1)) != nullptr &&
      dynamic_cast<ReLU*>(&seq->layer(2)) != nullptr) {
    blocks.push_back(seq);
    return;
  }
  for (std::size_t i = 0; i < seq->size(); ++i)
    collect_conv_blocks(seq->layer(i), blocks);
}

/// The block's three layers run one by one (no fusion).
Tensor layer_by_layer(Sequential& block, const Tensor& x) {
  Workspace ws;
  Tensor y = block.layer(0).forward(x, ws);
  y = block.layer(1).forward(y, ws);
  return block.layer(2).forward(y, ws);
}

void expect_tensor_memcmp_equal(const Tensor& a, const Tensor& b,
                                const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0)
      << what;
  expect_bit_equal(a.flat(), b.flat(), what.c_str());
}

/// Non-trivial running statistics, affine parameters and conv biases in
/// every conv block of `net`, so every term of the epilogue matters.
void randomize_conv_blocks(Layer& net, std::uint64_t seed) {
  std::vector<Sequential*> blocks;
  collect_conv_blocks(net, blocks);
  Rng rng(seed);
  for (Sequential* block : blocks) {
    auto& bn = dynamic_cast<BatchNorm1d&>(block->layer(1));
    for (float& v : bn.mutable_running_mean())
      v = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (float& v : bn.mutable_running_var())
      v = static_cast<float>(rng.uniform(0.05, 2.0));
    for (float& v : bn.gamma().value.flat())
      v = static_cast<float>(rng.uniform(-1.5, 1.5));
    for (float& v : bn.beta().value.flat())
      v = static_cast<float>(rng.uniform(-0.5, 0.5));
    auto& conv = dynamic_cast<Conv1d&>(block->layer(0));
    for (float& v : conv.bias().value.flat())
      v = static_cast<float>(rng.uniform(-0.2, 0.2));
  }
}

/// Runs `plan` on x ([count, ...]) in `ws` and copies the output out.
Tensor run_plan(const EvalPlan& plan, const Tensor& x, Workspace& ws) {
  const std::size_t count = x.dim(0);
  std::copy(x.data(), x.data() + x.numel(), plan.input(count, ws));
  const float* y = plan.run(count, ws);
  Tensor out({count, plan.output_size()});
  std::copy(y, y + out.numel(), out.data());
  return out;
}

class FusedConvBlock : public ::testing::TestWithParam<core::CnnConfig> {};

TEST_P(FusedConvBlock, EvalForwardMemcmpEqualToLayerByLayer) {
  auto net = core::build_paper_cnn(GetParam());
  std::vector<Sequential*> blocks;
  collect_conv_blocks(*net, blocks);
  ASSERT_EQ(blocks.size(), 5u);  // entry + 2 per residual block
  randomize_conv_blocks(*net, 77);
  net->set_training(false);
  std::uint64_t seed = 300;
  // Each conv block compiles to one fused conv step that reproduces the
  // block's three layers run one by one.
  for (Sequential* block : blocks) {
    const auto& conv = dynamic_cast<const Conv1d&>(block->layer(0));
    const EvalPlan plan(*block, conv.in_channels(), 75);
    ASSERT_EQ(plan.size(), 1u);
    for (std::size_t batch : {1u, 3u}) {
      const auto x = random_tensor({batch, conv.in_channels(), 75}, seed++);
      for (Isa tier : host_tiers()) {
        IsaCapGuard cap(tier);
        Tensor ref = layer_by_layer(*block, x);
        ref.reshape({batch, ref.numel() / batch});
        for (std::size_t threads : {1u, 4u}) {
          kernels::IntraOpGuard intra(threads);
          kernels::ParallelGrainGuard grain(1);
          Workspace ws;
          expect_tensor_memcmp_equal(run_plan(plan, x, ws), ref,
                                     conv.name() + " fused");
        }
      }
    }
  }
}

TEST_P(FusedConvBlock, WholeNetworkPlanMemcmpEqualToGraphForward) {
  // The paper network's plan (residual adds fused into the epilogues,
  // arena buffers shared by liveness) against the unfused graph forward,
  // across tile-straddling window counts, tiers and intra-op budgets.
  auto net = core::build_paper_cnn(GetParam());
  randomize_conv_blocks(*net, 91);
  net->set_training(false);
  const std::size_t length = 80;
  const EvalPlan plan(*net, 1, length);
  // Six convs (entry, 2 x 2 residual, projection), GAP, Linear+ReLU and
  // Linear: no standalone BatchNorm, ReLU or add step.
  EXPECT_EQ(plan.size(), 9u);
  EXPECT_EQ(plan.output_size(), 2u);
  // Inputs and the two logits of every window, then one group's work
  // region: the second residual block holds its F-channel input and two
  // 2F-channel values at once, and its last conv writes over the
  // projected shortcut.
  const std::size_t work = 5 * GetParam().base_filters * length;
  EXPECT_EQ(plan.arena_floats(1), length + 2 + work);
  EXPECT_EQ(plan.arena_floats(32),
            32 * (length + 2) + std::min<std::size_t>(32, plan.group()) * work);
  std::uint64_t seed = 900;
  for (std::size_t count : {1u, 3u, 31u, 32u, 33u}) {
    const auto x = random_tensor({count, 1, length}, seed++);
    for (Isa tier : host_tiers()) {
      IsaCapGuard cap(tier);
      Tensor ref;
      {
        kernels::IntraOpGuard one(1);
        Workspace ws;
        ref = net->forward(x, ws);
      }
      Workspace ws;  // reused: the arena must not leak state across runs
      for (std::size_t threads : {1u, 4u}) {
        kernels::IntraOpGuard intra(threads);
        kernels::ParallelGrainGuard grain(1);
        expect_tensor_memcmp_equal(
            run_plan(plan, x, ws), ref,
            "count " + std::to_string(count) + " threads " +
                std::to_string(threads) + " " + kernels::isa_name());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, FusedConvBlock,
    ::testing::Values(core::CnnConfig::paper(), core::CnnConfig::scaled()),
    [](const ::testing::TestParamInfo<core::CnnConfig>& config) {
      return "kernel" + std::to_string(config.param.kernel_size);
    });

TEST(FusedConvBlockSpecials, ReluSemanticsOnSignedZeroInfNan) {
  // A 1x1 identity conv hands BatchNorm the input values as-is; even
  // channels keep them (gamma 1, beta 0), odd ones negate them (gamma -1,
  // beta -0), so the pre-activations include +0, -0, +Inf, -Inf and NaN.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t channels = 11;  // ragged for every tile
  Sequential block;
  block.emplace<Conv1d>(1, channels, 1, 1, 0);
  block.emplace<BatchNorm1d>(channels);
  block.emplace<ReLU>();
  auto& conv = dynamic_cast<Conv1d&>(block.layer(0));
  auto& bn = dynamic_cast<BatchNorm1d&>(block.layer(1));
  conv.weight().value.fill(1.0f);
  conv.bias().value.fill(0.0f);
  for (std::size_t c = 0; c < channels; ++c) {
    bn.gamma().value.at(c) = c % 2 == 0 ? 1.0f : -1.0f;
    bn.beta().value.at(c) = c % 2 == 0 ? 0.0f : -0.0f;
  }
  block.set_training(false);
  const std::vector<float> row = {0.0f, -0.0f, kInf, -kInf, kNan,
                                  1.5f, -2.0f, 3.0f, 0.25f};
  Tensor x({2, 1, row.size()});
  for (std::size_t b = 0; b < 2; ++b)
    std::copy(row.begin(), row.end(), x.data() + b * row.size());

  // The pre-activations really contain every special value.
  Workspace ws;
  const Tensor pre = bn.forward(conv.forward(x, ws), ws);
  const auto has = [&](auto pred) {
    return std::any_of(pre.flat().begin(), pre.flat().end(), pred);
  };
  EXPECT_TRUE(has([](float v) { return v == 0.0f && !std::signbit(v); }));
  EXPECT_TRUE(has([](float v) { return v == 0.0f && std::signbit(v); }));
  EXPECT_TRUE(has([](float v) { return v == kInf; }));
  EXPECT_TRUE(has([](float v) { return v == -kInf; }));
  EXPECT_TRUE(has([](float v) { return std::isnan(v); }));

  Tensor ref = layer_by_layer(block, x);
  for (float v : ref.flat()) {
    EXPECT_FALSE(std::signbit(v)) << "ReLU must map -0 and negatives to +0";
    EXPECT_FALSE(std::isnan(v)) << "ReLU must map NaN to +0";
  }
  ref.reshape({2, ref.numel() / 2});
  const EvalPlan plan(block, 1, row.size());
  ASSERT_EQ(plan.size(), 1u);
  for (Isa tier : host_tiers()) {
    IsaCapGuard cap(tier);
    Workspace fused_ws;
    expect_tensor_memcmp_equal(run_plan(plan, x, fused_ws), ref,
                               "fused specials");
  }
}

TEST(EvalPlanSteps, ShortcutOverwriteOnlyWhereSafe) {
  // A stride-1 conv block writes its output over the shortcut it adds
  // when nothing reads the shortcut later. Two blocks here must not: one
  // whose shortcut is also its conv input (identity residual around a
  // single block, where the channel split would read what another chunk
  // wrote), and a strided one (its kernel stores raw sums first).
  Sequential net;
  const auto block = [](Sequential& seq, std::size_t cin, std::size_t cout,
                        std::size_t kernel, std::size_t stride) {
    seq.emplace<Conv1d>(cin, cout, kernel, stride);
    seq.emplace<BatchNorm1d>(cout);
    seq.emplace<ReLU>();
  };
  block(net, 1, 16, 5, 1);
  {
    auto main = std::make_unique<Sequential>();
    block(*main, 16, 16, 3, 1);
    net.emplace<Residual>(std::move(main));
  }
  {
    auto main = std::make_unique<Sequential>();
    block(*main, 16, 16, 3, 1);
    block(*main, 16, 16, 5, 1);
    net.emplace<Residual>(std::move(main));
  }
  {
    auto main = std::make_unique<Sequential>();
    block(*main, 16, 24, 5, 2);
    net.emplace<Residual>(std::move(main),
                          std::make_unique<Conv1d>(16, 24, 1, 2, 0));
  }
  net.emplace<GlobalAvgPool1d>();
  net.emplace<Linear>(24, 3);
  Rng init(16);
  init_module(net, init);
  randomize_conv_blocks(net, 17);
  net.set_training(false);

  const std::size_t length = 41;
  const EvalPlan plan(net, 1, length);
  EXPECT_EQ(plan.size(), 8u);
  std::uint64_t seed = 70;
  for (std::size_t count : {1u, 5u}) {
    const auto x = random_tensor({count, 1, length}, seed++);
    for (Isa tier : host_tiers()) {
      IsaCapGuard cap(tier);
      Tensor ref;
      {
        kernels::IntraOpGuard one(1);
        Workspace ws;
        ref = net.forward(x, ws);
      }
      for (std::size_t threads : {1u, 4u}) {
        kernels::IntraOpGuard intra(threads);
        kernels::ParallelGrainGuard grain(1);
        Workspace ws;
        expect_tensor_memcmp_equal(
            run_plan(plan, x, ws), ref,
            "count " + std::to_string(count) + " threads " +
                std::to_string(threads) + " " + kernels::isa_name());
      }
    }
  }
}

TEST(EvalPlanSteps, RejectsLayoutsThatDoNotFuse) {
  // BatchNorm1d and ReLU compile only fused into the step before them, and
  // a residual main branch must end in a conv block.
  const auto rejects = [](Sequential& net) {
    net.set_training(false);
    EXPECT_THROW(EvalPlan(net, 1, 32), InvalidArgument);
  };
  {
    Sequential net;  // standalone ReLU
    net.emplace<Conv1d>(1, 4, 3);
    net.emplace<ReLU>();
    rejects(net);
  }
  {
    Sequential net;  // BatchNorm1d without a ReLU after it
    net.emplace<Conv1d>(1, 4, 3);
    net.emplace<BatchNorm1d>(4);
    rejects(net);
  }
  {
    Sequential net;  // residual main branch ending in BatchNorm1d
    net.emplace<Conv1d>(1, 4, 3);
    auto main = std::make_unique<Sequential>();
    main->emplace<Conv1d>(4, 4, 3);
    main->emplace<BatchNorm1d>(4);
    net.emplace<Residual>(std::move(main));
    rejects(net);
  }
  {
    Sequential net;  // residual main branch ending in a bare conv
    net.emplace<Conv1d>(1, 4, 3);
    auto main = std::make_unique<Sequential>();
    main->emplace<Conv1d>(4, 4, 3);
    net.emplace<Residual>(std::move(main));
    rejects(net);
  }
}

TEST(EvalPlanSteps, RejectsTrainingModeAndShapeMismatch) {
  auto net = core::build_paper_cnn(core::CnnConfig::scaled());
  EXPECT_THROW(EvalPlan(*net, 1, 64), InvalidArgument);  // training mode
  net->set_training(false);
  EXPECT_THROW(EvalPlan(*net, 2, 64), InvalidArgument);  // 1 input channel
  EXPECT_NO_THROW(EvalPlan(*net, 1, 64));
}

// ---------------------------------------------------------------------------
// Pointwise kernels
// ---------------------------------------------------------------------------

TEST(Pointwise, BiasReluRowsFusesBothOps) {
  std::vector<float> c = {-1.f, 0.5f, 1.f, -2.f};
  const std::vector<float> bias = {0.25f, 1.f};
  kernels::bias_relu_rows(c.data(), bias.data(), 2, 2);
  EXPECT_FLOAT_EQ(c[0], 0.0f);   // -1 + 0.25 clamped
  EXPECT_FLOAT_EQ(c[1], 0.75f);
  EXPECT_FLOAT_EQ(c[2], 2.0f);   // 1 + 1
  EXPECT_FLOAT_EQ(c[3], 0.0f);
}

TEST(Pointwise, AxpyAndAdd) {
  std::vector<float> y = {1.f, 2.f};
  const std::vector<float> x = {10.f, -10.f};
  kernels::axpy(2, 0.5f, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 6.f);
  EXPECT_FLOAT_EQ(y[1], -3.f);
  kernels::add_inplace(2, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 16.f);
}

TEST(Pointwise, ScaleShiftAndNormalize) {
  const std::vector<float> x = {1.f, 2.f, 3.f};
  std::vector<float> y(3), xhat(3);
  kernels::scale_shift(3, x.data(), 2.0f, -1.0f, y.data());
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  kernels::normalize_scale_shift(3, x.data(), 2.0f, 0.5f, 3.0f, 1.0f,
                                 xhat.data(), y.data());
  EXPECT_FLOAT_EQ(xhat[0], -0.5f);  // (1-2)*0.5
  EXPECT_FLOAT_EQ(y[0], -0.5f);     // 3*(-0.5)+1
  EXPECT_FLOAT_EQ(xhat[2], 0.5f);
}

TEST(Pointwise, StandardizeMatchesDefinition) {
  const auto src = random_vec(64, 61);
  std::vector<float> dst(64);
  kernels::standardize(src, dst.data());
  double m = 0.0;
  for (float v : dst) m += static_cast<double>(v);
  m /= 64.0;
  double var = 0.0;
  for (float v : dst) var += (static_cast<double>(v) - m) * (static_cast<double>(v) - m);
  var /= 64.0;
  EXPECT_NEAR(m, 0.0, 1e-6);
  EXPECT_NEAR(var, 1.0, 1e-5);
}

TEST(Pointwise, StandardizeConstantWindowIsZero) {
  const std::vector<float> src(16, 3.25f);
  std::vector<float> dst(16, 99.f);
  kernels::standardize(src, dst.data());
  for (float v : dst) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Pointwise, StandardizeInPlaceAliasingIsSafe) {
  // DatasetBuilder::standardize_window standardizes a vector onto itself;
  // the kernel computes both statistics before writing, so src == dst must
  // be supported.
  auto v = random_vec(32, 67);
  auto expected = v;
  std::vector<float> out(32);
  kernels::standardize(expected, out.data());
  kernels::standardize(v, v.data());
  expect_close(v, out, 1e-6f, "in-place standardize");
}

// ---------------------------------------------------------------------------
// Tensor reshape/view
// ---------------------------------------------------------------------------

TEST(TensorReshape, ReusesStorage) {
  Tensor t({4, 6});
  const float* before = t.data();
  t.reshape({2, 12});
  EXPECT_EQ(t.data(), before);  // no realloc, no copy
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 12u);
  t.reshape({24});
  EXPECT_EQ(t.data(), before);
  EXPECT_EQ(t.rank(), 1u);
}

TEST(TensorReshape, StridesFollowNewShape) {
  Tensor t({2, 3, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) t.at(i) = static_cast<float>(i);
  t.reshape({4, 6});
  EXPECT_FLOAT_EQ(t.at(1, 2), 8.0f);  // row-major flat index 1*6+2
}

TEST(TensorReshape, NumelMismatchThrows) {
  Tensor t({3, 5});
  EXPECT_THROW(t.reshape({4, 4}), Error);
}

}  // namespace
}  // namespace scalocate::nn
