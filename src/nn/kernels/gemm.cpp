#include "nn/kernels/gemm.hpp"

#include <algorithm>

#include "nn/kernels/gemm_blocked.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/pointwise.hpp"

#if defined(SCALOCATE_PROFILE)
#include <map>
#include <string>
#include <tuple>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#endif

namespace scalocate::nn::kernels {

#if defined(SCALOCATE_PROFILE)
// Compile-time-gated kernel telemetry: FLOP counters plus per-shape timing
// histograms in the process-wide registry (obs::Registry::global()).
// Everything below compiles away when SCALOCATE_PROFILE is off, so the
// release hot path stays untouched — this block may lock/allocate on first
// sight of a shape, which is exactly why it is not an always-on feature.
namespace {

obs::Counter& profile_counter(const char* name) {
  return obs::Registry::global().counter(name);
}

/// Registry histogram for one (kind, m, n, k) shape, resolved through the
/// registry mutex once per shape per thread and cached thread-locally.
obs::Histogram& shape_histogram(const char* kind, std::size_t m,
                                std::size_t n, std::size_t k) {
  using Key = std::tuple<const char*, std::size_t, std::size_t, std::size_t>;
  thread_local std::map<Key, obs::Histogram*> cache;
  const Key key{kind, m, n, k};
  auto it = cache.find(key);
  if (it == cache.end()) {
    const std::string name = std::string("kernels.") + kind + "." +
                             std::to_string(m) + "x" + std::to_string(n) +
                             "x" + std::to_string(k) + ".ns";
    it = cache.emplace(key, &obs::Registry::global().histogram(name)).first;
  }
  return *it->second;
}

}  // namespace
#endif  // SCALOCATE_PROFILE

namespace detail {

// Defined here — and only here — so std::vector<float> growth code is
// always baseline-ISA (see the declaration comment in gemm_blocked.hpp).
float* grow(std::vector<float>& buf, std::size_t count) {
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

float* grow_zeroed(std::vector<float>& buf, std::size_t count) {
  buf.assign(count, 0.0f);
  return buf.data();
}

void bn_relu_inplace(float* out, std::size_t batch, std::size_t cout,
                     std::size_t out_len, const BnRelu& epi) {
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < cout; ++c) {
      const std::size_t off = (b * cout + c) * out_len;
      float* row = out + off;
      for (std::size_t i = 0; i < out_len; ++i) {
        const float h = (row[i] - epi.mean[c]) * epi.inv_std[c];
        const float y = epi.gamma[c] * h + epi.beta[c];
        row[i] = y > 0.0f ? y : 0.0f;
      }
      if (epi.residual != nullptr)
        add_inplace(out_len, epi.residual + off, row);
    }
  }
}

#if defined(SCALOCATE_GEMM_AVX2)
// Defined in gemm_avx2.cpp (compiled with -mavx2 -mfma).
void sgemm_avx2(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float beta, float* c,
                std::size_t ldc, GemmScratch& scratch);
void sgemm_conv_avx2(std::size_t cout, std::size_t out_len, std::size_t batch,
                     const float* w, const float* bias, const float* x,
                     std::size_t cin, std::size_t n, std::size_t kernel,
                     std::size_t stride, std::size_t pad_left, float* out,
                     const BnRelu* bn_relu, GemmScratch& scratch);
#endif
#if defined(SCALOCATE_GEMM_AVX512)
// Defined in gemm_avx512.cpp (compiled with -mavx512f -mavx512vl).
void conv_direct_avx512(std::size_t cout, std::size_t out_len,
                        std::size_t batch, const float* w, const float* bias,
                        const float* x, std::size_t cin, std::size_t n,
                        std::size_t kernel, std::size_t pad_left, float* out,
                        const BnRelu* bn_relu, GemmScratch& scratch);
#endif

namespace {

/// Best tier this build and CPU support, probed once.
Isa best_isa() {
  static const Isa best = [] {
#if defined(SCALOCATE_GEMM_AVX2)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
#if defined(SCALOCATE_GEMM_AVX512)
      if (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("avx512vl"))
        return Isa::kAvx512;
#endif
      return Isa::kAvx2;
    }
#endif
    return Isa::kPortable;
  }();
  return best;
}

thread_local Isa isa_cap = Isa::kAvx512;

}  // namespace

Isa active_isa() { return std::min(best_isa(), isa_cap); }

IsaCapGuard::IsaCapGuard(Isa cap) : previous_(isa_cap) { isa_cap = cap; }
IsaCapGuard::~IsaCapGuard() { isa_cap = previous_; }

}  // namespace detail

GemmScratch& GemmScratch::lane(std::size_t index) {
  if (index == 0) return *this;
  while (extra_lanes_.size() < index)
    extra_lanes_.push_back(std::make_unique<GemmScratch>());
  return *extra_lanes_[index - 1];
}

const char* isa_name() {
  switch (detail::active_isa()) {
    case detail::Isa::kAvx512:
      return "avx512";
    case detail::Isa::kAvx2:
      return "avx2";
    case detail::Isa::kPortable:
      break;
  }
  return "portable";
}

namespace {

using detail::Isa;

// ISA dispatch for one single-threaded kernel invocation (the threaded
// drivers call this once per chunk; every chunk runs the same kernel, on
// the tier the calling thread resolved).
void sgemm_st(Isa isa, bool trans_a, bool trans_b, std::size_t m,
              std::size_t n, std::size_t k, float alpha, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float beta,
              float* c, std::size_t ldc, GemmScratch& scratch) {
#if defined(SCALOCATE_GEMM_AVX2)
  if (isa >= Isa::kAvx2) {
    detail::sgemm_avx2(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
                       c, ldc, scratch);
    return;
  }
#endif
  (void)isa;
  detail::sgemm_blocked<4, 8>(trans_a, trans_b, m, n, k, alpha, a, lda, b,
                              ldb, beta, c, ldc, scratch);
}

void sgemm_conv_st(Isa isa, std::size_t cout, std::size_t out_len,
                   std::size_t batch, const float* w, const float* bias,
                   const float* x, std::size_t cin, std::size_t n,
                   std::size_t kernel, std::size_t stride,
                   std::size_t pad_left, float* out,
                   const BnRelu* bn_relu, GemmScratch& scratch) {
#if defined(SCALOCATE_GEMM_AVX512)
  if (isa == Isa::kAvx512 && stride == 1) {
    detail::conv_direct_avx512(cout, out_len, batch, w, bias, x, cin, n,
                               kernel, pad_left, out, bn_relu, scratch);
    return;
  }
#endif
#if defined(SCALOCATE_GEMM_AVX2)
  if (isa >= Isa::kAvx2) {
    detail::sgemm_conv_avx2(cout, out_len, batch, w, bias, x, cin, n, kernel,
                            stride, pad_left, out, bn_relu, scratch);
    return;
  }
#endif
  (void)isa;
  detail::sgemm_conv_blocked<4, 8, 4, 4>(cout, out_len, batch, w, bias, x,
                                         cin, n, kernel, stride, pad_left,
                                         out, bn_relu, scratch);
}

// Chunks for statically partitioning `extent` units of one macro-loop:
// bounded by the caller's thread budget and by a minimum chunk width (so
// a split never degenerates into per-strip task traffic). Deterministic —
// a pure function of (extent, budget) — and results do not depend on it.
std::size_t chunks_for(std::size_t extent, std::size_t min_per_chunk,
                       std::size_t budget) {
  const std::size_t by_extent = extent / min_per_chunk;
  return std::max<std::size_t>(
      1, std::min(budget, std::max<std::size_t>(by_extent, 1)));
}

/// Balanced static split: chunk `i` of `chunks` over `extent` units gets
/// [begin, begin + len). The first `extent % chunks` chunks get one extra.
struct ChunkRange {
  std::size_t begin, len;
};
ChunkRange chunk_range(std::size_t extent, std::size_t chunks, std::size_t i) {
  const std::size_t q = extent / chunks;
  const std::size_t r = extent % chunks;
  const std::size_t begin = i * q + std::min(i, r);
  return {begin, q + (i < r ? 1 : 0)};
}

// Threading floor on the partitioned dimension: at least two NR strips of
// the wide tile per chunk, so the per-chunk pack/write-back epilogue stays
// amortized. Any width would be bit-correct; this is purely a perf floor.
constexpr std::size_t kMinColsPerChunk = 32;
constexpr std::size_t kMinRowsPerChunk = 32;

// Output channels per conv chunk: one MRC register block of the tier's
// conv_direct tile, so a channel split never hands it a partial block.
std::size_t conv_row_block(Isa isa) {
  return isa == Isa::kAvx512 ? 8 : 4;
}

/// Grows the scratch lanes OUTSIDE the parallel region (lane() mutates a
/// vector and must not race), then runs fn(chunk, lane) over the pool.
template <class Fn>
void parallel_chunks(std::size_t chunks, GemmScratch& scratch, const Fn& fn) {
  for (std::size_t c = 1; c < chunks; ++c) scratch.lane(c);
  parallel_for(chunks,
               [&](std::size_t c) { fn(c, scratch.lane(c)); });
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc, GemmScratch& scratch) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    // Product term vanishes: apply beta only.
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f)
        std::fill(crow, crow + n, 0.0f);
      else if (beta != 1.0f)
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    return;
  }
#if defined(SCALOCATE_PROFILE)
  static obs::Counter& calls = profile_counter("kernels.gemm.calls");
  static obs::Counter& flops = profile_counter("kernels.gemm.flops");
  calls.add();
  flops.add(2ull * m * n * k);
  obs::SpanTimer span(shape_histogram("gemm", m, n, k));
#endif
  const Isa isa = detail::active_isa();
  const std::size_t budget = intra_op_threads();
  if (budget > 1 && !in_parallel_region() &&
      2ull * m * n * k >= parallel_min_flops()) {
    // Column partition first (disjoint C column bands; every worker reads
    // all of A). Tall-and-narrow problems — the dX products of the conv
    // backward are [Cin*K, out_len] — split rows instead.
    std::size_t chunks = chunks_for(n, kMinColsPerChunk, budget);
    if (chunks > 1) {
      parallel_chunks(chunks, scratch, [&](std::size_t ci, GemmScratch& ls) {
        const auto [j0, len] = chunk_range(n, chunks, ci);
        const float* b_sub = trans_b ? b + j0 * ldb : b + j0;
        sgemm_st(isa, trans_a, trans_b, m, len, k, alpha, a, lda, b_sub, ldb,
                 beta, c + j0, ldc, ls);
      });
      return;
    }
    chunks = chunks_for(m, kMinRowsPerChunk, budget);
    if (chunks > 1) {
      parallel_chunks(chunks, scratch, [&](std::size_t ci, GemmScratch& ls) {
        const auto [i0, len] = chunk_range(m, chunks, ci);
        const float* a_sub = trans_a ? a + i0 : a + i0 * lda;
        sgemm_st(isa, trans_a, trans_b, len, n, k, alpha, a_sub, lda, b, ldb,
                 beta, c + i0 * ldc, ldc, ls);
      });
      return;
    }
  }
  sgemm_st(isa, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
           scratch);
}

void sgemm_conv(std::size_t cout, std::size_t out_len, std::size_t batch,
                const float* w, const float* bias, const float* x,
                std::size_t cin, std::size_t n, std::size_t kernel,
                std::size_t stride, std::size_t pad_left, float* out,
                GemmScratch& scratch, const BnRelu* bn_relu) {
  if (cout == 0 || out_len == 0 || batch == 0) return;
#if defined(SCALOCATE_PROFILE)
  static obs::Counter& calls = profile_counter("kernels.conv.calls");
  static obs::Counter& flops = profile_counter("kernels.conv.flops");
  calls.add();
  flops.add(2ull * batch * cout * out_len * cin * kernel);
  obs::SpanTimer span(shape_histogram("conv", cout, out_len, cin * kernel));
#endif
  const Isa isa = detail::active_isa();
  const std::size_t budget = intra_op_threads();
  if (budget > 1 && !in_parallel_region() &&
      2ull * batch * cout * out_len * cin * kernel >= parallel_min_flops()) {
    // Batch items are fully independent outputs: the natural partition for
    // minibatch training and batched window scoring.
    if (batch > 1) {
      const std::size_t chunks = std::min(budget, batch);
      parallel_chunks(chunks, scratch, [&](std::size_t ci, GemmScratch& ls) {
        const auto [b0, len] = chunk_range(batch, chunks, ci);
        BnRelu items = bn_relu != nullptr ? *bn_relu : BnRelu{};
        if (items.residual != nullptr) items.residual += b0 * cout * out_len;
        sgemm_conv_st(isa, cout, out_len, len, w, bias, x + b0 * cin * n,
                      cin, n, kernel, stride, pad_left,
                      out + b0 * cout * out_len,
                      bn_relu != nullptr ? &items : nullptr, ls);
      });
      return;
    }
    // Single item (streaming single-window scoring): split the output
    // channels in whole tile row blocks — each chunk owns a [c0, c0+len)
    // slab of the output and its matching weight rows; the per-channel tap
    // accumulation order is untouched, so this too is bit-identical.
    const std::size_t rows = conv_row_block(isa);
    const std::size_t blocks = (cout + rows - 1) / rows;
    const std::size_t chunks = chunks_for(blocks, 1, budget);
    if (chunks > 1) {
      parallel_chunks(chunks, scratch, [&](std::size_t ci, GemmScratch& ls) {
        const auto [blk0, nblk] = chunk_range(blocks, chunks, ci);
        const std::size_t c0 = blk0 * rows;
        const std::size_t len = std::min(cout, (blk0 + nblk) * rows) - c0;
        BnRelu slab{};
        if (bn_relu != nullptr)
          slab = {bn_relu->mean + c0, bn_relu->inv_std + c0,
                  bn_relu->gamma + c0, bn_relu->beta + c0,
                  bn_relu->residual != nullptr
                      ? bn_relu->residual + c0 * out_len
                      : nullptr};
        sgemm_conv_st(isa, len, out_len, batch, w + c0 * cin * kernel,
                      bias != nullptr ? bias + c0 : nullptr, x, cin, n,
                      kernel, stride, pad_left, out + c0 * out_len,
                      bn_relu != nullptr ? &slab : nullptr, ls);
      });
      return;
    }
  }
  sgemm_conv_st(isa, cout, out_len, batch, w, bias, x, cin, n, kernel, stride,
                pad_left, out, bn_relu, scratch);
}

void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(detail::load_any(trans_a, a, lda, i, p)) *
               static_cast<double>(detail::load_any(trans_b, b, ldb, p, j));
      float& out = c[i * ldc + j];
      const float prior = beta == 0.0f ? 0.0f : beta * out;
      out = prior + alpha * static_cast<float>(acc);
    }
  }
}

}  // namespace scalocate::nn::kernels
