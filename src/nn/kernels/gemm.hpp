// Cache-blocked single-precision GEMM: the compute core of the nn backend.
//
// Every dense layer (Conv1d via im2col, Linear directly) routes its forward
// and backward matrix products through sgemm(). The implementation is a
// classic three-level blocking (GotoBLAS structure): B is packed into
// NR-wide column panels and A into MR-wide row panels sized for the L1/L2
// caches, and an MR x NR register-tiled micro-kernel accumulates the
// product, so the inner loop does O(MR*NR) arithmetic per O(MR+NR) loads
// instead of the 1:1 ratio of a naive loop.
//
// sgemm_naive() is the reference kernel: a plain triple loop with
// double-precision accumulation, kept (and unit-tested against) so the
// blocked path always has an obviously-correct oracle.
//
// Intra-op threading (see parallel.hpp): when the calling thread's
// intra-op budget allows and the problem is big enough, sgemm/sgemm_conv
// statically partition the N (or, for tall problems, M) macro-loop — and
// batched convolutions their batch/out-channel loops — across the
// process-wide compute pool. Each chunk writes a disjoint C tile and the
// per-element summation order is unchanged, so the threaded results are
// bit-identical to the single-threaded kernels at every thread count.
//
// ISA dispatch: three tiers, chosen at runtime from cpuid. The portable
// tier is compiled for the baseline ISA; on x86-64 an AVX2+FMA tier
// (gemm_avx2.cpp) runs every kernel, and an AVX-512 tier (gemm_avx512.cpp)
// takes over the stride-1 convolutions with a 16-float-vector tile. The
// AVX2 and AVX-512 tiers issue the same fused multiply-adds in the same
// order for every output element, so their results are bit-identical;
// the portable tier rounds each product before the add and may differ
// from them in the last bits.
//
// Thread-safety: sgemm is pure compute over caller-provided buffers; the
// pack buffers live in a caller-owned GemmScratch (one per nn::Workspace,
// hence one per concurrent inference caller). The threaded driver packs
// into per-chunk lanes of the same scratch, so concurrent callers still
// never share buffers.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace scalocate::nn::kernels {

/// Caller-owned packing buffers reused across sgemm calls (grown on
/// demand, never shrunk). Not shareable between concurrent callers.
struct GemmScratch {
  std::vector<float> pack_a;  ///< MC x KC block of A, MR-row panels
  std::vector<float> pack_b;  ///< KC x NC block of B, NR-column panels

  GemmScratch() = default;
  // Copying a workspace must not duplicate the per-chunk lanes: they are
  // transient scratch regrown on demand, so a copy starts with none.
  GemmScratch(const GemmScratch& other)
      : pack_a(other.pack_a), pack_b(other.pack_b) {}
  GemmScratch& operator=(const GemmScratch& other) {
    pack_a = other.pack_a;
    pack_b = other.pack_b;
    extra_lanes_.clear();
    return *this;
  }
  GemmScratch(GemmScratch&&) = default;
  GemmScratch& operator=(GemmScratch&&) = default;

  /// Per-chunk scratch for the threaded driver: lane(0) is this object
  /// itself; higher lanes are grown on demand and reused across calls, so
  /// a warmed-up workspace allocates nothing on the hot path. Callers
  /// must not invoke lane() concurrently (the driver grows the lanes
  /// before fanning out and only reads them inside the parallel region).
  GemmScratch& lane(std::size_t index);

 private:
  std::vector<std::unique_ptr<GemmScratch>> extra_lanes_;
};

/// C = alpha * op(A) * op(B) + beta * C, row-major with leading
/// dimensions lda/ldb/ldc; op(X) = X^T when the trans flag is set.
/// op(A) is m x k, op(B) is k x n, C is m x n. beta == 0 never reads C
/// (so C may be uninitialized).
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc, GemmScratch& scratch);

/// Eval-mode BatchNorm1d + ReLU applied per output channel to the conv
/// accumulators before the store, with BatchNorm1d's eval arithmetic:
/// h = (acc - mean) * inv_std; y = gamma * h + beta; out = y > 0 ? y : 0,
/// each op rounded separately (no FMA contraction), so a fused conv block
/// is bit-identical to Conv1d -> BatchNorm1d -> ReLU run layer by layer.
/// mean/inv_std/gamma/beta address one float per output channel.
///
/// A non-null `residual` (laid out like the conv output, [batch, cout,
/// out_len]) is added after the ReLU: out = relu(y) + residual. That is
/// the one rounded add Residual::forward's add_inplace makes, so the
/// last conv block of a residual branch can absorb its shortcut and stay
/// bit-identical to the layer graph. In a stride-1 conv `residual` may be
/// `out` itself (not `x`): every tier's stride-1 kernel reads each
/// residual vector just before it stores the output vector in its place.
/// A strided conv stores its raw output first, so there it must not alias.
struct BnRelu {
  const float* mean;
  const float* inv_std;
  const float* gamma;
  const float* beta;
  const float* residual = nullptr;
};

/// Fused batched convolution forward:
/// out[b] = W * im2col(x[b]) + bias for x [batch, cin, n] and
/// out [batch, cout, out_len], as a single blocked GEMM. The column
/// matrix is virtual — the packing stage reads x directly — and the bias
/// rides the first-panel write-back, so the conv forward packs the weight
/// matrix once per call and makes exactly one pass over the output.
/// `bias` may be null. out_len must equal conv_output_length(...).
/// A non-null `bn_relu` applies that epilogue to every output.
void sgemm_conv(std::size_t cout, std::size_t out_len, std::size_t batch,
                const float* w, const float* bias, const float* x,
                std::size_t cin, std::size_t n, std::size_t kernel,
                std::size_t stride, std::size_t pad_left, float* out,
                GemmScratch& scratch, const BnRelu* bn_relu = nullptr);

/// Reference kernel: naive triple loop, double accumulators. Same
/// contract as sgemm. Used by the parity tests and as the baseline in
/// bench_micro.
void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc);

/// Kernel tier the calling thread dispatches to: "avx512", "avx2" or
/// "portable".
const char* isa_name();

namespace detail {

/// Dispatch tiers, ordered: a CPU that runs a tier runs every lower one.
enum class Isa { kPortable, kAvx2, kAvx512 };

/// Tier the calling thread dispatches to: the best one this build and CPU
/// support, capped by any IsaCapGuard alive on this thread.
Isa active_isa();

/// Test seam: caps the calling thread's dispatch tier for its lifetime, so
/// the cross-tier parity tests can run two tiers on one host. The tier is
/// resolved on the calling thread and handed to every parallel_for chunk,
/// so threaded kernel calls and tile-parallel scoring honour it.
class IsaCapGuard {
 public:
  explicit IsaCapGuard(Isa cap);
  ~IsaCapGuard();
  IsaCapGuard(const IsaCapGuard&) = delete;
  IsaCapGuard& operator=(const IsaCapGuard&) = delete;

 private:
  Isa previous_;
};

}  // namespace detail

}  // namespace scalocate::nn::kernels
