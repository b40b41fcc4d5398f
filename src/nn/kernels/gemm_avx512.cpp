// AVX-512 instantiation of the direct convolution.
//
// This translation unit is compiled with -mavx512f -mavx512vl (see
// CMakeLists) on x86-64 builds only; sgemm_conv() dispatches stride-1
// convolutions here at runtime when the CPU reports both features, and
// every other kernel keeps running the AVX2 tier. The 8x32 tile holds
// sixteen 16-float accumulator vectors in zmm registers, plus two input
// vectors and the weight broadcast, out of 32.
#if defined(SCALOCATE_GEMM_AVX512)

#include "nn/kernels/gemm_blocked.hpp"

namespace scalocate::nn::kernels::detail {

void conv_direct_avx512(std::size_t cout, std::size_t out_len,
                        std::size_t batch, const float* w, const float* bias,
                        const float* x, std::size_t cin, std::size_t n,
                        std::size_t kernel, std::size_t pad_left, float* out,
                        const BnRelu* bn_relu, GemmScratch& scratch) {
  conv_direct<8, 32, 16>(cout, out_len, batch, w, bias, x, cin, n, kernel,
                         pad_left, out, bn_relu, scratch);
}

}  // namespace scalocate::nn::kernels::detail

#endif  // SCALOCATE_GEMM_AVX512
