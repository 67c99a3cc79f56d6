// Baseline (scalar-ISA) SGEMM micro-kernel — the generic C++ kernel the
// blocked GEMM has always used, moved here from gemm.cpp so the driver
// can swap micro-kernels through the registry. Plain loops with
// compile-time tile sizes so GCC/Clang auto-vectorize under the
// project-default flags; this entry is the correctness reference and the
// fallback ISA on every target. The integer function pointers are null:
// qgemm.cpp's generic templates (its own scalar reference) handle those.
#include "tensor/kernels/kernels_internal.hpp"

namespace mupod {
namespace {

// Same geometry rule as the pre-dispatch gemm.cpp: 6x16 fills the ymm
// register file when the TU is compiled with AVX enabled (-DMUPOD_NATIVE),
// 4x8 fits xmm on baseline x86-64 / other targets.
#if defined(__AVX__)
constexpr int MR = 6;
constexpr int NR = 16;
#else
constexpr int MR = 4;
constexpr int NR = 8;
#endif

void sgemm_micro_scalar(int kc, const float* __restrict ap, const float* __restrict bp,
                        float* __restrict c, std::int64_t ldc, float beta) {
  float acc[MR][NR] = {};
  for (int kk = 0; kk < kc; ++kk) {
    const float* __restrict ak = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* __restrict bk = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    for (int r = 0; r < MR; ++r) {
      const float av = ak[r];
      for (int cc = 0; cc < NR; ++cc) acc[r][cc] += av * bk[cc];
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * ldc;
    if (beta == 0.0f) {
      for (int cc = 0; cc < NR; ++cc) crow[cc] = acc[r][cc];
    } else if (beta == 1.0f) {
      for (int cc = 0; cc < NR; ++cc) crow[cc] += acc[r][cc];
    } else {
      for (int cc = 0; cc < NR; ++cc) crow[cc] = beta * crow[cc] + acc[r][cc];
    }
  }
}

}  // namespace

namespace internal {

const KernelRegistry& scalar_kernel_registry() {
  static const KernelRegistry reg{
      KernelIsa::kScalar,
      MR,
      NR,
      &sgemm_micro_scalar,
      nullptr,  // qmicro8
      nullptr,  // qmicro16
      nullptr,  // qdot8
      nullptr,  // qdot16
      nullptr,  // quantize8
      nullptr,  // quantize16
  };
  return reg;
}

}  // namespace internal
}  // namespace mupod
