// Runtime-dispatched SIMD micro-kernels for the forward hot path.
//
// The paper's premise is that reduced-precision integer execution buys
// speed on edge hardware — but that only materializes when the int8/int16
// dot products map onto the CPU's multiply-accumulate instructions.
// Compiler autovectorization of the generic C++ kernels in gemm.cpp /
// qgemm.cpp does not get there (BENCH_forward.json showed int8 *losing*
// to the blocked float path on every zoo net). This module adds
// hand-written intrinsic micro-kernels behind a registry selected once at
// startup by CPUID:
//
//   kScalar    the generic C++ kernels (compiler-vectorized), the
//              baseline ISA on every target and the correctness
//              reference for the other entries;
//   kAvx2      AVX2 integer kernels (vpmaddwd dot products, vectorized
//              quantize-on-load) plus a mul+add 6x16 SGEMM micro-kernel;
//   kAvx2Fma   kAvx2's integer kernels plus an FMA 6x16 SGEMM
//              micro-kernel (vfmadd231ps).
//
// Dispatch rules (docs/method.md §16):
//   * the active ISA is detected once via CPUID (+ XGETBV for OS ymm
//     state); MUPOD_FORCE_KERNEL={scalar,avx2,avx2fma} overrides it at
//     startup, and set_kernel_isa() overrides it from tests/benches
//     (not thread-safe: flip at startup or between forwards);
//   * forcing an ISA the build or CPU cannot run falls back to the
//     detected one — kernel_isa() always names an ISA that can execute;
//   * non-x86 builds compile only the scalar entry (the AVX2 TUs are
//     excluded by CMake and MUPOD_HAVE_AVX2_KERNELS is undefined).
//
// Determinism contract (extends tensor/gemm.hpp's): within a fixed ISA,
// results are bitwise independent of worker count and task decomposition.
// INTEGER kernels are additionally bitwise identical ACROSS ISAs — every
// intrinsic path computes exact products and accumulates them in the same
// modular integer arithmetic as the scalar reference (the property
// battery asserts byte equality, not tolerance). Float kernels may differ
// across ISAs by reassociation/FMA contraction only (bounded, see
// docs/method.md §16).
#pragma once

#include <cstdint>

namespace mupod {

// ---------------------------------------------------------------------------
// ISA selection

enum class KernelIsa : int { kScalar = 0, kAvx2 = 1, kAvx2Fma = 2 };

// "scalar" / "avx2" / "avx2fma".
const char* kernel_isa_name(KernelIsa isa);
// Parses the MUPOD_FORCE_KERNEL spellings ("scalar", "avx2",
// "avx2fma" / "avx2_fma" / "fma"). Returns false on unknown input.
bool parse_kernel_isa(const char* s, KernelIsa* out);

// The best ISA this build + CPU + OS can run (CPUID, evaluated once).
KernelIsa detected_kernel_isa();
// Whether `isa` can run here (compiled in and CPU-supported).
bool kernel_isa_available(KernelIsa isa);

// The active ISA. Startup value: MUPOD_FORCE_KERNEL if set, parseable and
// available, else detected_kernel_isa(). Mirrored into the
// `tensor.kernel.isa` gauge whenever metrics are enabled.
KernelIsa kernel_isa();
// Test/bench hook. Unavailable ISAs are clamped to detected_kernel_isa().
// Not thread-safe: never flip while a forward is running.
void set_kernel_isa(KernelIsa isa);

// ---------------------------------------------------------------------------
// Registry
//
// Fixed micro-tile geometry shared by every integer kernel (the scalar
// qgemm reference uses the same 4 x 16 tile, so tile-task ownership — and
// therefore determinism — is ISA-independent).
inline constexpr int kQMr = 4;
inline constexpr int kQNr = 16;
// Upper bounds on the float micro-tile geometry across ISAs (the generic
// edge-tile path sizes its accumulators with these).
inline constexpr int kMaxMr = 8;
inline constexpr int kMaxNr = 16;

// The k-PAIR packed-operand layout consumed by qmicro8 / qmicro16 (produced
// by qgemm.cpp's packers; byte-exact definition in docs/method.md §16),
// exact for all inputs. A strip ap[p * kQMr + r] is an int32 holding the
// sign-extended pair (a[2p, r], a[2p+1, r]) as two int16s (low half =
// even k). B strip bp[p * 2*kQNr + ...] holds, per pair p, 32 int16s:
// columns 0..7 interleaved (b[2p,0], b[2p+1,0], b[2p,1], ...) then
// columns 8..15. Odd k is zero-padded.
struct KernelRegistry {
  KernelIsa isa;

  // SGEMM micro-kernel: C_tile(mr x nr) = A_strip · B_strip + beta*C.
  // ap: kc x mr (r-contiguous per k), bp: kc x nr (c-contiguous per k),
  // k ascending, C touched once at the end.
  int mr, nr;
  void (*sgemm_micro)(int kc, const float* ap, const float* bp, float* c,
                      std::int64_t ldc, float beta);

  // Integer micro-kernels; null => qgemm.cpp uses its generic C++ path.
  // acc is the kQMr x kQNr int32/int64 accumulator tile, accumulated
  // in-place (the caller zero-initializes it).
  void (*qmicro8)(std::int64_t k_pairs, const std::int32_t* ap, const std::int16_t* bp,
                  std::int32_t* acc);
  void (*qmicro16)(std::int64_t k_pairs, const std::int32_t* ap, const std::int16_t* bp,
                   std::int64_t* acc);

  // GEMV dot products (n == 1 calls — the batch-1 inner product): plain
  // contiguous rows, no packing. Exact (same modular arithmetic as the
  // scalar accumulation); qdot16 requires x free of -32768 (the caller
  // scans: the single vpmaddwd overflow case needs -32768 pairs in BOTH
  // operands).
  std::int32_t (*qdot8)(std::int64_t k, const std::int8_t* a, const std::int8_t* x);
  std::int64_t (*qdot16)(std::int64_t k, const std::int16_t* a, const std::int16_t* x);

  // Vectorized saturating quantize-on-load (bit-compatible with
  // tensor/qgemm.hpp's quantize_to: same grid, clamp and NaN->0 rule;
  // returns the clamp count). inv_step = 1/step exactly (power of two).
  std::int64_t (*quantize8)(const float* x, std::int64_t n, float inv_step, std::int32_t lo,
                            std::int32_t hi, std::int8_t* out);
  std::int64_t (*quantize16)(const float* x, std::int64_t n, float inv_step, std::int32_t lo,
                             std::int32_t hi, std::int16_t* out);
};

// The registry for the ACTIVE ISA (kernel_isa()).
const KernelRegistry& kernel_registry();
// The registry for a specific ISA (clamped to an available one).
const KernelRegistry& kernel_registry_for(KernelIsa isa);

}  // namespace mupod
