// Packed integer GEMM for the quantized execution path.
//
// The float pipeline only *emulates* fixed-point formats (the kQuantize
// injection rounds activations and keeps computing in fp32). This kernel
// family actually executes the dot products in integer arithmetic:
//
//   C (m x n) = A_int (m x k) · B_int (k x n)      accumulated in int32
//                                                  (int8) or int64
//                                                  (int16/int32 operands),
//
// with two store epilogues applied once per output element:
//   * dequantize-on-store: C_f32 = (acc + bias) * scale — the layer-
//     boundary store of an unfused lowered layer (the next layer
//     re-quantizes to its own I.F format);
//   * saturating requantize-on-store: C_int = clamp(round(acc * M * 2^-s))
//     with a gemmlowp-style q31 fixed-point multiplier — the fused form a
//     real integer accelerator uses, stored across the elided boundaries
//     of a compiled fused region.
//
// Operand widths are homogeneous per call: int8 operands accumulate in
// int32 (a 2^14 product bound keeps any k <= 2^17 exact); int16 and int32
// operands widen the accumulator to int64 so the kernel stays EXACT
// against a naive int64 reference for every representable input — the
// conformance battery depends on that exactness.
//
// Determinism contract (inherits tensor/gemm.hpp's, and is strictly
// stronger): each output tile is owned by exactly one task, the task
// accumulates the full k extent in a fixed ascending order, and C is
// touched exactly once — in the epilogue. Integer addition is associative,
// so the result is bitwise independent of worker count, chunking, and of
// whether the call runs serial (nested in a parallel region) or fans its
// tile tasks across the pool.
//
// Scratch reuses the per-thread GemmScratch arena (byte slots qa/qb/
// qcol/qact, counted in the same tensor.scratch.bytes gauge). Counters
// (when metrics are enabled): qgemm.calls, qgemm.macs, qgemm.tiles,
// qgemm.requant.saturated.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mupod {

// ---------------------------------------------------------------------------
// Integer storage widths the kernels are instantiated for.
enum class QType : int { kInt8 = 0, kInt16 = 1, kInt32 = 2 };
const char* qtype_name(QType t);
int qtype_bits(QType t);
std::size_t qtype_bytes(QType t);
// Narrowest storage that holds a signed fixed-point value of `total_bits`
// (I + F, clamped to [1, 32]).
QType qtype_for_bits(int total_bits);

// ---------------------------------------------------------------------------
// Requantization: y ~= acc * multiplier * 2^-(31 + shift), round to
// nearest, ties toward +inf (the cheap add-half-then-floor hardware
// nudge). `multiplier` is a q31 mantissa in [2^30, 2^31).
struct QRequant {
  std::int32_t multiplier = 1 << 30;
  int shift = 0;
};
// Decomposes a positive real multiplier into the q31 form.
QRequant make_requant(double real_multiplier);
// The exact scalar the kernel applies per element; exposed so tests can
// compute bit-exact expectations from a naive int64 reference.
std::int32_t apply_requant(std::int64_t acc, const QRequant& rq);

// ---------------------------------------------------------------------------
// Store epilogue, applied once per output element after the full-k
// integer accumulation. The optional bias is in ACCUMULATOR scale
// (bias_real / (step_a * step_b), pre-rounded by the caller) and is added
// before either store; bias_row indexes the m axis (conv output
// channels), bias_col the n axis (batched inner product).
struct QGemmEpilogue {
  const std::int64_t* bias_row = nullptr;
  const std::int64_t* bias_col = nullptr;
  // quant_store == false: C is float*, c[i,j] = (acc + bias) * scale.
  double scale = 1.0;
  // quant_store == true: C has the operand type, c[i,j] =
  // clamp(apply_requant(acc + bias), lo, hi); clips count as saturations.
  bool quant_store = false;
  QRequant requant;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  // Optional saturation sink; incremented once per task (relaxed), so the
  // total is deterministic. Also mirrored into qgemm.requant.saturated
  // when metrics are enabled.
  std::atomic<std::int64_t>* saturated = nullptr;
  // Fused ReLU, applied inside the store (no extra tensor pass). Float
  // store: the exact ReLULayer expression (x > 0 ? x : 0) on the
  // dequantized value. Requantize store: max(q, 0) on the integer value
  // BEFORE the clamp — exact, because the grids are symmetric about 0,
  // requantization is monotone, and 0 maps to 0 (relu zeros are semantic,
  // never counted as saturations).
  bool relu = false;
};

// C = A · B with the given epilogue, row-major, homogeneous operand type:
//   A: m x k ints of `type`, leading dimension lda;
//   B: k x n ints of `type`, ldb — or Bᵀ (n x k) memory with trans_b, the
//      packing absorbs the transpose exactly as the float gemm does;
//   C: m x n, ldc — float* (dequant store) or `type`* (requantize store).
// Parallelises over output-tile tasks on the global pool; runs inline
// below a MAC cutoff or inside an existing parallel region.
void qgemm(QType type, std::int64_t m, std::int64_t n, std::int64_t k,
           const void* a, std::int64_t lda,
           const void* b, std::int64_t ldb,
           void* c, std::int64_t ldc,
           const QGemmEpilogue& ep, bool trans_b = false);

// Micro-tile geometry built into this binary (tests cover its edges).
struct QGemmBlocking {
  int mr, nr;
};
QGemmBlocking qgemm_blocking();

// ---------------------------------------------------------------------------
// Saturating quantize-on-load: out[i] = clamp(nearbyint(x[i] / step), lo,
// hi) stored as `type`. Bit-compatible with quant/fixed_point.hpp's
// quantize_tensor (same nearbyint grid, and [lo, hi] = [-2^(B-1),
// 2^(B-1)-1] reproduces its value clamp exactly since step is a power of
// two). Returns the number of clamped (saturated) values. Serial — the
// callers chunk it across the pool themselves.
std::int64_t quantize_to(QType type, const float* x, std::int64_t n, double step,
                         std::int32_t lo, std::int32_t hi, void* out);

// ---------------------------------------------------------------------------
// Per-layer integer operands, passed by the compiled executor
// (compile/compiled_network.hpp) to the integer entry points of
// Conv2DLayer/InnerProductLayer as an explicit argument.
struct QLayerBinding {
  QType type = QType::kInt16;
  // Quantized weights in the layer's native layout ((OC, k_dim) rows for
  // conv OIHW, (out, in) for inner product).
  const void* weights = nullptr;
  // Accumulator-scale bias per output channel; null when the layer has none.
  const std::int64_t* bias = nullptr;
  // Activation quantize-on-load parameters (the plan's I.F format).
  double act_step = 1.0;
  std::int32_t act_lo = 0;
  std::int32_t act_hi = 0;
  // Dequantize-on-store factor: act_step * weight_step.
  double acc_scale = 1.0;
  // Saturation sink for clipped activations (owned by the executor).
  std::atomic<std::int64_t>* act_saturated = nullptr;

  // --- Fused-region fields. Their defaults give the unfused
  // quantize-on-load / dequantize-on-store round trip. ---
  // Input tensor already holds `type` integers on this layer's activation
  // grid (bit-cast inside the float Tensor buffer): skip quantize-on-load
  // and feed the carrier straight into the integer GEMM.
  bool in_quantized = false;
  // Store requantized integers on the CONSUMER layer's activation grid
  // instead of dequantizing to float: one cross-layer requantize
  // (acc_scale / consumer act_step as a q31 multiplier) replaces the
  // dequantize/quantize pair the unfused path pays at the boundary.
  bool quant_store = false;
  QRequant store_requant;
  std::int32_t store_lo = 0;
  std::int32_t store_hi = 0;
  // Fused ReLU in the store epilogue (see QGemmEpilogue::relu).
  bool relu = false;
};

// The integer input of a lowered layer: `x` itself when it already holds
// carrier integers on the layer's grid (in_quantized), else `x` quantized
// on load into the calling thread's GemmScratch qact slot, clips added to
// act_saturated. Chunk-parallel and deterministic: chunks write disjoint
// ranges and the clip total is an order-free sum.
const void* quantize_layer_input(const QLayerBinding& q, const float* x, std::int64_t numel);

// ---------------------------------------------------------------------------
// Float-path store epilogue, passed by the compiled executor to the float
// entry points of Conv2DLayer/InnerProductLayer as an explicit argument;
// the default-constructed value is the plain, unfused store. When
// scale/shift are non-null they hold one entry per output channel and
// apply the folded BatchNormScale affine (x*a + b, the exact expression
// of BatchNormScaleLayer::forward) ahead of the optional ReLU — so the
// fused store is bitwise identical to running the separate layers.
struct FloatFusion {
  bool relu = false;
  const float* scale = nullptr;
  const float* shift = nullptr;
};

}  // namespace mupod
