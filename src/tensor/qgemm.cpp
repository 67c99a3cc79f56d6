#include "tensor/qgemm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"

namespace mupod {
namespace {

// Micro-tile geometry. Integer accumulators are wider than floats (int32
// for int8 operands, int64 otherwise), so the tile is kept at 4 x 16: the
// int32 case fits the vector register file on SSE2 and the int64 case
// stays inside one L1 line set. Unlike the float kernel there are no
// KC/MC/NC cache blocks: a tile task owns its output tile for the FULL k
// extent (the requantize epilogue needs the complete accumulator), packing
// its 4-row A strip once per row of tiles and streaming the shared packed
// B panel.
constexpr int QMR = 4;
constexpr int QNR = 16;

// Same pool-dispatch crossover as the float GEMM.
constexpr std::int64_t kSerialMacCutoff = 1 << 16;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

struct QGemmCounters {
  Counter* calls;
  Counter* macs;
  Counter* tiles;
  Counter* requant_saturated;
  // Per-kernel dispatch counters: which integer kernel served each call.
  Counter* k_scalar;    // generic C++ tile path
  Counter* k_madd;      // AVX2 k-pair vpmaddwd kernel (int8 or int16)
  Counter* k_maddubs;   // AVX2 k-quad vpmaddubsw fast path
  Counter* k_gemv;      // AVX2 dot-product GEMV path (n == 1)
};

QGemmCounters& qgemm_counters() {
  static QGemmCounters c{&metrics().counter("qgemm.calls"),
                         &metrics().counter("qgemm.macs"),
                         &metrics().counter("qgemm.tiles"),
                         &metrics().counter("qgemm.requant.saturated"),
                         &metrics().counter("kernel.qgemm.scalar"),
                         &metrics().counter("kernel.qgemm.madd"),
                         &metrics().counter("kernel.qgemm.maddubs"),
                         &metrics().counter("kernel.qgemm.gemv")};
  return c;
}

void count_qgemm_kernel(Counter* QGemmCounters::*which) {
  if (metrics_enabled()) (qgemm_counters().*which)->add(1);
}

void report_requant_sat(std::int64_t total_sat, const QGemmEpilogue& ep) {
  if (total_sat != 0) {
    if (ep.saturated != nullptr) ep.saturated->fetch_add(total_sat, std::memory_order_relaxed);
    if (metrics_enabled()) qgemm_counters().requant_saturated->add(total_sat);
  }
}

// ---------------------------------------------------------------------------
// Packing (same layout discipline as the float kernel: A strips
// r-contiguous per k, B strips c-contiguous per k, edges zero-padded so
// the micro-kernel never branches on tile size).

template <typename T>
void pack_a_strip(const T* a, std::int64_t lda, std::int64_t i0, int mr_cur, std::int64_t k,
                  T* ap) {
  const T* src = a + i0 * lda;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    int r = 0;
    for (; r < mr_cur; ++r) ap[kk * QMR + r] = src[r * lda + kk];
    for (; r < QMR; ++r) ap[kk * QMR + r] = T(0);
  }
}

template <typename T>
void pack_b_strip(const T* b, std::int64_t ldb, bool trans_b, std::int64_t j0, int nr_cur,
                  std::int64_t k, T* bp) {
  if (!trans_b) {
    const T* src = b + j0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      int c = 0;
      for (; c < nr_cur; ++c) bp[kk * QNR + c] = src[kk * ldb + c];
      for (; c < QNR; ++c) bp[kk * QNR + c] = T(0);
    }
    return;
  }
  for (int c = 0; c < nr_cur; ++c) {
    const T* src = b + (j0 + c) * ldb;
    for (std::int64_t kk = 0; kk < k; ++kk) bp[kk * QNR + c] = src[kk];
  }
  for (int c = nr_cur; c < QNR; ++c)
    for (std::int64_t kk = 0; kk < k; ++kk) bp[kk * QNR + c] = T(0);
}

// ---------------------------------------------------------------------------
// Micro-kernel: full QMR x QNR register tile over the whole k extent,
// fixed ascending order (the determinism contract; for integers the order
// is also value-irrelevant — addition is exact and associative).

template <typename T, typename Acc>
void qmicro(std::int64_t k, const T* __restrict ap, const T* __restrict bp,
            Acc acc[QMR][QNR]) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const T* __restrict ak = ap + static_cast<std::ptrdiff_t>(kk) * QMR;
    const T* __restrict bk = bp + static_cast<std::ptrdiff_t>(kk) * QNR;
    for (int r = 0; r < QMR; ++r) {
      const Acc av = static_cast<Acc>(ak[r]);
      for (int cc = 0; cc < QNR; ++cc) acc[r][cc] += av * static_cast<Acc>(bk[cc]);
    }
  }
}

// Epilogue: bias in accumulator scale, then either dequantized float
// store or saturating requantized integer store. Returns the tile's
// saturation count (summed per task, added to the sink once — keeps the
// total deterministic).
template <typename T, typename Acc>
std::int64_t store_tile(const Acc acc[QMR][QNR], std::int64_t i0, std::int64_t j0, int mr_cur,
                        int nr_cur, void* c, std::int64_t ldc, const QGemmEpilogue& ep) {
  std::int64_t sat = 0;
  for (int r = 0; r < mr_cur; ++r) {
    for (int cc = 0; cc < nr_cur; ++cc) {
      std::int64_t v = static_cast<std::int64_t>(acc[r][cc]);
      if (ep.bias_row != nullptr)
        v += ep.bias_row[i0 + r];
      else if (ep.bias_col != nullptr)
        v += ep.bias_col[j0 + cc];
      if (!ep.quant_store) {
        float f = static_cast<float>(static_cast<double>(v) * ep.scale);
        // Branchless relu: GCC compiles `f > 0 ? f : 0` (and std::max) to
        // comiss+branch here, and that branch mispredicts ~50% on
        // random-sign accumulators — costing more than the fused relu
        // saves. Masking with the comparison result forces setcc+and and
        // keeps the ternary's exact semantics (+0 for negatives, -0.0,
        // and NaN alike).
        if (ep.relu)
          f = std::bit_cast<float>(std::bit_cast<std::uint32_t>(f) &
                                   -static_cast<std::uint32_t>(f > 0.0f));
        static_cast<float*>(c)[(i0 + r) * ldc + j0 + cc] = f;
      } else {
        std::int32_t q = apply_requant(v, ep.requant);
        if (ep.relu) q = std::max(q, 0);
        // Branchless saturation: min/max compile to cmov while the
        // compare-and-assign form branches, and requantized values land
        // on both sides of the clamp range often enough to mispredict.
        const std::int32_t qc = std::min(std::max(q, ep.lo), ep.hi);
        sat += qc != q;
        static_cast<T*>(c)[(i0 + r) * ldc + j0 + cc] = static_cast<T>(qc);
      }
    }
  }
  return sat;
}

// ---------------------------------------------------------------------------
// Driver

template <typename T, typename Acc>
void qgemm_impl(std::int64_t m, std::int64_t n, std::int64_t k,
                const T* a, std::int64_t lda, const T* b, std::int64_t ldb,
                void* c, std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  const std::int64_t n_ir = ceil_div(m, QMR);
  const std::int64_t n_js = ceil_div(n, QNR);
  const bool par = 2 * m * n * std::max<std::int64_t>(k, 1) >= kSerialMacCutoff;

  // Pack ALL of B once into the calling thread's arena (strip-major,
  // full-k strips); tile tasks only read it.
  T* bp = reinterpret_cast<T*>(
      GemmScratch::local().qb(static_cast<std::size_t>(n_js * std::max<std::int64_t>(k, 1)) *
                              QNR * sizeof(T)));
  const auto pack_b_range = [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t js = sb; js < se; ++js) {
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      pack_b_strip(b, ldb, trans_b, j0, nr_cur, k, bp + js * k * QNR);
    }
  };
  if (par && n_js >= 4)
    parallel_for_chunked(0, n_js, pack_b_range);
  else
    pack_b_range(0, n_js);

  std::atomic<std::int64_t> sat{0};
  // Tile tasks, row-of-tiles major: a contiguous chunk packs each A strip
  // once and reuses it across its run of B strips.
  const auto tile_range = [&](std::int64_t tb, std::int64_t te) {
    T* ap = reinterpret_cast<T*>(GemmScratch::local().qa(
        static_cast<std::size_t>(std::max<std::int64_t>(k, 1)) * QMR * sizeof(T)));
    std::int64_t packed_ir = -1;
    std::int64_t local_sat = 0;
    for (std::int64_t t = tb; t < te; ++t) {
      const std::int64_t ir = t / n_js;
      const std::int64_t js = t % n_js;
      const std::int64_t i0 = ir * QMR;
      const int mr_cur = static_cast<int>(std::min<std::int64_t>(QMR, m - i0));
      if (ir != packed_ir) {
        pack_a_strip(a, lda, i0, mr_cur, k, ap);
        packed_ir = ir;
      }
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      Acc acc[QMR][QNR] = {};
      qmicro(k, ap, bp + js * k * QNR, acc);
      local_sat += store_tile<T>(acc, i0, j0, mr_cur, nr_cur, c, ldc, ep);
    }
    if (local_sat != 0) sat.fetch_add(local_sat, std::memory_order_relaxed);
  };
  if (par)
    parallel_for_chunked(0, n_ir * n_js, tile_range);
  else
    tile_range(0, n_ir * n_js);

  report_requant_sat(sat.load(std::memory_order_relaxed), ep);
}

template <typename T>
std::int64_t quantize_to_t(const float* x, std::int64_t n, double step, std::int32_t lo,
                           std::int32_t hi, T* out) {
  const double inv = 1.0 / step;  // step is a power of two: x * inv is exact
  std::int64_t sat = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    double q = std::nearbyint(static_cast<double>(x[i]) * inv);
    if (q > hi) {
      q = hi;
      ++sat;
    } else if (q < lo) {
      q = lo;
      ++sat;
    } else if (!(q == q)) {
      q = 0.0;  // NaN input: deterministic zero, like a flushed lane
    }
    out[i] = static_cast<T>(static_cast<std::int32_t>(q));
  }
  return sat;
}

// ---------------------------------------------------------------------------
// SIMD paths (tensor/kernels/). All of these compute the exact same
// modular-integer results as the generic templates above, so dispatching
// through them never changes a single output byte — the property battery
// asserts this across ISAs. Layout documentation lives in kernels.hpp;
// saturation/overflow analysis in docs/method.md §16.

template <typename T>
inline T load_b_elem(const T* b, std::int64_t ldb, bool trans_b, std::int64_t kk,
                     std::int64_t j) {
  return trans_b ? b[j * ldb + kk] : b[kk * ldb + j];
}

// Min/max over the used region of B. One streaming pass, cheap next to
// the m*n*k multiply-accumulates it gates.
template <typename T>
void scan_b_range(const T* b, std::int64_t ldb, bool trans_b, std::int64_t n, std::int64_t k,
                  std::int32_t* min_out, std::int32_t* max_out) {
  std::int32_t mn = 0, mx = 0;
  const std::int64_t rows = trans_b ? n : k;
  const std::int64_t cols = trans_b ? k : n;
  for (std::int64_t i = 0; i < rows; ++i) {
    const T* row = b + i * ldb;
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int32_t v = static_cast<std::int32_t>(row[j]);
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  *min_out = mn;
  *max_out = mx;
}

// k-PAIR packers (qmicro8 / qmicro16). A pairs go into int32s (two int16
// halves, low = even k); B pairs are interleaved int16 per column. Odd-k
// and edge padding is zero, which contributes nothing to any dot product.
template <typename T>
void pack_a_pairs(const T* a, std::int64_t lda, std::int64_t i0, int mr_cur, std::int64_t k,
                  std::int32_t* ap) {
  const std::int64_t kp = (k + 1) / 2;
  for (std::int64_t p = 0; p < kp; ++p) {
    for (int r = 0; r < QMR; ++r) {
      std::int16_t lo = 0, hi = 0;
      if (r < mr_cur) {
        const T* row = a + (i0 + r) * lda;
        lo = static_cast<std::int16_t>(row[2 * p]);
        if (2 * p + 1 < k) hi = static_cast<std::int16_t>(row[2 * p + 1]);
      }
      ap[p * QMR + r] =
          static_cast<std::int32_t>(static_cast<std::uint16_t>(lo) |
                                    (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi))
                                     << 16));
    }
  }
}

template <typename T>
void pack_b_pairs(const T* b, std::int64_t ldb, bool trans_b, std::int64_t j0, int nr_cur,
                  std::int64_t k, std::int16_t* bp) {
  const std::int64_t kp = (k + 1) / 2;
  for (std::int64_t p = 0; p < kp; ++p) {
    std::int16_t* dst = bp + p * 2 * QNR;
    for (int c = 0; c < QNR; ++c) {
      std::int16_t e0 = 0, e1 = 0;
      if (c < nr_cur) {
        e0 = static_cast<std::int16_t>(load_b_elem(b, ldb, trans_b, 2 * p, j0 + c));
        if (2 * p + 1 < k)
          e1 = static_cast<std::int16_t>(load_b_elem(b, ldb, trans_b, 2 * p + 1, j0 + c));
      }
      dst[2 * c] = e0;
      dst[2 * c + 1] = e1;
    }
  }
}

// k-QUAD packers (qmicro8_maddubs). A bytes carry the +128 offset (the u8
// side of vpmaddubsw); padding is 128 == offset-domain zero, and the
// -128 * colsum compensation cancels padded rows' contribution exactly.
// B bytes are plain int8, zero-padded; colsum[c] accumulates the strip's
// true column sums for the compensation.
void pack_a_quads8(const std::int8_t* a, std::int64_t lda, std::int64_t i0, int mr_cur,
                   std::int64_t k, std::int32_t* ap) {
  const std::int64_t kq = (k + 3) / 4;
  std::uint8_t* bytes = reinterpret_cast<std::uint8_t*>(ap);
  for (std::int64_t q = 0; q < kq; ++q) {
    for (int r = 0; r < QMR; ++r) {
      std::uint8_t* dst = bytes + (q * QMR + r) * 4;
      for (int t = 0; t < 4; ++t) {
        const std::int64_t kk = 4 * q + t;
        std::uint8_t v = 128;
        if (r < mr_cur && kk < k)
          v = static_cast<std::uint8_t>(static_cast<std::int32_t>(a[(i0 + r) * lda + kk]) + 128);
        dst[t] = v;
      }
    }
  }
}

void pack_b_quads8(const std::int8_t* b, std::int64_t ldb, bool trans_b, std::int64_t j0,
                   int nr_cur, std::int64_t k, std::int8_t* bp, std::int32_t* colsum) {
  const std::int64_t kq = (k + 3) / 4;
  for (int c = 0; c < QNR; ++c) colsum[c] = 0;
  for (std::int64_t q = 0; q < kq; ++q) {
    std::int8_t* dst = bp + q * 4 * QNR;
    for (int c = 0; c < QNR; ++c) {
      for (int t = 0; t < 4; ++t) {
        const std::int64_t kk = 4 * q + t;
        std::int8_t v = 0;
        if (c < nr_cur && kk < k) {
          v = load_b_elem(b, ldb, trans_b, kk, j0 + c);
          colsum[c] += v;
        }
        dst[c * 4 + t] = v;
      }
    }
  }
}

// GEMV (n == 1): per-row dot products over contiguous memory, no packing.
// Strided x (ldb != 1 without trans_b) is compacted into scratch first.
template <typename T, typename Acc, typename DotFn>
void qgemv_simd(std::int64_t m, std::int64_t k, const T* a, std::int64_t lda, const T* b,
                std::int64_t ldb, bool trans_b, void* c, std::int64_t ldc,
                const QGemmEpilogue& ep, DotFn dot) {
  const std::int64_t x_stride = trans_b ? 1 : ldb;
  const T* x = b;
  if (x_stride != 1) {
    T* xbuf = reinterpret_cast<T*>(
        GemmScratch::local().qb(static_cast<std::size_t>(k) * sizeof(T)));
    for (std::int64_t kk = 0; kk < k; ++kk) xbuf[kk] = b[kk * x_stride];
    x = xbuf;
  }
  const bool par = 2 * m * k >= kSerialMacCutoff;
  std::atomic<std::int64_t> sat{0};
  const auto row_range = [&](std::int64_t rb, std::int64_t re) {
    std::int64_t local_sat = 0;
    for (std::int64_t i = rb; i < re; ++i) {
      Acc acc[QMR][QNR] = {};
      acc[0][0] = dot(k, a + i * lda, x);
      local_sat += store_tile<T>(acc, i, 0, 1, 1, c, ldc, ep);
    }
    if (local_sat != 0) sat.fetch_add(local_sat, std::memory_order_relaxed);
  };
  if (par)
    parallel_for_chunked(0, m, row_range);
  else
    row_range(0, m);
  report_requant_sat(sat.load(std::memory_order_relaxed), ep);
}

// Matrix drivers. Same task decomposition as qgemm_impl (full-k output
// tiles, strip-major, A packed once per row of tiles per chunk), so
// worker-count determinism carries over unchanged.
enum class PairKernel { kInt8, kInt16 };

template <typename T, typename Acc>
void qgemm_pairs_simd(const KernelRegistry& reg, PairKernel which, std::int64_t m,
                      std::int64_t n, std::int64_t k, const T* a, std::int64_t lda, const T* b,
                      std::int64_t ldb, void* c, std::int64_t ldc, const QGemmEpilogue& ep,
                      bool trans_b) {
  const std::int64_t kp = (k + 1) / 2;
  const std::int64_t n_ir = ceil_div(m, QMR);
  const std::int64_t n_js = ceil_div(n, QNR);
  const bool par = 2 * m * n * k >= kSerialMacCutoff;

  std::int16_t* bp = reinterpret_cast<std::int16_t*>(GemmScratch::local().qb(
      static_cast<std::size_t>(n_js * kp) * 2 * QNR * sizeof(std::int16_t)));
  const auto pack_b_range = [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t js = sb; js < se; ++js) {
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      pack_b_pairs(b, ldb, trans_b, j0, nr_cur, k, bp + js * kp * 2 * QNR);
    }
  };
  if (par && n_js >= 4)
    parallel_for_chunked(0, n_js, pack_b_range);
  else
    pack_b_range(0, n_js);

  std::atomic<std::int64_t> sat{0};
  const auto tile_range = [&](std::int64_t tb, std::int64_t te) {
    std::int32_t* ap = reinterpret_cast<std::int32_t*>(GemmScratch::local().qa(
        static_cast<std::size_t>(kp) * QMR * sizeof(std::int32_t)));
    std::int64_t packed_ir = -1;
    std::int64_t local_sat = 0;
    for (std::int64_t t = tb; t < te; ++t) {
      const std::int64_t ir = t / n_js;
      const std::int64_t js = t % n_js;
      const std::int64_t i0 = ir * QMR;
      const int mr_cur = static_cast<int>(std::min<std::int64_t>(QMR, m - i0));
      if (ir != packed_ir) {
        pack_a_pairs(a, lda, i0, mr_cur, k, ap);
        packed_ir = ir;
      }
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      alignas(32) Acc acc[QMR][QNR] = {};
      if (which == PairKernel::kInt8)
        reg.qmicro8(kp, ap, bp + js * kp * 2 * QNR,
                    reinterpret_cast<std::int32_t*>(&acc[0][0]));
      else
        reg.qmicro16(kp, ap, bp + js * kp * 2 * QNR,
                     reinterpret_cast<std::int64_t*>(&acc[0][0]));
      local_sat += store_tile<T>(acc, i0, j0, mr_cur, nr_cur, c, ldc, ep);
    }
    if (local_sat != 0) sat.fetch_add(local_sat, std::memory_order_relaxed);
  };
  if (par)
    parallel_for_chunked(0, n_ir * n_js, tile_range);
  else
    tile_range(0, n_ir * n_js);
  report_requant_sat(sat.load(std::memory_order_relaxed), ep);
}

void qgemm_quads_simd(const KernelRegistry& reg, std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                      std::int64_t ldb, void* c, std::int64_t ldc, const QGemmEpilogue& ep,
                      bool trans_b) {
  const std::int64_t kq = (k + 3) / 4;
  const std::int64_t n_ir = ceil_div(m, QMR);
  const std::int64_t n_js = ceil_div(n, QNR);
  const bool par = 2 * m * n * k >= kSerialMacCutoff;

  // One arena block: quad-packed strips, then the per-strip column sums
  // the compensation init needs.
  const std::size_t quads_bytes = static_cast<std::size_t>(n_js * kq) * 4 * QNR;
  unsigned char* raw =
      GemmScratch::local().qb(quads_bytes + static_cast<std::size_t>(n_js) * QNR *
                                                sizeof(std::int32_t));
  std::int8_t* bq = reinterpret_cast<std::int8_t*>(raw);
  std::int32_t* colsums = reinterpret_cast<std::int32_t*>(raw + quads_bytes);
  const auto pack_b_range = [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t js = sb; js < se; ++js) {
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      pack_b_quads8(b, ldb, trans_b, j0, nr_cur, k, bq + js * kq * 4 * QNR,
                    colsums + js * QNR);
    }
  };
  if (par && n_js >= 4)
    parallel_for_chunked(0, n_js, pack_b_range);
  else
    pack_b_range(0, n_js);

  std::atomic<std::int64_t> sat{0};
  const auto tile_range = [&](std::int64_t tb, std::int64_t te) {
    std::int32_t* ap = reinterpret_cast<std::int32_t*>(GemmScratch::local().qa(
        static_cast<std::size_t>(kq) * QMR * sizeof(std::int32_t)));
    std::int64_t packed_ir = -1;
    std::int64_t local_sat = 0;
    for (std::int64_t t = tb; t < te; ++t) {
      const std::int64_t ir = t / n_js;
      const std::int64_t js = t % n_js;
      const std::int64_t i0 = ir * QMR;
      const int mr_cur = static_cast<int>(std::min<std::int64_t>(QMR, m - i0));
      if (ir != packed_ir) {
        pack_a_quads8(a, lda, i0, mr_cur, k, ap);
        packed_ir = ir;
      }
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      const std::int32_t* cs = colsums + js * QNR;
      alignas(32) std::int32_t acc[QMR][QNR];
      for (int r = 0; r < QMR; ++r)
        for (int cc = 0; cc < QNR; ++cc) acc[r][cc] = -128 * cs[cc];
      reg.qmicro8_maddubs(kq, ap, bq + js * kq * 4 * QNR, &acc[0][0]);
      local_sat += store_tile<std::int8_t>(acc, i0, j0, mr_cur, nr_cur, c, ldc, ep);
    }
    if (local_sat != 0) sat.fetch_add(local_sat, std::memory_order_relaxed);
  };
  if (par)
    parallel_for_chunked(0, n_ir * n_js, tile_range);
  else
    tile_range(0, n_ir * n_js);
  report_requant_sat(sat.load(std::memory_order_relaxed), ep);
}

// Top-level SIMD dispatch per type. Returns false when the generic
// template path should run (scalar registry, k == 0, or an input pattern
// a SIMD kernel cannot handle exactly).
bool qgemm8_simd(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                 std::int64_t lda, const std::int8_t* b, std::int64_t ldb, void* c,
                 std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  const KernelRegistry& reg = kernel_registry();
  if (k <= 0) return false;
  if (n == 1 && reg.qdot8 != nullptr) {
    count_qgemm_kernel(&QGemmCounters::k_gemv);
    qgemv_simd<std::int8_t, std::int32_t>(m, k, a, lda, b, ldb, trans_b, c, ldc, ep, reg.qdot8);
    return true;
  }
  if (reg.qmicro8 == nullptr) return false;
  if (reg.qmicro8_maddubs != nullptr && k <= (std::int64_t{1} << 16)) {
    // vpmaddubsw fast path: safe only when every |b| <= 64 (no 16-bit
    // saturation) — true for plans whose B-side format is <= 7 bits.
    std::int32_t bmin = 0, bmax = 0;
    scan_b_range(b, ldb, trans_b, n, k, &bmin, &bmax);
    if (bmin >= -64 && bmax <= 64) {
      count_qgemm_kernel(&QGemmCounters::k_maddubs);
      qgemm_quads_simd(reg, m, n, k, a, lda, b, ldb, c, ldc, ep, trans_b);
      return true;
    }
  }
  count_qgemm_kernel(&QGemmCounters::k_madd);
  qgemm_pairs_simd<std::int8_t, std::int32_t>(reg, PairKernel::kInt8, m, n, k, a, lda, b, ldb,
                                              c, ldc, ep, trans_b);
  return true;
}

bool qgemm16_simd(std::int64_t m, std::int64_t n, std::int64_t k, const std::int16_t* a,
                  std::int64_t lda, const std::int16_t* b, std::int64_t ldb, void* c,
                  std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  const KernelRegistry& reg = kernel_registry();
  if (k <= 0) return false;
  // The single vpmaddwd overflow case needs a (-32768, -32768) pair in
  // BOTH operands; excluding -32768 from the B side makes it unreachable.
  if (n == 1 && reg.qdot16 != nullptr) {
    const std::int64_t x_stride = trans_b ? 1 : ldb;
    bool has_min = false;
    for (std::int64_t kk = 0; kk < k && !has_min; ++kk)
      has_min = b[kk * x_stride] == std::numeric_limits<std::int16_t>::min();
    if (!has_min) {
      count_qgemm_kernel(&QGemmCounters::k_gemv);
      qgemv_simd<std::int16_t, std::int64_t>(m, k, a, lda, b, ldb, trans_b, c, ldc, ep,
                                             reg.qdot16);
      return true;
    }
    return false;
  }
  if (reg.qmicro16 == nullptr) return false;
  std::int32_t bmin = 0, bmax = 0;
  scan_b_range(b, ldb, trans_b, n, k, &bmin, &bmax);
  if (bmin == std::numeric_limits<std::int16_t>::min()) return false;
  count_qgemm_kernel(&QGemmCounters::k_madd);
  qgemm_pairs_simd<std::int16_t, std::int64_t>(reg, PairKernel::kInt16, m, n, k, a, lda, b, ldb,
                                               c, ldc, ep, trans_b);
  return true;
}

}  // namespace

const char* qtype_name(QType t) {
  switch (t) {
    case QType::kInt8: return "int8";
    case QType::kInt16: return "int16";
    case QType::kInt32: return "int32";
  }
  return "?";
}

int qtype_bits(QType t) {
  switch (t) {
    case QType::kInt8: return 8;
    case QType::kInt16: return 16;
    case QType::kInt32: return 32;
  }
  return 0;
}

std::size_t qtype_bytes(QType t) { return static_cast<std::size_t>(qtype_bits(t)) / 8; }

QType qtype_for_bits(int total_bits) {
  if (total_bits <= 8) return QType::kInt8;
  if (total_bits <= 16) return QType::kInt16;
  return QType::kInt32;
}

QRequant make_requant(double real_multiplier) {
  assert(real_multiplier > 0.0);
  QRequant rq;
  int exp = 0;
  const double q = std::frexp(real_multiplier, &exp);  // real = q * 2^exp, q in [0.5, 1)
  std::int64_t qi = std::llround(q * static_cast<double>(std::int64_t{1} << 31));
  if (qi == (std::int64_t{1} << 31)) {
    qi >>= 1;
    ++exp;
  }
  rq.multiplier = static_cast<std::int32_t>(qi);
  rq.shift = -exp;  // y = acc * multiplier * 2^-(31 + shift)
  return rq;
}

std::int32_t apply_requant(std::int64_t acc, const QRequant& rq) {
  // Power-of-two fast path: with multiplier == 2^30 the q31 product is
  // acc << 30, so the rounding shift by s = 31 + shift collapses to a
  // plain int64 add-half-floor shift by t = s - 30 — bit-identical to
  // the 128-bit path below (the half-constant 2^(s-1) is (acc-domain)
  // 2^(t-1) · 2^30 whenever t >= 1) and several times cheaper. This is
  // the only shape the graph compiler emits: activation and weight steps
  // are powers of two, so every cross-layer requantize multiplier is too.
  if (rq.multiplier == (std::int32_t{1} << 30)) {
    const int t = rq.shift + 1;
    if (t >= 1 && t <= 62) {
      const std::int64_t q = (acc + (std::int64_t{1} << (t - 1))) >> t;
      if (q > std::numeric_limits<std::int32_t>::max())
        return std::numeric_limits<std::int32_t>::max();
      if (q < std::numeric_limits<std::int32_t>::min())
        return std::numeric_limits<std::int32_t>::min();
      return static_cast<std::int32_t>(q);
    }
  }
  // 128-bit product: |acc| < 2^63 and multiplier < 2^31 always fit.
  __int128 p = static_cast<__int128>(acc) * rq.multiplier;
  const int s = 31 + rq.shift;
  if (s > 0) {
    // Round to nearest, ties toward +inf: add half, floor (arithmetic
    // shift). One fixed rule for both signs keeps it branch-free and
    // bit-reproducible.
    p = (p + (static_cast<__int128>(1) << (s - 1))) >> s;
  } else if (s < 0) {
    p <<= -s;
  }
  if (p > std::numeric_limits<std::int32_t>::max()) return std::numeric_limits<std::int32_t>::max();
  if (p < std::numeric_limits<std::int32_t>::min()) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(p);
}

QGemmBlocking qgemm_blocking() { return {QMR, QNR}; }

void qgemm(QType type, std::int64_t m, std::int64_t n, std::int64_t k,
           const void* a, std::int64_t lda, const void* b, std::int64_t ldb,
           void* c, std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  if (m <= 0 || n <= 0) return;
  if (k < 0) k = 0;

  if (metrics_enabled()) {
    QGemmCounters& qc = qgemm_counters();
    qc.calls->add(1);
    qc.macs->add(m * n * k);
    qc.tiles->add(ceil_div(m, QMR) * ceil_div(n, QNR));
  }

  switch (type) {
    case QType::kInt8:
      // int8 x int8 products are < 2^14, so int32 accumulation is exact
      // for any k < 2^17 — far beyond any layer this pipeline lowers.
      // The SIMD paths compute identical bits (kernels.hpp contract); the
      // generic template is the scalar ISA and the fallback.
      if (qgemm8_simd(m, n, k, static_cast<const std::int8_t*>(a), lda,
                      static_cast<const std::int8_t*>(b), ldb, c, ldc, ep, trans_b))
        return;
      count_qgemm_kernel(&QGemmCounters::k_scalar);
      qgemm_impl<std::int8_t, std::int32_t>(m, n, k, static_cast<const std::int8_t*>(a), lda,
                                            static_cast<const std::int8_t*>(b), ldb, c, ldc, ep,
                                            trans_b);
      break;
    case QType::kInt16:
      if (qgemm16_simd(m, n, k, static_cast<const std::int16_t*>(a), lda,
                       static_cast<const std::int16_t*>(b), ldb, c, ldc, ep, trans_b))
        return;
      count_qgemm_kernel(&QGemmCounters::k_scalar);
      qgemm_impl<std::int16_t, std::int64_t>(m, n, k, static_cast<const std::int16_t*>(a), lda,
                                             static_cast<const std::int16_t*>(b), ldb, c, ldc, ep,
                                             trans_b);
      break;
    case QType::kInt32:
      count_qgemm_kernel(&QGemmCounters::k_scalar);
      qgemm_impl<std::int32_t, std::int64_t>(m, n, k, static_cast<const std::int32_t*>(a), lda,
                                             static_cast<const std::int32_t*>(b), ldb, c, ldc, ep,
                                             trans_b);
      break;
  }
}

std::int64_t quantize_to(QType type, const float* x, std::int64_t n, double step, std::int32_t lo,
                         std::int32_t hi, void* out) {
  // int8/int16 dispatch to the registry's vectorized quantizer when one is
  // compiled in (bit-compatible with quantize_to_t by contract). int32
  // stays scalar: 2^31 - 1 is not float-representable, so the clamp needs
  // the double path.
  const KernelRegistry& reg = kernel_registry();
  switch (type) {
    case QType::kInt8:
      if (reg.quantize8 != nullptr) {
        if (metrics_enabled()) {
          static Counter* c = &metrics().counter("kernel.quantize.simd");
          c->add(1);
        }
        return reg.quantize8(x, n, static_cast<float>(1.0 / step), lo, hi,
                             static_cast<std::int8_t*>(out));
      }
      return quantize_to_t(x, n, step, lo, hi, static_cast<std::int8_t*>(out));
    case QType::kInt16:
      if (reg.quantize16 != nullptr) {
        if (metrics_enabled()) {
          static Counter* c = &metrics().counter("kernel.quantize.simd");
          c->add(1);
        }
        return reg.quantize16(x, n, static_cast<float>(1.0 / step), lo, hi,
                              static_cast<std::int16_t*>(out));
      }
      return quantize_to_t(x, n, step, lo, hi, static_cast<std::int16_t*>(out));
    case QType::kInt32:
      return quantize_to_t(x, n, step, lo, hi, static_cast<std::int32_t*>(out));
  }
  return 0;
}

const void* quantize_layer_input(const QLayerBinding& q, const float* x, std::int64_t numel) {
  if (q.in_quantized) return x;
  const std::size_t elem = qtype_bytes(q.type);
  unsigned char* xq = GemmScratch::local().qact(static_cast<std::size_t>(numel) * elem);
  std::atomic<std::int64_t> sat{0};
  const auto body = [&](std::int64_t b, std::int64_t e) {
    const std::int64_t s = quantize_to(q.type, x + b, e - b, q.act_step, q.act_lo, q.act_hi,
                                       xq + static_cast<std::size_t>(b) * elem);
    if (s != 0) sat.fetch_add(s, std::memory_order_relaxed);
  };
  if (numel >= (1 << 14))
    parallel_for_chunked(0, numel, body);
  else
    body(0, numel);
  const std::int64_t total = sat.load(std::memory_order_relaxed);
  if (total != 0 && q.act_saturated != nullptr)
    q.act_saturated->fetch_add(total, std::memory_order_relaxed);
  return xq;
}

}  // namespace mupod
