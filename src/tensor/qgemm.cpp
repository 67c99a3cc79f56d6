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
  Counter* k_gemv;      // AVX2 dot-product GEMV path (n == 1)
};

QGemmCounters& qgemm_counters() {
  static QGemmCounters c{&metrics().counter("qgemm.calls"),
                         &metrics().counter("qgemm.macs"),
                         &metrics().counter("qgemm.tiles"),
                         &metrics().counter("qgemm.requant.saturated"),
                         &metrics().counter("kernel.qgemm.scalar"),
                         &metrics().counter("kernel.qgemm.madd"),
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
// Tile driver, shared by every packed integer GEMM (the generic templates
// and the SIMD pair kernels). It packs ALL of B once into the calling
// thread's arena as full-k strips (tile tasks only read it), then walks
// the output tiles row-of-tiles major: a contiguous chunk packs each A
// strip once and reuses it across its run of B strips. A task owns its
// tiles for the full k extent and sums its saturations locally, so the
// result and the count are independent of the worker count. The packed
// layout is the caller's: one A / B strip holds `a_len` / `b_len`
// elements, `pack_a(i0, mr_cur, ap)` / `pack_b(j0, nr_cur, bp)` fill one
// strip, and `micro(ap, bp, acc)` accumulates one zeroed tile.
template <typename T, typename Acc, typename AP, typename BP, typename PackA, typename PackB,
          typename Micro>
void qgemm_tiles(std::int64_t m, std::int64_t n, std::int64_t k, std::int64_t a_len,
                 std::int64_t b_len, void* c, std::int64_t ldc, const QGemmEpilogue& ep,
                 PackA pack_a, PackB pack_b, Micro micro) {
  const std::int64_t n_ir = ceil_div(m, QMR);
  const std::int64_t n_js = ceil_div(n, QNR);
  const bool par = 2 * m * n * std::max<std::int64_t>(k, 1) >= kSerialMacCutoff;

  BP* bp = reinterpret_cast<BP*>(
      GemmScratch::local().qb(static_cast<std::size_t>(n_js * b_len) * sizeof(BP)));
  const auto pack_b_range = [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t js = sb; js < se; ++js) {
      const std::int64_t j0 = js * QNR;
      pack_b(j0, static_cast<int>(std::min<std::int64_t>(QNR, n - j0)), bp + js * b_len);
    }
  };
  if (par && n_js >= 4)
    parallel_for_chunked(0, n_js, pack_b_range);
  else
    pack_b_range(0, n_js);

  std::atomic<std::int64_t> sat{0};
  const auto tile_range = [&](std::int64_t tb, std::int64_t te) {
    AP* ap = reinterpret_cast<AP*>(
        GemmScratch::local().qa(static_cast<std::size_t>(a_len) * sizeof(AP)));
    std::int64_t packed_ir = -1;
    std::int64_t local_sat = 0;
    for (std::int64_t t = tb; t < te; ++t) {
      const std::int64_t ir = t / n_js;
      const std::int64_t js = t % n_js;
      const std::int64_t i0 = ir * QMR;
      const int mr_cur = static_cast<int>(std::min<std::int64_t>(QMR, m - i0));
      if (ir != packed_ir) {
        pack_a(i0, mr_cur, ap);
        packed_ir = ir;
      }
      const std::int64_t j0 = js * QNR;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(QNR, n - j0));
      alignas(32) Acc acc[QMR][QNR] = {};
      micro(ap, bp + js * b_len, acc);
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

// The generic C++ path: plain strips, qmicro. Strips are sized for at
// least one k step so a k == 0 call still gets real arena memory.
template <typename T, typename Acc>
void qgemm_generic(std::int64_t m, std::int64_t n, std::int64_t k, const T* a, std::int64_t lda,
                   const T* b, std::int64_t ldb, void* c, std::int64_t ldc,
                   const QGemmEpilogue& ep, bool trans_b) {
  const std::int64_t ks = std::max<std::int64_t>(k, 1);
  qgemm_tiles<T, Acc, T, T>(
      m, n, k, ks * QMR, ks * QNR, c, ldc, ep,
      [&](std::int64_t i0, int mr_cur, T* ap) { pack_a_strip(a, lda, i0, mr_cur, k, ap); },
      [&](std::int64_t j0, int nr_cur, T* bp) {
        pack_b_strip(b, ldb, trans_b, j0, nr_cur, k, bp);
      },
      [&](const T* ap, const T* bp, Acc acc[QMR][QNR]) { qmicro(k, ap, bp, acc); });
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

// Whether the used region of an int16 B holds -32768. vpmaddwd overflows
// only on a (-32768, -32768) pair in BOTH operands, so a B free of -32768
// makes the int16 SIMD kernels exact. One streaming pass, cheap next to
// the m*n*k multiply-accumulates it gates.
bool b_has_int16_min(const std::int16_t* b, std::int64_t ldb, bool trans_b, std::int64_t n,
                     std::int64_t k) {
  const std::int64_t rows = trans_b ? n : k;
  const std::int64_t cols = trans_b ? k : n;
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int16_t* row = b + i * ldb;
    for (std::int64_t j = 0; j < cols; ++j)
      if (row[j] == std::numeric_limits<std::int16_t>::min()) return true;
  }
  return false;
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

// The k-pair vpmaddwd path: the tile driver over pair-packed strips, with
// the registry's qmicro8 (int32 tile) or qmicro16 (int64 tile) kernel.
template <typename T, typename Acc>
void qgemm_pairs(void (*micro)(std::int64_t, const std::int32_t*, const std::int16_t*, Acc*),
                 std::int64_t m, std::int64_t n, std::int64_t k, const T* a, std::int64_t lda,
                 const T* b, std::int64_t ldb, void* c, std::int64_t ldc,
                 const QGemmEpilogue& ep, bool trans_b) {
  const std::int64_t kp = (k + 1) / 2;
  qgemm_tiles<T, Acc, std::int32_t, std::int16_t>(
      m, n, k, kp * QMR, kp * 2 * QNR, c, ldc, ep,
      [&](std::int64_t i0, int mr_cur, std::int32_t* ap) {
        pack_a_pairs(a, lda, i0, mr_cur, k, ap);
      },
      [&](std::int64_t j0, int nr_cur, std::int16_t* bp) {
        pack_b_pairs(b, ldb, trans_b, j0, nr_cur, k, bp);
      },
      [&](const std::int32_t* ap, const std::int16_t* bp, Acc acc[QMR][QNR]) {
        micro(kp, ap, bp, &acc[0][0]);
      });
}

// Top-level SIMD dispatch per type. Returns false when the generic
// template path should run (scalar registry, k == 0, or an input pattern
// a SIMD kernel cannot handle exactly).
bool qgemm8_simd(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                 std::int64_t lda, const std::int8_t* b, std::int64_t ldb, void* c,
                 std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  const KernelRegistry& reg = kernel_registry();
  if (k <= 0 || reg.qmicro8 == nullptr) return false;
  count_qgemm_kernel(n == 1 ? &QGemmCounters::k_gemv : &QGemmCounters::k_madd);
  if (n == 1)
    qgemv_simd<std::int8_t, std::int32_t>(m, k, a, lda, b, ldb, trans_b, c, ldc, ep, reg.qdot8);
  else
    qgemm_pairs<std::int8_t, std::int32_t>(reg.qmicro8, m, n, k, a, lda, b, ldb, c, ldc, ep,
                                           trans_b);
  return true;
}

bool qgemm16_simd(std::int64_t m, std::int64_t n, std::int64_t k, const std::int16_t* a,
                  std::int64_t lda, const std::int16_t* b, std::int64_t ldb, void* c,
                  std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  const KernelRegistry& reg = kernel_registry();
  if (k <= 0 || reg.qmicro16 == nullptr) return false;
  if (b_has_int16_min(b, ldb, trans_b, n, k)) return false;
  count_qgemm_kernel(n == 1 ? &QGemmCounters::k_gemv : &QGemmCounters::k_madd);
  if (n == 1)
    qgemv_simd<std::int16_t, std::int64_t>(m, k, a, lda, b, ldb, trans_b, c, ldc, ep,
                                           reg.qdot16);
  else
    qgemm_pairs<std::int16_t, std::int64_t>(reg.qmicro16, m, n, k, a, lda, b, ldb, c, ldc, ep,
                                            trans_b);
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
      qgemm_generic<std::int8_t, std::int32_t>(m, n, k, static_cast<const std::int8_t*>(a), lda,
                                            static_cast<const std::int8_t*>(b), ldb, c, ldc, ep,
                                            trans_b);
      break;
    case QType::kInt16:
      if (qgemm16_simd(m, n, k, static_cast<const std::int16_t*>(a), lda,
                       static_cast<const std::int16_t*>(b), ldb, c, ldc, ep, trans_b))
        return;
      count_qgemm_kernel(&QGemmCounters::k_scalar);
      qgemm_generic<std::int16_t, std::int64_t>(m, n, k, static_cast<const std::int16_t*>(a), lda,
                                             static_cast<const std::int16_t*>(b), ldb, c, ldc, ep,
                                             trans_b);
      break;
    case QType::kInt32:
      count_qgemm_kernel(&QGemmCounters::k_scalar);
      qgemm_generic<std::int32_t, std::int64_t>(m, n, k, static_cast<const std::int32_t*>(a), lda,
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
