// The register-blocked packed GEMM (src/tensor/gemm.cpp) against a naive
// triple-loop reference, the conv/fc layers that consume it, and the
// determinism contract the plan-service suite depends on. Lives in the
// `sanitize`-labeled binary so run_sanitized_tests.sh covers the packing
// and tile-task paths under both ASan and TSan (the TSan run pins
// MUPOD_THREADS=4 so the tile parallelism actually crosses threads).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

// Naive reference: C = A·B + beta*C with double accumulation.
void ref_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc,
              bool trans_b) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float bv = trans_b ? b[j * ldb + kk] : b[kk * ldb + j];
        acc += static_cast<double>(a[i * lda + kk]) * bv;
      }
      float& out = c[i * ldc + j];
      out = static_cast<float>(acc + (beta == 0.0f ? 0.0 : static_cast<double>(beta) * out));
    }
}

struct GemmCase {
  std::int64_t m, n, k;
  float beta;
  bool trans_b;
};

class GemmVsReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsReference, Matches) {
  const GemmCase& p = GetParam();
  const std::int64_t lda = p.k, ldb = p.trans_b ? p.k : p.n, ldc = p.n;
  const std::vector<float> a = random_vec(static_cast<std::size_t>(p.m * p.k), 1);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(p.k * p.n), 2);
  std::vector<float> c = random_vec(static_cast<std::size_t>(p.m * p.n), 3);
  std::vector<float> c_ref = c;

  gemm(p.m, p.n, p.k, a.data(), lda, b.data(), ldb, p.beta, c.data(), ldc, p.trans_b);
  ref_gemm(p.m, p.n, p.k, a.data(), lda, b.data(), ldb, p.beta, c_ref.data(), ldc, p.trans_b);

  // Scale the tolerance with the reduction length: each float accumulation
  // step contributes O(eps * |partial sum|).
  const double tol = 1e-4 * std::max<double>(1.0, std::sqrt(static_cast<double>(p.k)));
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], tol) << "element " << i << " of " << p.m << "x" << p.n << "x"
                                     << p.k;
}

std::vector<GemmCase> gemm_cases() {
  const GemmBlocking bl = gemm_blocking();
  std::vector<GemmCase> cases = {
      // Degenerate extents.
      {1, 1, 1, 0.0f, false},
      {1, 257, 3, 0.0f, false},
      {257, 1, 5, 1.0f, false},  // the batch-1 inner-product (GEMV) shape
      {3, 4, 1, 0.5f, false},
      // Non-multiples of MR/NR straddling one register tile.
      {bl.mr - 1, bl.nr - 1, 7, 0.0f, false},
      {bl.mr + 1, bl.nr + 1, 33, 1.0f, false},
      {2 * bl.mr + 3, 3 * bl.nr - 5, 64, 0.0f, true},
      // Straddling the cache blocks: KC boundary, MC boundary, NC boundary.
      {5, 9, bl.kc + 17, 1.0f, false},
      {bl.mc + bl.mr / 2, 31, bl.kc - 1, 0.0f, false},
      {9, bl.nc + bl.nr / 2, 40, 0.0f, true},
      // A mid-size everything-at-once shape.
      {130, 70, 300, 0.5f, true},
  };
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmVsReference, ::testing::ValuesIn(gemm_cases()));

TEST(Gemm, KZeroAppliesBetaOnly) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm(2, 2, 0, nullptr, 1, nullptr, 1, 0.5f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  gemm(2, 2, 0, nullptr, 1, nullptr, 1, 0.0f, c.data(), 2);
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  // beta == 0 must never read C, so NaNs in the output buffer are erased.
  const std::vector<float> a = random_vec(4 * 8, 4);
  const std::vector<float> b = random_vec(8 * 4, 5);
  std::vector<float> c(16, std::numeric_limits<float>::quiet_NaN());
  gemm(4, 4, 8, a.data(), 8, b.data(), 4, 0.0f, c.data(), 4);
  for (float v : c) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gemm, RepeatCallsAreBitIdentical) {
  const std::vector<float> a = random_vec(100 * 300, 6);
  const std::vector<float> b = random_vec(300 * 90, 7);
  std::vector<float> c1(100 * 90, 0.0f), c2(100 * 90, 0.0f);
  gemm(100, 90, 300, a.data(), 300, b.data(), 90, 0.0f, c1.data(), 90);
  gemm(100, 90, 300, a.data(), 300, b.data(), 90, 0.0f, c2.data(), 90);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Layer-level parity

Conv2DLayer make_conv(const Conv2DLayer::Config& cfg, std::uint64_t seed) {
  Conv2DLayer conv(cfg);
  Rng rng(seed);
  for (std::int64_t i = 0; i < conv.mutable_weights()->numel(); ++i)
    (*conv.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  if (conv.mutable_bias() != nullptr)
    for (std::int64_t i = 0; i < conv.mutable_bias()->numel(); ++i)
      (*conv.mutable_bias())[i] = static_cast<float>(rng.gaussian(0.0, 0.1));
  return conv;
}

// The blocked GEMM inner product (the transposed GEMV at batch 1, the
// Bᵀ-packed GEMM above it) against a naive per-row float dot product.
TEST(InnerProductParity, MatchesNaiveDotAcrossBatch) {
  InnerProductLayer fc(137, 75);  // non-multiples of every tile size
  Rng rng(21);
  for (std::int64_t i = 0; i < fc.mutable_weights()->numel(); ++i)
    (*fc.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  for (std::int64_t i = 0; i < fc.mutable_bias()->numel(); ++i)
    (*fc.mutable_bias())[i] = static_cast<float>(rng.gaussian());
  const float* w = fc.weights()->data();
  const float* bias = fc.bias()->data();

  for (const int batch : {1, 2, 9}) {
    Tensor x(Shape({batch, 137}));
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());
    const Shape shapes[1] = {x.shape()};
    const Tensor* ins[1] = {&x};
    Tensor y(fc.output_shape(shapes));
    fc.forward(ins, y);
    for (int n = 0; n < batch; ++n)
      for (int o = 0; o < 75; ++o) {
        float acc = bias[o];
        for (int i = 0; i < 137; ++i) acc += x[n * 137 + i] * w[o * 137 + i];
        ASSERT_NEAR(y[n * 75 + o], acc, 1e-4) << "batch " << batch << " element " << n * 75 + o;
      }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the contract PR 2's bit-identical-run suite leans on.

TEST(GemmDeterminism, ForwardTwiceIsBitIdentical) {
  ZooOptions zo;
  zo.calibration_images = 4;
  zo.head_images = 0;
  ZooModel model = build_tiny_cnn(zo);
  Tensor x(Shape({2, model.channels, model.height, model.width}));
  Rng rng(5);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Tensor y1 = model.net.forward(x);
  const Tensor y2 = model.net.forward(x);
  ASSERT_EQ(y1.numel(), y2.numel());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           static_cast<std::size_t>(y1.numel()) * sizeof(float)));
}

// Batched and single-image forwards decompose the work differently (outer
// image/group fan-out vs inner tile fan-out), but the fixed per-tile
// accumulation order means each image's result must be bitwise identical
// either way.
TEST(GemmDeterminism, BatchDecompositionInvariant) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 24;
  cfg.kernel_h = cfg.kernel_w = 3;
  cfg.pad = 1;
  const Conv2DLayer conv = make_conv(cfg, 31);

  const int batch = 3;
  Tensor x(Shape({batch, 16, 14, 14}));
  Rng rng(32);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Shape shapes[1] = {x.shape()};
  const Tensor* ins[1] = {&x};
  Tensor y_batch(conv.output_shape(shapes));
  conv.forward(ins, y_batch);

  const std::int64_t img_in = x.numel() / batch;
  const std::int64_t img_out = y_batch.numel() / batch;
  for (int n = 0; n < batch; ++n) {
    Tensor xi(Shape({1, 16, 14, 14}));
    std::memcpy(xi.data(), x.data() + n * img_in, static_cast<std::size_t>(img_in) * sizeof(float));
    const Shape si[1] = {xi.shape()};
    const Tensor* ii[1] = {&xi};
    Tensor yi(conv.output_shape(si));
    conv.forward(ii, yi);
    EXPECT_EQ(0, std::memcmp(yi.data(), y_batch.data() + n * img_out,
                             static_cast<std::size_t>(img_out) * sizeof(float)))
        << "image " << n;
  }
}

// ---------------------------------------------------------------------------
// Scratch arena + instrumentation

TEST(GemmScratchArena, GrowsOnceAndReportsBytes) {
  // Force an allocation large enough to be new.
  GemmScratch& s = GemmScratch::local();
  (void)s.col(1 << 12);
  const std::int64_t after_first = gemm_scratch_bytes();
  EXPECT_GE(after_first, static_cast<std::int64_t>((1 << 12) * sizeof(float)));
  EXPECT_GT(s.bytes(), 0u);

  // Same-size reuse must not grow the arena.
  (void)s.col(1 << 12);
  EXPECT_EQ(gemm_scratch_bytes(), after_first);
}

TEST(GemmMetrics, CountersAndScratchGauge) {
  metrics().reset();
  set_metrics_enabled(true);

  const std::vector<float> a = random_vec(40 * 600, 8);
  const std::vector<float> b = random_vec(600 * 50, 9);
  std::vector<float> c(40 * 50, 0.0f);
  gemm(40, 50, 600, a.data(), 600, b.data(), 50, 0.0f, c.data(), 50);

  // Trip a fresh scratch growth while metrics are on so the gauge is set.
  (void)GemmScratch::local().col(static_cast<std::size_t>(gemm_scratch_bytes()) / sizeof(float) +
                                 4096);

  const MetricsSnapshot snap = metrics().snapshot();
  set_metrics_enabled(false);

  EXPECT_GE(snap.counter("gemm.calls"), 1);
  EXPECT_GE(snap.counter("gemm.flops"), 2LL * 40 * 50 * 600);
  const GemmBlocking bl = gemm_blocking();
  const std::int64_t want_tiles = ((40 + bl.mr - 1) / bl.mr) * ((50 + bl.nr - 1) / bl.nr) *
                                  ((600 + bl.kc - 1) / bl.kc);
  EXPECT_GE(snap.counter("gemm.tiles"), want_tiles);

  std::int64_t gauge = -1;
  for (const auto& g : snap.gauges)
    if (g.name == "tensor.scratch.bytes") gauge = g.value;
  EXPECT_GT(gauge, 0) << "tensor.scratch.bytes gauge not set";
  EXPECT_EQ(gauge, gemm_scratch_bytes());
}

}  // namespace
}  // namespace mupod
