// Equivalence of the production convolution (direct, pointwise GEMM and
// im2col+GEMM paths) against a straightforward reference implementation,
// swept over a parameter grid that straddles the GEMM-path cutoff and the
// blocked GEMM's packing edges.
#include <gtest/gtest.h>

#include <vector>

#include "nn/layers.hpp"
#include "stats/rng.hpp"

namespace mupod {
namespace {

struct ConvCase {
  int in_c, out_c, k, stride, pad, groups, h, w;
};

// O(everything) reference convolution.
Tensor reference_conv(const Conv2DLayer& conv, const Tensor& x) {
  const auto& cfg = conv.config();
  const Shape shapes[1] = {x.shape()};
  Tensor y(conv.output_shape(shapes));
  const int N = x.shape().n(), H = x.shape().h(), W = x.shape().w();
  const int OC = y.shape().c(), OH = y.shape().h(), OW = y.shape().w();
  const int icg = cfg.in_channels / cfg.groups;
  const int ocg = OC / cfg.groups;
  const Tensor& wt = *conv.weights();
  const Tensor* bias = conv.bias();

  for (int n = 0; n < N; ++n)
    for (int oc = 0; oc < OC; ++oc) {
      const int g = oc / ocg;
      for (int oh = 0; oh < OH; ++oh)
        for (int ow = 0; ow < OW; ++ow) {
          double acc = bias != nullptr ? (*bias)[oc] : 0.0f;
          for (int ic = 0; ic < icg; ++ic)
            for (int kh = 0; kh < cfg.kernel_h; ++kh)
              for (int kw = 0; kw < cfg.kernel_w; ++kw) {
                const int ih = oh * cfg.stride - cfg.pad + kh;
                const int iw = ow * cfg.stride - cfg.pad + kw;
                if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
                const std::int64_t widx =
                    ((static_cast<std::int64_t>(oc) * icg + ic) * cfg.kernel_h + kh) *
                        cfg.kernel_w + kw;
                acc += static_cast<double>(x.at(n, g * icg + ic, ih, iw)) * wt[widx];
              }
          y.at(n, oc, oh, ow) = static_cast<float>(acc);
        }
    }
  return y;
}

class ConvEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvEquivalence, MatchesReference) {
  const ConvCase& c = GetParam();
  Conv2DLayer::Config cfg;
  cfg.in_channels = c.in_c;
  cfg.out_channels = c.out_c;
  cfg.kernel_h = cfg.kernel_w = c.k;
  cfg.stride = c.stride;
  cfg.pad = c.pad;
  cfg.groups = c.groups;
  Conv2DLayer conv(cfg);

  Rng rng(c.in_c * 1000 + c.out_c * 100 + c.k * 10 + c.stride);
  for (std::int64_t i = 0; i < conv.mutable_weights()->numel(); ++i)
    (*conv.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  for (std::int64_t i = 0; i < conv.mutable_bias()->numel(); ++i)
    (*conv.mutable_bias())[i] = static_cast<float>(rng.gaussian(0.0, 0.1));

  Tensor x(Shape({2, c.in_c, c.h, c.w}));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Shape shapes[1] = {x.shape()};
  Tensor fast(conv.output_shape(shapes));
  const Tensor* ins[1] = {&x};
  conv.forward(ins, fast);
  const Tensor ref = reference_conv(conv, x);

  ASSERT_EQ(fast.shape(), ref.shape());
  // Float accumulation vs the double reference stays below 5e-5 on every
  // case and ISA (k_dim up to 400).
  EXPECT_LT(max_abs_diff(fast, ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvEquivalence,
    ::testing::Values(
        // GEMM path (large k_dim, many output channels).
        ConvCase{8, 16, 3, 1, 1, 1, 12, 12},    //
        ConvCase{6, 12, 5, 1, 2, 1, 16, 16},    //
        ConvCase{8, 16, 3, 2, 1, 1, 15, 15},    // stride with odd extent
        ConvCase{12, 8, 3, 1, 0, 2, 10, 10},    // grouped GEMM
        ConvCase{4, 16, 7, 2, 3, 1, 28, 28},    // AlexNet-ish stem
        // Direct path (depthwise / tiny spatial / 1x1).
        ConvCase{8, 8, 3, 1, 1, 8, 12, 12},     // depthwise
        ConvCase{16, 8, 1, 1, 0, 1, 6, 6},      // 1x1
        ConvCase{8, 2, 3, 1, 1, 2, 8, 8},       // few output channels
        ConvCase{4, 4, 3, 1, 1, 1, 3, 3},       // tiny spatial, kernel == extent
        ConvCase{3, 5, 5, 3, 2, 1, 11, 13},     // non-square, odd stride
        // Edge geometry.
        ConvCase{2, 8, 3, 1, 2, 1, 4, 4},       // pad > kernel/2
        ConvCase{2, 8, 4, 4, 0, 1, 8, 8},       // stride == kernel
        // Blocked-GEMM geometry: packing edges and the per-path dispatch.
        ConvCase{16, 32, 5, 2, 2, 1, 17, 17},   // strided 5x5, odd extent
        ConvCase{16, 16, 1, 1, 0, 1, 9, 9},     // pointwise (no im2col)
        ConvCase{12, 24, 3, 1, 1, 4, 10, 10},   // grouped
        ConvCase{16, 16, 3, 1, 1, 16, 8, 8},    // depthwise (direct)
        ConvCase{6, 10, 3, 2, 0, 2, 15, 11},    // grouped + strided, non-square
        ConvCase{32, 48, 3, 1, 1, 1, 16, 16}),  // k_dim 288 straddles KC
    [](const auto& info) {
      const auto& c = info.param;
      return "ic" + std::to_string(c.in_c) + "oc" + std::to_string(c.out_c) + "k" +
             std::to_string(c.k) + "s" + std::to_string(c.stride) + "p" + std::to_string(c.pad) +
             "g" + std::to_string(c.groups) + "h" + std::to_string(c.h) + "w" +
             std::to_string(c.w);
    });

}  // namespace
}  // namespace mupod
