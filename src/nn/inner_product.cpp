#include <algorithm>
#include <cassert>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/qgemm.hpp"

namespace mupod {

InnerProductLayer::InnerProductLayer(int in_features, int out_features, bool has_bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(has_bias),
      weights_(Shape({out_features, in_features})),
      bias_(Shape({out_features})) {
  assert(in_features > 0 && out_features > 0);
}

Shape InnerProductLayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1);
  const Shape& s = in[0];
  assert(s.rank() >= 2);
  assert(s.numel() / s.dim(0) == in_features_);
  return Shape({s.dim(0), out_features_});
}

namespace {

// Integer inner product: quantize-on-load, one qgemm over the batch in
// the same orientation as the float path, dequantize-on-store in the
// epilogue. The N==1 transposed product puts the bias per output row;
// the batched product puts it per output column.
template <typename T>
void ip_forward_integer(const QLayerBinding& q, const Tensor& x, Tensor& out,
                        int in_f, int out_f) {
  const int N = x.shape().dim(0);
  // A fused-region input already holds `type` integers on this layer's
  // grid: no quantize-on-load pass.
  const T* xq = static_cast<const T*>(quantize_layer_input(q, x.data(), x.numel()));
  const T* wq = static_cast<const T*>(q.weights);
  QGemmEpilogue ep;
  ep.scale = q.acc_scale;
  ep.relu = q.relu;
  void* y = out.data();
  if (q.quant_store) {
    // Fused-region output: single cross-layer requantize in the store.
    ep.quant_store = true;
    ep.requant = q.store_requant;
    ep.lo = q.store_lo;
    ep.hi = q.store_hi;
    ep.saturated = q.act_saturated;
    y = reinterpret_cast<T*>(out.data());
  }
  if (N == 1) {
    ep.bias_row = q.bias;
    qgemm(q.type, out_f, 1, in_f, wq, in_f, xq, 1, y, 1, ep);
  } else {
    ep.bias_col = q.bias;
    qgemm(q.type, N, out_f, in_f, xq, in_f, wq, in_f, y, out_f, ep,
          /*trans_b=*/true);
  }
}

}  // namespace

void InnerProductLayer::forward(const Tensor& x, Tensor& out, const QLayerBinding& q) const {
  switch (q.type) {
    case QType::kInt8:
      ip_forward_integer<std::int8_t>(q, x, out, in_features_, out_features_);
      break;
    case QType::kInt16:
      ip_forward_integer<std::int16_t>(q, x, out, in_features_, out_features_);
      break;
    case QType::kInt32:
      ip_forward_integer<std::int32_t>(q, x, out, in_features_, out_features_);
      break;
  }
}

void InnerProductLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  forward(*in[0], out, FloatFusion{});
}

void InnerProductLayer::forward(const Tensor& x, Tensor& out, const FloatFusion& fu) const {
  const int N = x.shape().dim(0);
  const float* xdata = x.data();
  const float* wdata = weights_.data();
  const float* bdata = has_bias_ ? bias_.data() : nullptr;
  float* ydata = out.data();
  const int in_f = in_features_, out_f = out_features_;

  // Seed the output with the bias (beta = 1 accumulates onto it), then one
  // blocked GEMM covers the whole batch.
  float beta = 0.0f;
  if (bdata != nullptr) {
    for (int n = 0; n < N; ++n)
      std::copy(bdata, bdata + out_f, ydata + static_cast<std::int64_t>(n) * out_f);
    beta = 1.0f;
  }
  if (N == 1) {
    // Single image: compute the transposed product y = W·x so the m
    // dimension (out_f) carries the register tiles — y (1 x out_f) and
    // yᵀ (out_f x 1) share the same memory.
    gemm(out_f, 1, in_f, wdata, in_f, xdata, 1, beta, ydata, 1,
         /*trans_b=*/false, /*relu=*/fu.relu);
  } else {
    // Y[N x out_f] = X[N x in_f] · Wᵀ; packing absorbs the transpose of
    // the (out, in) weight matrix.
    gemm(N, out_f, in_f, xdata, in_f, wdata, in_f, beta, ydata, out_f,
         /*trans_b=*/true, /*relu=*/fu.relu);
  }
}

LayerCost InnerProductLayer::cost(std::span<const Shape> in) const {
  LayerCost c;
  c.input_elems = in[0].numel() / in[0].dim(0);
  c.macs = static_cast<std::int64_t>(in_features_) * out_features_;
  return c;
}

}  // namespace mupod
