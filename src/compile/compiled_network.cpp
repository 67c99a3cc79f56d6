#include "compile/compiled_network.hpp"

#include <cassert>
#include <utility>

#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_scope.hpp"

namespace mupod {
namespace {

// Runs a conv/FC step through its explicit-epilogue entry point — only
// dot-product layers are ever lowered or fused.
template <typename Epilogue>
void forward_dot(const Layer& layer, const Tensor& x, Tensor& out, const Epilogue& ep) {
  if (layer.kind() == LayerKind::kConv) {
    static_cast<const Conv2DLayer&>(layer).forward(x, out, ep);
  } else {
    assert(layer.kind() == LayerKind::kInnerProduct);
    static_cast<const InnerProductLayer&>(layer).forward(x, out, ep);
  }
}

}  // namespace

CompiledNetwork::CompiledNetwork(const Network& net, CompiledGraph graph,
                                 const CompileOptions& opts)
    : net_(&net), graph_(std::move(graph)) {
  assert(net.finalized());
  const int n_nodes = net.num_nodes();
  step_of_src_.assign(static_cast<std::size_t>(n_nodes), -1);

  for (int id = 0; id < n_nodes; ++id) {
    const IrNode& n = graph_.nodes[static_cast<std::size_t>(id)];
    if (n.absorbed_into >= 0) continue;

    CompiledStep st;
    st.src = id;
    st.layer = &net.layer(id);
    st.inputs.reserve(n.inputs.size());
    for (int in : n.inputs) {
      const int si = step_of_src_[static_cast<std::size_t>(in)];
      assert(si >= 0 && "compiled step consumes an absorbed node");
      st.inputs.push_back(si);
    }
    st.relu = n.relu_fused;

    if (n.lowered) {
      const Tensor* w = st.layer->weights();
      const Tensor* b = st.layer->bias();
      Tensor wf, bf;
      if (n.norm_src >= 0) {
        // Fold the norm affine into the operands BEFORE quantization:
        // w' = w * s[oc], b' = b * s[oc] + t[oc] (the fold_batchnorm
        // math); the same float products folded_wmax scanned, so the
        // derived w_fmt/type match the rewriter's decision.
        const auto& bn = static_cast<const BatchNormScaleLayer&>(net.layer(n.norm_src));
        const float* sc = bn.scale().data();
        const float* sh = bn.shift().data();
        const int oc_n = w->shape().dim(0);
        const std::int64_t per_oc = w->numel() / oc_n;
        wf = *w;
        float* wd = wf.data();
        for (int oc = 0; oc < oc_n; ++oc) {
          const float s = sc[oc];
          float* row = wd + static_cast<std::int64_t>(oc) * per_oc;
          for (std::int64_t j = 0; j < per_oc; ++j) row[j] = row[j] * s;
        }
        bf = Tensor(Shape({oc_n}));
        for (int oc = 0; oc < oc_n; ++oc)
          bf[oc] = (b != nullptr ? (*b)[oc] : 0.0f) * sc[oc] + sh[oc];
        w = &wf;
        b = &bf;
      }
      const bool ok = lower_layer_operands(id, n.act_fmt, opts.weight_bits, w, b, &st.lw);
      assert(ok);
      (void)ok;
      assert(st.lw.type == n.type && "rewrite/lowering storage-type mismatch");
      st.lowered = true;
      st.in_quantized = n.in_quantized;
      if (n.quant_store) {
        st.quant_store = true;
        const IrNode& cons = graph_.nodes[static_cast<std::size_t>(n.quant_consumer)];
        st.store_grid = qgrid_for(cons.act_fmt);
        const QGrid ag = qgrid_for(st.lw.act_fmt);
        const QGrid wg = qgrid_for(st.lw.w_fmt);
        // acc_scale / consumer act_step: all powers of two, so the q31
        // decomposition is exact and the requantize rounds exactly once.
        st.store_requant = make_requant(ag.step * wg.step / st.store_grid.step);
      }
    } else if (n.norm_src >= 0) {
      // Float execution keeps the folded norm as a store epilogue —
      // bitwise identical to the separate BatchNormScale pass.
      const auto& bn = static_cast<const BatchNormScaleLayer&>(net.layer(n.norm_src));
      const float* sc = bn.scale().data();
      const float* sh = bn.shift().data();
      const std::int64_t c_n = bn.scale().numel();
      st.norm_scale.assign(sc, sc + c_n);
      st.norm_shift.assign(sh, sh + c_n);
    }

    step_of_src_[static_cast<std::size_t>(id)] = static_cast<int>(steps_.size());
    steps_.push_back(std::move(st));
  }
  output_step_ = step_of_src_[static_cast<std::size_t>(graph_.resolve(net.output_node()))];
  assert(output_step_ >= 0);
}

int CompiledNetwork::step_of_src(int src) const {
  if (src < 0 || src >= static_cast<int>(step_of_src_.size())) return -1;
  return step_of_src_[static_cast<std::size_t>(src)];
}

std::int64_t CompiledNetwork::weight_saturated() const {
  std::int64_t total = 0;
  for (const CompiledStep& st : steps_)
    if (st.lowered) total += st.lw.weight_saturated;
  return total;
}

Tensor CompiledNetwork::forward(const Tensor& input) const { return run(input, nullptr); }

Tensor CompiledNetwork::forward_captured(const Tensor& input,
                                         std::vector<Tensor>* step_outputs) const {
  return run(input, step_outputs);
}

Tensor CompiledNetwork::run(const Tensor& input, std::vector<Tensor>* cap) const {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  // Same cost currency as Network::forward: compiled batches are forward
  // passes charged to the caller's stage.
  note_forwards(input.shape().n());
  if (metrics_enabled()) {
    static Counter& calls = metrics().counter("compile.forward.calls");
    calls.add(1);
  }

  const int n_steps = static_cast<int>(steps_.size());
  std::vector<Tensor> local(static_cast<std::size_t>(n_steps));
  std::vector<const Tensor*> outs(static_cast<std::size_t>(n_steps), nullptr);
  if (cap != nullptr) {
    cap->clear();
    cap->resize(static_cast<std::size_t>(n_steps));
  }

  std::atomic<std::int64_t> sat{0};

  for (int i = 0; i < n_steps; ++i) {
    const CompiledStep& st = steps_[i];
    if (st.layer->kind() == LayerKind::kInput) {
      outs[static_cast<std::size_t>(i)] = &input;
      if (cap != nullptr) (*cap)[static_cast<std::size_t>(i)] = input;
      continue;
    }

    std::vector<const Tensor*> ins;
    ins.reserve(st.inputs.size());
    for (int in : st.inputs) {
      const Tensor* t = outs[static_cast<std::size_t>(in)];
      assert(t != nullptr && "compiled step consumed before produced");
      ins.push_back(t);
    }
    std::vector<Shape> in_shapes;
    in_shapes.reserve(ins.size());
    for (const Tensor* t : ins) in_shapes.push_back(t->shape());
    Tensor& out = local[static_cast<std::size_t>(i)];
    const Shape os = st.layer->output_shape(in_shapes);
    if (out.shape() != os) out = Tensor(os);

    if (st.lowered) {
      const QGrid ag = qgrid_for(st.lw.act_fmt);
      const QGrid wg = qgrid_for(st.lw.w_fmt);
      QLayerBinding b;
      b.type = st.lw.type;
      b.weights = st.lw.weights_ptr();
      b.bias = st.lw.bias.empty() ? nullptr : st.lw.bias.data();
      b.act_step = ag.step;
      b.act_lo = ag.lo;
      b.act_hi = ag.hi;
      b.acc_scale = ag.step * wg.step;
      b.act_saturated = &sat;
      b.in_quantized = st.in_quantized;
      b.quant_store = st.quant_store;
      b.store_requant = st.store_requant;
      b.store_lo = st.store_grid.lo;
      b.store_hi = st.store_grid.hi;
      b.relu = st.relu;
      forward_dot(*st.layer, *ins[0], out, b);
    } else if (st.relu || !st.norm_scale.empty()) {
      FloatFusion fu;
      fu.relu = st.relu;
      if (!st.norm_scale.empty()) {
        fu.scale = st.norm_scale.data();
        fu.shift = st.norm_shift.data();
      }
      forward_dot(*st.layer, *ins[0], out, fu);
    } else {
      st.layer->forward(ins, out);
    }
    outs[static_cast<std::size_t>(i)] = &out;
    if (cap != nullptr) (*cap)[static_cast<std::size_t>(i)] = out;
  }

  const std::int64_t total_sat = sat.load(std::memory_order_relaxed);
  if (total_sat != 0) {
    act_saturated_.fetch_add(total_sat, std::memory_order_relaxed);
    if (metrics_enabled()) {
      static Counter& c = metrics().counter("compile.act.saturated");
      c.add(total_sat);
    }
  }
  return std::move(local[static_cast<std::size_t>(output_step_)]);
}

}  // namespace mupod
