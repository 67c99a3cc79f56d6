#include "compile/graph_compiler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "compile/compiled_network.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"

namespace mupod {
namespace {

constexpr RewriteRule kDefaultOrder[] = {RewriteRule::kDropNoop, RewriteRule::kFoldNorm,
                                         RewriteRule::kFuseReLU};

bool is_dot_product(LayerKind k) {
  return k == LayerKind::kConv || k == LayerKind::kInnerProduct;
}

// src ids of executing nodes that read `u` (inputs are kept resolved, so
// a plain scan is exact).
int count_live_consumers(const std::vector<IrNode>& ir, int u, int* only) {
  int count = 0;
  for (const IrNode& n : ir) {
    if (n.absorbed_into >= 0) continue;
    for (int in : n.inputs) {
      if (in == u) {
        ++count;
        *only = n.src;
        break;  // one consumer counts once even if it reads u twice
      }
    }
  }
  return count;
}

// Re-resolves every executing node's inputs after an absorption.
void rewire(std::vector<IrNode>& ir, const CompiledGraph& g) {
  for (IrNode& n : ir) {
    if (n.absorbed_into >= 0) continue;
    for (int& in : n.inputs) in = g.resolve(in);
  }
}

struct Rewriter {
  const Network& net;
  const CompileOptions& opts;
  CompiledGraph g;

  bool apply_drop_noop() {
    if (!opts.drop_noops) return false;
    bool changed = false;
    for (IrNode& v : g.nodes) {
      if (v.absorbed_into >= 0) continue;
      if (v.kind != LayerKind::kDropout && v.kind != LayerKind::kFlatten) continue;
      if (v.kind == LayerKind::kFlatten) {
        // A flatten changes the logical shape, so it is only transparent
        // when every consumer is an inner product (which flattens by
        // construction) — and never as the output node, whose shape the
        // caller observes. NCHW flatten moves no elements, so the data
        // handoff is exact.
        if (v.src == net.output_node()) continue;
        bool ok = false;
        for (const IrNode& w : g.nodes) {
          if (w.absorbed_into >= 0) continue;
          for (int in : w.inputs) {
            if (in != v.src) continue;
            if (w.kind != LayerKind::kInnerProduct) {
              ok = false;
              goto decided;
            }
            ok = true;
          }
        }
      decided:
        if (!ok) continue;
      }
      v.absorbed_into = v.inputs[0];
      v.noop_dropped = true;
      rewire(g.nodes, g);
      changed = true;
    }
    return changed;
  }

  bool apply_fold_norm() {
    if (!opts.fold_norm) return false;
    bool changed = false;
    for (IrNode& v : g.nodes) {
      if (v.absorbed_into >= 0 || v.kind != LayerKind::kBatchNormScale) continue;
      IrNode& u = g.nodes[static_cast<std::size_t>(v.inputs[0])];
      // Conv only: BatchNormScale is rank-4, so it never follows an inner
      // product. One norm per conv, and never across a fused ReLU — the
      // store epilogue applies norm-then-relu, which would reorder
      // conv->ReLU->BN.
      if (u.kind != LayerKind::kConv || u.relu_fused || u.norm_src >= 0) continue;
      int only = -1;
      if (count_live_consumers(g.nodes, u.src, &only) != 1) continue;
      u.norm_src = v.src;
      v.absorbed_into = u.src;
      rewire(g.nodes, g);
      changed = true;
    }
    return changed;
  }

  bool apply_fuse_relu() {
    if (!opts.fuse_relu) return false;
    bool changed = false;
    for (IrNode& v : g.nodes) {
      if (v.absorbed_into >= 0 || v.kind != LayerKind::kReLU) continue;
      IrNode& u = g.nodes[static_cast<std::size_t>(v.inputs[0])];
      if (!is_dot_product(u.kind) || u.relu_fused) continue;
      int only = -1;
      if (count_live_consumers(g.nodes, u.src, &only) != 1) continue;
      u.relu_fused = true;
      v.absorbed_into = u.src;
      rewire(g.nodes, g);
      changed = true;
    }
    return changed;
  }

  bool apply(RewriteRule r) {
    switch (r) {
      case RewriteRule::kDropNoop: return apply_drop_noop();
      case RewriteRule::kFoldNorm: return apply_fold_norm();
      case RewriteRule::kFuseReLU: return apply_fuse_relu();
    }
    return false;
  }
};

// max |w| of the node's weights with the folded norm scale applied the
// same way the lowering will build the folded tensor (per-element float
// product, then |.| in double) — so the storage-type decision here and
// the w_fmt lower_layer_operands derives from the folded tensor agree
// exactly.
double folded_wmax(const Network& net, const IrNode& n) {
  const Tensor* w = net.layer(n.src).weights();
  const float* wd = w->data();
  double wmax = 0.0;
  if (n.norm_src >= 0) {
    const auto& bn = static_cast<const BatchNormScaleLayer&>(net.layer(n.norm_src));
    const float* sc = bn.scale().data();
    const int oc_n = w->shape().dim(0);
    const std::int64_t per_oc = w->numel() / oc_n;
    for (int oc = 0; oc < oc_n; ++oc) {
      const float s = sc[oc];
      const float* row = wd + static_cast<std::int64_t>(oc) * per_oc;
      for (std::int64_t j = 0; j < per_oc; ++j) {
        const float fw = row[j] * s;
        wmax = std::max(wmax, std::abs(static_cast<double>(fw)));
      }
    }
  } else {
    for (std::int64_t j = 0; j < w->numel(); ++j)
      wmax = std::max(wmax, std::abs(static_cast<double>(wd[j])));
  }
  return wmax;
}

void note_compile_metrics(const FusionCoverage& c) {
  if (!metrics_enabled()) return;
  static Counter& calls = metrics().counter("compile.calls");
  static Counter& relu = metrics().counter("compile.relu_fused");
  static Counter& norm = metrics().counter("compile.norm_folded");
  static Counter& noops = metrics().counter("compile.noops_dropped");
  static Counter& elided = metrics().counter("compile.qdq_elided");
  static Counter& regions = metrics().counter("compile.regions");
  calls.add(1);
  relu.add(c.relu_fused);
  norm.add(c.norm_folded);
  noops.add(c.noops_dropped);
  elided.add(c.qdq_elided);
  regions.add(c.regions);
}

}  // namespace

int CompiledGraph::resolve(int src) const {
  while (nodes[static_cast<std::size_t>(src)].absorbed_into >= 0)
    src = nodes[static_cast<std::size_t>(src)].absorbed_into;
  return src;
}

CompiledGraph GraphCompiler::rewrite(const Network& net) const {
  return rewrite(net, {}, {});
}

CompiledGraph GraphCompiler::rewrite(const Network& net, const std::vector<int>& analyzed,
                                     const std::vector<FixedPointFormat>& formats) const {
  return rewrite_with_order(net, analyzed, formats, kDefaultOrder);
}

CompiledGraph GraphCompiler::rewrite_with_order(const Network& net,
                                                const std::vector<int>& analyzed,
                                                const std::vector<FixedPointFormat>& formats,
                                                std::span<const RewriteRule> order) const {
  assert(net.finalized());
  assert(analyzed.size() == formats.size());

  Rewriter rw{net, opts_, {}};
  CompiledGraph& g = rw.g;
  g.nodes.resize(static_cast<std::size_t>(net.num_nodes()));
  for (int id = 0; id < net.num_nodes(); ++id) {
    IrNode& n = g.nodes[static_cast<std::size_t>(id)];
    n.src = id;
    n.kind = net.layer(id).kind();
    n.inputs = net.node(id).inputs;
  }

  // Mark plan coverage up front (act formats only; the weight format
  // depends on fold-norm and is derived after the structural fixpoint).
  for (std::size_t i = 0; i < analyzed.size(); ++i) {
    const int id = analyzed[i];
    const Tensor* w = net.layer(id).weights();
    if (w == nullptr || w->numel() == 0) continue;
    IrNode& n = g.nodes[static_cast<std::size_t>(id)];
    n.lowered = true;
    n.act_fmt = formats[i];
  }

  // Structural rules to a fixpoint. The rule set is confluent (each
  // firing removes one single-consumer node, marks its producer, and no
  // firing invalidates another), so the result is order-independent —
  // asserted by the metamorphic battery.
  bool changed = true;
  while (changed) {
    changed = false;
    for (RewriteRule r : order) changed = rw.apply(r) || changed;
  }

  // Canonicalize absorption chains. A firing records the producer as of
  // the moment it fired, and rewire() only touches live nodes — so an
  // absorbed node can be left pointing at an intermediate that was
  // itself absorbed later, a stale hop whose identity depends on rule
  // order even though resolve() does not. Collapsing every chain (and
  // every absorbed node's inputs) to the live endpoint makes the graph a
  // canonical function of the firing SET, which is what the rule-order
  // metamorphic tests compare.
  for (IrNode& n : g.nodes) {
    if (n.absorbed_into >= 0) n.absorbed_into = g.resolve(n.absorbed_into);
    for (int& in : n.inputs) in = g.resolve(in);
  }

  // Storage types, from the FOLDED weights.
  for (IrNode& n : g.nodes) {
    if (n.absorbed_into >= 0 || !n.lowered) continue;
    n.w_fmt.integer_bits = FixedPointFormat::integer_bits_for_range(folded_wmax(net, n));
    n.w_fmt.fraction_bits = opts_.weight_bits - n.w_fmt.integer_bits;
    n.type = qtype_for_bits(std::max(n.act_fmt.total_bits(), n.w_fmt.total_bits()));
  }

  // Region formation: a deterministic function of the rewritten graph
  // (not part of the permutable rule set). A lowered node whose ONLY
  // consumer is another lowered node of the same storage type stores its
  // output requantized straight onto that consumer's activation grid.
  if (opts_.elide_requant) {
    for (IrNode& u : g.nodes) {
      if (u.absorbed_into >= 0 || !u.lowered) continue;
      int only = -1;
      if (count_live_consumers(g.nodes, u.src, &only) != 1) continue;
      IrNode& v = g.nodes[static_cast<std::size_t>(only)];
      if (!v.lowered || v.type != u.type) continue;
      assert(v.inputs.size() == 1 && v.inputs[0] == u.src);
      u.quant_store = true;
      u.quant_consumer = v.src;
      v.in_quantized = true;
    }
  }

  // Coverage counters, derived from the final node flags.
  FusionCoverage& c = g.coverage;
  c.source_nodes = net.num_nodes();
  for (const IrNode& n : g.nodes) {
    if (n.absorbed_into >= 0) {
      if (n.noop_dropped) ++c.noops_dropped;
      continue;
    }
    ++c.steps;
    if (n.lowered) ++c.lowered;
    if (n.relu_fused) ++c.relu_fused;
    if (n.norm_src >= 0) ++c.norm_folded;
    if (n.quant_store) ++c.qdq_elided;
  }
  for (const IrNode& n : g.nodes) {
    if (n.absorbed_into >= 0 || !n.quant_store || n.in_quantized) continue;
    int len = 1, cur = n.src;
    while (g.nodes[static_cast<std::size_t>(cur)].quant_store) {
      cur = g.nodes[static_cast<std::size_t>(cur)].quant_consumer;
      ++len;
    }
    ++c.regions;
    c.largest_region = std::max(c.largest_region, len);
  }
  return g;
}

CompileOptions unfused_integer_options(int weight_bits) {
  CompileOptions o;
  o.weight_bits = weight_bits;
  o.fold_norm = false;
  o.elide_requant = false;
  return o;
}

CompiledNetwork GraphCompiler::compile(const Network& net) const {
  return compile(net, {}, {});
}

CompiledNetwork GraphCompiler::compile(const Network& net, const std::vector<int>& analyzed,
                                       const std::vector<FixedPointFormat>& formats) const {
  CompiledGraph g = rewrite(net, analyzed, formats);
  note_compile_metrics(g.coverage);
  return CompiledNetwork(net, std::move(g), opts_);
}

std::string render_fusion_coverage(const std::string& tag, const FusionCoverage& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s nodes=%d steps=%d lowered=%d relu_fused=%d norm_folded=%d noops_dropped=%d "
                "qdq_elided=%d regions=%d largest_region=%d",
                tag.c_str(), c.source_nodes, c.steps, c.lowered, c.relu_fused, c.norm_folded,
                c.noops_dropped, c.qdq_elided, c.regions, c.largest_region);
  return buf;
}

}  // namespace mupod
