// CompiledNetwork: the executable artifact emitted by GraphCompiler.
//
// A program is a topologically ordered list of steps, one per surviving
// source node. Each step borrows its Layer from the source network and
// carries the fusion state the rewriter attached. Unfused steps run the
// layer's virtual forward(); conv/FC steps with fusion or lowering run
// the layer's explicit-epilogue entry point (nn/layers.hpp):
//
//   * float steps with a fused epilogue pass a FloatFusion (folded norm
//     affine and/or ReLU) — the layer applies it inside its store loops,
//     bitwise identical to the separate layers;
//   * integer-lowered steps own their quantized operands (norm-folded
//     where fold-norm fired) and pass a QLayerBinding: fused ReLU,
//     carrier input (in_quantized skips quantize-on-load), and
//     cross-layer requantized store (quant_store writes integers on the
//     consumer's grid). Interior tensors of a fused region hold carrier
//     integers bit-cast inside the ordinary float Tensor buffers; their
//     logical (float) shapes are preserved so downstream output_shape
//     computations are unchanged.
//
// Tensors between unfused lowered layers stay float (the float-carrier
// convention): each such boundary is a requantization point, so the
// unfused preset (unfused_integer_options) realizes precisely the
// per-layer formats the allocator chose, and layers the plan does not
// cover (pool, LRN, softmax, eltwise...) run their float forward.
//
// Determinism: quantize-on-load chunks write disjoint ranges and the
// saturation total is an order-free sum, and qgemm is bit-deterministic
// by contract — so forward() is bitwise independent of the worker count,
// and integer steps are byte-identical across ISAs.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "compile/graph_compiler.hpp"
#include "nn/network.hpp"
#include "quant/lowering.hpp"
#include "tensor/qgemm.hpp"

namespace mupod {

// One executing step of the compiled program.
struct CompiledStep {
  int src = -1;               // source node id
  const Layer* layer = nullptr;  // borrowed from the source network
  std::vector<int> inputs;    // indices into the step list

  // Float-path fusion.
  bool relu = false;
  std::vector<float> norm_scale;  // folded norm affine (empty if none)
  std::vector<float> norm_shift;

  // Integer lowering.
  bool lowered = false;
  QLayerLowering lw;          // owned operands (norm-folded weights)
  bool in_quantized = false;
  bool quant_store = false;
  QGrid store_grid;           // the consumer's activation grid
  QRequant store_requant;     // acc_scale / consumer act_step, q31
};

class CompiledNetwork {
 public:
  CompiledNetwork() = default;
  CompiledNetwork(const Network& net, CompiledGraph graph, const CompileOptions& opts);
  // Movable (the atomic counters carry over by value); not thread-safe to
  // move while other threads are forwarding through the source.
  CompiledNetwork(CompiledNetwork&& o) noexcept
      : net_(o.net_),
        graph_(std::move(o.graph_)),
        steps_(std::move(o.steps_)),
        step_of_src_(std::move(o.step_of_src_)),
        output_step_(o.output_step_),
        act_saturated_(o.act_saturated_.load(std::memory_order_relaxed)),
        forwards_(o.forwards_.load(std::memory_order_relaxed)) {}
  CompiledNetwork& operator=(CompiledNetwork&& o) noexcept {
    net_ = o.net_;
    graph_ = std::move(o.graph_);
    steps_ = std::move(o.steps_);
    step_of_src_ = std::move(o.step_of_src_);
    output_step_ = o.output_step_;
    act_saturated_.store(o.act_saturated_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    forwards_.store(o.forwards_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  // Runs the compiled program; returns the output of the (resolved)
  // final node, always a plain float tensor.
  Tensor forward(const Tensor& input) const;

  // Same, additionally copying each step's RAW output tensor (fused
  // regions' interior tensors hold carrier integers bit-cast in the
  // float buffer) into `step_outputs[i]` for step i. The differential
  // battery reads these to check every region boundary against a
  // double-rounding reference.
  Tensor forward_captured(const Tensor& input, std::vector<Tensor>* step_outputs) const;

  const std::vector<CompiledStep>& steps() const { return steps_; }
  const CompiledGraph& graph() const { return graph_; }
  const FusionCoverage& coverage() const { return graph_.coverage; }
  const Network& source() const { return *net_; }
  int output_step() const { return output_step_; }
  // -1 when the src node was absorbed (its value lives in another step).
  int step_of_src(int src) const;

  // Clipped values (quantize-on-load + requantized stores) across all
  // forwards so far; weight clips from offline lowering.
  std::int64_t act_saturated() const { return act_saturated_.load(std::memory_order_relaxed); }
  std::int64_t weight_saturated() const;
  std::int64_t forwards() const { return forwards_.load(std::memory_order_relaxed); }

 private:
  Tensor run(const Tensor& input, std::vector<Tensor>* step_outputs) const;

  const Network* net_ = nullptr;
  CompiledGraph graph_;
  std::vector<CompiledStep> steps_;
  std::vector<int> step_of_src_;  // src id -> executing step index, or -1
  int output_step_ = -1;
  mutable std::atomic<std::int64_t> act_saturated_{0};
  mutable std::atomic<std::int64_t> forwards_{0};
};

}  // namespace mupod
