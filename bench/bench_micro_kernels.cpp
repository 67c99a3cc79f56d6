// Microbenchmarks (google-benchmark) of the kernels behind the experiment
// harness: convolution, inner product, quantization, injection, and the
// partial-forward machinery that makes profiling affordable. These support
// the timing claims in bench_timing_resnet152.
//
// Two modes share this binary:
//   * default: the google-benchmark suite below (pass-through CLI);
//   * --json FILE [--reps N]: a roofline sweep of the tensor/kernels/
//     micro-kernels — per kernel x available ISA, min-of-N GFLOPS / GOPS /
//     Gelem/s achieved vs a theoretical single-port-model peak for that
//     ISA, emitted as BENCH_micro_kernels.json by scripts/run_benchmarks.sh.
//   * --print-isa: print the dispatched kernel ISA name and exit (the
//     bench runner stamps it into BENCH_manifest.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "io/json_writer.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "quant/fixed_point.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "tensor/qgemm.hpp"
#include "zoo/zoo.hpp"

namespace {

using namespace mupod;

Tensor random_tensor(const Shape& s, std::uint64_t seed) {
  Tensor t(s);
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.gaussian());
  return t;
}

Shape out_of(const Layer& layer, const Shape& in) {
  const Shape shapes[1] = {in};
  return layer.output_shape(shapes);
}

void BM_Conv3x3(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  Conv2DLayer::Config cfg;
  cfg.in_channels = channels;
  cfg.out_channels = channels;
  cfg.kernel_h = cfg.kernel_w = 3;
  cfg.pad = 1;
  Conv2DLayer conv(cfg);
  Rng rng(1);
  for (std::int64_t i = 0; i < conv.mutable_weights()->numel(); ++i)
    (*conv.mutable_weights())[i] = static_cast<float>(rng.gaussian());

  const Tensor x = random_tensor(Shape({4, channels, 16, 16}), 2);
  Tensor y(out_of(conv, x.shape()));
  const Tensor* ins[1] = {&x};
  for (auto _ : state) {
    conv.forward(ins, y);
    benchmark::DoNotOptimize(y.data());
  }
  const Shape shapes[1] = {x.shape()};
  state.SetItemsProcessed(state.iterations() * conv.cost(shapes).macs * 4);
}
BENCHMARK(BM_Conv3x3)->Arg(16)->Arg(64);

void BM_DepthwiseConv(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  Conv2DLayer::Config cfg;
  cfg.in_channels = channels;
  cfg.out_channels = channels;
  cfg.kernel_h = cfg.kernel_w = 3;
  cfg.pad = 1;
  cfg.groups = channels;
  Conv2DLayer conv(cfg);
  const Tensor x = random_tensor(Shape({4, channels, 16, 16}), 3);
  Tensor y(out_of(conv, x.shape()));
  const Tensor* ins[1] = {&x};
  for (auto _ : state) {
    conv.forward(ins, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_DepthwiseConv)->Arg(64);

// Contested shapes for the Conv2D use_gemm gate (src/nn/conv.cpp): shapes
// near the measured direct/GEMM crossover, timed on the path the gate
// picks. Re-run these (plus the K x icg x ocg x HW sweep described in
// docs/method.md §11) before changing the gate constants.
//   args: ocg, K, HW
void BM_ConvCrossover(benchmark::State& state) {
  const int ocg = static_cast<int>(state.range(0));
  const int K = static_cast<int>(state.range(1));
  const int HW = static_cast<int>(state.range(2));
  const int groups = 4;  // grouped, so ocg stays small while the layer is real
  Conv2DLayer::Config cfg;
  cfg.in_channels = 8 * groups;
  cfg.out_channels = ocg * groups;
  cfg.kernel_h = cfg.kernel_w = K;
  cfg.pad = K / 2;
  cfg.groups = groups;
  Conv2DLayer conv(cfg);
  Rng rng(9);
  for (std::int64_t i = 0; i < conv.mutable_weights()->numel(); ++i)
    (*conv.mutable_weights())[i] = static_cast<float>(rng.gaussian());

  const Tensor x = random_tensor(Shape({1, cfg.in_channels, HW, HW}), 10);
  Tensor y(out_of(conv, x.shape()));
  const Tensor* ins[1] = {&x};
  for (auto _ : state) {
    conv.forward(ins, y);
    benchmark::DoNotOptimize(y.data());
  }
  const Shape shapes[1] = {x.shape()};
  state.SetItemsProcessed(state.iterations() * conv.cost(shapes).macs);
}
BENCHMARK(BM_ConvCrossover)
    // Pointwise, few output channels: GEMM wins from ocg >= 2.
    ->Args({2, 1, 16})
    // 3x3 at the ocg == 3 boundary: GEMM wins everywhere measured.
    ->Args({3, 3, 16})
    // 5x5 at ocg == 3: break-even at 8x8 (gate keeps direct), GEMM past 16x16.
    ->Args({3, 5, 8})
    ->Args({3, 5, 16})
    // Comfortably past the crossover: the common zoo shape.
    ->Args({16, 3, 16});

void BM_InnerProduct(benchmark::State& state) {
  InnerProductLayer fc(1024, 256);
  Rng rng(4);
  for (std::int64_t i = 0; i < fc.mutable_weights()->numel(); ++i)
    (*fc.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  const Tensor x = random_tensor(Shape({16, 1024}), 5);
  Tensor y(out_of(fc, x.shape()));
  const Tensor* ins[1] = {&x};
  for (auto _ : state) {
    fc.forward(ins, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 16LL * 1024 * 256);
}
BENCHMARK(BM_InnerProduct);

void BM_QuantizeTensor(benchmark::State& state) {
  Tensor t = random_tensor(Shape({1 << 16}), 6);
  const FixedPointFormat fmt{.integer_bits = 4, .fraction_bits = 6};
  for (auto _ : state) {
    Tensor copy = t;
    quantize_tensor(copy, fmt);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_QuantizeTensor);

void BM_UniformInjection(benchmark::State& state) {
  Tensor t = random_tensor(Shape({1 << 16}), 7);
  const InjectionSpec spec = InjectionSpec::uniform(0.01);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Tensor copy = t;
    apply_injection(copy, spec, ++seed, 3);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_UniformInjection);

// Full forward vs partial forward-from on a deep network: the speedup that
// makes 156-layer profiling tractable.
void BM_FullForward_ResNet50(benchmark::State& state) {
  static ZooModel model = [] {
    ZooOptions opts;
    opts.calibration_images = 4;
    return build_resnet50(opts);
  }();
  const Tensor x = random_tensor(Shape({4, 3, 32, 32}), 8);
  for (auto _ : state) {
    Tensor y = model.net.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FullForward_ResNet50);

void BM_PartialForward_ResNet50_LastQuarter(benchmark::State& state) {
  static ZooModel model = [] {
    ZooOptions opts;
    opts.calibration_images = 4;
    return build_resnet50(opts);
  }();
  const Tensor x = random_tensor(Shape({4, 3, 32, 32}), 8);
  const std::vector<Tensor> cache = model.net.forward_all(x);
  const int from = model.net.num_nodes() * 3 / 4;
  for (auto _ : state) {
    Tensor y = model.net.forward_from(from, cache);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_PartialForward_ResNet50_LastQuarter);

// ---------------------------------------------------------------------------
// Roofline mode (--json): the SIMD micro-kernels of src/tensor/kernels/
// measured through their public entry points (gemm / qgemm / quantize_to)
// at every available ISA, against a theoretical per-cycle peak.
//
// The peak model is the standard 2-SIMD-port ceiling for the instruction
// each kernel leans on (Haswell/Zen class; a MAC counts as 2 ops):
//
//                      scalar(SSE2 autovec)   avx2            avx2fma
//   sgemm              8  flop/cyc            16 (mul+add)    32 (2x fma)
//   qgemm8 / qgemv8    8  op/cyc              64 (vpmaddwd 16 MAC x 2/cyc)
//   qgemm16            8                      64 (madd; s64 widening eats in)
//   quantize8/16       1  elem/cyc            8  (one 8-float vector/cyc)
//
// Cycles are converted to seconds with a measured clock estimate (a
// dependent xorshift64 chain, 6 cycles/iteration), so "pct_peak" is an
// estimate good to the quality of that clock reading — the point of the
// columns is the ORDER OF MAGNITUDE gap per ISA, not a calibrated number.
// Peaks scale with the worker count the sweep runs under.

struct RoofSpec {
  const char* kernel;
  const char* unit;  // what "achieved"/"peak" count
  double scalar_opc, avx2_opc, fma_opc;
};

double ops_per_cycle(const RoofSpec& spec, KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return spec.scalar_opc;
    case KernelIsa::kAvx2: return spec.avx2_opc;
    case KernelIsa::kAvx2Fma: return spec.fma_opc;
  }
  return spec.scalar_opc;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Clock estimate from a serially-dependent xorshift64 chain: each
// iteration is three shift+xor pairs, 6 latency-bound cycles on every
// x86-64 core of the last decade. Min over a few runs rejects preemption.
double estimate_ghz() {
  double best_ghz = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const std::int64_t iters = 50'000'000;
    const double t0 = now_ms();
    for (std::int64_t i = 0; i < iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    asm volatile("" : "+r"(x));  // keep the chain
    const double ms = now_ms() - t0;
    if (ms > 0.0) best_ghz = std::max(best_ghz, 6.0 * static_cast<double>(iters) / (ms * 1e6));
  }
  return best_ghz;
}

struct RoofRow {
  std::string kernel;
  std::string isa;
  std::string unit;
  std::int64_t m = 0, n = 0, k = 0;
  double ms_min = 0.0;
  double achieved = 0.0;  // G<unit>/s
  double peak = 0.0;
  double pct_peak = 0.0;
};

template <typename Fn>
double min_of_ms(Fn&& fn, int iters, int reps) {
  fn();  // warm-up (first call populates scratch arenas)
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, (now_ms() - t0) / iters);
  }
  return best;
}

std::vector<float> roof_floats(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

// Signed integers in [lo, hi].
template <typename T>
std::vector<T> roof_ints(std::size_t n, int lo, int hi, std::uint64_t seed) {
  std::vector<T> v(n);
  Rng rng(seed);
  for (auto& x : v)
    x = static_cast<T>(lo + static_cast<int>(rng.uniform() * (hi - lo + 1)));
  return v;
}

int run_roofline(const std::string& json_out, int reps) {
  const double ghz = estimate_ghz();
  const int workers = parallel_worker_count();

  const RoofSpec kSgemm = {"sgemm", "flops", 8, 16, 32};
  const RoofSpec kQ8Madd = {"qgemm8_madd", "ops", 8, 64, 64};
  const RoofSpec kQ16 = {"qgemm16", "ops", 8, 64, 64};
  const RoofSpec kQgemv8 = {"qgemv8", "ops", 8, 64, 64};
  const RoofSpec kQuant8 = {"quantize8", "elems", 1, 8, 8};
  const RoofSpec kQuant16 = {"quantize16", "elems", 1, 8, 8};

  // GEMM shapes: multiples of the widest micro-tile so the full-tile
  // kernel (not the edge path) dominates; k past a few KC strips.
  const std::int64_t M = 240, N = 256, K = 256;    // sgemm (6x16 tiles)
  const std::int64_t QM = 256, QN = 256, QK = 512; // qgemm (4x16 tiles)
  const std::int64_t GM = 4096, GK = 1024;         // gemv
  const std::int64_t QE = 1 << 16;                 // quantize elements

  const std::vector<float> a_f = roof_floats(static_cast<std::size_t>(M * K), 31);
  const std::vector<float> b_f = roof_floats(static_cast<std::size_t>(K * N), 32);
  std::vector<float> c_f(static_cast<std::size_t>(M * N));

  const auto a8 = roof_ints<std::int8_t>(static_cast<std::size_t>(QM * QK), -128, 127, 33);
  const auto b8 = roof_ints<std::int8_t>(static_cast<std::size_t>(QK * QN), -128, 127, 34);
  const auto a16 = roof_ints<std::int16_t>(static_cast<std::size_t>(QM * QK), -32767, 32767, 36);
  const auto b16 = roof_ints<std::int16_t>(static_cast<std::size_t>(QK * QN), -32767, 32767, 37);
  const auto g8 = roof_ints<std::int8_t>(static_cast<std::size_t>(GM * GK), -128, 127, 38);
  const auto x8 = roof_ints<std::int8_t>(static_cast<std::size_t>(GK), -128, 127, 39);
  std::vector<float> qc(static_cast<std::size_t>(QM * QN));
  std::vector<float> gc(static_cast<std::size_t>(GM));
  const std::vector<float> quant_in = roof_floats(static_cast<std::size_t>(QE), 40);
  std::vector<std::int8_t> quant_out8(static_cast<std::size_t>(QE));
  std::vector<std::int16_t> quant_out16(static_cast<std::size_t>(QE));
  QGemmEpilogue dequant;  // float store, scale 1.0

  std::vector<RoofRow> rows;
  auto push = [&](const RoofSpec& spec, KernelIsa isa, std::int64_t m, std::int64_t n,
                  std::int64_t k, double total_ops, double ms) {
    RoofRow r;
    r.kernel = spec.kernel;
    r.isa = kernel_isa_name(isa);
    r.unit = spec.unit;
    r.m = m;
    r.n = n;
    r.k = k;
    r.ms_min = ms;
    r.achieved = total_ops / (ms * 1e6);  // G<unit>/s
    r.peak = ops_per_cycle(spec, isa) * ghz * workers;
    r.pct_peak = r.peak > 0.0 ? 100.0 * r.achieved / r.peak : 0.0;
    rows.push_back(r);
  };

  const KernelIsa saved = kernel_isa();
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx2Fma}) {
    if (!kernel_isa_available(isa)) continue;
    set_kernel_isa(isa);

    push(kSgemm, isa, M, N, K, 2.0 * M * N * K,
         min_of_ms([&] { gemm(M, N, K, a_f.data(), K, b_f.data(), N, 0.0f, c_f.data(), N); },
                   2, reps));
    push(kQ8Madd, isa, QM, QN, QK, 2.0 * QM * QN * QK,
         min_of_ms([&] {
           qgemm(QType::kInt8, QM, QN, QK, a8.data(), QK, b8.data(), QN, qc.data(), QN, dequant);
         }, 1, reps));
    push(kQ16, isa, QM, QN, QK, 2.0 * QM * QN * QK,
         min_of_ms([&] {
           qgemm(QType::kInt16, QM, QN, QK, a16.data(), QK, b16.data(), QN, qc.data(), QN,
                 dequant);
         }, 1, reps));
    push(kQgemv8, isa, GM, 1, GK, 2.0 * GM * GK,
         min_of_ms([&] {
           qgemm(QType::kInt8, GM, 1, GK, g8.data(), GK, x8.data(), 1, gc.data(), 1, dequant);
         }, 8, reps));
    push(kQuant8, isa, QE, 0, 0, static_cast<double>(QE),
         min_of_ms([&] {
           quantize_to(QType::kInt8, quant_in.data(), QE, 1.0 / 64, -128, 127,
                       quant_out8.data());
         }, 16, reps));
    push(kQuant16, isa, QE, 0, 0, static_cast<double>(QE),
         min_of_ms([&] {
           quantize_to(QType::kInt16, quant_in.data(), QE, 1.0 / 1024, -32768, 32767,
                       quant_out16.data());
         }, 16, reps));
  }
  set_kernel_isa(saved);

  std::printf("micro-kernel roofline: dispatched ISA %s, est clock %.2f GHz, workers %d, "
              "min of %d rep(s)\n\n",
              kernel_isa_name(kernel_isa()), ghz, workers, reps);
  std::printf("%-16s %-8s %5s %5s %5s  %10s %12s %12s %8s\n", "kernel", "isa", "m", "n", "k",
              "min ms", "achieved", "peak", "% peak");
  for (const RoofRow& r : rows)
    std::printf("%-16s %-8s %5lld %5lld %5lld  %10.3f %9.2f G%s %9.2f G%s %7.1f%%\n",
                r.kernel.c_str(), r.isa.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.n), static_cast<long long>(r.k), r.ms_min, r.achieved,
                r.unit.c_str(), r.peak, r.unit.c_str(), r.pct_peak);

  if (!json_out.empty()) {
    JsonWriter j;
    j.begin_object();
    j.kv("bench", "micro_kernels");
    j.kv("workers", workers);
    j.kv("reps", reps);
    j.kv("kernel_isa", kernel_isa_name(kernel_isa()));
    j.kv("est_ghz", ghz);
    j.key("rows").begin_array();
    for (const RoofRow& r : rows) {
      j.begin_object();
      j.kv("kernel", r.kernel);
      j.kv("isa", r.isa);
      j.kv("unit", r.unit);
      j.kv("m", r.m);
      j.kv("n", r.n);
      j.kv("k", r.k);
      j.kv("ms_min", r.ms_min);
      j.kv("achieved_gops", r.achieved);
      j.kv("peak_gops", r.peak);
      j.kv("pct_peak", r.pct_peak);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    errno = 0;
    if (!write_json_file(json_out, j.str())) {
      std::fprintf(stderr, "error: cannot write '%s': %s\n", json_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("\nwrote %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Roofline / manifest flags take the binary over entirely; anything
  // else falls through to google-benchmark's own CLI.
  std::string json_out;
  int reps = 5;
  bool roofline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
      roofline = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
      roofline = true;
    } else if (arg == "--print-isa") {
      std::printf("%s\n", mupod::kernel_isa_name(mupod::kernel_isa()));
      return 0;
    }
  }
  if (roofline) return run_roofline(json_out, reps);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
