#include "common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "io/json_writer.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

using namespace mupod;

FixedModel build_fixed_model(const std::string& name) {
  ZooOptions zo;
  zo.num_classes = 20;
  zo.seed = 1234;
  zo.data_seed = 42;
  zo.calibration_images = 16;
  FixedModel m;
  m.model = build_model(name, zo);
  DatasetConfig dc;
  dc.num_classes = zo.num_classes;
  dc.channels = m.model.channels;
  dc.height = m.model.height;
  dc.width = m.model.width;
  dc.seed = zo.data_seed;
  m.dataset = std::make_unique<SyntheticImageDataset>(dc);
  return m;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "WRONG OUTPUT: %s\n", what.c_str());
}

void Report::print() const {
  for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
  for (const Metric& m : metrics_)
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("ops %lld %lld\n", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  std::printf("correct %d\n", correct_ ? 1 : 0);
  std::fflush(stdout);
}

ObsOn::ObsOn() {
  set_metrics_enabled(true);
  set_tracing_enabled(true);
}

ObsOn::~ObsOn() {
  set_tracing_enabled(false);
  set_metrics_enabled(false);
}

ObsWindow::ObsWindow() : before_(metrics().snapshot()) {}

std::int64_t ObsWindow::counter(const std::string& name) const {
  return metrics().snapshot().counter(name) - before_.counter(name);
}

std::int64_t ObsWindow::pool_busy_us() const {
  auto busy = [](const MetricsSnapshot& s) {
    std::int64_t sum = 0;
    for (const auto& g : s.gauges)
      if (g.name.rfind("pool.worker", 0) == 0 && g.name.size() > 8 &&
          g.name.compare(g.name.size() - 8, 8, ".busy_us") == 0)
        sum += g.value;
    return sum;
  };
  return busy(metrics().snapshot()) - busy(before_);
}

SpanLog::SpanLog() : archive_(1 << 17) {}

void SpanLog::harvest() {
  Tracer& t = tracer();
  dropped_ += t.dropped();
  for (TraceEvent& e : t.events()) {
    if (e.ph == 'X') durations_[e.name].push_back(static_cast<double>(e.dur_us) / 1e3);
    archive_.record(std::move(e));
  }
  t.clear();
}

std::vector<double> SpanLog::durations_ms(const std::string& name) {
  harvest();
  const auto it = durations_.find(name);
  return it == durations_.end() ? std::vector<double>{} : it->second;
}

double SpanLog::total_ms(const std::string& name) {
  double sum = 0.0;
  for (const double d : durations_ms(name)) sum += d;
  return sum;
}

bool SpanLog::write(const std::string& path) const {
  return write_json_file(path, archive_.chrome_trace_json());
}

void report_obs_layers(Report& r, const ObsWindow& w, double wall_s) {
  const double wall = wall_s > 0.0 ? wall_s : 1.0;
  r.add("tensor.sgemm.gflops", static_cast<double>(w.counter("gemm.flops")) / wall / 1e9,
        "GFLOP/s");
  r.add("tensor.qgemm.gops", 2.0 * static_cast<double>(w.counter("qgemm.macs")) / wall / 1e9,
        "GOP/s");
  r.add("tensor.pool.util",
        static_cast<double>(w.pool_busy_us()) / (wall * 1e6 * kPoolWorkers), "fraction");
  const double maddubs = static_cast<double>(w.counter("kernel.qgemm.maddubs"));
  const double dispatches = maddubs + static_cast<double>(w.counter("kernel.qgemm.madd") +
                                                          w.counter("kernel.qgemm.gemv") +
                                                          w.counter("kernel.qgemm.scalar"));
  r.add("tensor.kernel.maddubs_frac", dispatches > 0 ? maddubs / dispatches : 0.0, "fraction");
  r.add("compile.act_saturated", static_cast<double>(w.counter("compile.act.saturated")),
        "count");
  r.add("serve.validate.violations",
        static_cast<double>(w.counter("serve.validate.violations")), "count");
  r.note("tensor.sgemm.gflops = gemm.flops / window; tensor.qgemm.gops = 2 x qgemm.macs / "
         "window; tensor.pool.util = sum pool.worker*.busy_us / (window x workers); all "
         "computed from obs counters");
}

void report_compile_counts(Report& r, const ObsWindow& w) {
  const double calls = static_cast<double>(w.counter("compile.calls"));
  const auto per_compile = [&](const char* counter) {
    return calls > 0 ? static_cast<double>(w.counter(counter)) / calls : 0.0;
  };
  r.add("compile.relu_fused", per_compile("compile.relu_fused"), "count");
  r.add("compile.qdq_elided", per_compile("compile.qdq_elided"), "count");
  r.add("compile.norm_folded", per_compile("compile.norm_folded"), "count");
  r.note("compile.relu_fused/qdq_elided/norm_folded are rewrite counts per compile, averaged "
         "over the compiles of the traced window");
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

}  // namespace

void print_fingerprint(const Args& args) {
  JsonWriter j;
  j.begin_object();
  j.kv("cpu", cpu_model());
  j.kv("kernel_isa", kernel_isa_name(kernel_isa()));
  j.kv("detected_isa", kernel_isa_name(detected_kernel_isa()));
  j.kv("pool_workers", parallel_worker_count());
  j.kv("workload", args.workload);
  j.kv("seed", static_cast<std::int64_t>(args.seed));
  j.kv("seconds", args.seconds);
  j.kv("trace", args.trace);
  j.end_object();
  std::printf("fingerprint %s\n", j.str().c_str());
}

}  // namespace perfbench
