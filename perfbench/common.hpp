// Shared plumbing of the benchmark binary: run arguments, the metric
// report printed for run.py, observation windows over the program's obs
// counters, and the span log that reads the obs tracer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {

// Pool width for every workload, so results do not depend on how many
// cores the host happens to expose.
inline constexpr int kPoolWorkers = 4;

// Repetitions of a timed task per run, at least: the median of three
// survives one repetition slowed by a burst of host CPU steal.
inline constexpr std::size_t kMinRepeats = 3;

// Traced repetitions of a traced run, each after an untraced one. Two keeps
// a traced run of the slowest workload near a minute even when host CPU
// steal doubles its time, well inside the run's time limit.
inline constexpr std::size_t kTracedRepeats = 2;

// Set-up is repeated this many times per run and reported as the median,
// so work moved into set-up shows against a steadier number. Two keeps the
// slowest workload's run near 40 s; a workload with a cheap set-up passes
// more to repeat_setup.
inline constexpr int kSetupRepeats = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// A zoo network with the weights every seed shares (model seed 1234, 20
// classes, head trained on data seed 42) and the synthetic dataset of that
// data seed, whose class prototypes the head is specific to.
struct FixedModel {
  mupod::ZooModel model;
  std::unique_ptr<mupod::SyntheticImageDataset> dataset;
};
FixedModel build_fixed_model(const std::string& name);

double now_s();     // steady clock, seconds
double peak_rss_mb();

// Everything a run reports. Printed on stdout as line records that run.py
// turns into the final JSON line:
//   metric <name> <value> <unit>
//   note <text>
//   ops <attempted> <failed>
//   correct <0|1>
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // Records a correctness check; a failed one makes the run wrong.
  void check(bool ok, const std::string& what);
  void ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // A free-text remark printed with the metrics (e.g. how one is derived).
  void note(const std::string& text) { notes_.push_back(text); }
  bool correct() const { return correct_; }
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

// Turns the program's obs layer on (tracing and metrics) for a traced
// phase, and off again on destruction.
class ObsOn {
 public:
  ObsOn();
  ~ObsOn();
  ObsOn(const ObsOn&) = delete;
  ObsOn& operator=(const ObsOn&) = delete;
};

// Counter and pool busy-time deltas of the obs registry over a window.
class ObsWindow {
 public:
  ObsWindow();  // snapshots now
  std::int64_t counter(const std::string& name) const;
  // Sum over pool.worker*.busy_us, in microseconds.
  std::int64_t pool_busy_us() const;

 private:
  mupod::MetricsSnapshot before_;
};

// Spans recorded through obs ScopedSpan, harvested out of the global
// tracer's ring before it can wrap, kept in memory and written out as one
// Chrome trace at the end of the run.
class SpanLog {
 public:
  SpanLog();
  void harvest();
  // Durations in ms of every harvested complete span named `name`.
  std::vector<double> durations_ms(const std::string& name);
  double total_ms(const std::string& name);
  std::int64_t dropped() const { return dropped_; }
  bool write(const std::string& path) const;

 private:
  mupod::Tracer archive_;
  std::map<std::string, std::vector<double>> durations_;
  std::int64_t dropped_ = 0;
};

// Per-module numbers the obs counters give for any traced window of
// `wall_s` seconds: kernel throughput and dispatch mix, pool utilization,
// activation saturations and plan-validation violations.
void report_obs_layers(Report& r, const ObsWindow& w, double wall_s);
// Graph-compiler rewrite counts per compile over the window's compiles.
void report_compile_counts(Report& r, const ObsWindow& w);

// Host and build identity printed with every result.
void print_fingerprint(const Args& args);

// Times `make` `repeats` times into `setup_s` (median reported by the
// caller as setup_s) and keeps the last result. The previous result is
// released before the next is built, so peak memory holds one set-up.
template <class T, class Make>
void repeat_setup(std::unique_ptr<T>& out, std::vector<double>& setup_s, Make make,
                  int repeats = kSetupRepeats) {
  for (int i = 0; i < repeats; ++i) {
    out.reset();
    const double t0 = now_s();
    out = make();
    setup_s.push_back(now_s() - t0);
  }
}

void run_profile(const Args& args, Report& report, SpanLog& spans);
void run_analyze(const Args& args, Report& report, SpanLog& spans);
void run_sweep(const Args& args, Report& report, SpanLog& spans);
void run_serve(const Args& args, Report& report, SpanLog& spans);

}  // namespace perfbench
