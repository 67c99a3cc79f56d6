// The benchmark's own statistics: percentiles that refuse unsupported
// tails, backlog detection for an open-loop rate step, max-rate selection
// over a rate ladder, and the bitwise logits check. Pure functions, so
// stats_test.cpp can pin their behaviour on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

namespace perfbench {

// A percentile is only reported when at least this many samples lie
// beyond it; below that the tail is noise.
inline constexpr std::int64_t kMinSamplesBeyond = 10;

// Nearest-rank percentile q in (0, 1) of `samples`: the value at rank
// ceil(q * n). Empty when fewer than kMinSamplesBeyond samples rank above
// it, i.e. when n - ceil(q * n) < kMinSamplesBeyond.
inline std::optional<double> percentile(std::vector<double> samples, double q) {
  const auto n = static_cast<std::int64_t>(samples.size());
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto rank = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * n - 1e-9)));
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[static_cast<std::size_t>(rank - 1)];
}

// Median without the tail rule (a median always has half the samples
// beyond it); NaN for an empty input.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

struct Tail {
  double q = 0.0;  // the percentile reported, e.g. 0.99
  double value = 0.0;
};

// The highest of the conventional percentiles (99.9, 99, 95, 90, 75)
// that the sample supports; empty when even p75 is unsupported.
inline std::optional<Tail> highest_supported_tail(const std::vector<double>& samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75})
    if (const auto v = percentile(samples, q)) return Tail{q, *v};
  return std::nullopt;
}

// Queue depth observed at time t_s (seconds into a rate step).
struct DepthSample {
  double t_s = 0.0;
  double depth = 0.0;
};

// A backlog is growing when the mean queue depth over the last quarter of
// the step exceeds the mean over the first quarter by more than
// `max_rise` requests. A server below capacity drains between arrivals,
// so its depth stays flat; above capacity the queue climbs until the
// admission bound sheds, which this also flags.
inline bool backlog_growing(const std::vector<DepthSample>& samples, double max_rise) {
  if (samples.size() < 8) return false;
  const double t0 = samples.front().t_s;
  const double span = samples.back().t_s - t0;
  if (!(span > 0.0)) return false;
  double head = 0, tail = 0;
  int n_head = 0, n_tail = 0;
  for (const DepthSample& s : samples) {
    const double f = (s.t_s - t0) / span;
    if (f <= 0.25) head += s.depth, ++n_head;
    if (f >= 0.75) tail += s.depth, ++n_tail;
  }
  if (n_head == 0 || n_tail == 0) return false;
  return tail / n_tail - head / n_head > max_rise;
}

// One step of the open-loop rate ladder, as judged for max-rate selection.
struct RateStep {
  double rate_rps = 0.0;   // offered (ladder) rate
  double goodput_rps = 0.0;  // requests answered kOk per second of the step
  bool valid = true;       // the generator kept to its schedule
  std::optional<double> p99_ms;  // empty when the sample cannot support p99
  double failed_frac = 0.0;
  bool backlog_growing = false;
};

// A step qualifies for the max rate when its generator kept to schedule,
// its p99 is supported and within 20 ms, at most 1% of its requests
// failed, and its backlog did not grow.
inline constexpr double kMaxRateP99Ms = 20.0;
inline constexpr double kMaxRateFailedFrac = 0.01;

inline bool step_meets(const RateStep& s) {
  return s.valid && s.p99_ms.has_value() && *s.p99_ms <= kMaxRateP99Ms &&
         s.failed_frac <= kMaxRateFailedFrac && !s.backlog_growing;
}

// Index of the highest-rate step that meets every limit; empty when none
// does.
inline std::optional<std::size_t> max_rate_step(const std::vector<RateStep>& steps) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < steps.size(); ++i)
    if (step_meets(steps[i]) && (!best || steps[i].rate_rps > steps[*best].rate_rps)) best = i;
  return best;
}

// Served logits must equal the reference forward byte for byte.
inline bool logits_identical(const float* got, std::size_t n_got, const float* want,
                             std::size_t n_want) {
  return n_got == n_want && std::memcmp(got, want, n_got * sizeof(float)) == 0;
}

}  // namespace perfbench
