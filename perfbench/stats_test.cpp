// Tests of the benchmark's own statistics (stats.hpp). Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  // p99 of 999 samples has 9 beyond it; of 1000 it has 10.
  EXPECT_FALSE(percentile(ramp(999), 0.99).has_value());
  ASSERT_TRUE(percentile(ramp(1000), 0.99).has_value());
  EXPECT_EQ(*percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile(ramp(99), 0.90).has_value());
  EXPECT_EQ(*percentile(ramp(100), 0.90), 90.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, HighestSupportedTailFallsBackAndStatesWhichPercentile) {
  const auto t = highest_supported_tail(ramp(200));  // p95 has 10 beyond, p99 only 2
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->q, 0.95);
  EXPECT_EQ(t->value, 190.0);
  EXPECT_FALSE(highest_supported_tail(ramp(39)).has_value());
}

TEST(Percentile, MedianOfEvenAndOddSamples) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

std::vector<DepthSample> depth_series(double slope, double noise_amp) {
  std::vector<DepthSample> s;
  for (int i = 0; i < 400; ++i) {
    const double t = i * 0.005;
    const double wobble = (i % 7 - 3) * noise_amp / 3.0;
    s.push_back({t, std::max(0.0, 2.0 + slope * t + wobble)});
  }
  return s;
}

TEST(Backlog, FlagsAGrowingQueueAndPassesASteadyOne) {
  EXPECT_TRUE(backlog_growing(depth_series(100.0, 2.0), 8.0));  // +200 over the step
  EXPECT_FALSE(backlog_growing(depth_series(0.0, 6.0), 8.0));   // busy but flat
  EXPECT_FALSE(backlog_growing(depth_series(2.0, 1.0), 8.0));   // +4: within one batch
}

TEST(MaxRate, PicksTheHighestStepMeetingEveryLimit) {
  std::vector<RateStep> ladder = {
      {100, 99, true, 4.0, 0.0, false},
      {200, 198, true, 5.0, 0.0, false},
      {400, 396, true, 9.0, 0.005, false},
      {800, 700, true, 35.0, 0.0, false},     // p99 over 20 ms
      {1600, 900, true, 18.0, 0.3, false},    // too many failures
      {3200, 950, true, 15.0, 0.0, true},     // backlog growing
  };
  auto best = max_rate_step(ladder);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(ladder[*best].rate_rps, 400.0);

  ladder[3].p99_ms = 12.0;  // now 800 qualifies
  EXPECT_EQ(ladder[*max_rate_step(ladder)].rate_rps, 800.0);
  ladder[3].valid = false;  // a lagging generator disqualifies the step
  EXPECT_EQ(ladder[*max_rate_step(ladder)].rate_rps, 400.0);
  ladder[2].p99_ms.reset();  // an unsupported p99 cannot meet the limit
  EXPECT_EQ(ladder[*max_rate_step(ladder)].rate_rps, 200.0);

  for (RateStep& s : ladder) s.failed_frac = 1.0;
  EXPECT_FALSE(max_rate_step(ladder).has_value());
}

TEST(Logits, OneByteCorruptionIsRejected) {
  const std::vector<float> want = {0.25f, -1.5f, 3.0f, 1e-7f};
  std::vector<float> got = want;
  EXPECT_TRUE(logits_identical(got.data(), got.size(), want.data(), want.size()));
  reinterpret_cast<unsigned char*>(got.data())[5] ^= 0x01;
  EXPECT_FALSE(logits_identical(got.data(), got.size(), want.data(), want.size()));
  EXPECT_FALSE(logits_identical(want.data(), 3, want.data(), want.size()));
}

}  // namespace
}  // namespace perfbench
