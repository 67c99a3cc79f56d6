// Workloads `profile` and `analyze`, on ResNet-152 (156 analyzed layers)
// at a 1% relative accuracy drop -- the paper's own hot path (Sec. VI-A),
// where lambda/theta profiling dominates. Neither touches infer, compile
// or the integer GEMM.
//
// `profile` times the stages in front of allocation: a cold analysis
// harness, the lambda/theta profile and the sigma search. It is the
// benchmark's workload (BENCHMARK.json).
//
// `analyze` is one cold run_pipeline with objectives input_bits +
// mac_energy and validation on. It is not a benchmark workload: on some
// eval sets run_pipeline leaves an objective above the 1% budget after its
// refinements, and this workload's check then fails. Run the binary on it
// directly to reproduce that (perfbench --workload analyze --seed 13 ...).
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "stats.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {
namespace {

using namespace mupod;

constexpr double kMaxRelativeDrop = 0.01;

struct AnalyzeSetup {
  FixedModel zoo;
  std::vector<ObjectiveSpec> objectives;
};

// bench_timing_resnet152's sizes. Model weights stay fixed across seeds;
// the seed drives the synthetic eval images and the injection-noise
// streams of profiling, sigma search and validation.
PipelineConfig pipeline_config(std::uint64_t seed) {
  PipelineConfig p;
  p.harness.profile_images = 8;
  p.harness.eval_images = 128;
  p.harness.batch = 64;
  p.harness.metric = AccuracyMetric::kLabels;
  p.harness.eval_start_index = 1'000'000 + static_cast<std::int64_t>(seed % 1'000'000) * 1'000;
  p.harness.noise_seed = 777 + seed;
  p.profiler.points = 6;
  p.profiler.reps_per_point = 1;
  p.sigma.relative_accuracy_drop = kMaxRelativeDrop;
  return p;
}

std::unique_ptr<AnalyzeSetup> make_setup() {
  auto s = std::make_unique<AnalyzeSetup>();
  s->zoo = build_fixed_model("resnet152");
  s->objectives = {objective_input_bits(s->zoo.model.net, s->zoo.model.analyzed),
                   objective_mac_energy(s->zoo.model.net, s->zoo.model.analyzed)};
  return s;
}

bool same_allocation(const BitwidthAllocation& a, const BitwidthAllocation& b) {
  if (a.bits != b.bits || a.formats.size() != b.formats.size()) return false;
  for (std::size_t i = 0; i < a.formats.size(); ++i)
    if (a.formats[i].integer_bits != b.formats[i].integer_bits ||
        a.formats[i].fraction_bits != b.formats[i].fraction_bits)
      return false;
  return true;
}

bool same_profile(const ProfileStageResult& a, const ProfileStageResult& b) {
  if (a.ranges != b.ranges || a.models.size() != b.models.size()) return false;
  for (std::size_t i = 0; i < a.models.size(); ++i)
    if (a.models[i].lambda != b.models[i].lambda || a.models[i].theta != b.models[i].theta ||
        a.models[i].fit_status != b.models[i].fit_status)
      return false;
  return true;
}

// The stages run_pipeline composes, called one by one; each records its
// own stage.* span when tracing is on.
struct StagedAnalysis {
  double float_accuracy = 0.0;
  ProfileStageResult profile;
  SigmaStageResult sigma;
  std::vector<ObjectiveResult> objectives;
  std::int64_t profile_forwards = 0;      // profile stage's counters
  std::int64_t profile_suffix_calls = 0;  // (zero unless obs is on)
};

StagedAnalysis run_stages(AnalyzeSetup& s, const PipelineConfig& cfg, bool with_objectives) {
  Network& net = s.zoo.model.net;
  StagedAnalysis a;
  DiagnosticSink diag;
  const auto harness = std::make_unique<AnalysisHarness>(net, s.zoo.model.analyzed,
                                                         *s.zoo.dataset, cfg.harness, &diag);
  a.float_accuracy = harness->float_accuracy();
  const ObsWindow profile_window;
  a.profile = run_profile_stage(*harness, cfg.profiler, &diag);
  a.profile_forwards = profile_window.counter("stage.profile.forwards");
  a.profile_suffix_calls = profile_window.counter("net.forward_from.calls");
  a.sigma = run_sigma_stage(*harness, a.profile, cfg.sigma, cfg.calibrate_sigma, &diag);
  if (with_objectives)
    for (const ObjectiveSpec& spec : s.objectives)
      a.objectives.push_back(
          run_objective_stage(*harness, a.profile, a.sigma, spec, cfg, &diag, nullptr, &net));
  return a;
}

// Checks one profile and sigma search: a model with finite coefficients
// per analyzed layer, a bracketed sigma whose measured accuracy meets the
// constraint (the search's own invariant), and the same profile and
// budget as the run's first analysis. Returns whether all held.
bool check_profile(Report& report, const StagedAnalysis& a, std::size_t layers,
                   std::optional<StagedAnalysis>& first) {
  bool ok = true;
  const auto check = [&](bool cond, const std::string& what) {
    report.check(cond, what);
    ok = ok && cond;
  };
  check(a.profile.models.size() == layers && a.profile.ranges.size() == layers,
        "profile has " + std::to_string(a.profile.models.size()) + " models for " +
            std::to_string(layers) + " analyzed layers");
  bool finite = a.profile.usable_models > 0;
  for (const LayerLinearModel& m : a.profile.models)
    finite = finite && std::isfinite(m.lambda) && std::isfinite(m.theta);
  check(finite, "profile has no usable model or a non-finite lambda/theta");
  const SigmaSearchResult& sigma = a.sigma.sigma;
  check(sigma.bracket_ok(), "sigma search failed to bracket");
  const double threshold = (1.0 - kMaxRelativeDrop) * a.float_accuracy;
  check(a.float_accuracy > 0 && sigma.accuracy_at_sigma >= threshold,
        "accuracy " + std::to_string(sigma.accuracy_at_sigma) + " at the searched sigma is below " +
            std::to_string(threshold));
  if (!first) {
    first = a;
  } else {
    check(same_profile(first->profile, a.profile), "profile differs between repetitions");
    check(first->sigma.sigma.sigma_yl == sigma.sigma_yl &&
              first->sigma.sigma_calibrated == a.sigma.sigma_calibrated,
          "sigma budget differs between repetitions");
  }
  return ok;
}

// Checks one analysis: a bracketed sigma, every validated drop within the
// constraint, and the same allocation as the run's first analysis.
// Returns the number of failed objectives.
int check_analysis(Report& report, const SigmaSearchResult& sigma, double float_accuracy,
                   const std::vector<ObjectiveResult>& objectives,
                   std::vector<BitwidthAllocation>& first) {
  report.check(sigma.bracket_ok(), "sigma search failed to bracket");
  int failed = 0;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const ObjectiveResult& o = objectives[i];
    const double drop = (float_accuracy - o.validated_accuracy) / float_accuracy;
    const bool ok_drop = float_accuracy > 0 && drop <= kMaxRelativeDrop + 1e-12;
    report.check(ok_drop, "objective " + o.spec.name + " validated relative drop " +
                              std::to_string(drop) + " exceeds 1%");
    if (first.size() <= i) first.push_back(o.alloc);
    const bool ok_same = same_allocation(first[i], o.alloc);
    report.check(ok_same, "objective " + o.spec.name + " allocation differs between repetitions");
    if (!ok_drop || !ok_same || !sigma.bracket_ok()) ++failed;
  }
  return failed;
}

int count_fits(const std::vector<LayerLinearModel>& models, FitStatus status) {
  int n = 0;
  for (const LayerLinearModel& m : models) n += m.fit_status == status ? 1 : 0;
  return n;
}

// `profile` when !with_objectives, `analyze` otherwise.
void run_analysis(const Args& args, Report& report, SpanLog& spans, bool with_objectives) {
  std::vector<double> setup_s;
  std::unique_ptr<AnalyzeSetup> s;
  repeat_setup(s, setup_s, make_setup);
  Network& net = s->zoo.model.net;
  const std::vector<int>& analyzed = s->zoo.model.analyzed;
  const PipelineConfig cfg = pipeline_config(args.seed);

  // Cold analyses, each building its own harness: until the measuring time
  // is used up and at least kMinRepeats. A traced run alternates untraced
  // and traced analyses instead, kTracedRepeats of each, so both see the
  // same host conditions.
  std::vector<double> wall_s, traced_s;
  std::vector<BitwidthAllocation> first_allocs;
  std::optional<StagedAnalysis> first_profile;
  std::optional<ObsWindow> window;
  std::vector<StagedAnalysis> traced;
  const auto check = [&](const StagedAnalysis& a) {
    const bool ok = check_profile(report, a, analyzed.size(), first_profile);
    report.ops(1, ok ? 0 : 1);
    if (!with_objectives) return;
    const int failed =
        check_analysis(report, a.sigma.sigma, a.float_accuracy, a.objectives, first_allocs);
    report.ops(static_cast<std::int64_t>(a.objectives.size()), failed);
  };
  const double t_start = now_s();
  while (args.trace ? traced_s.size() < kTracedRepeats
                    : wall_s.size() < kMinRepeats ||
                          now_s() - t_start + median(wall_s) <= args.seconds) {
    const double t0 = now_s();
    if (with_objectives) {
      const PipelineResult r = run_pipeline(net, analyzed, *s->zoo.dataset, s->objectives, cfg);
      wall_s.push_back(now_s() - t0);
      StagedAnalysis a;
      a.float_accuracy = r.float_accuracy;
      a.profile.models = r.models;
      a.profile.ranges = r.ranges;
      for (const LayerLinearModel& m : r.models) a.profile.usable_models += m.usable() ? 1 : 0;
      a.sigma.sigma = r.sigma;
      a.sigma.sigma_calibrated = r.sigma_calibrated;
      a.objectives = r.objectives;
      check(a);
    } else {
      const StagedAnalysis a = run_stages(*s, cfg, false);
      wall_s.push_back(now_s() - t0);
      check(a);
    }
    if (!args.trace) continue;

    ObsOn obs;
    if (!window) window.emplace();
    const double t1 = now_s();
    traced.push_back(run_stages(*s, cfg, with_objectives));
    traced_s.push_back(now_s() - t1);
    spans.harvest();
    check(traced.back());
  }
  const double task_s = median(wall_s);
  std::fprintf(stderr, "%s: %zu cold analyses, median %.3f s:", args.workload.c_str(),
               wall_s.size(), task_s);
  for (const double w : wall_s) std::fprintf(stderr, " %.3f", w);
  std::fprintf(stderr, "\n");

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("task_ms", task_s * 1e3, "ms");
    report.add(with_objectives ? "analyze_s" : "profile_s", task_s, "s");
    return;
  }

  // Per-layer figures are per traced analysis: sums over them / n.
  const double n = static_cast<double>(traced_s.size());
  double traced_total_s = 0.0;
  std::int64_t profile_forwards = 0, profile_suffix_calls = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    traced_total_s += traced_s[i];
    profile_forwards += traced[i].profile_forwards;
    profile_suffix_calls += traced[i].profile_suffix_calls;
  }
  const double harness_ms = spans.total_ms("stage.harness") / n;
  const double profile_ms = spans.total_ms("stage.profile") / n;
  const double sigma_ms = spans.total_ms("stage.sigma") / n;
  const double objective_ms = spans.total_ms("stage.objective") / n;
  report.add("core.harness_s", harness_ms / 1e3, "s");
  report.add("core.profile_s", profile_ms / 1e3, "s");
  report.add("core.sigma_s", sigma_ms / 1e3, "s");
  if (with_objectives) report.add("core.objective_s", objective_ms / 1e3, "s");
  report.add("core.profile.forwards", static_cast<double>(profile_forwards) / n, "count");
  report.add("core.profile.gmac_per_s",
             static_cast<double>(profile_forwards) / n * static_cast<double>(net.total_macs()) /
                 (profile_ms / 1e3) / 1e9,
             "GMAC/s");
  report.note("core.profile.gmac_per_s is computed: profile forwards x MACs/image / "
              "core.profile_s");
  const ProfileStageResult& prof = traced.back().profile;
  report.add("core.profile.pinned", count_fits(prof.models, FitStatus::kPinned), "count");
  report.add("core.profile.refit", count_fits(prof.models, FitStatus::kRobustRefit), "count");
  report.add("core.sigma.evaluations", traced.back().sigma.sigma.evaluations, "count");
  report.add("nn.forward_from.calls", static_cast<double>(profile_suffix_calls) / n, "count");
  report.add("nn.forward_from_ms",
             profile_suffix_calls > 0 ? profile_ms * n / static_cast<double>(profile_suffix_calls)
                                      : 0.0,
             "ms");
  report.note("nn.forward_from_ms is computed: core.profile_s / profile-stage forward_from "
              "calls");
  if (with_objectives) {
    int iterations = 0, downgrades = 0;
    for (const ObjectiveResult& o : traced.back().objectives) {
      iterations += o.alloc.solver_iterations;
      downgrades += o.alloc.solver_downgrades;
    }
    report.add("opt.solver.iterations", iterations, "count");
    report.add("opt.solver.downgrades", downgrades, "count");
  }
  report_obs_layers(report, *window, traced_total_s);
  report.add("obs.trace_overhead_frac", median(traced_s) / task_s - 1.0, "fraction");
  report.add("bench.unattributed_ms",
             traced_total_s * 1e3 / n - (harness_ms + profile_ms + sigma_ms + objective_ms),
             "ms");
}

}  // namespace

void run_profile(const Args& args, Report& report, SpanLog& spans) {
  run_analysis(args, report, spans, false);
}

void run_analyze(const Args& args, Report& report, SpanLog& spans) {
  run_analysis(args, report, spans, true);
}

}  // namespace perfbench
