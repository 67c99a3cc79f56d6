// sweep_tool: the multi-objective tradeoff explorer the paper's framing
// implies — one profiling pass, a whole accuracy x objective grid of
// precision plans, and the Pareto front over (accuracy loss, hardware
// cost) extracted from the results.
//
// Usage:
//   sweep_tool [--net tiny|alexnet|nin|...] [--drops 0.005,0.01,0.02,0.05]
//              [--objectives input,mac,equal] [--solver sqp|pg|closed]
//              [--serial] [--csv | --json] [--save-plans plans.txt]
//              [--classes N] [--eval N] [--validate]
//              [--metrics] [--trace FILE]
//
// Cells marked 'yes' in the pareto column are on the accuracy-cost front
// of their objective group; dominated cells are the configurations no
// deployment should pick. Per-cell diagnostics go to stderr; --json emits
// the whole sweep machine-readable on stdout (same writer as
// netdef_tool --json). --metrics enables the obs registry and prints the
// snapshot to stderr (or embeds it under "metrics" with --json);
// --trace FILE writes a Chrome-trace JSON (chrome://tracing / Perfetto).
//
// --validate executes every cell's plan on the INTEGER backend (the
// unfused preset compile) and reports actual vs predicted accuracy drop per cell;
// a cell conforms when its integer-executed drop stays within the
// accuracy budget + the committed tolerance (kValidationTolerance).
// Violations are flagged in the output (and exit status 3) so a CI lane
// can gate on plan conformance.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "io/json_writer.hpp"
#include "io/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/sweep.hpp"
#include "tensor/parallel.hpp"
#include "zoo/zoo.hpp"

namespace {

void usage() {
  std::printf(
      "usage: sweep_tool [--net NAME] [--drops D1,D2,...] [--objectives input,mac,equal]\n"
      "                  [--solver sqp|pg|closed] [--serial] [--csv | --json]\n"
      "                  [--save-plans FILE] [--classes N] [--eval N] [--validate]\n"
      "                  [--metrics] [--trace FILE]\n");
}

std::vector<double> parse_doubles(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mupod;

  std::string net_name = "tiny";
  std::string drops_arg = "0.005,0.01,0.02,0.05";
  std::string objectives_arg = "input,mac";
  std::string solver_arg = "sqp";
  std::string plans_out;
  std::string trace_out;
  int classes = 10;
  int eval_images = 256;
  bool serial = false, csv = false, json = false, with_metrics = false, validate = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--net") net_name = next();
    else if (arg == "--drops") drops_arg = next();
    else if (arg == "--objectives") objectives_arg = next();
    else if (arg == "--solver") solver_arg = next();
    else if (arg == "--serial") serial = true;
    else if (arg == "--csv") csv = true;
    else if (arg == "--json") json = true;
    else if (arg == "--save-plans") plans_out = next();
    else if (arg == "--classes") classes = std::atoi(next());
    else if (arg == "--eval") eval_images = std::atoi(next());
    else if (arg == "--validate") validate = true;
    else if (arg == "--metrics") with_metrics = true;
    else if (arg == "--trace") trace_out = next();
    else if (arg == "--help" || arg == "-h") { usage(); return 0; }
    else { usage(); return 2; }
  }

  XiSolver solver = XiSolver::kSqp;
  if (solver_arg == "sqp") solver = XiSolver::kSqp;
  else if (solver_arg == "pg") solver = XiSolver::kProjectedGradient;
  else if (solver_arg == "closed") solver = XiSolver::kClosedForm;
  else { std::fprintf(stderr, "unknown solver '%s'\n", solver_arg.c_str()); return 2; }

  ZooOptions zopts;
  zopts.num_classes = classes;
  ZooModel m = [&] {
    try {
      return build_model(net_name, zopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
  }();

  DatasetConfig dc;
  dc.num_classes = classes;
  dc.channels = m.channels;
  dc.height = m.height;
  dc.width = m.width;
  SyntheticImageDataset dataset(dc);

  SweepSpec spec;
  spec.accuracy_targets = parse_doubles(drops_arg);
  spec.solver = solver;
  spec.concurrent = !serial;
  for (const std::string& o : split_csv(objectives_arg)) {
    if (o == "input") spec.objectives.push_back(objective_input_bits(m.net, m.analyzed));
    else if (o == "mac") spec.objectives.push_back(objective_mac_energy(m.net, m.analyzed));
    else if (o == "equal") {
      // Uniform rho: every layer's bits weighted equally — effectively
      // minimizing the summed bitwidth. A third standard objective for
      // 3-way sweeps.
      ObjectiveSpec s;
      s.name = "equal";
      s.rho.assign(m.analyzed.size(), 1);
      spec.objectives.push_back(std::move(s));
    } else {
      std::fprintf(stderr, "unknown objective '%s' (want input, mac, or equal)\n", o.c_str());
      return 2;
    }
  }
  if (spec.accuracy_targets.empty() || spec.objectives.empty()) {
    usage();
    return 2;
  }

  // Enable instrumentation AFTER the zoo model is built so the counters
  // describe the sweep, not the head-training forwards.
  if (with_metrics) mupod::set_metrics_enabled(true);
  if (!trace_out.empty()) mupod::set_tracing_enabled(true);

  PlanServiceConfig scfg;
  scfg.pipeline.harness.eval_images = eval_images;
  PlanService service(scfg);
  const PlanKey key = service.register_network(m.net, m.analyzed, dataset);

  std::fprintf(stderr,
               "sweeping %s: %zu accuracy target(s) x %zu objective(s), %d pool worker(s)%s\n",
               net_name.c_str(), spec.accuracy_targets.size(), spec.objectives.size(),
               parallel_worker_count(), serial ? " (serial tails)" : "");

  SweepResult sweep = [&] {
    try {
      return run_sweep(service, key, spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
  }();
  const CacheStats stats = service.stats();

  // Conformance pass: run every cell's plan through the integer execution
  // backend on the service's own harness. validations[i] pairs with
  // sweep.cells[i]; plan() inside validate_plan replays from the memo, so
  // the extra cost is exactly one integer-executed eval pass per cell.
  std::vector<PlanValidation> validations;
  int violations = 0;
  if (validate) {
    validations.reserve(sweep.cells.size());
    for (const SweepCell& cell : sweep.cells) {
      try {
        validations.push_back(service.validate_plan(key, cell.result.query));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: validation failed: %s\n", e.what());
        std::exit(1);
      }
      if (!validations.back().within_budget) ++violations;
    }
  }

  // Per-cell diagnostics (the existing DiagnosticSink, per allocation
  // tail) plus the shared profile-stage diagnostics, all on stderr.
  const DiagnosticSink& prof_diag = service.profile_diagnostics(key);
  if (!prof_diag.empty()) {
    std::fprintf(stderr, "profile stage: %d diagnostic(s):\n", static_cast<int>(prof_diag.size()));
    for (const Diagnostic& d : prof_diag.entries())
      std::fprintf(stderr, "  %s\n", format_diagnostic(d).c_str());
  }
  for (const SweepCell& cell : sweep.cells) {
    if (cell.result.diagnostics.empty()) continue;
    std::fprintf(stderr, "cell drop=%.4f objective=%s: %d diagnostic(s):\n",
                 cell.result.query.accuracy_target, cell.result.query.objective.name.c_str(),
                 static_cast<int>(cell.result.diagnostics.size()));
    for (const Diagnostic& d : cell.result.diagnostics.entries())
      std::fprintf(stderr, "  %s\n", format_diagnostic(d).c_str());
  }

  if (json) {
    JsonWriter j;
    j.begin_object();
    j.kv("network", net_name);
    j.kv("net_hash", key.net_hash);
    j.kv("config_digest", key.config_digest);
    j.kv("workers", sweep.workers);
    j.kv("wall_ms", sweep.wall_ms);
    j.kv("profile_warm_ms", sweep.profile_warm_ms);
    j.kv("sigma_warm_ms", sweep.sigma_warm_ms);
    j.kv("tails_ms", sweep.tails_ms);
    j.key("stats").begin_object();
    j.kv("profile_misses", stats.profile_misses).kv("profile_hits", stats.profile_hits);
    j.kv("sigma_misses", stats.sigma_misses).kv("sigma_hits", stats.sigma_hits);
    j.kv("plan_misses", stats.plan_misses).kv("plan_hits", stats.plan_hits);
    j.kv("profile_waits", stats.profile_waits).kv("sigma_waits", stats.sigma_waits);
    j.kv("plan_evictions", stats.plan_evictions);
    j.kv("profile_loads", stats.profile_loads)
        .kv("profile_load_rejected", stats.profile_load_rejected);
    j.end_object();
    j.key("cells").begin_array();
    for (const SweepCell& cell : sweep.cells) {
      const PlanResult& r = cell.result;
      j.begin_object();
      j.kv("accuracy_target", r.query.accuracy_target);
      j.kv("objective", r.query.objective.name);
      j.kv("solver", xi_solver_name(r.query.solver));
      j.kv("pareto", cell.pareto);
      // Cache disposition of this cell's answer: "memoized" replayed from
      // the plan memo, "warm" recomputed its tail on cached profile+sigma,
      // "cold" forced at least one stage computation.
      j.kv("cache", r.plan_cached ? "memoized"
                                  : (r.profile_cached && r.sigma_cached ? "warm" : "cold"));
      j.kv("accuracy_loss", r.accuracy_loss);
      j.kv("validated_accuracy", r.validated_accuracy);
      j.kv("objective_cost", r.objective_cost);
      j.kv("effective_bits", r.effective_bits);
      j.kv("energy", r.energy);
      j.kv("sim_cycles", r.sim_cycles);
      j.kv("sim_speedup", r.sim_speedup);
      j.kv("sigma_used", r.sigma_used);
      j.kv("refinements", r.refinements);
      j.kv("diagnostics", static_cast<int>(r.diagnostics.size()));
      if (validate) {
        const PlanValidation& v = validations[static_cast<std::size_t>(&cell - sweep.cells.data())];
        j.key("validation").begin_object();
        j.kv("weight_bits", v.weight_bits);
        j.kv("tolerance", v.tolerance);
        j.kv("float_accuracy", v.float_accuracy);
        j.kv("emulated_accuracy", v.emulated_accuracy);
        j.kv("integer_accuracy", v.integer_accuracy);
        j.kv("predicted_drop", v.predicted_drop);
        j.kv("emulated_drop", v.emulated_drop);
        j.kv("integer_drop", v.integer_drop);
        j.kv("within_budget", v.within_budget);
        j.kv("act_saturated", v.act_saturated);
        j.kv("lowered_layers", v.lowered_layers);
        j.end_object();
      }
      j.key("bits").begin_array();
      for (int b : r.alloc.bits) j.value(b);
      j.end_array();
      j.key("formats").begin_array();
      for (const FixedPointFormat& f : r.alloc.formats) j.value(f.to_string());
      j.end_array();
      j.end_object();
    }
    j.end_array();
    if (with_metrics) {
      j.key("metrics");
      metrics().snapshot().write_json(j);
    }
    j.end_object();
    std::printf("%s\n", j.str().c_str());
  } else {
    TextTable t({"drop%", "objective", "eff_bits", "cost", "energy", "cycles", "speedup",
                 "loss%", "sigma", "ref", "pareto"});
    for (const SweepCell& cell : sweep.cells) {
      const PlanResult& r = cell.result;
      t.add_row({TextTable::fmt(r.query.accuracy_target * 100, 2), r.query.objective.name,
                 TextTable::fmt(r.effective_bits, 2), TextTable::fmt_int(r.objective_cost),
                 TextTable::fmt(r.energy, 0), TextTable::fmt(r.sim_cycles, 0),
                 TextTable::fmt(r.sim_speedup, 2), TextTable::fmt(r.accuracy_loss * 100, 2),
                 TextTable::fmt(r.sigma_used, 4), TextTable::fmt_int(r.refinements),
                 cell.pareto ? "yes" : "dominated"});
    }
    std::printf("%s", csv ? t.render_csv().c_str() : t.render_text().c_str());
    if (validate) {
      TextTable vt({"drop%", "objective", "predicted%", "emulated%", "integer%", "budget+tol%",
                    "act_sat", "conforms"});
      for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        const PlanResult& r = sweep.cells[i].result;
        const PlanValidation& v = validations[i];
        vt.add_row({TextTable::fmt(r.query.accuracy_target * 100, 2), r.query.objective.name,
                    TextTable::fmt(v.predicted_drop * 100, 2),
                    TextTable::fmt(v.emulated_drop * 100, 2),
                    TextTable::fmt(v.integer_drop * 100, 2),
                    TextTable::fmt((r.query.accuracy_target + v.tolerance) * 100, 2),
                    TextTable::fmt_int(v.act_saturated), v.within_budget ? "yes" : "VIOLATION"});
      }
      std::printf("\nplan conformance (integer-executed, %d-bit weights, tolerance %.2f%%):\n%s",
                  validations.empty() ? 0 : validations.front().weight_bits,
                  (validations.empty() ? 0.0 : validations.front().tolerance) * 100,
                  csv ? vt.render_csv().c_str() : vt.render_text().c_str());
    }
    std::printf(
        "\n1 profile + %lld sigma search(es) + %lld allocation tail(s) "
        "(%lld plan-cache hit(s)); %lld forwards total; %.0f ms "
        "(profile %.0f, sigma %.0f, tails %.0f) on %d worker(s)\n",
        static_cast<long long>(stats.sigma_misses), static_cast<long long>(stats.plan_misses),
        static_cast<long long>(stats.plan_hits),
        static_cast<long long>(service.forward_count(key)), sweep.wall_ms,
        sweep.profile_warm_ms, sweep.sigma_warm_ms, sweep.tails_ms, sweep.workers);
  }

  if (with_metrics && !json)
    std::fprintf(stderr, "metrics:\n%s", metrics().snapshot().render_text().c_str());
  if (!trace_out.empty()) {
    if (!write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace event(s) to %s (open in chrome://tracing)\n",
                 tracer().size(), trace_out.c_str());
  }

  if (!plans_out.empty()) {
    errno = 0;
    if (!save_plan_store(plans_out, service.export_plans())) {
      std::fprintf(stderr, "error: cannot write plan store '%s': %s\n", plans_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fprintf(stderr, "saved plan store to %s\n", plans_out.c_str());
  }
  if (validate && violations > 0) {
    std::fprintf(stderr, "plan conformance: %d of %zu cell(s) exceeded budget + tolerance\n",
                 violations, validations.size());
    return 3;
  }
  return 0;
}
