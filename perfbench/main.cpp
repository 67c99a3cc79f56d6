// perfbench: the repository benchmark binary. One process runs one named
// workload (profile, sweep or serve; analyze reproduces an open defect, see
// analyze.cpp) for a seed and a measuring time, and
// prints its metrics as line records (see Report) that run.py turns into
// the benchmark's result line. Usually started through run.py, which
// builds this binary first:
//
//   perfbench --workload serve --seed 3 --seconds 20 --trace 0
//
// --trace 1 runs the workload once more with the obs tracer and metrics on
// and reports per-module numbers instead of end-to-end ones; the spans are
// written to <out-dir>/trace_<workload>_seed<n>.json at exit.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "tensor/parallel.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload profile|sweep|serve|analyze --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--out-dir") args.out_dir = v;
    else return usage();
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return usage();
  void (*run)(const Args&, Report&, SpanLog&) = nullptr;
  if (args.workload == "profile") run = run_profile;
  else if (args.workload == "analyze") run = run_analyze;
  else if (args.workload == "sweep") run = run_sweep;
  else if (args.workload == "serve") run = run_serve;
  else return usage();

  mupod::set_parallel_worker_count(kPoolWorkers);
  print_fingerprint(args);
  Report report;
  SpanLog spans;
  try {
    run(args, report, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (!spans.write(path)) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace %s (%lld event(s) dropped by the ring)\n", path.c_str(),
                 static_cast<long long>(spans.dropped()));
  }
  report.print();
  return report.correct() ? 0 : 1;
}
