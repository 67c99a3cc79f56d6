#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload profile|sweep|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # tests of the benchmark's statistics

The build goes to $CARGO_TARGET_DIR (default .bench_build) and traces and
per-run results to .bench_out, both inside the checkout. The last line of
standard output is the result:

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when the run finished
and every output was correct.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configures and builds `target` incrementally; returns its path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler scratch stays inside the checkout
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, target)


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """Git SHA when the checkout is a repository, and a digest of the sources."""
    sha = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return sha, h.hexdigest()


def parse_records(text):
    """Reads the binary's line records (see perfbench/common.hpp)."""
    rec = {"metrics": {}, "notes": [], "fingerprint": {}, "ops": None, "correct": None}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ", 2)
            rec["metrics"][name] = (float(value), unit)
        elif kind == "note":
            rec["notes"].append(rest)
        elif kind == "fingerprint":
            rec["fingerprint"] = json.loads(rest)
        elif kind == "ops":
            attempted, failed = rest.split()
            rec["ops"] = (int(attempted), int(failed))
        elif kind == "correct":
            rec["correct"] = rest.strip() == "1"
    return rec


def select_metrics(spec, rec, workload, trace):
    """The metrics the result line carries, checked against BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in rec["metrics"]:
            value, got_unit = rec["metrics"][name]
            if got_unit != unit:
                raise RuntimeError(f"metric {name}: measured in {got_unit!r}, declared {unit!r}")
        elif trace:
            # A layer this workload does no work in: its count is zero.
            value = 0.0
            print(f"note {name} = 0: module not exercised by workload {workload}")
        else:
            raise RuntimeError(f"end-to-end metric {name} missing from workload {workload}")
        if value != value or value in (float("inf"), float("-inf")):
            raise RuntimeError(f"metric {name} is not finite")
        out[name] = {"value": value, "unit": unit}
    return out


def selftest():
    binary = build("perfbench_stats_test")
    return subprocess.run([binary], cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    binary = build("perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    rec = parse_records(proc.stdout)
    if rec["correct"] is None or rec["ops"] is None:
        log(f"perfbench ended without a result (exit {proc.returncode})")
        return 1

    sha, digest = source_identity()
    fingerprint = dict(rec["fingerprint"], build_type=build_type(), git_sha=sha,
                       source_sha256=digest)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for note in rec["notes"]:
        print("note " + note)
    for name, (value, unit) in rec["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    metrics = select_metrics(spec, rec, args.workload, args.trace)
    correct = rec["correct"] and proc.returncode == 0
    attempted, failed = rec["ops"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result_{args.workload}_seed{args.seed}_trace{args.trace}"
                           ".json"), "w") as f:
        json.dump(dict(result, fingerprint=fingerprint, notes=rec["notes"],
                       all_metrics={k: {"value": v, "unit": u}
                                    for k, (v, u) in rec["metrics"].items()}), f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
