#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Driver form (one run, last stdout line is the JSON result):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Report forms:

    python3 perfbench/run.py --steady 10 --workload W [--seed N] [--seconds S]
        runs W on seeds N..N+9 (untraced) and prints each end-to-end
        metric's median, quartiles and spread next to its bound;
    python3 perfbench/run.py --traced --workload W [--seed N] [--seconds S]
        runs W untraced and traced on one seed and prints the per-layer
        metrics, the reconciliation lines and the tracing overhead.

The binary is built from ../src with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the current directory.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_revision():
    """Git revision when available, else a digest of the source tree."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    """Configures (once) and builds the Release binary; returns its path.

    The binary itself refuses to run when built without optimisation."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "infomap.cpp")):
        log("perfbench: library sources not found under " +
            os.path.join(ROOT, "src"))
        sys.exit(2)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: configure failed")
            sys.exit(2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (stdout lines, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.dirname(binary)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return [], 1
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout.splitlines(), proc.returncode


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def other_metrics(lines):
    for line in lines:
        if line.startswith("# other-metrics "):
            return json.loads(line[len("# other-metrics "):])
    return {}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {}
    shares = set()
    for i in range(args.steady):
        seed = args.seed + i
        lines, code = run_once(binary, args.workload, seed, args.seconds, 0)
        res = result_of(lines) if code == 0 else None
        if res is None or not res["correct"]:
            log("perfbench: seed %d failed (exit %d)" % (seed, code))
            for line in lines:
                if "FAIL" in line:
                    log(line)
            return 1
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d done" % seed)
    print("# steady workload=%s runs=%d seeds=%d..%d seconds=%s failed_share=%s"
          % (args.workload, args.steady, args.seed, args.seed + args.steady - 1,
             args.seconds, sorted(shares)))
    print("%-22s %14s %14s %14s %8s %7s %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    summary = {}
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        verdict = ("ok" if spread <= bound / 3 else
                   "within" if spread <= bound else "OVER")
        if name == "setup_s" and verdict == "OVER":
            verdict = "over (setup_s spread is not bounded)"
        print("%-22s %14.6g %14.6g %14.6g %7.2f%% %6.0f%% %s" %
              (name, med, q1, q3, spread * 100, bound * 100, verdict))
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": v}
    print(json.dumps({"workload": args.workload, "metrics": summary}))
    return 0


def traced(binary, args):
    base_lines, c0 = run_once(binary, args.workload, args.seed, args.seconds, 0)
    trace_lines, c1 = run_once(binary, args.workload, args.seed, args.seconds, 1)
    base, tr = result_of(base_lines), result_of(trace_lines)
    if c0 or c1 or base is None or tr is None:
        log("perfbench: traced report failed")
        return 1
    print("# traced workload=%s seed=%d seconds=%s" %
          (args.workload, args.seed, args.seconds))
    for name, m in sorted(tr["metrics"].items()):
        print("layer %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for line in trace_lines:
        if line.startswith("# reconcile"):
            print(line[2:])
    traced_e2e = other_metrics(trace_lines)
    for name, m in sorted(base["metrics"].items()):
        t = traced_e2e.get(name)
        if t is None:
            continue
        delta = (t - m["value"]) / m["value"] if m["value"] else 0.0
        print("overhead %-22s untraced=%-14.6g traced=%-14.6g %+.2f%%" %
              (name, m["value"], t, delta * 100))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run N seeds and print spreads against the bounds")
    p.add_argument("--traced", action="store_true",
                   help="compare a traced and an untraced run on one seed")
    args = p.parse_args()
    binary = build()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    if args.steady:
        return steady(binary, args)
    if args.traced:
        return traced(binary, args)
    print("# stamp rev=%s binary=%s" % (source_revision(), binary), flush=True)
    lines, code = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
