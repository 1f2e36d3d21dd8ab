#!/usr/bin/env python3
"""Repository benchmark: build negbench from source, run one workload, and
print the result as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

Run from the root of a checkout. The build goes to .bench_build/ (Release +
LTO, as the `release` CMake preset); traced runs also write their span dump
and a summary to .bench_build/trace/. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "negbench"
TRACE_DIR = ROOT / ".bench_build" / "trace"
FINGERPRINTS = ROOT / ".bench_build" / "fingerprints.json"
# A run must end within 180 s; leave room for the build check and the
# point that is still running when --seconds runs out.
RUN_TIMEOUT_S = 170

# Workload names, metric names and units come from BENCHMARK.json at the
# checkout root.
SPEC = ROOT / "BENCHMARK.json"
# End-to-end times are reported at a reference host speed: each point's wall
# times are scaled by REFERENCE_S over the time negbench's fixed reference
# work took just before the point. 30 ms is that work's usual time on the
# 4-core Xeon container the benchmark was defined on.
REFERENCE_S = 0.030


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds negbench; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("simulator sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    # Keep the compiler's temporary files (LTO writes large ones) inside
    # the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def child_env():
    """The environment negbench runs in: NEG_SIM_THREADS removed, so the
    fabric runs with the library's default thread count."""
    env = dict(os.environ)
    env.pop("NEG_SIM_THREADS", None)
    return env


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def binary_digest():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]


def check_fingerprint(workload, seed, fingerprint):
    """Every run of one build at one (workload, seed) must produce the same
    result fingerprint; the first run records it."""
    key = f"{binary_digest()}/{workload}/{seed}"
    try:
        known = json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == fingerprint
    known[key] = fingerprint
    FINGERPRINTS.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def run_negbench(args, spans_path):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        stdout, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired as e:  # subprocess.run killed and reaped it
        stdout = e.stdout if isinstance(e.stdout, str) else ""
        code = None
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            log(f"unparsable negbench output: {line!r}")
    return records, code


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced, done, env, scale):
    """End-to-end metrics from the untraced points; `scale(point)` converts
    the point's wall seconds to reported seconds."""
    return {
        "sim_us_per_s": median([env["horizon_ms"] * 1e3 /
                                (p["run_s"] * scale(p))
                                for p in untraced if p["run_s"] > 0]),
        "setup_s": median([(p["generate_s"] + p["construct_s"] +
                            p["add_flows_s"]) * scale(p) for p in untraced]),
        "point_s": median([p["point_s"] * scale(p) for p in untraced]),
        "peak_rss_mb": done["peak_rss_kb"] * 1024 / 1e6 if done else 0.0,
    }


def main():
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="short-horizon determinism checks on every workload")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_test:
        return subprocess.run([str(BINARY), "--self-test", "--seed",
                               str(args.seed)], cwd=ROOT,
                              env=child_env()).returncode

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    spans_path = None
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        spans_path = TRACE_DIR / f"{stem}.spans.json"
    records, code = run_negbench(args, spans_path)

    env = next((r for r in records if r.get("kind") == "env"), None)
    done = next((r for r in records if r.get("kind") == "done"), None)
    points = [r for r in records if r.get("kind") == "point"]
    if env is None:
        log(f"negbench did not start (exit code {code})")
        return 1

    # A process that died mid-point (abort, crash, timeout) left one point
    # attempted without a record.
    attempted = len(points) + (0 if done is not None and code == 0 else 1)
    failed = attempted - len(points)
    run_fingerprint = points[0]["fingerprint"] if points else None
    for p in points:
        bad = not p["ok"]
        if p["fingerprint"] != run_fingerprint:
            p["error"] = "fingerprint differs from the run's first point"
            bad = True
        if p["flows_fingerprint"] != points[0]["flows_fingerprint"]:
            p["error"] = "generator gave different flows for the same seed"
            bad = True
        if bad:
            failed += 1
            log(f"point {p['index']} failed: {p['error']}")
    if failed == 0 and not check_fingerprint(args.workload, args.seed,
                                             run_fingerprint):
        log("result fingerprint differs from an earlier run at this seed")
        failed += 1

    untraced = [p for p in points if not p["traced"]]
    traced = [p for p in points if p["traced"]]
    if args.trace:
        values = {}
        for p in traced:
            for name, value in p["layers"].items():
                values.setdefault(name, []).append(value)
        values = {name: median(v) for name, v in values.items()}
        base = median([p["point_s"] for p in untraced])
        values["trace.overhead_share"] = (
            median([p["point_s"] for p in traced]) / base if base else 0.0)
        values["host.reference_work_ms"] = 1e3 * median(
            [p["reference_s"] for p in points])
    else:
        values = end_to_end(untraced, done, env,
                            lambda p: REFERENCE_S / p["reference_s"])
    missing = [name for name in units if name not in values]
    if missing:
        log(f"no value measured for {', '.join(missing)}")
        failed = max(failed, 1)
    metrics = {name: {"value": values.get(name, 0.0), "unit": units[name]}
               for name in units}

    record = dict(env)
    del record["kind"]
    neg_sim_threads = os.environ.get("NEG_SIM_THREADS")
    record.update({
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "neg_sim_threads_set": neg_sim_threads is not None,
        "neg_sim_threads_value": neg_sim_threads,
        "points": len(points),
        "traced_points": len(traced),
        "fingerprint": run_fingerprint,
        "reference_work_ms": 1e3 * median([p["reference_s"] for p in points]),
    })
    if not args.trace:
        record["wall_clock"] = end_to_end(untraced, done, env, lambda p: 1.0)
    print(json.dumps({"env": record}))
    if spans_path is not None:
        summary = {"env": record, "spans": spans_path.name,
                   "trace.overhead_share": values["trace.overhead_share"],
                   "metrics": metrics}
        spans_path.with_name(f"{stem}.summary.json").write_text(
            json.dumps(summary, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
