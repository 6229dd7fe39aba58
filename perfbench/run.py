#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload ge-coarse --seed 1 --seconds 25 --trace 0

Builds perfbench_run from source into .bench_build/perfbench (first run only
configures; later runs rebuild incrementally), runs the workload with the
constants in perfbench/config.json, and prints a machine fingerprint, a
table of metrics and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones (a separate, traced
run whose spans go to .bench_build/perfbench/traces/).

Exit codes: 0 ok (even when outputs were wrong: "correct" says so),
1 build or run failure, 2 usage error.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once and build perfbench_run; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_run",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return BUILD / "perfbench_run"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (stands in for the git
    SHA in checkouts that are not repositories)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", default=str(HERE / "config.json"),
                    help="workload constants (the smoke test passes tiny ones)")
    ap.add_argument("--corrupt", type=int, default=0,
                    help="test hook: corrupt this many solver outputs")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads(Path(args.config).read_text())
    if args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload!r}; have "
            + ", ".join(config["workloads"]))
        sys.exit(2)
    exe = build()

    wl = config["workloads"][args.workload]
    common = config["common"]
    nproc = len(os.sched_getaffinity(0))
    solver_workers = max(1, nproc - 1)
    server_workers = max(1, nproc - 2)
    trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--solve={wl['solve']}", f"--serve={wl['serve']}",
           f"--rate={wl['rate_rps']}",
           f"--solver-workers={solver_workers}",
           f"--server-workers={server_workers}",
           f"--setup-reps={common['setup_reps']}",
           f"--warmup={common['warmup_s']}",
           f"--server-warmup={common['server_warmup_s']}",
           f"--corrupt={args.corrupt}"]
    if args.trace:
        cmd.append(f"--trace-out={trace_out}")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench_run timed out")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench_run exited with {proc.returncode}")
        sys.exit(1)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or with the wrong unit: {got}")
            sys.exit(1)
        metrics[m["name"]] = got
    extra = set(raw["metrics"]) - set(metrics)
    if extra:
        log("metrics not declared in BENCHMARK.json: " + ", ".join(sorted(extra)))
        sys.exit(1)
    finite = all(isinstance(v["value"], (int, float)) for v in metrics.values())
    if not finite:
        log("a metric has no value (no samples in the window?)")

    # info["steal_share"] and info["others_share"] are the shares of the
    # machine's CPU time the hypervisor stole and other processes used during
    # the run: the first thing to check when two sets of runs of the same
    # code disagree.
    info = raw["info"]
    fingerprint = {
        "cpu": cpu_model(),
        "nproc": nproc,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "kernel_impl": info["kernel_impl"],
        "solver_workers": info["solver_workers"],
        "server_workers": info["server_workers"],
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for name, v in metrics.items():
        print(f"  {name:36s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({
        "correct": raw["failed"] == 0 and finite,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
