#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 20 --trace 0

Builds the engine and the benchmark binaries from source (perfbench/
CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), runs the workload,
and prints a human-readable table, an `env:` line recording the machine and
build, and as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; units come from BENCHMARK.json.

Exit status: 0 when every operation succeeded and matched its reference;
1 on a failed or mismatched operation, a missing metric, or a failed build
(then no result line is printed unless the workload itself ran).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"engine sources not found under {ROOT / 'src'}")
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(out), "-j", jobs, "--target",
             "photon_perf", "photon_perf_traced"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def source_digest():
    """sha256 over the engine and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def env_record(args, raw, steal_pct):
    """What the result depends on besides the code. The benchmark sets no
    allocator tunables itself; it only records them. CPU time stolen by the
    hypervisor while the workload ran tells a noisy host from a slow
    change."""
    notes = raw.get("notes", {})
    allocator = {k: v for k, v in sorted(os.environ.items())
                 if k == "GLIBC_TUNABLES" or k.startswith("MALLOC_")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # TPC-H scale factor, or the key-value table's seed rows.
        "scale": notes.get("scale_factor", notes.get("seed_rows")),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": raw.get("build", {}).get("build_type"),
        "compiler": raw.get("build", {}).get("compiler"),
        "allocator_env": allocator,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_steal_pct": steal_pct,
    }


def main():
    spec = json.loads(SPEC_PATH.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny scale, for the self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb a reference answer: the run must fail")
    args = parser.parse_args()

    try:
        out = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    binary = out / ("photon_perf_traced" if args.trace else "photon_perf")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    ticks1 = cpu_ticks()
    steal_pct = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal_pct = round(100.0 * (ticks1[0] - ticks0[0]) /
                          (ticks1[1] - ticks0[1]), 2)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from {binary.name} (exit {proc.returncode})")
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    missing = []
    for m in declared:
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    extra = sorted(set(raw["metrics"]) - {m["name"] for m in declared})
    if missing or extra:
        log(f"metrics missing {missing}, undeclared {extra}")

    samples = raw.get("notes", {}).get("query_samples")
    for name, m in metrics.items():
        beside = f"  (n={int(samples)})" if samples and name.startswith(
            "query_p") else ""
        print(f"{name:36s} {m['value']:14.4f} {m['unit']}{beside}")
    for name, value in raw.get("notes", {}).items():
        print(f"  note {name} = {value:g}")
    env = env_record(args, raw, steal_pct)
    print("env: " + json.dumps(env, sort_keys=True))

    correct = bool(raw["correct"]) and proc.returncode == 0 and not missing \
        and not extra
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, "env": env,
                              "notes": raw.get("notes", {})}, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
