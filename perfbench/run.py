"""Benchmark entry point: one run of one workload in a fresh worker process.

    python3 perfbench/run.py --workload cli-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``all`` runs the three workloads one after another, each in its own worker,
and ends with one JSON line whose metric names carry the workload prefix.

Run it from anywhere; it benchmarks the package under ../src relative to
this file and exits with code 2, printing no result, when that is missing.
The worker gets BLAS and OpenMP pinned to one thread. With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer ones. Lines before it state the pass count, the tail percentile,
fail_rate, the negative controls and the machine. The full report is kept
in .perfbench_run/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-ladder", "query-mix", "compile-ladder")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKER_TIMEOUT_S = 170


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    """What the numbers depend on: cores, CPU, cache, memory, interpreter."""
    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    mem = next((int(ln.split()[1]) // 1024 for ln in _read("/proc/meminfo").splitlines()
                if ln.startswith("MemAvailable:")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "mem_available_mb": mem,
        "python": platform.python_version(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One workload run in a fresh worker; prints its summary, returns its report."""
    run_dir = root / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    out = run_dir / f"result-{os.getpid()}.json"
    env_record = machine()
    cmd = [sys.executable, str(Path(__file__).resolve().with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **env_record["threads"]},
                              stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"error: {workload} worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(out.read_text())
    out.unlink()
    info = report["info"]
    env_record["numpy"] = info.pop("numpy")
    report["env"] = env_record
    record = run_dir / f"{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps(report, indent=1) + "\n")

    detected = sum(1 for err in info["controls"].values() if err)
    print(f"{workload} seed={seed} trace={trace}: {info['passes']} passes of "
          f"{info['ops_per_pass']} ops, {report['attempted']} attempted, {report['failed']} failed, "
          f"fail_rate {info['fail_rate']:.4g} ratio, negative controls detected "
          f"{detected}/{len(info['controls'])}")
    if not trace:
        print(f"op_tail_ms is p{info['tail_percentile']:.1f} of each pass's {info['ops_per_pass']} ops "
              f"({info['tail_samples_beyond']} beyond it), median over passes; op_p50_ms likewise")
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for failure in info["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env_record))
    return report


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "causalspaces" / "__init__.py").is_file():
        print(f"error: no causalspaces package under {root / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        report = run_one(root, name, args.seed, args.seconds, args.trace)
        if report is None:
            return 1
        reports[name] = report
    if len(reports) == 1:
        result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{k}": m for w, r in reports.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
