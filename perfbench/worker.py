"""Run one workload in this (fresh) process and write its report as JSON.

Started by run.py, once per benchmark run:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Untraced (--trace 0): set up SETUP_RUNS times and keep the last, then run
passes of the workload's fixed job until --seconds have elapsed, then the
negative controls. Traced (--trace 1): the same set-up, one untraced pass
as the overhead baseline, then traced passes until --seconds have elapsed.
"""

from time import perf_counter

WORKER_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
TAIL_BEYOND = 10


def run_pass(ops, tracer=None) -> dict:
    """Run one pass; op latencies exclude checking, and so does the pass wall."""
    lat = []
    failures = []
    check_s = 0.0
    t0 = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        a = perf_counter()
        try:
            if tracer is not None and op.span:
                tracer.open(op.span)
                try:
                    out = op.call()
                finally:
                    tracer.close()
            else:
                out = op.call()
            err = None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        b = perf_counter()
        if tracer is not None:
            tracer.end_op()
        if err is None:
            err = op.check(out)
        out = None
        check_s += perf_counter() - b
        lat.append(b - a)
        if err:
            failures.append(f"{op.kind}: {err}")
    return {
        "wall": perf_counter() - t0 - check_s,
        "lat": lat,
        "kinds": [op.kind for op in ops],
        "failures": failures,
    }


def tail(lat: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND samples beyond it, and its percentile."""
    s = sorted(lat)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if ".bytes_" in name:
        return "bytes"
    if name.endswith("fraction"):
        return "ratio"
    if name.endswith("_err"):
        return "abs"
    return "count"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import causalspaces

    if Path(causalspaces.__file__).resolve().parent != (SRC / "causalspaces").resolve():
        print(f"causalspaces imported from {causalspaces.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import_s = perf_counter() - WORKER_START

    work = ROOT / ".perfbench_run" / f"work-{os.getpid()}"
    checker = checks.Checker()
    make = workloads.WORKLOADS[args.workload]
    try:
        setups = []
        wl = None
        for r in range(SETUP_RUNS):
            wl = None  # drop the previous set-up before building the next
            gc.collect()
            shutil.rmtree(work, ignore_errors=True)
            t = perf_counter()
            wl = make(args.seed, work / f"setup{r}", checker)
            wl.setup()
            wl.warm()
            setups.append(perf_counter() - t)
        if tracer is not None:
            for space in wl.resident_spaces():
                tracer.track(space)

        base = run_pass(wl.ops()) if tracer is not None else None
        passes = []
        t_start = perf_counter()
        while not passes or perf_counter() - t_start < args.seconds:
            passes.append(run_pass(wl.ops(), tracer))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        controls = wl.controls()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = passes + ([base] if base else [])
    failures = [f for ps in timed for f in ps["failures"]]
    attempted = sum(len(ps["lat"]) for ps in timed)
    n_ops = len(passes[0]["lat"])
    tails = [tail(ps["lat"]) for ps in passes]
    walls = [ps["wall"] for ps in passes]

    kind_s = {}
    for ps in passes:
        for kind, t in zip(ps["kinds"], ps["lat"]):
            kind_s[kind] = kind_s.get(kind, 0.0) + t
    total_wall = sum(walls)

    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median([np.percentile(ps["lat"], 50) for ps in passes]),
            "op_tail_ms": 1e3 * statistics.median([t for t, _ in tails]),
            "peak_rss_mb": rss_mb,
        }
    else:
        metrics = tracer.metrics(len(passes), total_wall, base["wall"], walls, checker.oracle_max_abs_err)
        tracer.write(str(ROOT / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not failures and all(err for _, err in controls),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
        "info": {
            "passes": len(passes),
            "ops_per_pass": n_ops,
            "tail_percentile": tails[0][1],
            "tail_samples_beyond": TAIL_BEYOND,
            "fail_rate": len(failures) / attempted,
            "failures": failures[:10],
            "controls": {name: err for name, err in controls},
            "import_s": import_s,
            "setup_runs_s": setups,
            "pass_walls_s": walls,
            "op_share_of_wall": {k: v / total_wall for k, v in sorted(kind_s.items())},
            "oracle_max_abs_err": checker.oracle_max_abs_err,
            "numpy": np.__version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
