"""One workload process: set up from the seed, run timed passes, report as JSON.

Started by run.py, never by hand.  With ``--setup-only`` it stops once the
inputs exist, which is how run.py samples set-up time several times.  The last
line of standard output is one JSON object for run.py.

Each item is timed on its own, and a pass's wall time is reported as the sum
over items of each item's fastest time across passes.  On a shared 2-vCPU
host, speed dropped by up to 1.7x in episodes of a few seconds, and a fixed
item's time had an interquartile range of 15-35% of its median within 15 s,
in CPU time as much as in wall time.  Contention only ever adds time, so the
fastest of several passes is the least disturbed estimate of an item's cost.

Every item is deterministic given the seed, so ``attempted`` counts items, not
item runs, and ``failed`` counts items that did not pass.  An item whose
outcome or digest changes between passes is a wrong output.

Untraced passes give the end-to-end numbers.  With ``--trace 1`` passes
alternate untraced and traced, so the trace overhead is measured in the same
process; the per-layer numbers are medians over the traced passes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 2  # digests are compared between passes; traced runs need both kinds


def _import_program():
    """Import hardyheat from this checkout's sources, never from elsewhere."""
    if not (SRC / "hardyheat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hardyheat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hardyheat

    if Path(hardyheat.__file__).resolve().parent != SRC / "hardyheat":
        sys.exit(f"perfbench: imported hardyheat from {hardyheat.__file__}, not {SRC}")


def erf_probe() -> float:
    """Seconds for a fixed scipy.special.erf loop: a machine-speed diagnostic."""
    import numpy as np
    from scipy.special import erf

    x = np.linspace(-5.0, 5.0, 10_000)
    t = time.perf_counter()
    for _ in range(300):
        erf(x)
    return time.perf_counter() - t


def run_pass(items, recorder=None) -> list[dict]:
    """One pass over the items; an exception fails its item and the pass goes on."""
    outcomes = []
    for item in items:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = item.run()
            else:
                with recorder.span(item.span):
                    out = item.run()
            outcome = {"passed": out.passed, "digest": out.digest, "correct": out.correct}
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = {"passed": False, "correct": False, "error": True}
        outcome.update(label=item.label, seconds=time.perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes


def item_times(passes: list[list[dict]]) -> dict[str, list[float]]:
    """Each item's times, one per pass, in pass order."""
    times: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            times.setdefault(o["label"], []).append(o["seconds"])
    return times


def item_minima(passes: list[list[dict]]) -> dict[str, float]:
    """Each item's fastest time over the passes; their sum is the pass time."""
    return {label: min(v) for label, v in item_times(passes).items()}


def _median_totals(snapshots: list[dict]) -> dict:
    """Per span and counter, the median over traced passes (0 where absent)."""
    names = {n for snap in snapshots for n in snap}
    return {
        name: {
            key: statistics.median(snap.get(name, {}).get(key, 0) for snap in snapshots)
            for key in {k for snap in snapshots for k in snap.get(name, {})}
        }
        for name in names
    }


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    items = WORKLOADS[args.workload](args.seed)
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    probes = [erf_probe()]
    recorder = spans.Recorder()
    passes = {False: [], True: []}  # untraced, traced
    cpus, snapshots, absent = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        done = len(passes[False]) + len(passes[True])
        traced = bool(args.trace) and done % 2 == 1
        recorder.run_id = f"{args.workload}-seed{args.seed}-pass{done}"
        recorder.reset_totals()
        t0, c0 = time.perf_counter(), time.process_time()
        if traced:
            with spans.traced(recorder) as absent:
                outcomes = run_pass(items, recorder)
            cpus.append(time.process_time() - c0)
            snapshots.append(recorder.totals)
        else:
            outcomes = run_pass(items)
        passes[traced].append(outcomes)
        wall = time.perf_counter() - t0
        if done + 1 >= MIN_PASSES and time.perf_counter() + wall > deadline:
            break
    probes.append(erf_probe())

    every = [o for outcomes in passes[False] + passes[True] for o in outcomes]
    seen: dict[str, set] = {}  # (passed, digest) per item: one value if deterministic
    for o in every:
        seen.setdefault(o["label"], set()).add((o["passed"], o.get("digest")))
    report = {
        "ready_at": ready_at,
        "passes": len(passes[False]) + len(passes[True]),
        "attempted": len(seen),
        "failed": len({o["label"] for o in every if not o["passed"]}),
        "errors": sum(o.get("error", False) for o in every),
        "incorrect": sum(not o["correct"] for o in every),
        "unstable_items": sorted(k for k, v in seen.items() if len(v) > 1),
        "failed_items": sorted({o["label"] for o in every if not o["passed"]}),
        "item_s": item_minima(passes[False]),
        "pass_wall_s": [sum(o["seconds"] for o in p) for p in passes[False]],
        "item_samples_s": item_times(passes[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_erf_s": probes,
        "environment": _environment(),
    }
    report["wall_s"] = sum(report["item_s"].values())
    if args.trace:
        traced_walls = [sum(o["seconds"] for o in p) for p in passes[True]]
        report.update({
            "traced_pass_wall_s": traced_walls,
            "layers": _median_totals(snapshots),
            "absent": absent,
            "cpu_s": statistics.median(cpus),
            "cpu_util": statistics.median(c / w for c, w in zip(cpus, traced_walls)),
            "trace_overhead_s": sum(item_minima(passes[True]).values()) - report["wall_s"],
        })
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": recorder.spans}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
