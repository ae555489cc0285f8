"""hardyheat benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload molecules --seed 0 --seconds 55 --trace 0

Run it from anywhere inside a checkout that holds ``src/hardyheat``; nothing
needs building.  Set-up time is sampled in seven fresh processes (process
start, ``import hardyheat`` and the workload's inputs); the middle one goes on
to the timed passes.  Metric names and units come from BENCHMARK.json: with
``--trace 0`` its end-to-end metrics, with ``--trace 1`` its per-layer ones.
The last line of standard output is the result object; the line before it is
the run record, also written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh processes timed to "inputs ready", half before and half after the
# timed passes so that one slow spell of the host cannot cover them all; with
# the timed process itself their median is setup_s
SETUP_SAMPLES_EACH_SIDE = 3
TIME_LIMIT_S = 170.0  # the whole run, set-up samples included
# one BLAS thread: the figures in README.md were taken that way, and a second
# thread on a small machine adds noise, not speed
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (its start time, its JSON report)."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: workload process exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload process exited with {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "hardyheat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hardyheat sources under {ROOT / 'src'}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    sides = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE

    def setup_samples() -> list[float]:
        reps = [_worker(common + ["--setup-only"], deadline) for _ in range(sides)]
        return [r["ready_at"] - t for t, r in reps]

    setups = setup_samples()
    started, rep = _worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    setups += [rep["ready_at"] - started] + setup_samples()

    if args.trace:
        values = {
            "process.cpu_s": rep["cpu_s"],
            "process.cpu_util": rep["cpu_util"],
            "probe.erf_s": statistics.median(rep["probe_erf_s"]),
            "trace.overhead_s": rep["trace_overhead_s"],
            "trace.absent_functions": len(rep["absent"]),
        }
        for metric in spec["per_layer"]:
            span, _, counter = metric["name"].rpartition(".")
            values.setdefault(metric["name"], rep["layers"].get(span, {}).get(counter, 0))
        metrics = spec["per_layer"]
    else:
        values = {
            "wall_s": rep["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        metrics = spec["end_to_end"]
    result = {
        "correct": rep["incorrect"] == 0 and not rep["unstable_items"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        **rep.pop("environment"),
        "setup_s_samples": setups,
        **{k: v for k, v in rep.items() if k != "layers"},
        "fail_frac": rep["failed"] / rep["attempted"],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
