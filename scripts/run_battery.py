#!/usr/bin/env python3
"""Run the whole certification battery and print a one-screen summary.

With --out the run goes through the CLI (JSON, CSV and manifest artifacts on
disk) and the table is read back from the JSON; otherwise experiments run in
memory.  Each line shows the measured value behind every gate the experiment
declares, so a green run takes one glance and a near miss shows.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardyheat.cli import main as cli_main
from hardyheat.verify import EXPERIMENTS, Settings, run_experiment


def fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3e}" if (v != 0 and abs(v) < 1e-2) else f"{v:.4g}"
    return str(v)


def summarize(name: str, passed: bool, measured: dict) -> None:
    # a failed run of an experiment that raised records no measured values
    keys = dict.fromkeys(g.key for g in EXPERIMENTS[name].gates if g.key in measured)
    bits = ", ".join(f"{k}={fmt(measured[k])}" for k in keys)
    print(f"{'pass' if passed else 'FAIL':<4}  {name:<20} {bits}")


def run(args: argparse.Namespace) -> int:
    if args.out:
        code = cli_main(["run", "--seed", str(args.seed), "--out", args.out])
        print()
        for name in EXPERIMENTS:
            doc = json.loads((Path(args.out) / f"{name}.json").read_text())
            summarize(name, doc["passed"], doc["measured"])
        return code
    settings = Settings(seed=args.seed)
    worst = 0
    for name in EXPERIMENTS:
        res = run_experiment(name, settings)
        summarize(name, res.passed, res.measured)
        worst = max(worst, 0 if res.passed else 1)
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="write artifacts through the CLI as well")
    sys.exit(run(ap.parse_args()))
