#!/usr/bin/env python3
"""Run experiments over seeds 0..N and print each verdict with its measured values.

One line per (experiment, seed): the verdict and every scalar in the result's
``measured`` record, which includes the value each gate compares against its
bound.  A closing line per experiment gives the pass rate, followed by one
line per gate that applies: the worst value over the seeds that ran, the
bound and the signed slack (positive passes; relative to |bound| when the
bound is a nonzero number, absolute otherwise).  Defaults to the
four molecule experiments at their full default sizes; ``--set key=value``
overrides any flat settings key, as in ``hardyheat run``.  ``--json PATH``
also writes the records, so two checkouts can be compared value by value.
``--against OLD.json`` reads such a file from an earlier run and prints, for
each experiment and measured key, the largest relative drift of this run
from it (|new - old| / |old|), and every seed whose verdict changed.

    python3 scripts/seed_sweep.py --seeds 9
    python3 scripts/seed_sweep.py --seeds 3 --set n_atoms=5 atom_images
    python3 scripts/seed_sweep.py --seeds 19 --json new.json --against old.json
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardyheat.config import ConfigError, load_config
from hardyheat.verify import EXPERIMENTS, run_experiment

MOLECULES = ("atom_images", "tstar_images", "boundary_dirichlet", "boundary_neumann")


def scalars(measured: dict) -> dict:
    return {k: v for k, v in sorted(measured.items())
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def drift(old: float, new: float) -> float:
    """|new - old| / |old|; 0 when both are 0, inf when only old is."""
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def print_drifts(records: list, old_records: list) -> None:
    """Largest relative drift per (experiment, measured key), and verdict changes."""
    old = {(r["experiment"], r["seed"]): r for r in old_records}
    worst = {}  # (experiment, key) -> (drift, seed, old value, new value)
    for r in records:
        before = old.get((r["experiment"], r["seed"]))
        if before is None:
            continue
        if before["passed"] != r["passed"]:
            print(f"{r['experiment']} seed={r['seed']} verdict "
                  f"{'pass' if before['passed'] else 'FAIL'} -> "
                  f"{'pass' if r['passed'] else 'FAIL'}", flush=True)
        new_values, old_values = r.get("measured", {}), before.get("measured", {})
        for key in sorted(new_values.keys() & old_values.keys()):
            d = drift(old_values[key], new_values[key])
            if (r["experiment"], key) not in worst or d > worst[r["experiment"], key][0]:
                worst[r["experiment"], key] = (d, r["seed"], old_values[key], new_values[key])
    for (name, key), (d, seed, a, b) in worst.items():
        print(f"{name} drift {key}: {d:.3g} at seed={seed} ({a:.17g} -> {b:.17g})",
              flush=True)


def run(args: argparse.Namespace) -> int:
    if any("=" not in kv for kv in args.set):
        raise ConfigError("--set takes KEY=VALUE")
    overrides = dict(kv.split("=", 1) for kv in args.set)
    records = []
    for name in args.experiments or MOLECULES:
        passes = 0
        worst = {}  # gate -> (slack, relative, value, limit, seed)
        for seed in range(args.seeds + 1):
            config = load_config(None, {**overrides, "experiments": name,
                                        "seed": str(seed)})
            try:
                res = run_experiment(name, config.settings)
            except Exception as exc:  # a runtime failure fails this seed only
                print(f"{name} seed={seed} ERROR {exc!r}", flush=True)
                records.append({"experiment": name, "seed": seed,
                                "passed": False, "error": repr(exc)})
                continue
            passes += bool(res.passed)
            for gate in EXPERIMENTS[name].gates:
                if config.settings.n in gate.dims:
                    value, limit = res.measured[gate.key], gate.limit(config.settings)
                    margin = (*gate.slack(value, limit), value, limit, seed)
                    if gate not in worst or margin[0] < worst[gate][0]:
                        worst[gate] = margin
            values = scalars(res.to_json_dict()["measured"])
            records.append({"experiment": name, "seed": seed,
                            "passed": bool(res.passed), "measured": values})
            bits = " ".join(f"{k}={v:.10g}" for k, v in values.items())
            print(f"{name} seed={seed} {'pass' if res.passed else 'FAIL'} {bits}",
                  flush=True)
        print(f"{name}: {passes}/{args.seeds + 1} seeds pass", flush=True)
        for gate, (margin, relative, value, limit, seed) in worst.items():
            print(f"{name} gate {gate.key} {gate.op} {limit}: worst {float(value):.10g} "
                  f"at seed={seed}, slack {margin:+.4g} "
                  f"{'relative' if relative else 'absolute'}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    if args.against:
        print_drifts(records, json.loads(Path(args.against).read_text()))
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("experiments", nargs="*", help="registry names (default: molecules)")
    ap.add_argument("--seeds", type=int, default=9, help="sweep seeds 0..N (default 9)")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a settings key; repeatable")
    ap.add_argument("--json", metavar="PATH", help="also write the records as JSON")
    ap.add_argument("--against", metavar="OLD.json",
                    help="print the largest drift of each measured key from a --json file")
    args = ap.parse_args()
    try:
        sys.exit(run(args))
    except ConfigError as exc:
        sys.exit(f"seed_sweep: {exc}")
