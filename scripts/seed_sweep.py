#!/usr/bin/env python3
"""Run experiments over seeds 0..N and print each verdict with its measured values.

One line per (experiment, seed): the verdict and every scalar in the result's
``measured`` record, which includes the value each gate compares against its
bound.  An experiment that reads no seed runs once, at seed 0, and says so.
A closing line per experiment gives the pass rate, followed by one line per
gate that applies: the worst value over the seeds that ran, the bound and
the signed slack (positive passes; relative to |bound| when the bound is a
nonzero number, absolute otherwise).  Defaults to every experiment at its
full default size; ``--set key=value`` overrides any flat settings key, as
in ``hardyheat run``.  ``--json PATH`` also writes the records, every
measured number included: list- and table-valued keys are flattened to one
entry per index path, such as ``rel_errors[3]``, so two checkouts can be
compared value by value.  ``--against OLD.json`` reads such a file from an
earlier run and prints, for each experiment and measured key, the largest
relative drift of this run from it (|new - old| / |old|) over the key's
index paths and the seeds, every seed whose verdict changed, and every
record and index path that only one of the two runs holds.  Exit status:
0 when every seed passed, 1 when one failed or raised, 2 on a usage error
(a bad --set, a negative --seeds, an unknown experiment, a setting the
config rejects, an --against file that holds no records, a --json path
outside an existing directory), found before the first seed runs.  Experiments are named as in ``hardyheat run``: registry
names or aliases, with '-' and '_' alike.

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

from hardyheat.config import ConfigError, canonical, load_config
from hardyheat.verify import EXPERIMENTS, run_experiment


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def scalars(measured: dict) -> dict:
    return {k: v for k, v in sorted(measured.items()) if _is_number(v)}


def flatten(measured: dict) -> dict:
    """Every number in measured under its index path: key, key[i], key[name][j], ..."""
    flat = {}

    def visit(path: str, v) -> None:
        if _is_number(v):
            flat[path] = v
        elif isinstance(v, dict):
            for k in sorted(v):
                visit(f"{path}[{k}]", v[k])
        elif isinstance(v, (list, tuple)):
            for i, item in enumerate(v):
                visit(f"{path}[{i}]", item)

    for key in sorted(measured):
        visit(key, measured[key])
    return flat


def _key(path: str) -> str:
    """The measured key an index path of flatten() belongs to."""
    return path.split("[", 1)[0]


def drift(old: float, new: float) -> float:
    """|new - old| / |old|; 0 when both are 0, inf when only old is."""
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def print_drifts(records: list, old_records: list) -> None:
    """Largest relative drift per (experiment, measured key), verdict changes,
    and whatever cannot be paired.

    The drift of a list- or table-valued key is the largest over its index
    paths; the line names the path when it is not the key itself.  An
    (experiment, seed) record or an index path that only one side holds gets
    a line of its own, so drift 0 on every key means identical records.
    """
    old = {(r["experiment"], r["seed"]): r for r in old_records}
    new = {(r["experiment"], r["seed"]) for r in records}
    worst = {}  # (experiment, key) -> (drift, seed, path, old value, new value)
    for r in records:
        at_seed = f"{r['experiment']} seed={r['seed']}"
        before = old.get((r["experiment"], r["seed"]))
        if before is None:
            print(f"{at_seed}: only in this run", flush=True)
            continue
        if before["passed"] != r["passed"]:
            print(f"{at_seed} verdict {'pass' if before['passed'] else 'FAIL'} -> "
                  f"{'pass' if r['passed'] else 'FAIL'}", flush=True)
        new_values, old_values = r.get("measured", {}), before.get("measured", {})
        for path in sorted(new_values.keys() ^ old_values.keys()):
            side = "this run" if path in new_values else "the earlier file"
            print(f"{at_seed} {path}: only in {side}", flush=True)
        for path in sorted(new_values.keys() & old_values.keys()):
            d = drift(old_values[path], new_values[path])
            at = (r["experiment"], _key(path))
            if at not in worst or d > worst[at][0]:
                worst[at] = (d, r["seed"], path, old_values[path], new_values[path])
    for name, seed in old:
        if (name, seed) not in new:
            print(f"{name} seed={seed}: only in the earlier file", flush=True)
    for (name, key), (d, seed, path, a, b) in worst.items():
        where = "" if path == key else f" {path}"
        print(f"{name} drift {key}: {d:.3g} at seed={seed}{where} ({a:.17g} -> {b:.17g})",
              flush=True)


def read_records(path: str) -> list:
    """The records of an earlier --json file; ConfigError if it holds none."""
    try:
        records = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--against {path}: {exc}") from None
    if not (isinstance(records, list) and all(
            isinstance(r, dict) and {"experiment", "seed", "passed"} <= r.keys()
            for r in records)):
        raise ConfigError(f"--against {path}: not a list of seed_sweep records")
    return records


def run(args: argparse.Namespace) -> int:
    if args.seeds < 0:
        raise ConfigError(f"--seeds must be at least 0, got {args.seeds}")
    if any("=" not in kv for kv in args.set):
        raise ConfigError("--set takes KEY=VALUE")
    # both files are checked before the first seed runs, so a bad path
    # cannot cost the sweep
    old_records = read_records(args.against) if args.against else None
    if args.json and (Path(args.json).is_dir() or not Path(args.json).parent.is_dir()):
        raise ConfigError(f"--json {args.json}: not a file in an existing directory")
    overrides = dict(kv.split("=", 1) for kv in args.set)
    # a repeated name or an alias beside its name runs once, as in hardyheat run
    names = list(dict.fromkeys(map(canonical, args.experiments))) or list(EXPERIMENTS)
    records = []
    for name in names:
        passes = 0
        worst = {}  # gate -> (slack, relative, value, limit, seed)
        seeded = "seed" in EXPERIMENTS[name].reads
        seeds = range(args.seeds + 1) if seeded else range(1)
        for seed in seeds:
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
            measured = res.to_json_dict()["measured"]
            records.append({"experiment": name, "seed": seed,
                            "passed": bool(res.passed), "measured": flatten(measured)})
            bits = " ".join(f"{k}={v:.10g}" for k, v in scalars(measured).items())
            print(f"{name} seed={seed} {'pass' if res.passed else 'FAIL'} {bits}",
                  flush=True)
        if seeded:
            print(f"{name}: {passes}/{len(seeds)} seeds pass", flush=True)
        else:
            print(f"{name}: seed-independent, run once: {passes}/1 pass", flush=True)
        for gate, (margin, relative, value, limit, seed) in worst.items():
            print(f"{name} gate {gate.key} {gate.op} {limit}: worst {float(value):.10g} "
                  f"at seed={seed}, slack {margin:+.4g} "
                  f"{'relative' if relative else 'absolute'}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    if old_records is not None:
        print_drifts(records, old_records)
    return 0 if all(r["passed"] for r in records) else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("experiments", nargs="*", help="registry names or aliases (default: all)")
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
        print(f"seed_sweep: {exc}", file=sys.stderr)
        sys.exit(2)
