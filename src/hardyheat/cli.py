"""Command-line front end: catalogue, describe, and run the experiment battery.

Each run writes one JSON result per experiment (sorted keys, UTF-8), an
RFC-4180 CSV for the growth tables, and a manifest echoing the resolved
configuration keys that affect results (the experiments and every setting)
plus sha256 hashes of every artifact.  Identical configuration and seed give
byte-identical artifacts and manifests, whatever the output directory, so
manifests can be diffed directly.  Experiments run one after another in the
order given; as each finishes, one line on stderr gives its name, verdict
and elapsed wall time.  Timings stay out of the artifacts, which remain
byte-identical.

The configuration and the output directory are validated before any
experiment runs, and an experiment named twice runs once.  An experiment
that raises is recorded as a failed result whose note names the exception;
the other experiments still run and every artifact is written.

Exit codes: 0 all gates passed, 1 at least one gate failed or experiment
raised, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from .atoms import FIT_SLACK
from .config import (ConfigError, RunConfig, canonical, dumps, format_value, load_config,
                     tmax_horizons)
from .verify import EXPERIMENTS, Experiment, ExperimentResult, Gate, run_experiment

__all__ = ["main"]


def _alias(exp: Experiment) -> str | None:
    return exp.alias.replace("_", "-") if exp.alias else None


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(n) for n in EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        tail = f"  [alias: {_alias(exp)}]" if exp.alias else ""
        print(f"{name:<{width}}  {exp.summary}{tail}")
    return 0


def _gate_text(exp: Experiment, gate: Gate, settings) -> str:
    """One gate as `describe` prints it, with the value of its bound."""
    if isinstance(gate.bound, str):
        bound = f"{gate.bound} = {format_value(gate.limit(settings))}"
    else:
        bound = format_value(gate.bound)
    if gate.op == "fit>=":
        text = f"{gate.key} >= {bound} less {FIT_SLACK!r}"
    else:
        text = f"{gate.key} {gate.op} {bound}"
    if not set(exp.dims) <= set(gate.dims):
        text += " (n = " + ",".join(map(str, gate.dims)) + ")"
    return text


def _cmd_describe(args: argparse.Namespace) -> int:
    defaults = RunConfig().settings
    for raw in args.ids:
        exp = EXPERIMENTS[canonical(raw)]
        print(exp.name + (f"  (alias: {_alias(exp)})" if exp.alias else ""))
        print(f"  claim: {exp.claim}")
        print("  gates:")
        for gate in exp.gates:
            print(f"    {_gate_text(exp, gate, defaults)}")
        print("  reads:")
        for key in exp.reads:
            print(f"    {key} = {format_value(getattr(defaults, key))}")
    return 0


def _result_json(result: ExperimentResult) -> bytes:
    text = json.dumps(result.to_json_dict(), sort_keys=True, indent=2,
                      ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _growth_csv(result: ExperimentResult) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["T", "I_T"])
    for row in result.measured["growth_table"]:
        writer.writerow([float(row[0]), float(row[1])])
    return buf.getvalue().encode("utf-8")


def _write_artifacts(config: RunConfig, results: dict[str, ExperimentResult],
                     out: Path) -> list[str]:
    artifacts: dict[str, bytes] = {}
    for name, result in results.items():
        artifacts[f"{name}.json"] = _result_json(result)
        if "growth_table" in result.measured:
            artifacts[f"{name}.csv"] = _growth_csv(result)
    for fname, blob in artifacts.items():
        (out / fname).write_bytes(blob)
    manifest_lines = ["# hardyheat run manifest"]
    manifest_lines += dumps(config, run_keys=False).rstrip("\n").splitlines()
    for fname in sorted(artifacts):
        digest = hashlib.sha256(artifacts[fname]).hexdigest()
        manifest_lines.append(f"artifact {digest}  {fname}")
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n",
                                      encoding="utf-8")
    return sorted(artifacts) + ["manifest.txt"]


def _run_one(name: str, settings) -> ExperimentResult:
    """Run one experiment; an exception becomes its failed record."""
    try:
        return run_experiment(name, settings)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return EXPERIMENTS[name].failure(settings, exc)


def _cmd_run(args: argparse.Namespace) -> int:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.ids:
        overrides["experiments"] = ",".join(args.ids)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.n is not None:
        overrides["n"] = str(args.n)
    if args.tol is not None:
        # the two relative gates the certificates quote
        overrides["moment_rel_tol"] = repr(args.tol)
        overrides["mean_value_tol"] = repr(args.tol)
    if args.tmax is not None:
        overrides["growth_T_values"] = tmax_horizons(args.tmax)
    if args.out is not None:
        overrides["out_dir"] = args.out

    config = load_config(args.config, overrides)
    names = config.resolved_experiments()
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at or above the path: nothing has run yet
        raise ConfigError(f"out_dir {out}: {exc.strerror or exc}") from None

    results = {}
    for name in names:
        start = time.perf_counter()
        results[name] = _run_one(name, config.settings)
        verdict = "pass" if results[name].passed else "FAIL"
        print(f"{name}  {verdict}  {time.perf_counter() - start:.2f} s",
              file=sys.stderr, flush=True)

    written = _write_artifacts(config, results, out)
    failed = [n for n in names if not results[n].passed]
    for name in names:
        print(f"{'pass' if results[name].passed else 'FAIL':<4}  {name}")
    print(f"wrote {len(written)} artifact(s) to {out}")
    if failed:
        print(f"{len(failed)} gate(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyheat",
        description="Certification battery for the parabolic Hardy-space "
                    "laboratory: list, describe, and run experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalogue of experiments")
    p_list.set_defaults(func=_cmd_list)

    p_desc = sub.add_parser(
        "describe", help="claim, gates, and parameters of experiments")
    p_desc.add_argument("ids", nargs="+", metavar="ID")
    p_desc.set_defaults(func=_cmd_describe)

    p_run = sub.add_parser(
        "run",
        help="run experiments and write JSON/CSV artifacts plus a manifest",
        epilog="Flags override config-file values.  "
               "Experiments that support --n 2: "
               + ", ".join(n for n, e in EXPERIMENTS.items() if 2 in e.dims) + ".",
    )
    p_run.add_argument("ids", nargs="*", metavar="ID",
                       help="experiments to run (default: all)")
    p_run.add_argument("--config", metavar="PATH",
                       help="flat key=value configuration file")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--n", type=int, choices=(1, 2),
                       help="spatial dimension")
    p_run.add_argument("--tmax", type=float,
                       help="largest dyadic horizon for the growth table")
    p_run.add_argument("--tol", type=float,
                       help="relative moment/mean tolerance gates")
    p_run.add_argument("--out", metavar="DIR", help="artifact directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any flat config key (repeatable)")
    p_run.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
