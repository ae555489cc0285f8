"""Run configuration: a flat key=value layer over the experiment settings.

A run is determined by (experiments, Settings, out_dir); only the
experiments and the Settings affect its results.  The config file format is
one `key = value` per line so manifests diff line-by-line; command-line flags
override file values.  Tuples are comma-separated in both directions, and
every key round-trips through :func:`dumps` unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

from .verify import EXPERIMENTS, Settings

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_kv",
    "parse_value",
    "format_value",
    "canonical",
    "load_config",
    "dumps",
    "tmax_horizons",
]


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


_SETTINGS_FIELDS = {f.name: f for f in fields(Settings)}
_COUNTS = ("mean_times", "n_atoms", "n_tstar_atoms", "l2_inputs", "oracle_inputs",
           "n_roundtrip_balls", "n_hz_given")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, flat and serializable.

    `experiments` holds experiment ids or aliases; the empty tuple means
    "all".  `out_dir` is where the artifacts go; it cannot change a result.
    Experiments run one after another, in this order.
    """

    experiments: tuple[str, ...] = ()
    out_dir: str = "results"
    settings: Settings = field(default_factory=Settings)

    def resolved_experiments(self) -> tuple[str, ...]:
        """Registry names in the order given, each once (its first occurrence)."""
        return tuple(dict.fromkeys(map(canonical, self.experiments))) or tuple(EXPERIMENTS)


def canonical(name: str) -> str:
    """Registry name of an experiment id or alias; '-' and '_' are interchangeable."""
    key = name.replace("-", "_")
    key = {e.alias: e.name for e in EXPERIMENTS.values() if e.alias}.get(key, key)
    if key not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise ConfigError(f"unknown experiment {name!r}; known: {known}")
    return key


def parse_value(key: str, raw: str, kind: type) -> object:
    """raw as a Settings value: kind is int, float, or tuple (of floats).

    Every float, a tuple's entries included, must be finite.
    """
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        parts = [raw] if kind is float else [p.strip() for p in raw.split(",") if p.strip()]
        values = tuple(float(p) for p in parts)
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite")
        return values[0] if kind is float else values
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def tmax_horizons(tmax: float) -> str:
    """The growth_T_values of a --tmax: the dyadic horizons 8, 16, 32, … <= tmax."""
    # the doubling below never passes an infinite tmax
    if not math.isfinite(tmax):
        raise ConfigError(f"--tmax must be finite, got {tmax!r}")
    values, v = [], 8.0
    while v <= tmax:
        values.append(v)
        v *= 2.0
    return format_value(tuple(values))


def parse_kv(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines skipped."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = raw.strip()
    return out


def _apply(config: RunConfig, pairs: Mapping[str, str]) -> RunConfig:
    settings_updates: dict[str, object] = {}
    run_updates: dict[str, object] = {}
    for key, raw in pairs.items():
        if key == "experiments":
            names = tuple(p.strip() for p in raw.split(",") if p.strip())
            run_updates["experiments"] = names
        elif key == "out_dir":
            run_updates["out_dir"] = raw.strip()
        elif key in _SETTINGS_FIELDS:
            f = _SETTINGS_FIELDS[key]
            kind = {"int": int, "float": float}.get(f.type.split("[")[0], tuple)
            settings_updates[key] = parse_value(key, raw, kind)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    settings = replace(config.settings, **settings_updates)
    return replace(config, settings=settings, **run_updates)


def load_config(path: str | Path | None, overrides: Mapping[str, str] = {}) -> RunConfig:
    """File values first, then overrides on top (flags win)."""
    config = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {p}: {exc}") from None
        config = _apply(config, parse_kv(text))
    config = _apply(config, overrides)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    # an empty out_dir would write the artifacts into the working directory
    if not config.out_dir:
        raise ConfigError("out_dir must name a directory, got an empty value")
    s = config.settings
    if s.n not in (1, 2):
        raise ConfigError(f"n must be 1 or 2, got {s.n}")
    # numpy's generators take no negative seed: every seeded experiment would raise
    if s.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {s.seed}")
    # a count of 0 samples nothing: its gates would certify an empty set
    for key in _COUNTS:
        if getattr(s, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(s, key)}")
    if s.J < 2:
        raise ConfigError(f"J must be at least 2 (a decay fit needs two annuli), got {s.J}")
    if len(s.oracle_grid) != 4:
        raise ConfigError("oracle_grid needs four entries: L, nx, T, nt")
    L, nx, T, nt = s.oracle_grid
    for name, v in (("nx", nx), ("nt", nt)):
        if v < 1 or abs(v - round(v)) > 1e-9:
            raise ConfigError(f"oracle_grid {name} must be a positive integer, got {v}")
    if L <= 0 or T <= 0:
        raise ConfigError("oracle_grid extents must be positive")
    # growth_T fits a line to the growth table and takes its increments
    if len(s.growth_T_values) < 2:
        raise ConfigError("growth_T_values needs at least two horizons, got "
                          f"{len(s.growth_T_values)}")
    if any(v <= 4.0 for v in s.growth_T_values):
        raise ConfigError("growth_T_values must exceed the start time 4")
    if list(s.growth_T_values) != sorted(set(s.growth_T_values)):
        raise ConfigError("growth_T_values must be strictly increasing")
    if not s.lp_exponents:
        raise ConfigError("lp_exponents needs at least one exponent")
    if any(p <= 1.0 for p in s.lp_exponents):
        raise ConfigError("lp_exponents must exceed 1: the Lp bound holds for p > 1 only")
    for name in config.resolved_experiments():
        error = EXPERIMENTS[name].dims_error(s.n)
        if error is not None:
            raise ConfigError(error)


def dumps(config: RunConfig, run_keys: bool = True) -> str:
    """Canonical flat dump: run keys then settings keys, sorted, one per line.

    run_keys=False leaves out out_dir, which cannot change a result; that
    is the run manifest's header.
    """
    lines = ["experiments = " + ",".join(config.resolved_experiments())]
    if run_keys:
        lines.append(f"out_dir = {config.out_dir}")
    s = dataclasses.asdict(config.settings)
    lines += [f"{k} = {format_value(s[k])}" for k in sorted(s)]
    return "\n".join(lines) + "\n"
