"""Span recorder that traces hardyheat from outside, by wrapping module attributes.

Nothing inside the program is instrumented.  ``traced(recorder)`` replaces each
public function named in ``WRAPPED`` by a wrapper in every hardyheat module
that binds it (the attribute its caller looks up at call time, for example
``hardyheat.verify.apply_T_at``), and puts the originals back on exit.  A
wrapper opens a span around the call and adds the call's work count, computed
from its arguments or result, so counts do not depend on the implementation.

Spans stay in memory; ``Recorder.spans`` is written out by the caller when the
run ends.  A span's self time is its duration minus the part its child spans
cover; spans nest on one thread, so that part is the sum of the children.
"""
from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager

import numpy as np

# modules whose attributes are rebound: every place a wrapped function can be
# looked up from inside the package
NAMESPACES = (
    "hardyheat",
    "hardyheat.space",
    "hardyheat.grid",
    "hardyheat.atoms",
    "hardyheat.heatop",
    "hardyheat.decompose",
    "hardyheat.verify",
)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _points(x_out, n: int) -> int:
    if n == 1:
        return int(np.size(x_out))
    return math.prod(int(np.size(ax)) for ax in x_out)


def _slab_points(forward: bool):
    """Output points × slabs that a lattice-row evaluation of T (or T*) visits."""

    def count(args, kwargs, result):
        f = _arg(args, kwargs, 0, "f")
        t = float(_arg(args, kwargs, 1, "t"))
        edges = f.grid.t_edges
        if forward:
            slabs = sum(1 for a in edges[:-1] if a < t)
        else:
            slabs = sum(1 for b in edges[1:] if b > t)
        return {"slab_points": slabs * _points(_arg(args, kwargs, 2, "x_out"), f.grid.n)}

    return count


def _cells(args, kwargs, result):
    grid = _arg(args, kwargs, 0, "f").grid
    return {"cells": grid.nt * grid.nx**grid.n}


def _cover_out(args, kwargs, result):
    return {"balls": len(result)}


def _cover_in(args, kwargs, result):
    return {"balls": len(_arg(args, kwargs, 0, "cover"))}


# (module, function) -> work counter from (args, kwargs, result), or None
WRAPPED = {
    ("heatop", "apply_T_at"): _slab_points(forward=True),
    ("heatop", "apply_Tstar_at"): _slab_points(forward=False),
    ("heatop", "cell_window_mass"): None,
    ("heatop", "window_mass"): None,
    ("heatop", "apply_T"): _cells,
    ("heatop", "apply_Tstar"): _cells,
    ("heatop", "duhamel_reference"): None,
    ("heatop", "spatial_quadrature_error"): None,
    ("verify", "image_molecule_report"): None,
    ("atoms", "make_atom"): None,
    ("decompose", "whitney_cover"): _cover_out,
    ("decompose", "cover_max_overlap"): _cover_in,
    ("decompose", "restrict_decompose"): None,
    ("decompose", "hz_decompose"): None,
    ("decompose", "molecule_decompose"): None,
    ("decompose", "finite_norm_bound"): None,
}


class Recorder:
    """In-memory spans: [name, start, end, parent index, run id] per span.

    ``totals`` accumulates, per span name, calls, busy and self seconds and
    work counts since the last ``reset_totals``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self.totals: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []  # open spans: [index, start, child seconds]

    def reset_totals(self) -> None:
        self.totals = {}

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields a dict for work counts."""
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        work: dict[str, float] = {}
        frame = [idx, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield work
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            self.spans[idx][1:3] = [frame[1], end]
            if self._stack:
                self._stack[-1][2] += dur
            tot = self.totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            tot["calls"] += 1
            tot["busy_s"] += dur
            tot["self_s"] += dur - frame[2]
            for key, val in work.items():
                tot[key] = tot.get(key, 0) + val


def _wrap(recorder: Recorder, name: str, fn, count):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as work:
            result = fn(*args, **kwargs)
            if count is not None:
                work.update(count(args, kwargs, result))
            return result

    wrapper.__wrapped__ = fn
    return wrapper


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


@contextmanager
def traced(recorder: Recorder):
    """Wrap every function in WRAPPED while the body runs.

    Yields the sorted list of "module.function" names that no longer exist,
    so a later rename shows up as an absent layer instead of a crash.
    """
    modules = [m for m in map(_module, NAMESPACES) if m is not None]
    saved = []
    absent = []
    try:
        for (mod, fname), count in WRAPPED.items():
            orig = getattr(_module(f"hardyheat.{mod}"), fname, None)
            if not callable(orig):
                absent.append(f"{mod}.{fname}")
                continue
            wrapper = _wrap(recorder, f"{mod}.{fname}", orig, count)
            for ns in modules:
                if getattr(ns, fname, None) is orig:
                    saved.append((ns, fname, orig))
                    setattr(ns, fname, wrapper)
        yield sorted(absent)
    finally:
        for ns, fname, orig in reversed(saved):
            setattr(ns, fname, orig)
