"""The benchmark's workloads: seeded items over the battery and the grid operators.

An item is one call into the library plus its check.  Experiment items call
``verify.run_experiment`` (what ``hardyheat run`` dispatches to) with
``Settings(seed=seed, ...)``; an item passes iff its result passed, and its
digest (sha256 of the sorted-key ``to_json_dict()``) must not change between
passes.  Adjoint items apply ``apply_T`` and ``apply_Tstar`` to seeded random
inputs and pass iff ``<Tf, w> - <f, T*w>`` is at rounding scale and every
output value is finite.  Between them the two workloads run each of the ten
experiments once; README.md says why each workload exists.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from hardyheat import heatop, verify
from hardyheat.grid import GridFunction, SpaceTimeGrid

# |<Tf, w> - <f, T*w>| relative to the Cauchy-Schwarz scale ‖Tf‖‖w‖ + ‖f‖‖T*w‖.
# Both sides reduce to the same symmetric kernel matrices, so only rounding
# separates them (measured at most 3e-17); a wrong slab or sign is O(1).
ADJOINT_RTOL = 1e-13


@dataclass(frozen=True)
class Outcome:
    passed: bool  # counts toward failed when False
    digest: str | None = None  # experiments only: must repeat across passes
    correct: bool = True  # False when the benchmark's own check of the output fails


@dataclass(frozen=True)
class Item:
    label: str  # unique within the workload
    span: str  # span name in a traced pass
    run: Callable[[], Outcome]


def _experiment(name: str, seed: int, **overrides) -> Item:
    settings = verify.Settings(seed=seed, **overrides)

    def run() -> Outcome:
        result = verify.run_experiment(name, settings)
        blob = json.dumps(result.to_json_dict(), sort_keys=True).encode()
        return Outcome(bool(result.passed), hashlib.sha256(blob).hexdigest())

    label = name + "".join(f"[{k}={v}]" for k, v in sorted(overrides.items()))
    return Item(label, f"verify.{name}", run)


def _adjoint_pair(rng, n: int, nx: int, nt: int, boundary: str) -> Item:
    grid = SpaceTimeGrid(n, 4.0, nx, 0.0, 4.0, nt)
    f = GridFunction(grid, rng.standard_normal(grid.shape))
    w = GridFunction(grid, rng.standard_normal(grid.shape))
    spec = heatop.KernelSpec(n=n, boundary=boundary)

    def run() -> Outcome:
        # module attribute lookups, so a traced pass sees these calls
        Tf = heatop.apply_T(f, spec).values
        Tw = heatop.apply_Tstar(w, spec).values
        lhs = float(np.vdot(Tf, w.values))
        rhs = float(np.vdot(f.values, Tw))
        norm = np.linalg.norm
        scale = norm(Tf) * norm(w.values) + norm(f.values) * norm(Tw)
        finite = bool(np.isfinite(Tf).all() and np.isfinite(Tw).all())
        ok = finite and abs(lhs - rhs) <= ADJOINT_RTOL * scale
        return Outcome(ok, correct=ok)

    label = f"adjoint[n={n},{'x'.join([str(nx)] * n)}x{nt},{boundary}]"
    return Item(label, "adjoint_pair", run)


def _molecules(seed: int) -> list[Item]:
    return [
        _experiment("atom_images", seed, n_atoms=2),
        _experiment("tstar_images", seed, n_tstar_atoms=1),
        _experiment("boundary_dirichlet", seed),
        _experiment("boundary_neumann", seed),
    ]


def _grids(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    # roundtrips with n=2 is left out: its work is set by a few random 2-d
    # balls (at most 20) and varied 4x between seeds, far beyond any bound
    return [
        _experiment("telescoping_oracle", seed, oracle_inputs=5),
        _experiment("l2_stability", seed),
        _experiment("lp_probe", seed),
        _adjoint_pair(rng, 1, 128, 128, heatop.WHOLE_SPACE),
        _adjoint_pair(rng, 1, 192, 192, heatop.WHOLE_SPACE),
        _adjoint_pair(rng, 1, 128, 128, heatop.HALF_LINE_DIRICHLET),
        _adjoint_pair(rng, 2, 64, 32, heatop.WHOLE_SPACE),
        _experiment("roundtrips", seed, n=1),
        _experiment("growth_T", seed),
        _experiment("growth_Tstar", seed),
    ]


WORKLOADS: dict[str, Callable[[int], list[Item]]] = {
    "molecules": _molecules,
    "grids": _grids,
}
