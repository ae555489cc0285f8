#!/usr/bin/env python3
"""Trace the two logarithmic growth curves behind the unboundedness results.

For T: I(T) = integral of |Tf| over (4, T) x {|x| <= sqrt(t)/2} with
f = chi_{(0,1)x(-1,1)}.  For T*: G(T) = double integral of |d_t p_t| from
t = 1.  Both tables print the dyadic increments next to the c*ln(2) they
should approach; watching the increment column flatten IS the result.
Exit status: 0 when both tables pass their gates, 1 when one fails, 2 when
the config rejects the horizons (--tmax below 16 gives fewer than two; a
non-finite --tmax is rejected).
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardyheat.config import ConfigError, load_config, tmax_horizons
from hardyheat.verify import C_TSTAR, growth_T, growth_Tstar


def table(name: str, rows: list[list[float]], target: float) -> None:
    print(f"\n{name}  (dyadic increment should approach {target:.6f})")
    print(f"{'T':>8}  {'I(T)':>12}  {'I(2T)-I(T)':>12}")
    prev = None
    for T, I in rows:
        inc = "" if prev is None else f"{I - prev:12.6f}"
        print(f"{T:8.0f}  {I:12.6f}  {inc:>12}")
        prev = I


def run(args: argparse.Namespace) -> int:
    settings = load_config(None, {"growth_T_values": tmax_horizons(args.tmax)}).settings
    rt = growth_T(settings)
    table("T on the indicator box", rt.measured["growth_table"],
          rt.measured["log_slope"] * math.log(2.0))
    rs = growth_Tstar(settings)
    table("T* kernel mass", rs.measured["growth_table"],
          C_TSTAR * math.log(2.0) * 2.0)  # table steps are 4x in T
    print(f"\nfitted slopes: T {rt.measured['log_slope']:.6f},  "
          f"T* {rs.measured['log_slope']:.6f} (c = {C_TSTAR:.6f})")
    return 0 if (rt.passed and rs.passed) else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=float, default=128.0,
                    help="largest dyadic horizon for the T table")
    try:
        sys.exit(run(ap.parse_args()))
    except ConfigError as exc:
        print(f"growth_curves: {exc}", file=sys.stderr)
        sys.exit(2)
