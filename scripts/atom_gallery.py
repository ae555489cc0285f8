#!/usr/bin/env python3
"""Certify a few random atoms and print their annulus decay profiles.

Each row shows the measured annulus norms M_j of Ta next to the envelope
C 2^(-j/2): the certification is the visible straight line in log2 scale.
An atom passes when its fitted decay exponent reaches alpha
(MoleculeReport.certifies); the moment gate is the atom_images experiment's.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardyheat.verify import Settings, image_molecule_report, random_hz_atom


def run(args: argparse.Namespace) -> int:
    settings = Settings()
    ok = True
    for i in range(args.atoms):
        a, Q = random_hz_atom(args.seed * 7919 + i)
        report, _ = image_molecule_report(a, Q, "T", settings.alpha, settings.J)
        passed = report.certifies()
        ok &= passed
        print(f"atom {i}: r={Q.radius:.3f} t0={Q.t0:.3f} "
              f"fitted_alpha={report.fitted_alpha:.3f} "
              f"constant={report.constant:.4f} moment={report.moment:+.2e} "
              f"[{'pass' if passed else 'FAIL'}]")
        env = report.constant
        for j, M in zip(report.js, report.weighted_norms):
            bar = "#" * max(1, int(40 * M / max(report.weighted_norms)))
            print(f"    j={j}  M_j={M:.5e}  C*2^-j/2={env * 2.0 ** (-j / 2):.5e}  {bar}")
    return 0 if ok else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--atoms", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    # no atom certifies nothing, and numpy's generators take no negative seed
    if args.atoms < 1:
        ap.error(f"--atoms must be at least 1, got {args.atoms}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    sys.exit(run(args))
