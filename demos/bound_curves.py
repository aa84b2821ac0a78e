#!/usr/bin/env python3
"""Rate-versus-distance curves: Singleton, sphere-packing and
Gilbert-Varshamov bounds in exact, simplified and asymptotic form.

Two regimes are interesting:
  * bounded block size (eta, m fixed, many blocks) -- the simplified curves
    sit a few percent away from the exact ones;
  * growing block size (eta = ell = m) -- everything collapses onto the
    asymptotic curves already at moderate n.

The defaults keep n small so the script runs in a couple of seconds; pass
--full-scale for the n = 2^11 / 2^10 runs (about half a minute).

The same sweep is available from the command line:
  sumrank curve-sp-gv --q 2 --m 16 --eta 8 --n 2048 --grid 64 --out curve.csv
"""

import argparse

from sumrank import CodeParams
from sumrank.cli import curve_rows

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--full-scale", action="store_true",
                    help="use n = 2^11 (bounded) and n = 2^10 (growing)")
parser.add_argument("--grid", type=int, default=10)
args = parser.parse_args()

if args.full_scale:
    bounded = CodeParams(q=2, m=16, eta=8, ell=256)
    growing = CodeParams(q=16, m=32, eta=32, ell=32)
else:
    bounded = CodeParams(q=2, m=16, eta=8, ell=16)
    growing = CodeParams(q=16, m=8, eta=8, ell=8)


def _nan(cell):
    return float("nan") if cell == "" else cell


for label, params, asym_mode in (
    ("bounded block size", bounded, "blocks"),
    ("growing block size", growing, "xi"),
):
    print(f"\n== {label}: q={params.q} m={params.m} eta={params.eta} "
          f"ell={params.ell} (n={params.n}) ==")
    print(f"{'delta':>6} {'d':>5} {'single':>7} {'sp':>7} {'sp~':>7} {'sp_asy':>7} "
          f"{'gv':>7} {'gv~':>7} {'gv_asy':>7}")
    for row in curve_rows(params, args.grid, asym_mode):
        delta, d, single, sp, sp_s, _, gv, gv_s, _, sp_a, gv_a = row
        print(f"{delta:6.2f} {d:5d} {single:7.3f} {sp:7.3f} {sp_s:7.3f} "
              f"{max(0.0, sp_a):7.3f} {gv:7.3f} {_nan(gv_s):7.3f} "
              f"{max(0.0, _nan(gv_a)):7.3f}")
print("\n(sp~/gv~ are the simplified bounds; *_asy the asymptotic forms, clamped at 0)")
