#!/usr/bin/env python3
"""How likely is a random systematic code to attain the Singleton bound?

Shows the three lower bounds on the MSRD probability (raw-count, echelon
count, and the subspace-density pair), then sweeps the number of blocks ell
and reports the minimal extension degree m at which each bound becomes
positive.  The echelon-count bound wins for few blocks, the raw-count bound
for many; the crossover is the point of the sweep.

Run:  python3 demos/msrd_genericity.py            (n = 64 sweep, instant)
      python3 demos/msrd_genericity.py --full     (n = 2^9, k = 2^7, q = 4)
"""

import argparse

from sumrank import (
    CodeParams,
    min_extension_degree,
    msrd_prob_bounds_BR,
    msrd_prob_lb_A,
    msrd_prob_lb_U,
)

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--full", action="store_true", help="q=4, n=512, k=128 sweep")
args = parser.parse_args()

print("probability bounds at q=2, m=12, eta=2, ell=4, k=4:")
params, k = CodeParams(q=2, m=12, eta=2, ell=4), 4
a = msrd_prob_lb_A(params, k)
u = msrd_prob_lb_U(params, k)
br = msrd_prob_bounds_BR(params, k, with_upper=False)
print(f"  raw-count lower bound      : {a.lower:.6f} (raw {a.raw_lower:+.6f})")
print(f"  echelon-count lower bound  : {u.lower:.6f} (raw {u.raw_lower:+.6f})")
print(f"  subspace-density lower     : {br.lower:.6f} (raw {br.raw_lower:+.6f})")

if args.full:
    q, n, k = 4, 512, 128
else:
    q, n, k = 4, 64, 16

print(f"\nminimal extension degree for a positive bound, q={q}, n={n}, k={k}:")
print(f"{'ell':>5} {'m_A':>8} {'m_U':>8} {'m_U_printed':>12} {'m_BR':>8}  winner")
for ell in [d for d in range(1, n + 1) if n % d == 0]:
    m_a = min_extension_degree(q, n, k, ell, "A")
    m_u = min_extension_degree(q, n, k, ell, "U-lemma")
    m_up = min_extension_degree(q, n, k, ell, "U-printed")
    m_br = min_extension_degree(q, n, k, ell, "BR")
    winner = "echelon" if m_u < m_a else ("raw-count" if m_a < m_u else "tie")
    print(f"{ell:>5} {m_a:>8} {m_u:>8} {m_up:>12} {m_br:>8}  {winner}")

print("\n(the same sweep as CSV:  sumrank mmin --q 4 --n 512 --k 128)")
