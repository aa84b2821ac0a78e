#!/usr/bin/env python3
"""Walk through the counting layer: matrix rank counts, bounded weight
decompositions, and exact sum-rank sphere/ball volumes with their log_q
bounds.

Run:  python3 demos/volumes_and_counting.py
"""

from sumrank import (
    CodeParams,
    ball_volume,
    gamma_q,
    nm_count,
    partition_count,
    partitions_iter,
    sphere_lower_bound_logq,
    sphere_upper_bound_logq,
    sphere_volume,
    sphere_volume_direct,
)
from sumrank.combinatorics import logq_int

params = CodeParams(q=2, m=2, eta=2, ell=2)
print(f"ambient space: F_(q^m)^n with q={params.q}, m={params.m}, "
      f"eta={params.eta}, ell={params.ell}  (n={params.n}, mu={params.mu})")
print(f"space size q^(mn) = {params.space_size}")

print("\nper-block rank counts (m x eta matrices over F_q by rank):")
for t in range(params.mu + 1):
    print(f"  rank {t}: {nm_count(params.eta, params.m, t, params.q)}")

print("\nweight decompositions of t=2 into ell=2 parts bounded by mu=2:")
for parts in partitions_iter(2, params.ell, params.mu):
    print(f"  {parts}")
print(f"count via inclusion-exclusion: {partition_count(2, params.ell, params.mu)}")

print("\nsphere and ball volumes (power recurrence vs direct decomposition sum):")
print(f"{'t':>3} {'sphere':>8} {'direct':>8} {'ball':>8}")
total = 0
for t in range(params.ell * params.mu + 1):
    s = sphere_volume(params, t)
    total += s
    print(f"{t:>3} {s:>8} {sphere_volume_direct(params, t):>8} {ball_volume(params, t):>8}")
assert total == params.space_size
print(f"spheres partition the space: sum = {total} = q^(mn)")

print(f"\ngamma_q constants: gamma_2={gamma_q(2):.4f}  gamma_3={gamma_q(3):.4f}  "
      f"gamma_4={gamma_q(4):.4f}")
print("\nlog_q sandwich around the exact sphere volume:")
for t in range(1, params.ell * params.mu + 1):
    lo = sphere_lower_bound_logq(params, t)
    mid = logq_int(sphere_volume(params, t), params.q)
    hi = sphere_upper_bound_logq(params, t)
    print(f"  t={t}: {lo:8.3f} <= {mid:8.3f} <= {hi:8.3f}")
