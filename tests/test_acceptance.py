"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).

Criterion 6's bounded-block half is implemented at its stated tolerance and
marked as a strict expected failure: the simplified bounds replace the ball
volume by gamma_q-based estimates, and at (q=2, eta=8, m=16, n=2^11) the
resulting rate gap is provably at least [ell*log2(gamma_2) + ell/4]/(m n)
~ 0.016 plus a weight-decomposition multiplicity term, giving measured gaps
0.014..0.037 across the grid; a 0.02 ceiling is unattainable there.  The
companion envelope test pins what does hold (< 0.04).
"""

import math
import time

import pytest

from sumrank.bounds import (
    gv_holds,
    gv_max_k,
    gv_simplified_holds,
    gv_simplified_max_k,
    singleton_max_k,
    sp_holds,
    sp_max_k,
    sp_simplified_holds,
    sp_simplified_max_k,
)
from sumrank.cli import curve_rows, run as cli_run
from sumrank.codes import is_msrd, monte_carlo
from sumrank.combinatorics import gamma_q, logq_int, nm_count
from sumrank.genericity import (
    min_extension_degree,
    msrd_prob_bounds_BR,
    msrd_prob_lb_A,
    msrd_prob_lb_U,
)
from sumrank.volumes import (
    CodeParams,
    ball_volume,
    sphere_lower_bound_logq,
    sphere_upper_bound_logq,
    sphere_volume,
    sphere_volume_direct,
)

from conftest import hamming_ball, systematic_census, weight_histogram


def _report(num: int, detail: str):
    print(f"[criterion {num:2d}] PASS  {detail}")


# -- 1 ----------------------------------------------------------------------

def _ground_truth_grid():
    sets = [
        CodeParams(q=q, m=m, eta=eta, ell=ell)
        for q in (2, 3, 4, 5)
        for m in range(1, 13)
        for eta in range(1, 13)
        for ell in range(1, 13)
        if q ** (m * eta * ell) <= 2**12
    ]
    sets += [
        CodeParams(q=2, m=2, eta=2, ell=4),
        CodeParams(q=2, m=4, eta=2, ell=2),
        CodeParams(q=2, m=1, eta=4, ell=4),
        CodeParams(q=4, m=2, eta=2, ell=2),
        CodeParams(q=2, m=8, eta=2, ell=1),
        CodeParams(q=2, m=2, eta=8, ell=1),
    ]
    return sets


def test_criterion_1_volume_ground_truth():
    """Exact sphere volumes equal exhaustive enumeration, tolerance 0."""
    start = time.monotonic()
    grid = _ground_truth_grid()
    for params in grid:
        hist = weight_histogram(params)
        for t, expected in enumerate(hist):
            assert sphere_volume(params, t) == expected, (params, t)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"enumeration took {elapsed:.1f}s"
    _report(1, f"{len(grid)} parameter sets vs enumeration in {elapsed:.1f}s")


# -- 2, 3 -------------------------------------------------------------------

ORACLE_SWEEP = [
    CodeParams(q=q, m=m, eta=eta, ell=ell)
    for q in (2, 3)
    for m in (1, 2, 3, 4)
    for eta in (1, 2, 3, 4)
    for ell in (1, 2, 3, 4)
]


def test_criterion_2_direct_oracle_agreement():
    """DP volumes equal the weight-decomposition sum, exactly."""
    start = time.monotonic()
    points = 0
    for params in ORACLE_SWEEP:
        for t in range(params.ell * params.mu + 1):
            assert sphere_volume(params, t) == sphere_volume_direct(params, t)
            points += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"sweep took {elapsed:.1f}s"
    _report(2, f"{points} (params, t) points, recurrence == direct sum, in {elapsed:.1f}s")


def test_criterion_3_bound_sandwich():
    """lower <= log_q(sphere) <= upper with 1e-9 float slack."""
    checked = 0
    for params in ORACLE_SWEEP:
        q = params.q
        for t in range(1, params.ell * params.mu + 1):
            exact = logq_int(sphere_volume(params, t), q)
            assert sphere_lower_bound_logq(params, t) <= exact + 1e-9
            assert exact <= sphere_upper_bound_logq(params, t) + 1e-9
            checked += 1
    _report(3, f"{checked} sandwich points at 1e-9 slack")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_gamma_constants():
    """gamma_2, gamma_3, gamma_4 to three decimals."""
    assert round(gamma_q(2), 3) == 3.463
    assert round(gamma_q(3), 3) == 1.785
    assert round(gamma_q(4), 3) == 1.452
    _report(4, "gamma_q(2,3,4) = 3.463, 1.785, 1.452")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_solver_orderings():
    """Ordering chain + re-substitution + solver validity on a grid."""
    params_grid = [
        CodeParams(q=q, m=m, eta=eta, ell=ell)
        for q in (2, 3)
        for m in (1, 2, 3)
        for eta in (1, 2, 3)
        for ell in (1, 2, 3)
    ]
    points = 0
    for params in params_grid:
        n = params.n
        for d in range(1, params.ell * params.mu + 1):
            points += 1
            k_sing = singleton_max_k(params, d)
            k_sp = sp_max_k(params, d)
            k_sps = sp_simplified_max_k(params, d)
            k_gv = gv_max_k(params, d)
            assert k_sp <= k_sps
            assert k_gv <= k_sing
            if d > 2:
                k_gvs = gv_simplified_max_k(params, d)
                assert k_gvs <= k_gv
                solvers = [
                    (k_sp, lambda kk: sp_holds(params, kk, d)),
                    (k_sps, lambda kk: sp_simplified_holds(params, kk, d)),
                    (k_gv, lambda kk: gv_holds(params, kk, d)),
                    (k_gvs, lambda kk: gv_simplified_holds(params, kk, d)),
                ]
            else:
                solvers = [
                    (k_sp, lambda kk: sp_holds(params, kk, d)),
                    (k_sps, lambda kk: sp_simplified_holds(params, kk, d)),
                    (k_gv, lambda kk: gv_holds(params, kk, d)),
                ]
            for k_star, pred in solvers:
                # solver equals linear scan; k satisfies, k+1 violates
                scan = 0
                for kk in range(1, n + 1):
                    if pred(kk):
                        scan = kk
                assert k_star == scan
                if k_star >= 1:
                    assert pred(k_star)
                if k_star < n:
                    assert not pred(k_star + 1)
    assert points >= 100
    _report(5, f"{points} (params, d) points, orderings + re-substitution")


# -- 6 ----------------------------------------------------------------------

def _curve_gaps(params, include_asymptotic):
    """Largest gaps over the 64-point sweep between the exact (e), simplified
    (s) and growing-block asymptotic (a) rate curves of SP and GV."""
    gaps = {"sp_es": 0.0, "gv_es": 0.0, "sp_ea": 0.0, "gv_ea": 0.0, "sp_sa": 0.0, "gv_sa": 0.0}
    for row in curve_rows(params, 64, "xi"):
        _, _, _, sp_e, sp_s, sp_a, gv_e, gv_s, gv_a, _, _ = row
        for fam, (e, s, a) in (("sp", (sp_e, sp_s, sp_a)), ("gv", (gv_e, gv_s, gv_a))):
            if s != "":  # simplified GV is undefined at d <= 2
                gaps[f"{fam}_es"] = max(gaps[f"{fam}_es"], abs(e - s))
            if include_asymptotic:
                gaps[f"{fam}_ea"] = max(gaps[f"{fam}_ea"], abs(e - a))
                if s != "":
                    gaps[f"{fam}_sa"] = max(gaps[f"{fam}_sa"], abs(s - a))
    return gaps


P_BOUNDED_BLOCK = CodeParams(q=2, m=16, eta=8, ell=256)   # n = 2^11
P_GROWING_BLOCK = CodeParams(q=16, m=32, eta=32, ell=32)  # n = 2^10


def test_criterion_6_growing_block_curves():
    """Exact, simplified and asymptotic curves pairwise within 0.02."""
    start = time.monotonic()
    gaps = _curve_gaps(P_GROWING_BLOCK, include_asymptotic=True)
    elapsed = time.monotonic() - start
    assert max(gaps.values()) < 0.02, gaps
    assert elapsed < 300, f"{elapsed:.0f}s"
    _report(6, f"growing-block max pairwise gap {max(gaps.values()):.4f} in {elapsed:.0f}s")


def test_criterion_6_bounded_block_envelope():
    """What actually holds in the bounded-block regime: gaps below 0.04."""
    start = time.monotonic()
    gaps = _curve_gaps(P_BOUNDED_BLOCK, include_asymptotic=False)
    elapsed = time.monotonic() - start
    assert gaps["sp_es"] < 0.04 and gaps["gv_es"] < 0.04, gaps
    assert elapsed < 300, f"{elapsed:.0f}s"
    _report(6, f"bounded-block max exact-vs-simplified gap {max(gaps.values()):.4f} "
               f"(envelope 0.04) in {elapsed:.0f}s")


def test_criterion_6_curve_csv_anchor(tmp_path):
    """Emitted curve rows agree with direct library evaluation (delta=0.5
    row of the growing-block sweep)."""
    import csv

    p = P_GROWING_BLOCK
    out = tmp_path / "curve.csv"
    assert cli_run([
        "curve-sp-gv", "--q", str(p.q), "--m", str(p.m), "--eta", str(p.eta),
        "--ell", str(p.ell), "--grid", "2", "--asym-mode", "xi",
        "--out", str(out),
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if float(r["delta"]) == 0.5)
    d = int(row["d"])
    assert d == p.n // 2
    assert float(row["R_sp_simplified"]) == sp_simplified_max_k(p, d) / p.n
    assert float(row["R_gv_simplified"]) == gv_simplified_max_k(p, d) / p.n
    assert float(row["R_sp_exact"]) == sp_max_k(p, d) / p.n
    assert float(row["R_gv_exact"]) == gv_max_k(p, d) / p.n
    _report(6, "delta=0.5 CSV row equals direct evaluation (growing block)")


@pytest.mark.xfail(
    strict=True,
    reason="stated 0.02 tolerance is below the gamma_q^ell + multiplicity slack "
    "forced by the simplified bounds in the bounded-block regime (~0.016 + "
    "0.006..0.021); measured max gaps ~0.037 (SP) / ~0.036 (GV)",
)
def test_criterion_6_bounded_block_stated_tolerance():
    """The criterion precisely as stated: < 0.02 at every grid point."""
    gaps = _curve_gaps(P_BOUNDED_BLOCK, include_asymptotic=False)
    print(
        f"[criterion  6] FAIL  bounded-block gaps sp={gaps['sp_es']:.4f} "
        f"gv={gaps['gv_es']:.4f} exceed the stated 0.02"
    )
    assert gaps["sp_es"] < 0.02 and gaps["gv_es"] < 0.02, gaps


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_specializations():
    """eta=1 matches Hamming decisions; ell=1 matches rank-metric sums."""
    for q, m, ell in [(2, 2, 5), (3, 1, 5), (2, 3, 4), (4, 1, 4)]:
        params = CodeParams(q=q, m=m, eta=1, ell=ell)
        n, alphabet = params.n, q**m
        for d in range(1, n + 1):
            for k in range(1, n + 1):
                sp_classic = alphabet**k * hamming_ball(n, alphabet, (d - 1) // 2) <= alphabet**n
                gv_classic = alphabet ** (k - 1) * hamming_ball(n, alphabet, d - 1) < alphabet**n
                assert sp_holds(params, k, d) == sp_classic
                assert gv_holds(params, k, d) == gv_classic
    for q, m, eta in [(2, 3, 3), (3, 2, 4), (2, 4, 2), (5, 2, 2)]:
        params = CodeParams(q=q, m=m, eta=eta, ell=1)
        for t in range(params.mu + 1):
            assert ball_volume(params, t) == sum(nm_count(eta, m, s, q) for s in range(t + 1))
    _report(7, "Hamming (eta=1) and rank-metric (ell=1) specializations exact")


# -- 8 ----------------------------------------------------------------------

CENSUS_GRID = [
    (CodeParams(q=2, m=2, eta=1, ell=2), 1),
    (CodeParams(q=2, m=3, eta=1, ell=2), 1),
    (CodeParams(q=3, m=2, eta=1, ell=2), 1),
    (CodeParams(q=2, m=2, eta=1, ell=3), 1),
    (CodeParams(q=2, m=2, eta=1, ell=3), 2),
    (CodeParams(q=2, m=2, eta=2, ell=2), 1),
    (CodeParams(q=2, m=2, eta=2, ell=2), 3),
]


def test_criterion_8_msrd_census():
    """Exhaustive MSRD fractions sit inside every theoretical bracket, and
    the rank criterion agrees with brute-force distance on every code."""
    start = time.monotonic()
    for params, k in CENSUS_GRID:
        Q = params.q**params.m
        assert Q ** (k * (params.n - k)) <= 2**16
        msrd, total = systematic_census(params, k)  # asserts criterion match
        frac_sys = msrd / total
        from sumrank.combinatorics import q_binomial

        frac_all = msrd / q_binomial(params.n, k, Q)
        a = msrd_prob_lb_A(params, k)
        u = msrd_prob_lb_U(params, k)
        br = msrd_prob_bounds_BR(params, k)
        assert frac_sys >= a.lower
        assert frac_sys >= u.lower
        assert br.lower <= frac_all <= br.upper
        assert br.lower <= frac_sys <= br.upper
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"{elapsed:.0f}s"
    _report(8, f"{len(CENSUS_GRID)} census points inside all brackets in {elapsed:.0f}s")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_monte_carlo_genericity():
    """Empirical MSRD frequency over 500 seeded trials respects the bound."""
    start = time.monotonic()
    q, eta, ell, k = 2, 2, 2, 2
    m = next(
        mm for mm in range(1, 64)
        if msrd_prob_lb_A(CodeParams(q=q, m=mm, eta=eta, ell=ell), k).lower >= 0.9
    )
    params = CodeParams(q=q, m=m, eta=eta, ell=ell)
    lb = msrd_prob_lb_A(params, k).lower
    res = monte_carlo(params, k, 500, 20240801, is_msrd)
    res2 = monte_carlo(params, k, 500, 20240801, is_msrd)
    assert res == res2  # deterministic under a fixed seed
    assert res.estimate >= lb - 4 * math.sqrt(0.25 / 500)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"{elapsed:.0f}s"
    _report(9, f"m={m}, lb={lb:.4f}, empirical {res.estimate:.4f} over 500 trials "
               f"in {elapsed:.0f}s")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_mmin_crossover():
    """Minimal extension degrees cross between the two counting bounds as the
    number of blocks grows (q=4, n=2^9, k=2^7)."""
    start = time.monotonic()
    q, n, k = 4, 512, 128
    u_wins, a_wins = [], []
    for ell in [d for d in range(1, n + 1) if n % d == 0]:
        m_a = min_extension_degree(q, n, k, ell, "A")
        m_u = min_extension_degree(q, n, k, ell, "U-lemma")
        assert m_a is not None and m_u is not None
        if m_u < m_a:
            u_wins.append(ell)
        elif m_a < m_u:
            a_wins.append(ell)
    assert u_wins and a_wins
    assert max(u_wins) < min(a_wins)  # echelon bound wins exactly for small ell
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"{elapsed:.0f}s"
    _report(10, f"U wins at ell<={max(u_wins)}, A wins at ell>={min(a_wins)} "
                f"in {elapsed:.0f}s")


# -- 11 ---------------------------------------------------------------------

CLI_COMMANDS = [
    ["volume", "--q", "2", "--m", "2", "--eta", "2", "--ell", "2"],
    ["bounds", "--q", "2", "--m", "2", "--eta", "2", "--ell", "2", "--d", "3"],
    ["curve-sp-gv", "--q", "2", "--m", "3", "--eta", "2", "--ell", "4", "--grid", "16"],
    ["curve-sp-gv", "--q", "2", "--m", "2", "--eta", "2", "--ell", "2", "--grid", "8",
     "--asym-mode", "xi", "--format", "json"],
    ["genericity", "--q", "2", "--m", "6", "--eta", "2", "--ell", "2", "--k", "2",
     "--with-br-upper"],
    ["mmin", "--q", "2", "--n", "16", "--k", "4"],
    ["montecarlo", "--q", "2", "--m", "5", "--eta", "2", "--ell", "2", "--k", "2",
     "--trials", "30", "--seed", "11", "--predicate", "msrd"],
    ["montecarlo", "--q", "2", "--m", "4", "--eta", "1", "--ell", "3", "--k", "1",
     "--trials", "30", "--seed", "12", "--predicate", "mindist", "--d", "2"],
]


def test_criterion_11_cli_determinism(tmp_path):
    """Byte-identical output across two runs of the full command set."""
    for idx, argv in enumerate(CLI_COMMANDS):
        blobs = []
        for run in ("first", "second"):
            out = tmp_path / f"{idx}-{run}.txt"
            assert cli_run([*argv, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], argv
        assert blobs[0]  # nonempty
    _report(11, f"{len(CLI_COMMANDS)} commands byte-identical across reruns")
