import math

import pytest

from sumrank.bounds import (
    _floor_log,
    _largest_k,
    gv_asymptotic_rate,
    gv_holds,
    gv_max_k,
    gv_simplified_holds,
    gv_simplified_max_k,
    singleton_max_k,
    sp_asymptotic_rate,
    sp_holds,
    sp_max_k,
    sp_simplified_holds,
    sp_simplified_max_k,
)
from sumrank.volumes import CodeParams

from conftest import hamming_ball

P2222 = CodeParams(q=2, m=2, eta=2, ell=2)

GRID = [
    CodeParams(q=q, m=m, eta=eta, ell=ell)
    for q in (2, 3)
    for m in (1, 2, 3)
    for eta in (1, 2, 3)
    for ell in (1, 2, 3)
]


def _scan_max_k(pred, n):
    best = 0
    for k in range(1, n + 1):
        if pred(k):
            best = k
    return best


def test_singleton():
    # m = eta: both branches coincide with n - d + 1
    assert singleton_max_k(P2222, 3) == 2
    assert singleton_max_k(P2222, 1) == P2222.n
    p = CodeParams(q=2, m=4, eta=2, ell=3)
    # first branch 3, second branch floor(2/4 * 9) = 4 -> min is 3
    assert p.n - 4 + 1 == 3
    assert p.eta * (p.ell * p.m - 4 + 1) // p.m == 4
    assert singleton_max_k(p, 4) == 3
    with pytest.raises(ValueError):
        singleton_max_k(p, 0)
    with pytest.raises(ValueError):
        singleton_max_k(p, p.ell * p.mu + 1)


def test_sp_holds_cases():
    # d = 1: radius-0 ball, every dimension packs
    for k in range(1, P2222.n + 1):
        assert sp_holds(P2222, k, 1)
    # full dimension with d >= 3 cannot pack
    assert not sp_holds(P2222, P2222.n, 3)
    # 2^2 * 19 = 76 <= 256
    assert sp_holds(P2222, 1, 3)
    assert not sp_holds(P2222, 2, 3)  # 2^4 * 19 = 304 > 256
    with pytest.raises(ValueError):
        sp_holds(P2222, 0, 3)
    with pytest.raises(ValueError):
        sp_holds(P2222, 1, 99)


def test_sp_max_k():
    assert sp_max_k(P2222, 1) == P2222.n
    assert sp_max_k(P2222, 3) == 1
    for params in GRID:
        prev = params.n
        for d in range(1, params.ell * params.mu + 1):
            k = sp_max_k(params, d)
            assert k == _scan_max_k(lambda kk: sp_holds(params, kk, d), params.n)
            assert k <= prev  # nonincreasing in d
            prev = k


def test_sp_simplified():
    for params in GRID:
        for d in range(1, params.ell * params.mu + 1):
            simp = sp_simplified_max_k(params, d)
            assert simp >= sp_max_k(params, d)
            assert simp == _scan_max_k(
                lambda kk: sp_simplified_holds(params, kk, d), params.n
            )
            if 1 <= simp < params.n:
                assert sp_simplified_holds(params, simp, d)
                assert not sp_simplified_holds(params, simp + 1, d)
    # t = 0 degenerate radii clamp to n
    assert sp_simplified_max_k(P2222, 1) == P2222.n
    assert sp_simplified_max_k(P2222, 2) == P2222.n


def test_gv_holds_cases():
    for k in range(1, P2222.n + 1):
        assert gv_holds(P2222, k, 1)
    # 2^0 * 19 < 256
    assert gv_holds(P2222, 1, 2)
    with pytest.raises(ValueError):
        gv_holds(P2222, 1, 0)


def test_gv_max_k():
    assert gv_max_k(P2222, 1) == P2222.n
    for params in GRID:
        prev = params.n
        for d in range(1, params.ell * params.mu + 1):
            k = gv_max_k(params, d)
            assert k == _scan_max_k(lambda kk: gv_holds(params, kk, d), params.n)
            assert k <= prev
            prev = k
            # existence never beats impossibility or Singleton
            assert k <= sp_max_k(params, d)
            assert k <= singleton_max_k(params, d)


# the closed-form solvers against the binary search over the exact predicates
ORACLE_SETS = GRID + [
    CodeParams(q=2, m=16, eta=8, ell=128),
    CodeParams(q=16, m=32, eta=32, ell=8),
    # q^m not a power of two
    CodeParams(q=3, m=5, eta=4, ell=16),
    CodeParams(q=5, m=3, eta=3, ell=20),
    CodeParams(q=9, m=4, eta=4, ell=12),
    CodeParams(q=27, m=3, eta=3, ell=10),
]


@pytest.mark.parametrize("params", ORACLE_SETS, ids=str)
def test_max_k_closed_form_matches_binary_search(params):
    for d in range(1, params.ell * params.mu + 1):
        assert sp_max_k(params, d) == _largest_k(lambda k: sp_holds(params, k, d), params.n), d
        assert gv_max_k(params, d) == _largest_k(lambda k: gv_holds(params, k, d), params.n), d


@pytest.mark.parametrize("base", [2, 3, 2**16, 3**10, 16**32], ids=["2", "3", "2^16", "3^10", "16^32"])
def test_floor_log_at_powers(base):
    # every e up to 64, then a stride up to 4,000: the float estimate's
    # rounding is where an off-by-one would hide
    power = 1
    for e in range(1, 4001):
        power *= base
        if e <= 64 or e % 37 == 0:
            assert _floor_log(power - 1, base) == e - 1, e
            assert _floor_log(power, base) == e, e
            assert _floor_log(power + 1, base) == e, e
    assert _floor_log(1, base) == 0


def test_gv_simplified():
    with pytest.raises(ValueError):
        gv_simplified_max_k(P2222, 2)
    with pytest.raises(ValueError):
        gv_simplified_holds(P2222, 1, 2)
    for params in GRID:
        for d in range(3, params.ell * params.mu + 1):
            simp = gv_simplified_max_k(params, d)
            assert simp <= gv_max_k(params, d)
            assert simp == _scan_max_k(
                lambda kk: gv_simplified_holds(params, kk, d), params.n
            )
            if simp >= 1:
                assert gv_simplified_holds(params, simp, d)
                if simp < params.n:
                    assert not gv_simplified_holds(params, simp + 1, d)


def test_gv_simplified_at_top_distance():
    p = CodeParams(q=2, m=2, eta=2, ell=2)
    d = p.ell * p.mu
    k = gv_simplified_max_k(p, d)
    assert k >= 0
    if k >= 1:
        assert gv_simplified_holds(p, k, d)


def test_solver_zero_when_nothing_fits():
    # the gamma^ell slack pushes the simplified GV condition past q^(mn)
    # for every k >= 1 at this tiny point; the solver reports 0, not an error
    assert gv_simplified_max_k(P2222, 4) == 0
    assert gv_simplified_max_k(P2222, 3) == 0
    assert not gv_simplified_holds(P2222, 1, 4)
    # the simplified packing bound stays loose here
    assert sp_simplified_max_k(P2222, 3) == 4


def test_hamming_specialization():
    # eta = 1: packing/existence decisions match the classical Hamming ones
    for q, m, ell in [(2, 2, 5), (3, 1, 5), (2, 3, 4)]:
        params = CodeParams(q=q, m=m, eta=1, ell=ell)
        n = params.n
        alphabet = q**m
        for d in range(1, n + 1):
            for k in range(1, n + 1):
                sp_classic = alphabet**k * hamming_ball(n, alphabet, (d - 1) // 2) <= alphabet**n
                gv_classic = alphabet ** (k - 1) * hamming_ball(n, alphabet, d - 1) < alphabet**n
                assert sp_holds(params, k, d) == sp_classic
                assert gv_holds(params, k, d) == gv_classic


def test_rank_metric_ball_specialization():
    from sumrank.combinatorics import nm_count
    from sumrank.volumes import ball_volume

    for q, m, eta in [(2, 3, 3), (3, 2, 4), (2, 4, 2)]:
        p = CodeParams(q=q, m=m, eta=eta, ell=1)
        for t in range(p.mu + 1):
            assert ball_volume(p, t) == sum(nm_count(eta, m, s, q) for s in range(t + 1))


def test_sp_asymptotic_limits():
    assert sp_asymptotic_rate(0.0, "xi", xi=1.0) == pytest.approx(1.0)
    assert sp_asymptotic_rate(1.0, "xi", xi=1.0) == pytest.approx(0.25)
    p = CodeParams(q=2, m=16, eta=8, ell=256)
    assert sp_asymptotic_rate(0.0, "finite", params=p) > 1.0  # 1 + O(1/n) terms
    assert sp_asymptotic_rate(0.0, "blocks", params=p) == pytest.approx(
        1 + (0.25 + math.log2(3.4627466)) / (8 * 16), abs=1e-4
    )
    # finite-n form converges to the many-blocks limit
    diff = abs(
        sp_asymptotic_rate(0.5, "finite", params=p)
        - sp_asymptotic_rate(0.5, "blocks", params=p)
    )
    assert diff < 0.01
    with pytest.raises(ValueError):
        sp_asymptotic_rate(-0.1, "xi", xi=1.0)
    with pytest.raises(ValueError):
        sp_asymptotic_rate(0.5, "xi", xi=0.0)
    with pytest.raises(ValueError):
        sp_asymptotic_rate(0.5, "nope", xi=1.0)
    with pytest.raises(ValueError):
        sp_asymptotic_rate(0.5, "finite")


def test_gv_asymptotic_limits():
    assert gv_asymptotic_rate(0.0, "xi", xi=1.0) == pytest.approx(1.0)
    assert gv_asymptotic_rate(1.0, "xi", xi=1.0) == pytest.approx(0.0)
    p = CodeParams(q=16, m=32, eta=32, ell=32)
    diff = abs(
        gv_asymptotic_rate(0.3, "finite", params=p) - gv_asymptotic_rate(0.3, "xi", xi=1.0)
    )
    assert diff < 0.01
    with pytest.raises(ValueError):
        gv_asymptotic_rate(0.5, "finite", params=CodeParams(q=2, m=1, eta=1, ell=2))
    with pytest.raises(ValueError):
        gv_asymptotic_rate(-0.5, "xi", xi=1.0)
    with pytest.raises(ValueError):
        gv_asymptotic_rate(0.5, "bogus", xi=1.0)


def test_asymptotics_at_zero_distance_equal_one():
    assert sp_asymptotic_rate(0.0, "xi", xi=2.0) == pytest.approx(1.0)
    assert gv_asymptotic_rate(0.0, "xi", xi=2.0) == pytest.approx(1.0)
