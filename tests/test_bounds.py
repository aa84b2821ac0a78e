import math

import pytest

from sumrank import bounds, volumes
from sumrank.bounds import (
    _enclosed_log,
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
from sumrank.cli import curve_rows
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
    CodeParams(q=16, m=32, eta=32, ell=16),
    CodeParams(q=2, m=64, eta=16, ell=32),
    # q^m not a power of two
    CodeParams(q=3, m=5, eta=4, ell=16),
    CodeParams(q=5, m=3, eta=3, ell=20),
    CodeParams(q=9, m=4, eta=4, ell=12),
    CodeParams(q=27, m=3, eta=3, ell=10),
]


def _binary_search_max_ks(params):
    """(SP, GV) max-k at every d, by binary search over the exact predicates."""
    return [(_largest_k(lambda k: sp_holds(params, k, d), params.n),
             _largest_k(lambda k: gv_holds(params, k, d), params.n))
            for d in range(1, params.ell * params.mu + 1)]


def _solver_max_ks(params):
    return [(sp_max_k(params, d), gv_max_k(params, d)) for d in range(1, params.ell * params.mu + 1)]


@pytest.mark.parametrize("params", ORACLE_SETS, ids=str)
def test_max_k_closed_form_matches_binary_search(params, monkeypatch):
    expected = _binary_search_max_ks(params)
    # B0 forced so that every set takes each path: the enclosure, then the table
    for b0 in (0, 1 << 62):
        monkeypatch.setattr(bounds, "B0", b0)
        assert _solver_max_ks(params) == expected, b0


@pytest.fixture
def fresh_caches():
    """Empty the enclosure and table caches before and after the test."""
    for cache in (volumes.ball_enclosure, volumes.volume_table):
        cache.cache_clear()
    yield
    for cache in (volumes.ball_enclosure, volumes.volume_table):
        cache.cache_clear()


@pytest.mark.parametrize("digits", [2, 3])
@pytest.mark.parametrize("params", [CodeParams(q=2, m=3, eta=3, ell=3), CodeParams(q=3, m=5, eta=4, ell=16),
                                    CodeParams(q=16, m=32, eta=32, ell=4)], ids=str)
def test_coarse_enclosure_falls_back_to_the_table(params, digits, monkeypatch, fresh_caches):
    # at 2-3 digits the enclosure leaves radii undecided; those go to the table
    monkeypatch.setattr(bounds, "B0", 0)
    monkeypatch.setattr(volumes, "_ENCLOSURE_DIGITS", digits)
    built = []
    monkeypatch.setattr(bounds, "volume_table", lambda p: built.append(p) or volumes.volume_table(p))
    ks = _solver_max_ks(params)
    assert built
    monkeypatch.undo()
    assert ks == _binary_search_max_ks(params)


def test_growing_block_curve_builds_no_table(fresh_caches):
    curve_rows(CodeParams(q=16, m=32, eta=32, ell=8), 64, "xi")
    assert volumes.ball_enclosure.cache_info().misses == 1
    assert volumes.volume_table.cache_info().misses == 0


def test_enclosed_log_at_power_boundaries():
    # Q = 10 with exact powers: a bound that touches a power leaves two answers
    powers = [10**e for e in range(6)]
    for e in range(1, 5):
        Qe = 10**e
        assert _enclosed_log(Qe, Qe, powers, powers, ceil=False) == e
        assert _enclosed_log(Qe, Qe, powers, powers, ceil=True) == e
        assert _enclosed_log(Qe - 1, Qe, powers, powers, ceil=False) is None
        assert _enclosed_log(Qe - 1, Qe, powers, powers, ceil=True) == e
        assert _enclosed_log(Qe, Qe + 1, powers, powers, ceil=False) == e
        assert _enclosed_log(Qe, Qe + 1, powers, powers, ceil=True) is None
        assert _enclosed_log(Qe + 1, 2 * Qe, powers, powers, ceil=False) == e
        assert _enclosed_log(Qe + 1, 2 * Qe, powers, powers, ceil=True) == e + 1
    assert _enclosed_log(1, 1, powers, powers, ceil=False) == 0
    assert _enclosed_log(1, 1, powers, powers, ceil=True) == 0
    # inexact power bounds overlapping the ball's leave it undecided
    loose_lo, loose_hi = [p - p // 20 for p in powers], [p + p // 20 for p in powers]
    assert _enclosed_log(990, 999, loose_lo, loose_hi, ceil=False) is None
    assert _enclosed_log(1001, 1010, loose_lo, loose_hi, ceil=True) is None


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


# xi = m/eta is 1, 2 and 1/2
XI_ONE = CodeParams(q=2, m=8, eta=8, ell=4)
XI_TWO = CodeParams(q=2, m=4, eta=2, ell=3)
XI_HALF = CodeParams(q=2, m=2, eta=4, ell=3)


def test_sp_asymptotic_limits():
    assert sp_asymptotic_rate(0.0, XI_ONE, "xi") == pytest.approx(1.0)
    assert sp_asymptotic_rate(1.0, XI_ONE, "xi") == pytest.approx(0.25)
    assert sp_asymptotic_rate(1.0, XI_TWO, "xi") == 0.375
    assert sp_asymptotic_rate(1.0, XI_HALF, "xi") == 0.0
    p = CodeParams(q=2, m=16, eta=8, ell=256)
    assert sp_asymptotic_rate(0.0, p, "blocks") == pytest.approx(
        1 + (0.25 + math.log2(3.4627466)) / (8 * 16), abs=1e-4
    )
    with pytest.raises(ValueError):
        sp_asymptotic_rate(-0.1, XI_ONE, "xi")
    with pytest.raises(ValueError):
        sp_asymptotic_rate(0.5, p, "nope")


def test_gv_asymptotic_limits():
    assert gv_asymptotic_rate(0.0, XI_ONE, "xi") == pytest.approx(1.0)
    assert gv_asymptotic_rate(1.0, XI_ONE, "xi") == pytest.approx(0.0)
    assert gv_asymptotic_rate(0.5, XI_TWO, "xi") == 0.375
    assert gv_asymptotic_rate(0.5, XI_HALF, "xi") == 0.0
    # the finite-n form that "blocks" gives is near the xi = 1 limit, not on it
    p = CodeParams(q=16, m=32, eta=32, ell=32)
    diff = abs(gv_asymptotic_rate(0.3, p, "blocks") - gv_asymptotic_rate(0.3, p, "xi"))
    assert 0 < diff < 0.01
    with pytest.raises(ValueError):
        gv_asymptotic_rate(0.5, CodeParams(q=2, m=1, eta=1, ell=2), "blocks")  # delta*n < 2
    with pytest.raises(ValueError):
        gv_asymptotic_rate(-0.5, XI_ONE, "xi")
    with pytest.raises(ValueError):
        gv_asymptotic_rate(0.5, XI_ONE, "bogus")


def test_asymptotics_at_zero_distance_equal_one():
    assert sp_asymptotic_rate(0.0, XI_TWO, "xi") == pytest.approx(1.0)
    assert gv_asymptotic_rate(0.0, XI_TWO, "xi") == pytest.approx(1.0)
