import math

import numpy as np
import pytest

from sumrank import bounds
from sumrank.codes import is_msrd, random_systematic_code
from sumrank.combinatorics import binomial, gamma_q, log_gamma_q, logq_int, nm_count
from sumrank.genericity import gv_attainment_dimension, gv_attainment_epsilon_max, msrd_prob_bounds_BR
from sumrank.volumes import (
    CodeParams,
    ball_volume,
    sphere_lower_bound_logq,
    sphere_upper_bound_logq,
    sphere_volume,
    sphere_volume_direct,
    volume_table,
)

from conftest import weight_histogram

P2222 = CodeParams(q=2, m=2, eta=2, ell=2)

SWEEP = [
    CodeParams(q=q, m=m, eta=eta, ell=ell)
    for q in (2, 3)
    for m in (1, 2, 3, 4)
    for eta in (1, 2, 3, 4)
    for ell in (1, 2, 3, 4)
]


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(q=6, m=1, eta=1, ell=1)
    with pytest.raises(ValueError):
        CodeParams(q=2, m=0, eta=1, ell=1)
    p = CodeParams(q=4, m=3, eta=2, ell=5)
    assert p.n == 10 and p.mu == 2 and p.space_size == 4**30


def test_frozen_point_2222():
    # enumeration-verified values for q=2, m=2, eta=2, ell=2
    assert [sphere_volume(P2222, t) for t in range(5)] == [1, 18, 93, 108, 36]
    assert ball_volume(P2222, 0) == 1
    assert ball_volume(P2222, 1) == 19
    assert ball_volume(P2222, 4) == 256
    assert sphere_volume(P2222, 1) == 2 * nm_count(2, 2, 1, 2)
    assert sphere_volume_direct(P2222, 4) == nm_count(2, 2, 2, 2) ** 2 == 36


@pytest.mark.parametrize(
    "params",
    [
        CodeParams(q=2, m=2, eta=2, ell=2),
        CodeParams(q=2, m=1, eta=2, ell=3),
        CodeParams(q=2, m=3, eta=2, ell=2),
        CodeParams(q=3, m=1, eta=2, ell=2),
        CodeParams(q=3, m=2, eta=1, ell=3),
        CodeParams(q=4, m=1, eta=1, ell=4),
        CodeParams(q=2, m=4, eta=1, ell=2),
        CodeParams(q=2, m=2, eta=3, ell=1),
    ],
)
def test_matches_exhaustive_enumeration(params):
    hist = weight_histogram(params)
    for t, expected in enumerate(hist):
        assert sphere_volume(params, t) == expected


def test_direct_sum_agrees_with_dp():
    for params in SWEEP:
        for t in range(params.ell * params.mu + 1):
            assert sphere_volume(params, t) == sphere_volume_direct(params, t)


def test_specializations():
    # single block: rank-metric sphere = matrix rank count
    for q, m, eta in [(2, 3, 2), (3, 2, 2), (2, 4, 5), (2, 2, 3)]:
        p = CodeParams(q=q, m=m, eta=eta, ell=1)
        for t in range(p.mu + 1):
            assert sphere_volume(p, t) == nm_count(eta, m, t, q)
    # blocks of length one: Hamming sphere over an alphabet of size q^m
    for q, m, ell in [(2, 2, 4), (3, 1, 4), (2, 3, 5)]:
        p = CodeParams(q=q, m=m, eta=1, ell=ell)
        for t in range(ell + 1):
            assert sphere_volume(p, t) == binomial(ell, t) * (q**m - 1) ** t


# large tables: bounded blocks with many of them, and big growing blocks
LARGE = [CodeParams(q=2, m=16, eta=8, ell=256), CodeParams(q=16, m=32, eta=32, ell=8)]


def test_whole_space_totals():
    for params in SWEEP + LARGE:
        assert ball_volume(params, params.ell * params.mu) == params.space_size


@pytest.mark.parametrize("q, m, eta, ell", [(16, 32, 32, 4), (2, 16, 8, 16)])
def test_doubled_block_count_is_self_convolution(q, m, eta, ell):
    # the sphere column at 2*ell blocks is the square of the one at ell blocks
    half = volume_table(CodeParams(q=q, m=m, eta=eta, ell=ell))
    full = volume_table(CodeParams(q=q, m=m, eta=eta, ell=2 * ell))
    top = half.radius_max
    assert full.radius_max == 2 * top
    for t in range(2 * top + 1):
        lo, hi = max(0, t - top), min(t, top)
        assert full.sphere(t) == sum(half.sphere(u) * half.sphere(t - u) for u in range(lo, hi + 1))


def test_radius_validation():
    top = P2222.ell * P2222.mu
    with pytest.raises(ValueError):
        sphere_volume(P2222, top + 1)
    with pytest.raises(ValueError):
        sphere_volume_direct(P2222, top + 1)
    with pytest.raises(ValueError):
        ball_volume(P2222, -1)
    with pytest.raises(ValueError):
        sphere_lower_bound_logq(P2222, 0)


def test_lower_bound_frozen_point():
    # ell | t, so no ell/4 penalty: exponent 6 - 2 log2(gamma_2) ~ 2.4155
    got = sphere_lower_bound_logq(P2222, 2)
    assert got == pytest.approx(6 - 2 * math.log2(gamma_q(2)), abs=1e-12)
    assert got == pytest.approx(2.4155, abs=1e-3)
    assert logq_int(sphere_volume(P2222, 2), 2) >= got
    # dropping the penalty gains exactly ell/4 = 0.5 here
    penalized = (2 + 2 - 2 / 2) * 2 - 2 / 4 - 2 * log_gamma_q(2)
    assert got - penalized == pytest.approx(0.5, abs=1e-12)


def test_bound_sandwich_and_ball_bound():
    for params in SWEEP:
        q = params.q
        top = params.ell * params.mu
        for t in range(top + 1):
            exact = logq_int(sphere_volume(params, t), q)
            upper = sphere_upper_bound_logq(params, t)
            assert exact <= upper + 1e-9
            if t >= 1:
                assert sphere_lower_bound_logq(params, t) <= exact + 1e-9
            if t > 1:
                ball_log = logq_int(ball_volume(params, t), q)
                assert ball_log <= math.log(t, q) + upper + 1e-9


def test_upper_bound_at_zero_radius():
    p = CodeParams(q=3, m=2, eta=2, ell=3)
    assert sphere_upper_bound_logq(p, 0) == pytest.approx(3 * log_gamma_q(3))
    assert sphere_upper_bound_logq(p, 0) >= 0.0


def test_volume_table_cache_returns_same_object():
    assert volume_table(P2222) is volume_table(CodeParams(q=2, m=2, eta=2, ell=2))


# Every entry point that takes a radius or a distance, as (call, lowest
# weight, name in the message).  The simplified GV bound rejects d <= 2 with a
# message of its own before the weight check.
WEIGHT_ENTRY_POINTS = {
    "VolumeTable.ball": (lambda p, t: volume_table(p).ball(t), 0, "radius t"),
    "sphere_volume": (sphere_volume, 0, "radius t"),
    "ball_volume": (ball_volume, 0, "radius t"),
    "sphere_volume_direct": (sphere_volume_direct, 0, "radius t"),
    "sphere_lower_bound_logq": (sphere_lower_bound_logq, 1, "radius t"),
    "sphere_upper_bound_logq": (sphere_upper_bound_logq, 0, "radius t"),
    **{name: (getattr(bounds, name), 1, "d") for name in (
        "singleton_max_k", "sp_max_k", "sp_simplified_max_k", "gv_max_k", "gv_simplified_max_k")},
    **{name: (lambda p, d, f=getattr(bounds, name): f(p, 1, d), 1, "d") for name in (
        "sp_holds", "sp_simplified_holds", "gv_holds", "gv_simplified_holds")},
    "gv_attainment_epsilon_max": (gv_attainment_epsilon_max, 1, "d"),
    "gv_attainment_dimension": (lambda p, d: gv_attainment_dimension(p, d, 1e-9), 1, "d"),
}


def _error(call, params, t):
    """The message of the ValueError that call(params, t) raises, or None."""
    try:
        call(params, t)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("params", [P2222, CodeParams(q=3, m=2, eta=3, ell=2)], ids=str)
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_weight_domain_boundaries(entry, params):
    call, low, name = WEIGHT_ENTRY_POINTS[entry]
    top = params.max_weight
    assert top == params.ell * params.mu
    # at the top weight only a check of another argument may fail (at the
    # top distance the GV-attainment epsilon interval is empty)
    error = _error(call, params, top)
    assert error is None or not error.startswith(f"{name}="), error
    assert _error(call, params, top + 1) == f"{name}={top + 1} outside [{low}, {top}]"
    below = (f"simplified GV bound needs d > 2, got d={low - 1}" if "gv_simplified" in entry
             else f"{name}={low - 1} outside [{low}, {top}]")
    assert _error(call, params, low - 1) == below


def test_unattainable_msrd_message_is_shared():
    params = CodeParams(q=2, m=1, eta=2, ell=2)  # largest weight 2 < n - k + 1 = 4
    code = random_systematic_code(params, 1, np.random.default_rng(0))
    message = "target distance n-k+1=4 exceeds the largest weight 2; MSRD is unattainable"
    with pytest.raises(ValueError) as from_codes:
        is_msrd(code)
    with pytest.raises(ValueError) as from_genericity:
        msrd_prob_bounds_BR(params, 1)
    assert str(from_codes.value) == str(from_genericity.value) == message
