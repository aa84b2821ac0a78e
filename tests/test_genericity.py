import itertools
import math
from fractions import Fraction

import pytest

import sumrank.genericity
from sumrank.bounds import gv_holds
from sumrank.combinatorics import binomial, gamma_q, q_binomial
from sumrank.genericity import (
    ProbabilityBound,
    gv_attainment_dimension,
    gv_attainment_epsilon_max,
    min_extension_degree,
    msrd_prob_bounds_BR,
    msrd_prob_lb_A,
    msrd_prob_lb_U,
)
from sumrank.volumes import CodeParams

from conftest import systematic_census


def test_probability_bound_invariant():
    with pytest.raises(ValueError):
        ProbabilityBound(lower=0.8, upper=0.2, raw_lower=0.8)
    pb = ProbabilityBound(lower=0.1, upper=None, raw_lower=-3.0)
    assert pb.upper is None


def test_lb_A_single_block_form():
    # ell = 1 reduces to 1 - k q^{eta k - m}
    for q, eta, k, m in [(2, 3, 2, 10), (3, 2, 2, 9), (4, 2, 1, 7)]:
        got = msrd_prob_lb_A(CodeParams(q=q, m=m, eta=eta, ell=1), k)
        expected = 1 - k * float(q) ** (eta * k - m)
        assert got.raw_lower == pytest.approx(expected, rel=1e-12)
        assert got.lower == pytest.approx(max(0.0, expected), rel=1e-12)


def test_lb_A_tends_to_one_and_monotone():
    prev = -math.inf
    for m in (8, 16, 32, 64, 256):
        r = msrd_prob_lb_A(CodeParams(q=2, m=m, eta=2, ell=2), 2).raw_lower
        assert r >= prev
        prev = r
    huge_m = CodeParams(q=2, m=10**6, eta=2, ell=2)
    assert msrd_prob_lb_A(huge_m, 2).lower == 1.0
    assert msrd_prob_lb_U(huge_m, 2).lower == 1.0
    params = CodeParams(q=2, m=4, eta=2, ell=2)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        msrd_prob_lb_A(params, 0)
    with pytest.raises(ValueError, match="k=5 exceeds the largest total rank 4"):
        msrd_prob_lb_A(params, 5)  # k above ell*mu


def test_lb_A_U_weight_domain_is_ell_mu():
    # m < eta: the largest total rank is ell*m, not n = ell*eta
    params = CodeParams(q=3, m=2, eta=3, ell=2)
    for bound in (msrd_prob_lb_A, msrd_prob_lb_U):
        assert bound(params, 4).lower == 0.0
        with pytest.raises(ValueError, match="k=5 exceeds the largest total rank 4; "
                           "no code of that dimension can be MSRD"):
            bound(params, 5)


def test_lb_U_variants_relate_to_A():
    # failure ratio U/A is q^{-k^2/ell} gamma^ell, with an extra q^{-ell/4}
    # as printed
    for q, eta, ell, k, m in [(2, 3, 2, 2, 10), (3, 2, 2, 2, 11), (2, 2, 1, 1, 6)]:
        params = CodeParams(q=q, m=m, eta=eta, ell=ell)
        f_a = 1 - msrd_prob_lb_A(params, k).raw_lower
        f_u = 1 - msrd_prob_lb_U(params, k, "lemma").raw_lower
        f_u_printed = 1 - msrd_prob_lb_U(params, k, "printed").raw_lower
        ratio = float(q) ** (-(k**2) / ell) * gamma_q(q) ** ell
        assert f_u / f_a == pytest.approx(ratio, rel=1e-9)
        assert f_u_printed / f_u == pytest.approx(float(q) ** (-ell / 4), rel=1e-9)
    with pytest.raises(ValueError):
        msrd_prob_lb_U(CodeParams(q=2, m=4, eta=2, ell=2), 2, variant="bogus")


def _meet_count_complement(Q, n, k):
    """Independent route to the count of k-subspaces meeting a fixed
    (n-k)-subspace: total minus the alternating count of those meeting it
    trivially."""
    w = n - k
    trivial = 0
    for s in range(w + 1):
        term = q_binomial(w, s, Q) * q_binomial(n - s, n - k, Q) * Q ** binomial(s, 2)
        trivial += -term if s & 1 else term
    return q_binomial(n, k, Q) - trivial


def _meet_count_double_sum(Q, n, k):
    """A second route to the same count: over each intersection dimension
    h >= 1, the subspaces through an h-dim part of the fixed subspace,
    Moebius-inverted to those meeting it in exactly h dimensions."""
    w = n - k
    meet = 0
    for h in range(1, w + 1):
        inner = 0
        for s in range(h, w + 1):
            term = (
                q_binomial(w - h, s - h, Q)
                * q_binomial(n - s, n - k, Q)
                * Q ** binomial(s - h, 2)
            )
            inner += -term if (s - h) & 1 else term
        meet += q_binomial(w, h, Q) * inner
    return meet


@pytest.mark.parametrize(
    "Q,n,k",
    [(Q, n, k) for Q in (2, 3, 4, 9, 16) for n in range(2, 8) for k in range(1, n)],
)
def test_br_upper_against_complementary_form(Q, n, k):
    # the closed form Q^{k(n-k)} / [n k]_Q against two alternating-sum
    # oracles, and the library's float against the exact fraction
    total = q_binomial(n, k, Q)
    exact = Fraction(Q ** (k * (n - k)), total)
    assert exact == 1 - Fraction(_meet_count_complement(Q, n, k), total)
    assert exact == 1 - Fraction(_meet_count_double_sum(Q, n, k), total)
    assert 0 < exact <= 1
    assert msrd_prob_bounds_BR(CodeParams(q=Q, m=1, eta=1, ell=n), k).upper == float(exact)


def test_br_bounds_tiny_census():
    # q=2, m=2, eta=1, ell=2, k=1: 4 systematic codes, 3 of them MSRD;
    # 5 codes in the full Grassmannian, 3 MSRD.
    params = CodeParams(q=2, m=2, eta=1, ell=2)
    msrd, total = systematic_census(params, 1)
    assert (msrd, total) == (3, 4)
    br = msrd_prob_bounds_BR(params, 1)
    assert br.upper == pytest.approx(0.8)
    frac_all = msrd / q_binomial(2, 1, 4)
    assert br.lower <= frac_all <= br.upper
    assert br.lower <= msrd / total <= br.upper
    a = msrd_prob_lb_A(params, 1)
    u = msrd_prob_lb_U(params, 1)
    assert msrd / total >= a.lower
    assert msrd / total >= u.lower


def test_br_ordering_and_validation():
    # Hamming-shaped point: lower <= upper and both in range
    params = CodeParams(q=3, m=3, eta=1, ell=4)
    br = msrd_prob_bounds_BR(params, 2)
    assert br.upper is not None and 0.0 <= br.upper <= 1.0
    assert br.lower <= br.upper
    skip = msrd_prob_bounds_BR(params, 2, with_upper=False)
    assert skip.upper is None and skip.raw_lower == br.raw_lower
    with pytest.raises(ValueError):
        msrd_prob_bounds_BR(params, 4)  # k = n
    with pytest.raises(ValueError):
        # n-k+1 beyond the largest weight
        msrd_prob_bounds_BR(CodeParams(q=2, m=1, eta=2, ell=2), 1)


def test_br_lower_closed_form():
    # small enough for the formula in plain floats:
    # 1 - (q^{mk}-1)/((q^m-1)(q^{mn}-1)) (w C(ell+w-1, ell-1) gamma^ell q^{w(m+eta-w/ell)} - 1)
    for q, eta, ell, k in [(2, 2, 2, 2), (3, 1, 4, 2), (2, 3, 1, 1), (4, 2, 3, 4)]:
        n, w = eta * ell, eta * ell - k
        for m in range(eta, 13):
            t = w * binomial(ell + w - 1, ell - 1) * gamma_q(q) ** ell * float(q) ** (w * (m + eta - w / ell))
            expected = 1 - (q ** (m * k) - 1) / ((q**m - 1) * (q ** (m * n) - 1)) * (t - 1)
            got = msrd_prob_bounds_BR(CodeParams(q=q, m=m, eta=eta, ell=ell), k, with_upper=False)
            assert got.raw_lower == pytest.approx(expected, rel=1e-9, abs=1e-12), (q, eta, ell, k, m)


def test_br_lower_tends_to_one():
    params_large_m = CodeParams(q=2, m=400, eta=1, ell=4)
    br = msrd_prob_bounds_BR(params_large_m, 2, with_upper=False)
    assert br.lower == 1.0


def test_min_extension_degree_single_block_closed_form():
    # smallest m with k q^{eta k - m} < 1, scanned independently
    for q, eta, k in [(2, 3, 2), (3, 2, 2), (4, 4, 3)]:
        expected = next(
            m for m in range(1, 200) if k * float(q) ** (eta * k - m) < 1
        )
        assert min_extension_degree(q, eta, k, 1, "A") == expected


def test_min_extension_degree_resubstitution():
    params_kwargs = dict(q=2, n=4, k=1, ell=4)
    for kind in ("A", "U-lemma", "U-printed", "BR"):
        m_min = min_extension_degree(bound_kind=kind, **params_kwargs)
        assert m_min is not None

        def raw_at(m):
            params = CodeParams(q=2, m=m, eta=1, ell=4)
            if kind == "A":
                return msrd_prob_lb_A(params, 1).raw_lower
            if kind == "U-lemma":
                return msrd_prob_lb_U(params, 1, "lemma").raw_lower
            if kind == "U-printed":
                return msrd_prob_lb_U(params, 1, "printed").raw_lower
            return msrd_prob_bounds_BR(params, 1, with_upper=False).raw_lower

        assert raw_at(m_min) > 0
        if m_min > 1:
            assert raw_at(m_min - 1) <= 0


@pytest.mark.parametrize("kind, mmin", [("A", 9), ("U-lemma", 15), ("BR", 20)])
def test_min_extension_degree_cap_between_powers_of_two(kind, mmin):
    # the doubling probes 1, 2, 4, 8, 16, ...; a cap between two probes must
    # still admit every m up to the cap
    for m_cap in range(1, mmin + 4):
        want = mmin if m_cap >= mmin else None
        assert min_extension_degree(2, 8, 2, 4, kind, m_cap=m_cap) == want, m_cap


def test_min_extension_degree_cap_and_validation():
    assert min_extension_degree(2, 8, 4, 1, "A", m_cap=8) is None
    for m_cap in (0, -5):  # a cap below 1 admits no m
        with pytest.raises(ValueError):
            min_extension_degree(3, 1, 1, 1, "U-lemma", m_cap=m_cap)
    with pytest.raises(ValueError):
        min_extension_degree(2, 8, 4, 3, "A")  # ell does not divide n
    with pytest.raises(ValueError):
        min_extension_degree(2, 8, 4, 1, "Z")
    with pytest.raises(ValueError):
        min_extension_degree(2, 8, 8, 1, "BR")  # BR needs k < n
    for k in (0, 9):  # outside [1, n]
        with pytest.raises(ValueError):
            min_extension_degree(2, 8, k, 1, "A")
    for q in (1, 6):  # not prime powers
        with pytest.raises(ValueError):
            min_extension_degree(q, 8, 2, 1, "A")


@pytest.mark.parametrize("kind", ["A", "U-lemma", "U-printed", "BR"])
@pytest.mark.parametrize("ell", [1, 8, 20000])
def test_min_extension_degree_forms_its_binomial_once(monkeypatch, kind, ell):
    # the binomial of each bound is free of m: one per search, not one per m
    calls = []

    def counting_binomial(n, k):
        calls.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(sumrank.genericity, "binomial", counting_binomial)
    assert min_extension_degree(2, 20000, 5, ell, kind) is not None
    assert len(calls) == 1, calls


def test_min_extension_degree_crossover_small():
    # echelon-count bound wins for few blocks, raw-count bound for many
    q, n, k = 4, 64, 16
    winners = {}
    for ell in (1, 2, 4, 8, 16, 32, 64):
        a = min_extension_degree(q, n, k, ell, "A")
        u = min_extension_degree(q, n, k, ell, "U-lemma")
        winners[ell] = (u, a)
    assert any(u < a for u, a in winners.values())
    assert any(a < u for u, a in winners.values())
    # and the small-ell side is where U wins
    assert winners[1][0] < winners[1][1]
    assert winners[64][1] < winners[64][0]


def test_gv_attainment_interval_and_dimension():
    params = CodeParams(q=2, m=2, eta=2, ell=2)
    eps_max = gv_attainment_epsilon_max(params, 2)
    assert eps_max == pytest.approx(1 - math.log2(19) / 8 - 0.25, abs=1e-12)
    got = gv_attainment_dimension(params, 2, eps_max)
    assert isinstance(got, int)
    assert got >= 1
    assert gv_holds(params, got, 2)
    with pytest.raises(ValueError):
        gv_attainment_dimension(params, 2, 0.0)
    with pytest.raises(ValueError):
        gv_attainment_dimension(params, 2, eps_max + 1e-6)


def test_gv_attainment_distance_one():
    params = CodeParams(q=3, m=2, eta=2, ell=3)
    n = params.n
    eps_max = gv_attainment_epsilon_max(params, 1)
    assert eps_max == pytest.approx(1 - 1 / n)
    for eps in (0.25, 0.5):
        assert gv_attainment_dimension(params, 1, eps) == math.floor(n * (1 - eps))
    # exactly n * (1/n) = 1 at eps_max; the float product rounds just below 1
    assert gv_attainment_dimension(params, 1, eps_max) == 1


def test_gv_attainment_dimension_is_at_least_one():
    # eps <= eps_max gives k >= 1 by the theorem, whatever the float rounding;
    # at (2, 1, 1, 3), d = 1 the unclamped value is floor(3 * 0.333...26) = 0
    pairs = 0
    for q, m, eta, ell in itertools.product((2, 3, 4, 5), range(1, 7), range(1, 5), range(1, 6)):
        params = CodeParams(q=q, m=m, eta=eta, ell=ell)
        for d in range(1, ell * params.mu + 1):
            eps_max = gv_attainment_epsilon_max(params, d)
            if eps_max > 0:
                pairs += 1
                assert gv_attainment_dimension(params, d, eps_max) >= 1, (params, d)
    assert pairs == 2327


def test_gv_attainment_monte_carlo_floor():
    # random codes at the attainment dimension reach the target distance
    # essentially always; 0.9 is a loose sanity floor, not a claimed rate
    from sumrank.codes import min_distance_bruteforce, monte_carlo

    params = CodeParams(q=2, m=6, eta=2, ell=2)
    d = 2
    k = gv_attainment_dimension(params, d, gv_attainment_epsilon_max(params, d))
    res = monte_carlo(params, k, 200, 31337, lambda c: min_distance_bruteforce(c) >= d)
    assert res.estimate > 0.9
