"""Property tests: field arithmetic, codes, volumes and the max-k solvers
against independent oracles, on inputs drawn by hypothesis.

The draws are derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sumrank.codes import (
    ambient_field,
    block_rank_profile,
    is_msrd,
    min_distance_bruteforce,
    monte_carlo,
    random_systematic_code,
)
from sumrank.fields import ext_make, field_make, matrix_rank
from sumrank.volumes import CodeParams, sphere_volume, sphere_volume_direct

from conftest import assert_encloses, independent_rref

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)

# (base field (p, e), extension degree): towers over prime and non-prime
# bases, with lookup tables up to F_{2^16}, and F_{2^17} and F_{16^5} above
# the table cap (raw path)
TOWERS = [((2, 1), 2), ((2, 1), 3), ((3, 1), 2), ((5, 1), 2), ((2, 2), 2), ((2, 2), 3),
          ((3, 1), 3), ((2, 1), 13), ((2, 1), 16), ((2, 1), 17), ((2, 4), 5)]
towers = st.sampled_from(TOWERS).map(lambda t: ext_make(field_make(*t[0]), t[1]))
# odd characteristic on the table path, where add, neg and sub are Zech lookups
ZECH_TOWERS = [((3, 1), 6), ((5, 1), 2), ((3, 2), 2), ((3, 1), 10)]
zech_towers = st.sampled_from(ZECH_TOWERS).map(lambda t: ext_make(field_make(*t[0]), t[1]))
fields = st.one_of(st.sampled_from([(2, 1), (3, 1), (2, 2)]).map(lambda pe: field_make(*pe)), towers)
code_params = st.builds(
    CodeParams,
    q=st.sampled_from([2, 3, 4]),
    m=st.integers(1, 5),
    eta=st.integers(1, 5),
    ell=st.integers(1, 5),
)


def _elements(F, count):
    return st.lists(st.integers(0, F.order - 1), min_size=count, max_size=count)


@SETTINGS
@given(towers.flatmap(lambda E: st.tuples(st.just(E), _elements(E, 3))))
def test_field_axioms_and_fast_paths(drawn):
    E, (a, b, c) = drawn
    assert E.add(E.add(a, b), c) == E.add(a, E.add(b, c))
    assert E.add(a, b) == E.add(b, a)
    assert E.mul(E.mul(a, b), c) == E.mul(a, E.mul(b, c))
    assert E.mul(a, b) == E.mul(b, a)
    assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
    assert E.add(a, 0) == a and E.mul(a, 1) == a
    assert E.add(a, E.neg(a)) == 0
    assert E.sub(a, b) == E.add(a, E.neg(b))
    # the lookup tables, where built, agree with the polynomial arithmetic
    assert E.mul(a, b) == E._mul_raw(a, b)
    # a base-field scalar is encoded as itself, so its action is a product
    scalar = c % E.base.order
    assert E.scalar_mul(scalar, a) == E.mul(scalar, a)
    if a:
        assert E.mul(a, E.inv(a)) == 1
        assert E.inv(a) == E._inv_raw(a)
        assert E.pow(a, -1) == E.inv(a)
        assert E.pow(a, E.order - 1) == 1


@SETTINGS
@given(zech_towers.flatmap(lambda E: st.tuples(st.just(E), _elements(E, 2))))
def test_zech_add_matches_coordinate_path(drawn):
    E, (a, b) = drawn
    assert E.inv(1) == 1 and E._zech is not None  # the tables are in use
    assert E.add(a, b) == E._add_raw(a, b)
    assert E.neg(a) == E._neg_raw(a)
    assert E.sub(a, b) == E._add_raw(a, E._neg_raw(b))


@SETTINGS
@given(st.builds(CodeParams, q=st.just(2), m=st.integers(1, 6), eta=st.integers(1, 4),
                 ell=st.integers(1, 3)).flatmap(
    lambda p: st.tuples(st.just(p), _elements(ambient_field(p), p.n))))
def test_binary_block_rank_profile_matches_matrix_rank(drawn):
    params, word = drawn
    ext, eta = ambient_field(params), params.eta
    expected = []
    for i in range(params.ell):
        cols = [ext.decode(v) for v in word[i * eta : (i + 1) * eta]]
        expected.append(matrix_rank(ext.base, [[col[r] for col in cols] for r in range(ext.degree)]))
    assert block_rank_profile(ext, word, params.ell, eta) == tuple(expected)


# small codes over q in {2, 3, 4} with at most 2^10 messages to enumerate
small_codes = st.builds(
    CodeParams, q=st.sampled_from([2, 3, 4]), m=st.integers(1, 3), eta=st.integers(1, 3),
    ell=st.integers(1, 3),
).filter(lambda p: p.n >= 2 and p.q**p.m <= 32).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(1, p.n - 1).filter(lambda k: p.msrd_attainable(k) and (p.q**p.m) ** k <= 1 << 10),
    st.integers(0, 2**32 - 1),
))


@SETTINGS
@given(small_codes)
def test_is_msrd_agrees_with_bruteforce_distance(drawn):
    params, k, seed = drawn
    code = random_systematic_code(params, k, np.random.default_rng(seed))
    assert is_msrd(code) == (min_distance_bruteforce(code) == params.n - k + 1)


@settings(SETTINGS, max_examples=20)
@given(st.integers(1, 24), st.integers(0, 2**63 - 1))
def test_monte_carlo_is_independent_of_trial_order(trials, seed):
    params, k = CodeParams(q=2, m=3, eta=2, ell=2), 2
    successes = 0
    for i in reversed(range(trials)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        successes += is_msrd(random_systematic_code(params, k, rng))
    assert monte_carlo(params, k, trials, seed, is_msrd).successes == successes


@SETTINGS
@given(fields.flatmap(lambda F: st.tuples(
    st.just(F),
    st.integers(1, 4).flatmap(lambda cols: st.lists(_elements(F, cols), min_size=1, max_size=4)),
)))
def test_matrix_rank_matches_independent_rref(drawn):
    F, mat = drawn
    _, pivots = independent_rref(F, mat)
    assert matrix_rank(F, mat) == len(pivots)


@SETTINGS
@given(code_params)
def test_sphere_volume_matches_direct_sum(params):
    for t in range(params.ell * params.mu + 1):
        assert sphere_volume(params, t) == sphere_volume_direct(params, t)


@SETTINGS
@given(code_params)
def test_ball_enclosure_contains_the_exact_balls(params):
    assert_encloses(params)


@SETTINGS
@given(code_params.flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p.ell * p.mu))))
def test_max_k_resubstitutes(drawn):
    params, d = drawn
    n = params.n
    assert 0 <= singleton_max_k(params, d) <= n
    solvers = [(sp_max_k, sp_holds), (gv_max_k, gv_holds),
               (sp_simplified_max_k, sp_simplified_holds)]
    if d > 2:
        solvers.append((gv_simplified_max_k, gv_simplified_holds))
    for max_k, holds in solvers:
        k = max_k(params, d)
        assert 0 <= k <= n, max_k
        if k >= 1:
            assert holds(params, k, d), (max_k, k)
        if k < n:
            assert not holds(params, k + 1, d), (max_k, k)


@SETTINGS
@given(code_params)
def test_max_k_never_increases_with_d(params):
    top = params.ell * params.mu
    solvers = [(sp_max_k, 1), (gv_max_k, 1), (sp_simplified_max_k, 1), (gv_simplified_max_k, 3)]
    for max_k, first in solvers:
        ks = [max_k(params, d) for d in range(first, top + 1)]
        assert all(a >= b for a, b in zip(ks, ks[1:])), (max_k, ks)
