"""Property tests: field arithmetic, volumes and the max-k solvers against
independent oracles, on inputs drawn by hypothesis.

The draws are derandomized, so every run checks the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank.bounds import (
    gv_holds,
    gv_max_k,
    gv_simplified_holds,
    gv_simplified_max_k,
    sp_holds,
    sp_max_k,
    sp_simplified_holds,
    sp_simplified_max_k,
)
from sumrank.fields import ext_make, field_make, matrix_rank
from sumrank.volumes import CodeParams, sphere_volume, sphere_volume_direct

from conftest import independent_rref

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)

# (base field (p, e), extension degree): towers over prime and non-prime
# bases, with lookup tables, and F_{2^13} above the table cap (raw path)
TOWERS = [((2, 1), 2), ((2, 1), 3), ((3, 1), 2), ((5, 1), 2), ((2, 2), 2), ((2, 2), 3),
          ((3, 1), 3), ((2, 1), 13)]
towers = st.sampled_from(TOWERS).map(lambda t: ext_make(field_make(*t[0]), t[1]))
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
@given(code_params.flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p.ell * p.mu))))
def test_max_k_resubstitutes(drawn):
    params, d = drawn
    n = params.n
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
