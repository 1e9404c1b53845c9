import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frnorms import effros_shen
from frnorms.algebra import AlgebraElement
from frnorms.constants import empirical_sharp_constant, sharp_constant, structural_constants
from frnorms.effros_shen import (
    GOLDEN,
    SQRT2_MINUS_1,
    SQRT3_MINUS_1,
    ContinuedFraction,
    baire_distance,
    cf_expand,
    continuity_probe,
    convergent_residual,
    convergent_table,
    convergents,
    es_constant,
    es_level,
    es_weight_t,
    eventually_periodic_theta,
    periodic_theta,
)
from frnorms.errors import InputError, RationalityError
from frnorms.expectation import cond_expect, cond_expect_gram
from frnorms.subalgebra import BASIS_LIMIT, canonical_basis


def test_module_constants_are_the_advertised_irrationals():
    assert GOLDEN == (math.sqrt(5) - 1) / 2
    assert SQRT2_MINUS_1 == math.sqrt(2) - 1
    assert SQRT3_MINUS_1 == math.sqrt(3) - 1


def test_expansion_examples():
    assert cf_expand(SQRT2_MINUS_1, 4).r == (0, 2, 2, 2, 2)
    assert cf_expand(GOLDEN, 5).r == (0, 1, 1, 1, 1, 1)
    assert cf_expand(math.pi - 3.0, 3).r == (0, 7, 15, 1)


def test_rational_inputs_are_rejected():
    with pytest.raises(RationalityError):
        cf_expand(0.5, 5)
    # 3/7 terminates after a few Gauss steps
    with pytest.raises(RationalityError):
        cf_expand(3.0 / 7.0, 10)
    # out-of-range inputs are a different failure
    with pytest.raises(InputError):
        cf_expand(0.0, 1)
    with pytest.raises(InputError):
        cf_expand(2.0, 3)
    with pytest.raises(InputError):
        cf_expand(GOLDEN, 0)


def test_depth_beyond_64_bit_convergents_is_refused():
    """q_n >= F_{n+1} for every fraction, and F_93 > 2**63 - 1, so depth 91
    is the deepest with a convergent table; deeper requests are refused
    before any term is built."""
    fib = [1, 1]
    while len(fib) < 93:
        fib.append(fib[-1] + fib[-2])
    assert fib[91] <= 2**63 - 1 < fib[92]  # F_92 fits, F_93 does not
    _, cf = periodic_theta((1,), 91)
    assert convergent_table(cf).q[-1] == fib[91]

    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="exceeds 91"):
            periodic_theta((1,), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for call in (
        lambda: periodic_theta((1, 2), 92),
        lambda: eventually_periodic_theta((1,), (2,), 92),
        lambda: cf_expand(GOLDEN, 92),
    ):
        with pytest.raises(InputError, match="exceeds 91"):
            call()


def test_continued_fraction_validation():
    ContinuedFraction((0, 1, 2))
    ContinuedFraction((3, 1))  # r_0 > 0 is allowed by the container
    with pytest.raises(InputError):
        ContinuedFraction((3,))  # needs r_0 and r_1
    with pytest.raises(InputError):
        ContinuedFraction((-1, 2))
    with pytest.raises(InputError):
        ContinuedFraction((0, 0, 2))
    cf = ContinuedFraction((0, 1, 2, 3))
    assert cf.depth == 3
    assert cf.tail == (1, 2, 3)


def test_fibonacci_convergents():
    cf = ContinuedFraction((0, 1, 1, 1, 1, 1))
    t = convergent_table(cf)
    assert t.p == (0, 1, 1, 2, 3, 5)
    assert t.q == (1, 1, 2, 3, 5, 8)
    assert convergents(cf, 0) == (0, 1)
    assert convergents(cf, 1) == (1, 1)
    assert convergents(cf, 5) == (5, 8)
    with pytest.raises(IndexError):
        convergents(cf, 6)
    with pytest.raises(IndexError):
        convergents(cf, -1)


def test_first_convergents_seed_correctly():
    cf = ContinuedFraction((2, 7))
    t = convergent_table(cf)
    # p_0/q_0 = r_0, p_1/q_1 = (r_0 r_1 + 1)/r_1
    assert (t.p[0], t.q[0]) == (2, 1)
    assert (t.p[1], t.q[1]) == (15, 7)


def test_convergent_overflow_detection():
    big = ContinuedFraction((0,) + (2**31,) * 3)
    with pytest.raises(InputError):
        convergent_table(big)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=12))
def test_convergent_identities(terms):
    cf = ContinuedFraction((0, *terms))
    t = convergent_table(cf)
    n = cf.depth
    # determinant identity, exact in integers
    for k in range(1, n + 1):
        assert t.p[k] * t.q[k - 1] - t.p[k - 1] * t.q[k] == (-1) ** (k - 1)
    # denominators strictly increase from index 1 on
    for k in range(2, n + 1):
        assert t.q[k] > t.q[k - 1]
    # convergents approximate the exact finite value at the classical rate
    from fractions import Fraction

    x = Fraction(0)
    for a in reversed(terms):
        x = 1 / (a + x)
    for k in range(1, n + 1):
        err = abs(x - Fraction(t.p[k], t.q[k]))
        assert err < Fraction(1, t.q[k] ** 2)


def test_periodic_values():
    theta, cf = periodic_theta((1,), 6)
    assert abs(theta - GOLDEN) < 1e-15
    assert cf.r == (0, 1, 1, 1, 1, 1, 1)
    theta, _ = periodic_theta((2,), 5)
    assert abs(theta - SQRT2_MINUS_1) < 1e-15
    theta, _ = periodic_theta((1, 2), 5)
    assert abs(theta - SQRT3_MINUS_1) < 1e-15


def test_eventually_periodic_values():
    # [0; 1, 2, 2, 2, ...] = 1/(1 + sqrt(2) - 1) = 1/sqrt(2)
    theta, cf = eventually_periodic_theta((1,), (2,), 5)
    assert abs(theta - 1.0 / math.sqrt(2)) < 1e-15
    assert cf.r == (0, 1, 2, 2, 2, 2)
    # pure periodic via empty prefix matches periodic_theta
    t1, c1 = eventually_periodic_theta((), (1,), 4)
    t2, c2 = periodic_theta((1,), 4)
    assert t1 == t2 and c1.r == c2.r


def test_baire_distance_examples():
    assert baire_distance((0, 1, 1), (0, 1, 1)) == 0.0
    assert baire_distance((0, 1, 1), (0, 1, 2)) == 2.0**-3
    assert baire_distance((0, 1), (1, 1)) == 2.0**-1
    # proper prefix: first disagreement just past the shared terms
    assert baire_distance((0, 1), (0, 1, 1)) == 2.0**-3
    assert baire_distance(ContinuedFraction((0, 2)).r, ContinuedFraction((0, 1)).r) == 0.25


def test_weight_parameter_values_for_golden():
    # t(theta, 1) = theta for the golden ratio
    assert abs(es_weight_t(GOLDEN, 1) - GOLDEN) < 1e-14
    # t(theta, 2) = 3 - sqrt(5)
    assert abs(es_weight_t(GOLDEN, 2) - (3.0 - math.sqrt(5))) < 1e-14
    with pytest.raises(ValueError):
        es_weight_t(GOLDEN, 0)


def test_weight_parameter_recurrence_and_range():
    for theta in (GOLDEN, SQRT2_MINUS_1, SQRT3_MINUS_1):
        cf = cf_expand(theta, 12)
        t = convergent_table(cf)
        for n in range(1, 11):
            tn = es_weight_t(theta, n, cf=cf)
            assert 0.0 < tn < 1.0
            # 1 - t_n = (-1)^n q_{n-1} (theta q_n - p_n)
            resid = convergent_residual(theta, t.q[n], t.p[n])
            want = (-1.0) ** n * t.q[n - 1] * resid
            assert abs((1.0 - tn) - want) < 1e-12


def test_residual_signs_alternate():
    # even convergents approach from below, so theta q - p > 0 there
    cf = cf_expand(SQRT2_MINUS_1, 10)
    t = convergent_table(cf)
    for n in range(1, 10):
        resid = convergent_residual(SQRT2_MINUS_1, t.q[n], t.p[n])
        assert resid != 0.0
        assert (resid > 0) == (n % 2 == 0)


def test_residual_is_compensated():
    # naive evaluation loses most digits once q is large; the compensated
    # form keeps the small residual accurate
    cf = cf_expand(SQRT2_MINUS_1, 9)
    t = convergent_table(cf)
    q, p = t.q[9], t.p[9]
    resid = convergent_residual(SQRT2_MINUS_1, q, p)
    import fractions

    exact = fractions.Fraction(SQRT2_MINUS_1) * q - p
    assert abs(resid - float(exact)) < 1e-18 * q


def test_golden_level_structure():
    lvl = es_level(GOLDEN, 2)
    assert lvl.n == 2
    assert lvl.r_n == 1
    # Fibonacci dimensions q_2 = 2, q_1 = 1
    assert lvl.shape.dims == (2, 1)
    assert lvl.p == (0, 1, 1) and lvl.q == (1, 1, 2)
    b = lvl.subalgebra
    assert [pt.terms for pt in b.partitions] == [((1, 1), (1, 1)), ((1, 1),)]
    assert b.groups == (((1, 1), (2, 1)), ((1, 2),))
    assert not b.trivially_grouped
    assert abs(sum(lvl.weight.weights) - 1.0) < 1e-15
    assert abs(lvl.t - (3.0 - math.sqrt(5))) < 1e-14
    with pytest.raises(ValueError):
        es_level(GOLDEN, 1)


def test_deep_level_builds_in_bounded_memory():
    """A level is built from partition data alone: golden level 14 has a
    196418-element canonical basis, which neither the build nor the
    structural constants may materialise."""
    theta, cf = periodic_theta((1,), 14)
    tracemalloc.start()
    try:
        lvl = es_level(theta, 14, cf)
        sc = structural_constants(lvl.subalgebra, lvl.weight)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lvl.shape.dims == (610, 377)
    assert lvl.subalgebra.dimension == 196418
    assert sc.theorem == "cross-summand"
    assert peak < 5 * 2**20


def test_on_demand_builds_are_bounded():
    """The basis of golden level 30 (956722026041 elements) and level 15
    (514229) is refused before anything is allocated; level 14 (196418)
    is within the limit."""
    theta, cf = periodic_theta((1,), 30)
    sub = es_level(theta, 30, cf).subalgebra
    t0 = time.monotonic()
    with pytest.raises(InputError, match="BASIS_LIMIT"):
        canonical_basis(sub)
    assert time.monotonic() - t0 < 1.0
    theta, cf = periodic_theta((1,), 15)
    with pytest.raises(InputError, match="BASIS_LIMIT"):
        canonical_basis(es_level(theta, 15, cf).subalgebra)
    theta, cf = periodic_theta((1,), 14)
    assert es_level(theta, 14, cf).subalgebra.dimension == 196418 <= BASIS_LIMIT


def test_gram_oracle_is_bounded():
    """The Gram oracle's dense basis (dimension * sum d_k^2 entries) is
    refused at golden level 11 (3.1e8 entries, about 5 GB) before it is
    built; level 8 (9.7e5 entries) still runs and agrees with the block
    average."""
    theta, cf = periodic_theta((1,), 11)
    lvl = es_level(theta, 11, cf)
    one = AlgebraElement.identity(lvl.shape)
    t0 = time.monotonic()
    with pytest.raises(InputError, match="DENSE_BASIS_LIMIT"):
        cond_expect_gram(lvl.subalgebra, lvl.weight, one)
    assert time.monotonic() - t0 < 1.0
    theta, cf = periodic_theta((1,), 8)
    lvl = es_level(theta, 8, cf)
    a = AlgebraElement(lvl.shape, [np.diag(np.arange(1.0, d + 1)) for d in lvl.shape.dims])
    g = cond_expect_gram(lvl.subalgebra, lvl.weight, a)
    p = cond_expect(lvl.subalgebra, lvl.weight, a)
    assert max(np.abs(x - y).max() for x, y in zip(g.summands, p.summands)) < 1e-12


def test_deep_level_search_is_bounded():
    """The search scores each candidate on its own d_k entries, so on
    golden level 8 (dims 34, 21), golden level 16 (dims 1597, 987) and
    period (2) level 8 (dims 985, 408) a refined 2000-sample search stays
    small in time and memory and lands on the sharp constant: the
    empirical oracle for the tower's sharp constant."""
    for period, level in (((1,), 8), ((1,), 16), ((2,), 8)):
        theta, cf = periodic_theta(period, level)
        lvl = es_level(theta, level, cf)
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            rep = empirical_sharp_constant(lvl.subalgebra, lvl.weight, samples=2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 5.0, (period, level)
        sharp = sharp_constant(lvl.subalgebra, lvl.weight)
        assert sharp - 1e-12 <= rep.best_ratio <= sharp + 1e-6, (period, level)
        assert peak < 64 * 2**20, (period, level)


def test_level_weights_follow_the_parameter():
    for theta in (GOLDEN, SQRT2_MINUS_1):
        for n in (2, 3, 4):
            lvl = es_level(theta, n)
            t = lvl.t
            assert lvl.weight.weights == (t, 1.0 - t)
            assert lvl.shape.num_summands == 2


def test_level_depth_guard():
    cf = cf_expand(GOLDEN, 3)
    with pytest.raises(InputError):
        es_level(GOLDEN, 4, cf=cf)


def test_golden_constant_level_2():
    # closed form (sqrt(5) - 1)/4 at level 2 for the golden ratio
    want = (math.sqrt(5.0) - 1.0) / 4.0
    assert abs(es_constant(GOLDEN, 2) - want) < 1e-14


def test_sqrt2_constant_level_2():
    assert abs(es_constant(SQRT2_MINUS_1, 2) - 0.09763107293781766) < 1e-15


def test_constant_oracle_identity():
    """The closed form agrees with the structural bound of the level."""
    for theta in (GOLDEN, SQRT2_MINUS_1, SQRT3_MINUS_1):
        for n in range(2, 7):
            lvl = es_level(theta, n)
            c = structural_constants(lvl.subalgebra, lvl.weight)
            assert abs(c.bound - es_constant(theta, n)) < 1e-12
            assert c.theorem == "cross-summand"


def test_periodic_inputs_give_level_independent_constants():
    """For a periodic expansion the residual ratio over two levels is the
    squared period contraction, so the constant is the same at every level."""
    for theta, want in (
        (GOLDEN, GOLDEN / 2.0),
        (SQRT2_MINUS_1, 0.09763107293781766),
    ):
        # theta itself carries an O(eps) representation error that the
        # residuals amplify by q_N, so deep levels drift at the 1e-11 scale
        vals = [es_constant(theta, n) for n in range(2, 9)]
        assert all(abs(vv - want) < 5e-10 for vv in vals)
        assert all(0.0 < vv <= 1.0 for vv in vals)


def test_aperiodic_prefix_makes_constants_level_dependent():
    theta, cf = eventually_periodic_theta((3, 1, 2), (1,), 9)
    vals = [es_constant(theta, n, cf=cf) for n in range(2, 8)]
    assert len(set(round(vv, 6) for vv in vals)) > 1
    assert all(0.0 < vv <= 1.0 for vv in vals)


def test_continuity_probe_shapes_and_self_entry():
    etas = [GOLDEN, SQRT2_MINUS_1]
    rep = continuity_probe(GOLDEN, etas, 4)
    assert rep.theta == GOLDEN
    assert rep.level == 4
    assert len(rep.entries) == 2
    selfe = rep.entries[0]
    assert selfe.eta == GOLDEN
    assert selfe.agreement_depth == 5  # all N + 1 terms agree
    assert selfe.baire == 0.0
    assert selfe.gap == 0.0
    assert selfe.lipschitz_ratio == 0.0
    assert selfe.constant_theta == selfe.constant_eta


def test_continuity_probe_detects_disagreement():
    # eta = 1 - theta = (3 - sqrt(5))/2 has expansion [0; 2, 1, 1, ...];
    # the probe compares tail terms, which disagree immediately
    eta = 1.0 - GOLDEN
    rep = continuity_probe(GOLDEN, [eta], 4)
    e = rep.entries[0]
    assert e.agreement_depth == 0
    assert e.baire == 2.0**-1
    assert e.gap > 0.0
    assert e.lipschitz_ratio == e.gap / abs(GOLDEN - eta)


def test_continuity_probe_converges_along_convergent_tails():
    # perturbations that share ever longer golden prefixes
    theta = GOLDEN
    etas = []
    for k in (3, 5, 7):
        eta, _ = eventually_periodic_theta((1,) * k, (2,), 10)
        etas.append(eta)
    rep = continuity_probe(theta, etas, 2)
    gaps = [e.gap for e in rep.entries]
    dists = [abs(theta - e.eta) for e in rep.entries]
    # closer inputs give closer constants
    assert dists[0] > dists[1] > dists[2]
    assert gaps[0] >= gaps[1] >= gaps[2]
    for e in rep.entries:
        assert e.constant_eta > 0.0


def test_probe_perturbation_cfs_override():
    eta, eta_cf = periodic_theta((2,), 6)
    rep = continuity_probe(GOLDEN, [eta], 5, perturbation_cfs=[eta_cf])
    assert rep.entries[0].agreement_depth == 0
    with pytest.raises(InputError):
        continuity_probe(GOLDEN, [eta], 6, perturbation_cfs=[eta_cf])


def test_every_tower_entry_point_refuses_a_shallow_fraction():
    """A fraction shallower than the level needs is refused with InputError
    by every entry point, for theta's fraction and a perturbation's."""
    theta, cf = periodic_theta((1,), 3)
    for call in (
        lambda: es_weight_t(theta, 5, cf),
        lambda: es_level(theta, 5, cf),
        lambda: es_constant(theta, 5, cf),
        lambda: continuity_probe(theta, [GOLDEN], 3, cf),
        lambda: continuity_probe(GOLDEN, [theta], 3, perturbation_cfs=[cf]),
    ):
        with pytest.raises(InputError, match="depth 3 below"):
            call()


def test_convergent_denominators_fit_64_bits_from_q1():
    """q_1 = r_1 is checked like every later q_n: 2**63 - 1 is the largest
    accepted, whether it comes from a table, a period or a prefix."""
    with pytest.raises(InputError, match="q_1 exceeds"):
        convergent_table(ContinuedFraction((0, 2**70)))
    for call in (
        lambda: convergent_table(ContinuedFraction((0, 2**63))),
        lambda: periodic_theta((2**63,), 2),
        lambda: eventually_periodic_theta((2**63,), (1,), 3),
    ):
        with pytest.raises(InputError, match="q_1 exceeds"):
            call()
    assert convergent_table(ContinuedFraction((0, 2**63 - 1))).q == (1, 2**63 - 1)
    # Its period passes the range check; its tail value, 0.0, is refused.
    with pytest.raises(InputError, match="tail value"):
        periodic_theta((2**63 - 1,), 2)
    theta, cf = eventually_periodic_theta((2**63 - 1,), (1,), 2)
    assert cf.r == (0, 2**63 - 1, 1)
    assert 0.0 < theta < 1.0


def test_a_tail_value_outside_the_unit_interval_is_refused():
    """Once a period term nears 2e8 the tail value's root cancels to 0.0;
    it is refused with InputError, not returned as theta, and not divided
    by in front of a prefix (which gave nan)."""
    for call in (
        lambda: periodic_theta((2 * 10**8,), 2),
        lambda: eventually_periodic_theta((1,), (2**63 - 1,), 3),
    ):
        with pytest.raises(InputError, match="tail value 0.0"):
            call()
    theta, cf = periodic_theta((10**7,), 2)
    assert 0.0 < theta < 1.0 and cf.r == (0, 10**7, 10**7)


def test_a_level_builds_its_convergent_table_once(monkeypatch):
    builds = []
    table = effros_shen.convergent_table

    def counted(cf):
        builds.append(cf)
        return table(cf)

    monkeypatch.setattr(effros_shen, "convergent_table", counted)
    for theta, cf in ((GOLDEN, None), periodic_theta((1, 2), 9)):
        for n in (2, 5, 9):
            builds.clear()
            lvl = es_level(theta, n, cf)
            assert len(builds) == 1, (theta, n)
            assert lvl.t == es_weight_t(theta, n, cf)


def _count_builds(monkeypatch):
    """Record each convergent recurrence run from now on."""
    builds = []
    recurrence = effros_shen._recurrence

    def counted(terms):
        builds.append(tuple(terms))
        return recurrence(terms)

    monkeypatch.setattr(effros_shen, "_recurrence", counted)
    return builds


def test_one_convergent_table_per_fraction(monkeypatch):
    """A level, its structural constants and its closed form share one
    table, and a continuity probe builds one table per fraction."""
    fractions = [periodic_theta(period, 9) for period in ((1,), (1, 2), (3, 1, 4))]
    builds = _count_builds(monkeypatch)
    for theta, cf in fractions:
        builds.clear()
        lev = es_level(theta, 8, cf)
        structural_constants(lev.subalgebra, lev.weight)
        es_constant(theta, 8, cf)
        es_constant(theta, 7, cf)
        assert convergents(cf, 8) == (lev.p[8], lev.q[8])
        assert builds == [cf.r], cf

    theta, cf = periodic_theta((1,), 9)
    etas = [eventually_periodic_theta((1,) * k, (2,), 9) for k in (3, 5, 7)]
    builds.clear()
    rep = continuity_probe(theta, [e for e, _ in etas], 8, cf, [c for _, c in etas])
    assert len(rep.entries) == 3
    assert builds == [cf.r] + [c.r for _, c in etas]
