import math
import tracemalloc

import numpy as np
import pytest

from frnorms import constants, linalg
from frnorms.algebra import AlgebraElement, AlgebraShape, TracialWeight
from frnorms.constants import (
    REFINE_DIRECTIONS,
    REFINE_FAIL_LIMIT,
    REFINE_INITIAL_STEP,
    REFINE_ROUNDS,
    TABLE1_SPECS,
    _RatioEvaluator,
    empirical_sharp_constant,
    min_ratio_over_samples,
    sharp_constant,
    structural_constants,
    table1,
    table1_subalgebra,
    theoretical_bound,
)
from frnorms.effros_shen import (
    convergent_residual,
    convergent_table,
    es_constant,
    es_level,
    periodic_theta,
)
from frnorms.errors import InputError, ShapeError
from frnorms.expectation import cond_expect, fr_norm, fr_norm_squared
from frnorms.fleet import build_fleet, random_unitary
from frnorms.subalgebra import (
    RefinedPartition,
    conjugated_subalgebra,
    make_standard_subalgebra,
    single_summand_subalgebra,
    standard_form,
)

FLEET = build_fleet()


def uniform_single(d, terms):
    b = single_summand_subalgebra(d, terms)
    return b, TracialWeight(AlgebraShape((d,)), (1.0,))


def _dense_witness(rep, shape):
    """The search witness as an element of ``shape``: xx* in summand
    ``witness_summand``, zero elsewhere."""
    x = rep.witness_vector
    mats = [np.zeros((d, d), dtype=np.complex128) for d in shape.dims]
    mats[rep.witness_summand - 1] = np.outer(x, np.conj(x))
    return AlgebraElement(shape, mats)


def test_block_count_and_multiplicity_worked_examples():
    # (terms, expected r, expected ell)
    cases = [
        ([(3, 1), (2, 1)], 2, 1),
        ([(2, 2), (1, 1)], 3, 2),
        ([(2, 1), (1, 2), (1, 1)], 4, 2),
        ([(2, 1), (1, 3)], 4, 3),
        ([(1, 3), (1, 1)], 4, 3),
    ]
    for terms, r, ell in cases:
        d = sum(n * m for n, m in terms)
        b, v = uniform_single(d, terms)
        c = structural_constants(b, v)
        assert c.r == r, terms
        assert c.ell == ell, terms
        assert c.L == len(terms)
        assert abs(c.bound - 1.0 / math.sqrt(r * ell)) < 1e-15


def test_multiplicity_free_single_summand_uses_slot_count():
    b, v = uniform_single(5, [(3, 1), (2, 1)])
    c = structural_constants(b, v)
    assert c.theorem == "multiplicity-free"
    assert c.bound == 1.0 / math.sqrt(2)

    # with a repeated block the finer bound applies
    b, v = uniform_single(4, [(1, 2), (2, 1)])
    c = structural_constants(b, v)
    assert c.theorem == "single-summand"
    assert abs(c.bound - 1.0 / math.sqrt(3 * 2)) < 1e-15


def test_direct_sum_tag_for_trivially_grouped_multi_summand():
    b = make_standard_subalgebra(
        (2, 3),
        [((1, 1), (1, 1)), ((2, 1), (1, 1))],
        [[(1, 1)], [(1, 2)], [(2, 1)], [(2, 2)]],
    )
    v = TracialWeight(b.shape, (1 / 3, 2 / 3))
    c = structural_constants(b, v)
    assert c.theorem == "direct-sum"
    assert c.r == 2  # lcm(2, 2)
    assert c.ell == 1
    assert abs(c.bound - 1.0 / math.sqrt(2)) < 1e-15


def test_cross_summand_formula():
    f = next(x for x in FLEET if x.name == "dsum-cross")
    b, v = f.subalgebra, f.weight
    c = structural_constants(b, v)
    assert c.theorem == "cross-summand"
    # v = (1/4, 3/4) on dims (2, 2): factors 1/8 and 3/8
    assert c.alpha == 0.125
    assert abs(c.gamma - 0.875) < 1e-15  # 1/8 + 2 * 3/8
    assert c.r == 2
    assert c.ell == 2
    assert c.m == 3  # one occurrence in summand 1, two in summand 2
    want = math.sqrt(0.125 / (2 * 2 * 3 * 0.875))
    assert abs(c.bound - want) < 1e-15
    assert abs(c.bound - 0.10910894511799618) < 1e-15


def test_theoretical_bound_wrapper_matches():
    for f in FLEET[:6]:
        c = structural_constants(f.subalgebra, f.weight)
        bound, theorem = theoretical_bound(f.subalgebra, f.weight)
        assert bound == c.bound
        assert theorem == c.theorem


def test_random_unitary_is_unitary_and_seeded():
    for f in FLEET:
        u = random_unitary(f.shape, np.random.default_rng(5))
        again = random_unitary(f.shape, np.random.default_rng(5))
        for s, t in zip(u.summands, again.summands):
            assert np.abs(s.conj().T @ s - np.eye(len(s))).max() < 1e-13, f.name
            assert np.array_equal(s, t), f.name


def test_constants_invariant_under_conjugation():
    rng = np.random.default_rng(3)
    for f in FLEET[:8]:
        u = random_unitary(f.shape, rng)
        c0 = structural_constants(f.subalgebra, f.weight)
        cc = structural_constants(
            conjugated_subalgebra(f.subalgebra, u), f.weight
        )
        assert cc == c0


def test_reference_table_theoretical_values():
    rows = table1(samples=0)
    assert len(rows) == 16
    for row, spec in zip(rows, TABLE1_SPECS):
        assert row.label == spec[0]
        assert row.dim == spec[1]
        assert row.terms == spec[2]
        assert row.empirical is None
        assert abs(row.reference_guess - 1.0 / math.sqrt(spec[3])) < 1e-15
        assert abs(row.reference_theoretical - 1.0 / math.sqrt(spec[4])) < 1e-15
        if not row.flagged:
            assert abs(row.theoretical - row.reference_theoretical) < 1e-12
    flagged = [r for r in rows if r.flagged]
    assert [r.label for r in flagged] == ["B^5_{2,1,1,1}"]
    row = flagged[0]
    # recomputed value 1/2 disagrees with the printed reference 1/sqrt(3)
    assert abs(row.theoretical - 0.5) < 1e-15
    assert abs(row.reference_theoretical - 1.0 / math.sqrt(3)) < 1e-15


def _numpy_scalars(b, v):
    """(alpha, gamma, bound) evaluated as numpy scalars: np.min, np.max,
    np.sqrt, and the denominators as a product with int64 block counts."""
    b, _ = standard_form(b, v)
    sc = structural_constants(b, v)
    w = v.per_trace_factors()
    counts = np.zeros((b.shape.num_summands, len(b.runs)), dtype=np.int64)
    for g, runs in enumerate(b.runs):
        for k, _, m in runs:
            counts[k - 1, g] += m
    alpha = float(np.min(w))
    gamma = float(np.max(w @ counts))
    if b.trivially_grouped:
        bound = 1.0 / np.sqrt(sc.r * sc.ell)
    else:
        bound = np.sqrt(alpha / (sc.r * sc.ell * sc.m * gamma))
    return alpha, gamma, float(bound)


def _bits(*values):
    return [np.float64(x).tobytes() for x in values]


def test_tower_scalars_keep_their_numpy_bits():
    """The structural scalars and the tower constant are Python floats
    with the bits of their numpy evaluation.  ``denominators`` must stay
    a numpy product: a Python sum of w_k * c_kg differs from it in the
    last bit on many weights, and gamma would move with it."""
    problems = [table1_subalgebra(spec[0]) for spec in TABLE1_SPECS]
    problems += [(fx.subalgebra, fx.weight) for fx in FLEET]
    # One group across five summands, where the order of the weighted sum
    # shows in the last bit under about a quarter of random weights.
    dims = (3, 5, 7, 9, 11)
    spread = make_standard_subalgebra(
        dims, [((1, d),) for d in dims], [[(k, 1) for k in range(1, 6)]]
    )
    rng = np.random.default_rng(5)
    problems += [(spread, TracialWeight.normalized(spread.shape, rng.random(5) + 0.01)) for _ in range(20)]
    levels = []
    for period in ((1,), (2,), (1, 2), (3, 1, 4)):
        for n in range(2, 14):
            theta, cf = periodic_theta(period, n)
            lev = es_level(theta, n, cf)
            problems.append((lev.subalgebra, lev.weight))
            levels.append((theta, n, cf))
    for b, v in problems:
        sc = structural_constants(b, v)
        assert _bits(sc.alpha, sc.gamma, sc.bound) == _bits(*_numpy_scalars(b, v))
    for theta, n, cf in levels:
        table = convergent_table(cf)
        num = abs(convergent_residual(theta, table.q[n], table.p[n]))
        den = abs(convergent_residual(theta, table.q[n - 2], table.p[n - 2]))
        r_n = cf.r[n]
        ref = np.sqrt(num / (den * r_n * (r_n + 1) ** 2))
        assert _bits(es_constant(theta, n, cf)) == _bits(ref), (cf.r, n)


def test_table1_subalgebra_round_trip():
    b, v = table1_subalgebra("B^4_{2^2}")
    c = structural_constants(b, v)
    assert abs(c.bound - 0.5) < 1e-15
    assert c.theorem == "single-summand"
    b2, _ = table1_subalgebra("B^4_{2,2}")
    assert structural_constants(b2, v).theorem == "multiplicity-free"
    with pytest.raises(KeyError):
        table1_subalgebra("nope")


def test_search_is_deterministic_and_consistent():
    b, v = uniform_single(2, [(1, 1), (1, 1)])
    r1 = empirical_sharp_constant(b, v, samples=400, seed=5, refine=False)
    r2 = empirical_sharp_constant(b, v, samples=400, seed=5, refine=False)
    assert r1.best_ratio == r2.best_ratio
    assert r1.witness_summand == r2.witness_summand
    assert np.array_equal(r1.witness_vector, r2.witness_vector)
    r3 = empirical_sharp_constant(b, v, samples=400, seed=6, refine=False)
    assert r3.best_ratio != r1.best_ratio
    assert r1.samples == 400 and r1.seed == 5
    assert r1.refine_steps == 0


def test_search_witness_invariants():
    b, v = uniform_single(2, [(1, 1), (1, 1)])
    rep = empirical_sharp_constant(b, v, samples=500, seed=1)
    from frnorms.algebra import element_norm

    p = _dense_witness(rep, b.shape)
    assert abs(element_norm(p) - 1.0) < 1e-12
    # reported ratio is reproduced by the witness
    assert abs(fr_norm(b, v, p) - rep.best_ratio) < 1e-12
    assert rep.refine_steps > 0
    bound = structural_constants(b, v).bound
    assert rep.best_ratio >= bound - 1e-9
    assert rep.best_ratio <= 1.0 + 1e-12


def test_refinement_improves_or_matches_sampling():
    b, v = uniform_single(3, [(1, 3)])
    plain = empirical_sharp_constant(b, v, samples=300, seed=9, refine=False)
    refined = empirical_sharp_constant(b, v, samples=300, seed=9, refine=True)
    assert refined.best_ratio <= plain.best_ratio + 1e-15


def test_search_tightens_toward_sharp_value_on_diagonal_m2():
    # diagonal subalgebra of M_2 with uniform weight: sharp constant 1/sqrt(2)
    b, v = uniform_single(2, [(1, 1), (1, 1)])
    rep = empirical_sharp_constant(b, v, samples=2000, seed=0)
    assert abs(rep.best_ratio - 1.0 / math.sqrt(2)) < 5e-3


def test_search_on_conjugated_subalgebra_transports():
    f = next(x for x in FLEET if x.name == "circulant-M3")
    rep = empirical_sharp_constant(f.subalgebra, f.weight, samples=300, seed=4)
    base_bound = structural_constants(f.subalgebra, f.weight).bound
    assert rep.best_ratio >= base_bound - 1e-9
    assert rep.best_ratio <= 1.0 + 1e-12


def test_min_ratio_over_samples_agrees_with_norm_route():
    b, v = uniform_single(2, [(1, 1), (1, 1)])
    m = min_ratio_over_samples(b, v, count=50, seed=11)
    bound = structural_constants(b, v).bound
    assert bound - 1e-9 <= m <= 1.0 + 1e-12


def test_invalid_search_arguments(monkeypatch):
    """A sample count that is not an integer (a bool included) is refused
    with ValueError before any generator is made, as is one below 1 in
    the search and a negative one in table1, and so is a seed that is not
    an integer of at least 0; a numpy integer is read as an int."""
    b, v = uniform_single(2, [(1, 1), (1, 1)])
    rep = empirical_sharp_constant(b, v, samples=np.int64(5), seed=np.uint32(7), refine=False)
    assert rep.samples == 5 and type(rep.samples) is int
    assert rep.seed == 7 and type(rep.seed) is int
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args))
    for bad in (0, -3):
        with pytest.raises(ValueError, match=">= 1"):
            empirical_sharp_constant(b, v, samples=bad)
    with pytest.raises(ValueError, match=">= 0"):
        table1(samples=-3)
    for bad in (2.5, True, False, np.float64(3.0), "10", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            empirical_sharp_constant(b, v, samples=bad)
        with pytest.raises(ValueError, match="samples must be an integer"):
            table1(samples=bad)
    # The seed likewise: an integer of at least 0, a bool excluded.
    for bad in (-1, -3, np.int64(-2)):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            empirical_sharp_constant(b, v, samples=5, seed=bad)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            table1(samples=0, seed=bad)
    for bad in (2.5, True, False, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            empirical_sharp_constant(b, v, samples=5, seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            table1(samples=5, seed=bad)
    assert made == []


def test_constants_refuse_a_weight_of_another_shape():
    """dsum-cross has shape (2, 2); a weight declared for (2, 4) or for
    three summands is refused by every constant, also on a conjugate."""
    f = next(f for f in FLEET if f.name == "dsum-cross")
    u = random_unitary(f.shape, np.random.default_rng(2))
    weights = (
        TracialWeight(AlgebraShape((2, 4)), (0.25, 0.75)),
        TracialWeight(AlgebraShape((2, 2, 1)), (0.25, 0.5, 0.25)),
    )
    for b in (f.subalgebra, conjugated_subalgebra(f.subalgebra, u)):
        for v in weights:
            for entry in (structural_constants, theoretical_bound, sharp_constant):
                with pytest.raises(ShapeError):
                    entry(b, v)
            with pytest.raises(ShapeError):
                empirical_sharp_constant(b, v, samples=10)


def _all_problems():
    rows = [(label, *table1_subalgebra(label)) for label, *_ in TABLE1_SPECS]
    return rows + [(f.name, f.subalgebra, f.weight) for f in FLEET]


def test_sharp_constant_closed_form():
    b, v = table1_subalgebra("B^5_{2^2,1}")
    assert abs(sharp_constant(b, v) - 1.0 / math.sqrt(5)) < 1e-15
    b, v = uniform_single(2, [(1, 1), (1, 1)])
    assert abs(sharp_constant(b, v) - 1.0 / math.sqrt(2)) < 1e-15
    problems = _all_problems()
    assert len(problems) == 30
    for name, b, v in problems:
        assert sharp_constant(b, v) >= structural_constants(b, v).bound - 1e-15, name
        assert sharp_constant(b, v) <= 1.0 + 1e-15, name


def test_sharp_constant_invariant_under_conjugation():
    rng = np.random.default_rng(31)
    for f in FLEET:
        c = conjugated_subalgebra(f.subalgebra, random_unitary(f.shape, rng))
        assert sharp_constant(c, f.weight) == sharp_constant(f.subalgebra, f.weight)


def _order_gap(b, v, a, lam):
    """The smallest eigenvalue of E(a) - lam * a over the summands."""
    e = cond_expect(b, v, a)
    return min(np.linalg.eigvalsh(x - lam * y)[0] for x, y in zip(e.summands, a.summands))


def test_the_sharp_constant_is_the_pimsner_popa_constant():
    """E(a) >= sharp^2 a for positive a (see ``sharp_constant``), and no
    larger constant holds at the search witness p: E(p) - (1.01 sharp)^2 p
    has a negative eigenvalue.  On the fleet, the table rows, golden tower
    levels 2-8 and levels 2-5 of periods (2) and (1, 2)."""
    problems = _all_problems()
    tower = [((1,), level) for level in range(2, 9)]
    tower += [(period, level) for period in ((2,), (1, 2)) for level in range(2, 6)]
    for period, level in tower:
        theta, cf = periodic_theta(period, level)
        lvl = es_level(theta, level, cf)
        problems.append((f"{period}-{level}", lvl.subalgebra, lvl.weight))
    assert len(problems) == 45
    rng = np.random.default_rng(53)
    for name, b, v in problems:
        sq = sharp_constant(b, v) ** 2
        for _ in range(10):
            g = [constants._complex_gaussian(rng, (d, d)) for d in b.shape.dims]
            a = AlgebraElement(b.shape, [x @ np.conj(x.T) for x in g])
            size = max(np.linalg.eigvalsh(x)[-1] for x in a.summands)
            assert _order_gap(b, v, a, sq) >= -1e-12 * size, name
        p = _dense_witness(empirical_sharp_constant(b, v, samples=500, seed=1), b.shape)
        assert _order_gap(b, v, p, sq) >= -1e-12, name
        assert _order_gap(b, v, p, 1.01**2 * sq) < 0, name


def _column_rows(rows):
    """The row counts of a candidate column of a summand with the slot
    rows (offset, n, m, group): its diagonal rows, sum_i s_i, and its
    entries below the diagonals, sum_i s_i (s_i - 1) / 2, each held as
    a real and an imaginary row."""
    short = [min(n, m) for _, n, m, _ in rows]
    return sum(short), sum(s * (s - 1) // 2 for s in short)


def _random_draws(rng, b, k, count):
    """``count`` random candidate columns of summand k, one Gaussian
    entry of either sign, as the refine moves them, per row of the
    sum_i s_i^2 rows."""
    diag, low = _column_rows(b.slots[k])
    return rng.standard_normal((diag + 2 * low, count))


def _projection_ratio_sq(b, v, k, x):
    """fr_norm_squared of the projection onto the unit vector x of
    summand k."""
    mats = [np.zeros((e, e), dtype=complex) for e in b.shape.dims]
    mats[k] = np.outer(x, np.conj(x))
    return fr_norm_squared(b, v, AlgebraElement(b.shape, mats))


def test_slot_gram_ratios_match_the_induced_norm():
    """The search scores candidate columns of factor entries; the
    closed form of P behind ``ratios_sq`` is checked here against
    fr_norm_squared of the projection onto ``draw_vector``'s vector,
    built from the group averages of its column blocks, on Gram draws
    and on random columns, on every table row and fixture, on
    GRAM_SHAPES and TWO_ROW_PROBLEMS, golden tower levels 6-8 and a
    sqrt(2) level whose slot Grams are 2 x 2."""
    problems = _all_problems() + _gram_shape_problems() + _two_row_problems()
    for period, level in (((1,), 6), ((1,), 7), ((1,), 8), ((2,), 4)):
        theta, cf = periodic_theta(period, level)
        lvl = es_level(theta, level, cf)
        problems.append((f"{period}-{level}", lvl.subalgebra, lvl.weight))
    assert any(min(n, m) == 2 for n, m in problems[-1][1].partitions[0].terms)
    rng = np.random.default_rng(17)
    for name, b, v in problems:
        b = standard_form(b, v)[0]
        ev = _RatioEvaluator(b, v)
        for k in range(b.shape.num_summands):
            blocks = [y for _, y in ev.gram_blocks(k, 40, rng)]
            if not _constant_summand(b.partitions[k]):
                blocks.append(_random_draws(rng, b, k, 40))
            for y in blocks:
                for j, sq in enumerate(ev.ratios_sq(k, y)):
                    x = ev.draw_vector(k, y[:, j])
                    want = _projection_ratio_sq(b, v, k, x)
                    assert abs(sq - want) < 1e-14, (name, k, sq - want)


# Slots with min(n, m) = 2 in both orientations: n < m, so the two rows
# of X_i are its rows, and m < n, so they are its columns.
TWO_ROW_PROBLEMS = (
    (((2, 3),), 1 / math.sqrt(6)),
    (((3, 2),), 0.5),
    (((2, 3), (1, 1)), 1 / math.sqrt(7)),
    (((3, 2), (2, 1)), 1 / math.sqrt(5)),
)


def _two_row_problems():
    return [(str(t), *uniform_single(sum(n * m for n, m in t), t)) for t, _ in TWO_ROW_PROBLEMS]


def _two_row_draws(rng, b):
    """Candidate columns of b's summand, one per draw: 50 random ones,
    then, for each slot with min(n, m) = 2, whose factor [[a, 0], [z, c]]
    has the rows p = (a, 0) and q = (z, c): p orthogonal to q with equal
    masses (z = 0, c = a), q = 0, and q = e^{i phi} p (c = 0,
    z = e^{i phi} a), with the other slots zero and with them random."""
    diag, low = _column_rows(b.slots[0])
    ys = [_random_draws(rng, b, 0, 50)]
    a = lo = 0
    for _, n, m, _ in b.slots[0]:
        s = min(n, m)
        if s == 2:
            p = abs(rng.standard_normal())
            for entries, z in (((p, p), 0j), ((p, 0.0), 0j), ((p, 0.0), np.exp(0.7j) * p)):
                for y in (_random_draws(rng, b, 0, 1), np.zeros((diag + 2 * low, 1))):
                    y[a : a + 2, 0] = entries
                    # The real part of the entry below the diagonal, then its imaginary part.
                    y[[diag + lo, diag + low + lo], 0] = z.real, z.imag
                    ys.append(y)
        a, lo = a + s, lo + s * (s - 1) // 2
    return np.concatenate(ys, axis=1)


def test_two_row_slot_grams_in_both_orientations():
    """A slot with min(n, m) = 2 is scored in closed form from the two
    rows of its factor.  Checked against the induced norm of
    the projection onto ``draw_vector``'s vector and against LAPACK on
    its explicit slot Grams X_i X_i*, and the refined search must reach
    the sharp constant."""
    rng = np.random.default_rng(29)
    for terms, sharp in TWO_ROW_PROBLEMS:
        b, v = uniform_single(sum(n * m for n, m in terms), terms)
        assert abs(sharp_constant(b, v) - sharp) < 1e-15
        ev = _RatioEvaluator(b, v)
        y = _two_row_draws(rng, b)
        for j, sq in enumerate(ev.ratios_sq(0, y)):
            x = ev.draw_vector(0, y[:, j])
            assert abs(math.sqrt(sq) - math.sqrt(_projection_ratio_sq(b, v, 0, x))) < 1e-14, terms
            assert abs(math.sqrt(sq) - _vector_ratios(b, v, 0, x[None])[0]) < 1e-14, terms
        for seed in range(3):
            best = empirical_sharp_constant(b, v, samples=2000, seed=seed).best_ratio
            assert sharp - 1e-12 <= best <= sharp + 1e-6, (terms, seed, best - sharp)


def test_ratios_sq_are_scale_free():
    """Candidates need not have unit length: scaling a column by c
    leaves the ratio as it is, bit for bit when c is a power of two and
    to 2e-15 relative otherwise, and it is the
    induced norm of the projection onto ``draw_vector``'s vector.
    Checked on slots of 1 to 12 entries, on slots with min(n, m) = 2 in
    both orientations and above 2, and on every table row and fixture
    summand."""
    problems = [("slot", *uniform_single(e + 1, [(e, 1), (1, 1)])) for e in range(1, 13)]
    problems += [("mult", *uniform_single(e + 2, [(1, e), (2, 1)])) for e in range(1, 13)]
    for terms in ([(2, 3)], [(3, 2)], [(2, 5), (1, 1)], [(5, 2)], [(3, 3)], [(4, 3), (1, 2)]):
        problems.append((terms, *uniform_single(sum(n * m for n, m in terms), terms)))
    problems += _all_problems()
    rng = np.random.default_rng(41)
    for name, b, v in problems:
        b = standard_form(b, v)[0]
        ev = _RatioEvaluator(b, v)
        for k in range(b.shape.num_summands):
            y = _random_draws(rng, b, k, 64)
            ratios = np.sqrt(ev.ratios_sq(k, y))
            for c in (2.0**20, 2.0**-20):
                got = np.sqrt(ev.ratios_sq(k, c * y))
                assert got.tobytes() == ratios.tobytes(), (name, k, c)
            for c in (1e-3, 3.0, 700.0):
                err = np.abs(np.sqrt(ev.ratios_sq(k, c * y)) / ratios - 1.0).max()
                assert err <= 2e-15, (name, k, c, err)
            for j, ratio in enumerate(ratios[:8]):
                x = ev.draw_vector(k, y[:, j])
                want = math.sqrt(_projection_ratio_sq(b, v, k, x))
                assert abs(ratio - want) < 1e-14, (name, k, ratio - want)


def test_complex_draws_equal_the_sum_of_two_real_draws():
    """One (2, ...) draw gives the stream and the bits of a + 1j * b."""
    for shape in ((1, 1), (7, 3), (4, 5, 5)):
        got = constants._complex_gaussian(np.random.default_rng(5), shape)
        rng = np.random.default_rng(5)
        want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert got.tobytes() == want.tobytes(), shape


def test_refined_search_attains_the_sharp_constant():
    for name, b, v in _all_problems():
        sharp = sharp_constant(b, v)
        for seed in range(3):
            best = empirical_sharp_constant(b, v, samples=2000, seed=seed).best_ratio
            assert sharp - 1e-12 <= best <= sharp + 1e-6, (name, seed, best - sharp)


def test_witness_reproduces_the_ratio_on_every_fixture():
    """On a conjugate U B U* the witness is carried back to U B U*: its
    induced norm is the reported ratio, as on a standard subalgebra."""
    for f in FLEET:
        for seed in range(3):
            rep = empirical_sharp_constant(f.subalgebra, f.weight, samples=2000, seed=seed)
            w = _dense_witness(rep, f.shape)
            ratio = fr_norm(f.subalgebra, f.weight, w)
            assert abs(ratio - rep.best_ratio) < 1e-12, (f.name, seed, ratio)
            p = w.summands[rep.witness_summand - 1]
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.conj().T).max() < 1e-15
            assert abs(np.trace(p) - 1.0) < 1e-12


def test_search_witness_is_a_rank_one_projection():
    f = next(x for x in FLEET if x.name == "dsum-cross")
    rep = empirical_sharp_constant(f.subalgebra, f.weight, samples=300, seed=3)
    nonzero = [m for m in _dense_witness(rep, f.shape).summands if np.any(m)]
    assert len(nonzero) == 1
    p = nonzero[0]
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.conj().T, atol=0.0)
    assert abs(np.trace(p) - 1.0) < 1e-12


def _constant_summand(partition):
    """Whether a summand's rank-one ratio is the same for every unit
    vector, read from its refined partition: one term (n, m) with
    min(n, m) = 1, the summand's full matrix algebra or its scalars."""
    return len(partition.terms) == 1 and min(partition.terms[0]) == 1


def _bartlett_factors(rows, diag, z):
    """The lower-triangular factors L_i of each slot, built entry by
    entry from the diagonal entries and complex entries z below them of
    a stack of draws: diag on the diagonals, slot by slot, and z below
    them in row-major order."""
    factors, a, b = [], 0, 0
    for _, n, m, _ in rows:
        s = min(n, m)
        f = np.zeros((len(diag), s, s), dtype=complex)
        for j in range(s):
            f[:, j, j] = diag[:, a + j]
        for i, j in zip(*np.tril_indices(s, -1)):
            f[:, i, j] = z[:, b]
            b += 1
        factors.append(f)
        a += s
    return factors


def _sample_by_summands(b, v, samples, seed, refine):
    """The search with each summand's Gram draws picked from in one
    call: the reference for the blocks of ``empirical_sharp_constant``.
    The draws follow the block rule, which fixes the stream; each draw's
    Bartlett factors are built entry by entry, sqrt(gamma) on the
    diagonals and the normals times sqrt(1/2) below them, their Grams
    L L* go to LAPACK, the traces are row sums, the best draw's ratio is
    read from one ``ratios_sq`` call over the columns of all of the
    summand's draws, and its slots X_i = [L_i*; 0] (m_i <= n_i) or
    [L_i, 0] are laid out column by column.  A constant summand
    (``_constant_summand``) draws nothing, stands as its first unit
    vector and is never refined.  Refines like the search and returns
    (best_ratio, refine_steps, witness summands)."""
    base, u = standard_form(b, v)
    evaluator = _RatioEvaluator(base, v)
    layout = base.weight_layout(v.weights)
    rng = np.random.default_rng(seed)
    dims = base.shape.dims
    varies = [not _constant_summand(p) for p in base.partitions]
    best = np.inf
    for k, (w, rows) in enumerate(zip(layout.factors, base.slots)):
        coef = np.array([w / layout.dens[g] for *_, g in rows])
        diag, low = _column_rows(rows)
        if not varies[k]:
            y, pick = np.ones((1, 1)), 0
        else:
            shapes = [max(n, m) - j for _, n, m, _ in rows for j in range(min(n, m))]
            per = max(1, constants._DRAW_BLOCK_ENTRIES // (diag + 2 * low))
            gs, raws = [], []
            for done in range(0, samples, per):
                count = min(per, samples - done)
                gs.append(np.array([rng.standard_gamma(t, count) for t in shapes]))
                raws.append(rng.standard_normal((2, low, count)))
            g, raw = np.concatenate(gs, axis=1), np.concatenate(raws, axis=2)
            z = (raw[0] + 1j * raw[1]).T * math.sqrt(0.5)
            factors = _bartlett_factors(rows, np.sqrt(g.T), z)
            lam = [np.linalg.eigvalsh(f @ np.conj(np.swapaxes(f, 1, 2)))[:, -1] for f in factors]
            total = g.sum(0) + (np.abs(z) ** 2).sum(1)
            ratios = np.max(coef * np.stack(lam, axis=1), axis=1) / total
            pick = int(np.argmin(ratios))
            # The columns: sqrt(g), then the real and the imaginary parts of z.
            y = np.concatenate((np.sqrt(g), raw.reshape(2 * low, g.shape[1]) * math.sqrt(0.5)))
        sq = evaluator.ratios_sq(k, y)[pick]
        if sq < best:
            best, best_k, col = sq, k, y[:, pick].copy()
    steps = 0
    if refine and varies[best_k]:
        best, col, steps = constants._refine(evaluator, best_k, col, best, rng)
    x = np.zeros(dims[best_k], dtype=complex)
    if not varies[best_k]:
        x[0] = 1.0
    else:
        diag, low = _column_rows(base.slots[best_k])
        z = col[diag : diag + low] + 1j * col[diag + low :]
        factors = _bartlett_factors(base.slots[best_k], col[None, :diag], z[None])
        for (off, n, m, _), f in zip(base.slots[best_k], factors):
            piece = np.zeros((n, m), dtype=complex)
            if m <= n:
                piece[:m] = np.conj(f[0].T)
            else:
                piece[:, :n] = f[0]
            x[off : off + n * m] = piece.T.reshape(-1)
        x = x * (1 / math.sqrt(np.vdot(x, x).real))
    if u is not None:
        x = u.summands[best_k] @ x
    witness = [np.zeros((d, d), dtype=np.complex128) for d in dims]
    witness[best_k] = np.outer(x, np.conj(x))
    return math.sqrt(best), steps, witness


def test_block_sampling_equals_the_chunk_by_chunk_loop():
    """Gram draws scored block by block find the draw that one scoring
    call per summand finds, and build the same vector, bit for bit: on
    every table row and fixture (a conjugate included) and on tower
    levels, at one sample and at counts that no block divides.  The
    refine runs from one sample on the fixtures; the round-by-round test
    below covers it on the table rows and tower levels."""
    problems = [(label, *table1_subalgebra(label), False) for label, *_ in TABLE1_SPECS]
    problems += [(f.name, f.subalgebra, f.weight, True) for f in FLEET]
    for period, level in (((1,), 8), ((1,), 12), ((2,), 8), ((1, 2), 8)):
        theta, cf = periodic_theta(period, level)
        lvl = es_level(theta, level, cf)
        problems.append((f"{period}-{level}", lvl.subalgebra, lvl.weight, False))
    for name, b, v, refinable in problems:
        base = standard_form(b, v)[0]
        entries = max(sum(min(n, m) ** 2 for n, m in p.terms) for p in base.partitions)
        per = max(1, constants._DRAW_BLOCK_ENTRIES // entries)
        for samples in (1, per + 1, 2 * per + 3):
            seed, refine = samples % 7, refinable and samples == 1
            rep = empirical_sharp_constant(b, v, samples=samples, seed=seed, refine=refine)
            best, steps, witness = _sample_by_summands(b, v, samples, seed, refine)
            case = (name, samples)
            assert np.float64(rep.best_ratio).tobytes() == np.float64(best).tobytes(), case
            assert rep.refine_steps == steps, case
            for got, want in zip(_dense_witness(rep, b.shape).summands, witness):
                assert got.tobytes() == want.tobytes(), case


def _refine_by_rounds(evaluator, k, col, best, rng, accepts):
    """The refine loop one round per draw and per call: the reference for
    the speculative blocks of ``_refine``.  The state y is the draw's
    column at unit length; each round draws its 2 * REFINE_DIRECTIONS
    directions of len(y) normals and scores y moved along them, in
    columns.  Appends each accepting round's index to ``accepts``."""
    step = REFINE_INITIAL_STEP
    fails = 0
    ndir = REFINE_DIRECTIONS

    def unit(y):
        return y * (1 / math.sqrt(np.vdot(y, y)))

    y = unit(col)
    for r in range(REFINE_ROUNDS):
        g = rng.standard_normal((2 * ndir, y.size))
        g[:ndir] *= step
        g[ndir:] *= 0.25 * step
        cands = np.ascontiguousarray((y + g).T)
        ratios = evaluator.ratios_sq(k, cands)
        pick = int(np.argmin(ratios))
        if ratios[pick] < best:
            best = ratios[pick]
            y = unit(cands[:, pick])
            accepts.append(r)
            fails = 0
        else:
            fails += 1
            if fails >= REFINE_FAIL_LIMIT:
                step *= 0.5
                fails = 0
    return best, y, len(accepts)


def _refine_both_ways(monkeypatch, b, v, samples, seed):
    """Search (b, v) and run both ``_refine`` and the round-by-round loop
    from the state the sampling leaves; return both results and the
    rounds the loop accepted in.  When the best ratio lies in a constant
    summand (``_constant_summand``), check that the search did not
    refine and return None."""
    runs = {}
    blocks = constants._refine

    def both(evaluator, k, col, best, rng):
        state = rng.bit_generator.state
        runs["blocks"] = blocks(evaluator, k, col, best, rng)
        rng.bit_generator.state = state
        runs["accepts"] = []
        runs["rounds"] = _refine_by_rounds(evaluator, k, col, best, rng, runs["accepts"])
        return runs["blocks"]

    monkeypatch.setattr(constants, "_refine", both)
    rep = empirical_sharp_constant(b, v, samples=samples, seed=seed)
    monkeypatch.undo()
    k = rep.witness_summand - 1
    if _constant_summand(standard_form(b, v)[0].partitions[k]):
        assert runs == {} and rep.refine_steps == 0
        return None
    return runs["blocks"], runs["rounds"], runs["accepts"]


def _same_refine(got, want):
    """Whether two refine results (best, column, accepts) agree bit for
    bit."""
    return (
        np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        and got[1].tobytes() == want[1].tobytes()
        and got[2] == want[2]
    )


def test_block_refine_equals_the_round_by_round_loop(monkeypatch):
    problems = [(name, b, v, 2000, seed) for name, b, v in _all_problems() for seed in range(3)]
    for period, level in (((1, 2), 6), ((1,), 16), ((2,), 8)):
        theta, cf = periodic_theta(period, level)
        lvl = es_level(theta, level, cf)
        problems.append((f"{period}-{level}", lvl.subalgebra, lvl.weight, 100, 0))
    # One (10, 10) slot refines 100 entries and draws the directions
    # of 5 rounds at a time, fewer than a speculative block scores.
    problems.append(("(10, 10)", *uniform_single(100, [(10, 10)]), 100, 0))
    accepts = {}
    for name, b, v, samples, seed in problems:
        both = _refine_both_ways(monkeypatch, b, v, samples, seed)
        if both is None:
            continue
        got, want, accepts[name, seed] = both
        assert _same_refine(got, want), (name, seed)
    # The set covers a refine that accepts in its last round and one
    # that accepts more than once.
    assert accepts["B^4_{2^2}", 2][-1] == REFINE_ROUNDS - 1
    assert len(accepts["(1, 2)-6", 0]) > 1
    # And a refine that never accepts: a best ratio of 0 lies below
    # every candidate's.
    b, v = table1_subalgebra("B^5_{2^2,1}")
    evaluator = _RatioEvaluator(b, v)
    _, y = next(evaluator.gram_blocks(0, 1, np.random.default_rng(1)))
    col = y[:, 0]
    got = constants._refine(evaluator, 0, col, 0.0, np.random.default_rng(2))
    never = []
    want = _refine_by_rounds(evaluator, 0, col, 0.0, np.random.default_rng(2), never)
    assert never == [] and got[2] == 0 and _same_refine(got, want)
    assert got[0] == 0.0
    # The draw comes back at unit length, as the same candidate.
    x, z = evaluator.draw_vector(0, col), evaluator.draw_vector(0, got[1])
    assert np.abs(x - z).max() < 1e-15
    assert abs(got[1] @ got[1] - 1.0) < 1e-15


def test_the_search_arrays_are_bounded(monkeypatch):
    """A search refuses a summand whose witness vector (2 d_k doubles),
    candidate columns or factor stacks would pass 2**20 doubles, and
    nothing else: golden level 20, the one-slot M_2**19, M_3000 cut into
    3000 (1, 1) slots and one (128, 128) slot in M_16384 are searched;
    one slot of 2**19 + 1 or 10**8 copies and one (129, 129), (181, 181)
    or (256, 256) slot are refused with InputError before the generator
    is made.  A refine round of the (s, s) slot scores 2 *
    REFINE_DIRECTIONS columns, whose complex factor stack holds
    2 * REFINE_DIRECTIONS * 2 s^2 doubles.  The bound is per summand,
    and so is the search: 200 one-slot M_16384 summands stay under
    4 MiB."""
    theta, cf = periodic_theta((1,), 20)
    lvl = es_level(theta, 20, cf)
    assert lvl.shape.dims == (10946, 6765)
    rep = empirical_sharp_constant(lvl.subalgebra, lvl.weight, samples=1, refine=False)
    assert rep.witness_vector.shape == (lvl.shape.dims[rep.witness_summand - 1],)
    for d, terms in ((2**19, [(1, 2**19)]), (3000, [(1, 1)] * 3000), (16384, [(128, 128)])):
        rep = empirical_sharp_constant(*uniform_single(d, terms), samples=1, refine=False)
        assert rep.witness_summand == 1 and rep.witness_vector.shape == (d,)
    shape = AlgebraShape((16384,) * 200)
    parts = [RefinedPartition(((1, 16384),))] * 200
    b = make_standard_subalgebra(shape, parts, [tuple((k, 1) for k in range(1, 201))])
    tracemalloc.start()
    rep = empirical_sharp_constant(b, TracialWeight(shape, (1 / 200,) * 200), samples=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep.witness_summand == 1 and peak < 4 * 2**20
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args))
    refused = (
        (2**19 + 1, [(1, 2**19 + 1)], 2**20 + 2),
        (10**8, [(1, 10**8)], 2 * 10**8),
        (129**2, [(129, 129)], 4 * REFINE_DIRECTIONS * 129**2),
        (181**2, [(181, 181)], 4 * REFINE_DIRECTIONS * 181**2),
        (65536, [(256, 256)], 4 * REFINE_DIRECTIONS * 256**2),
    )
    for d, terms, doubles in refused:
        with pytest.raises(InputError, match=f"arrays of {doubles} doubles"):
            empirical_sharp_constant(*uniform_single(d, terms), samples=1, refine=False)
    assert made == []


def _refusal_count(refusal: InputError) -> int:
    """The count of doubles that a search refusal names."""
    return int(str(refusal).split("arrays of ")[1].split()[0])


def test_the_search_bound_counts_the_factor_stacks(monkeypatch):
    """Every factor stack that scoring builds, in doubles (two per
    complex entry), is within the larger of the count that the search
    checks against _SEARCH_DOUBLES, read from the refusal message with
    the bound set to 0, and 2 * _DRAW_BLOCK_ENTRIES, the most a block of
    several draws or rounds holds.  One (16, 16) slot, whose speculative
    refine blocks span two rounds, takes the second; one (64, 64) slot
    and the two slots (50, 50) + (3, 3) build a stack of exactly the
    count, the refine round's for the widest slot.  The refine runs 8
    rounds, a full speculative block."""
    made = []
    factors, bound = constants._factors, constants._SEARCH_DOUBLES
    block = 2 * constants._DRAW_BLOCK_ENTRIES

    def recording(*args):
        f = factors(*args)
        made.append(2 * f.size)
        return f

    monkeypatch.setattr(constants, "REFINE_ROUNDS", 8)
    largest = {}
    for terms in ([(16, 16)], [(64, 64)], [(50, 50), (3, 3)]):
        b, v = uniform_single(sum(n * m for n, m in terms), terms)
        monkeypatch.setattr(constants, "_SEARCH_DOUBLES", 0)
        with pytest.raises(InputError) as refusal:
            empirical_sharp_constant(b, v, samples=100)
        count = _refusal_count(refusal.value)
        monkeypatch.setattr(constants, "_SEARCH_DOUBLES", bound)
        monkeypatch.setattr(constants, "_factors", recording)
        made.clear()
        empirical_sharp_constant(b, v, samples=100)
        monkeypatch.setattr(constants, "_factors", factors)
        assert max(made) <= max(count, block), (terms, max(made), count)
        largest[tuple(terms)] = (max(made), count)
    stack = {s: 4 * REFINE_DIRECTIONS * s * s for s in (16, 64, 50)}
    assert largest == {
        ((16, 16),): (block, stack[16]),
        ((64, 64),): (stack[64], stack[64]),
        ((50, 50), (3, 3)): (stack[50], stack[50]),
    }


def _block_rule_count(b, v) -> int:
    """The search's largest array in doubles, derived a second way, from
    the block rules: the witness vector, and per summand the widest
    scoring call, a draw block of _DRAW_BLOCK_ENTRIES // P_k columns or
    a speculative refine block of up to _SPECULATE rounds, with its
    factor stacks for the slots with s >= 3."""
    doubles = 2 * max(b.shape.dims)
    for slots, _, size in _RatioEvaluator(b, v).table:
        per_round = 2 * REFINE_DIRECTIONS
        rounds = min(constants._SPECULATE, max(1, constants._DRAW_BLOCK_ENTRIES // (per_round * size)))
        cols = max(constants._DRAW_BLOCK_ENTRIES // size, per_round * rounds)
        doubles = max([doubles, cols * size] + [2 * cols * s * s for _, s, _, _ in slots if s > 2])
    return doubles


class _Admitted(Exception):
    pass


def _admission_shapes():
    """Subalgebras on both sides of the search bound, each a list of
    summand partitions, every slot its own group: the named boundary
    cases, square slots (s, s) up to s = 181, and seeded random ones of
    up to three summands of up to 40 slots each, with summand dimensions
    up to about 2**20."""
    shapes = [
        [[(128, 128)]],
        [[(129, 129)]],
        [[(128, 128)] * 2],
        [[(128, 128)] * 2 + [(1, 1)]],
        [[(1, 2**19)]],
        [[(1, 2**19 + 1)]],
        [[(1, 1)] * 3000],
        [[(50, 50), (3, 3)]],
        [[(16, 16)]],
    ]
    shapes += [[[(s, s)]] for s in range(1, 182, 4)]
    rng = np.random.default_rng(38)
    for _ in range(300):
        parts = []
        for _ in range(rng.integers(1, 4)):
            size = rng.choice([4, 16, 64, 200])
            terms = [tuple(int(t) for t in rng.integers(1, size, 2)) for _ in range(rng.integers(1, 41))]
            if rng.random() < 0.2:
                terms[0] = (1, int(rng.integers(2**17, 2**19 + 2)))
            parts.append(terms)
        shapes.append(parts)
    return shapes


def test_the_admission_reads_only_the_input(monkeypatch):
    """The search admits a summand by d_k, P_k and its widest slot alone
    (_SEARCH_DOUBLES), and that rule admits the same shapes as the count
    derived from the block rules (``_block_rule_count``) and names the
    same count in every refusal: one (128, 128) slot, two of them
    (P_k = 2**15) and M_2**19 cut into one slot are admitted; a
    (129, 129) slot, the two (128, 128) slots with a (1, 1) slot, and
    one slot of 2**19 + 1 copies are refused."""
    def admitted_search(*args):
        raise _Admitted

    shapes = _admission_shapes()
    monkeypatch.setattr(np.random, "default_rng", admitted_search)
    admitted, refused = [], []
    for parts in shapes:
        shape = AlgebraShape(tuple(sum(n * m for n, m in t) for t in parts))
        groups = [((k, i),) for k, t in enumerate(parts, 1) for i in range(1, len(t) + 1)]
        b = make_standard_subalgebra(shape, [RefinedPartition(tuple(t)) for t in parts], groups)
        v = TracialWeight.uniform(shape)
        count = _block_rule_count(b, v)
        try:
            empirical_sharp_constant(b, v, samples=1)
        except _Admitted:
            assert count <= constants._SEARCH_DOUBLES, (parts, count)
            admitted.append(shape.dims)
        except InputError as refusal:
            assert _refusal_count(refusal) == count > constants._SEARCH_DOUBLES, (parts, count)
            refused.append(shape.dims)
    assert {(16384,), (32768,), (2**19,), (3000,), (2509,), (256,)} <= set(admitted)
    assert {(129**2,), (32769,), (2**19 + 1,)} <= set(refused)
    assert len(admitted) > 100 and len(refused) > 100, (len(admitted), len(refused))


def test_a_search_peaks_within_a_few_times_its_bound(monkeypatch):
    """_SEARCH_DOUBLES bounds the largest array, not the peak: a search
    on two (128, 128) slots in M_32768 (P_k = 2**15, at the bound) with
    one refine round holds several arrays of 2**20 doubles at once, 57.4
    MiB traced with numpy 2.4 against 8 MiB for one.  Its peak stays
    under ten times the bound."""
    monkeypatch.setattr(constants, "REFINE_ROUNDS", 1)
    b, v = uniform_single(32768, [(128, 128)] * 2)
    tracemalloc.start()
    try:
        empirical_sharp_constant(b, v, samples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * constants._SEARCH_DOUBLES, peak


def test_the_report_holds_a_summand_and_a_read_only_vector():
    """The witness is a summand (1-based) and a frozen unit vector of its
    dimension, and no dense element; reports compare by identity."""
    f = next(f for f in FLEET if f.name == "dsum-cross")
    rep = empirical_sharp_constant(f.subalgebra, f.weight, samples=200, seed=1)
    assert not hasattr(rep, "witness")
    x = rep.witness_vector
    assert not x.flags.writeable
    assert x.shape == (f.shape.dims[rep.witness_summand - 1],)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    again = empirical_sharp_constant(f.subalgebra, f.weight, samples=200, seed=1)
    assert rep != again and rep == rep
    assert len({rep, again}) == 2


class _Recording:
    """A generator that records its draws as (kind, size), in order."""

    draws = []
    make = np.random.default_rng

    def __init__(self, seed):
        self.rng = _Recording.make(seed)

    def standard_gamma(self, shape, size=None, out=None):
        self.draws.append(("gamma", size if out is None else out.shape))
        return self.rng.standard_gamma(shape, size, out=out)

    def standard_normal(self, size):
        self.draws.append(("normal", size))
        return self.rng.standard_normal(size)


def test_a_constant_summand_is_searched_with_one_vector(monkeypatch):
    """On a summand of one slot with min(n, m) = 1 every unit vector has
    the ratio sqrt(w_k / den_g), so the search draws nothing there, the
    next summand's stream starts the generator, and no refine runs when
    that summand holds the best ratio.  Checked on C1 in M_3 and on
    shape (2, 3), whose first summand is all of M_2 and shares its group
    with a 2x2 slot of the second, under weights that put the best ratio
    in the first summand, then in the second."""
    real_rng = np.random.default_rng
    sizes = _Recording.draws

    def no_refine(*args):
        raise AssertionError("refined a constant summand")

    shape = AlgebraShape((2, 3))
    two = make_standard_subalgebra(shape, [[(2, 1)], [(2, 1), (1, 1)]], [[(1, 1), (2, 1)], [(2, 2)]])
    problems = [
        (*uniform_single(3, [(1, 3)]), 0),
        (two, TracialWeight(shape, (0.1, 0.9)), 0),
        (two, TracialWeight(shape, (0.9, 0.1)), 1),
    ]
    samples = 500
    for b, v, best_k in problems:
        layout = b.weight_layout(v.weights)
        for seed, refine in ((3, False), (4, True)):
            sizes.clear()
            monkeypatch.setattr(np.random, "default_rng", _Recording)
            if best_k == 0:
                monkeypatch.setattr(constants, "_refine", no_refine)
            rep = empirical_sharp_constant(b, v, samples=samples, seed=seed, refine=refine)
            monkeypatch.undo()
            dims = b.shape.dims
            # Nothing is drawn on the constant first summand: the second
            # summand's slots (2, 1) and (1, 1) draw the generator's first
            # numbers, a row of gammas each and no normal.
            head = [("gamma", (samples,))] * 2 * (len(dims) - 1)
            assert sizes[: len(head)] == head
            assert rep.samples == samples
            if best_k == 0:
                assert len(sizes) == len(head) and rep.refine_steps == 0
                sharp = math.sqrt(layout.factors[0] / layout.dens[0])
                assert abs(rep.best_ratio - sharp) <= 1e-15
                assert rep.best_ratio == pytest.approx(sharp_constant(b, v), abs=1e-15)
            elif not refine:
                # The best ratio is the best draw's, scored on the
                # square roots y of its gammas, and its vector holds y at
                # the head of each slot.
                rng = real_rng(seed)
                y = np.sqrt([rng.standard_gamma(t, samples) for t in (2, 1)]).T
                coef = [layout.factors[1] / layout.dens[gi] for *_, gi in b.slots[1]]
                mass = y * y
                top = np.maximum(coef[0] * mass[:, 0], coef[1] * mass[:, 1])
                sq = top / (mass[:, 0] + mass[:, 1])
                pick = np.argmin(sq)
                assert rep.best_ratio == math.sqrt(sq[pick])
                x = np.zeros(dims[1], dtype=complex)
                x[[0, 2]] = y[pick]
                x = x / np.linalg.norm(x)
                assert np.abs(rep.witness_vector - x).max() < 1e-15
            else:
                assert rep.refine_steps > 0 and len(sizes) > len(head)
            assert rep.witness_summand == best_k + 1 and np.any(rep.witness_vector)


def test_sampling_draws_do_not_grow_with_the_dimension(monkeypatch):
    """A draw costs sum_i min(n_i, m_i) gammas and
    sum_i min(n_i, m_i) (min(n_i, m_i) - 1) normals, whatever d_k is:
    golden level 12, whose M_233 holds slots (144, 1) and (89, 1) and
    whose M_144 is constant, draws two gammas per sample and no normal,
    and slots (4, 3) and (1, 2) in M_14 draw four gammas and six
    normals."""
    theta, cf = periodic_theta((1,), 12)
    lvl = es_level(theta, 12, cf)
    assert [p.terms for p in lvl.subalgebra.partitions] == [((144, 1), (89, 1)), ((144, 1),)]
    problems = [(lvl.subalgebra, lvl.weight, 2, 0), (*uniform_single(14, [(4, 3), (1, 2)]), 4, 6)]
    samples = 3000
    for b, v, gammas, normals in problems:
        _Recording.draws.clear()
        monkeypatch.setattr(np.random, "default_rng", _Recording)
        empirical_sharp_constant(b, v, samples=samples, refine=False)
        monkeypatch.undo()
        counted = {"gamma": 0, "normal": 0}
        for kind, size in _Recording.draws:
            counted[kind] += math.prod(size)
        assert counted == {"gamma": samples * gammas, "normal": samples * normals}


# Two one-by-one slots of very different sizes in one summand: (6765, 1)
# + (4181, 1), as golden level 20's M_10946, and (8192, 1) + (1, 8192).
SKEWED_PAIRS = ([(6765, 1), (4181, 1)], [(8192, 1), (1, 8192)])


def test_refined_searches_on_skewed_pairs_reach_the_sharp_constant():
    """The refine moves the two gammas of the best draw, not a vector of
    d_k entries, so a deep summand of two slots is refined as a shallow
    one is: at seeds 0-2 the search ends within 1e-12 of the sharp
    constant, and not below it."""
    for terms in SKEWED_PAIRS:
        b, v = uniform_single(sum(n * m for n, m in terms), terms)
        sharp = sharp_constant(b, v)
        for seed in range(3):
            best = empirical_sharp_constant(b, v, samples=2000, seed=seed).best_ratio
            assert sharp - 1e-12 <= best <= sharp + 1e-12, (terms, seed, best - sharp)


def test_the_refine_draws_only_normals_whatever_the_dimension():
    """The refine of a summand draws only normals, 2 * REFINE_DIRECTIONS
    * sum_i s_i^2 per round, in blocks of whole rounds: on golden level
    12's varying summand M_233, slots (144, 1) and (89, 1), and on the
    skewed pair in M_16384, two parameters per direction each."""
    theta, cf = periodic_theta((1,), 12)
    lvl = es_level(theta, 12, cf)
    problems = [(lvl.subalgebra, lvl.weight, 0), (*uniform_single(16384, SKEWED_PAIRS[1]), 0)]
    assert lvl.subalgebra.partitions[0].terms == ((144, 1), (89, 1))
    for b, v, k in problems:
        ev = _RatioEvaluator(b, v)
        rng = _Recording(1)
        sq, y = next(ev.gram_blocks(k, 500, rng))
        _Recording.draws.clear()
        pick = int(np.argmin(sq))
        constants._refine(ev, k, y[:, pick], sq[pick], rng)
        assert {kind for kind, _ in _Recording.draws} == {"normal"}
        assert all(size[1:] == (2 * REFINE_DIRECTIONS, 2) for _, size in _Recording.draws)
        total = sum(math.prod(size) for _, size in _Recording.draws)
        assert total == REFINE_ROUNDS * 2 * REFINE_DIRECTIONS * 2


# Slots whose short side is 2 in both orientations, 3, and a pair of
# slots with short sides 3 and 1.
GRAM_SHAPES = ([(2, 3)], [(3, 2)], [(3, 3)], [(4, 3), (1, 2)])


def _gram_shape_problems():
    return [(str(t), *uniform_single(sum(n * m for n, m in t), t)) for t in GRAM_SHAPES]


def _ks_distance(a, b):
    """The two-sample Kolmogorov-Smirnov distance of a and b."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate((a, b))
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def _vector_ratios(b, v, k, vecs):
    """Ratios of the projections onto the rows of ``vecs``, unit
    vectors of summand k: sqrt(max_i c_i lambda_max(X_i X_i*)), with the
    explicit slot Grams on their short sides through
    ``linalg.eigvalsh_batch``."""
    layout = b.weight_layout(v.weights)
    lam = []
    for off, n, m, g in b.slots[k]:
        # Row j of piece is column j of X_i.
        piece = vecs[:, off : off + n * m].reshape(len(vecs), m, n)
        gram = piece @ linalg.adjoint(piece) if m <= n else linalg.adjoint(piece) @ piece
        lam.append(layout.factors[k] / layout.dens[g] * linalg.eigvalsh_batch(gram)[:, -1])
    return np.sqrt(np.max(lam, axis=0))


def test_gram_draws_have_the_law_of_gaussian_unit_vectors():
    """The ratios of Gram draws and of Gaussian unit vectors, the
    sampler the Gram draws replace, scored on their explicit slot Grams
    (``_vector_ratios``), are 20000 draws apart by a KS distance below
    0.03 on every varying summand of the table rows and fixtures and on
    GRAM_SHAPES.  Under equal laws a distance above 0.03 has probability
    about 3e-8 per summand; a sampler with Gamma(t) on every Bartlett
    diagonal read 0.23."""
    draws = 20000
    rng = np.random.default_rng(47)
    for name, b, v in _all_problems() + _gram_shape_problems():
        b = standard_form(b, v)[0]
        ev = _RatioEvaluator(b, v)
        for k, d in enumerate(b.shape.dims):
            if _constant_summand(b.partitions[k]):
                continue
            grams = np.sqrt(np.concatenate([sq for sq, _ in ev.gram_blocks(k, draws, rng)]))
            vecs = constants._complex_gaussian(rng, (draws, d))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            dist = _ks_distance(grams, _vector_ratios(b, v, k, vecs))
            assert dist < 0.03, (name, k, dist)


def test_the_best_draw_builds_a_witness_with_its_ratio():
    """Unrefined, on GRAM_SHAPES: the witness is a rank-one projection
    whose induced norm is the reported ratio, and that ratio is the best
    Gram draw's."""
    for name, b, v in _gram_shape_problems():
        ev = _RatioEvaluator(b, v)
        for seed in range(3):
            rep = empirical_sharp_constant(b, v, samples=2000, seed=seed, refine=False)
            p = _dense_witness(rep, b.shape)
            assert abs(fr_norm(b, v, p) - rep.best_ratio) < 1e-12, (name, seed)
            p = p.summands[0]
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.conj().T).max() < 1e-15
            assert abs(np.trace(p) - 1.0) < 1e-12
            best = min(sq.min() for sq, _ in ev.gram_blocks(0, 2000, np.random.default_rng(seed)))
            assert abs(rep.best_ratio - math.sqrt(best)) < 1e-12, (name, seed)
