import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frnorms import linalg
from frnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    TracialWeight,
    element_norm,
    inner_product,
    to_block_matrix,
    trace_state,
)
from frnorms.constants import (
    TABLE1_SPECS,
    _RatioEvaluator,
    structural_constants,
    table1_subalgebra,
)
from frnorms.effros_shen import GOLDEN, es_level
from frnorms.errors import InputError, ShapeError
from frnorms.expectation import (
    apply_pipeline,
    cond_expect,
    cond_expect_gram,
    fr_norm,
    fr_norm_squared,
    pinching_ratio,
    pipeline_for,
    quotient_seminorm,
    stage_unitary_mean,
)
from frnorms.fleet import build_fleet, random_element, random_positive
from frnorms.subalgebra import (
    ConjugatedSubalgebra,
    _run_blocks,
    contains,
    embed,
    single_summand_subalgebra,
    standard_form,
)

FLEET = build_fleet()


def fixture(name):
    return next(f for f in FLEET if f.name == name)


def test_diagonal_expectation_by_hand():
    b = single_summand_subalgebra(2, [(1, 1), (1, 1)])
    v = TracialWeight.uniform(AlgebraShape((2,)))
    a = AlgebraElement(AlgebraShape((2,)), [np.array([[5.0, 4.0], [4.0, 5.0]])])
    p = cond_expect(b, v, a)
    assert np.array_equal(p.summands[0], np.diag([5.0, 5.0]))
    assert fr_norm_squared(b, v, a) == 41.0
    assert fr_norm(b, v, a) == np.sqrt(41.0)
    # keeps each diagonal entry (distinguishes the diagonal from scalars)
    skew = AlgebraElement(AlgebraShape((2,)), [np.array([[1.0, 2.0], [3.0, 4.0]])])
    assert np.array_equal(
        cond_expect(b, v, skew).summands[0], np.diag([1.0, 4.0])
    )


def test_full_algebra_expectation_is_identity():
    b = single_summand_subalgebra(3, [(3, 1)])
    v = TracialWeight.uniform(AlgebraShape((3,)))
    rng = np.random.default_rng(0)
    a = AlgebraElement(
        AlgebraShape((3,)),
        [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))],
    )
    assert element_norm(cond_expect(b, v, a) - a) < 1e-14


def test_scalar_subalgebra_gives_normalized_trace():
    for n in (2, 3, 5):
        # one slot of block size 1 and multiplicity n: B = C * I
        b = single_summand_subalgebra(n, [(1, n)])
        v = TracialWeight(AlgebraShape((n,)), (1.0,))
        rng = np.random.default_rng(n)
        a = AlgebraElement(
            AlgebraShape((n,)),
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))],
        )
        p = cond_expect(b, v, a)
        want = (np.trace(a.summands[0]) / n) * np.eye(n)
        assert np.abs(p.summands[0] - want).max() < 1e-13


def test_expectation_axioms_and_dual_route_on_fleet():
    rng = np.random.default_rng(99)
    for f in FLEET:
        b, v = f.subalgebra, f.weight
        one = AlgebraElement.identity(f.shape)
        assert element_norm(cond_expect(b, v, one) - one) < 1e-12
        for _ in range(3):
            a = random_element(f.shape, rng)
            p = cond_expect(b, v, a)
            # idempotent, contained, trace preserving
            assert element_norm(cond_expect(b, v, p) - p) < 1e-10
            assert contains(b, p, tol=1e-9 * max(element_norm(a), 1.0))
            assert abs(trace_state(v, p) - trace_state(v, a)) < 1e-12
            # adjoint compatible
            assert element_norm(
                cond_expect(b, v, a.adjoint()) - p.adjoint()
            ) < 1e-12
            # positivity
            pos = cond_expect(b, v, a.adjoint() @ a)
            for m in pos.summands:
                w = np.linalg.eigvalsh((m + m.conj().T) / 2)
                assert w.min() > -1e-10 * max(w.max(), 1.0)
            # dual route
            g = cond_expect_gram(b, v, a)
            assert element_norm(p - g) < 1e-10 * max(element_norm(a), 1.0)


def test_bimodule_property_on_fleet():
    rng = np.random.default_rng(123)
    for f in FLEET:
        b, v = f.subalgebra, f.weight
        a = random_element(f.shape, rng)
        p_a = cond_expect(b, v, a)
        # x, y in B  =>  P(x a y) = x P(a) y
        x = cond_expect(b, v, random_element(f.shape, rng))
        y = cond_expect(b, v, random_element(f.shape, rng))
        lhs = cond_expect(b, v, x @ a @ y)
        rhs = x @ p_a @ y
        scale = max(element_norm(a) * element_norm(x) * element_norm(y), 1.0)
        assert element_norm(lhs - rhs) < 1e-10 * scale


def test_expectation_is_an_orthogonal_projection():
    rng = np.random.default_rng(5)
    for f in FLEET[:6]:
        b, v = f.subalgebra, f.weight
        a = random_element(f.shape, rng)
        p = cond_expect(b, v, a)
        resid = a - p
        # residual orthogonal to every subalgebra element
        probe = cond_expect(b, v, random_element(f.shape, rng))
        assert abs(inner_product(v, resid, probe)) < 1e-11 * max(
            element_norm(a), 1.0
        )


def test_shape_mismatch_rejected():
    b = single_summand_subalgebra(2, [(1, 2)])
    v = TracialWeight.uniform(AlgebraShape((2,)))
    bad = AlgebraElement.identity(AlgebraShape((3,)))
    with pytest.raises(ShapeError):
        cond_expect(b, v, bad)


def test_norm_axioms_on_fleet():
    rng = np.random.default_rng(77)
    for f in FLEET:
        b, v = f.subalgebra, f.weight
        a = random_element(f.shape, rng)
        c = random_element(f.shape, rng)
        na, nc = fr_norm(b, v, a), fr_norm(b, v, c)
        assert na > 0.0
        assert abs(fr_norm(b, v, (-2.0 + 1.5j) * a) - abs(-2.0 + 1.5j) * na) < 1e-9
        assert fr_norm(b, v, a + c) <= na + nc + 1e-9
        # C* identity for the underlying operator norm route
        assert fr_norm_squared(b, v, a) <= element_norm(a) ** 2 + 1e-9
        zero = AlgebraElement.zero(f.shape)
        assert fr_norm(b, v, zero) == 0.0


def test_quotient_seminorm_behaviour():
    f = fixture("B4_2_1_1")
    b, v = f.subalgebra, f.weight
    rng = np.random.default_rng(31)
    a = random_element(f.shape, rng)
    inside = cond_expect(b, v, a)
    assert quotient_seminorm(b, v, inside) < 1e-10
    s_a = quotient_seminorm(b, v, a)
    # unchanged by removing the expectation part
    assert abs(quotient_seminorm(b, v, a - inside) - s_a) < 1e-10


def test_quotient_seminorm_is_strongly_leibniz_on_inverses():
    f = fixture("B4_2_1_1")
    b, v = f.subalgebra, f.weight
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_element(f.shape, rng) + 3.0 * AlgebraElement.identity(f.shape)
        inv = AlgebraElement(f.shape, [np.linalg.inv(m) for m in a.summands])
        lhs = quotient_seminorm(b, v, inv)
        rhs = quotient_seminorm(b, v, a) * element_norm(inv) ** 2
        assert lhs <= rhs + 1e-9


def test_transport_identity_for_conjugated_subalgebras():
    f = fixture("circulant-M3")
    c, v = f.subalgebra, f.weight
    base, u = c.base, c.unitary
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_element(f.shape, rng)
        lhs = fr_norm(c, v, a)
        rhs = fr_norm(base, v, u.adjoint() @ a @ u)
        assert abs(lhs - rhs) < 1e-9


def test_induced_norm_kernel_matches_the_dense_route():
    """fr_norm_squared reads A's column blocks; the dense route forms
    A* A and takes the operator norm of its expectation.  Every fixture,
    circulant-M3 through the A U transport, and golden levels 2-10.
    _RatioEvaluator.fr_norms_sq runs the same kernel on a whole stack."""
    rng = np.random.default_rng(41)
    problems = [(f.name, f.subalgebra, f.weight) for f in FLEET]
    for level in range(2, 11):
        lev = es_level(GOLDEN, level)
        problems.append((f"golden-{level}", lev.subalgebra, lev.weight))
    assert any(isinstance(b, ConjugatedSubalgebra) for _, b, _ in problems)
    for name, b, v in problems:
        elems = [random_element(b.shape, rng) for _ in range(3)]
        got = np.array([fr_norm_squared(b, v, a) for a in elems])
        dense = [element_norm(cond_expect(b, v, a.adjoint() @ a)) for a in elems]
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0, err_msg=name)
        base = b
        if isinstance(b, ConjugatedSubalgebra):
            base = b.base
            elems = [a @ b.unitary for a in elems]
        stacks = [np.stack(mats) for mats in zip(*(a.summands for a in elems))]
        batch = _RatioEvaluator(base, v).fr_norms_sq(stacks)
        np.testing.assert_allclose(batch, got, rtol=1e-12, atol=0, err_msg=name)


def _with_peak(a, peak):
    """a with each summand scaled so that its largest entry is exactly
    ``peak``: the rest lie at or below peak / 2, and the largest sits at
    (i, j) and (j, i), so a Hermitian summand stays Hermitian."""
    mats = []
    for m in a.summands:
        mag = np.abs(m)
        out = (0.5 * peak / mag.max()) * m
        i, j = np.unravel_index(mag.argmax(), m.shape)
        out[i, j] = out[j, i] = peak
        mats.append(out)
    return AlgebraElement(a.shape, mats)


def test_single_and_stacked_routes_agree_bit_for_bit():
    """element_norm is the max of opnorm_batch, or of hermitian_opnorm_batch
    on an exactly Hermitian summand, over each summand stacked alone, and
    fr_norm_squared(b, v, a_i) is entry i of induced_opnorms_sq on a stack
    of the elements: exactly, on every fixture and golden level 6, for
    Gaussian elements and a Hermitian one, unscaled and scaled by 1e200
    and 1e-200 (the rescaled operator norms; at 1e200 the Gram overflows
    and both induced-norm routes refuse it), and at the ends of the Gram
    range: summands whose peak entry is exactly GRAM_SAFE_ENTRY or
    1/GRAM_SAFE_ENTRY, one ulp beyond each, and a zero summand."""
    rng = np.random.default_rng(1717)
    problems = [(f.name, f.subalgebra, f.weight) for f in FLEET]
    lev = es_level(GOLDEN, 6)
    problems.append(("golden-6", lev.subalgebra, lev.weight))
    edges = (linalg.GRAM_SAFE_ENTRY, 1.0 / linalg.GRAM_SAFE_ENTRY)
    edges += (np.nextafter(edges[0], np.inf), np.nextafter(edges[1], 0.0))
    hermitian_summands = 0
    for name, b, v in problems:
        base, u = standard_form(b)
        gauss = [random_element(b.shape, rng) for _ in range(3)]
        herm = gauss[0] + gauss[0].adjoint()
        cases = [(scale, [scale * a for a in gauss + [herm]]) for scale in (1.0, 1e200, 1e-200)]
        cases += [(peak, [_with_peak(a, peak) for a in gauss + [herm]]) for peak in edges]
        zero_first = [np.zeros_like(m) if k == 0 else m for k, m in enumerate(gauss[1].summands)]
        cases.append((0.0, [AlgebraElement(b.shape, zero_first), AlgebraElement.zero(b.shape)]))
        for scale, elems in cases:
            for a in elems:
                want = 0.0
                for m in a.summands:
                    hermitian = np.array_equal(m, m.conj().T)
                    hermitian_summands += hermitian
                    batch = linalg.hermitian_opnorm_batch if hermitian else linalg.opnorm_batch
                    want = max(want, float(batch(m[None])[0]))
                assert element_norm(a) == want, (name, scale)
            carried = elems if u is None else [a @ u for a in elems]
            stacks = [np.stack(mats) for mats in zip(*(a.summands for a in carried))]
            if scale > 1e160:
                with pytest.raises(ValueError):
                    base.induced_opnorms_sq(v.weights, stacks)
                for a in elems:
                    with pytest.raises(ValueError):
                        fr_norm_squared(b, v, a)
                continue
            single = [fr_norm_squared(b, v, a) for a in elems]
            assert np.array_equal(base.induced_opnorms_sq(v.weights, stacks), single), (name, scale)
    assert hermitian_summands >= 3 * len(problems)


def test_checked_elements_go_straight_to_the_spectral_core(monkeypatch):
    """element_norm and fr_norm_squared do not re-scan what the element
    check covered: with eigvalsh_batch, opnorm_batch and
    hermitian_opnorm_batch made to raise, both give the values they gave
    before, on Gaussian and Hermitian elements of every fixture and
    golden levels 6-8.  A summand scaled by 1e-200, below the Gram range,
    still takes opnorm_batch's rescaling."""
    rng = np.random.default_rng(4242)
    problems = [(f.name, f.subalgebra, f.weight) for f in FLEET]
    for level in (6, 7, 8):
        lev = es_level(GOLDEN, level)
        problems.append((f"golden-{level}", lev.subalgebra, lev.weight))
    cases = []
    for name, b, v in problems:
        a = random_element(b.shape, rng)
        for el in (a, a + a.adjoint()):
            cases.append((name, b, v, el, element_norm(el), fr_norm_squared(b, v, el)))

    def scan(*args):
        raise AssertionError("a checked element was scanned again")

    with monkeypatch.context() as patch:
        for routine in ("eigvalsh_batch", "opnorm_batch", "hermitian_opnorm_batch"):
            patch.setattr(linalg, routine, scan)
        for name, b, v, el, norm, frsq in cases:
            assert element_norm(el) == norm, name
            assert fr_norm_squared(b, v, el) == frsq, name
    rescaled, opnorm_batch = [], linalg.opnorm_batch

    def spy(m):
        rescaled.append(m.shape)
        return opnorm_batch(m)

    monkeypatch.setattr(linalg, "opnorm_batch", spy)
    for name, b, v, el, norm, _ in cases[::2]:
        rescaled.clear()
        tiny = 1e-200 * el
        assert abs(element_norm(tiny) - 1e-200 * norm) <= 1e-12 * 1e-200 * norm, name
        assert rescaled == [(1, d, d) for d in b.shape.dims], name


def test_induced_norm_forms_no_dense_product():
    """At golden level 13 (dims 377 and 233) one fr_norm_squared call
    peaks below twice the bytes of A; forming A* A and its d x d
    expectation costs about 3.5 times."""
    lev = es_level(GOLDEN, 13)
    a = random_element(lev.subalgebra.shape, np.random.default_rng(13))
    fr_norm_squared(lev.subalgebra, lev.weight, a)
    tracemalloc.start()
    try:
        fr_norm_squared(lev.subalgebra, lev.weight, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(m.nbytes for m in a.summands), peak


def test_overflowing_element_is_refused_with_value_error():
    f = fixture("B4_2_1_1")
    a = AlgebraElement(f.shape, [np.full((d, d), 1e160) for d in f.shape.dims])
    # the complex products of inf also set the invalid flag
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        fr_norm_squared(f.subalgebra, f.weight, a)


def test_faithfulness_lower_bound():
    rng = np.random.default_rng(55)
    for f in FLEET:
        b, v = f.subalgebra, f.weight
        bound = structural_constants(b, v).bound
        for _ in range(3):
            a = random_element(f.shape, rng)
            frsq = fr_norm_squared(b, v, a)
            opn = element_norm(a)
            assert frsq >= bound * bound * opn * opn - 1e-9 * max(opn * opn, 1.0)


def test_positive_cone_comparison():
    rng = np.random.default_rng(60)
    for f in FLEET[:8]:
        b, v = f.subalgebra, f.weight
        mu = structural_constants(b, v).bound ** -2
        c = random_positive(f.shape, rng)
        p = cond_expect(b, v, c)
        lhs = element_norm(c)
        rhs = mu * max(
            np.linalg.eigvalsh((m + m.conj().T) / 2).max() for m in p.summands
        )
        assert lhs <= rhs + 1e-9 * max(lhs, 1.0)


def test_trivially_grouped_pipeline_matches_expectation():
    rng = np.random.default_rng(42)
    for f in FLEET:
        b = f.subalgebra
        if getattr(b, "trivially_grouped", False) is not True:
            continue
        pipe = pipeline_for(b, f.weight)
        assert pipe.final_scale == 1.0
        for _ in range(5):
            a = random_element(f.shape, rng)
            out = apply_pipeline(pipe, a)
            want = cond_expect(b, f.weight, a)
            assert element_norm(out - want) < 1e-9 * max(element_norm(a), 1.0)


def _powers(stage):
    """g^0, ..., g^(size-1) for the stage's generator g = diag(phase) P,
    P[a, perm[a]] = 1, after checking that g has order exactly size."""
    d = len(stage.perm)
    g = np.diag(stage.phase) @ np.eye(d)[stage.perm]
    out = [np.eye(d, dtype=np.complex128)]
    for _ in range(stage.size):
        out.append(g @ out[-1])
    for p in out[1:-1]:
        assert np.abs(p - np.eye(d)).max() > 0.5, stage.label
    assert np.abs(out[-1] - np.eye(d)).max() < 1e-12, stage.label
    return out[:-1]


def test_phase_stage_literal_family_for_two_blocks():
    b = single_summand_subalgebra(4, [(2, 2)])
    v = TracialWeight.uniform(AlgebraShape((4,)))
    pipe = pipeline_for(b, v)
    stage = pipe.stages[0]
    assert stage.label == "block-phase"
    assert stage.size == 2
    u0, u1 = _powers(stage)
    assert np.allclose(u0, np.eye(4))
    assert np.allclose(u1, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_circulant_stage_shifts_by_block():
    b = single_summand_subalgebra(4, [(2, 2)])
    v = TracialWeight.uniform(AlgebraShape((4,)))
    stage = pipeline_for(b, v).stages[1]
    assert stage.label == "circulant-shift"
    assert stage.size == 2
    m = _powers(stage)[1]
    want = np.zeros((4, 4))
    for a in range(4):
        want[a, (a + 2) % 4] = 1.0
    assert np.array_equal(m, want)


def _literal_shift_matrix(size, shift):
    m = np.zeros((size, size))
    for a in range(size):
        m[a, (a + shift) % size] = 1.0
    return m


def _literal_circulant(b, j):
    """Member j of the circulant stage, assembled block by block from the
    partitions: slot i of summand k is shifted cyclically by (j mod m) n
    within its own span."""
    mats = []
    for d, part in zip(b.shape.dims, b.partitions):
        full = np.zeros((d, d))
        pos = 0
        for n, m in part.terms:
            full[pos : pos + n * m, pos : pos + n * m] = _literal_shift_matrix(n * m, (j % m) * n)
            pos += n * m
        mats.append(full)
    return to_block_matrix(AlgebraElement(b.shape, mats))


def _literal_phases(b, count):
    """The first ``count`` members of the block-phase stage from the
    partitions: fine block t of summand k gets phase exp(2 pi i t / r_k)
    to the member index, accumulated by repeated multiplication."""
    fine = [[n for n, m in part.terms for _ in range(m)] for part in b.partitions]
    step = [np.exp(2j * np.pi * np.arange(len(f)) / len(f)) for f in fine]
    cur = [np.ones(len(f), dtype=np.complex128) for f in fine]
    out = []
    for _ in range(count):
        mats = [np.diag(np.repeat(c, f)) for c, f in zip(cur, fine)]
        out.append(to_block_matrix(AlgebraElement(b.shape, mats)))
        cur = [c * s for c, s in zip(cur, step)]
    return out


def _standard_problems(levels):
    """Every standard fleet fixture, every reference-table row and the
    given golden tower levels, as (name, subalgebra, weight)."""
    problems = [(f.name, f.subalgebra, f.weight) for f in FLEET if hasattr(f.subalgebra, "slots")]
    problems += [(label, *table1_subalgebra(label)) for label, *_ in TABLE1_SPECS]
    for level in levels:
        lev = es_level(GOLDEN, level)
        problems.append((f"golden-{level}", lev.subalgebra, lev.weight))
    return problems


def _literal_gamma(b, v):
    """max_g sum_{(k, i) in g} w_k m_{k,i}, w_k = v_k / d_k, read from the
    groups and partitions."""
    w = v.per_trace_factors()
    return max(
        sum(w[k - 1] * b.partitions[k - 1].terms[i - 1][1] for k, i in g) for g in b.groups
    )


def test_block_layout_and_stages_on_multi_slot_fixtures():
    """On every standard fixture, golden level 5 and the reference table
    rows (whose multiplicities reach 3, where a shift and its inverse
    differ), the slot table tiles each summand, each slot's m copies sit
    in its group's runs at offset + j n, and the powers of the
    circulant and phase generators equal the matrices built literally
    from the partitions."""
    for name, b, v in _standard_problems([5]):
        group_of = {slot: g for g, slots in enumerate(b.groups) for slot in slots}
        for k, (d, part, rows) in enumerate(zip(b.shape.dims, b.partitions, b.slots), start=1):
            assert [(n, m) for _, n, m, _ in rows] == list(part.terms), name
            assert [g for *_, g in rows] == [group_of[(k, i)] for i in range(1, len(rows) + 1)], name
            ends = [off + n * m for off, n, m, _ in rows]
            assert [off for off, *_ in rows] == [0] + ends[:-1], name
            assert ends[-1] == d, name
            for off, n, m, g in rows:
                copies = [o + j * n for kk, o, r in b.runs[g] if kk == k for j in range(r)]
                assert copies == [off + j * n for j in range(m)], name
        phase, circulant = pipeline_for(b, v).stages[:2]
        for j, got in enumerate(_powers(circulant)):
            assert np.array_equal(got, _literal_circulant(b, j)), (name, j)
        for got, want in zip(_powers(phase), _literal_phases(b, phase.size)):
            assert np.abs(got - want).max() < 1e-13, name


def test_stage_sizes_and_final_scale_are_the_structural_constants():
    """The stage orders are the r and ell of structural_constants, plus m
    when slots are identified; a grouped pipeline then rescales by
    1/gamma.  Every standard fixture, table row and golden levels 2-7."""
    for name, b, v in _standard_problems(range(2, 8)):
        sc = structural_constants(b, v)
        pipe = pipeline_for(b, v)
        sizes = tuple(s.size for s in pipe.stages)
        if b.trivially_grouped:
            assert sizes == (sc.r, sc.ell), name
            assert pipe.final_scale == 1.0, name
        else:
            assert sizes == (sc.r, sc.ell, sc.m), name
            assert pipe.final_scale == 1.0 / sc.gamma, name


def test_pipeline_refuses_a_conjugate():
    f = fixture("circulant-M3")
    with pytest.raises(InputError, match="standard subalgebra"):
        pipeline_for(f.subalgebra, f.weight)
    assert len(pipeline_for(f.subalgebra.base, f.weight).stages) == 2


def test_cross_summand_pipeline_structure():
    f = fixture("dsum-cross")
    b, v = f.subalgebra, f.weight
    pipe = pipeline_for(b, v)
    labels = [s.label for s in pipe.stages]
    assert labels == ["block-phase", "circulant-shift", "group-permutation"]
    perm = pipe.stages[2]
    # the identified group owns 3 diagonal positions (one in summand 1,
    # two in summand 2), so the cyclic family has 3 members
    assert perm.size == 3
    d = b.shape.total_dim
    w0, w1, w2 = _powers(perm)
    assert np.array_equal(w0, np.eye(d))
    # shift by one: 3-cycle through flattened positions 0 -> 2 -> 3 -> 0,
    # fixing position 1 (the singleton group)
    want = np.zeros((d, d))
    want[0, 2] = want[2, 3] = want[3, 0] = 1.0
    want[1, 1] = 1.0
    assert np.array_equal(w1, want)
    assert np.array_equal(w2, want @ want)
    # final scale is 1/gamma with gamma the largest weighted denominator
    assert abs(pipe.final_scale - 1.0 / _literal_gamma(b, v)) < 1e-15


def test_cross_summand_pipeline_certifies_the_bound():
    """Grouped pipelines certify the equivalence bound stage by stage.

    The chained pinching inequalities give
    ||final_scale * (S_m ... S_1)(c)|| >= final_scale / (s_1 ... s_m) ||c||
    for positive c, the shape of the cross-summand lower bound.  Pointwise
    agreement with the expectation is only promised for trivial groupings,
    so here we check the ratio chain, not the outputs.
    """
    rng = np.random.default_rng(7)
    for f in FLEET:
        b, v = f.subalgebra, f.weight
        if not hasattr(b, "groups") or b.trivially_grouped:
            continue
        pipe = pipeline_for(b, v)
        assert abs(pipe.final_scale - 1.0 / _literal_gamma(b, v)) < 1e-15
        for stage in pipe.stages:
            for _ in range(3):
                x = random_positive(f.shape, rng)
                assert pinching_ratio(stage, x) >= 1.0 / stage.size - 1e-9
        # pipeline output of a subalgebra element stays in the subalgebra
        inside = cond_expect(b, v, random_element(f.shape, rng))
        out = apply_pipeline(pipe, inside)
        assert contains(b, out, tol=1e-9 * max(element_norm(inside), 1.0))


def test_pinching_bound_every_stage_every_fixture():
    """Each stage family contains the identity, so its mean dominates
    x/size in the positive cone and the norm ratio is at least 1/size."""
    rng = np.random.default_rng(21)
    for f in FLEET:
        b = f.subalgebra
        if not hasattr(b, "groups"):
            b = b.base
        pipe = pipeline_for(b, f.weight)
        for stage in pipe.stages:
            for _ in range(4):
                x = random_positive(f.shape, rng)
                assert pinching_ratio(stage, x) >= 1.0 / stage.size - 1e-9


def test_stage_mean_of_commuting_element_is_fixed():
    b = single_summand_subalgebra(4, [(2, 2)])
    v = TracialWeight.uniform(AlgebraShape((4,)))
    pipe = pipeline_for(b, v)
    inside = embed(b, [np.array([[1.0, 2.0], [3.0, 4.0]])])
    for stage in pipe.stages:
        out = stage_unitary_mean(stage, inside)
        assert np.abs(out - to_block_matrix(inside)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expectation_is_a_contraction_for_the_gns_norm(seed):
    f = FLEET[seed % len(FLEET)]
    b, v = f.subalgebra, f.weight
    rng = np.random.default_rng(seed)
    a = random_element(f.shape, rng)
    p = cond_expect(b, v, a)
    na = inner_product(v, a, a).real
    np_ = inner_product(v, p, p).real
    assert np_ <= na * (1 + 1e-10) + 1e-12


def _per_copy_reference(b, v, a, assignment):
    """cond_expect, embed and fr_norm_squared on a standard subalgebra by
    literal loops over the block copies, read from the partitions and
    summed in summand-major, offset order, as one copy at a time."""
    w = v.per_trace_factors()
    dens = b.denominators(w)
    exp = [np.zeros((d, d), dtype=np.complex128) for d in b.shape.dims]
    emb = [np.zeros((d, d), dtype=np.complex128) for d in b.shape.dims]
    best = 0.0
    for g, (slots, x) in enumerate(zip(b.groups, assignment)):
        n = b.group_block_size(g + 1)
        copies = []
        for k, i in sorted(slots):
            start = sum(nn * mm for nn, mm in b.partitions[k - 1].terms[: i - 1])
            copies += [(k, start + j * n) for j in range(b.partitions[k - 1].terms[i - 1][1])]
        avg, gram = 0, 0
        for k, off in copies:
            avg = avg + w[k - 1] * a.summands[k - 1][off : off + n, off : off + n]
            cols = a.summands[k - 1][None, :, off : off + n]
            gram = gram + w[k - 1] * (np.conj(np.swapaxes(cols, 1, 2)) @ cols)
        for k, off in copies:
            exp[k - 1][off : off + n, off : off + n] = avg / dens[g]
            emb[k - 1][off : off + n, off : off + n] = x
        best = max(best, float(linalg.hermitian_opnorm_batch(gram / dens[g])[0]))
    return exp, emb, best


def test_runs_match_a_per_copy_reference():
    """The strided run views give what a loop over single block copies
    gives: bit for bit where the summation order is the same (one run per
    group, n >= 2), within 1e-15 relative where numpy adds a 1x1 run's
    copies in another order or a group adds a later run as one sum.  embed
    only copies, so it matches exactly everywhere."""
    problems = [
        (f"one-slot-{n}x{m}", single_summand_subalgebra(n * m, [(n, m)]))
        for n, m in ((1, 17), (2, 17), (3, 50), (5, 8), (7, 40))
    ]
    problems.append(("dsum-cross", fixture("dsum-cross").subalgebra))
    rng = np.random.default_rng(16)
    for name, b in problems:
        v = fixture("dsum-cross").weight if name == "dsum-cross" else TracialWeight.uniform(b.shape)
        a = random_element(b.shape, rng)
        sizes = [b.group_block_size(g) for g in range(1, b.num_groups + 1)]
        assignment = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in sizes]
        exp, emb, norm_sq = _per_copy_reference(b, v, a, assignment)
        exact = min(sizes) > 1 and all(len(g) == 1 for g in b.groups)
        got = cond_expect(b, v, a).summands
        for m_got, m_ref in zip(got, exp):
            err = np.abs(m_got - m_ref).max() / np.abs(m_ref).max()
            assert err == 0.0 if exact else err <= 1e-15, (name, err)
        for m_got, m_ref in zip(embed(b, assignment).summands, emb):
            assert np.array_equal(m_got, m_ref), name
        err = abs(fr_norm_squared(b, v, a) - norm_sq) / norm_sq
        assert err == 0.0 if exact else err <= 1e-15, (name, err)


def _strided_reference(b, v, a):
    """cond_expect and fr_norm_squared with every run read through
    ``_run_blocks`` and its copies added by ``np.add.reduce``, a single
    copy as a length-1 reduction, and the per-group norms stacked by
    block size."""
    base, u = standard_form(b, v, a)
    inner = a if u is None else u.adjoint() @ a @ u
    carried = a if u is None else a @ u
    w = v.per_trace_factors()
    dens, w = base.denominators(w), w.tolist()
    exp = [np.zeros((d, d), dtype=np.complex128) for d in base.shape.dims]
    by_size = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (runs, den) in enumerate(zip(base.runs, dens)):
            n = base.group_block_size(g + 1)
            avg, x = 0, 0
            for k, off, m in runs:
                avg = avg + np.add.reduce(w[k - 1] * _run_blocks(inner.summands[k - 1], off, n, m))
                cols = _run_blocks(carried.summands[k - 1][None], off, n, m, diagonal=False)
                grams = np.conj(cols.swapaxes(-1, -2)) @ cols
                x = x + np.add.reduce(w[k - 1] * grams, axis=1)
            avg = avg / den
            for k, off, m in runs:
                _run_blocks(exp[k - 1], off, n, m)[...] = avg
            by_size.setdefault(n, []).append(x / den)
    norms = [linalg.hermitian_opnorm_batch(np.concatenate(xs)) for xs in by_size.values()]
    norm_sq = float(np.concatenate(norms).max())
    p = AlgebraElement(base.shape, exp)
    return (p if u is None else u @ p @ u.adjoint()), norm_sq


def test_single_copy_runs_match_the_strided_route_bit_for_bit():
    """Runs of one copy are read by index, not reduced: cond_expect and
    fr_norm_squared equal, bit for bit, a reference that reduces every
    run's strided view, on every fleet fixture (conjugates included) and
    golden levels 2-8, for Gaussian, Hermitian and rescaled elements and
    one with negative zeros, whose signs a length-1 reduction drops."""
    rng = np.random.default_rng(2025)
    problems = [(f.name, f.subalgebra, f.weight) for f in FLEET]
    for level in range(2, 9):
        lev = es_level(GOLDEN, level)
        problems.append((f"golden-{level}", lev.subalgebra, lev.weight))
    single_copy_runs = 0
    for name, b, v in problems:
        base, _ = standard_form(b)
        single_copy_runs += sum(m == 1 for runs in base.runs for _, _, m in runs)
        a = random_element(b.shape, rng)
        zeros = [np.where(rng.random(m.shape) < 0.5, complex(-0.0, -0.0), m) for m in a.summands]
        for el in (a, a + a.adjoint(), 1e-200 * a, 1e100 * a, AlgebraElement(b.shape, zeros)):
            want_p, want_sq = _strided_reference(b, v, el)
            got = cond_expect(b, v, el)
            for m_got, m_ref in zip(got.summands, want_p.summands):
                assert m_got.tobytes() == m_ref.tobytes(), name
            assert np.float64(fr_norm_squared(b, v, el)).tobytes() == np.float64(want_sq).tobytes(), name
    assert single_copy_runs >= 2 * len(problems)


def test_fr_norm_is_homogeneous_beyond_the_gram_range():
    """fr_norm(2^k a) = 2^k fr_norm(a) for k = +-600, where the square
    under- or overflows, and it stays at or above bound * element_norm;
    a norm beyond the float range is refused with ValueError."""
    rng = np.random.default_rng(600)
    for f in FLEET:
        b, v = f.subalgebra, f.weight
        bound = structural_constants(b, v).bound
        a = random_element(f.shape, rng)
        base = fr_norm(b, v, a)
        for k in (600, -600):
            scaled = (2.0**k) * a
            got = fr_norm(b, v, scaled)
            assert abs(got - 2.0**k * base) <= 1e-15 * 2.0**k * base, (f.name, k)
            assert got >= bound * element_norm(scaled), (f.name, k)
    f = fixture("dsum-trivial")
    huge = AlgebraElement(f.shape, [np.full((d, d), 1.5e308) for d in f.shape.dims])
    with pytest.raises(ValueError):
        fr_norm(f.subalgebra, f.weight, huge)


def test_element_norm_of_tiny_and_huge_elements_is_finite():
    """element_norm rescales summands with entries beyond the Gram range,
    so 1e+-200 scalings give finite norms, without a numpy warning, that
    scale with the element."""
    rng = np.random.default_rng(200)
    for f in FLEET:
        a = random_element(f.shape, rng)
        base = element_norm(a)
        for scale in (1e200, 1e-200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = element_norm(scale * a)
            assert np.isfinite(got) and abs(got - scale * base) <= 1e-14 * scale * base, (f.name, scale)


def test_a_spectrum_beyond_the_float_range_is_refused_on_every_route():
    """A finite Hermitian matrix can have a spectrum beyond the float
    range, which LAPACK returns as inf without a warning.  Every route to
    a spectrum refuses it with ValueError, and membership no longer
    answers True through an infinite tolerance; values near the limit
    are still returned."""
    big = np.full((3, 3), 1e308)
    full = single_summand_subalgebra(3, [(3, 1)])
    v = TracialWeight(full.shape, (1.0,))
    routes = {
        "eigvalsh_batch": lambda: linalg.eigvalsh_batch(big[None]),
        "hermitian_opnorm_batch": lambda: linalg.hermitian_opnorm_batch(big[None]),
        "operator_norm": lambda: linalg.operator_norm(big),
        "element_norm": lambda: element_norm(AlgebraElement(full.shape, [big])),
    }
    # Every entry of A is finite and so is each entry of A* A (9.7e307),
    # but ||A* A||_op = 2.9e308 is not.
    a = AlgebraElement(full.shape, [np.full((3, 3), 5.7e153)])
    routes["fr_norm_squared"] = lambda: fr_norm_squared(full, v, a)
    routes["induced_opnorms_sq"] = lambda: full.induced_opnorms_sq(v.weights, [a.summands[0][None]])
    for route in routes.values():
        with pytest.raises(ValueError, match="float range"):
            route()
    # The induced norm itself is a float: fr_norm rescales the element.
    assert fr_norm(full, v, a) == 1.71e154
    assert linalg.operator_norm(np.diag([1.7e308, -1.5e308, 0.0])) == 1.7e308
    diagonal = single_summand_subalgebra(3, [(1, 1)] * 3)
    ones = np.ones((3, 3))
    for scale in (1.0, 1e300):
        assert not contains(diagonal, AlgebraElement(diagonal.shape, [scale * ones]))
    with pytest.raises(ValueError, match="float range"):
        contains(diagonal, AlgebraElement(diagonal.shape, [1e308 * ones]))
