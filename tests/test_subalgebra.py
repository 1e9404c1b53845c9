import ast
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import frnorms
from frnorms import linalg
from frnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    TracialWeight,
    element_norm,
    inner_product,
)
from frnorms.errors import (
    GroupingError,
    InputError,
    PartitionError,
    ShapeError,
    UnitarityError,
)
from frnorms.effros_shen import es_level, periodic_theta
from frnorms.subalgebra import (
    ConjugatedSubalgebra,
    RefinedPartition,
    StandardSubalgebra,
    WeightLayout,
    _copy_sum,
    _run_blocks,
    canonical_basis,
    conjugated_subalgebra,
    contains,
    embed,
    make_standard_subalgebra,
    single_summand_subalgebra,
    standard_form,
    subalgebra_from_json,
    subalgebra_to_json,
)
from frnorms.constants import (
    empirical_sharp_constant,
    sharp_constant,
    structural_constants,
)
from frnorms.expectation import cond_expect, cond_expect_gram, fr_norm_squared, pipeline_for
from frnorms.fleet import _dft_matrix, build_fleet, random_element, random_unitary


def test_partition_validation():
    p = RefinedPartition(((2, 1), (1, 2)))
    assert p.total == 4
    assert p.num_slots == 2
    b = single_summand_subalgebra(4, p.terms)
    assert b.slots[0][0][0] == 0
    assert b.slots[0][1][0] == 2
    with pytest.raises(PartitionError):
        RefinedPartition(())
    with pytest.raises(PartitionError):
        RefinedPartition(((0, 1),))
    with pytest.raises(PartitionError):
        RefinedPartition(((2, -1),))
    with pytest.raises(PartitionError):
        single_summand_subalgebra(4, [(2, 1), (1, 1)])  # tiles 3, not 4


def test_grouping_validation():
    shape = (2, 2)
    parts = [((1, 1), (1, 1)), ((1, 2),)]
    make_standard_subalgebra(shape, parts, [[(1, 1), (2, 1)], [(1, 2)]])
    with pytest.raises(GroupingError):
        make_standard_subalgebra(shape, parts, [[(1, 1)], [(1, 2)]])  # (2,1) missing
    with pytest.raises(GroupingError):
        make_standard_subalgebra(
            shape, parts, [[(1, 1), (1, 2)], [(2, 1)]]
        )  # two slots of one summand in one group
    with pytest.raises(GroupingError):
        make_standard_subalgebra(
            shape, parts, [[(1, 1), (2, 1)], [(1, 2), (2, 1)]]
        )  # slot reused
    with pytest.raises(GroupingError):
        make_standard_subalgebra(shape, parts, [[(1, 1), (3, 1)], [(1, 2), (2, 1)]])
    with pytest.raises(GroupingError):
        make_standard_subalgebra(
            (3, 2), [((2, 1), (1, 1)), ((2, 1),)], [[(1, 2), (2, 1)], [(1, 1)]]
        )  # sizes 1 and 2 mixed
    with pytest.raises(GroupingError):
        make_standard_subalgebra((2,), [((1, 2),)], [[(1, 1)], []])


def test_basis_counts_and_orthogonality():
    b = make_standard_subalgebra(
        (4, 2), [((2, 1), (1, 2)), ((2, 1),)], [[(1, 1), (2, 1)], [(1, 2)]]
    )
    # dimension = 2^2 + 1^2
    assert b.dimension == 5
    assert b.num_groups == 2
    assert b.group_block_size(1) == 2
    assert b.group_block_size(2) == 1
    assert not b.trivially_grouped

    basis = canonical_basis(b)
    assert len(basis) == b.dimension
    v = TracialWeight.uniform(b.shape)
    mats = [e.element(b.shape) for e in basis]
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            ip = inner_product(v, x, y)
            if i != j:
                assert ip == 0.0  # disjoint supports, exact
            else:
                assert ip.real > 0.0

    # supports are 0/1 and disjoint
    total = np.zeros(4)
    seen = set()
    for e in basis:
        for s in e.support:
            assert s not in seen
            seen.add(s)


def test_support_counts_match_multiplicities():
    b = make_standard_subalgebra(
        (4, 2), [((2, 1), (1, 2)), ((2, 1),)], [[(1, 1), (2, 1)], [(1, 2)]]
    )
    # group 1 has one block in each summand, group 2 two blocks in summand 1
    assert list(b.denominators(np.array([1.0, 0.0]))) == [1, 2]
    assert list(b.denominators(np.array([0.0, 1.0]))) == [1, 0]


def test_block_layout_memory_does_not_grow_with_the_multiplicity():
    """One slot of 10**7 copies of a 1x1 block (the scalars in M_d) is laid
    out in a few KiB: the layout keeps one row per slot, not per copy, and
    the structural constants read it alone."""
    d = 10**7
    tracemalloc.start()
    try:
        b = single_summand_subalgebra(d, [(1, d)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak
    assert b.slots == (((0, 1, d, 0),),)
    assert b.runs == (((1, 0, d),),)
    sc = structural_constants(b, TracialWeight.uniform(b.shape))
    assert (sc.r, sc.ell, sc.m) == (d, d, d)


def test_embed_is_unital_star_homomorphism():
    b = make_standard_subalgebra(
        (4, 2), [((2, 1), (1, 2)), ((2, 1),)], [[(1, 1), (2, 1)], [(1, 2)]]
    )
    rng = np.random.default_rng(0)
    xs = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in (2, 1)
    ]
    ys = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in (2, 1)
    ]
    ex, ey = embed(b, xs), embed(b, ys)
    # multiplicative, adjoint-compatible, unital
    prod = embed(b, [x @ y for x, y in zip(xs, ys)])
    assert element_norm(ex @ ey - prod) < 1e-13
    assert element_norm(ex.adjoint() - embed(b, [x.conj().T for x in xs])) == 0.0
    one = embed(b, [np.eye(2), np.eye(1)])
    assert element_norm(one - AlgebraElement.identity(b.shape)) == 0.0
    with pytest.raises(ShapeError):
        embed(b, [np.eye(2)])
    with pytest.raises(ShapeError):
        embed(b, [np.eye(3), np.eye(1)])


def test_embed_and_basis_on_a_conjugate():
    """embed on U B U* is U embed(B) U*, and lands in the conjugate; its
    canonical basis is refused, since 0/1 supports cannot describe the
    conjugated basis U e U*."""
    circ = next(f for f in build_fleet() if f.name == "circulant-M3").subalgebra
    base, u = standard_form(circ)
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)) for _ in range(base.num_groups)]
    e = embed(circ, xs)
    assert element_norm(e - u @ embed(base, xs) @ u.adjoint()) == 0.0
    assert contains(circ, e)
    assert not contains(base, e)
    with pytest.raises(InputError, match="canonical"):
        canonical_basis(circ)


def test_embedded_elements_are_contained():
    b = make_standard_subalgebra(
        (4, 2), [((2, 1), (1, 2)), ((2, 1),)], [[(1, 1), (2, 1)], [(1, 2)]]
    )
    rng = np.random.default_rng(1)
    xs = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in (2, 1)
    ]
    assert contains(b, embed(b, xs))
    # a generic ambient element is not contained
    g = AlgebraElement(
        b.shape,
        [rng.standard_normal((4, 4)), rng.standard_normal((2, 2))],
    )
    assert not contains(b, g)
    # identity always is
    assert contains(b, AlgebraElement.identity(b.shape))


def test_circulant_membership_through_conjugation():
    fleet = {f.name: f for f in build_fleet()}
    circ = fleet["circulant-M3"].subalgebra
    assert isinstance(circ, ConjugatedSubalgebra)
    shape = AlgebraShape((3,))
    shift = AlgebraElement(
        shape, [np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)]
    )
    assert contains(circ, shift)
    assert not contains(circ, AlgebraElement(shape, [np.diag([1.0, 2.0, 3.0])]))


def test_noncontiguous_repeat_needs_a_permutation():
    # diag(mu, nu, mu) inside M_3 is the permuted conjugate of diag(mu, mu, nu)
    base = single_summand_subalgebra(3, [(1, 2), (1, 1)])
    perm = np.zeros((3, 3))
    perm[0, 0] = perm[2, 1] = perm[1, 2] = 1.0
    shape = AlgebraShape((3,))
    c = conjugated_subalgebra(base, AlgebraElement(shape, [perm]))
    a = AlgebraElement(shape, [np.diag([2.0, 5.0, 2.0])])
    assert contains(c, a)
    assert not contains(base, a)
    assert not contains(c, AlgebraElement(shape, [np.diag([2.0, 2.0, 5.0])]))


def test_conjugation_validates_and_composes():
    base = single_summand_subalgebra(2, [(1, 2)])
    shape = AlgebraShape((2,))
    with pytest.raises(UnitarityError):
        conjugated_subalgebra(base, AlgebraElement(shape, [np.array([[1, 1], [0, 1]])]))
    with pytest.raises(ShapeError):
        conjugated_subalgebra(base, AlgebraElement.identity(AlgebraShape((3,))))

    h = AlgebraElement(shape, [np.array([[1, 1], [1, -1]]) / np.sqrt(2)])
    c1 = conjugated_subalgebra(base, h)
    flip = AlgebraElement(shape, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    c2 = conjugated_subalgebra(c1, flip)
    assert isinstance(c2.base, type(base))
    assert c2.base is base
    assert element_norm(c2.unitary - flip @ h) == 0.0


def test_trivially_grouped_flag():
    assert single_summand_subalgebra(4, [(2, 1), (1, 2)]).trivially_grouped
    b = make_standard_subalgebra(
        (2, 2), [((1, 1), (1, 1)), ((1, 2),)], [[(1, 1), (2, 1)], [(1, 2)]]
    )
    assert not b.trivially_grouped


def test_json_round_trip():
    b = make_standard_subalgebra(
        (4, 2), [((2, 1), (1, 2)), ((2, 1),)], [[(1, 1), (2, 1)], [(1, 2)]]
    )
    obj = subalgebra_to_json(b)
    back = subalgebra_from_json(obj)
    assert back.shape.dims == b.shape.dims
    assert [p.terms for p in back.partitions] == [p.terms for p in b.partitions]
    assert back.groups == b.groups
    with pytest.raises(ShapeError):
        subalgebra_from_json({"shape": [2]})
    with pytest.raises(ShapeError):
        subalgebra_from_json([1, 2])


def test_dft_matrix_diagonalizes_the_shift():
    f = _dft_matrix(3)
    assert np.abs(f.conj().T @ f - np.eye(3)).max() < 1e-14
    shift = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    d = f.conj().T @ shift @ f
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-14


def test_fleet_coverage():
    fleet = build_fleet()
    names = [f.name for f in fleet]
    assert len(names) == len(set(names))
    assert len(fleet) >= 12
    kinds = {type(f.subalgebra).__name__ for f in fleet}
    assert "ConjugatedSubalgebra" in kinds
    assert any(not f.subalgebra.trivially_grouped
               for f in fleet
               if not isinstance(f.subalgebra, ConjugatedSubalgebra))
    assert any(f.shape.num_summands >= 3 for f in fleet)
    for f in fleet:
        assert f.weight.shape.dims == f.shape.dims


def test_standard_form_returns_the_base_and_the_unitary():
    fleet = {f.name: f for f in build_fleet()}
    b = fleet["dsum-cross"].subalgebra
    assert standard_form(b) == (b, None)
    circ = fleet["circulant-M3"].subalgebra
    base, u = standard_form(circ, fleet["circulant-M3"].weight)
    assert base is circ.base and u is circ.unitary


def test_every_entry_point_refuses_a_mismatched_shape():
    """dsum-cross has shape (2, 2).  An element, weight or unitary of
    shape (2, 3) or (3,) is refused with ShapeError by each entry point,
    on the standard subalgebra and on a conjugate of it."""
    f = next(f for f in build_fleet() if f.name == "dsum-cross")
    u = random_unitary(f.shape, np.random.default_rng(4))
    a = AlgebraElement.identity(f.shape)
    bad_elements = [AlgebraElement.identity(AlgebraShape(d)) for d in ((2, 3), (3,))]
    bad_weights = [
        TracialWeight(AlgebraShape((2, 3)), (0.25, 0.75)),
        TracialWeight(AlgebraShape((3,)), (1.0,)),
    ]
    by_element = (cond_expect, cond_expect_gram, fr_norm_squared)
    by_weight = by_element + (
        lambda b, v, _: structural_constants(b, v),
        lambda b, v, _: sharp_constant(b, v),
        lambda b, v, _: empirical_sharp_constant(b, v, samples=10),
        lambda b, v, _: pipeline_for(b, v),
    )
    for b in (f.subalgebra, conjugated_subalgebra(f.subalgebra, u)):
        for bad in bad_elements:
            for entry in by_element:
                with pytest.raises(ShapeError):
                    entry(b, f.weight, bad)
            with pytest.raises(ShapeError):
                contains(b, bad)
            with pytest.raises(ShapeError):
                conjugated_subalgebra(b, bad)
        for bad in bad_weights:
            for entry in by_weight:
                with pytest.raises(ShapeError):
                    entry(b, bad, a)


def test_single_copy_run_is_the_general_strided_view():
    """A run of one copy comes back as a plain slice; for both row choices
    it holds the values of the general (..., m, h, n) strided view, built
    here literally, and a write to it lands in x."""
    rng = np.random.default_rng(8)
    d = 7
    for lead in ((), (3,)):
        for off, n in ((0, d), (2, 3), (d - 1, 1)):
            for diagonal in (True, False):
                x = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))
                sr, sc = x.strides[-2:]
                h, top, step = (n, off, n * sr) if diagonal else (d, 0, 0)
                general = np.ndarray(
                    lead + (1, h, n), x.dtype, x, top * sr + off * sc,
                    x.strides[:-2] + (step + n * sc, sr, sc),
                )
                got = _run_blocks(x, off, n, 1, diagonal)
                assert got.shape == general.shape
                assert np.array_equal(got, general)
                before = x.copy()
                got[...] = 5.0 - 2.0j
                assert np.all(general == 5.0 - 2.0j)
                rows = slice(top, top + h)
                before[..., rows, off : off + n] = 5.0 - 2.0j
                assert np.array_equal(x, before)


SPECTRAL_ROUTINES = {"eigvalsh", "eigh", "eig", "eigvals", "svd", "norm"}


def test_only_the_spectral_core_calls_a_numpy_eigensolver():
    """In the package sources, np.linalg's spectral routines (eigvalsh,
    eigh, eig, eigvals, svd, norm) are named only inside
    ``linalg._spectrum``, which does call eigvalsh; nothing imports them
    from numpy.linalg.  Other np.linalg names, such as the qr of
    ``fleet.random_unitary`` and LinAlgError, stay allowed."""
    found, core_calls = [], []
    for path in sorted(Path(frnorms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        cores = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_spectrum"
        ]
        allowed = {id(n) for c in cores for n in ast.walk(c)} if path.name == "linalg.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "numpy"):
                names = {a.name for a in node.names}
                if names & (SPECTRAL_ROUTINES | {"linalg"}):
                    found.append((path.name, node.lineno, "import"))
            if not (isinstance(node, ast.Attribute) and node.attr in SPECTRAL_ROUTINES):
                continue
            owner = node.value
            if not (isinstance(owner, ast.Attribute) and owner.attr == "linalg"):
                continue
            if isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy"):
                if id(node) in allowed:
                    core_calls.append(node.attr)
                else:
                    found.append((path.name, node.lineno, node.attr))
    assert found == []
    assert core_calls == ["eigvalsh"]


def test_only_the_tower_expansion_and_the_theta_flag_call_cf_expand():
    """In the package sources, ``cf_expand`` is called only inside
    ``effros_shen._expansion``, through which every tower entry point turns
    theta into terms, and in the ``--theta`` branch (the else of ``if
    args.cf ...``) of ``cli._cmd_effros_shen``."""
    scopes = {"effros_shen.py": "_expansion", "cli.py": "_cmd_effros_shen"}
    found, allowed_calls = [], []
    for path in sorted(Path(frnorms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name == scopes.get(path.name)):
                continue
            if path.name == "effros_shen.py":
                allowed |= {id(n) for n in ast.walk(fn)}
                continue
            for branch in ast.walk(fn):
                if isinstance(branch, ast.If) and ast.unparse(branch.test).startswith("args.cf "):
                    allowed |= {id(n) for s in branch.orelse for n in ast.walk(s)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "cf_expand":
                (allowed_calls if id(node) in allowed else found).append(path.name)
    assert found == []
    assert allowed_calls == ["cli.py", "effros_shen.py"]


# The one function that derives each structural fact, as (module,
# function, name of the call that derives it): r, ell and m, the summand
# offsets of the block-diagonal embedding, the adjoint of a stack, the
# weight-1 pair B_lambda in M_d with v = (1.0), the group denominators
# (and with them gamma), the convergent residuals of the level weight
# and of the tower constant, and the positions of the entries below a
# slot factor's diagonal, which the search's one factor builder reads.
_HOMES = {
    ("subalgebra.py", "_block_layout", "lcm"),
    ("algebra.py", "offsets", "accumulate"),
    ("linalg.py", "adjoint", "swapaxes"),
    ("constants.py", "_weight_one_pair", "TracialWeight"),
    ("subalgebra.py", "weight_layout", "denominators"),
    ("effros_shen.py", "_weight_t", "convergent_residual"),
    ("effros_shen.py", "_tower_constant", "convergent_residual"),
    ("constants.py", "_factors", "tril_indices"),
}


def test_each_structural_fact_is_derived_in_one_function():
    """In the package sources, ``lcm``, ``accumulate`` (or ``cumsum``),
    ``swapaxes``, ``TracialWeight(..., (1.0,))``, ``denominators``,
    ``convergent_residual`` and ``tril_indices`` are called only in the
    home of the fact they derive (``_HOMES``), and ``per_trace_factors``,
    whose factors the weight layout holds, nowhere.  A slot's short side
    ``min(n, m)`` is taken only by the closed-form sharp constant and by
    the search's slot table (``_RatioEvaluator.__init__``)."""
    names = {name for _, _, name in _HOMES} | {"cumsum", "per_trace_factors"}
    found, short = set(), set()
    for path in sorted(Path(frnorms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            weight_one = node.args and ast.unparse(node.args[-1]) == "(1.0,)"
            if name == "min" and ast.unparse(node) == "min(n, m)":
                short.add((path.name, owner.get(id(node))))
            if name == "TracialWeight" and not weight_one:
                continue
            if name in names:
                found.add((path.name, owner.get(id(node)), name))
    assert found == _HOMES
    assert short == {("constants.py", "sharp_constant"), ("constants.py", "__init__")}


def test_only_the_gate_tells_a_conjugate_from_a_standard_subalgebra():
    """In the package sources, an isinstance test against a subalgebra
    class appears only in ``standard_form``, and no hasattr or getattr
    probes a subalgebra attribute."""
    fleet = {f.name: f for f in build_fleet()}
    attrs = {
        name
        for f in ("dsum-cross", "circulant-M3")
        for name in dir(fleet[f].subalgebra)
        if not name.startswith("__")
    }
    classes = {"ConjugatedSubalgebra", "StandardSubalgebra"}
    found = []
    for path in sorted(Path(frnorms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        gates = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "standard_form"
        ]
        allowed = {id(n) for g in gates for n in ast.walk(g)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            args = node.args
            if node.func.id == "isinstance" and len(args) == 2 and id(node) not in allowed:
                names = {n.id for n in ast.walk(args[1]) if isinstance(n, ast.Name)}
                if names & classes:
                    found.append((path.name, node.lineno, "isinstance"))
            if node.func.id in ("hasattr", "getattr") and len(args) >= 2:
                key = args[1]
                if isinstance(key, ast.Constant) and key.value in attrs:
                    found.append((path.name, node.lineno, node.func.id))
    assert found == []


def _per_call_reference(b, weights, summands, stacks):
    """block_average, induced_opnorms_sq on each stack, and, for a tracial
    weight, the sharp constant, as they were computed before the weight
    layout: the denominators, their float lists and the groups by block
    size rebuilt on every call, and every block size's group averages
    joined by np.concatenate."""
    w = np.array([x / d for x, d in zip(weights, b.shape.dims)])
    sizes = [b.group_block_size(g) for g in range(1, b.num_groups + 1)]
    dens, wl = b.denominators(w), w.tolist()
    avg_out = [np.zeros((d, d), dtype=np.complex128) for d in b.shape.dims]
    for runs, n, den in zip(b.runs, sizes, dens):
        avg = 0
        for k, off, m in runs:
            avg = avg + _copy_sum(wl[k - 1] * _run_blocks(summands[k - 1], off, n, m))
        avg = avg / den
        for k, off, m in runs:
            _run_blocks(avg_out[k - 1], off, n, m)[...] = avg
    norms_out = []
    for stack in stacks:
        by_size = {}
        for runs, n, den in zip(b.runs, sizes, b.denominators(w)):
            x = 0
            for k, off, m in runs:
                cols = _run_blocks(stack[k - 1], off, n, m, diagonal=False)
                x = x + _copy_sum(wl[k - 1] * (np.conj(cols.swapaxes(-1, -2)) @ cols))
            by_size.setdefault(n, []).append(x / den)
        norms = [linalg.hermitian_opnorm_batch(np.concatenate(xs)) for xs in by_size.values()]
        norms_out.append(np.concatenate(norms).reshape(b.num_groups, -1).max(axis=0))
    sharp = float(np.sqrt(min(
        w[k] / sum(float(dens[g]) * min(n, m) for _, n, m, g in rows) for k, rows in enumerate(b.slots)
    )))
    return avg_out, norms_out, sharp


def _layout_problems():
    problems = [(fx.name, fx.subalgebra, fx.weight) for fx in build_fleet()]
    for n in range(2, 9):
        theta, cf = periodic_theta((1,), n)
        lev = es_level(theta, n, cf)
        problems.append((f"golden-{n}", lev.subalgebra, lev.weight))
    return problems


def test_weight_layout_matches_a_per_call_reference_bit_for_bit():
    """While one subalgebra alternates between two weights, the block
    average, the induced norm on stacks of 1 and of 5 and the sharp
    constant equal, bit for bit, what a per-call computation of the
    denominators and the by-size groups gives.  On a conjugate the
    public routes carry the element to the base as before."""
    rng = np.random.default_rng(26)
    for name, b, v in _layout_problems():
        base, u = standard_form(b)
        # A second tracial weight where there is one, else the unit
        # weights of the membership test.
        alt = (base.shape.dims, None)
        if base.shape.num_summands > 1:
            other = TracialWeight.normalized(base.shape, rng.random(base.shape.num_summands) + 0.05)
            alt = (other.weights, other)
        for weights, tracial in [(v.weights, v), alt] * 2:
            a = random_element(base.shape, rng)
            shapes = [[(nb, d, d) for d in base.shape.dims] for nb in (1, 5)]
            stacks = [[rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ss] for ss in shapes]
            avg, norms, sharp = _per_call_reference(base, weights, a.summands, stacks)
            got = base.block_average(weights, a.summands)
            assert [m.tobytes() for m in got] == [m.tobytes() for m in avg], name
            for stack, want in zip(stacks, norms):
                assert base.induced_opnorms_sq(weights, stack).tobytes() == want.tobytes(), name
            if tracial is None:
                continue
            assert np.float64(sharp_constant(b, tracial)).tobytes() == np.float64(sharp).tobytes(), name
            if u is not None:
                carried = [[m[None] for m in (a @ u).summands]]
                _, (norm,), _ = _per_call_reference(base, weights, a.summands, carried)
                assert fr_norm_squared(b, tracial, a) == float(norm[0]), name
                avg, _, _ = _per_call_reference(base, weights, (u.adjoint() @ a @ u).summands, [])
                want = u @ AlgebraElement(base.shape, avg) @ u.adjoint()
                got = cond_expect(b, tracial, a)
                assert [m.tobytes() for m in got.summands] == [m.tobytes() for m in want.summands], name


def test_weight_layout_is_computed_once_and_bounded(monkeypatch):
    """A call whose weight is cached computes no denominators; after 1000
    distinct weights the subalgebra holds one layout, the most recent, as
    weight_layout's docstring states; and what the layout hands out cannot
    be written to."""
    b = next(fx.subalgebra for fx in build_fleet() if fx.name == "threeway-cross")
    v = TracialWeight.uniform(b.shape)
    a = random_element(b.shape, np.random.default_rng(3))
    layout = b.weight_layout(v.weights)
    assert b.weight_layout(v.weights) is layout
    calls = [0]
    real = StandardSubalgebra.denominators

    def counted(self, w):
        calls[0] += 1
        return real(self, w)

    monkeypatch.setattr(StandardSubalgebra, "denominators", counted)
    cond_expect(b, v, a)
    fr_norm_squared(b, v, a)
    b.induced_opnorms_sq(v.weights, [m[None].repeat(5, axis=0) for m in a.summands])
    assert calls == [0]

    def walk(x):
        if isinstance(x, np.ndarray):
            assert not x.flags.writeable
        else:
            assert isinstance(x, (tuple, int, float)), type(x)
            for item in x if isinstance(x, tuple) else ():
                walk(item)

    walk(layout)
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        for i in range(1000):
            weights = tuple(TracialWeight.normalized(b.shape, rng.random(3) + 0.01).weights)
            b.weight_layout(weights)
            if i == 9:
                # A full collection empties the interpreter's tuple free
                # lists, which tracemalloc counts as held.
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert calls == [1000]
    assert b._layout[0] == weights
    # One layout of threeway-cross holds well under 10 KB; 990 kept
    # layouts would hold megabytes.
    assert grown < 10_000, grown


def test_a_tower_level_never_builds_the_by_size_table():
    """A tower level, es_level then structural_constants, leaves the
    groups by block size unbuilt; they hold for every weight, and the
    induced norm builds them on its first call, once."""
    for period in ((1,), (2,), (1, 2)):
        for n in range(2, 9):
            theta, cf = periodic_theta(period, n)
            lev = es_level(theta, n, cf)
            structural_constants(lev.subalgebra, lev.weight)
            assert "by_size" not in vars(lev.subalgebra), (period, n)
    a = random_element(lev.shape, np.random.default_rng(5))
    fr_norm_squared(lev.subalgebra, lev.weight, a)
    table = lev.subalgebra.by_size
    fr_norm_squared(lev.subalgebra, TracialWeight.uniform(lev.shape), a)
    assert lev.subalgebra.by_size is table
    # Group 2 (the B block, q_{n-2}) is the smaller one.
    q = lev.q
    assert [(n, [g for g, _ in groups]) for n, groups in table] == [(q[-3], [1]), (q[-2], [0])]


def test_a_tower_level_never_builds_the_slot_rows():
    """After a tower level's structural_constants, its weight layout is
    the pair (factors, dens) and nothing else, so no per-slot row with a
    denominator exists to be built: where the blocks sit is the
    subalgebra's ``slots``, which no weight changes."""
    for period in ((1,), (2,), (1, 2)):
        for n in range(2, 9):
            theta, cf = periodic_theta(period, n)
            lev = es_level(theta, n, cf)
            structural_constants(lev.subalgebra, lev.weight)
            layout = lev.subalgebra.weight_layout(lev.weight.weights)
            assert type(layout) is WeightLayout and WeightLayout._fields == ("factors", "dens")
            assert len(layout.factors) == 2 and len(layout.dens) == 2, (period, n)
    assert [len(r) for r in lev.subalgebra.slots] == [2, 1]


def test_constants_and_expectation_share_one_denominator_product(monkeypatch):
    """structural_constants then cond_expect on one fresh (b, v) pair
    compute the group denominators once: gamma and the expectation's
    divisors come from the same weight layout."""
    calls = [0]
    real = StandardSubalgebra.denominators

    def counted(self, w):
        calls[0] += 1
        return real(self, w)

    monkeypatch.setattr(StandardSubalgebra, "denominators", counted)
    for fx in build_fleet():
        calls[0] = 0
        structural_constants(fx.subalgebra, fx.weight)
        cond_expect(fx.subalgebra, fx.weight, random_element(fx.subalgebra.shape, np.random.default_rng(6)))
        assert calls == [1], fx.name
