import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    TracialWeight,
    element_from_json,
    element_norm,
    element_to_json,
    from_block_matrix,
    inner_product,
    matrix_unit,
    shape_from_json,
    shape_to_json,
    to_block_matrix,
    trace_state,
    weight_from_json,
    weight_to_json,
)
from frnorms.errors import ShapeError, WeightError


def random_element(rng, shape):
    return AlgebraElement(
        shape,
        [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in shape.dims
        ],
    )


def test_shape_validation():
    assert AlgebraShape((2, 3)).total_dim == 5
    assert AlgebraShape((2, 3)).num_summands == 2
    assert list(AlgebraShape((1, 2))) == [1, 2]
    with pytest.raises(ShapeError):
        AlgebraShape(())
    with pytest.raises(ShapeError):
        AlgebraShape((2, 0))
    with pytest.raises(ShapeError):
        AlgebraShape((-1,))


def test_element_shape_checks():
    shape = AlgebraShape((2, 1))
    with pytest.raises(ShapeError):
        AlgebraElement(shape, [np.eye(2)])
    with pytest.raises(ShapeError):
        AlgebraElement(shape, [np.eye(2), np.eye(2)])
    with pytest.raises(ShapeError):
        AlgebraElement(shape, [np.zeros((2, 3)), np.eye(1)])


def test_element_arithmetic_matches_numpy():
    rng = np.random.default_rng(5)
    shape = AlgebraShape((2, 3))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    for k in range(2):
        assert np.allclose((a + b).summands[k], a.summands[k] + b.summands[k])
        assert np.allclose((a - b).summands[k], a.summands[k] - b.summands[k])
        assert np.allclose((a @ b).summands[k], a.summands[k] @ b.summands[k])
        assert np.allclose((2.5j * a).summands[k], 2.5j * a.summands[k])
        assert np.allclose((-a).summands[k], -a.summands[k])
        assert np.allclose(a.adjoint().summands[k], a.summands[k].conj().T)


def test_elements_are_frozen():
    a = AlgebraElement.identity(AlgebraShape((2,)))
    with pytest.raises(ValueError):
        a.summands[0][0, 0] = 5.0


def test_construction_copies_input():
    m = np.eye(2)
    a = AlgebraElement(AlgebraShape((2,)), [m])
    m[0, 0] = 7.0
    assert a.summands[0][0, 0] == 1.0


def test_arithmetic_results_are_checked_without_a_copy():
    import tracemalloc

    d = 600
    shape = AlgebraShape((d,))
    a = AlgebraElement(shape, [np.full((d, d), 1.0 + 1.0j)])
    size = a.summands[0].nbytes
    ops = {
        "+": lambda: a + a,
        "-": lambda: a - a,
        "neg": lambda: -a,
        "scalar *": lambda: 2.0 * a,
        "@": lambda: a @ a,
        "adjoint": lambda: a.adjoint(),
    }
    tracemalloc.start()
    try:
        for name, op in ops.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = op()
            peak = tracemalloc.get_traced_memory()[1] - base
            # One new array per summand; a second copy would double it.
            assert peak < 1.5 * size, (name, peak / size)
            assert not out.summands[0].flags.writeable, name
            del out
    finally:
        tracemalloc.stop()
    # The checks of construction stay: an overflowed entry is refused.
    big = AlgebraElement(AlgebraShape((2,)), [np.full((2, 2), 1e200)])
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        1e200 * big
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        big @ big
    top = 1e108 * big
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        top + top
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        top - (-top)


def test_mismatched_shapes_refuse_arithmetic():
    a = AlgebraElement.identity(AlgebraShape((2,)))
    b = AlgebraElement.identity(AlgebraShape((3,)))
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a @ b


def test_matrix_unit_one_based_indexing():
    shape = AlgebraShape((2, 3))
    e = matrix_unit(shape, 2, 1, 3)
    assert e.summands[0].max() == 0.0
    assert e.summands[1][0, 2] == 1.0
    assert np.abs(e.summands[1]).sum() == 1.0
    with pytest.raises(IndexError):
        matrix_unit(shape, 0, 1, 1)
    with pytest.raises(IndexError):
        matrix_unit(shape, 3, 1, 1)
    with pytest.raises(IndexError):
        matrix_unit(shape, 1, 3, 1)
    with pytest.raises(IndexError):
        matrix_unit(shape, 2, 1, 4)


def test_weight_validation():
    shape = AlgebraShape((2, 2))
    TracialWeight(shape, (0.5, 0.5))
    with pytest.raises(WeightError):
        TracialWeight(shape, (0.5,))
    with pytest.raises(WeightError):
        TracialWeight(shape, (1.0, 0.0))
    with pytest.raises(WeightError):
        TracialWeight(shape, (-0.5, 1.5))
    with pytest.raises(WeightError):
        TracialWeight(shape, (0.6, 0.6))
    with pytest.raises(WeightError):
        TracialWeight(shape, (float("nan"), 0.5))


def test_weight_constructors():
    shape = AlgebraShape((2, 3, 1))
    u = TracialWeight.uniform(shape)
    assert u.weights == (1 / 3, 1 / 3, 1 / 3)
    n = TracialWeight.normalized(shape, [1, 2, 1])
    assert n.weights == (0.25, 0.5, 0.25)
    with pytest.raises(WeightError):
        TracialWeight.normalized(shape, [1, -1, 4])
    assert np.allclose(u.per_trace_factors(), [1 / 6, 1 / 9, 1 / 3])


def test_weights_that_are_not_numbers_are_refused():
    """The constructor and ``normalized`` refuse what the JSON decoder
    refuses: strings, bools and complex values, with WeightError; ints
    and numpy scalars are stored as Python floats."""
    pair, one = AlgebraShape((2, 1)), AlgebraShape((1,))
    bad = [
        (pair, ("0.5", "0.5")),
        (one, (True,)),
        (pair, (0.5 + 0j, 0.5)),
        (pair, (np.complex128(0.5), 0.5)),
        (pair, (None, 0.5)),
    ]
    for shape, weights in bad:
        with pytest.raises(WeightError):
            TracialWeight(shape, weights)
        with pytest.raises(WeightError):
            weight_from_json(shape, {"weights": list(weights)})
    for raw in (["1", "3"], [1, False], [1j, 3]):
        with pytest.raises(WeightError):
            TracialWeight.normalized(pair, raw)
    for weights in ((np.float64(0.25), np.float32(0.75)), (np.float16(0.5), 0.5)):
        v = TracialWeight(pair, weights)
        assert [type(x) for x in v.weights] == [float, float]
    assert TracialWeight(one, (1,)).weights == (1.0,)
    assert type(TracialWeight(one, (np.int64(1),)).weights[0]) is float
    n = TracialWeight.normalized(pair, [np.int64(1), 3])
    assert n.weights == (0.25, 0.75) and all(type(x) is float for x in n.weights)


def test_trace_state_normalized_and_tracial():
    shape = AlgebraShape((2, 3))
    v = TracialWeight(shape, (0.4, 0.6))
    one = AlgebraElement.identity(shape)
    assert abs(trace_state(v, one) - 1.0) < 1e-15

    rng = np.random.default_rng(11)
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    assert abs(trace_state(v, a @ b) - trace_state(v, b @ a)) < 1e-13
    with pytest.raises(ShapeError):
        trace_state(v, AlgebraElement.identity(AlgebraShape((2, 2))))


def test_inner_product_properties():
    shape = AlgebraShape((2, 2))
    v = TracialWeight(shape, (0.3, 0.7))
    rng = np.random.default_rng(17)
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    # conjugate symmetry and faithfulness
    assert abs(inner_product(v, a, b) - np.conj(inner_product(v, b, a))) < 1e-13
    self_ip = inner_product(v, a, a)
    assert abs(self_ip.imag) < 1e-13
    assert self_ip.real > 0.0
    zero = AlgebraElement.zero(shape)
    assert inner_product(v, zero, zero) == 0.0
    # sesquilinearity in the first slot
    lhs = inner_product(v, 2.0j * a + b, b)
    rhs = 2.0j * inner_product(v, a, b) + inner_product(v, b, b)
    assert abs(lhs - rhs) < 1e-13


def test_element_norm_is_max_over_summands():
    shape = AlgebraShape((2, 1))
    a = AlgebraElement(shape, [np.array([[1, 2], [2, 1]]), np.array([[7.0]])])
    assert element_norm(a) == 7.0


def test_block_matrix_round_trip():
    shape = AlgebraShape((2, 3))
    rng = np.random.default_rng(2)
    a = random_element(rng, shape)
    m = to_block_matrix(a)
    assert m.shape == (5, 5)
    assert np.abs(m[:2, 2:]).max() == 0.0
    back = from_block_matrix(shape, m)
    for k in range(2):
        assert np.array_equal(back.summands[k], a.summands[k])
    with pytest.raises(ShapeError):
        from_block_matrix(shape, np.eye(4))


def test_json_round_trips():
    shape = AlgebraShape((2, 1))
    assert shape_from_json(shape_to_json(shape)).dims == (2, 1)
    with pytest.raises(ShapeError):
        shape_from_json({"dims": [2]})

    rng = np.random.default_rng(8)
    a = random_element(rng, shape)
    back = element_from_json(element_to_json(a))
    assert back.shape.dims == a.shape.dims
    for k in range(2):
        assert np.array_equal(back.summands[k], a.summands[k])
    with pytest.raises(ShapeError):
        element_from_json({"shape": [2, 1]})

    v = TracialWeight(shape, (0.25, 0.75))
    assert weight_from_json(shape, weight_to_json(v)).weights == (0.25, 0.75)
    with pytest.raises(WeightError):
        weight_from_json(shape, {})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_cauchy_schwarz_for_the_gns_form(dims, seed):
    shape = AlgebraShape(tuple(dims))
    v = TracialWeight.uniform(shape)
    rng = np.random.default_rng(seed)
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    lhs = abs(inner_product(v, a, b)) ** 2
    rhs = inner_product(v, a, a).real * inner_product(v, b, b).real
    assert lhs <= rhs * (1 + 1e-10) + 1e-12
