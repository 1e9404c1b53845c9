import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frnorms import cli, linalg
from frnorms.algebra import AlgebraShape
from frnorms.errors import ConvergenceError, DimensionError
from frnorms.fleet import random_unitary


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _known_spectrum(rng, lam):
    """U diag(lam) U^H for a Haar unitary U drawn by QR."""
    u = random_unitary(AlgebraShape((len(lam),)), rng).summands[0]
    return (u * lam) @ u.conj().T


def _assert_spectrum(h, lam):
    got = linalg.eigvalsh_batch(h[None])[0]
    assert np.abs(got - np.sort(lam)).max() <= 1e-12 * np.abs(lam).max()


def test_eigvalsh_batch_returns_known_spectra():
    """LAPACK against the exact answer: U diag(lam) U^H has spectrum lam."""
    rng = np.random.default_rng(101)
    degenerate = (
        np.ones(4),  # the identity I_4
        np.array([-1.0, 0.0, 3.0, 3.0]),
        np.array([2.0, 2.0]),
        np.zeros(3),
        np.array([4.0]),
    )
    for scale in (1e-300, 1.0, 1e300):
        for n in (1, 2, 3, 4, 5, 8, 12, 20):
            for _ in range(3):
                lam = scale * rng.standard_normal(n)
                _assert_spectrum(_known_spectrum(rng, lam), lam)
        for lam in degenerate:
            lam = scale * lam
            # as given on the diagonal, and conjugated so that a repeated
            # eigenvalue sits off the diagonal
            _assert_spectrum(np.diag(lam).astype(complex), lam)
            _assert_spectrum(_known_spectrum(rng, lam), lam)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    _assert_spectrum(hadamard @ np.diag([2.0, 2.0]) @ hadamard.T, np.array([2.0, 2.0]))


def test_small_symmetric_spectrum_is_exact():
    assert linalg.operator_norm(np.array([[1, 2], [2, 1]], dtype=complex)) == 3.0


def test_operator_norm_matches_numpy_on_general_matrices():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5, 7):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = np.linalg.norm(m, 2)
        assert abs(linalg.operator_norm(m) - ref) < 1e-12 * max(ref, 1.0)
    assert linalg.operator_norm(np.zeros((3, 3))) == 0.0


def test_hermitian_opnorm_uses_magnitude():
    assert linalg.operator_norm(np.diag([-5.0, 1.0])) == 5.0


def test_overflowing_gram_is_refused():
    # Only a norm past the float range, or non-finite input, is refused.
    # The unscaled Gram of this input overflows; a power-of-two rescaling
    # keeps it finite, and the norm is sqrt(5) * 1e200.
    got = linalg.operator_norm(np.array([[1e200, 2e200], [0.0, 1.0]]))
    assert abs(got - np.sqrt(5.0) * 1e200) <= 1e-15 * got
    # Only matrices with an entry above GRAM_SAFE_ENTRY are rescaled;
    # the others give bit for bit what the Gram route gives.
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    stack[3] *= 1e180
    out = linalg.opnorm_batch(stack)
    small = np.delete(stack, 3, axis=0)
    gram = np.conj(np.swapaxes(small, 1, 2)) @ small
    assert np.array_equal(np.delete(out, 3), np.sqrt(linalg.eigvalsh_batch(gram)[:, -1]))
    assert abs(out[3] - np.linalg.norm(stack[3], 2)) <= 1e-14 * out[3]
    # A nonzero peak below 1 / GRAM_SAFE_ENTRY is scaled up the same way:
    # unscaled, the squares underflow, and at 1e-200 the norm read 0.0.
    for scale in (1e-160, 1e-200, 1e-300, 5e-324):
        m = scale * np.array([[1.0, 2.0], [0.0, 1.0]])
        ref = np.linalg.norm(m, 2)
        assert abs(linalg.operator_norm(m) - ref) <= 1e-14 * ref, scale
    # Non-finite input, and a norm past the float range, are refused.
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            linalg.operator_norm(np.array([[bad, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.operator_norm(np.array([[1.5e308, 1.5e308], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.hermitian_opnorm_batch(np.full((2, 3, 3), np.nan))


def test_gram_scale_exponents_mark_only_peaks_out_of_range():
    """The exponents of ``linalg._gram_range``, the one rescale rule of
    the norms: no exponents when every peak is zero or within [1/GRAM_SAFE_ENTRY,
    GRAM_SAFE_ENTRY], bounds and empty stacks included; otherwise the
    exponent that brings an out-of-range peak into [1/2, 1), and 0 for the
    rest.  The complex scaling by 2**e is exact in both parts."""
    g = linalg.GRAM_SAFE_ENTRY
    for peaks in ([], [0.0], [1.0, g, 1.0 / g, 0.0], 3.0):
        assert linalg._gram_scale_exponents(np.array(peaks)) is None, peaks
    peaks = np.array([1.0, 2.0 * g, 0.0, 1e-200, 5e-324, g])
    exp = linalg._gram_scale_exponents(peaks)
    assert exp.tolist() == [0, 500, 0, -664, -1073, 0]
    moved = np.ldexp(peaks, -exp)[exp != 0]
    assert ((0.5 <= moved) & (moved < 1.0)).all()
    assert linalg._gram_scale_exponents(np.array(1e-200)) == -664
    m = np.array([[1e-200 - 1e200j, -0.0], [3j, -2.5]])
    for e in (-300, 0, 300):
        scaled = linalg._ldexp_complex(m, e)
        assert np.array_equal(linalg._ldexp_complex(scaled, -e), m)
        assert np.array_equal(np.signbit(scaled.real), np.signbit(m.real))
    assert linalg._ldexp_complex(np.array([5e-324j]), 1073)[0] == 0.5j


def test_hermitian_part_does_not_overflow():
    # Halving before the sum keeps entries near the float limit finite;
    # pytest turns an overflow warning into an error.
    h = np.array([[1e308, 1e308], [1e308, -1e308]])
    assert linalg.operator_norm(h) == 1.4142135623730951e308
    # Elsewhere the Hermitian part, and so the spectrum, keeps its bits.
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5):
        for scale in (1e-300, 1.0, 1e300):
            g = scale * (rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n)))
            herm = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
            assert np.array_equal(linalg.eigvalsh_batch(g), np.linalg.eigvalsh(herm))


def test_top_eigvals_2x2_match_lapack():
    """The closed form of the top eigenvalue of a two-row Gram, from its
    entries, against LAPACK on the Gram matrix."""
    rng = np.random.default_rng(23)
    z = rng.standard_normal((400, 2, 3)) + 1j * rng.standard_normal((400, 2, 3))
    a = np.array([0.0, 1.0, 3.0, 1e-200, 7e150])
    diag = np.zeros((5, 2, 2), dtype=complex)
    diag[:, 0, 0], diag[:, 1, 1] = a, a[::-1]
    equal = np.zeros((5, 2, 2), dtype=complex)
    equal[:, 0, 0] = equal[:, 1, 1] = a
    equal[:, 0, 1] = 0.5j * a
    equal[:, 1, 0] = -0.5j * a
    x = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    stacks = {
        "random psd": z @ np.conj(np.swapaxes(z, 1, 2)),
        "diagonal": diag,
        "equal diagonal": equal,
        "rank one": x[:, :, None] * np.conj(x[:, None, :]),
        "zero": np.zeros((3, 2, 2), dtype=complex),
    }
    for name, h in stacks.items():
        pp, qq = h[:, 0, 0].real, h[:, 1, 1].real
        got = linalg.top_gram_eigvals_2(pp + qq, pp, qq, h[:, 0, 1])
        want = linalg.eigvalsh_batch(h)[:, -1]
        trace = np.trace(h, axis1=1, axis2=2).real
        assert np.all(np.abs(got - want) <= 1e-15 * trace), name
    # From the rows themselves, as the search calls it.
    sq = np.abs(z) ** 2
    pp, qq = sq[:, 0].sum(axis=1), sq[:, 1].sum(axis=1)
    got = linalg.top_gram_eigvals_2(
        sq.sum(axis=(1, 2)), pp, qq, np.sum(z[:, 0] * np.conj(z[:, 1]), axis=1)
    )
    want = linalg.eigvalsh_batch(stacks["random psd"])[:, -1]
    assert np.all(np.abs(got - want) <= 1e-15 * (pp + qq))


def test_batch_agrees_with_scalar_path():
    rng = np.random.default_rng(40)
    stack = np.stack([random_hermitian(rng, 5) for _ in range(64)])
    ob = linalg.opnorm_batch(stack)
    for i in range(stack.shape[0]):
        assert abs(ob[i] - np.linalg.norm(stack[i], 2)) < 1e-11


def test_batch_shape_validation():
    with pytest.raises(DimensionError):
        linalg.eigvalsh_batch(np.zeros((4, 3, 2)))
    out = linalg.eigvalsh_batch(np.zeros((0, 3, 3)))
    assert out.shape == (0, 3)
    w1 = linalg.eigvalsh_batch(np.array([4.0, -2.5, 0.0]).reshape(3, 1, 1))
    assert w1.shape == (3, 1)
    assert np.array_equal(w1[:, 0], [4.0, -2.5, 0.0])


def test_batch_uses_the_hermitian_part():
    rng = np.random.default_rng(41)
    herm = np.stack([random_hermitian(rng, 6) for _ in range(16)])
    g = rng.standard_normal(herm.shape) + 1j * rng.standard_normal(herm.shape)
    skew = 1e-13 * (g - np.conj(np.swapaxes(g, 1, 2))) / 2.0
    w = linalg.eigvalsh_batch(herm + skew)
    assert np.abs(w - np.linalg.eigvalsh(herm)).max() < 1e-14


def _lapack_core(h):
    """The spectral core without its 1x1 shortcut: the Hermitian part,
    halved and summed as in ``linalg._spectrum``, always to LAPACK."""
    h = 0.5 * h
    h += np.conj(h.swapaxes(-1, -2))
    return np.linalg.eigvalsh(h)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def test_one_by_one_spectra_are_lapacks_bit_for_bit(monkeypatch):
    """A 1x1 Hermitian part is returned without LAPACK, with the bits
    LAPACK gives it, signed zeros included: the halved-then-doubled real
    part, so 5e-324 reads 0.0.  The operator norms built on it match the
    LAPACK route too, rescaled entries included."""
    values = [5e-324, -5e-324, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.5, -3.0, 1.7e308]
    real = np.array(values, dtype=complex)
    imaginary = np.zeros(len(values), dtype=complex)
    imaginary.imag = values
    mixed = np.empty(len(values), dtype=complex)
    mixed.real, mixed.imag = values, values[::-1]
    stack = np.concatenate([real, imaginary, mixed]).reshape(-1, 1, 1)
    herm = 0.5 * stack
    herm += np.conj(herm.swapaxes(1, 2))
    w = linalg.eigvalsh_batch(stack)
    assert np.array_equal(_bits(w), _bits(np.linalg.eigvalsh(herm)))
    assert w[0, 0] == 0.0 and stack[0, 0, 0] == 5e-324
    # opnorm_batch refuses a norm past the float range, so its stack
    # leaves out the entries with a part of 1.7e308.
    normed = stack[(np.abs(stack.real) < 1e308) & (np.abs(stack.imag) < 1e308)].reshape(-1, 1, 1)
    got = {
        "eigvalsh": w,
        "hermitian": linalg.hermitian_opnorm_batch(stack),
        "general": linalg.opnorm_batch(normed),
    }
    monkeypatch.setattr(linalg, "_spectrum", _lapack_core)
    want = {
        "eigvalsh": linalg.eigvalsh_batch(stack),
        "hermitian": linalg.hermitian_opnorm_batch(stack),
        "general": linalg.opnorm_batch(normed),
    }
    for name in got:
        assert np.array_equal(_bits(got[name]), _bits(want[name])), name


def test_batch_norms_refuse_non_finite_entries_and_take_empty_stacks():
    """NaN, +-inf and complex-inf entries are refused with ValueError by
    the three batch functions, in 1x1 and 3x3 stacks, also beside a
    matrix that is rescaled; an empty (0, n, n) stack gives an empty
    result."""
    for n in (1, 3):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)):
            for neighbour in (1.0, 1e200, 1e-200):
                stack = np.full((2, n, n), neighbour, dtype=complex)
                stack[1, n - 1, 0] = bad
                for fn in (linalg.opnorm_batch, linalg.hermitian_opnorm_batch, linalg.eigvalsh_batch):
                    with pytest.raises(ValueError) as info:
                        fn(stack)
                    assert info.type is ValueError, (fn.__name__, n, bad, neighbour)
        empty = np.zeros((0, n, n), dtype=complex)
        assert linalg.opnorm_batch(empty).shape == (0,)
        assert linalg.hermitian_opnorm_batch(empty).shape == (0,)
        assert linalg.eigvalsh_batch(empty).shape == (0, n)


def test_ensure_square_rejects_non_square():
    with pytest.raises(DimensionError):
        linalg.ensure_square(np.zeros((2, 3)))


def test_operator_norm_refuses_at_its_boundary_and_never_writes():
    """operator_norm refuses a 2x3 matrix with DimensionError and NaN or
    inf entries with ValueError, and leaves a read-only input as it was,
    on the Hermitian, the general and the rescaled paths."""
    with pytest.raises(DimensionError):
        linalg.operator_norm(np.zeros((2, 3)))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError) as info:
            linalg.operator_norm(m)
        assert info.type is ValueError
    rng = np.random.default_rng(77)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for m in (g, g + g.conj().T, 1e200 * g, 1e-200 * g, np.zeros((4, 4), dtype=complex)):
        before = m.copy()
        m.setflags(write=False)
        assert np.isfinite(linalg.operator_norm(m))
        assert np.array_equal(m, before)


def test_lapack_failure_surfaces_as_convergence_error(monkeypatch, tmp_path, capsys):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError):
        linalg.opnorm_batch(np.array([[[1.0, 2.0], [0.0, 1.0]]]))
    with pytest.raises(ConvergenceError):
        linalg.operator_norm(np.array([[1.0, 2.0], [2.0, 1.0]]))

    payloads = {
        "sub": {"shape": [2], "partitions": [[[1, 1], [1, 1]]], "groups": [[[1, 1]], [[1, 2]]]},
        "w": {"weights": [1.0]},
        "a": {"shape": [2], "summands": [
            {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [1.0, 0.0]]}
        ]},
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    rc = cli.main([
        "norm",
        "--subalgebra", str(tmp_path / "sub.json"),
        "--weights", str(tmp_path / "w.json"),
        "--element", str(tmp_path / "a.json"),
    ])
    assert rc == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConvergenceError"


def test_matrix_json_round_trip():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = linalg.matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 3
    back = linalg.matrix_from_json(obj)
    assert np.array_equal(back, m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=n * n,
            max_size=n * n,
        )
    )
)
def test_spectrum_preserves_trace_and_frobenius_mass(entries):
    n = int(np.sqrt(len(entries)))
    g = np.array([a + 1j * b for a, b in entries]).reshape(n, n)
    h = (g + g.conj().T) / 2.0
    w = linalg.eigvalsh_batch(h[None])[0]
    scale = max(np.abs(h).max(), 1.0)
    assert abs(w.sum() - np.trace(h).real) < 1e-10 * scale * n
    assert abs((w**2).sum() - (np.abs(h) ** 2).sum()) < 1e-9 * scale**2 * n


def test_adjoint_acts_on_the_last_two_axes():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
    adj = linalg.adjoint(stack)
    assert adj.shape == (2, 3, 5, 4)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(adj[i, j], stack[i, j].conj().T)
    m = stack[0, 0]
    assert np.array_equal(linalg.adjoint(m), m.conj().T)
