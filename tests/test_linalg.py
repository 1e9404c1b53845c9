import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frnorms import cli, linalg
from frnorms.errors import ConvergenceError, DimensionError, HermitianError


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def test_jacobi_matches_numpy_across_sizes():
    rng = np.random.default_rng(101)
    for n in (2, 3, 4, 5, 8, 12, 20):
        for _ in range(3):
            h = random_hermitian(rng, n)
            w, v = linalg.jacobi_eigh(h)
            ref = np.linalg.eigvalsh(h)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(w - ref).max() < 1e-12 * scale


def test_jacobi_reconstructs_and_is_unitary():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 9)
    w, v = linalg.jacobi_eigh(h)
    assert np.abs(v.conj().T @ v - np.eye(9)).max() < 1e-13
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-12
    assert np.all(np.diff(w) >= 0)


def test_jacobi_handles_degenerate_and_trivial_spectra():
    w, v = linalg.jacobi_eigh(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-14

    d = np.diag([3.0, 3.0, -1.0, 0.0])
    w, _ = linalg.jacobi_eigh(d)
    assert np.allclose(np.sort(w), [-1.0, 0.0, 3.0, 3.0])

    # repeated eigenvalue off the diagonal
    u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    h = u @ np.diag([2.0, 2.0]) @ u.conj().T
    w, _ = linalg.jacobi_eigh(h)
    assert np.abs(w - 2.0).max() < 1e-13

    w, _ = linalg.jacobi_eigh(np.array([[4.0]]))
    assert w[0] == 4.0


def test_small_symmetric_spectrum_is_exact():
    w, _ = linalg.jacobi_eigh(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert w[0] == -1.0 and w[1] == 3.0
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
    # The Gram matrix of this input overflows to inf; the eigen layer
    # refuses non-finite stacks instead of returning nan.
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        linalg.operator_norm(np.array([[1e200, 2e200], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.hermitian_opnorm_batch(np.full((2, 3, 3), np.nan))


def test_batch_agrees_with_scalar_path():
    rng = np.random.default_rng(40)
    stack = np.stack([random_hermitian(rng, 5) for _ in range(64)])
    wb = linalg.eigvalsh_batch(stack)
    for i in range(stack.shape[0]):
        w, _ = linalg.jacobi_eigh(stack[i])
        assert np.abs(wb[i] - w).max() < 1e-12

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


def test_ensure_hermitian_rejects_asymmetric():
    with pytest.raises(HermitianError):
        linalg.ensure_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        linalg.ensure_square(np.zeros((2, 3)))


def test_convergence_error_surfaces(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        linalg.jacobi_eigh(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
    w, _ = linalg.jacobi_eigh(h)
    scale = max(np.abs(h).max(), 1.0)
    assert abs(w.sum() - np.trace(h).real) < 1e-10 * scale * n
    assert abs((w**2).sum() - (np.abs(h) ** 2).sum()) < 1e-9 * scale**2 * n
