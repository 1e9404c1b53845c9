"""Dense complex-matrix kernel.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  Spectra
are computed on stacks only: :func:`eigvalsh_batch` hands a whole
(batch, n, n) stack to numpy's LAPACK ``eigvalsh`` in one call, and the
operator norms are built on it; a single matrix is a batch of one.  A
LAPACK failure surfaces as :class:`ConvergenceError`.  The cyclic Jacobi
eigensolver :func:`jacobi_eigh` is kept as an independent oracle for the
tests and as the fixed unitary generator of the fixture fleet.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError, HermitianError

# Relative tolerance for the Hermitian-input gate.
HERMITIAN_RTOL = 1e-12
# Jacobi sweep convergence: off-diagonal Frobenius mass below this
# multiple of the diagonal mass.
JACOBI_OFF_RTOL = 1e-14
JACOBI_MAX_SWEEPS = 100

_TINY = 1e-300


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def ensure_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def ensure_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermitian symmetry within HERMITIAN_RTOL (relative)."""
    m = ensure_square(m)
    dev = np.abs(m - adjoint(m)).max(initial=0.0)
    scale = np.abs(m).max(initial=0.0)
    if dev > HERMITIAN_RTOL * scale:
        raise HermitianError(
            f"matrix is not Hermitian: max deviation {dev:.3e} vs scale {scale:.3e}"
        )
    return m


def _rotation_params(a, d, b):
    """Jacobi angle for the 2x2 Hermitian block [[a, b], [conj(b), d]].

    Returns (c, sigma, delta) with G = [[c, sigma], [-conj(sigma), c]],
    c real, such that (G^H H G)[0, 1] = 0; delta = t|b| is the exact
    shift of the two diagonal entries (a - delta, d + delta), applied
    directly because routing it through the column arithmetic loses a
    few ulps to the rounding of c^2.
    """
    absb = abs(b)
    if absb <= _TINY:
        return 1.0, 0.0j, 0.0
    tau = (d - a) / (2.0 * absb)
    tau = min(max(tau, -1e150), 1e150)
    t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    sigma = (t * c) * (b / absb)
    return c, sigma, t * absb


def _off_diag_mass(h: np.ndarray) -> tuple[float, float]:
    # Summing the off-diagonal entries directly avoids the catastrophic
    # cancellation of a total-minus-diagonal formulation near convergence.
    abs2 = np.abs(h) ** 2
    diag2 = float(np.trace(abs2))
    np.fill_diagonal(abs2, 0.0)
    off2 = float(abs2.sum())
    return np.sqrt(off2), np.sqrt(diag2)


def jacobi_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues w ascending and unitary v such that
    m ~= v @ diag(w) @ v^H.  Convergence: off-diagonal Frobenius mass
    below JACOBI_OFF_RTOL times the diagonal mass, hard cap
    JACOBI_MAX_SWEEPS sweeps.
    """
    m = ensure_hermitian(m)
    n = m.shape[0]
    h = 0.5 * (m + adjoint(m))
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return h.real.reshape(1).copy(), v
    for _ in range(JACOBI_MAX_SWEEPS):
        off, diag = _off_diag_mass(h)
        if off <= JACOBI_OFF_RTOL * diag:
            break
        # Entries already below this level cannot push the off-diagonal
        # mass over the convergence criterion; rotating on them would only
        # re-inject roundoff, so they are skipped this sweep.
        skip = JACOBI_OFF_RTOL * diag / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(h[p, q]) <= skip:
                    continue
                app = h[p, p].real
                aqq = h[q, q].real
                c, sigma, delta = _rotation_params(app, aqq, h[p, q])
                if sigma == 0.0:
                    continue
                sigma_c = np.conj(sigma)
                colp = h[:, p].copy()
                h[:, p] = c * colp - sigma_c * h[:, q]
                h[:, q] = sigma * colp + c * h[:, q]
                rowp = h[p, :].copy()
                h[p, :] = c * rowp - sigma * h[q, :]
                h[q, :] = sigma_c * rowp + c * h[q, :]
                h[p, q] = 0.0
                h[q, p] = 0.0
                h[p, p] = app - delta
                h[q, q] = aqq + delta
                vcolp = v[:, p].copy()
                v[:, p] = c * vcolp - sigma_c * v[:, q]
                v[:, q] = sigma * vcolp + c * v[:, q]
    else:
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        )
    w = np.diagonal(h).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def eigvalsh_batch(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) for a stack of Hermitian matrices.

    ``h`` has shape (batch, n, n) and is replaced by its Hermitian part
    0.5 (h + h^H) before the whole stack goes to LAPACK in one call;
    symmetrizing first makes the result independent of which triangle
    LAPACK reads.  Non-finite entries (an overflowed Gram matrix, say)
    are refused with ValueError.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise DimensionError(f"expected a (batch, n, n) stack, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolver did not converge: {exc}") from exc


def opnorm_batch(m: np.ndarray) -> np.ndarray:
    """Operator norms for a stack of (not necessarily Hermitian) matrices,
    via the top eigenvalue of each Gram matrix m^H m."""
    gram = np.conj(np.swapaxes(m, 1, 2)) @ m
    w = eigvalsh_batch(gram)
    return np.sqrt(np.maximum(w[:, -1], 0.0))


def hermitian_opnorm_batch(h: np.ndarray) -> np.ndarray:
    """Operator norms for a stack of Hermitian matrices: the largest
    eigenvalue magnitude of each."""
    w = eigvalsh_batch(h)
    return np.max(np.abs(w), axis=1, initial=0.0)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of one matrix, as a batch of one.

    Exactly Hermitian inputs go to :func:`hermitian_opnorm_batch`, which
    avoids the precision loss of the m^H m detour (a spectral value of 3
    comes back as 3.0, not 2.9999...96); the rest go to
    :func:`opnorm_batch`.
    """
    m = ensure_square(m)
    if np.array_equal(m, adjoint(m)):
        return float(hermitian_opnorm_batch(m[None])[0])
    return float(opnorm_batch(m[None])[0])


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode as {"rows": n, "cols": m, "data": [[re, im], ...]} row-major."""
    m = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj) -> np.ndarray:
    """Decode the matrix encoding produced by :func:`matrix_to_json`."""
    if not isinstance(obj, dict):
        raise DimensionError("matrix object must be a JSON mapping")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0 or len(data) != rows * cols:
        raise DimensionError(
            f"matrix data length {len(data)} does not match {rows}x{cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(data):
        if len(pair) != 2:
            raise DimensionError("matrix entries must be [re, im] pairs")
        out[idx] = complex(float(pair[0]), float(pair[1]))
    out = out.reshape(rows, cols)
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out
