"""Dense complex-matrix kernel.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
private spectral core ``_spectrum`` is the package's one call to a
spectral routine of ``np.linalg``: it hands the Hermitian parts of a
whole (batch, n, n) stack to LAPACK's ``eigvalsh`` in one call, refuses
a spectrum beyond the float range (ValueError), and turns a LAPACK
failure into :class:`ConvergenceError`.  A stack of 1x1 matrices skips
LAPACK: the core returns the real part of each Hermitian part, which is
what LAPACK returns, bit for bit.
Input is checked once, where it enters.  :func:`eigvalsh_batch` refuses
a malformed stack (DimensionError) or a non-finite entry, such as an
overflowed Gram (ValueError), for itself and the operator norms built
on it; :func:`opnorm_batch` also refuses a non-finite entry of a matrix
it rescales, and a norm beyond the float range.  :func:`operator_norm`
refuses one matrix that is not square and finite; an element's summands
are checked when the element is built.  Two routes therefore hand the
stacks they build straight to the core, without ``eigvalsh_batch``'s
scans: :func:`_operator_norm_unchecked`, behind ``operator_norm`` and
``algebra.element_norm``, whose matrix is checked and whose Gram, formed
only for a peak entry in the Gram range, is finite by the bound in its
docstring; and ``StandardSubalgebra.induced_opnorms_sq``, which builds
its stacks from an element's summands and scans each once itself, as
its Grams can overflow.  Both keep the bits of the batch norms.
A single matrix is a batch of one; :func:`top_gram_eigvals_2` is a
closed form for the top eigenvalue of a two-vector Gram.
LAPACK is the one eigensolver; the tests check it against matrices
U diag(w) U^H whose spectrum w is known exactly.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DimensionError

# Largest entry whose Gram products are formed unscaled: squares of
# larger entries can overflow, and a matrix whose nonzero peak is below
# its reciprocal has squares that underflow (see opnorm_batch).
GRAM_SAFE_ENTRY = 1e150


def as_matrix(values, copy: bool = True) -> np.ndarray:
    """Coerce to a finite complex 2-d array.  With ``copy=False`` a
    complex128 array is checked and returned as it is."""
    arr = (np.array if copy else np.asarray)(values, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack: the
    last two axes are swapped."""
    return m.conj().swapaxes(-1, -2)


def ensure_square(m: np.ndarray) -> np.ndarray:
    """A finite square complex matrix, copied only to change its dtype."""
    m = as_matrix(m, copy=False)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _spectrum(h: np.ndarray) -> np.ndarray:
    """The spectral core: eigenvalues (ascending) of the Hermitian parts
    0.5 (h + h^H) of a finite complex (batch, n, n) stack, whose input is
    not checked.
    Symmetrizing makes the result independent of which triangle LAPACK
    reads; halving first keeps entries near the float limit finite.  The
    Hermitian part of a 1x1 matrix is twice the real part of its halved
    entry, which is what LAPACK returns for it, so it skips LAPACK; the
    real part is read after the complex product, whose signed zeros
    LAPACK's answer keeps.  LAPACK returns inf, without a warning, for an
    eigenvalue beyond the float range, so its answer is checked and such
    a spectrum refused with ValueError; a 1x1 spectrum is finite."""
    h = 0.5 * h
    if h.shape[-1] == 1:
        x = h.real[..., 0]
        return x + x
    h += adjoint(h)
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolver did not converge: {exc}") from exc
    if not np.isfinite(w).all():
        raise ValueError("eigenvalues exceed the float range")
    return w


def eigvalsh_batch(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) for a stack of Hermitian matrices.

    ``h`` has shape (batch, n, n).  This is the one place a stack is
    checked: a malformed one is refused with DimensionError, non-finite
    entries (an overflowed Gram matrix, say) with ValueError.  The core
    ``_spectrum`` then takes its Hermitian part to LAPACK in one call.
    A finite matrix can have a spectrum beyond the float range (3e308
    for the 3x3 matrix of 1e308s); the core refuses it with ValueError.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise DimensionError(f"expected a (batch, n, n) stack, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    return _spectrum(h)


def top_gram_eigvals_2(mass, pp, qq, pq) -> np.ndarray:
    """Largest eigenvalue of the Gram matrix [[pp, pq], [conj(pq), qq]] of
    two vectors p, q, elementwise over arrays: pp = ||p||^2, qq = ||q||^2,
    pq = <p, q> and mass = pp + qq, which a caller may have summed
    already.  In closed form it is

        mass/2 + sqrt(((pp - qq)/2)^2 + |pq|^2),

    the square root taken as a hypot so that finite inputs give a finite
    result.  The inputs are not checked for finiteness.
    """
    return 0.5 * mass + np.hypot(0.5 * (pp - qq), np.abs(pq))


def _gram_scale_exponents(peak: np.ndarray) -> np.ndarray | None:
    """The power-of-two exponents that bring peak entries into the Gram
    range, or None when none needs it.

    The Gram squares the entries, so a nonzero peak above GRAM_SAFE_ENTRY
    or below 1/GRAM_SAFE_ENTRY gets the exponent e of the power of two
    2**e just above it (``np.frexp``); the others get 0.  Dividing by
    2**e (:func:`_ldexp_complex`) and multiplying the norm back
    (:func:`_scale_norms_back`) is exact.  Whether any peak needs it is
    read from the smallest and largest one; the per-peak test is made
    only when one of them lies out of range.
    """
    lo, hi = peak.min(initial=1.0), peak.max(initial=0.0)
    if 1.0 / GRAM_SAFE_ENTRY <= lo and hi <= GRAM_SAFE_ENTRY:
        return None
    scaled = (peak > GRAM_SAFE_ENTRY) | ((peak < 1.0 / GRAM_SAFE_ENTRY) & (peak > 0.0))
    if not scaled.any():
        return None
    return np.where(scaled, np.frexp(peak)[1], 0)


def _ldexp_complex(m: np.ndarray, e) -> np.ndarray:
    """m * 2**e as a new complex array, exactly: ``np.ldexp`` on the real
    and imaginary parts, because 2**e itself overflows for the exponents
    of subnormal peaks."""
    out = np.empty(np.shape(m), dtype=np.complex128)
    out.real, out.imag = np.ldexp(np.real(m), e), np.ldexp(np.imag(m), e)
    return out


def _scale_norms_back(norms: np.ndarray, e, what: str) -> np.ndarray:
    """norms * 2**e, the norms of matrices scaled by 2**-e; a norm beyond
    the float range is refused with ValueError."""
    with np.errstate(over="ignore"):
        norms = np.ldexp(norms, e)
    if not np.isfinite(norms).all():
        raise ValueError(f"{what} exceeds the float range")
    return norms


def opnorm_batch(m: np.ndarray) -> np.ndarray:
    """Operator norms for a stack of (not necessarily Hermitian) matrices,
    via the top eigenvalue of each Gram matrix m^H m.

    A matrix whose peak entry lies outside the Gram range is first
    divided by a power of two and its norm multiplied back
    (:func:`_gram_scale_exponents`); the other matrices are untouched.
    Non-finite entries of a stack that is rescaled, and a norm beyond the
    float range, are refused with ValueError.
    """
    exp = _gram_scale_exponents(np.abs(m).max(axis=(1, 2), initial=0.0))
    if exp is not None:
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        m = _ldexp_complex(m, -exp[:, None, None])
    gram = adjoint(m) @ m
    w = eigvalsh_batch(gram)
    norms = np.sqrt(np.maximum(w[:, -1], 0.0))
    if exp is not None:
        norms = _scale_norms_back(norms, exp, "operator norm")
    return norms


def hermitian_opnorm_batch(h: np.ndarray) -> np.ndarray:
    """Operator norms for a stack of Hermitian matrices: the largest
    eigenvalue magnitude of each, checked by :func:`eigvalsh_batch`."""
    return np.abs(eigvalsh_batch(h)).max(axis=1, initial=0.0)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of one matrix, as a batch of one, checked
    here, once, and not copied: one that is not square is refused with
    DimensionError, a non-finite entry with ValueError.  The norm itself
    is :func:`_operator_norm_unchecked`'s.
    """
    return _operator_norm_unchecked(ensure_square(m))


def _operator_norm_unchecked(m: np.ndarray) -> float:
    """Largest singular value of one finite square complex matrix,
    unchecked: for a matrix a caller has checked, such as an element's
    summand.  Its bits are those of :func:`hermitian_opnorm_batch` or
    :func:`opnorm_batch` on ``m[None]``, without their scans of input
    that is finite already.

    Exactly Hermitian inputs go to the core as they are, which avoids
    the precision loss of the m^H m detour (a spectral value of 3 comes
    back as 3.0, not 2.9999...96); a nonzero imaginary diagonal entry
    rules that out before the full comparison.  The rest, which are not
    zero, have their peak entry read once.  A peak in the Gram range [1 /
    GRAM_SAFE_ENTRY, GRAM_SAFE_ENTRY] sends the Gram m^H m to the core
    unscanned: each Gram entry is at most d peak^2 <= d 1e300, finite
    for d < 1.7e8, and a d x d summand that wide would take more than
    4.6e17 bytes, so it cannot be built.  The spectrum, up to d^2
    peak^2, can still pass the float range from d of about 1.3e4, and
    the core refuses it.  A peak outside the range takes
    :func:`opnorm_batch`'s rescaling, which refuses a norm beyond the
    float range.  A LAPACK failure raises ConvergenceError in the core.
    """
    if not np.count_nonzero(m.imag.diagonal()) and (m == adjoint(m)).all():
        w = _spectrum(m[None])[0]
        return float(max(abs(w[0]), abs(w[-1])))
    peak = np.abs(m).max(initial=0.0)
    if 1.0 / GRAM_SAFE_ENTRY <= peak <= GRAM_SAFE_ENTRY:
        m = m[None]
        # max(0.0, x) turns a -0.0 into 0.0, as np.maximum does.
        return math.sqrt(max(0.0, _spectrum(adjoint(m) @ m)[0, -1]))
    return float(opnorm_batch(m[None])[0])


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode as {"rows": n, "cols": m, "data": [[re, im], ...]} row-major."""
    m = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def checked_number(value, error: type[Exception], integral: bool = True):
    """A number checked for every decoder of the JSON wire format and for
    the constructors that take counts (shapes, refined partitions, slot
    groups, continued fractions): an int or float, Python or numpy, as an
    int if ``integral`` (a float must then be integral, so nan and inf are
    not), else as a float.  Anything else, a bool included, is refused
    with the caller's ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"expected a number, got {value!r}")
    if not integral:
        try:
            return float(value)
        except OverflowError as exc:
            raise error(f"number out of the float range: {exc}") from exc
    if not isinstance(value, (int, np.integer)) and not value.is_integer():
        raise error(f"expected an integer, got {value!r}")
    return int(value)


def matrix_from_json(obj) -> np.ndarray:
    """Decode the matrix encoding produced by :func:`matrix_to_json`."""
    if not isinstance(obj, dict):
        raise DimensionError("matrix object must be a JSON mapping")
    try:
        rows = checked_number(obj["rows"], DimensionError)
        cols = checked_number(obj["cols"], DimensionError)
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0 or len(data) != rows * cols:
        raise DimensionError(
            f"matrix data length {len(data)} does not match {rows}x{cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(data):
        if len(pair) != 2:
            raise DimensionError("matrix entries must be [re, im] pairs")
        out[idx] = complex(*(checked_number(x, DimensionError, integral=False) for x in pair))
    out = out.reshape(rows, cols)
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out
