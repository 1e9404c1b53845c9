"""Finite-dimensional C*-algebras as direct sums of full matrix algebras.

An algebra is described by its shape (d_1, ..., d_N); an element is one
complex d_k x d_k matrix per summand.  Faithful tracial states are given
by weight vectors v with sum 1, acting as
``tau_v(a) = sum_k (v_k / d_k) * tr(a_k)``.

Summand and entry indices in the public structural API are 1-based,
matching the wire format; the underlying numpy arrays are 0-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import linalg
from .errors import ShapeError, WeightError

WEIGHT_SUM_TOL = 1e-12
# The signed 64-bit cap on summand dimensions and convergent denominators.
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class AlgebraShape:
    """Dimensions (d_1, ..., d_N) of the matrix summands, each in 1..2**63 - 1,
    stored as ints; a non-integral dimension is refused with ShapeError."""

    dims: tuple[int, ...]

    def __post_init__(self):
        # An int skips the call: every tower level builds a shape.
        dims = tuple(
            d if type(d) is int else linalg.checked_number(d, ShapeError) for d in self.dims
        )
        if len(dims) < 1:
            raise ShapeError("shape needs at least one summand")
        if any(d < 1 for d in dims):
            raise ShapeError(f"summand dimensions must be >= 1, got {dims}")
        if any(d > _INT64_MAX for d in dims):
            raise ShapeError("summand dimensions must not exceed 2**63 - 1, the 64-bit range")
        object.__setattr__(self, "dims", dims)

    @property
    def num_summands(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        """Dimension of the block-diagonal embedding into one matrix algebra."""
        return sum(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Row offset of each summand in the block-diagonal embedding."""
        return tuple(accumulate(self.dims[:-1], initial=0))

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)


class AlgebraElement:
    """An element of a direct-sum matrix algebra.

    Supports ``+``, ``-``, scalar ``*``, the algebra product ``@`` and
    ``adjoint()``.  Summand arrays are copied on construction and frozen;
    the arrays an operation computes are new, so its result is checked
    and frozen without a second copy.
    """

    __slots__ = ("shape", "summands")

    def __init__(self, shape: AlgebraShape, summands):
        self._freeze(shape, [linalg.as_matrix(m) for m in summands])

    def _freeze(self, shape: AlgebraShape, summands):
        summands = tuple(summands)
        if len(summands) != shape.num_summands:
            raise ShapeError(
                f"expected {shape.num_summands} summands, got {len(summands)}"
            )
        for d, m in zip(shape.dims, summands):
            if m.shape != (d, d):
                raise ShapeError(f"summand of shape {m.shape} does not match d={d}")
            m.setflags(write=False)
        self.shape = shape
        self.summands = summands

    @classmethod
    def _result(cls, shape: AlgebraShape, summands) -> "AlgebraElement":
        """Wrap freshly computed arrays that no one else holds, such as
        the result of an operation on elements, with the checks of
        construction (an entry that overflowed is refused) but without
        its copy: a dense element at deep tower levels is tens of MB."""
        out = cls.__new__(cls)
        out._freeze(shape, [linalg.as_matrix(m, copy=False) for m in summands])
        return out

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, [np.zeros((d, d)) for d in shape.dims])

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, [np.eye(d) for d in shape.dims])

    def _require_same_shape(self, other: "AlgebraElement"):
        if self.shape.dims != other.shape.dims:
            raise ShapeError(
                f"shape mismatch: {self.shape.dims} vs {other.shape.dims}"
            )

    def __add__(self, other):
        self._require_same_shape(other)
        return AlgebraElement._result(
            self.shape, [a + b for a, b in zip(self.summands, other.summands)]
        )

    def __sub__(self, other):
        self._require_same_shape(other)
        return AlgebraElement._result(
            self.shape, [a - b for a, b in zip(self.summands, other.summands)]
        )

    def __neg__(self):
        return AlgebraElement._result(self.shape, [-a for a in self.summands])

    def __mul__(self, scalar):
        return AlgebraElement._result(self.shape, [scalar * a for a in self.summands])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._require_same_shape(other)
        return AlgebraElement._result(
            self.shape, [a @ b for a, b in zip(self.summands, other.summands)]
        )

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._result(self.shape, [linalg.adjoint(a) for a in self.summands])

    def __repr__(self):
        return f"AlgebraElement(shape={self.shape.dims})"


def element_norm(a: AlgebraElement) -> float:
    """C*-norm of a direct-sum element: max of summand operator norms.

    Each summand goes to ``linalg._operator_norm_unchecked``, as
    ``linalg.operator_norm`` sends a matrix, but without its entry scan:
    the summands were checked finite and square when the element was
    built.
    """
    return max(linalg._operator_norm_unchecked(m) for m in a.summands)


def matrix_unit(shape: AlgebraShape, k: int, i: int, j: int) -> AlgebraElement:
    """Matrix unit with a single 1 at entry (i, j) of summand k (1-based)."""
    if not 1 <= k <= shape.num_summands:
        raise IndexError(f"summand index {k} out of range 1..{shape.num_summands}")
    d = shape.dims[k - 1]
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexError(f"entry ({i}, {j}) out of range for summand dimension {d}")
    out = [np.zeros((dd, dd)) for dd in shape.dims]
    out[k - 1][i - 1, j - 1] = 1.0
    return AlgebraElement(shape, out)


def _checked_weights(values) -> list[float]:
    """Weights as Python floats, each checked by the JSON decoders' number
    check: a string, a bool or a complex value is refused with
    WeightError.  A float skips the call: every tower level builds a
    weight."""
    return [
        x if type(x) is float else linalg.checked_number(x, WeightError, integral=False)
        for x in values
    ]


@dataclass(frozen=True)
class TracialWeight:
    """Weight vector of a faithful tracial state on a direct-sum algebra,
    stored as Python floats; a value that is not a number is refused with
    WeightError."""

    shape: AlgebraShape
    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(_checked_weights(self.weights))
        if len(w) != self.shape.num_summands:
            raise WeightError(
                f"expected {self.shape.num_summands} weights, got {len(w)}"
            )
        if any(not math.isfinite(x) for x in w):
            raise WeightError("weights must be finite")
        if any(x <= 0.0 or x > 1.0 for x in w):
            raise WeightError(f"weights must lie in (0, 1], got {w}")
        total = sum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, shape: AlgebraShape) -> "TracialWeight":
        n = shape.num_summands
        return cls(shape, (1.0 / n,) * n)

    @classmethod
    def normalized(cls, shape: AlgebraShape, raw) -> "TracialWeight":
        """Renormalize a positive vector to sum 1 (explicit opt-in)."""
        raw = _checked_weights(raw)
        total = sum(raw)
        if total <= 0.0 or any(x <= 0.0 for x in raw):
            raise WeightError("raw weights must be strictly positive")
        return cls(shape, tuple(x / total for x in raw))

    def per_trace_factors(self) -> np.ndarray:
        """The factors v_k / d_k applied to each summand trace."""
        return np.array([w / d for w, d in zip(self.weights, self.shape.dims)])


def trace_state(v: TracialWeight, a: AlgebraElement) -> complex:
    """tau_v(a) = sum_k (v_k / d_k) tr(a_k)."""
    if v.shape.dims != a.shape.dims:
        raise ShapeError("weight and element shapes differ")
    return complex(
        sum(
            (w / d) * np.trace(m)
            for w, d, m in zip(v.weights, v.shape.dims, a.summands)
        )
    )


def inner_product(v: TracialWeight, a: AlgebraElement, b: AlgebraElement) -> complex:
    """GNS inner product <a, b> = tau_v(b* a)."""
    return trace_state(v, b.adjoint() @ a)


def to_block_matrix(a: AlgebraElement) -> np.ndarray:
    """Block-diagonal embedding of a direct-sum element into M_d, d = sum d_k."""
    d = a.shape.total_dim
    out = np.zeros((d, d), dtype=np.complex128)
    for s, n, m in zip(a.shape.offsets, a.shape.dims, a.summands):
        out[s : s + n, s : s + n] = m
    return out


def from_block_matrix(shape: AlgebraShape, m: np.ndarray) -> AlgebraElement:
    """Extract the diagonal blocks of a block matrix as an element."""
    d = shape.total_dim
    m = linalg.as_matrix(m)
    if m.shape != (d, d):
        raise ShapeError(f"expected a {d}x{d} matrix, got {m.shape}")
    return AlgebraElement(
        shape, [m[s : s + n, s : s + n] for s, n in zip(shape.offsets, shape.dims)]
    )


def shape_to_json(shape: AlgebraShape) -> dict:
    return {"shape": list(shape.dims)}


def shape_from_json(obj) -> AlgebraShape:
    if not isinstance(obj, dict) or "shape" not in obj:
        raise ShapeError("expected a mapping with a 'shape' field")
    try:
        return AlgebraShape(tuple(linalg.checked_number(d, ShapeError) for d in obj["shape"]))
    except TypeError as exc:
        raise ShapeError(f"malformed shape object: {exc}") from exc


def element_to_json(a: AlgebraElement) -> dict:
    return {
        "shape": list(a.shape.dims),
        "summands": [linalg.matrix_to_json(m) for m in a.summands],
    }


def element_from_json(obj) -> AlgebraElement:
    if not isinstance(obj, dict):
        raise ShapeError("element object must be a JSON mapping")
    try:
        shape = AlgebraShape(tuple(linalg.checked_number(d, ShapeError) for d in obj["shape"]))
        mats = [linalg.matrix_from_json(m) for m in obj["summands"]]
    except KeyError as exc:
        raise ShapeError(f"element object missing field {exc}") from exc
    except TypeError as exc:
        raise ShapeError(f"malformed element object: {exc}") from exc
    return AlgebraElement(shape, mats)


def weight_to_json(v: TracialWeight) -> dict:
    return {"weights": list(v.weights)}


def weight_from_json(shape: AlgebraShape, obj) -> TracialWeight:
    if not isinstance(obj, dict) or "weights" not in obj:
        raise WeightError("expected a mapping with a 'weights' field")
    try:
        raw = tuple(linalg.checked_number(x, WeightError, integral=False) for x in obj["weights"])
    except TypeError as exc:
        raise WeightError(f"malformed weights object: {exc}") from exc
    return TracialWeight(shape, raw)
