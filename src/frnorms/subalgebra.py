"""Unital subalgebras of direct-sum matrix algebras in standard form.

A standard subalgebra is described per summand by a refined partition
``d_k = sum_i m_{k,i} * n_{k,i}`` (slot i carries ``m_{k,i}`` contiguous
diagonal copies of an ``n_{k,i}`` x ``n_{k,i}`` block) together with a
grouping of slots: slots in one group hold the same matrix, which is how
identifications across summands are encoded.  Repetition inside one
summand is always expressed through the multiplicities; non-contiguous
repeats must be entered as a conjugated subalgebra with an explicit
permutation unitary.

Everything the package computes about a subalgebra comes from where
its blocks sit, and only this module works that out: ``slots`` per
summand, ``runs`` per group (one row per slot), what a weight fixes on
them (``weight_layout``), the block average over them (the expectation
and the membership test) and the induced norm.
The canonical basis, one 0/1 matrix per group and block entry (p, q),
is built only when it is asked for; supports of distinct basis elements
are disjoint, which makes them orthogonal for every tracial inner
product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import lcm
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraShape,
    element_from_json,
    element_norm,
    element_to_json,
)
from .errors import GroupingError, InputError, PartitionError, ShapeError, UnitarityError

# Default membership tolerance, relative to the element norm.
CONTAINS_RTOL = 1e-9
UNITARY_TOL = 1e-10
# Largest dimension whose canonical basis is built on demand; golden-ratio
# tower level 14 (196418) fits, level 15 (514229) does not.
BASIS_LIMIT = 2**18
# Largest dense basis, in complex entries (dimension * sum_k d_k^2, 16
# bytes each), that the Gram-projection oracle walks through: 128 MiB.
# It builds and drops one element at a time, so the limit bounds its
# work, not its memory.  Golden tower level 9 (6.7e6 entries) fits,
# level 10 (4.6e7) does not.
DENSE_BASIS_LIMIT = 2**23


@dataclass(frozen=True)
class RefinedPartition:
    """Ordered terms (block_size n_i, multiplicity m_i) with sum m_i * n_i = d,
    stored as ints; a non-integral term is refused with PartitionError."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        terms = tuple(
            (
                n if type(n) is int else linalg.checked_number(n, PartitionError),
                m if type(m) is int else linalg.checked_number(m, PartitionError),
            )
            for n, m in self.terms
        )
        if not terms:
            raise PartitionError("a refined partition needs at least one term")
        if any(n < 1 or m < 1 for n, m in terms):
            raise PartitionError(f"block sizes and multiplicities must be >= 1: {terms}")
        object.__setattr__(self, "terms", terms)

    @property
    def total(self) -> int:
        return sum(n * m for n, m in self.terms)

    @property
    def num_slots(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class CanonicalBasisElement:
    """One canonical 0/1 basis matrix: group index g and block entry (p, q).

    ``support`` lists the absolute positions (k, i, j), all 1-based, that
    hold a 1.  Supports of distinct basis elements are disjoint.
    """

    group: int
    p: int
    q: int
    block_size: int
    support: tuple[tuple[int, int, int], ...]

    def element(self, shape: AlgebraShape) -> AlgebraElement:
        mats = [np.zeros((d, d)) for d in shape.dims]
        for k, i, j in self.support:
            mats[k - 1][i - 1, j - 1] = 1.0
        return AlgebraElement(shape, mats)


class WeightLayout(NamedTuple):
    """What one weight vector fixes on a standard subalgebra, for the
    block average, the induced norm and the constants: ``factors`` holds
    the per-summand factors w_k = v_k / d_k and ``dens`` the group
    denominators den_g = sum_blocks w_k.  Where the blocks sit, which no
    weight changes, is the subalgebra's ``slots``, ``runs`` and
    ``by_size``.
    """

    factors: tuple[float, ...]
    dens: tuple[float, ...]


class StandardSubalgebra:
    """A standard unital subalgebra of the algebra with the given shape.

    ``partitions`` has one :class:`RefinedPartition` per summand and
    ``groups`` partitions the set of slots (k, i), all indices 1-based
    (a non-integral index is refused with GroupingError).
    Construction validates the description and lays out the blocks:
    ``slots[k-1]`` holds one (row offset, n, m, group) row per slot of
    summand k, and ``runs[g]`` one (k, row offset, m) row per slot of
    group g + 1, in summand-major order: the slot's m copies sit at row
    offsets offset + j n, j < m.  Offsets and groups are 0-based, k is
    1-based.  The structural integers come from the same tables: ``r``
    is the lcm of the block counts of the summands, ``ell`` the lcm of
    the slot multiplicities and ``m`` the lcm of the block counts of the
    groups.  The data a weight fixes is built on first use
    (``weight_layout``); the groups by block size (``by_size``) and the
    canonical basis, which hold for every weight, on first access.
    """

    def __init__(self, shape: AlgebraShape, partitions, groups):
        self.shape = shape
        self.partitions = tuple(
            p if isinstance(p, RefinedPartition) else RefinedPartition(tuple(p))
            for p in partitions
        )
        if len(self.partitions) != shape.num_summands:
            raise PartitionError(
                f"expected {shape.num_summands} partitions, got {len(self.partitions)}"
            )
        for d, part in zip(shape.dims, self.partitions):
            if part.total != d:
                raise PartitionError(
                    f"partition {part.terms} does not tile summand dimension {d}"
                )
        self.groups = tuple(
            tuple(
                (
                    k if type(k) is int else linalg.checked_number(k, GroupingError),
                    i if type(i) is int else linalg.checked_number(i, GroupingError),
                )
                for k, i in g
            )
            for g in groups
        )
        self._block_layout()
        self._layout = (None, None)

    def _block_layout(self):
        """Check the grouping and set ``slots``, ``runs``, ``_group_sizes``
        and ``_counts[k-1, g]``, the number of blocks of group g + 1 in
        summand k (as float64), in one pass over the slots, then ``r``,
        ``ell`` and ``m`` from those tables."""
        group_of_slot = {}
        for gi, g in enumerate(self.groups):
            for slot in g:
                if slot in group_of_slot:
                    raise GroupingError(f"slot {slot} appears twice in the grouping")
                group_of_slot[slot] = gi
        slots, counts, sizes, runs = [], [], [0] * len(self.groups), [[] for _ in self.groups]
        for k, part in enumerate(self.partitions, start=1):
            rows, pos, row_counts = [], 0, [0] * len(self.groups)
            for i, (n, m) in enumerate(part.terms, start=1):
                gi = group_of_slot.pop((k, i), None)
                if gi is None:
                    raise GroupingError(f"slot {(k, i)} is not covered by any group")
                if runs[gi] and runs[gi][-1][0] == k:
                    raise GroupingError(
                        f"group {gi + 1} holds two slots of summand {k}; repeats inside "
                        "one summand must use the slot multiplicity instead"
                    )
                if sizes[gi] not in (0, n):
                    raise GroupingError(f"group {gi + 1} mixes block sizes {sizes[gi]} and {n}")
                rows.append((pos, n, m, gi))
                runs[gi].append((k, pos, m))
                row_counts[gi] += m
                sizes[gi] = n
                pos += n * m
            slots.append(tuple(rows))
            counts.append(row_counts)
        if group_of_slot:
            raise GroupingError(f"unknown slots {sorted(group_of_slot)}")
        if not all(runs):
            raise GroupingError("empty slot group")
        self.slots = tuple(slots)
        self.runs = tuple(tuple(r) for r in runs)
        self._group_sizes = tuple(sizes)
        self._counts = np.array(counts, dtype=np.float64)
        self.r = lcm(*map(sum, counts))
        self.ell = lcm(*(m for rows in slots for _, _, m, _ in rows))
        self.m = lcm(*map(sum, zip(*counts)))

    def denominators(self, w: np.ndarray) -> np.ndarray:
        """Per-group normalization sum_blocks w_k for per-summand weights w."""
        return w @ self._counts

    def weight_layout(self, weights: tuple) -> WeightLayout:
        """The :class:`WeightLayout` that per-summand weights v fix, for
        ``weights`` = v as a tuple.

        Built on the first call for a weight and kept on the subalgebra
        for the most recent weight only, so the cache holds one entry: a
        problem reuses one (subalgebra, weight) pair call after call, and
        a subalgebra that meets many weights keeps no more than one
        layout's memory.  Weights v = d (``shape.dims``) give every
        summand the factor v_k / d_k = 1, the unit weights of the
        entrywise-orthogonal projection.  The denominators are the
        ``denominators`` product, whose bits are those of the structural
        constants' gamma.
        """
        key, layout = self._layout
        if key != weights:
            # A list comprehension: a tower level builds one layout, and
            # a generator costs it about a microsecond more.
            factors = tuple([v / d for v, d in zip(weights, self.shape.dims)])
            dens = tuple(self.denominators(np.array(factors)).tolist())
            layout = WeightLayout(factors, dens)
            self._layout = (weights, layout)
        return layout

    def block_average(self, weights: tuple, summands) -> list[np.ndarray]:
        """Weighted block average of one element onto the subalgebra.

        ``summands`` holds one d_k x d_k matrix per summand, and the
        factors w_k come from ``weights`` (``weight_layout``): with a
        tracial weight's v_k, w_k = v_k/d_k gives the conditional
        expectation, with v = d the entrywise-orthogonal projection.  A
        group's runs are summed in summand-major order; a run of one copy
        is read as a plain slice, with no copy axis to sum.
        """
        w, dens = self.weight_layout(weights)
        out = [np.zeros((d, d), dtype=np.complex128) for d in self.shape.dims]
        for runs, n, den in zip(self.runs, self._group_sizes, dens):
            avg = 0
            for k, off, m in runs:
                if m == 1:
                    avg = avg + w[k - 1] * summands[k - 1][off : off + n, off : off + n]
                else:
                    avg = avg + _copy_sum(w[k - 1] * _run_blocks(summands[k - 1], off, n, m))
            avg = avg / den
            for k, off, m in runs:
                _run_blocks(out[k - 1], off, n, m)[...] = avg
        return out

    def induced_opnorms_sq(self, weights: tuple, summands) -> np.ndarray:
        """||P(A* A)||_op for a stack of elements A, given as one (nb, d_k,
        d_k) array per summand, with weights as for ``block_average``.

        Every block of group g in P(A* A) holds X_g = sum_blocks w_k
        A_k[:, I]* A_k[:, I] / den_g, I the block's columns, so the norm
        is max_g lambda_max(X_g), read from A's column blocks alone (a
        run of one copy as a plain slice, as in ``block_average``); the
        X_g of one block size are written into one stack, which goes to
        the spectral core ``linalg._spectrum`` as it is, and a size with
        one group needs no reduce over groups.

        An element whose peak entry lies outside the Gram range is first
        divided by 2**e (``linalg._gram_range``, which refuses an entry
        whose modulus overflows), and its square multiplied back by
        2**(2e); a square beyond the float range is refused with
        ValueError.  The summands are then finite with entries at most
        GRAM_SAFE_ENTRY = 1e150, so no X_g overflows: for a tracial
        weight, whose factors w_k are normal floats at most 1, X_g is a
        weighted average of column Grams, whose entries are at most
        d 1e300 for a summand of dimension d.  That is finite for d <
        1.7e8, and a summand that wide cannot be built.  A spectrum
        beyond the float range, from d n of about 1.8e8, is still refused
        by the core.
        """
        summands, exp = linalg._gram_range(summands, "squared induced norm")
        w, dens = self.weight_layout(weights)
        nb, top = len(summands[0]), 0.0
        for n, groups in self.by_size:
            xs = np.empty((len(groups), nb, n, n), dtype=np.complex128)
            for x_g, (g, runs) in zip(xs, groups):
                x = 0
                for k, off, m in runs:
                    if m == 1:
                        cols = summands[k - 1][..., off : off + n]
                        x = x + w[k - 1] * (linalg.adjoint(cols) @ cols)
                    else:
                        cols = _run_blocks(summands[k - 1], off, n, m, diagonal=False)
                        x = x + _copy_sum(w[k - 1] * (linalg.adjoint(cols) @ cols))
                np.divide(x, dens[g], out=x_g)
            norms = np.abs(linalg._spectrum(xs.reshape(-1, n, n))).max(axis=1, initial=0.0)
            if len(groups) > 1:
                norms = np.maximum.reduce(norms.reshape(len(groups), nb))
            top = np.maximum(top, norms)
        if exp is None:
            return top
        return linalg._scale_norms_back(top, 2 * exp, "squared induced norm")

    @cached_property
    def by_size(self) -> tuple:
        """One (n, ((g, runs), ...)) row per block size n, in increasing n,
        with the 0-based groups g of that size in group order and their
        ``runs``: the stacks of the induced norm.  Built on first access,
        which only ``induced_opnorms_sq`` makes; it holds for every
        weight."""
        sizes = {n: [] for n in sorted(set(self._group_sizes))}
        for g, (n, runs) in enumerate(zip(self._group_sizes, self.runs)):
            sizes[n].append((g, runs))
        return tuple((n, tuple(groups)) for n, groups in sizes.items())

    @cached_property
    def basis(self) -> tuple[CanonicalBasisElement, ...]:
        """Canonical 0/1 basis, group-major then row-major in (p, q).

        Built on first access: it holds sum n_g^2 Python objects, which
        nothing but the Gram-projection oracle needs.  Refused with
        InputError above BASIS_LIMIT elements.
        """
        if self.dimension > BASIS_LIMIT:
            raise InputError(
                f"subalgebra dimension {self.dimension} exceeds BASIS_LIMIT "
                f"{BASIS_LIMIT}; its canonical basis is not built"
            )
        return tuple(
            CanonicalBasisElement(gi + 1, p, q, n, tuple((k, c + p, c + q) for k, c in copies))
            for gi, (runs, n) in enumerate(zip(self.runs, self._group_sizes))
            for copies in [[(k, c) for k, off, m in runs for c in range(off, off + m * n, n)]]
            for p in range(1, n + 1)
            for q in range(1, n + 1)
        )

    def dense_basis(self) -> Iterator[AlgebraElement]:
        """The canonical basis as dense elements, for the Gram oracle,
        built one element at a time as the iterator is read; none is kept.

        Refused with InputError, before the basis is built, when it would
        hold more than DENSE_BASIS_LIMIT complex entries.
        """
        entries = self.dimension * sum(d * d for d in self.shape.dims)
        if entries > DENSE_BASIS_LIMIT:
            raise InputError(
                f"dense basis of {entries} entries exceeds DENSE_BASIS_LIMIT "
                f"{DENSE_BASIS_LIMIT}"
            )
        return (e.element(self.shape) for e in self.basis)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def group_block_size(self, g: int) -> int:
        """Common block size of group g (1-based)."""
        return self._group_sizes[g - 1]

    @property
    def dimension(self) -> int:
        """Linear dimension of the subalgebra: sum of n_g^2."""
        return sum(n * n for n in self._group_sizes)

    @property
    def trivially_grouped(self) -> bool:
        """True when every slot is its own group (no identifications)."""
        return all(len(g) == 1 for g in self.groups)

    def __repr__(self):
        return (
            f"StandardSubalgebra(shape={self.shape.dims}, "
            f"partitions={[p.terms for p in self.partitions]}, groups={self.groups})"
        )


def _run_blocks(x: np.ndarray, off: int, n: int, m: int, diagonal: bool = True) -> np.ndarray:
    """The m copies of a run at offset ``off`` in x's last two axes as one
    (..., m, h, n) view, writable if x is: copy j has columns off + j n up
    to off + (j + 1) n and the same rows (h = n), or all rows (h = d) if
    not ``diagonal``.  A single copy (m = 1) is a plain slice; otherwise an
    x that is not C-contiguous is read from a copy."""
    if m == 1:
        rows = slice(off, off + n) if diagonal else slice(None)
        return x[..., None, rows, off : off + n]
    x = np.ascontiguousarray(x)
    sr, sc = x.strides[-2:]
    h, top, step = (n, off, n * sr) if diagonal else (x.shape[-2], 0, 0)
    shape, strides = x.shape[:-2] + (m, h, n), x.strides[:-2] + (step + n * sc, sr, sc)
    return np.ndarray(shape, x.dtype, x, top * sr + off * sc, strides)


def _copy_sum(blocks: np.ndarray) -> np.ndarray:
    """Sum of a (..., m, h, n) stack of a run's copies over the copy axis,
    by ``np.add.reduce``; a single copy (m = 1) is read by index.  The
    two differ only in the sign of a zero, which the callers' running
    sums, started at 0, normalize either way.  The kernels read a run of
    one copy as a plain slice and do not pass one here."""
    return blocks[..., 0, :, :] if blocks.shape[-3] == 1 else np.add.reduce(blocks, axis=-3)


def make_standard_subalgebra(shape, partitions, groups) -> StandardSubalgebra:
    """Build and validate a standard subalgebra description."""
    if not isinstance(shape, AlgebraShape):
        shape = AlgebraShape(tuple(shape))
    return StandardSubalgebra(shape, partitions, groups)


def single_summand_subalgebra(d: int, terms) -> StandardSubalgebra:
    """B_lambda inside M_d: one summand, one group per slot."""
    part = RefinedPartition(tuple(terms))
    groups = [((1, i),) for i in range(1, part.num_slots + 1)]
    return make_standard_subalgebra((d,), [part], groups)


def canonical_basis(b) -> tuple[CanonicalBasisElement, ...]:
    """Canonical 0/1 basis, group-major then row-major in (p, q).  A
    conjugate is refused with InputError: 0/1 supports cannot describe
    the conjugated basis U e U*."""
    b, u = standard_form(b)
    if u is not None:
        raise InputError("a conjugated subalgebra has no canonical 0/1 basis")
    return b.basis


def embed(b, assignment) -> AlgebraElement:
    """Realize one matrix per group as an element of the ambient algebra.

    ``assignment`` lists one n_g x n_g matrix per group, in group order.
    On a conjugate U B U* the result is U embed(B, assignment) U*.
    """
    b, u = standard_form(b)
    assignment = [linalg.as_matrix(m) for m in assignment]
    if len(assignment) != b.num_groups:
        raise ShapeError(
            f"expected {b.num_groups} group matrices, got {len(assignment)}"
        )
    mats = [np.zeros((d, d), dtype=np.complex128) for d in b.shape.dims]
    for gi, (runs, n, x) in enumerate(zip(b.runs, b._group_sizes, assignment)):
        if x.shape != (n, n):
            raise ShapeError(f"group {gi + 1} expects a {n}x{n} matrix, got {x.shape}")
        for k, off, m in runs:
            _run_blocks(mats[k - 1], off, n, m)[...] = x
    e = AlgebraElement(b.shape, mats)
    return e if u is None else u @ e @ u.adjoint()


def contains(b, a, tol: float | None = None) -> bool:
    """Membership test: distance from a to span(basis) within tol.

    The entrywise-orthogonal projection onto span(basis) is the block
    average with unit weights (weights v = d).  The default tolerance is
    CONTAINS_RTOL times the element norm.  For a conjugated subalgebra
    the element is transported back first.
    """
    b, u = standard_form(b, a)
    if u is not None:
        a = u.adjoint() @ a @ u
    if tol is None:
        tol = CONTAINS_RTOL * element_norm(a)
    nearest = b.block_average(b.shape.dims, a.summands)
    return element_norm(a - AlgebraElement(b.shape, nearest)) <= tol


@dataclass(frozen=True)
class ConjugatedSubalgebra:
    """U B U* for a standard subalgebra B and a unitary element U.

    Operations on the conjugate read B and U from ``standard_form`` and
    transport their elements through U.
    """

    base: StandardSubalgebra
    unitary: AlgebraElement

    @property
    def shape(self) -> AlgebraShape:
        return self.base.shape


def standard_form(b, *objects) -> tuple[StandardSubalgebra, AlgebraElement | None]:
    """The standard base B of b and the unitary U with b = U B U*, or None
    when b is standard; any weight, element or unitary in ``objects`` whose
    shape is not b's is refused with ShapeError.  The one place that tells
    a conjugate from a standard subalgebra."""
    for x in objects:
        if x.shape.dims != b.shape.dims:
            raise ShapeError(
                f"{type(x).__name__} shape {list(x.shape.dims)} does not match "
                f"subalgebra shape {list(b.shape.dims)}"
            )
    if isinstance(b, ConjugatedSubalgebra):
        return b.base, b.unitary
    return b, None


def conjugated_subalgebra(b, u: AlgebraElement) -> ConjugatedSubalgebra:
    """Validate U and return the conjugated-subalgebra handle.

    Conjugating an already conjugated subalgebra composes the unitaries,
    so the result always carries a standard base.
    """
    base, inner = standard_form(b, u)
    for m in u.summands:
        dev = np.abs(linalg.adjoint(m) @ m - np.eye(m.shape[0])).max(initial=0.0)
        if dev > UNITARY_TOL:
            raise UnitarityError(f"matrix is not unitary: deviation {dev:.3e}")
    return ConjugatedSubalgebra(base, u if inner is None else u @ inner)


def subalgebra_to_json(b) -> dict:
    """Wire form of a standard subalgebra; a conjugate adds its unitary
    under the ``"unitary"`` key, in the element encoding."""
    base, u = standard_form(b)
    out = {
        "shape": list(base.shape.dims),
        "partitions": [[[n, m] for n, m in p.terms] for p in base.partitions],
        "groups": [[[k, i] for k, i in g] for g in base.groups],
    }
    if u is not None:
        out["unitary"] = element_to_json(u)
    return out


def subalgebra_from_json(obj):
    """Decode :func:`subalgebra_to_json` output.

    With a ``"unitary"`` key the result is the conjugate U B U*; U must be
    unitary and match the shape.
    """
    if not isinstance(obj, dict):
        raise ShapeError("subalgebra object must be a JSON mapping")
    count = partial(linalg.checked_number, error=ShapeError)
    try:
        shape = AlgebraShape(tuple(count(d) for d in obj["shape"]))
        partitions = [
            RefinedPartition(tuple((count(n), count(m)) for n, m in terms))
            for terms in obj["partitions"]
        ]
        groups = [tuple((count(k), count(i)) for k, i in g) for g in obj["groups"]]
    except KeyError as exc:
        raise ShapeError(f"subalgebra object missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"malformed subalgebra object: {exc}") from exc
    base = StandardSubalgebra(shape, partitions, groups)
    if "unitary" not in obj:
        return base
    return conjugated_subalgebra(base, element_from_json(obj["unitary"]))
