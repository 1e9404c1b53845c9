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
each group's diagonal blocks sit: ``StandardSubalgebra.occurrences``
lists them per group, and the conditional expectation, the embedding,
the structural constants and the membership test all read that list.
The canonical basis, one 0/1 matrix per group and block entry (p, q),
is built only when it is asked for; supports of distinct basis elements
are disjoint, which makes them orthogonal for every tracial inner
product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
# Largest dimension whose canonical basis or support counts are built on
# demand; golden-ratio tower level 14 (196418) fits, level 15 (514229)
# does not.
BASIS_LIMIT = 2**18
# Largest dense basis, in complex entries (dimension * sum_k d_k^2, 16
# bytes each), that the Gram-projection oracle builds: 128 MiB.  Golden
# tower level 9 (6.7e6 entries) fits, level 10 (4.6e7) does not.
DENSE_BASIS_LIMIT = 2**23


@dataclass(frozen=True)
class RefinedPartition:
    """Ordered terms (block_size n_i, multiplicity m_i) with sum m_i * n_i = d."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        terms = tuple((int(n), int(m)) for n, m in self.terms)
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

    @property
    def num_blocks(self) -> int:
        """r_k: number of diagonal blocks, counting multiplicity."""
        return sum(m for _, m in self.terms)

    def slot_offset(self, i: int) -> int:
        """0-based row offset of slot i (1-based) inside the summand."""
        return sum(n * m for n, m in self.terms[: i - 1])


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


class StandardSubalgebra:
    """A standard unital subalgebra of the algebra with the given shape.

    ``partitions`` has one :class:`RefinedPartition` per summand and
    ``groups`` partitions the set of slots (k, i), all indices 1-based.
    Construction validates the description and lists where each group's
    diagonal blocks sit: ``occurrences[g]`` holds one (k, offset) pair per
    block of group g + 1, with k the 1-based summand and offset the
    0-based row offset, in summand-major then offset order.  The
    canonical basis is built on first access.
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
        self.groups = tuple(tuple((int(k), int(i)) for k, i in g) for g in groups)
        self._validate_groups()
        self._group_sizes = tuple(
            self.partitions[g[0][0] - 1].terms[g[0][1] - 1][0] for g in self.groups
        )
        self._block_layout()

    def _validate_groups(self):
        all_slots = {
            (k, i)
            for k in range(1, self.shape.num_summands + 1)
            for i in range(1, self.partitions[k - 1].num_slots + 1)
        }
        seen = set()
        for g in self.groups:
            if not g:
                raise GroupingError("empty slot group")
            summands_in_group = set()
            sizes = set()
            for k, i in g:
                if (k, i) not in all_slots:
                    raise GroupingError(f"unknown slot {(k, i)}")
                if (k, i) in seen:
                    raise GroupingError(f"slot {(k, i)} appears in two groups")
                seen.add((k, i))
                if k in summands_in_group:
                    raise GroupingError(
                        f"group {g} holds two slots of summand {k}; repeats inside "
                        "one summand must use the slot multiplicity instead"
                    )
                summands_in_group.add(k)
                sizes.add(self.partitions[k - 1].terms[i - 1][0])
            if len(sizes) != 1:
                raise GroupingError(f"group {g} mixes block sizes {sorted(sizes)}")
        missing = all_slots - seen
        if missing:
            raise GroupingError(f"slots not covered by any group: {sorted(missing)}")

    def _block_layout(self):
        """Set ``occurrences`` and ``_counts[k-1, g]``, the number of
        blocks of group g + 1 in summand k."""
        group_of_slot = {slot: gi for gi, g in enumerate(self.groups) for slot in g}
        occ: list[list[tuple[int, int]]] = [[] for _ in self.groups]
        counts = np.zeros((self.shape.num_summands, len(self.groups)), dtype=np.int64)
        for k, part in enumerate(self.partitions, start=1):
            pos = 0
            for i, (n, m) in enumerate(part.terms, start=1):
                gi = group_of_slot[(k, i)]
                for _ in range(m):
                    occ[gi].append((k, pos))
                    pos += n
                counts[k - 1, gi] += m
        self.occurrences = tuple(tuple(o) for o in occ)
        self._counts = counts

    @cached_property
    def basis(self) -> tuple[CanonicalBasisElement, ...]:
        """Canonical 0/1 basis, group-major then row-major in (p, q).

        Built on first access: it holds sum n_g^2 Python objects, which
        nothing but the Gram-projection oracle needs.  Refused with
        InputError above BASIS_LIMIT elements.
        """
        self._check_basis_limit()
        return tuple(
            CanonicalBasisElement(
                gi + 1, p, q, n, tuple((k, off + p, off + q) for k, off in occ)
            )
            for gi, (occ, n) in enumerate(zip(self.occurrences, self._group_sizes))
            for p in range(1, n + 1)
            for q in range(1, n + 1)
        )

    @cached_property
    def dense_basis(self) -> tuple[AlgebraElement, ...]:
        """The canonical basis as dense elements, for the Gram oracle.

        Refused with InputError, before the basis is built, when it would
        hold more than DENSE_BASIS_LIMIT complex entries.
        """
        entries = self.dimension * sum(d * d for d in self.shape.dims)
        if entries > DENSE_BASIS_LIMIT:
            raise InputError(
                f"dense basis of {entries} entries exceeds DENSE_BASIS_LIMIT "
                f"{DENSE_BASIS_LIMIT}"
            )
        return tuple(e.element(self.shape) for e in self.basis)

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

    def _check_basis_limit(self):
        if self.dimension > BASIS_LIMIT:
            raise InputError(
                f"subalgebra dimension {self.dimension} exceeds BASIS_LIMIT "
                f"{BASIS_LIMIT}; its canonical basis is not built"
            )

    @property
    def trivially_grouped(self) -> bool:
        """True when every slot is its own group (no identifications)."""
        return all(len(g) == 1 for g in self.groups)

    def support_counts(self) -> np.ndarray:
        """rho[k-1, b]: support entries of basis element b in summand k.

        Every entry of a group's block is supported once per diagonal
        block of the group, so this repeats the per-group block counts
        n_g^2 times; it has one column per basis element.  Refused with
        InputError above BASIS_LIMIT columns.
        """
        self._check_basis_limit()
        return np.repeat(self._counts, np.square(self._group_sizes), axis=1)

    def __repr__(self):
        return (
            f"StandardSubalgebra(shape={self.shape.dims}, "
            f"partitions={[p.terms for p in self.partitions]}, groups={self.groups})"
        )


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


def canonical_basis(b: StandardSubalgebra) -> tuple[CanonicalBasisElement, ...]:
    """Canonical 0/1 basis, group-major then row-major in (p, q)."""
    return b.basis


def embed(b: StandardSubalgebra, assignment) -> AlgebraElement:
    """Realize one matrix per group as an element of the ambient algebra.

    ``assignment`` lists one n_g x n_g matrix per group, in group order.
    """
    assignment = [linalg.as_matrix(m) for m in assignment]
    if len(assignment) != b.num_groups:
        raise ShapeError(
            f"expected {b.num_groups} group matrices, got {len(assignment)}"
        )
    mats = [np.zeros((d, d), dtype=np.complex128) for d in b.shape.dims]
    for gi, (occ, x) in enumerate(zip(b.occurrences, assignment)):
        n = b._group_sizes[gi]
        if x.shape != (n, n):
            raise ShapeError(
                f"group {gi + 1} expects a {n}x{n} matrix, got {x.shape}"
            )
        for k, off in occ:
            mats[k - 1][off : off + n, off : off + n] = x
    return AlgebraElement(b.shape, mats)


def contains(b: StandardSubalgebra, a, tol: float | None = None) -> bool:
    """Membership test: distance from a to span(basis) within tol.

    The entrywise-orthogonal projection onto span(basis) is the block
    average with unit weights.  The default tolerance is CONTAINS_RTOL
    times the element norm.  For a conjugated subalgebra the element is
    transported back first.
    """
    if isinstance(b, ConjugatedSubalgebra):
        return contains(b.base, b.unitary.adjoint() @ a @ b.unitary, tol)
    from .expectation import _block_average

    if a.shape.dims != b.shape.dims:
        raise ShapeError("element shape does not match subalgebra shape")
    if tol is None:
        tol = CONTAINS_RTOL * element_norm(a)
    nearest = _block_average(b, np.ones(b.shape.num_summands), a.summands)
    return element_norm(a - AlgebraElement(b.shape, nearest)) <= tol


@dataclass(frozen=True)
class ConjugatedSubalgebra:
    """U B U* for a standard subalgebra B and a unitary element U.

    All norm and expectation computations on the conjugate are evaluated
    by transport through U.
    """

    base: StandardSubalgebra
    unitary: AlgebraElement

    @property
    def shape(self) -> AlgebraShape:
        return self.base.shape


def conjugated_subalgebra(b, u: AlgebraElement) -> ConjugatedSubalgebra:
    """Validate U and return the conjugated-subalgebra handle.

    Conjugating an already conjugated subalgebra composes the unitaries,
    so the result always carries a standard base.
    """
    if u.shape.dims != b.shape.dims:
        raise ShapeError("unitary shape does not match subalgebra shape")
    for m in u.summands:
        dev = np.abs(linalg.adjoint(m) @ m - np.eye(m.shape[0])).max(initial=0.0)
        if dev > UNITARY_TOL:
            raise UnitarityError(f"matrix is not unitary: deviation {dev:.3e}")
    if isinstance(b, ConjugatedSubalgebra):
        return ConjugatedSubalgebra(b.base, u @ b.unitary)
    return ConjugatedSubalgebra(b, u)


def subalgebra_to_json(b) -> dict:
    """Wire form of a standard subalgebra; a conjugate adds its unitary
    under the ``"unitary"`` key, in the element encoding."""
    base = b.base if isinstance(b, ConjugatedSubalgebra) else b
    out = {
        "shape": list(base.shape.dims),
        "partitions": [[[n, m] for n, m in p.terms] for p in base.partitions],
        "groups": [[[k, i] for k, i in g] for g in base.groups],
    }
    if isinstance(b, ConjugatedSubalgebra):
        out["unitary"] = element_to_json(b.unitary)
    return out


def subalgebra_from_json(obj):
    """Decode :func:`subalgebra_to_json` output.

    With a ``"unitary"`` key the result is the conjugate U B U*; U must be
    unitary and match the shape.
    """
    if not isinstance(obj, dict):
        raise ShapeError("subalgebra object must be a JSON mapping")
    try:
        shape = AlgebraShape(tuple(int(d) for d in obj["shape"]))
        partitions = [
            RefinedPartition(tuple((int(n), int(m)) for n, m in terms))
            for terms in obj["partitions"]
        ]
        groups = [tuple((int(k), int(i)) for k, i in g) for g in obj["groups"]]
    except KeyError as exc:
        raise ShapeError(f"subalgebra object missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"malformed subalgebra object: {exc}") from exc
    base = StandardSubalgebra(shape, partitions, groups)
    if "unitary" not in obj:
        return base
    return conjugated_subalgebra(base, element_from_json(obj["unitary"]))
