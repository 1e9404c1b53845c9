"""Equivalence constants between induced and operator norms.

``theoretical_bound`` returns the best certified constant c with
``c * ||A||_op <= ||A||_{v,B} <= ||A||_op`` for the given subalgebra and
weight, and ``sharp_constant`` the largest such c in closed form.
``empirical_sharp_constant`` searches the unit vectors of each summand
for the smallest ratio, which the rank-one theorem says is the sharp
constant, and so serves as its randomized oracle.  ``table1`` evaluates
the certified and empirical constants over the reference list of proper
unital subalgebra types of M_n for n <= 5 and flags any row whose
recomputed constant deviates from the stored reference value.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import linalg
from .algebra import AlgebraElement, AlgebraShape, TracialWeight
from .expectation import _expected_opnorms, _weighted_denominators, fr_norm
from .subalgebra import ConjugatedSubalgebra, StandardSubalgebra, single_summand_subalgebra

REFINE_ROUNDS = 200
REFINE_INITIAL_STEP = 0.1
REFINE_FAIL_LIMIT = 5
REFINE_DIRECTIONS = 16
# Complex entries per sampling chunk.  A sampled vector carries a d_k x d_k
# matrix for every summand, so a chunk holds _CHUNK_ENTRIES // sum_k d_k^2
# vectors: 20000 whenever sum_k d_k^2 <= 32, fewer for larger shapes.
_CHUNK_ENTRIES = 20000 * 32


@dataclass(frozen=True)
class StructuralConstants:
    """Combinatorial data entering the equivalence-constant bounds.

    L: slot count; r: lcm of per-summand block counts; ell: lcm of slot
    multiplicities; m: lcm of group occurrence counts; alpha: min
    v_k/d_k; gamma: largest expectation denominator.  ``bound`` is the
    certified constant and ``theorem`` names the structural case that
    produced it.
    """

    L: int
    r: int
    ell: int
    m: int
    alpha: float
    gamma: float
    bound: float
    theorem: str


def structural_constants(b, v: TracialWeight) -> StructuralConstants:
    """Structural invariants and the certified lower constant for (b, v)."""
    if isinstance(b, ConjugatedSubalgebra):
        # Equivalence constants are invariant under unitary conjugation.
        return structural_constants(b.base, v)
    L = sum(p.num_slots for p in b.partitions)
    r = lcm(*(p.num_blocks for p in b.partitions))
    ell = lcm(*(m for p in b.partitions for _, m in p.terms))
    m = lcm(*(len(o) for o in b.occurrences))
    w = v.per_trace_factors()
    alpha = float(np.min(w))
    gamma = float(np.max(_weighted_denominators(b, w)))
    if b.trivially_grouped:
        if b.shape.num_summands == 1 and all(
            mult == 1 for p in b.partitions for _, mult in p.terms
        ):
            theorem = "multiplicity-free"
            bound = 1.0 / np.sqrt(L)
        else:
            theorem = "single-summand" if b.shape.num_summands == 1 else "direct-sum"
            bound = 1.0 / np.sqrt(r * ell)
    else:
        theorem = "cross-summand"
        bound = float(np.sqrt(alpha / (r * ell * m * gamma)))
    return StructuralConstants(L, r, ell, m, alpha, gamma, float(bound), theorem)


def theoretical_bound(b, v: TracialWeight) -> tuple[float, str]:
    """Certified constant c and the structural case it comes from."""
    sc = structural_constants(b, v)
    return sc.bound, sc.theorem


def sharp_constant(b, v: TracialWeight) -> float:
    """The sharp constant: the minimum of ||A||_{v,B} / ||A||_op.

    By the rank-one theorem (see ``empirical_sharp_constant``) the
    minimum is sqrt(||P(xx*)||_op) over unit vectors x in one summand k.
    Slot i of k, with block size n_i and multiplicity m_i, cuts x into
    m_i pieces of length n_i, the columns of an n_i x m_i matrix X_i.
    A group holds at most one slot of k, so the closed form of P gives
    the block (w_k / den_g(i)) X_i X_i* for group g(i), with
    w_k = v_k / d_k and den_g the group's weighted block count.  Hence

        ||P(xx*)||_op = max_i (w_k / den_g(i)) ||X_i||_op^2,

    and ||X_i||_op^2 >= ||X_i||_F^2 / min(n_i, m_i), with equality when
    the nonzero singular values of X_i are equal.  Minimizing the
    maximum subject to sum_i ||X_i||_F^2 = 1 makes all terms equal:

        sharp^2 = min_k w_k / sum_{slots i of k} den_g(i) * min(n_i, m_i).

    With a single summand this is 1 / sum_i m_i * min(n_i, m_i).
    Invariant under conjugation: it reads the base of a conjugate.
    """
    if isinstance(b, ConjugatedSubalgebra):
        b = b.base
    w = v.per_trace_factors()
    den = _weighted_denominators(b, w)
    group_of = {slot: gi for gi, g in enumerate(b.groups) for slot in g}
    sq = min(
        w[k - 1] / sum(
            den[group_of[(k, i)]] * min(n, m) for i, (n, m) in enumerate(part.terms, start=1)
        )
        for k, part in enumerate(b.partitions, start=1)
    )
    return float(np.sqrt(sq))


class _RatioEvaluator:
    """Batched evaluation of fr_norm(A)^2 and ||A||_op over sample stacks."""

    def __init__(self, b: StandardSubalgebra, v: TracialWeight):
        self.b = b
        self.dims = b.shape.dims
        self.w = v.per_trace_factors()

    def opnorms(self, stacks) -> np.ndarray:
        return np.max([linalg.opnorm_batch(s) for s in stacks], axis=0)

    def fr_norms_sq(self, stacks) -> np.ndarray:
        """Squared induced norms for a stack of elements (one array per
        summand, shapes (nb, d_k, d_k))."""
        grams = [np.conj(np.swapaxes(s, 1, 2)) @ s for s in stacks]
        return _expected_opnorms(self.b, self.w, grams)

    def rank_one_ratios(self, k: int, vecs: np.ndarray) -> np.ndarray:
        """Ratios of the projections xx* onto the unit rows x of ``vecs``,
        placed in summand k: sqrt(||P(xx*)||_op), as ||xx*||_op = 1.  A
        projection is its own square, so xx* goes in without a Gram step."""
        stacks = [np.zeros((len(vecs), d, d), dtype=np.complex128) for d in self.dims]
        stacks[k] = vecs[:, :, None] * np.conj(vecs[:, None, :])
        return np.sqrt(_expected_opnorms(self.b, self.w, stacks))


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the empirical sharp-constant search."""

    best_ratio: float
    witness: AlgebraElement
    samples: int
    seed: int
    refine_steps: int


def _complex_gaussian(rng, shape) -> np.ndarray:
    """Complex Gaussian array of the given shape: real parts, then
    imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _gaussian_stacks(rng, dims, count):
    """``count`` complex Gaussian matrices per summand, one (count, d, d)
    array per dimension in ``dims``, summand by summand.  A count of 1
    draws the same stream as a single (d, d) draw."""
    return [_complex_gaussian(rng, (count, d, d)) for d in dims]


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _refine(evaluator, k, x, best, rng):
    """Random-direction descent on the unit sphere of summand k.

    Each round moves the unit vector x along 2 * REFINE_DIRECTIONS
    Gaussian directions, half at scale ``step`` and half at ``step / 4``,
    renormalizes, and keeps the best candidate if it lowers the ratio;
    the step halves after REFINE_FAIL_LIMIT consecutive failing rounds.
    """
    step = REFINE_INITIAL_STEP
    fails = 0
    accepted = 0
    ndir = REFINE_DIRECTIONS
    for _ in range(REFINE_ROUNDS):
        g = _complex_gaussian(rng, (2 * ndir, x.size))
        g[:ndir] *= step
        g[ndir:] *= 0.25 * step
        cands = _unit_rows(x + g)
        ratios = evaluator.rank_one_ratios(k, cands)
        pick = int(np.argmin(ratios))
        if ratios[pick] < best:
            best = float(ratios[pick])
            x = cands[pick]
            accepted += 1
            fails = 0
        else:
            fails += 1
            if fails >= REFINE_FAIL_LIMIT:
                step *= 0.5
                fails = 0
    return best, x, accepted


def empirical_sharp_constant(
    b,
    v: TracialWeight,
    samples: int = 100000,
    seed: int = 0,
    refine: bool = True,
) -> SearchReport:
    """Randomized search for the smallest fr_norm / op_norm ratio.

    The minimum is attained on a rank-one projection xx*, x a unit
    vector in one summand.  For any A, A*A dominates t xx* for its top
    eigenpair (t, x), with t = ||A||_op^2; A*A is block diagonal, so x
    can be taken inside the summand where ||A||_op is attained.
    Conditional expectations are positive, so ||P(A*A)||_op >=
    t ||P(xx*)||_op, and the ratio of A is at least the ratio of xx*,
    which is sqrt(||P(xx*)||_op).

    The search therefore draws ``samples`` complex Gaussian unit vectors
    per summand from one generator seeded by ``seed`` and scores the
    projection onto each.  Refinement then runs random-direction descent
    on the sphere of the best vector; its draws follow the sampling
    draws, so the sampling result does not depend on ``refine``.  The
    witness is the rank-one projection xx*.
    """
    if isinstance(b, ConjugatedSubalgebra):
        # The ratio spectrum is invariant under conjugation; search the base.
        b = b.base
    if samples < 1:
        raise ValueError("samples must be >= 1")
    evaluator = _RatioEvaluator(b, v)
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_ENTRIES // sum(d * d for d in b.shape.dims))
    best = np.inf
    for k, d in enumerate(b.shape.dims):
        done = 0
        while done < samples:
            count = min(chunk, samples - done)
            vecs = _unit_rows(_complex_gaussian(rng, (count, d)))
            ratios = evaluator.rank_one_ratios(k, vecs)
            pick = int(np.argmin(ratios))
            if ratios[pick] < best:
                best = float(ratios[pick])
                best_k, x = k, vecs[pick]
            done += count
    refine_steps = 0
    if refine:
        best, x, refine_steps = _refine(evaluator, best_k, x, best, rng)
    witness = [np.zeros((d, d), dtype=np.complex128) for d in b.shape.dims]
    witness[best_k] = np.outer(x, np.conj(x))
    return SearchReport(
        best_ratio=best,
        witness=AlgebraElement(b.shape, witness),
        samples=samples,
        seed=seed,
        refine_steps=refine_steps,
    )


# Reference table: proper unital subalgebra types of M_n, n <= 5.  Each
# entry stores the partition terms and the reference constants as
# inverse squares: a value of k means 1/sqrt(k).
TABLE1_SPECS: tuple[tuple[str, int, tuple[tuple[int, int], ...], int, int], ...] = (
    ("B^3_{2,1}", 3, ((2, 1), (1, 1)), 2, 2),
    ("B^3_{1^2,1}", 3, ((1, 2), (1, 1)), 3, 6),
    ("B^4_{2,2}", 4, ((2, 1), (2, 1)), 2, 2),
    ("B^4_{2^2}", 4, ((2, 2),), 4, 4),
    ("B^4_{2,1,1}", 4, ((2, 1), (1, 1), (1, 1)), 3, 3),
    ("B^4_{2,1^2}", 4, ((2, 1), (1, 2)), 3, 6),
    ("B^4_{1^3,1}", 4, ((1, 3), (1, 1)), 4, 12),
    ("B^4_{1^2,1,1}", 4, ((1, 2), (1, 1), (1, 1)), 4, 8),
    ("B^5_{3,2}", 5, ((3, 1), (2, 1)), 2, 2),
    ("B^5_{2,2,1}", 5, ((2, 1), (2, 1), (1, 1)), 3, 3),
    ("B^5_{2^2,1}", 5, ((2, 2), (1, 1)), 4, 6),
    ("B^5_{3,1,1}", 5, ((3, 1), (1, 1), (1, 1)), 3, 3),
    ("B^5_{3,1^2}", 5, ((3, 1), (1, 2)), 3, 6),
    ("B^5_{2,1,1,1}", 5, ((2, 1), (1, 1), (1, 1), (1, 1)), 4, 3),
    ("B^5_{2,1^3}", 5, ((2, 1), (1, 3)), 4, 12),
    ("B^5_{2,1^2,1}", 5, ((2, 1), (1, 2), (1, 1)), 4, 8),
)


@dataclass(frozen=True)
class Table1Row:
    label: str
    dim: int
    terms: tuple[tuple[int, int], ...]
    theoretical: float
    theorem: str
    empirical: float | None
    reference_guess: float
    reference_theoretical: float
    flagged: bool


def table1_subalgebra(label: str) -> tuple[StandardSubalgebra, TracialWeight]:
    """The (subalgebra, weight) pair behind a reference-table label."""
    for lab, dim, terms, _, _ in TABLE1_SPECS:
        if lab == label:
            b = single_summand_subalgebra(dim, terms)
            return b, TracialWeight(AlgebraShape((dim,)), (1.0,))
    raise KeyError(f"unknown table label {label!r}")


def table1(
    samples: int = 0,
    seed: int = 0,
    refine: bool = True,
) -> list[Table1Row]:
    """Recompute the reference constant table, optionally with search.

    ``samples = 0`` skips the empirical column.  A row is flagged when
    the recomputed theoretical constant differs from the stored reference
    value beyond 1e-12.
    """
    rows = []
    row_seeds = np.random.SeedSequence(seed).generate_state(len(TABLE1_SPECS))
    for idx, (label, dim, terms, guess_inv, theor_inv) in enumerate(TABLE1_SPECS):
        b = single_summand_subalgebra(dim, terms)
        v = TracialWeight(AlgebraShape((dim,)), (1.0,))
        bound, theorem = theoretical_bound(b, v)
        empirical = None
        if samples > 0:
            report = empirical_sharp_constant(
                b, v, samples=samples, seed=int(row_seeds[idx]), refine=refine
            )
            empirical = report.best_ratio
        ref_guess = 1.0 / np.sqrt(guess_inv)
        ref_theor = 1.0 / np.sqrt(theor_inv)
        rows.append(
            Table1Row(
                label=label,
                dim=dim,
                terms=terms,
                theoretical=bound,
                theorem=theorem,
                empirical=empirical,
                reference_guess=float(ref_guess),
                reference_theoretical=float(ref_theor),
                flagged=bool(abs(bound - ref_theor) > 1e-12),
            )
        )
    return rows


def min_ratio_over_samples(b, v: TracialWeight, count: int, seed: int) -> float:
    """Minimum fr_norm/op_norm ratio over a fixed seeded sample set.

    Evaluated through ``fr_norm``, which carries A* A to the base of a
    conjugated subalgebra, so a conjugate exercises the transport path
    sample by sample.
    """
    shape = b.shape if not isinstance(b, ConjugatedSubalgebra) else b.base.shape
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(count):
        mats = [s[0] for s in _gaussian_stacks(rng, shape.dims, 1)]
        a = AlgebraElement(shape, mats)
        opn = max(linalg.operator_norm(m) for m in mats)
        best = min(best, fr_norm(b, v, a) / opn)
    return float(best)
