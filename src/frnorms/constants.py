"""Equivalence constants between induced and operator norms.

``theoretical_bound`` returns the best certified constant c with
``c * ||A||_op <= ||A||_{v,B} <= ||A||_op`` for the given subalgebra and
weight; ``empirical_sharp_constant`` searches the unit sphere for the
smallest observed ratio, which sandwiches the sharp constant from above.
``table1`` evaluates both over the reference list of proper unital
subalgebra types of M_n for n <= 5 and flags any row whose recomputed
constant deviates from the stored reference value.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import linalg
from .algebra import AlgebraElement, AlgebraShape, TracialWeight
from .expectation import _block_average, _weighted_denominators, fr_norm
from .subalgebra import ConjugatedSubalgebra, StandardSubalgebra, single_summand_subalgebra

REFINE_ROUNDS = 200
REFINE_INITIAL_STEP = 0.1
REFINE_FAIL_LIMIT = 20
REFINE_DIRECTIONS = 64
REFINE_VEC_DIRECTIONS = 16
_CHUNK = 20000


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


class _RatioEvaluator:
    """Batched evaluation of fr_norm(A) / ||A||_op over sample stacks."""

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
        proj = _block_average(self.b, self.w, grams)
        return np.max([linalg.hermitian_opnorm_batch(p) for p in proj], axis=0)

    def ratios(self, stacks) -> np.ndarray:
        return np.sqrt(self.fr_norms_sq(stacks)) / self.opnorms(stacks)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the empirical sharp-constant search."""

    best_ratio: float
    witness: AlgebraElement
    samples: int
    seed: int
    refine_steps: int
    workers: int


def _gaussian_stacks(rng, dims, count):
    """``count`` complex Gaussian matrices per summand, one (count, d, d)
    array per dimension in ``dims``: real parts, then imaginary parts,
    summand by summand.  A count of 1 draws the same stream as a single
    (d, d) draw."""
    return [
        rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        for d in dims
    ]


def _refine(evaluator, witness, best, rng):
    """Coordinate-perturbation descent on the ratio, batched per round.

    Each round proposes a seeded Gaussian perturbation of every real
    coordinate singly (both signs) together with a block of full random
    directions at two scales, then moves to the best improving
    candidate; the step halves after REFINE_FAIL_LIMIT consecutive
    failing rounds.  The direction block matters because the objective
    is a ratio of spectral norms whose minimizers sit on eigenvalue
    crossings, where single-coordinate moves stall.

    Each round also proposes rank-one projections: A*A dominates t vv*
    for its top eigenpair (t, v) and conditional expectations are
    monotone on positives, so the ratio can only drop when the iterate
    is replaced by the projection onto v.  The minimum is therefore
    attained on unit rank-one positives supported in a single summand,
    and jumping onto that manifold (plus perturbed copies of v at the
    current step) escapes the plateaus where dense moves stall.
    """
    dims = evaluator.dims
    coord_k, coord_i, coord_j, coord_part = [], [], [], []
    for k, d in enumerate(dims):
        for i in range(d):
            for j in range(d):
                for part in (1.0, 1j):
                    coord_k.append(k)
                    coord_i.append(i)
                    coord_j.append(j)
                    coord_part.append(part)
    coord_k = np.array(coord_k)
    coord_i = np.array(coord_i)
    coord_j = np.array(coord_j)
    coord_part = np.array(coord_part, dtype=np.complex128)
    ncoord = coord_k.size
    ndir = REFINE_DIRECTIONS
    nvec = REFINE_VEC_DIRECTIONS
    total = 2 * ncoord + 2 * ndir + len(dims) * (1 + nvec)
    x = [m.copy() for m in witness]
    step = REFINE_INITIAL_STEP
    fails = 0
    accepted = 0
    for _ in range(REFINE_ROUNDS):
        delta = step * rng.standard_normal(ncoord) * coord_part
        cands = [np.repeat(m[None, :, :], total, axis=0) for m in x]
        for k in range(len(dims)):
            sel = coord_k == k
            rows = np.nonzero(sel)[0]
            cands[k][rows, coord_i[sel], coord_j[sel]] += delta[sel]
            cands[k][ncoord + rows, coord_i[sel], coord_j[sel]] -= delta[sel]
        base = 2 * ncoord
        for k, g in enumerate(_gaussian_stacks(rng, dims, 2 * ndir)):
            cands[k][base : base + ndir] += step * g[:ndir]
            cands[k][base + ndir : base + 2 * ndir] += 0.25 * step * g[ndir:]
        row = base + 2 * ndir
        for k, d in enumerate(dims):
            _, vecs = linalg.hermitian_eigh(linalg.adjoint(x[k]) @ x[k])
            tops = np.repeat(vecs[:, -1][None, :], 1 + nvec, axis=0)
            tops[1:] += step * (
                rng.standard_normal((nvec, d)) + 1j * rng.standard_normal((nvec, d))
            )
            nrm = np.linalg.norm(tops, axis=1)
            degenerate = nrm < 1e-12
            tops[degenerate] = 0.0
            tops[degenerate, 0] = 1.0
            nrm[degenerate] = 1.0
            tops /= nrm[:, None]
            for kk in range(len(dims)):
                cands[kk][row : row + 1 + nvec] = 0.0
            cands[k][row : row + 1 + nvec] = tops[:, :, None] * np.conj(tops[:, None, :])
            row += 1 + nvec
        ratios = evaluator.ratios(cands)
        pick = int(np.argmin(ratios))
        if ratios[pick] < best:
            best = float(ratios[pick])
            x = [c[pick].copy() for c in cands]
            scale = evaluator.opnorms([m[None] for m in x])[0]
            x = [m / scale for m in x]
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
    workers: int = 1,
) -> SearchReport:
    """Randomized search for the smallest fr_norm / op_norm ratio.

    Entries are drawn i.i.d. complex Gaussian per summand; each sample is
    scored on the unit sphere of the operator norm.  The sample stream is
    split into ``workers`` deterministic substreams, so the result depends
    only on (seed, workers).  The substreams run one after another in this
    process: ``workers`` selects the sample streams, not parallelism.
    Refinement applies coordinate-perturbation descent to the best sample
    found.
    """
    if isinstance(b, ConjugatedSubalgebra):
        # The ratio spectrum is invariant under conjugation; search the base.
        b = b.base
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    evaluator = _RatioEvaluator(b, v)
    dims = b.shape.dims
    children = np.random.SeedSequence(seed).spawn(workers + 1)
    best = np.inf
    witness = None
    for wi in range(workers):
        rng = np.random.default_rng(children[wi])
        quota = samples // workers + (1 if wi < samples % workers else 0)
        done = 0
        while done < quota:
            count = min(_CHUNK, quota - done)
            stacks = _gaussian_stacks(rng, dims, count)
            ratios = evaluator.ratios(stacks)
            pick = int(np.argmin(ratios))
            if ratios[pick] < best:
                best = float(ratios[pick])
                witness = [s[pick].copy() for s in stacks]
            done += count
    scale = evaluator.opnorms([m[None] for m in witness])[0]
    witness = [m / scale for m in witness]
    refine_steps = 0
    if refine:
        rng = np.random.default_rng(children[workers])
        best, witness, refine_steps = _refine(evaluator, witness, float(best), rng)
    element = AlgebraElement(b.shape, witness)
    return SearchReport(
        best_ratio=float(best),
        witness=element,
        samples=samples,
        seed=seed,
        refine_steps=refine_steps,
        workers=workers,
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
    workers: int = 1,
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
                b, v, samples=samples, seed=int(row_seeds[idx]), refine=refine,
                workers=workers,
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

    Evaluated through ``cond_expect``, so a conjugated subalgebra
    exercises the transport path sample by sample.
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
