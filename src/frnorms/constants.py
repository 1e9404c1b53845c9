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

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import AlgebraElement, TracialWeight
from .errors import InputError
from .expectation import fr_norm
from .subalgebra import StandardSubalgebra, single_summand_subalgebra, standard_form

REFINE_ROUNDS = 200
REFINE_INITIAL_STEP = 0.1
REFINE_FAIL_LIMIT = 5
REFINE_DIRECTIONS = 16
# Numbers per draw block: summand k's Gram draws come in blocks of
# _DRAW_BLOCK_ENTRIES // P_k draws (at least one), P_k = sum_i s_i^2 the
# length of a candidate column (see _RatioEvaluator), each one
# standard_gamma call per diagonal row and then one standard_normal
# call, and its refine draws the directions of
# _DRAW_BLOCK_ENTRIES // (2 * REFINE_DIRECTIONS * P_k) rounds (at least
# one) at a time.  The block size fixes the order of the draws, and with
# it every search stream for a seed; it bounds a block's memory for any
# sample count.
_DRAW_BLOCK_ENTRIES = 1 << 14
# Refine rounds scored per ratios_sq call (see _refine).
_SPECULATE = 8
# Largest array a search builds, in doubles, checked per summand on its
# input alone: max(2 d_k, 2 * REFINE_DIRECTIONS * P_k,
# 4 * REFINE_DIRECTIONS * s^2), s the widest slot's short side.  The
# terms are the witness vector, one refine round's candidate columns
# and that round's complex factor stack for the widest slot.  Every
# other array holds at most 2 * _DRAW_BLOCK_ENTRIES = 2**15 doubles.
# The block rules (gram_blocks, _refine) make a block of more than one
# draw, or of more than one refine round, only when its c columns hold
# c * P_k <= _DRAW_BLOCK_ENTRIES numbers, and its factor stacks then
# hold c * 2 s_i^2 <= 2 c P_k doubles.  A block of one draw (P_k
# numbers, factors of 2 s_i^2) or of one round is within the terms
# above, and a Gram stack is the size of its factor stack.  So the
# check bounds the largest array, not the peak of a scoring call, which
# holds a few arrays of that size at once.
# 2**20 (8 MiB) admits a one-slot M_d up to d = 2**19 and one square
# slot (s, s) up to s = 128.
_SEARCH_DOUBLES = 1 << 20
# Direction scales of the rounds a speculative refine block can score, in
# units of the step: row j is 0.5**(j // REFINE_FAIL_LIMIT), the step left
# after j failing rounds, times the two direction tiers 1 and 1/4.  Every
# factor is a power of two, so a product with the step is exact.
_STEP_SCALES = np.multiply.outer(
    0.5 ** (np.arange(REFINE_FAIL_LIMIT + _SPECULATE - 1) // REFINE_FAIL_LIMIT),
    np.repeat([1.0, 0.25], REFINE_DIRECTIONS),
)


@dataclass(frozen=True)
class StructuralConstants:
    """Combinatorial data entering the equivalence-constant bounds.

    L: slot count; r: lcm of per-summand block counts; ell: lcm of slot
    multiplicities; m: lcm of per-group block counts; alpha: min v_k/d_k;
    gamma: largest expectation denominator.  ``bound`` is the certified
    constant and ``theorem`` names the structural case that produced it.
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
    """Structural invariants and the certified lower constant for (b, v).
    alpha and gamma are read from the weight layout, the factors and
    denominators that the expectation divides by.  A conjugate shares
    them with its standard base."""
    b, _ = standard_form(b, v)
    layout = b.weight_layout(v.weights)
    L = sum(p.num_slots for p in b.partitions)
    alpha = min(layout.factors)
    gamma = max(layout.dens)
    if b.trivially_grouped:
        # With every multiplicity 1 in one summand, r = L and ell = 1.
        bound = 1.0 / math.sqrt(b.r * b.ell)
        if b.shape.num_summands > 1:
            theorem = "direct-sum"
        else:
            theorem = "multiplicity-free" if b.ell == 1 else "single-summand"
    else:
        theorem = "cross-summand"
        bound = math.sqrt(alpha / (b.r * b.ell * b.m * gamma))
    return StructuralConstants(L, b.r, b.ell, b.m, alpha, gamma, bound, theorem)


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

    sharp^2 is also the Pimsner-Popa constant of P, the largest lambda
    with P(a) >= lambda a for every positive a (Pimsner and Popa, Ann.
    Sci. ENS 19, 1986), an order inequality that implies the norm one.
    The positive a with P(a) >= lambda a form a convex cone, and every
    positive a is a sum of rank-one vv* with v in one summand k, so these
    decide lambda.  On summand k, P(vv*) is the sum over the slots of
    c_i X_i X_i* (x) 1_{m_i}, c_i = w_k / den_g(i), and v lies in its
    range, so P(vv*) >= lambda vv* exactly when lambda <v, P(vv*)^+ v> =
    lambda sum_i rank(X_i) / c_i <= 1.  The sum is at most
    sum_i den_g(i) min(n_i, m_i) / w_k, and a generic x attains it, so
    the best lambda is the minimum over k above.
    """
    b, _ = standard_form(b, v)
    layout = b.weight_layout(v.weights)
    sq = min(
        w / sum(layout.dens[g] * min(n, m) for _, n, m, g in slots)
        for w, slots in zip(layout.factors, b.slots)
    )
    return float(np.sqrt(sq))


class _RatioEvaluator:
    """Ratios ||A||_{v,B} / ||A||_op for the search.

    The search scores rank-one projections on slot Grams.  Cut slot i of
    summand k from a vector x as in ``sharp_constant``, let G_i be the
    s_i x s_i Gram of X_i on its short side, s_i = min(n_i, m_i), and
    c_i = w_k / den_g(i).  The projection onto x / ||x|| has the ratio

        sqrt(max_i c_i lambda_max(G_i) / sum_i tr G_i),

    which is homogeneous of degree 0 in x, so no candidate needs unit
    length.  A candidate is given by lower-triangular factors
    G_i = L_i L_i*, held as one real column of P_k = sum_i s_i^2 numbers:
    the diagonals of all the L_i, slot by slot, then the real parts and
    then the imaginary parts of the entries below them, slot by slot in
    row-major order.  Its squared length is sum_i tr G_i.
    ``gram_blocks`` draws columns, ``_refine`` moves one, ``ratios_sq``
    scores them and ``draw_vector`` turns one into a vector.
    ``table[k]`` is summand k's slot table: the rows (c_i, s_i, first
    diagonal row, first row below the diagonal) of its slots, the count
    of entries below the diagonals, and P_k.  A summand whose ratio
    cannot vary, one slot with s = 1 (B all of M_{d_k} or only its
    scalars), is the one with P_k = 1: X_0 is then a d_k-vector,
    lambda_max(X_0 X_0*) = ||x||^2 = 1, and every unit x has the ratio
    sqrt(w_k / den_g).  ``opnorms`` and ``fr_norms_sq`` evaluate stacks
    of general elements, the latter on their column blocks
    (``StandardSubalgebra.induced_opnorms_sq``).
    """

    def __init__(self, b: StandardSubalgebra, v: TracialWeight):
        self.b = b
        self.weights = v.weights
        factors, dens = b.weight_layout(v.weights)
        self.table = []
        for w, rows in zip(factors, b.slots):
            short = [min(n, m) for _, n, m, _ in rows]
            slots, a, below = [], 0, sum(short)
            for s, (*_, g) in zip(short, rows):
                slots.append((w / dens[g], s, a, below))
                a, below = a + s, below + s * (s - 1) // 2
            # a ends at the count of diagonal rows and below at it plus the
            # count of entries below the diagonals, each held twice in P_k.
            self.table.append((slots, below - a, 2 * below - a))

    def opnorms(self, stacks) -> np.ndarray:
        return np.max([linalg.opnorm_batch(s) for s in stacks], axis=0)

    def fr_norms_sq(self, stacks) -> np.ndarray:
        """Squared induced norms for a stack of elements (one array per
        summand, shapes (nb, d_k, d_k))."""
        return self.b.induced_opnorms_sq(self.weights, stacks)

    def ratios_sq(self, k: int, y: np.ndarray) -> np.ndarray:
        """Squared ratios max_i c_i lambda_max(L_i L_i*) / sum_i
        tr(L_i L_i*) of candidates in summand k, one per column of y
        (P_k, count).  The total is the column's squared length.
        lambda_max is the slot's mass when s_i = 1; with s_i = 2 it is
        ``linalg.top_gram_eigvals_2`` of the two rows p, q of L_i, whose
        masses are pp = L_00^2 and qq = |z|^2 + L_11^2, z = L_10, and
        whose inner product has the modulus |L_00| |z|; above, the Grams
        of the factors (``_factors``) go to LAPACK.  A candidate's score
        reads only its own column, and its bits do not depend on the
        other columns, except that numpy sums a lone column of more than
        8 rows pairwise."""
        sq = y * y
        slots, low, _ = self.table[k]
        top = None
        for c, s, a, b in slots:
            if s == 1:
                lam = sq[a]
            elif s == 2:
                zz = sq[b] + sq[b + low]
                pp, qq = sq[a], zz + sq[a + 1]
                lam = linalg.top_gram_eigvals_2(pp + qq, pp, qq, np.sqrt(pp * zz))
            else:
                f = _factors(y, s, a, b, low)
                lam = linalg.hermitian_opnorm_batch(f @ linalg.adjoint(f))
            top = c * lam if top is None else np.maximum(top, c * lam, out=top)
        return np.divide(top, sq.sum(axis=0), out=top)

    def gram_blocks(self, k: int, samples: int, rng):
        """Squared ratios of ``samples`` random candidates in summand k,
        drawn as slot Grams, in blocks of the block rule
        (_DRAW_BLOCK_ENTRIES): (ratio^2, columns) per block, one column
        per draw, scored by ``ratios_sq``.

        For a complex Gaussian x the slots X_i are independent, and the
        Gram of X_i on its short side is complex Wishart CW(t_i, I_s),
        t_i = max(n_i, m_i).  Bartlett's decomposition draws it as L L*:
        L_jj^2 ~ Gamma(t_i - j), j < s_i, and the entries below the
        diagonal complex normal with E|z|^2 = 1.  The ratio is
        scale-free, so ratio^2 has the law of a Gaussian unit vector's.
        A block is one standard_gamma call per diagonal row, slot by slot,
        each of a row of draws whose square roots the row then holds, and
        then one standard_normal call for the rows below the diagonals,
        times sqrt(1/2).  A summand whose ratio cannot vary (P_k = 1) is
        one draw L = [1] from no random numbers, of ratio^2 c_0 =
        w_k / den_g; its vector is the summand's first unit vector."""
        slots, low, size = self.table[k]
        varies = size > 1
        per = max(1, _DRAW_BLOCK_ENTRIES // size)
        for done in range(0, samples if varies else 1, per):
            y = np.ones((size, min(per, samples - done) if varies else 1))
            for (_, s, a, _), (_, n, m, _) in zip(slots if varies else (), self.b.slots[k]):
                for j in range(s):
                    rng.standard_gamma(max(n, m) - j, out=y[a + j])
            np.sqrt(y, out=y)
            if low:
                z = rng.standard_normal((2 * low, y.shape[1]))
                np.multiply(z, math.sqrt(0.5), out=y[-2 * low :])
            yield self.ratios_sq(k, y), y

    def draw_vector(self, k: int, y: np.ndarray) -> np.ndarray:
        """The unit vector of summand k whose slot Grams are L_i L_i* of
        the column y: X_i = [L_i*; 0] when m_i <= n_i, else [L_i, 0], cut
        as in ``sharp_constant`` and normalized (``_unit``)."""
        x = np.zeros(self.b.shape.dims[k], dtype=np.complex128)
        for (_, s, a, b), (off, n, m, _) in zip(self.table[k][0], self.b.slots[k]):
            f = _factors(y[:, None], s, a, b, self.table[k][1])[0]
            # Row j of piece is column j of X_i: conj of row j of L when
            # m <= n, and column j of L otherwise.
            piece = x[off : off + n * m].reshape(m, n)
            if m <= n:
                piece[:, :s] = np.conj(f)
            else:
                piece.T[:, :s] = f
        return _unit(x)


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Outcome of the empirical sharp-constant search: the best ratio is
    that of the projection onto the unit vector ``witness_vector`` of
    summand ``witness_summand`` (1-based).  ``samples`` is the requested
    count per summand, also where a summand whose ratio cannot vary drew
    nothing.  Reports compare by identity."""

    best_ratio: float
    witness_summand: int
    witness_vector: np.ndarray
    samples: int
    seed: int
    refine_steps: int


def _complex_gaussian(rng, shape) -> np.ndarray:
    """Complex Gaussian array of the given shape from one real draw of
    shape (2, *shape): real parts, then imaginary parts, copied into
    place, bit for bit the sum re + 1j * im."""
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = rng.standard_normal((2, *shape))
    return out


def _gaussian_stacks(rng, dims, count):
    """``count`` complex Gaussian matrices per summand, one (count, d, d)
    array per dimension in ``dims``, summand by summand.  A count of 1
    draws the same stream as a single (d, d) draw."""
    return [_complex_gaussian(rng, (count, d, d)) for d in dims]


def _unit(x: np.ndarray) -> np.ndarray:
    """The vector x scaled to unit length, by the product with 1/||x||."""
    return x * (1 / math.sqrt(np.vdot(x, x).real))


def _factors(y: np.ndarray, s: int, a: int, b: int, low: int) -> np.ndarray:
    """One slot's lower-triangular s x s factors L, one per column of the
    candidates y (see ``_RatioEvaluator``): rows a to a + s of y on the
    diagonal, and below it, in row-major order, the entries whose real
    parts are the rows from b on and imaginary parts the rows from
    b + low on."""
    f = np.zeros((y.shape[1], s, s), dtype=np.complex128)
    f.reshape(-1, s * s)[:, :: s + 1] = y[a : a + s].T
    i, j = np.tril_indices(s, -1)
    f.real[:, i, j] = y[b : b + len(i)].T
    f.imag[:, i, j] = y[b + low : b + low + len(i)].T
    return f


def _refine(evaluator, k, y, best, rng):
    """Random-direction descent on a candidate column y of summand k.

    The state is y at unit length (``_unit``), and ``best`` is its
    squared ratio.  Each round moves y along 2 * REFINE_DIRECTIONS
    Gaussian directions, half at scale ``step`` and half at
    ``step / 4``, scores the candidates as they are, the ratio being
    scale-free, and keeps the best one, at unit length, if it lowers the
    ratio; the step halves after REFINE_FAIL_LIMIT consecutive failing
    rounds.  Every column is a set of lower-triangular factors, so its
    score is the ratio of a vector (``draw_vector``).

    The rounds run in speculative blocks.  One draw gives the directions
    of as many rounds as fit in _DRAW_BLOCK_ENTRIES numbers, a round
    2 * REFINE_DIRECTIONS directions of P_k normals each, in the order
    that a draw per round would give them.  Up to _SPECULATE rounds are
    then scored in one call, on the guess that all of them fail: y stays
    put, and round j of the block takes the step that j failing rounds
    leave, step * 0.5**((fails + j) // REFINE_FAIL_LIMIT), read from
    _STEP_SCALES, which is exact since halving is.  The first round that
    beats ``best`` is accepted as a round-by-round loop accepts it; the
    scores after it are dropped, and their directions are rescored from
    the new y.  A candidate's score reads only its own column, and a
    call scores at least 2 * REFINE_DIRECTIONS columns, so y, ``best``
    and the accept count equal those of the round-by-round loop bit for
    bit.  Returns ``best``, the final column and the accept count.
    """
    ndir = REFINE_DIRECTIONS
    y = _unit(y)
    per_draw = max(1, _DRAW_BLOCK_ENTRIES // (2 * ndir * y.size))
    step = REFINE_INITIAL_STEP
    fails = 0
    accepted = 0
    done = 0
    dirs = np.empty((0, 2 * ndir, y.size))
    while done < REFINE_ROUNDS:
        if not len(dirs):
            dirs = rng.standard_normal((min(per_draw, REFINE_ROUNDS - done), 2 * ndir, y.size))
        span = min(_SPECULATE, len(dirs))
        # Candidates in columns, round by round: (P_k, span * 2 * ndir).
        cands = np.empty((y.size, span, 2 * ndir))
        scales = step * _STEP_SCALES[fails : fails + span]
        np.multiply(dirs[:span].transpose(2, 0, 1), scales, out=cands)
        cands += y[:, None, None]
        cands = cands.reshape(y.size, -1)
        ratios = evaluator.ratios_sq(k, cands)
        hits = (ratios < best).nonzero()[0]
        # The rounds before the first hit, or all of them, failed.
        failed = int(hits[0]) // (2 * ndir) if len(hits) else span
        halvings, fails = divmod(fails + failed, REFINE_FAIL_LIMIT)
        step *= 0.5**halvings
        used = failed
        if len(hits):
            lo = failed * 2 * ndir
            pick = lo + int(ratios[lo : lo + 2 * ndir].argmin())
            best = ratios[pick]
            y = _unit(cands[:, pick])
            accepted += 1
            fails = 0
            used += 1
        dirs = dirs[used:]
        done += used
    return best, y, accepted


def _checked_int(value, name: str, least: int) -> int:
    """``value`` as an int, refused with ValueError naming ``name``
    unless it is an integer, a bool excluded, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


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

    The search therefore draws ``samples`` random candidates per summand
    from one generator seeded by ``seed``, in summand order, and keeps
    the first smallest ratio.  A candidate is drawn as its slot Grams,
    whose law is that of a complex Gaussian unit vector's, not as a
    vector (``_RatioEvaluator.gram_blocks``), so a draw is one column of
    P_k = sum_i min(n_i, m_i)^2 numbers whatever d_k is.  On a summand
    whose ratio cannot vary (P_k = 1: one slot with min(n, m) = 1) every
    unit vector has the ratio sqrt(w_k / den_g), read from the weight
    layout: nothing is drawn there, its first unit vector stands for it,
    and nothing is refined when it holds the best ratio.  Refinement
    then runs random-direction descent on the best draw's column
    (``_refine``), scored by the same ``_RatioEvaluator.ratios_sq`` as
    the draws; its draws follow the sampling draws, so the sampling
    result does not depend on ``refine``.  Only the final column becomes
    a vector (``_RatioEvaluator.draw_vector``).  The witness is the best
    summand k and unit vector x; no d_k x d_k array is built.  On a
    conjugate U B U* the search runs on the base B, whose ratios are the
    same, and x is carried back to U_k x.  A summand whose witness
    vector, refine round of candidate columns or that round's factor
    stack for its widest slot would pass _SEARCH_DOUBLES doubles is
    refused with InputError before any draw; every other array of the
    search holds at most 2**15 doubles (see _SEARCH_DOUBLES).
    ``samples`` must be an integer of at least 1 and ``seed`` one of at
    least 0, a bool excluded; anything else is refused with ValueError
    before any draw.
    """
    b, u = standard_form(b, v)
    samples = _checked_int(samples, "samples", 1)
    seed = _checked_int(seed, "seed", 0)
    evaluator = _RatioEvaluator(b, v)
    doubles = 0
    for d, (slots, _, size) in zip(b.shape.dims, evaluator.table):
        widest = max(s for _, s, _, _ in slots)
        doubles = max(doubles, 2 * d, 2 * REFINE_DIRECTIONS * size, 4 * REFINE_DIRECTIONS * widest**2)
    if doubles > _SEARCH_DOUBLES:
        raise InputError(
            f"a search of shape {list(b.shape.dims)} builds arrays of {doubles} "
            f"doubles, above {_SEARCH_DOUBLES}"
        )
    rng = np.random.default_rng(seed)
    best = np.inf
    for k in range(b.shape.num_summands):
        for sq, y in evaluator.gram_blocks(k, samples, rng):
            # argmin's first index and a strict < across blocks keep the
            # first smallest draw.
            pick = int(np.argmin(sq))
            if sq[pick] < best:
                best, best_k, col = sq[pick], k, y[:, pick]
    refine_steps = 0
    if refine and evaluator.table[best_k][2] > 1:
        best, col, refine_steps = _refine(evaluator, best_k, col, best, rng)
    x = evaluator.draw_vector(best_k, col)
    if u is not None:
        x = u.summands[best_k] @ x
    x.setflags(write=False)
    return SearchReport(
        best_ratio=math.sqrt(best),
        witness_summand=best_k + 1,
        witness_vector=x,
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


def _weight_one_pair(d: int, terms) -> tuple[StandardSubalgebra, TracialWeight]:
    """B_lambda inside M_d, lambda given by the partition ``terms``, with
    the one tracial weight v = (1.0)."""
    b = single_summand_subalgebra(d, terms)
    return b, TracialWeight(b.shape, (1.0,))


def table1_subalgebra(label: str) -> tuple[StandardSubalgebra, TracialWeight]:
    """The (subalgebra, weight) pair behind a reference-table label."""
    for lab, dim, terms, _, _ in TABLE1_SPECS:
        if lab == label:
            return _weight_one_pair(dim, terms)
    raise KeyError(f"unknown table label {label!r}")


def table1(
    samples: int = 0,
    seed: int = 0,
    refine: bool = True,
) -> list[Table1Row]:
    """Recompute the reference constant table, optionally with search.

    ``samples = 0`` skips the empirical column; a negative or non-integer
    ``samples`` or ``seed`` is refused with ValueError.  A row is flagged
    when the recomputed theoretical constant differs from the stored
    reference value beyond 1e-12.
    """
    samples = _checked_int(samples, "samples", 0)
    seed = _checked_int(seed, "seed", 0)
    rows = []
    row_seeds = np.random.SeedSequence(seed).generate_state(len(TABLE1_SPECS))
    for idx, (label, dim, terms, guess_inv, theor_inv) in enumerate(TABLE1_SPECS):
        b, v = _weight_one_pair(dim, terms)
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

    Evaluated through ``fr_norm``, which carries A U to the base of a
    conjugated subalgebra U B U*, so a conjugate exercises the transport path
    sample by sample.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(count):
        mats = [s[0] for s in _gaussian_stacks(rng, b.shape.dims, 1)]
        a = AlgebraElement(b.shape, mats)
        opn = max(linalg.operator_norm(m) for m in mats)
        best = min(best, fr_norm(b, v, a) / opn)
    return float(best)
