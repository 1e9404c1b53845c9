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
# Numbers per sampling block: summand k's Gram draws come in blocks of
# _DRAW_BLOCK_ENTRIES // sum_i s_i^2 draws (at least one), s_i the short
# side of slot i, each one standard_gamma call and then one
# standard_normal call.  The block size fixes the order of the draws, and
# with it every search stream for a seed; it bounds a block's memory for
# any sample count.
_DRAW_BLOCK_ENTRIES = 1 << 14
# Refine rounds scored per rank_one_ratios call (see _refine).
_SPECULATE = 8
# Doubles of refine directions per draw (512 KiB): all 200 rounds at once
# up to d = 5, fewer rounds above.  On a 2-core x86 host, draws of
# 640000 complex entries (5 MB) fell out of cache and made refinement at
# golden level 16 (d = 1597) 13-18% slower than a draw per round; at
# this size it matched a draw per round.
_REFINE_DRAW_ENTRIES = 1 << 16
# Largest array a search builds for a summand, in doubles: its slot-mass
# matrix (at most 2 L_k + 1 rows of d_k) or a refine round's directions
# (4 * REFINE_DIRECTIONS * d_k).  2**20 (8 MiB) admits d_k <= 16384.
_SEARCH_DOUBLES = 1 << 20
# Direction scales of the rounds a speculative refine block can score, in
# units of the step: row j is 0.5**(j // REFINE_FAIL_LIMIT), the step left
# after j failing rounds, times the two direction tiers 1 and 1/4.  Every
# factor is a power of two, so a product with the step is exact.
_STEP_SCALES = np.multiply.outer(
    0.5 ** (np.arange(REFINE_FAIL_LIMIT + _SPECULATE - 1) // REFINE_FAIL_LIMIT),
    np.repeat([1.0 + 0j, 0.25 + 0j], REFINE_DIRECTIONS),
)[:, :, None]


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
    length.  ``rank_one_ratios`` reads the G_i from vectors and
    ``gram_blocks`` draws them directly; both take the lambda_max and the
    quotient in ``_ratios_sq``.  ``opnorms`` and ``fr_norms_sq`` evaluate
    stacks of general elements, the latter on their column blocks
    (``StandardSubalgebra.induced_opnorms_sq``).  ``varies[k]`` says
    whether summand k's ratio depends on the vector (``_ratio_varies``).
    """

    def __init__(self, b: StandardSubalgebra, v: TracialWeight):
        self.b = b
        self.weights = v.weights
        self.varies = [_ratio_varies(rows) for rows in b.slots]
        factors, dens = b.weight_layout(v.weights)
        self.coefs = [[w / dens[g] for *_, g in rows] for w, rows in zip(factors, b.slots)]
        # Slot-mass matrices (_mass_matrix), built for a summand when it is
        # first scored: the search scores only its best summand.
        self.sums = {}

    def opnorms(self, stacks) -> np.ndarray:
        return np.max([linalg.opnorm_batch(s) for s in stacks], axis=0)

    def fr_norms_sq(self, stacks) -> np.ndarray:
        """Squared induced norms for a stack of elements (one array per
        summand, shapes (nb, d_k, d_k))."""
        return self.b.induced_opnorms_sq(self.weights, stacks)

    def rank_one_ratios(self, k: int, vecs: np.ndarray) -> np.ndarray:
        """Ratios of the projections onto the rows x of ``vecs`` scaled to
        unit length, placed in summand k; the rows need not be unit.  One
        product of |x|^2 with the summand's 0/1 matrix (``_mass_matrix``)
        gives each slot's mass tr G_i, the mass pp of the first short-side
        row p of each slot with s_i = 2, and the total; the second row q
        has the mass qq = tr G_i - pp, and <p, q> is summed per slot.  The
        product's rounding can depend on the number of rows (see
        ``_refine``)."""
        rows = self.b.slots[k]
        if k not in self.sums:
            self.sums[k] = _mass_matrix(self.b.shape.dims[k], rows)
        sums = self.sums[k] @ (vecs.real**2 + vecs.imag**2).T
        firsts = iter(sums[len(rows) : -1])
        slots = []
        for (off, n, m, _), mass in zip(rows, sums):
            s, gram = min(n, m), _short_side(vecs, off, n, m)
            if s == 2:
                pp = next(firsts)
                gram = (pp, mass - pp, np.einsum("ij,ij->i", gram[:, 0], np.conj(gram[:, 1])))
            slots.append((s, mass, gram))
        top = _ratios_sq(self.coefs[k], slots, sums[-1])
        return np.sqrt(top, out=top)

    def gram_blocks(self, k: int, samples: int, rng):
        """Squared ratios of ``samples`` random candidates in summand k,
        drawn as slot Grams, in blocks of the block rule
        (_DRAW_BLOCK_ENTRIES): (ratio^2, gammas, normals) per block, one
        column per draw.

        For a complex Gaussian x the slots X_i are independent, and the
        Gram of X_i on its short side is complex Wishart CW(t_i, I_s),
        t_i = max(n_i, m_i).  Bartlett's decomposition draws it as L L*
        (``_bartlett``): |L_jj|^2 ~ Gamma(t_i - j), j < s_i, and the
        entries below the diagonal complex normal with E|z|^2 = 1.  The
        ratio is scale-free, so ratio^2 = max_i c_i lambda_max(L_i L_i*)
        / sum_i tr(L_i L_i*) has the law of a Gaussian unit vector's.  A
        block is one standard_gamma call per diagonal entry, slot by
        slot, each of a row of draws, then one standard_normal call: the
        real parts, then the imaginary parts, of the entries below the
        diagonals, a row per entry.  A summand whose ratio cannot vary
        (``varies[k]`` false) is one draw L = [1] from no random numbers,
        of ratio^2 c_0 = w_k / den_g; its vector is the summand's first
        unit vector."""
        rows = self.b.slots[k]
        short = [min(n, m) for _, n, m, _ in rows]
        shapes = [max(n, m) - j for _, n, m, _ in rows for j in range(min(n, m))]
        low = sum(s * (s - 1) // 2 for s in short)
        per = max(1, _DRAW_BLOCK_ENTRIES // sum(s * s for s in short))
        varies = self.varies[k]
        for done in range(0, samples if varies else 1, per):
            count = min(per, samples - done) if varies else 1
            g = np.ones((len(shapes), count))
            # A summand whose ratio cannot vary keeps its L = [1].
            for j, t in enumerate(shapes if varies else ()):
                rng.standard_gamma(t, out=g[j])
            raw = rng.standard_normal((2, low, count)) if low else np.empty((2, 0, count))
            zz = 0.5 * (raw[0] ** 2 + raw[1] ** 2)
            total = g.sum(axis=0) + zz.sum(axis=0)
            slots = []
            a = b = 0
            for s in short:
                tri = s * (s - 1) // 2
                if s == 1:
                    slots.append((1, g[a], None))
                elif s == 2:
                    pp, qq = g[a], zz[b] + g[a + 1]
                    slots.append((2, pp + qq, (pp, qq, np.sqrt(pp * zz[b]))))
                else:
                    slots.append((s, None, _bartlett(g[a : a + s], raw[:, b : b + tri])))
                a, b = a + s, b + tri
            yield _ratios_sq(self.coefs[k], slots, total), g, raw

    def draw_vector(self, k: int, draw) -> np.ndarray:
        """The unit vector of summand k whose slot Grams are the draw's
        L_i L_i*: X_i = [L_i*; 0] when m_i <= n_i, else [L_i, 0], cut as in
        ``sharp_constant`` and normalized (``_unit``)."""
        x = np.zeros(self.b.shape.dims[k], dtype=np.complex128)
        a = b = 0
        for off, n, m, _ in self.b.slots[k]:
            s = min(n, m)
            tri = s * (s - 1) // 2
            f = _bartlett(draw[0][a : a + s, None], draw[1][:, b : b + tri, None])[0]
            # The short side of [L*; 0] is conj(L) (see _short_side).
            _short_side(x[None], off, n, m)[0, :, :s] = np.conj(f) if m <= n else f
            a, b = a + s, b + tri
        return _unit(x)


def _short_side(vecs: np.ndarray, off: int, n: int, m: int) -> np.ndarray:
    """The slot X_i (n x m, at ``off``) of each row of ``vecs`` on its
    short side, a view of shape (count, s, t): row j is column j of X_i
    when m <= n, and row j of X_i otherwise.  Its Grams f f* have the
    spectra of the G_i."""
    piece = vecs[:, off : off + n * m].reshape(len(vecs), m, n)
    return piece if m <= n else piece.transpose(0, 2, 1)


def _mass_matrix(d: int, rows) -> np.ndarray:
    """The 0/1 matrix that sums |x|^2 of a vector x of a summand of
    dimension d, given by its slot rows (offset, n, m, ...), into one
    entry per row of the matrix: each slot's mass, then the mass of the
    first short-side row of each slot with min(n, m) = 2, then the
    total."""
    firsts = [
        _short_side(np.arange(d)[None], off, n, m)[0, 0] for off, n, m, _ in rows if min(n, m) == 2
    ]
    mat = np.zeros((len(rows) + len(firsts) + 1, d))
    for i, (off, n, m, _) in enumerate(rows):
        mat[i, off : off + n * m] = 1.0
    for j, first in enumerate(firsts):
        mat[len(rows) + j, first] = 1.0
    mat[-1] = 1.0
    return mat


def _ratios_sq(coefs, slots, total) -> np.ndarray:
    """Squared ratios max_i c_i lambda_i / total of a stack of candidates,
    one per entry of ``total``, computed in place.  ``slots`` gives slot
    by slot (s_i, mass, gram), lambda_i being the top eigenvalue of the
    slot's s_i x s_i Gram of trace ``mass``: the mass itself when
    s_i = 1; with s_i = 2, gram holds the Gram's entries (pp, qq, pq),
    and ``linalg.top_gram_eigvals_2`` gives it in closed form; above,
    gram is a stack of f whose Grams f f* go to LAPACK."""
    top = None
    for c, (s, mass, gram) in zip(coefs, slots):
        if s == 1:
            lam = mass
        elif s == 2:
            lam = linalg.top_gram_eigvals_2(mass, *gram)
        else:
            lam = linalg.hermitian_opnorm_batch(gram @ linalg.adjoint(gram))
        top = c * lam if top is None else np.maximum(top, c * lam, out=top)
    return np.divide(top, total, out=top)


def _ratio_varies(rows) -> bool:
    """Whether the rank-one ratio of a summand, given by its slot rows
    (offset, n, m, ...), depends on the unit vector.  It does not when
    the summand is one slot with min(n, m) = 1, B all of M_{d_k} or only
    its scalars: X_0 is then a d_k-vector, lambda_max(X_0 X_0*) =
    ||x||^2 = 1, and every unit x has the ratio sqrt(w_k / den_g)."""
    return len(rows) > 1 or min(rows[0][1], rows[0][2]) > 1


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


def _complex_parts(raw: np.ndarray, axis: int = 0) -> np.ndarray:
    """The complex array whose real and imaginary parts are the two
    entries of ``raw`` along ``axis``, of length 2.  The parts are copied
    into place, bit for bit the sum re + 1j * im."""
    re, im = np.moveaxis(raw, axis, 0)
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _complex_gaussian(rng, shape, axis: int = 0) -> np.ndarray:
    """Complex Gaussian array of the given shape from one real draw with
    an axis of length 2 inserted at ``axis``: along it, real parts, then
    imaginary parts."""
    return _complex_parts(rng.standard_normal((*shape[:axis], 2, *shape[axis:])), axis)


def _gaussian_stacks(rng, dims, count):
    """``count`` complex Gaussian matrices per summand, one (count, d, d)
    array per dimension in ``dims``, summand by summand.  A count of 1
    draws the same stream as a single (d, d) draw."""
    return [_complex_gaussian(rng, (count, d, d)) for d in dims]


def _unit(x: np.ndarray) -> np.ndarray:
    """The vector x scaled to unit length, by the product with 1/||x||."""
    return x * (1 / math.sqrt(np.vdot(x, x).real))


def _bartlett(g: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Lower-triangular s x s Bartlett factors L, one per column of g,
    (s, count): sqrt(g) on the diagonal and, below it in row-major
    order, the complex normals whose real and imaginary parts are raw[0]
    and raw[1], scaled by sqrt(1/2) so that E|z|^2 = 1."""
    s, count = g.shape
    f = np.zeros((count, s, s), dtype=np.complex128)
    f.reshape(count, s * s)[:, :: s + 1] = np.sqrt(g.T)
    if s > 1:
        f[(slice(None), *np.tril_indices(s, -1))] = _complex_parts(raw).T * np.sqrt(0.5)
    return f


def _refine(evaluator, k, x, best, rng):
    """Random-direction descent on the unit sphere of summand k.

    Each round moves the unit vector x along 2 * REFINE_DIRECTIONS
    Gaussian directions, half at scale ``step`` and half at ``step / 4``,
    scores the candidates as they are, the ratio being scale-free (see
    ``_RatioEvaluator``), and keeps the best one, scaled to unit length,
    if it lowers the ratio; the step halves after REFINE_FAIL_LIMIT
    consecutive failing rounds.

    The rounds run in speculative blocks.  One draw gives the directions
    of as many rounds as fit in _REFINE_DRAW_ENTRIES doubles, in the
    order that a draw per round would give them.  Up to _SPECULATE rounds
    are then scored in one call, on the guess that all of them fail: x
    stays put, and round j of the block takes the step that j failing
    rounds leave, step * 0.5**((fails + j) // REFINE_FAIL_LIMIT), read
    from _STEP_SCALES, which is exact since halving is.  The first round
    that beats ``best`` is accepted as a round-by-round loop accepts it;
    the scores after it are dropped, and their directions are rescored
    from the new x.  A candidate's score depends on its own row and on the
    BLAS kernel that sums its slot masses (``rank_one_ratios``), which
    numpy and OpenBLAS pick by the stack's shape: one row goes to gemv,
    and a product of more than about 10^6 multiply-adds can leave the
    small-matrix kernel.  The refine's stacks of 32 to 32 * _SPECULATE
    rows stayed on one kernel on every problem tested, and there x,
    ``best`` and the accept count equal those of the round-by-round loop
    bit for bit.
    """
    ndir = REFINE_DIRECTIONS
    d = x.size
    per_draw = max(1, _REFINE_DRAW_ENTRIES // (4 * ndir * d))
    step = REFINE_INITIAL_STEP
    fails = 0
    accepted = 0
    done = 0
    dirs = np.empty((0, 2 * ndir, d), dtype=np.complex128)
    while done < REFINE_ROUNDS:
        if not len(dirs):
            dirs = _complex_gaussian(rng, (min(per_draw, REFINE_ROUNDS - done), 2 * ndir, d), 1)
        span = min(_SPECULATE, len(dirs))
        cands = dirs[:span] * (step * _STEP_SCALES[fails : fails + span])
        cands += x
        cands = cands.reshape(-1, d)
        ratios = evaluator.rank_one_ratios(k, cands)
        hits = (ratios < best).nonzero()[0]
        # The rounds before the first hit, or all of them, failed.
        failed = int(hits[0]) // (2 * ndir) if len(hits) else span
        halvings, fails = divmod(fails + failed, REFINE_FAIL_LIMIT)
        step *= 0.5**halvings
        used = failed
        if len(hits):
            lo = failed * 2 * ndir
            pick = lo + int(ratios[lo : lo + 2 * ndir].argmin())
            best = float(ratios[pick])
            x = _unit(cands[pick])
            accepted += 1
            fails = 0
            used += 1
        dirs = dirs[used:]
        done += used
    return best, x, accepted


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
    vector (``_RatioEvaluator.gram_blocks``), so a draw costs
    sum_i min(n_i, m_i)^2 numbers whatever d_k is.  On a summand whose
    ratio cannot vary (``_ratio_varies``: one slot with min(n, m) = 1)
    every unit vector has the ratio sqrt(w_k / den_g), read from the
    weight layout: nothing is drawn there, its first unit vector stands
    for it, and nothing is refined when it holds the best ratio.  Only
    the best draw becomes a vector (``_RatioEvaluator.draw_vector``),
    which is scored once more by ``rank_one_ratios``, the evaluator of
    every later comparison.  Refinement then runs random-direction
    descent on the sphere from that vector; its draws follow the sampling
    draws, so the sampling result does not depend on ``refine``.  The
    witness is the best summand k and unit vector x; no d_k x d_k array
    is built.  On a conjugate U B U* the search runs on the base B, whose
    ratios are the same, and x is carried back to U_k x.  A summand whose
    slot-mass matrix or refine round would pass _SEARCH_DOUBLES doubles
    is refused with InputError before any draw.  ``samples`` must be an
    integer of at least 1 and ``seed`` one of at least 0, a bool
    excluded; anything else is refused with ValueError before any draw.
    """
    b, u = standard_form(b, v)
    samples = _checked_int(samples, "samples", 1)
    seed = _checked_int(seed, "seed", 0)
    doubles = max(
        max(2 * len(rows) + 1, 4 * REFINE_DIRECTIONS) * d for d, rows in zip(b.shape.dims, b.slots)
    )
    if doubles > _SEARCH_DOUBLES:
        raise InputError(
            f"a search of shape {list(b.shape.dims)} builds arrays of {doubles} "
            f"doubles, above {_SEARCH_DOUBLES}"
        )
    evaluator = _RatioEvaluator(b, v)
    rng = np.random.default_rng(seed)
    best = np.inf
    for k in range(b.shape.num_summands):
        for sq, g, raw in evaluator.gram_blocks(k, samples, rng):
            # argmin's first index and a strict < across blocks keep the
            # first smallest draw.
            pick = int(np.argmin(sq))
            if sq[pick] < best:
                best, best_k, draw = sq[pick], k, (g[:, pick].copy(), raw[:, :, pick].copy())
    x = evaluator.draw_vector(best_k, draw)
    best = float(evaluator.rank_one_ratios(best_k, x[None])[0])
    refine_steps = 0
    if refine and evaluator.varies[best_k]:
        best, x, refine_steps = _refine(evaluator, best_k, x, best, rng)
    if u is not None:
        x = u.summands[best_k] @ x
    x.setflags(write=False)
    return SearchReport(
        best_ratio=best,
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
