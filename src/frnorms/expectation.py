"""Conditional expectations and the norms they induce.

For a standard subalgebra B and tracial weight v the conditional
expectation onto B is a block average.  Each group g of identified slots
gets

    X_g = sum_blocks (v_k/d_k) * A_k[block]  /  sum_blocks (v_k/d_k),

the sums running over the diagonal blocks of g (the copies of its
``runs``), and P(A) writes X_g back into every block of g, zero elsewhere.
``cond_expect`` evaluates this through the subalgebra's own kernel,
``StandardSubalgebra.block_average``, which the unweighted membership
test shares; ``cond_expect_gram`` is an independent oracle
that projects onto the canonical basis with Gram coefficients
<A, e>/<e, e> computed from the tracial inner product.

The induced norm is ||A||_{v,B} = sqrt(||P(A* A)||_op).  Its square is
max_g lambda_max(X_g) for the group averages X_g of P(A* A), which
``StandardSubalgebra.induced_opnorms_sq`` builds from A's column blocks;
``fr_norm_squared`` is a stack of one.
The sharp-constant search does not come through here: it scores
rank-one projections on slot Grams (``constants._RatioEvaluator``),
which tests check against ``fr_norm_squared``.  Conjugation pipelines
reproduce the expectation through averages of unitary conjugates and
carry the structure behind the equivalence-constant bounds.  Each stage
averages over the powers of one monomial unitary, a permutation with
phases read from the subalgebra's block layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    TracialWeight,
    element_norm,
    from_block_matrix,
    inner_product,
    to_block_matrix,
)
from .errors import InputError
from .subalgebra import StandardSubalgebra, standard_form


def cond_expect(b, v: TracialWeight, a: AlgebraElement) -> AlgebraElement:
    """Conditional expectation onto b with respect to the tracial state v."""
    b, u = standard_form(b, v, a)
    if u is not None:
        a = u.adjoint() @ a @ u
    p = AlgebraElement._result(b.shape, b.block_average(v.weights, a.summands))
    return p if u is None else u @ p @ u.adjoint()


def cond_expect_gram(b, v: TracialWeight, a: AlgebraElement) -> AlgebraElement:
    """Expectation by Gram projection; independent oracle for cond_expect."""
    b, u = standard_form(b, v, a)
    if u is not None:
        a = u.adjoint() @ a @ u
    out = AlgebraElement.zero(b.shape)
    for e in b.dense_basis():
        coef = inner_product(v, a, e) / inner_product(v, e, e)
        out = out + coef * e
    return out if u is None else u @ out @ u.adjoint()


def fr_norm_squared(b, v: TracialWeight, a: AlgebraElement) -> float:
    """||P(A* A)||_op, the square of the induced norm, as a stack of one.

    On a conjugate U B U* the norm is that of P_B(U* A* A U), and
    U* A* A U = (AU)* (AU), so A U is carried to the base.
    """
    b, u = standard_form(b, v, a)
    if u is not None:
        a = a @ u
    stack = [m[None] for m in a.summands]
    return float(b.induced_opnorms_sq(v.weights, stack)[0])


def fr_norm(b, v: TracialWeight, a: AlgebraElement) -> float:
    """The norm sqrt(||P(A* A)||_op) induced by the expectation onto b.

    The square under- or overflows when A's entries lie far from 1, even
    where the norm itself is a float.  So an element whose peak entry
    lies outside the Gram range is divided by 2**e first
    (``linalg._gram_range``), and the square root of its square
    multiplied back by 2**e: the norm is homogeneous and the scaling
    exact.  An entry whose modulus overflows, and a norm beyond the
    float range, are refused with ValueError.
    """
    stacks, exp = linalg._gram_range([m[None] for m in a.summands], "induced norm")
    if exp is None:
        return float(np.sqrt(fr_norm_squared(b, v, a)))
    norm = np.sqrt(fr_norm_squared(b, v, AlgebraElement._result(a.shape, [s[0] for s in stacks])))
    return float(linalg._scale_norms_back(norm, exp[0], "induced norm"))


def quotient_seminorm(b, v: TracialWeight, a: AlgebraElement) -> float:
    """Induced norm of the component of a orthogonal to b."""
    return fr_norm(b, v, a - cond_expect(b, v, a))


@dataclass(frozen=True)
class PipelineStage:
    """One averaging stage: the mean of g^j x g^-j over j < size, for one
    monomial unitary g of order ``size`` on the block-diagonal embedding
    of the algebra into M_d, d = sum d_k.

    g sends basis vector perm[a] to phase[a] times basis vector a, so
    (g x g*)[a, c] = phase[a] x[perm[a], perm[c]] conj(phase[c]).
    ``pre_scale`` is an optional per-summand scalar applied before the
    average.
    """

    label: str
    perm: np.ndarray
    phase: np.ndarray
    size: int
    pre_scale: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ConjugationPipeline:
    """Composition of averaging stages with an optional final rescaling."""

    stages: tuple[PipelineStage, ...]
    final_scale: float = 1.0


def stage_unitary_mean(stage: PipelineStage, x: AlgebraElement) -> np.ndarray:
    """Mean of the conjugates g^j x g^-j, j < size, without pre_scale,
    as a d x d matrix in the block-diagonal embedding."""
    y = to_block_matrix(x)
    acc = np.zeros_like(y)
    phases = np.outer(stage.phase, np.conj(stage.phase))
    index = np.ix_(stage.perm, stage.perm)
    for _ in range(stage.size):
        acc += y
        y = phases * y[index]
    return acc / stage.size


def pinching_ratio(stage: PipelineStage, x: AlgebraElement) -> float:
    """||mean of conjugates||_op / ||x||."""
    return linalg.operator_norm(stage_unitary_mean(stage, x)) / element_norm(x)


def apply_stage(stage: PipelineStage, x: AlgebraElement) -> AlgebraElement:
    """Pre-scale, average, and keep the diagonal blocks.  Only the
    permutation stage moves entries between summands; it arises after the
    block-diagonalizing stages, whose output it maps back faithfully."""
    if stage.pre_scale is not None:
        x = AlgebraElement(x.shape, [s * m for s, m in zip(stage.pre_scale, x.summands)])
    return from_block_matrix(x.shape, stage_unitary_mean(stage, x))


def apply_pipeline(pipeline: ConjugationPipeline, x: AlgebraElement) -> AlgebraElement:
    for stage in pipeline.stages:
        x = apply_stage(stage, x)
    return pipeline.final_scale * x


def _phase_stage(b: StandardSubalgebra) -> PipelineStage:
    # Fine block t of summand k (one per copy of a slot) gets the phase
    # exp(2 pi i t / r_k); g has order r, the lcm of the r_k.
    fine = [[n for _, n, m, _ in rows for _ in range(m)] for rows in b.slots]
    phase = np.concatenate(
        [np.repeat(np.exp(2j * np.pi * np.arange(len(f)) / len(f)), f) for f in fine]
    )
    return PipelineStage("block-phase", np.arange(len(phase)), phase, b.r)


def _circulant_stage(b: StandardSubalgebra) -> PipelineStage:
    # g shifts each slot's span cyclically by one block (n rows); g has
    # order ell, the lcm of the slot multiplicities.
    perm = []
    for s, rows in zip(b.shape.offsets, b.slots):
        for off, n, m, _ in rows:
            perm.extend(np.roll(np.arange(s + off, s + off + n * m), -n))
    return PipelineStage("circulant-shift", np.array(perm), np.ones(len(perm)), b.ell)


def _permutation_stage(b: StandardSubalgebra, v: TracialWeight) -> PipelineStage:
    # g carries each diagonal block of a group to the group's next block,
    # cyclically across its runs' copies; g has order m, the lcm over
    # the groups of their block counts.
    starts = b.shape.offsets
    perm = np.arange(b.shape.total_dim)
    for g, runs in enumerate(b.runs, start=1):
        n = b.group_block_size(g)
        rows = np.concatenate([starts[k - 1] + off + n * np.arange(m) for k, off, m in runs])
        rows = rows[:, None] + np.arange(n)
        perm[rows] = np.roll(rows, -1, axis=0)
    return PipelineStage(
        "group-permutation", perm, np.ones(len(perm)), b.m, b.weight_layout(v.weights).factors
    )


def pipeline_for(b, v: TracialWeight) -> ConjugationPipeline:
    """Conjugation pipeline reproducing the expectation onto b.

    For a trivially grouped subalgebra the block-phase and circulant
    stages compose to the conditional expectation exactly.  When slots
    are identified across summands, the permutation stage and the final
    1/gamma rescaling realize the norm comparison behind the
    cross-summand equivalence bound (certified through the stage
    pinching inequalities rather than pointwise).  The stage sizes are
    the r, ell and m of ``structural_constants``.  A conjugate is refused
    with InputError: its stages are not monomial.
    """
    b, u = standard_form(b, v)
    if u is not None:
        raise InputError("the conjugation pipeline needs a standard subalgebra")
    stages = [_phase_stage(b), _circulant_stage(b)]
    final = 1.0
    if not b.trivially_grouped:
        stages.append(_permutation_stage(b, v))
        final = 1.0 / max(b.weight_layout(v.weights).dens)
    return ConjugationPipeline(tuple(stages), final)
