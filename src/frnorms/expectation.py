"""Conditional expectations and the norms they induce.

For a standard subalgebra B and tracial weight v the conditional
expectation onto B is a block average.  Each group g of identified slots
gets

    X_g = sum_blocks (v_k/d_k) * A_k[block]  /  sum_blocks (v_k/d_k),

the sums running over the diagonal blocks of g (``occurrences``), and
P(A) writes X_g back into every block of g, zero elsewhere.
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
carry the structure behind the equivalence-constant bounds; their
phases and permutations are read from the subalgebra's block layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraShape,
    TracialWeight,
    element_norm,
    from_block_matrix,
    inner_product,
    to_block_matrix,
)
from .subalgebra import StandardSubalgebra, standard_form


def cond_expect(b, v: TracialWeight, a: AlgebraElement) -> AlgebraElement:
    """Conditional expectation onto b with respect to the tracial state v."""
    b, u = standard_form(b, v, a)
    if u is not None:
        a = u.adjoint() @ a @ u
    p = AlgebraElement._result(b.shape, b.block_average(v.per_trace_factors(), a.summands))
    return p if u is None else u @ p @ u.adjoint()


def cond_expect_gram(b, v: TracialWeight, a: AlgebraElement) -> AlgebraElement:
    """Expectation by Gram projection; independent oracle for cond_expect."""
    b, u = standard_form(b, v, a)
    if u is not None:
        a = u.adjoint() @ a @ u
    out = AlgebraElement.zero(b.shape)
    for e in b.dense_basis:
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
    return float(b.induced_opnorms_sq(v.per_trace_factors(), stack)[0])


def fr_norm(b, v: TracialWeight, a: AlgebraElement) -> float:
    """The norm sqrt(||P(A* A)||_op) induced by the expectation onto b."""
    return float(np.sqrt(fr_norm_squared(b, v, a)))


def quotient_seminorm(b, v: TracialWeight, a: AlgebraElement) -> float:
    """Induced norm of the component of a orthogonal to b."""
    return fr_norm(b, v, a - cond_expect(b, v, a))


@dataclass(frozen=True)
class PipelineStage:
    """One averaging stage: the mean of a family of unitary conjugates.

    Per-summand stages hold the family as AlgebraElements; the
    cross-summand permutation stage works on the block-diagonal embedding
    into M_d and holds plain d x d matrices.  ``pre_scale`` is an optional
    per-summand scalar applied before the average.
    """

    label: str
    unitaries: tuple
    flattened: bool = False
    pre_scale: tuple[float, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.unitaries)


@dataclass(frozen=True)
class ConjugationPipeline:
    """Composition of averaging stages with an optional final rescaling."""

    shape: AlgebraShape
    stages: tuple[PipelineStage, ...]
    final_scale: float = 1.0


def _prescaled(stage: PipelineStage, x: AlgebraElement) -> AlgebraElement:
    if stage.pre_scale is None:
        return x
    return AlgebraElement(
        x.shape, [s * m for s, m in zip(stage.pre_scale, x.summands)]
    )


def stage_unitary_mean(stage: PipelineStage, x: AlgebraElement):
    """Mean of conjugates U x U* over the stage family, without pre_scale.

    Returns an AlgebraElement for per-summand stages and a full matrix in
    the block-diagonal embedding for the flattened permutation stage.
    """
    if not stage.flattened:
        acc = AlgebraElement.zero(x.shape)
        for u in stage.unitaries:
            acc = acc + u @ x @ u.adjoint()
        return (1.0 / stage.size) * acc
    xb = to_block_matrix(x)
    acc = np.zeros_like(xb)
    for w in stage.unitaries:
        acc += w @ xb @ linalg.adjoint(w)
    return acc / stage.size


def pinching_ratio(stage: PipelineStage, x: AlgebraElement) -> float:
    """||mean of conjugates|| / ||x||, in the space the stage acts on."""
    mean = stage_unitary_mean(stage, x)
    if stage.flattened:
        num = linalg.operator_norm(mean)
    else:
        num = element_norm(mean)
    return num / element_norm(x)


def apply_stage(stage: PipelineStage, x: AlgebraElement) -> AlgebraElement:
    """Pre-scale then average.  The flattened stage only arises after the
    block-diagonalizing stages, whose output it maps back faithfully."""
    y = _prescaled(stage, x)
    mean = stage_unitary_mean(stage, y)
    if stage.flattened:
        return from_block_matrix(x.shape, mean)
    return mean


def apply_pipeline(pipeline: ConjugationPipeline, x: AlgebraElement) -> AlgebraElement:
    for stage in pipeline.stages:
        x = apply_stage(stage, x)
    if pipeline.final_scale != 1.0:
        x = pipeline.final_scale * x
    return x


def _phase_stage(b: StandardSubalgebra) -> PipelineStage:
    shape = b.shape
    # Fine block sizes of each summand, one entry per copy.
    fine = [[n for _, n, m, _ in rows for _ in range(m)] for rows in b.slots]
    r_k = [len(f) for f in fine]
    r = lcm(*r_k)
    # Phase accumulators: block index times the member index, advanced by
    # repeated multiplication rather than matrix powers.
    base = [np.exp(2j * np.pi * np.arange(len(f)) / len(f)) for f in fine]
    cur = [np.ones(len(f), dtype=np.complex128) for f in fine]
    members = []
    for _ in range(r):
        mats = []
        for k, f in enumerate(fine):
            mats.append(np.diag(np.repeat(cur[k], f)))
        members.append(AlgebraElement(shape, mats))
        cur = [c * bk for c, bk in zip(cur, base)]
    return PipelineStage("block-phase", tuple(members))


def _circulant_stage(b: StandardSubalgebra) -> PipelineStage:
    # Member j permutes each slot's span cyclically by (j mod m) * n rows.
    ell = lcm(*(m for rows in b.slots for _, _, m, _ in rows))
    members = []
    for j in range(ell):
        mats = []
        for d, rows in zip(b.shape.dims, b.slots):
            cols = np.concatenate(
                [np.roll(np.arange(off, off + n * m), -(j % m) * n) for off, n, m, _ in rows]
            )
            mats.append(np.eye(d)[cols])
        members.append(AlgebraElement(b.shape, mats))
    return PipelineStage("circulant-shift", tuple(members))


def _permutation_stage(b: StandardSubalgebra, v: TracialWeight) -> PipelineStage:
    # Diagonal blocks in the block-diagonal embedding into M_d.
    base = np.cumsum((0,) + b.shape.dims)
    occ = [
        [(int(base[k - 1]) + off, b.group_block_size(g)) for k, off in o]
        for g, o in enumerate(b.occurrences, start=1)
    ]
    m = lcm(*(len(o) for o in occ))
    d = b.shape.total_dim
    members = []
    for s in range(m):
        w = np.zeros((d, d))
        for o in occ:
            mg = len(o)
            shift = s % mg
            for t, (off, n) in enumerate(o):
                dst, _ = o[(t + shift) % mg]
                w[off : off + n, dst : dst + n] = np.eye(n)
        members.append(w)
    return PipelineStage(
        "group-permutation",
        tuple(members),
        flattened=True,
        pre_scale=tuple(v.per_trace_factors()),
    )


def pipeline_for(b: StandardSubalgebra, v: TracialWeight) -> ConjugationPipeline:
    """Conjugation pipeline reproducing the expectation onto b.

    For a trivially grouped subalgebra the block-phase and circulant
    stages compose to the conditional expectation exactly.  When slots
    are identified across summands, the permutation stage and the final
    1/gamma rescaling realize the norm comparison behind the
    cross-summand equivalence bound (certified through the stage
    pinching inequalities rather than pointwise).
    """
    stages = [_phase_stage(b), _circulant_stage(b)]
    final = 1.0
    if not b.trivially_grouped:
        stages.append(_permutation_stage(b, v))
        final = 1.0 / float(np.max(b.denominators(v.per_trace_factors())))
    return ConjugationPipeline(b.shape, tuple(stages), final)
