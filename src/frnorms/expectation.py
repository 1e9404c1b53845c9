"""Conditional expectations and the norms they induce.

For a standard subalgebra B and tracial weight v the conditional
expectation onto B is a block average.  Each group g of identified slots
gets

    X_g = sum_blocks (v_k/d_k) * A_k[block]  /  sum_blocks (v_k/d_k),

the sums running over the diagonal blocks of g (``occurrences``), and
P(A) writes X_g back into every block of g, zero elsewhere.
``cond_expect`` evaluates this through one kernel that takes any leading
batch axes, so the batched sharp-constant search and the unweighted
membership test run the same code; ``cond_expect_gram`` is an
independent oracle that projects onto the canonical basis with Gram
coefficients <A, e>/<e, e> computed from the tracial inner product.

The induced norm is ||A||_{v,B} = sqrt(||P(A* A)||_op).  Its square is
computed for whole stacks of positive elements at once, block average
then batched Hermitian spectra; ``fr_norm_squared`` is a stack of one
and the sharp-constant search passes thousands.  Conjugation
pipelines reproduce the expectation through averages of unitary
conjugates and carry the structure behind the equivalence-constant
bounds.
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
from .errors import ShapeError
from .subalgebra import ConjugatedSubalgebra, StandardSubalgebra

def _weighted_denominators(b: StandardSubalgebra, w: np.ndarray) -> np.ndarray:
    """Per-group normalization sum_blocks w_k for per-summand weights w."""
    return w @ b._counts


def _block_average(b: StandardSubalgebra, w: np.ndarray, summands) -> list[np.ndarray]:
    """Weighted block average onto b, applied to a stack of elements.

    ``summands`` holds one array per summand of shape (..., d_k, d_k), all
    with the same leading batch axes; ``w`` holds one weight per summand.
    With w_k = v_k/d_k this is the conditional expectation, with unit
    weights the entrywise-orthogonal projection.  The blocks of a group
    are summed in summand-major, offset order starting from zero.
    """
    lead = summands[0].shape[:-2]
    out = [np.zeros(lead + (d, d), dtype=np.complex128) for d in b.shape.dims]
    dens = _weighted_denominators(b, w)
    for occ, n, den in zip(b.occurrences, b._group_sizes, dens):
        avg = np.zeros(lead + (n, n), dtype=np.complex128)
        for k, off in occ:
            avg += w[k - 1] * summands[k - 1][..., off : off + n, off : off + n]
        avg /= den
        for k, off in occ:
            out[k - 1][..., off : off + n, off : off + n] = avg
    return out


def cond_expect(b, v: TracialWeight, a: AlgebraElement) -> AlgebraElement:
    """Conditional expectation onto b with respect to the tracial state v."""
    if isinstance(b, ConjugatedSubalgebra):
        u = b.unitary
        inner = cond_expect(b.base, v, u.adjoint() @ a @ u)
        return u @ inner @ u.adjoint()
    if a.shape.dims != b.shape.dims or v.shape.dims != b.shape.dims:
        raise ShapeError("element, weight and subalgebra shapes must agree")
    return AlgebraElement(b.shape, _block_average(b, v.per_trace_factors(), a.summands))


def cond_expect_gram(b, v: TracialWeight, a: AlgebraElement) -> AlgebraElement:
    """Expectation by Gram projection; independent oracle for cond_expect."""
    if isinstance(b, ConjugatedSubalgebra):
        u = b.unitary
        inner = cond_expect_gram(b.base, v, u.adjoint() @ a @ u)
        return u @ inner @ u.adjoint()
    out = AlgebraElement.zero(b.shape)
    for e in b.dense_basis:
        coef = inner_product(v, a, e) / inner_product(v, e, e)
        out = out + coef * e
    return out


def _expected_opnorms(b: StandardSubalgebra, w: np.ndarray, summands) -> np.ndarray:
    """||P(B)||_op for a stack of positive elements B.

    ``summands`` and ``w`` are as for :func:`_block_average`; the result
    has one entry per element of the stack, the largest operator norm
    over the summands of its block average.
    """
    proj = _block_average(b, w, summands)
    return np.max([linalg.hermitian_opnorm_batch(p) for p in proj], axis=0)


def fr_norm_squared(b, v: TracialWeight, a: AlgebraElement) -> float:
    """||P(A* A)||_op, the square of the induced norm, as a batch of one.

    On a conjugate U B U* the expectation is U P_B(U* X U) U*, whose
    operator norm is that of P_B(U* X U), so A* A is carried to the base.
    """
    x = a.adjoint() @ a
    if isinstance(b, ConjugatedSubalgebra):
        u = b.unitary
        x = u.adjoint() @ x @ u
        b = b.base
    if x.shape.dims != b.shape.dims or v.shape.dims != b.shape.dims:
        raise ShapeError("element, weight and subalgebra shapes must agree")
    stack = [m[None] for m in x.summands]
    return float(_expected_opnorms(b, v.per_trace_factors(), stack)[0])


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


def _flattened_blocks(b: StandardSubalgebra, k: int) -> list[int]:
    """Fine block sizes of summand k (0-based), one entry per copy."""
    out = []
    for n, m in b.partitions[k].terms:
        out.extend([n] * m)
    return out


def _phase_stage(b: StandardSubalgebra) -> PipelineStage:
    shape = b.shape
    fine = [_flattened_blocks(b, k) for k in range(shape.num_summands)]
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


def _shift_matrix(size: int, shift: int) -> np.ndarray:
    m = np.zeros((size, size))
    for a in range(size):
        m[a, (a + shift) % size] = 1.0
    return m


def _circulant_stage(b: StandardSubalgebra) -> PipelineStage:
    shape = b.shape
    mults = [m for part in b.partitions for _, m in part.terms]
    ell = lcm(*mults)
    members = []
    for j in range(ell):
        mats = []
        for k in range(shape.num_summands):
            blocks = []
            for n, m in b.partitions[k].terms:
                blocks.append(_shift_matrix(n * m, (j % m) * n))
            d = shape.dims[k]
            full = np.zeros((d, d))
            pos = 0
            for blk in blocks:
                s = blk.shape[0]
                full[pos : pos + s, pos : pos + s] = blk
                pos += s
            mats.append(full)
        members.append(AlgebraElement(shape, mats))
    return PipelineStage("circulant-shift", tuple(members))


def _permutation_stage(b: StandardSubalgebra, v: TracialWeight) -> PipelineStage:
    # Diagonal blocks in the block-diagonal embedding into M_d.
    base = np.cumsum((0,) + b.shape.dims)
    occ = [
        [(int(base[k - 1]) + off, n) for k, off in o]
        for o, n in zip(b.occurrences, b._group_sizes)
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
        final = 1.0 / float(np.max(_weighted_denominators(b, v.per_trace_factors())))
    return ConjugationPipeline(b.shape, tuple(stages), final)
