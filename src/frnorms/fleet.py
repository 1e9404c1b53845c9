"""Shared fixture fleet and randomized self-checks.

The fleet covers the structural cases the invariant suites quantify
over: single-summand subalgebras from the reference table, direct sums
with trivial grouping, cross-summand groupings (including tower levels),
and a unitarily conjugated subalgebra.  ``run_selftest`` is the quick
end-to-end health check behind the CLI selftest subcommand: after three
fixed-value checks (regression values, conjugation, the reference
table) it makes one pass over the fleet, in which ten random elements
per fixture feed the dual projection routes, the projection axioms and
the norm sandwich, five of their squares x*x per standard fixture feed
the pinching pipeline, and each fixture's certified bound feeds the
sandwich and, on the tower fixtures, the tower check.  Every check
reduces to one worst deviation against one tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    TracialWeight,
    element_norm,
    trace_state,
)
from .constants import _checked_int, _gaussian_stacks, _weight_one_pair, table1, theoretical_bound
from .effros_shen import GOLDEN, SQRT2_MINUS_1, SQRT3_MINUS_1, es_constant, es_level
from .expectation import (
    apply_pipeline,
    cond_expect,
    cond_expect_gram,
    fr_norm,
    fr_norm_squared,
    pipeline_for,
    pinching_ratio,
)
from .subalgebra import conjugated_subalgebra, make_standard_subalgebra, standard_form


@dataclass(frozen=True)
class Fixture:
    """One (subalgebra, weight) pair the invariant suites run against."""

    name: str
    subalgebra: object
    weight: TracialWeight

    @property
    def shape(self) -> AlgebraShape:
        return self.weight.shape


def random_element(shape: AlgebraShape, rng) -> AlgebraElement:
    return AlgebraElement(shape, [s[0] for s in _gaussian_stacks(rng, shape.dims, 1)])


def random_positive(shape: AlgebraShape, rng) -> AlgebraElement:
    a = random_element(shape, rng)
    return a.adjoint() @ a


def random_unitary(shape: AlgebraShape, rng) -> AlgebraElement:
    """Haar unitary, summand by summand: the QR factor q of a complex
    Gaussian matrix g = qr, with column j multiplied by the phase
    r_jj / |r_jj|.  Without that phase fix q is not Haar distributed
    (Mezzadri 2007, "How to generate random matrices from the classical
    compact groups")."""
    mats = []
    for g in _gaussian_stacks(rng, shape.dims, 1):
        q, r = np.linalg.qr(g[0])
        d = np.diagonal(r)
        mats.append(q * (d / np.abs(d)))
    return AlgebraElement(shape, mats)


def _single(name, d, terms):
    return Fixture(name, *_weight_one_pair(d, terms))


def _dft_matrix(d: int) -> np.ndarray:
    idx = np.arange(d)
    return np.exp(2j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)


# The tower fixtures: (label, theta, level), built by ``build_fleet`` and
# checked against the closed-form constant by ``run_selftest``.
ES_FLEET = (
    ("es-golden-2", GOLDEN, 2),
    ("es-golden-3", GOLDEN, 3),
    ("es-sqrt2-2", SQRT2_MINUS_1, 2),
    ("es-sqrt3-2", SQRT3_MINUS_1, 2),
)


def build_fleet() -> list[Fixture]:
    fleet = [
        _single("full-M2", 2, ((2, 1),)),
        _single("diag-M2", 2, ((1, 1), (1, 1))),
        _single("B3_1^2_1", 3, ((1, 2), (1, 1))),
        _single("B4_2^2", 4, ((2, 2),)),
        _single("B4_2_1_1", 4, ((2, 1), (1, 1), (1, 1))),
        _single("B5_2_1^2_1", 5, ((2, 1), (1, 2), (1, 1))),
    ]

    shape = AlgebraShape((2, 3))
    b = make_standard_subalgebra(
        shape,
        [((1, 1), (1, 1)), ((1, 1), (2, 1))],
        [[(1, 1)], [(1, 2)], [(2, 1)], [(2, 2)]],
    )
    fleet.append(Fixture("dsum-trivial", b, TracialWeight(shape, (1 / 3, 2 / 3))))

    shape = AlgebraShape((2, 2))
    b = make_standard_subalgebra(
        shape,
        [((1, 1), (1, 1)), ((1, 2),)],
        [[(1, 1), (2, 1)], [(1, 2)]],
    )
    fleet.append(Fixture("dsum-cross", b, TracialWeight(shape, (0.25, 0.75))))

    shape = AlgebraShape((2, 2, 1))
    b = make_standard_subalgebra(
        shape,
        [((1, 1), (1, 1)), ((1, 2),), ((1, 1),)],
        [[(1, 1), (2, 1), (3, 1)], [(1, 2)]],
    )
    fleet.append(
        Fixture("threeway-cross", b, TracialWeight(shape, (0.25, 0.5, 0.25)))
    )

    for label, theta, n in ES_FLEET:
        lev = es_level(theta, n)
        fleet.append(Fixture(label, lev.subalgebra, lev.weight))

    # Circulant matrices in M_3: the DFT conjugate of the diagonal algebra.
    diag3, v3 = _weight_one_pair(3, ((1, 1), (1, 1), (1, 1)))
    f3 = AlgebraElement(diag3.shape, [_dft_matrix(3)])
    fleet.append(Fixture("circulant-M3", conjugated_subalgebra(diag3, f3), v3))
    return fleet


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# The selftest's checks in print order, each with the tolerance its worst
# deviation must stay below.  The table check counts its disagreements.
_CHECKS = (
    ("induced-norm regression values", 1e-10),
    ("conjugation moves the induced norm", 1e-10),
    ("reference table recomputation", 1.0),
    ("dual projection routes agree", 1e-10),
    ("projection axioms (idempotent, trace-preserving, contractive)", 1e-9),
    ("pinching pipeline matches the projection", 1e-9),
    ("pinching keeps at least 1/size of the norm", 1e-9),
    ("norm sandwich bound * opnorm <= induced <= opnorm", 1e-9),
    ("tower constant equals the structural bound", 1e-12),
)


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """One result per entry of ``_CHECKS``: its worst deviation (>= 0)
    and whether that is below the check's tolerance.  A ``seed`` that is
    not a non-negative integer is refused with ValueError."""
    rng = np.random.default_rng(_checked_int(seed, "seed", 0))
    b2, v2 = _weight_one_pair(2, ((1, 1), (1, 1)))
    a = AlgebraElement(b2.shape, [np.array([[1.0, 2.0], [2.0, 1.0]])])
    ones = AlgebraElement(b2.shape, [np.ones((2, 2))])
    had = AlgebraElement(b2.shape, [np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)])
    rotated = conjugated_subalgebra(b2, had)
    rows = table1(samples=0)
    flagged = {r.label for r in rows if r.flagged}
    worst = [
        max(
            abs(fr_norm_squared(b2, v2, a) - 5.0),
            abs(fr_norm_squared(b2, v2, a @ a) - 41.0),
        ),
        max(
            abs(fr_norm_squared(b2, v2, ones) - 2.0),
            abs(fr_norm_squared(rotated, v2, ones) - 4.0),
        ),
        len(flagged ^ {"B^5_{2,1,1,1}"}) + abs(len(rows) - 16),
    ] + [0.0] * 6
    tower = {label: es_constant(theta, n) for label, theta, n in ES_FLEET}
    for fx in build_fleet():
        b, v = fx.subalgebra, fx.weight
        bound, _ = theoretical_bound(b, v)
        worst[8] = max(worst[8], abs(bound - tower.get(fx.name, bound)))
        sub, u = standard_form(b)
        pipe = pipeline_for(sub, v) if u is None else None
        for j in range(10):
            x = random_element(fx.shape, rng)
            p = cond_expect(b, v, x)
            opn = element_norm(x)
            frn = fr_norm(b, v, x)
            dual = element_norm(p - cond_expect_gram(b, v, x))
            axioms = max(
                element_norm(cond_expect(b, v, p) - p),
                abs(trace_state(v, p) - trace_state(v, x)),
                element_norm(p) - opn,
            )
            sandwich = max(bound * opn - frn, frn - opn)
            pipe_gap = 0.0
            pinch_short = 0.0
            # Five positives x*x per standard fixture feed the pipeline
            # (trivially grouped fixtures only) and every pinching stage.
            if pipe is not None and j < 5:
                y = x.adjoint() @ x
                if sub.trivially_grouped:
                    pipe_gap = element_norm(apply_pipeline(pipe, y) - cond_expect(sub, v, y))
                pinch_short = max(1.0 / s.size - pinching_ratio(s, y) for s in pipe.stages)
            devs = (dual, axioms, pipe_gap, pinch_short, sandwich)
            worst[3:8] = map(max, worst[3:8], devs)
    return [
        CheckResult(name, bool(w < tol), f"worst deviation {w:.3e}")
        for (name, tol), w in zip(_CHECKS, worst)
    ]
