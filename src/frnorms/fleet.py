"""Shared fixture fleet and randomized self-checks.

The fleet covers the structural cases the invariant suites quantify
over: single-summand subalgebras from the reference table, direct sums
with trivial grouping, cross-summand groupings (including tower levels),
and a unitarily conjugated subalgebra.  ``run_selftest`` is the quick
end-to-end health check behind the CLI selftest subcommand.
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


def _check(results, name, passed, detail=""):
    results.append(CheckResult(name, bool(passed), detail))


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Quick invariant sweep over the fleet; returns one result per check.
    A ``seed`` that is not a non-negative integer is refused with
    ValueError."""
    results = []
    rng = np.random.default_rng(_checked_int(seed, "seed", 0))

    b2, v2 = _weight_one_pair(2, ((1, 1), (1, 1)))
    a = AlgebraElement(b2.shape, [np.array([[1.0, 2.0], [2.0, 1.0]])])
    vals = (
        fr_norm_squared(b2, v2, a),
        fr_norm_squared(b2, v2, a @ a),
    )
    _check(
        results,
        "induced-norm regression values",
        abs(vals[0] - 5.0) < 1e-10 and abs(vals[1] - 41.0) < 1e-10,
        f"got {vals[0]:.12g}, {vals[1]:.12g}",
    )

    ones = AlgebraElement(b2.shape, [np.ones((2, 2))])
    had = AlgebraElement(b2.shape, [np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)])
    rotated = conjugated_subalgebra(b2, had)
    vals = (fr_norm_squared(b2, v2, ones), fr_norm_squared(rotated, v2, ones))
    _check(
        results,
        "conjugation moves the induced norm",
        abs(vals[0] - 2.0) < 1e-10 and abs(vals[1] - 4.0) < 1e-10,
        f"got {vals[0]:.12g}, {vals[1]:.12g}",
    )

    rows = table1(samples=0)
    bad = [
        r.label
        for r in rows
        if r.flagged != (abs(r.reference_theoretical - r.theoretical) > 1e-12)
    ]
    _check(
        results,
        "reference table recomputation",
        len(rows) == 16 and not bad and sum(r.flagged for r in rows) == 1,
        f"{sum(r.flagged for r in rows)} flagged row(s)",
    )

    fleet = build_fleet()
    worst_dual = 0.0
    worst_axiom = 0.0
    for fx in fleet:
        for _ in range(10):
            x = random_element(fx.shape, rng)
            p1 = cond_expect(fx.subalgebra, fx.weight, x)
            p2 = cond_expect_gram(fx.subalgebra, fx.weight, x)
            worst_dual = max(worst_dual, element_norm(p1 - p2))
            worst_axiom = max(
                worst_axiom,
                element_norm(cond_expect(fx.subalgebra, fx.weight, p1) - p1),
                abs(
                    trace_state(fx.weight, p1) - trace_state(fx.weight, x)
                ),
                max(element_norm(p1) - element_norm(x), 0.0),
            )
    _check(
        results,
        "dual projection routes agree",
        worst_dual < 1e-10,
        f"worst gap {worst_dual:.3e}",
    )
    _check(
        results,
        "projection axioms (idempotent, trace-preserving, contractive)",
        worst_axiom < 1e-9,
        f"worst deviation {worst_axiom:.3e}",
    )

    worst_pipe = 0.0
    worst_pinch = 0.0
    for fx in fleet:
        sub, u = standard_form(fx.subalgebra)
        if u is not None:
            continue
        pipe = pipeline_for(sub, fx.weight)
        for _ in range(5):
            x = random_positive(fx.shape, rng)
            if sub.trivially_grouped:
                gap = element_norm(
                    apply_pipeline(pipe, x) - cond_expect(sub, fx.weight, x)
                )
                worst_pipe = max(worst_pipe, gap)
            for stage in pipe.stages:
                short = pinching_ratio(stage, x) - 1.0 / stage.size
                worst_pinch = max(worst_pinch, max(-short, 0.0))
    _check(
        results,
        "pinching pipeline matches the projection",
        worst_pipe < 1e-9,
        f"worst gap {worst_pipe:.3e}",
    )
    _check(
        results,
        "pinching keeps at least 1/size of the norm",
        worst_pinch < 1e-9,
        f"worst shortfall {worst_pinch:.3e}",
    )

    worst_low = 0.0
    worst_high = 0.0
    for fx in fleet:
        bound, _ = theoretical_bound(fx.subalgebra, fx.weight)
        for _ in range(10):
            x = random_element(fx.shape, rng)
            opn = element_norm(x)
            frn = fr_norm(fx.subalgebra, fx.weight, x)
            worst_low = max(worst_low, bound * opn - frn)
            worst_high = max(worst_high, frn - opn)
    _check(
        results,
        "norm sandwich bound * opnorm <= induced <= opnorm",
        worst_low < 1e-9 and worst_high < 1e-9,
        f"worst low {worst_low:.3e}, high {worst_high:.3e}",
    )

    worst_es = 0.0
    for _, theta, n in ES_FLEET:
        lev = es_level(theta, n)
        bound, _ = theoretical_bound(lev.subalgebra, lev.weight)
        worst_es = max(worst_es, abs(bound - es_constant(theta, n)))
    _check(
        results,
        "tower constant equals the structural bound",
        worst_es < 1e-12,
        f"worst gap {worst_es:.3e}",
    )
    return results
