"""Continued-fraction towers of finite-dimensional algebras.

For an irrational theta in (0,1) with continued-fraction terms r_1,
r_2, ... the level-n algebra is M_{q_n} + M_{q_{n-1}} (convergent
denominators q) and the level n-1 algebra embeds into it as

    (A, B) -> (diag(A, ..., A, B), A)

with r_n copies of A.  The image is a standard subalgebra with a
cross-summand grouping, so the general equivalence-constant machinery
applies; ``es_constant`` evaluates the resulting closed-form constant
directly from the convergents, and agreement with ``theoretical_bound``
on the constructed level is the module's central consistency check.

Rationality guard: the Gauss map aborts when a remainder drops below
1e-13, which is the operational definition of "irrational to working
precision" used throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape, TracialWeight
from .constants import structural_constants
from .errors import InputError, RationalityError, WeightError
from .subalgebra import StandardSubalgebra, make_standard_subalgebra

GAUSS_REMAINDER_TOL = 1e-13
_INT64_MAX = 2**63 - 1


def convergent_residual(theta: float, q: int, p: int) -> float:
    """theta*q - p in extended precision.

    The residual shrinks like 1/q while the products grow like q, so
    plain double arithmetic loses up to log2(q^2) bits to cancellation;
    the 80-bit accumulator keeps the relative error near machine
    precision for every denominator in the 64-bit range.
    """
    return float(np.longdouble(theta) * q - p)


@dataclass(frozen=True)
class ContinuedFraction:
    """Terms (r_0, r_1, ..., r_depth) with r_0 >= 0 and r_n >= 1 after."""

    r: tuple[int, ...]

    def __post_init__(self):
        if len(self.r) < 2:
            raise InputError("need at least terms r_0 and r_1")
        if self.r[0] < 0:
            raise InputError("r_0 must be nonnegative")
        for n, term in enumerate(self.r[1:], start=1):
            if term < 1:
                raise InputError(f"term r_{n} = {term} must be a positive integer")

    @property
    def depth(self) -> int:
        return len(self.r) - 1

    @property
    def tail(self) -> tuple[int, ...]:
        """The positive-integer sequence (r_1, r_2, ...)."""
        return self.r[1:]


def cf_expand(theta: float, depth: int) -> ContinuedFraction:
    """Continued-fraction terms of theta in (0,1) by the Gauss map.

    Raises RationalityError when a remainder falls below the guard
    threshold, which happens exactly when theta is rational (or
    indistinguishable from rational) within the requested depth.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    if not 0.0 < theta < 1.0:
        raise InputError("theta must lie strictly between 0 and 1")
    terms = [0]
    x = float(theta)
    for n in range(1, depth + 1):
        if x < GAUSS_REMAINDER_TOL:
            raise RationalityError(
                f"remainder {x:.3e} below {GAUSS_REMAINDER_TOL:g} at term {n}; "
                "theta is rational to working precision"
            )
        inv = 1.0 / x
        term = int(np.floor(inv))
        x = inv - term
        if x < GAUSS_REMAINDER_TOL:
            raise RationalityError(
                f"remainder {x:.3e} below {GAUSS_REMAINDER_TOL:g} after term {n}; "
                "theta is rational to working precision"
            )
        terms.append(term)
    return ContinuedFraction(tuple(terms))


@dataclass(frozen=True)
class ConvergentTable:
    """Convergent numerators p_n and denominators q_n, indexed from 0."""

    p: tuple[int, ...]
    q: tuple[int, ...]


def convergent_table(cf: ContinuedFraction) -> ConvergentTable:
    """All convergents up to the fraction's depth, exact integers.

    Denominators are capped at the 64-bit range; the recurrence raises
    once q_n would exceed it, so every emitted value round-trips through
    fixed-width integer formats.
    """
    p = [cf.r[0], cf.r[0] * cf.r[1] + 1]
    q = [1, cf.r[1]]
    for n in range(2, cf.depth + 1):
        p.append(cf.r[n] * p[n - 1] + p[n - 2])
        q.append(cf.r[n] * q[n - 1] + q[n - 2])
        if q[n] > _INT64_MAX:
            raise InputError(
                f"convergent denominator q_{n} exceeds the 64-bit integer range"
            )
    return ConvergentTable(tuple(p[: cf.depth + 1]), tuple(q[: cf.depth + 1]))


def convergents(cf: ContinuedFraction, n: int) -> tuple[int, int]:
    """The pair (p_n, q_n); n must not exceed the available depth."""
    if n < 0 or n > cf.depth:
        raise IndexError(f"convergent index {n} outside [0, {cf.depth}]")
    table = convergent_table(cf)
    return table.p[n], table.q[n]


def _tail_value(period: tuple[int, ...]) -> float:
    """Value of the purely periodic fraction [0; period, period, ...].

    The value is the positive root of
    q_{K-1} x^2 + (q_K - p_{K-1}) x - p_K = 0 built from the convergents
    of one period.
    """
    cf = ContinuedFraction((0,) + tuple(period))
    table = convergent_table(cf)
    k = cf.depth
    a = table.q[k - 1]
    b = table.q[k] - table.p[k - 1]
    c = -table.p[k]
    disc = b * b - 4 * a * c
    return (-b + np.sqrt(float(disc))) / (2.0 * a)


def periodic_theta(period, depth: int) -> tuple[float, ContinuedFraction]:
    """Quadratic irrational with repeating terms, plus its exact prefix.

    The returned fraction repeats the period out to the requested depth,
    so deep levels use exact integer terms instead of the floating Gauss
    map.
    """
    period = tuple(int(t) for t in period)
    if not period or any(t < 1 for t in period):
        raise InputError("period must be a nonempty list of positive integers")
    if depth < 1:
        raise InputError("depth must be at least 1")
    reps = -(-depth // len(period))
    terms = (period * reps)[:depth]
    theta = _tail_value(period)
    return float(theta), ContinuedFraction((0,) + terms)


def eventually_periodic_theta(prefix, period, depth: int) -> tuple[float, ContinuedFraction]:
    """Irrational with the given initial terms followed by a repeating tail."""
    prefix = tuple(int(t) for t in prefix)
    period = tuple(int(t) for t in period)
    if any(t < 1 for t in prefix):
        raise InputError("prefix terms must be positive integers")
    if not period or any(t < 1 for t in period):
        raise InputError("period must be a nonempty list of positive integers")
    if depth < 1:
        raise InputError("depth must be at least 1")
    tail = _tail_value(period)
    # Complete quotient entering after the prefix.
    c = 1.0 / tail
    # Convergents of [0; prefix] with the standard seeds p_{-1}=1, q_{-1}=0.
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for term in prefix:
        p_prev, p_cur = p_cur, term * p_cur + p_prev
        q_prev, q_cur = q_cur, term * q_cur + q_prev
    theta = (p_cur * c + p_prev) / (q_cur * c + q_prev)
    reps = -(-max(depth - len(prefix), 1) // len(period))
    terms = (prefix + period * reps)[:depth]
    return float(theta), ContinuedFraction((0,) + terms)


def baire_distance(x, y) -> float:
    """Distance 2^(-n) with n the first index (1-based) where x, y differ.

    Sequences of equal length that agree everywhere have distance 0;
    when one is a proper prefix of the other the first possible
    disagreement is just past the common range.
    """
    x = tuple(x)
    y = tuple(y)
    n = _common_prefix(x, y)
    if n == len(x) == len(y):
        return 0.0
    return 2.0 ** (-(n + 1))


def _common_prefix(x, y) -> int:
    """Length of the longest common prefix of the sequences x and y."""
    n = 0
    for a, b in zip(x, y):
        if a != b:
            break
        n += 1
    return n


def es_weight_t(theta: float, n: int, cf: ContinuedFraction | None = None) -> float:
    """The first-summand trace weight t = (-1)^(n-1) q_n (theta q_{n-1} - p_{n-1})."""
    if n < 1:
        raise ValueError("weight index must be at least 1")
    if cf is None:
        cf = cf_expand(theta, n)
    table = convergent_table(cf)
    t = (-1.0) ** (n - 1) * table.q[n] * convergent_residual(
        theta, table.q[n - 1], table.p[n - 1]
    )
    if not 0.0 < t < 1.0:
        raise WeightError(
            f"level weight t = {t} falls outside (0,1); "
            "theta and its continued fraction are inconsistent"
        )
    return float(t)


@dataclass(frozen=True)
class EffrosShenLevel:
    """One level of the tower: the algebra, embedded subalgebra, weight."""

    n: int
    theta: float
    shape: AlgebraShape
    subalgebra: StandardSubalgebra
    weight: TracialWeight
    t: float
    r_n: int
    p: tuple[int, ...]
    q: tuple[int, ...]


def es_level(theta: float, n: int, cf: ContinuedFraction | None = None) -> EffrosShenLevel:
    """The level-n algebra M_{q_n} + M_{q_{n-1}} with the embedded image
    of level n-1 and the weight (t, 1-t).

    The subalgebra realizes (A, B) -> (diag(A, ..., A, B), A): one group
    ties the r_n first-summand copies of A to the second summand, the B
    block stays on its own.
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    if cf is None:
        cf = cf_expand(theta, n)
    elif cf.depth < n:
        raise InputError(f"continued fraction depth {cf.depth} below level {n}")
    table = convergent_table(cf)
    t = es_weight_t(theta, n, cf)
    q_n, q_n1, q_n2 = table.q[n], table.q[n - 1], table.q[n - 2]
    sub = make_standard_subalgebra(
        (q_n, q_n1),
        [((q_n1, cf.r[n]), (q_n2, 1)), ((q_n1, 1),)],
        [[(1, 1), (2, 1)], [(1, 2)]],
    )
    weight = TracialWeight(sub.shape, (t, 1.0 - t))
    return EffrosShenLevel(
        n=n,
        theta=float(theta),
        shape=sub.shape,
        subalgebra=sub,
        weight=weight,
        t=t,
        r_n=cf.r[n],
        p=table.p[: n + 1],
        q=table.q[: n + 1],
    )


def _tower_constant(num: float, den: float, r_n: int) -> float:
    """sqrt(num / (den r_n (r_n + 1)^2)) for the residuals num and den."""
    return float(np.sqrt(num / (den * r_n * (r_n + 1) ** 2)))


def es_constant(theta: float, N: int, cf: ContinuedFraction | None = None) -> float:
    """Closed-form equivalence constant at level N.

    Evaluates sqrt(|theta q_N - p_N| / (|theta q_{N-2} - p_{N-2}|
    r_N (r_N + 1)^2)).  Both signed quantities (-1)^N (theta q_N - p_N)
    and (-1)^(N-2)(theta q_{N-2} - p_{N-2}) are positive, so absolute
    values implement the sign-corrected reading.
    """
    if N < 2:
        raise ValueError("level must be at least 2")
    if cf is None:
        cf = cf_expand(theta, N)
    table = convergent_table(cf)
    num = abs(convergent_residual(theta, table.q[N], table.p[N]))
    den = abs(convergent_residual(theta, table.q[N - 2], table.p[N - 2]))
    return _tower_constant(num, den, cf.r[N])


@dataclass(frozen=True)
class ContinuityEntry:
    """Comparison of the level-N constant at theta and one perturbation."""

    eta: float
    agreement_depth: int
    baire: float
    constant_theta: float
    constant_eta: float
    constant_eta_mixed: float
    gap: float
    lipschitz_ratio: float


@dataclass(frozen=True)
class ContinuityReport:
    theta: float
    level: int
    entries: tuple[ContinuityEntry, ...]


def continuity_probe(
    theta: float,
    perturbations,
    N: int,
    cf: ContinuedFraction | None = None,
    perturbation_cfs=None,
) -> ContinuityReport:
    """Constant gaps at level N for perturbed inputs.

    For each perturbation eta the entry records how deep the
    continued-fraction prefixes agree (out of N+1 terms), the Baire
    distance of the term sequences, both constants, their gap, and the
    ratio gap/|theta - eta|.  ``constant_eta_mixed`` re-evaluates eta's
    constant with theta multiplying the denominator convergent, the
    alternative reading of the limit formula; with matching prefixes the
    two readings differ by O(|theta - eta|).
    """
    if N < 2:
        raise ValueError("level must be at least 2")
    depth = N + 1
    if cf is None:
        cf = cf_expand(theta, depth)
    elif cf.depth < depth:
        raise InputError(f"continued fraction depth {cf.depth} below {depth}")
    c_theta = es_constant(theta, N, cf)
    if perturbation_cfs is None:
        perturbation_cfs = [None] * len(perturbations)
    entries = []
    for eta, eta_cf in zip(perturbations, perturbation_cfs):
        if eta_cf is None:
            eta_cf = cf_expand(eta, depth)
        elif eta_cf.depth < depth:
            raise InputError(f"perturbation depth {eta_cf.depth} below {depth}")
        agree = _common_prefix(cf.tail[:depth], eta_cf.tail[:depth])
        d_b = baire_distance(cf.tail[:depth], eta_cf.tail[:depth])
        c_eta = es_constant(eta, N, eta_cf)
        table = convergent_table(eta_cf)
        num = abs(convergent_residual(eta, table.q[N], table.p[N]))
        den = abs(convergent_residual(theta, table.q[N - 2], table.p[N - 2]))
        c_mixed = _tower_constant(num, den, eta_cf.r[N])
        gap = abs(c_theta - c_eta)
        ratio = gap / abs(theta - eta) if theta != eta else 0.0
        entries.append(
            ContinuityEntry(
                eta=float(eta),
                agreement_depth=agree,
                baire=d_b,
                constant_theta=c_theta,
                constant_eta=c_eta,
                constant_eta_mixed=c_mixed,
                gap=gap,
                lipschitz_ratio=ratio,
            )
        )
    return ContinuityReport(theta=float(theta), level=N, entries=tuple(entries))


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SQRT2_MINUS_1 = np.sqrt(2.0) - 1.0
SQRT3_MINUS_1 = np.sqrt(3.0) - 1.0
