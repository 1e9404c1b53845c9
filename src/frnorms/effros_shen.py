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

Every tower entry point takes theta and an optional continued fraction,
and ``_expansion`` alone decides which terms it uses: the given fraction,
refused when it is shallower than the level needs, or theta's Gauss-map
expansion.  ``_recurrence`` is the one convergent recurrence, behind
``convergent_table``, the periodic tail value and the prefix of
``eventually_periodic_theta``.

Rationality guard: ``cf_expand`` tests theta and each Gauss-map
remainder once and aborts when one drops below 1e-13, which is the
operational definition of "irrational to working precision" used
throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import _INT64_MAX, AlgebraShape, TracialWeight
from .errors import InputError, RationalityError, WeightError
from .linalg import checked_number
from .subalgebra import StandardSubalgebra, make_standard_subalgebra

GAUSS_REMAINDER_TOL = 1e-13
# Deepest continued fraction whose convergents fit the 64-bit range.  For
# any [r_0; r_1, r_2, ...], q_0 = 1, q_1 = r_1 >= 1 and
# q_n = r_n q_{n-1} + q_{n-2} >= q_{n-1} + q_{n-2}, so q_n >= F_{n+1}
# (Fibonacci, F_1 = F_2 = 1).  F_93 = 12200160415121876738 exceeds
# 2**63 - 1, so convergent_table refuses every depth above 91.
_MAX_DEPTH = 91


def _check_depth(depth: int) -> None:
    """Refuse a depth below 1, or one whose q_depth cannot fit 64 bits,
    before any term is built."""
    if depth < 1:
        raise InputError("depth must be at least 1")
    if depth > _MAX_DEPTH:
        raise InputError(
            f"depth {depth} exceeds {_MAX_DEPTH}: the convergent denominator "
            f"q_{_MAX_DEPTH + 1} of every continued fraction exceeds the 64-bit "
            "integer range"
        )


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
    """Terms (r_0, r_1, ..., r_depth) with r_0 >= 0 and r_n >= 1 after,
    stored as ints; a non-integral term is refused with InputError."""

    r: tuple[int, ...]

    def __post_init__(self):
        r = tuple(t if type(t) is int else checked_number(t, InputError) for t in self.r)
        if len(r) < 2:
            raise InputError("need at least terms r_0 and r_1")
        if r[0] < 0:
            raise InputError("r_0 must be nonnegative")
        for n, term in enumerate(r[1:], start=1):
            if term < 1:
                raise InputError(f"term r_{n} = {term} must be a positive integer")
        object.__setattr__(self, "r", r)

    @property
    def depth(self) -> int:
        return len(self.r) - 1

    @property
    def tail(self) -> tuple[int, ...]:
        """The positive-integer sequence (r_1, r_2, ...)."""
        return self.r[1:]

    @cached_property
    def _table(self) -> ConvergentTable:
        """The convergent table, built on first use and then kept on the
        fraction; read it through ``convergent_table``."""
        p, q = _recurrence(self.r)
        return ConvergentTable(tuple(p[2:]), tuple(q[2:]))


def cf_expand(theta: float, depth: int) -> ContinuedFraction:
    """Continued-fraction terms of theta in (0,1) by the Gauss map.

    Raises RationalityError when a remainder falls below the guard
    threshold, which happens exactly when theta is rational (or
    indistinguishable from rational) within the requested depth.
    """
    _check_depth(depth)
    if not 0.0 < theta < 1.0:
        raise InputError("theta must lie strictly between 0 and 1")
    terms, x = [0], float(theta)
    while x >= GAUSS_REMAINDER_TOL:
        if len(terms) > depth:
            return ContinuedFraction(tuple(terms))
        inv = 1.0 / x
        terms.append(math.floor(inv))
        x = inv - terms[-1]
    where = f"after term {len(terms) - 1}" if len(terms) > 1 else "at term 1"
    raise RationalityError(
        f"remainder {x:.3e} below {GAUSS_REMAINDER_TOL:g} {where}; "
        "theta is rational to working precision"
    )


def _expansion(theta: float, depth: int, cf: ContinuedFraction | None) -> ContinuedFraction:
    """cf, or theta's Gauss-map expansion to ``depth`` terms when cf is
    None; a cf shallower than ``depth`` is refused with InputError."""
    if cf is None:
        return cf_expand(theta, depth)
    if cf.depth < depth:
        raise InputError(f"continued fraction depth {cf.depth} below {depth}")
    return cf


@dataclass(frozen=True)
class ConvergentTable:
    """Convergent numerators p_n and denominators q_n, indexed from 0."""

    p: tuple[int, ...]
    q: tuple[int, ...]


def _recurrence(terms) -> tuple[list[int], list[int]]:
    """Convergents of [r_0; r_1, ...] as lists (p_{-2}, p_{-1}, p_0, ...)
    and (q_{-2}, q_{-1}, q_0, ...) from the seeds p_{-2}, p_{-1} = 0, 1 and
    q_{-2}, q_{-1} = 1, 0; refused with InputError as soon as a q_n exceeds
    the 64-bit range."""
    p, q = [0, 1], [1, 0]
    for n, r in enumerate(terms):
        p.append(r * p[-1] + p[-2])
        q.append(r * q[-1] + q[-2])
        if q[-1] > _INT64_MAX:
            raise InputError(f"convergent denominator q_{n} exceeds the 64-bit integer range")
    return p, q


def convergent_table(cf: ContinuedFraction) -> ConvergentTable:
    """All convergents up to the fraction's depth, exact integers.

    Denominators are capped at the 64-bit range; the recurrence raises
    once q_n would exceed it, so every emitted q round-trips through
    fixed-width integer formats.  Each fraction builds its table once;
    later calls on the same fraction return that table.
    """
    return cf._table


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
    p, q = _recurrence((0,) + period)
    a = q[-2]
    b = q[-1] - p[-2]
    c = -p[-1]
    disc = b * b - 4 * a * c
    return (-b + math.sqrt(disc)) / (2.0 * a)


def periodic_theta(period, depth: int) -> tuple[float, ContinuedFraction]:
    """Quadratic irrational with repeating terms, plus its exact prefix.

    The returned fraction repeats the period out to the requested depth,
    so deep levels use exact integer terms instead of the floating Gauss
    map.
    """
    return eventually_periodic_theta((), period, depth)


def eventually_periodic_theta(prefix, period, depth: int) -> tuple[float, ContinuedFraction]:
    """Irrational with the given initial terms followed by a repeating tail;
    with an empty prefix, the tail value itself."""
    prefix = tuple(t if type(t) is int else checked_number(t, InputError) for t in prefix)
    period = tuple(t if type(t) is int else checked_number(t, InputError) for t in period)
    if any(t < 1 for t in prefix):
        raise InputError("prefix terms must be positive integers")
    if not period or any(t < 1 for t in period):
        raise InputError("period must be a nonempty list of positive integers")
    _check_depth(depth)
    theta = _tail_value(period)
    if not 0.0 < theta < 1.0:
        # The root's formula cancels away once a period term nears 2e8.
        raise InputError(f"tail value {theta} of period {period} is not in (0, 1)")
    if prefix:
        # The complete quotient 1/tail enters after the convergents of [0; prefix].
        c = 1.0 / theta
        p, q = _recurrence((0,) + prefix)
        theta = (p[-1] * c + p[-2]) / (q[-1] * c + q[-2])
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
    return _weight_t(theta, n, convergent_table(_expansion(theta, n, cf)))


def _weight_t(theta: float, n: int, table: ConvergentTable) -> float:
    """The weight t of ``es_weight_t`` from a convergent table of depth at
    least n; a t outside (0,1) is refused with WeightError."""
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
    cf = _expansion(theta, n, cf)
    table = convergent_table(cf)
    t = _weight_t(theta, n, table)
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


def _tower_constant(theta: float, cf: ContinuedFraction, N: int) -> float:
    """sqrt(|theta q_N - p_N| / (|theta q_{N-2} - p_{N-2}| r_N (r_N + 1)^2))
    from the convergents and terms of cf, which reaches depth N."""
    table = convergent_table(cf)
    num = abs(convergent_residual(theta, table.q[N], table.p[N]))
    den = abs(convergent_residual(theta, table.q[N - 2], table.p[N - 2]))
    r_n = cf.r[N]
    return math.sqrt(num / (den * r_n * (r_n + 1) ** 2))


def es_constant(theta: float, N: int, cf: ContinuedFraction | None = None) -> float:
    """Closed-form equivalence constant at level N.

    Evaluates sqrt(|theta q_N - p_N| / (|theta q_{N-2} - p_{N-2}|
    r_N (r_N + 1)^2)).  Both signed quantities (-1)^N (theta q_N - p_N)
    and (-1)^(N-2)(theta q_{N-2} - p_{N-2}) are positive, so absolute
    values implement the sign-corrected reading.
    """
    if N < 2:
        raise ValueError("level must be at least 2")
    return _tower_constant(theta, _expansion(theta, N, cf), N)


@dataclass(frozen=True)
class ContinuityEntry:
    """Comparison of the level-N constant at theta and one perturbation."""

    eta: float
    agreement_depth: int
    baire: float
    constant_theta: float
    constant_eta: float
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
    ratio gap/|theta - eta|.  ``perturbation_cfs``, when given, holds one
    fraction (or None) per perturbation; a list of another length is
    refused with InputError before any expansion.
    """
    if N < 2:
        raise ValueError("level must be at least 2")
    if perturbation_cfs is not None and len(perturbation_cfs) != len(perturbations):
        raise InputError(
            f"{len(perturbation_cfs)} perturbation fractions for {len(perturbations)} perturbations"
        )
    depth = N + 1
    cf = _expansion(theta, depth, cf)
    c_theta = es_constant(theta, N, cf)
    if perturbation_cfs is None:
        perturbation_cfs = [None] * len(perturbations)
    entries = []
    for eta, eta_cf in zip(perturbations, perturbation_cfs):
        eta_cf = _expansion(eta, depth, eta_cf)
        agree = _common_prefix(cf.tail[:depth], eta_cf.tail[:depth])
        d_b = baire_distance(cf.tail[:depth], eta_cf.tail[:depth])
        c_eta = es_constant(eta, N, eta_cf)
        gap = abs(c_theta - c_eta)
        ratio = gap / abs(theta - eta) if theta != eta else 0.0
        entries.append(
            ContinuityEntry(
                eta=float(eta),
                agreement_depth=agree,
                baire=d_b,
                constant_theta=c_theta,
                constant_eta=c_eta,
                gap=gap,
                lipschitz_ratio=ratio,
            )
        )
    return ContinuityReport(theta=float(theta), level=N, entries=tuple(entries))


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SQRT2_MINUS_1 = np.sqrt(2.0) - 1.0
SQRT3_MINUS_1 = np.sqrt(3.0) - 1.0
