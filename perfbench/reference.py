"""Reference values the benchmark checks the program against.

Nothing here imports the program: the values are derived from the
problem descriptions alone, so a change to the program cannot move its
own yardstick.
"""
from __future__ import annotations

import math

# Sharp equivalence constants, min ||a||_{v,B} / ||a||_op, per problem.
# Source: the rank-one bound of ROADMAP item 1,
#   sharp^2 = min_k w_k / sum_{slots i of k} den_{g(i)} * min(n_i, m_i)
# with w_k = v_k / d_k and den_g = sum_{(k, i) in g} w_k * m_{k,i}, evaluated
# by ``sharp_constant`` below on the 16 reference-table rows and the 14
# fixtures of ``frnorms.fleet.build_fleet``.  The fixture weights of the
# tower levels are the doubles the program computes for them, so those
# entries carry the last-digit rounding of that arithmetic.
SHARP_SOURCE = (
    "ROADMAP item 1 rank-one formula sharp^2 = min_k w_k / "
    "sum_i den_g(i) min(n_i, m_i), evaluated by perfbench/reference.py"
)
SHARP = {
    # reference table (single summand, weight 1)
    "B^3_{2,1}": 0.7071067811865476,
    "B^3_{1^2,1}": 0.5773502691896257,
    "B^4_{2,2}": 0.7071067811865476,
    "B^4_{2^2}": 0.5,
    "B^4_{2,1,1}": 0.5773502691896257,
    "B^4_{2,1^2}": 0.5773502691896257,
    "B^4_{1^3,1}": 0.5,
    "B^4_{1^2,1,1}": 0.5,
    "B^5_{3,2}": 0.7071067811865476,
    "B^5_{2,2,1}": 0.5773502691896257,
    "B^5_{2^2,1}": 0.4472135954999579,
    "B^5_{3,1,1}": 0.5773502691896257,
    "B^5_{3,1^2}": 0.5773502691896257,
    "B^5_{2,1,1,1}": 0.5,
    "B^5_{2,1^3}": 0.5,
    "B^5_{2,1^2,1}": 0.5,
    # fixture fleet
    "full-M2": 1.0,
    "diag-M2": 0.7071067811865476,
    "B3_1^2_1": 0.5773502691896257,
    "B4_2^2": 0.5,
    "B4_2_1_1": 0.5773502691896257,
    "B5_2_1^2_1": 0.5,
    "dsum-trivial": 0.7071067811865476,
    "dsum-cross": 0.3535533905932738,
    "threeway-cross": 0.3535533905932738,
    "es-golden-2": 0.6180339887498948,
    "es-golden-3": 0.6180339887498946,
    "es-sqrt2-2": 0.4142135623730948,
    "es-sqrt3-2": 0.5176380902050411,
    "circulant-M3": 0.5773502691896257,
}

# The one reference-table row whose stored theoretical constant disagrees
# with the recomputed one.
FLAGGED_ROWS = frozenset({"B^5_{2,1,1,1}"})


def sharp_constant(dims, weights, partitions, groups) -> float:
    """The rank-one formula behind SHARP.

    ``partitions`` holds per summand the (block size, multiplicity)
    terms, ``groups`` the 1-based (summand, slot) pairs identified with
    each other, as in ``make_standard_subalgebra``.
    """
    w = [v / d for v, d in zip(weights, dims)]
    group_of = {slot: gi for gi, g in enumerate(groups) for slot in g}
    den = [sum(w[k - 1] * partitions[k - 1][i - 1][1] for k, i in g) for g in groups]
    best = math.inf
    for k, terms in enumerate(partitions, start=1):
        total = sum(
            den[group_of[(k, i)]] * min(n, m) for i, (n, m) in enumerate(terms, start=1)
        )
        best = min(best, w[k - 1] / total)
    return math.sqrt(best)


def convergent_denominators(period, depth: int) -> list[int]:
    """q_0 .. q_depth of [0; period, period, ...], exact integers."""
    terms = [period[i % len(period)] for i in range(depth)]
    q = [1, terms[0]]
    for n in range(2, depth + 1):
        q.append(terms[n - 1] * q[n - 1] + q[n - 2])
    return q


def tower_constant(r: int) -> float:
    """Level-independent tower constant theta / ((r + 1) sqrt(r)) for the
    purely periodic fraction [0; r, r, ...], theta = (sqrt(r^2 + 4) - r) / 2."""
    theta = (math.sqrt(r * r + 4.0) - r) / 2.0
    return theta / ((r + 1) * math.sqrt(r))
