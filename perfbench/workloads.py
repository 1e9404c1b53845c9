"""The four workloads: inputs, the timed calls, and the output checks.

Each workload is one closed-loop caller: the next call starts when the
previous one returned.  The program is reached only through module
attributes (``constants.table1``), so the tracer's wrappers see every
call.  ``setup`` builds the inputs from the seed, ``timed`` makes the
calls through ``clock.measure`` (see calib.py) and returns the outputs,
``check`` verifies the outputs after the clock stopped and reports each
wrong one through ``fail(call label, message)``.  ``kernel`` names the
calibration kernel whose mix of work is closest to the workload's.
"""
from __future__ import annotations

import math

import numpy as np

from frnorms import algebra, constants, effros_shen, expectation, fleet

import reference

TOL = 1e-9
# A refined search may stop above the sharp constant, but not by more
# than this; a faster search that lands further off is a wrong answer.
SEARCH_EXCESS_TOL = 1e-3
# Relative tolerance between the closed-form expectation and the Gram
# projection oracle.
GRAM_RTOL = 1e-10


def _pass_seeds(seed, index, count):
    return np.random.SeedSequence([seed, index]).generate_state(count)


def _check_search(fail, label, best, sharp, bound, refine):
    low = max(sharp, bound) - TOL
    if not low <= best <= 1.0 + TOL:
        fail(label, f"best_ratio {best!r} outside [{low!r}, 1]")
    elif refine and best - sharp > SEARCH_EXCESS_TOL:
        fail(label, f"best_ratio {best!r} exceeds sharp {sharp!r} by more than {SEARCH_EXCESS_TOL}")
    return best - sharp


class TableSearch:
    name = "table-search"
    why = (
        "table1 with refined search on 16 single-summand rows in M_3..M_5: "
        "10000-matrix stacks through the batched eigen layer, then 200 refine "
        "rounds of small stacks where per-call overhead dominates"
    )
    sizes = {"full": {"samples": 10000, "refine": True}, "tiny": {"samples": 200, "refine": False}}
    pass_budget_s = 32.0
    kernel = "batch"
    searches = True
    deterministic = False

    def setup(self, p, seed, index):
        return {"seed": int(_pass_seeds(seed, index, 1)[0]), **p}

    def timed(self, inp, clock, refine=None):
        refine = inp["refine"] if refine is None else refine
        search = constants.empirical_sharp_constant

        def timed_search(*args, **kwargs):
            return clock.measure(search, *args, **kwargs)

        constants.empirical_sharp_constant = timed_search
        try:
            return constants.table1(samples=inp["samples"], seed=inp["seed"], refine=refine)
        finally:
            constants.empirical_sharp_constant = search

    def check(self, inp, rows, fail):
        if len(rows) != len(constants.TABLE1_SPECS):
            fail("table1", f"returned {len(rows)} rows")
        excess = []
        for row in rows:
            sharp = reference.SHARP[row.label]
            excess.append(
                _check_search(fail, row.label, row.empirical, sharp, row.theoretical, inp["refine"])
            )
            if row.flagged != (row.label in reference.FLAGGED_ROWS):
                fail(row.label, f"flagged={row.flagged}")
        return {"search_excess": max(excess)}


class FleetSearch:
    name = "fleet-search"
    why = (
        "refined search on the 14 fixtures (multi-summand, cross-summand, tower, "
        "conjugated), mostly n<=3, where a small-n eigen cost shows"
    )
    sizes = {"full": {"samples": 5000, "refine": True}, "tiny": {"samples": 200, "refine": False}}
    pass_budget_s = 10.0
    kernel = "stack"
    searches = True
    deterministic = False

    def setup(self, p, seed, index):
        fixtures = fleet.build_fleet()
        seeds = _pass_seeds(seed, index, len(fixtures))
        return {**p, "problems": [(fx, int(s)) for fx, s in zip(fixtures, seeds)]}

    def timed(self, inp, clock, refine=None):
        refine = inp["refine"] if refine is None else refine
        return [
            clock.measure(
                constants.empirical_sharp_constant,
                fx.subalgebra, fx.weight, samples=inp["samples"], seed=seed, refine=refine,
            )
            for fx, seed in inp["problems"]
        ]

    def check(self, inp, reports, fail):
        excess = []
        for (fx, _), rep in zip(inp["problems"], reports):
            bound, _ = constants.theoretical_bound(fx.subalgebra, fx.weight)
            excess.append(
                _check_search(fail, fx.name, rep.best_ratio, reference.SHARP[fx.name], bound, inp["refine"])
            )
        return {"search_excess": max(excess)}


class Tower:
    name = "tower"
    why = (
        "effros-shen levels 2..cap for periods (1), (2), (1,2): subalgebra build "
        "and memory, no eigen calls, cold level cache"
    )
    sizes = {
        "full": {"levels": {(1,): 13, (2,): 7, (1, 2): 10}},
        "tiny": {"levels": {(1,): 6, (2,): 4, (1, 2): 5}},
    }
    pass_budget_s = 2.5
    kernel = "batch"
    searches = False
    # The seed does not enter: every pass builds the same levels.
    deterministic = True

    def setup(self, p, seed, index):
        return {"levels": [(period, n) for period, cap in p["levels"].items() for n in range(2, cap + 1)]}

    @staticmethod
    def level(period, n):
        theta, cf = effros_shen.periodic_theta(period, n)
        lev = effros_shen.es_level(theta, n, cf)
        sc = constants.structural_constants(lev.subalgebra, lev.weight)
        c = effros_shen.es_constant(theta, n, cf)
        return lev.shape.dims, sc.bound, c

    def timed(self, inp, clock, refine=None):
        return [clock.measure(self.level, period, n) for period, n in inp["levels"]]

    def check(self, inp, out, fail):
        worst = 0.0
        for (period, n), (dims, bound, c) in zip(inp["levels"], out):
            label = f"period {period} level {n}"
            q = reference.convergent_denominators(period, n)
            if tuple(dims) != (q[n], q[n - 1]):
                fail(label, f"shape {dims} != {(q[n], q[n - 1])}")
            if not abs(bound - c) < 1e-12:
                fail(label, f"structural bound {bound!r} != es_constant {c!r}")
            if len(period) == 1:
                worst = max(worst, abs(c - reference.tower_constant(period[0])))
        return {"tower_const_err": worst}


class NormCalls:
    name = "norm-calls"
    why = (
        "fr_norm_squared, element_norm and cond_expect on random elements of the "
        "fixtures and golden levels 6-8 (dims up to 34): the scalar eigen path"
    )
    sizes = {
        "full": {"per_problem": 8, "levels": (6, 7, 8)},
        "tiny": {"per_problem": 1, "levels": (6,)},
    }
    pass_budget_s = 4.0
    kernel = "scalar"
    searches = False
    deterministic = False

    def setup(self, p, seed, index):
        problems = [(fx.name, fx.subalgebra, fx.weight) for fx in fleet.build_fleet()]
        for n in p["levels"]:
            theta, cf = effros_shen.periodic_theta((1,), n)
            lev = effros_shen.es_level(theta, n, cf)
            problems.append((f"golden-{n}", lev.subalgebra, lev.weight))
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        work = []
        for name, b, v in problems:
            for _ in range(p["per_problem"]):
                mats = [
                    rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for d in v.shape.dims
                ]
                work.append((name, b, v, algebra.AlgebraElement(v.shape, mats)))
        order = rng.permutation(len(work))
        return {"work": [work[i] for i in order]}

    @staticmethod
    def norms(b, v, a):
        return (
            expectation.fr_norm_squared(b, v, a),
            algebra.element_norm(a),
            expectation.cond_expect(b, v, a),
        )

    def timed(self, inp, clock, refine=None):
        return [clock.measure(self.norms, b, v, a) for _, b, v, a in inp["work"]]

    def check(self, inp, out, fail):
        bounds, gram_checked = {}, set()
        for i, ((name, b, v, a), (fr2, op, proj)) in enumerate(zip(inp["work"], out)):
            if name not in bounds:
                bounds[name] = constants.theoretical_bound(b, v)[0]
            fr = math.sqrt(fr2)
            if not bounds[name] * op - TOL <= fr <= op + TOL:
                fail(f"{name} #{i}", f"induced norm {fr!r} outside [{bounds[name]!r} * {op!r}, {op!r}]")
            if name not in gram_checked:
                gram_checked.add(name)
                gap = algebra.element_norm(proj - expectation.cond_expect_gram(b, v, a))
                if not gap <= GRAM_RTOL * max(1.0, op):
                    fail(f"{name} #{i}", f"cond_expect and cond_expect_gram differ by {gap:.3e}")
        return {}


WORKLOADS = {w.name: w for w in (TableSearch(), FleetSearch(), Tower(), NormCalls())}
