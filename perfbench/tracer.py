"""Span tracer that wraps the program's public functions from outside.

Every public function of the layer modules is replaced, at every module
attribute that refers to it (``constants.cond_expect`` as well as
``expectation.cond_expect``), by a wrapper that records a span: name,
start, end, parent span and the phase (run id) it ran in.  Spans stay in
memory until ``dump`` writes them out.  ``layer_metrics`` turns the spans
of one pass into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("algebra", "linalg", "subalgebra", "expectation", "constants", "effros_shen")

# Validation and transpose helpers called once per matrix; a span around
# each would cost more than the work, so their time counts to the caller.
UNWRAPPED = frozenset({
    "linalg.as_matrix",
    "linalg.adjoint",
    "linalg.ensure_square",
    "linalg.ensure_hermitian",
})

BATCH = ("linalg.opnorm_batch", "linalg.hermitian_opnorm_batch", "linalg.jacobi_eigvals_batch")
SCALAR = (
    "linalg.jacobi_eigh",
    "linalg.hermitian_eigenvalues",
    "linalg.hermitian_opnorm",
    "linalg.operator_norm",
    "linalg.is_positive_semidefinite",
)
CF = (
    "effros_shen.cf_expand",
    "effros_shen.convergent_table",
    "effros_shen.convergents",
    "effros_shen.convergent_residual",
    "effros_shen.periodic_theta",
    "effros_shen.eventually_periodic_theta",
)
SUBALGEBRA_INIT = "subalgebra.StandardSubalgebra.__init__"
SEARCH = "constants.empirical_sharp_constant"

NAME, START, END, PARENT, RUN, NOTE = range(6)


def _stack_note(args, kwargs, result):
    shape = args[0].shape
    return [int(shape[0]), int(shape[1])]


def _matrix_note(args, kwargs, result):
    return int(args[0].shape[0])


def _basis_note(args, kwargs, result):
    # Sum of n_g^2 from the public description, so the count never forces
    # a lazily built basis into existence.
    sub = args[0]
    return sum(sub.partitions[g[0][0] - 1].terms[g[0][1] - 1][0] ** 2 for g in sub.groups)


def _search_note(args, kwargs, result):
    return [int(result.samples), bool(kwargs.get("refine", True)), int(result.refine_steps)]


NOTES = {
    "linalg.opnorm_batch": _stack_note,
    "linalg.hermitian_opnorm_batch": _stack_note,
    "linalg.jacobi_eigvals_batch": _stack_note,
    "linalg.jacobi_eigh": _matrix_note,
    SUBALGEBRA_INIT: _basis_note,
    SEARCH: _search_note,
}


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self.run = "setup"
        self.wrapped = []
        self._stack = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions everywhere the package refers to them."""
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"frnorms.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    replace[id(obj)] = (obj, self._wrap(name, obj))
                    self.wrapped.append(name)
        for name in [m for m in sys.modules if m == "frnorms" or m.startswith("frnorms.")]:
            module = sys.modules[name]
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        cls = importlib.import_module("frnorms.subalgebra").StandardSubalgebra
        cls.__init__ = self._wrap(SUBALGEBRA_INIT, cls.__init__)
        self.wrapped.append(SUBALGEBRA_INIT)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "run", "note"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def _self_times(spans, dur):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur(s)
    return [dur(s) - c for s, c in zip(spans, child)]


def _entries(spans, names, run_id):
    """Spans of ``run_id`` named in ``names`` with no ancestor named in
    ``names``: the calls that entered that group of functions from
    outside it."""
    names = set(names)
    out = []
    for s in spans:
        if s[RUN] != run_id or s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans, main, sampling, clock, refine_rounds):
    """Per-layer metrics of the timed pass (run id ``main``).

    ``sampling`` is the run id of the refine=False replay of the same
    searches, or None for workloads that search nothing; ``clock`` is
    the pass's calib.Clock.  Times are unscaled, and the calibration
    runs that interrupted a span are left out of its duration.
    """

    busy = clock.busy()

    def dur(s):
        return busy(s[START], s[END])

    def total_dur(group):
        return sum(dur(s) for s in group)

    selfs = _self_times(spans, dur)
    run = [s for s in spans if s[RUN] == main]
    run_self = [t for s, t in zip(spans, selfs) if s[RUN] == main]

    def self_of(pred, run_id=main):
        return sum(t for s, t in zip(spans, selfs) if s[RUN] == run_id and pred(s[NAME]))

    m = {}
    # A call that raised carries no note; the counts leave it out.
    batch = [s for s in _entries(spans, BATCH, main) if s[NOTE] is not None]
    m["linalg.batch_calls"] = len(batch)
    m["linalg.batch_mats"] = sum(s[NOTE][0] for s in batch)
    m["linalg.batch_n3"] = sum(s[NOTE][0] * s[NOTE][1] ** 3 for s in batch)
    m["linalg.batch_s"] = total_dur(batch)
    scalar = _entries(spans, SCALAR, main)
    m["linalg.scalar_calls"] = len(scalar)
    m["linalg.scalar_n3"] = sum(
        s[NOTE] ** 3 for s in run if s[NAME] == "linalg.jacobi_eigh" and s[NOTE] is not None
    )
    m["linalg.scalar_s"] = total_dur(scalar)

    searches = [s for s in run if s[NAME] == SEARCH and s[NOTE] is not None]
    refined = [s for s in searches if s[NOTE][1]]
    sample_s = self_of(lambda n: n == SEARCH, sampling) if sampling else 0.0
    m["constants.sample_s"] = sample_s
    m["constants.refine_s"] = self_of(lambda n: n == SEARCH) - sample_s if refined else 0.0
    m["constants.samples"] = sum(s[NOTE][0] for s in searches)
    m["constants.refine_accept_ratio"] = (
        sum(s[NOTE][2] for s in refined) / (refine_rounds * len(refined)) if refined else 0.0
    )
    m["constants.structural_s"] = total_dur(_entries(spans, ("constants.structural_constants",), main))

    builds = [s for s in run if s[NAME] == SUBALGEBRA_INIT and s[NOTE] is not None]
    m["subalgebra.builds"] = len(builds)
    m["subalgebra.basis_elems"] = sum(s[NOTE] for s in builds)
    m["subalgebra.build_s"] = total_dur(builds)
    setup_builds = [s for s in spans if s[RUN] == "setup" and s[NAME] == SUBALGEBRA_INIT]
    m["subalgebra.setup_builds"] = len(setup_builds)
    m["subalgebra.setup_build_s"] = total_dur(setup_builds)

    expect = _entries(spans, ("expectation.cond_expect",), main)
    m["expectation.cond_expect_calls"] = len(expect)
    m["expectation.cond_expect_s"] = total_dur(expect)
    m["expectation.fr_norm_s"] = self_of(
        lambda n: n in ("expectation.fr_norm", "expectation.fr_norm_squared")
    )

    m["effros_shen.level_s"] = self_of(lambda n: n == "effros_shen.es_level")
    m["effros_shen.constant_s"] = total_dur(_entries(spans, ("effros_shen.es_constant",), main))
    m["effros_shen.cf_s"] = total_dur(_entries(spans, CF, main))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for s, t in zip(run, run_self) if s[NAME].split(".", 1)[0] == layer
        )
    m["trace.spans"] = len(run)
    m["trace.wall_s"] = clock.raw_s()
    m["trace.unattributed_s"] = clock.raw_s() - total_dur([s for s in run if s[PARENT] < 0])
    return m
