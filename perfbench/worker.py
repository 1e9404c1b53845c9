"""One pass of one workload in a fresh process; started by run.py.

Usage: worker.py '<json spec>' with keys workload, size, seed, index,
mode ("setup", "untraced" or "traced") and, when traced, trace (path of
the span file to write).  Prints "ready" once the inputs are built, then
one JSON line: for mode "setup" only the set-up's scale (scaled over raw
time, see calib.py), otherwise the pass's results as well.
"""
from __future__ import annotations

import json
import resource
import sys

import calib


def main(spec):
    setup_clock = calib.Clock(calib.SETUP_KERNEL)
    setup_clock.start()
    from frnorms import constants

    import tracer as tracing
    from workloads import WORKLOADS

    tracer = None
    if spec["mode"] == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    w = WORKLOADS[spec["workload"]]
    inp = w.setup(w.sizes[spec["size"]], spec["seed"], spec["index"])
    setup_clock.stop()
    print("ready", flush=True)
    result = {"setup_scale": setup_clock.scaled_s() / setup_clock.raw_s()}
    if spec["mode"] == "setup":
        print(json.dumps(result), flush=True)
        return

    if tracer:
        tracer.run = "main"
    clock = calib.Clock(spec["kernel"])
    clock.start()
    out = w.timed(inp, clock)
    clock.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.run = "check"
    failures = {}
    accuracy = w.check(inp, out, lambda label, msg: failures.setdefault(label, msg))
    calls = len(clock.calls)
    if not calls:
        failures["pass"] = "no call was timed"
    result.update({
        "wall_s": clock.scaled_s(),
        "calls_ms": clock.scaled_calls_ms(),
        "raw_wall_s": clock.raw_s(),
        "kernel_ms": clock.kernel_s() * 1e3,
        "rss_mb": rss_mb,
        "attempted": max(calls, 1),
        "failed": min(len(failures), max(calls, 1)),
        "failures": [f"{k}: {v}" for k, v in sorted(failures.items())],
        "accuracy": accuracy,
    })
    if tracer:
        sampling = None
        if w.searches:
            # Same seeds with refine=False: the sampling phase alone, since
            # the sample streams do not depend on refine.
            sampling = tracer.run = "sampling"
            w.timed(inp, calib.Clock(spec["kernel"]), refine=False)
        result["layers"] = tracing.layer_metrics(
            tracer.spans, "main", sampling, clock, constants.REFINE_ROUNDS
        )
        result["wrapped"] = len(tracer.wrapped)
        tracer.dump(spec["trace"])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
