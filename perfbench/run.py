"""frnorms benchmark: closed-loop workloads, each pass in a fresh process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A run makes round(seconds / pass budget) passes of the workload (at
least one), so the work done depends on --seconds and not on how fast
the program is.  Each pass is one worker process with a single caller,
BLAS pinned to one thread, the process pinned to the quieter CPU, and a
cold start: the tower's level cache starts empty as it does for a
command-line user.  Set-up time is the time from starting a worker until
its inputs are built; it is measured on every pass and on extra
set-up-only workers, at least five times per run, and reported as the
median.  Every time reported is scaled to the machine's nominal speed by
the calibration kernel that runs between the calls (see calib.py); the
record in perfbench/out/ keeps the raw times next to them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each pass twice
on the same inputs, untraced and traced, and prints the per-layer
metrics of the traced passes, with the difference of the two wall times
as trace.overhead_s.  Every output is checked (see workloads.py); the
last line of stdout is the JSON result, and a record with the
provenance and the raw per-pass data goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
# The two CPUs of the host this was tuned on slow down independently of
# each other, so each worker runs pinned to whichever CPU this many loop
# steps find faster.
QUIET_LOOP = 500000

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_excess", "_err")):
        return "ratio"
    return "count"


def quietest_cpu():
    """The CPU, of those this process may use, on which a fixed
    interpreter loop runs fastest right now."""
    cpus = os.sched_getaffinity(0)
    loop_s = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            sum(i * i for i in range(QUIET_LOOP))
            loop_s[cpu] = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    return min(loop_s, key=loop_s.get)


def spawn(spec, env):
    """Run one worker, pinned to the quietest CPU; return (raw set-up
    seconds, parsed result)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {quietest_cpu()})
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
    finally:
        os.sched_setaffinity(0, cpus)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker {spec['mode']} pass {spec['index']} exited with code {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(calls_ms):
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls
    beyond it.  With too few calls for that percentile to lie above the
    median, the slowest call (p100) stands in for it."""
    ordered = sorted(calls_ms)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 2:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(w, seed, seconds, trace, size):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    OUT.mkdir(exist_ok=True)
    base = {"workload": w.name, "size": size, "seed": seed, "kernel": w.kernel}
    tag = f"{w.name}-seed{seed}-trace{trace}"
    raw_setups, setups, untraced, traced = [], [], [], []

    def run_pass(spec, into):
        raw, res = spawn({**base, **spec}, env)
        raw_setups.append(raw)
        setups.append(raw * res["setup_scale"])
        if into is not None:
            into.append(res)

    if trace:
        for i in range(max(1, round(seconds / (2 * w.pass_budget_s)))):
            run_pass({"index": i, "mode": "untraced"}, untraced)
            trace_path = OUT / f"{tag}-pass{i}.spans.json"
            run_pass({"index": i, "mode": "traced", "trace": str(trace_path)}, traced)
    else:
        for i in range(max(1, round(seconds / w.pass_budget_s))):
            run_pass({"index": i, "mode": "untraced"}, untraced)
        for i in range(len(untraced), MIN_SETUPS):
            run_pass({"index": i, "mode": "setup"}, None)

    passes = untraced + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    accuracy = {}
    for r in passes:
        for k, v in r["accuracy"].items():
            accuracy[k] = max(accuracy.get(k, v), v)
    notes = {"passes": len(untraced)}
    if trace:
        layers = {
            k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]
        }
        layers["constants.search_excess"] = accuracy.get("search_excess", 0.0)
        layers["effros_shen.const_err"] = accuracy.get("tower_const_err", 0.0)
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        notes["functions_wrapped"] = traced[0]["wrapped"]
    else:
        calls = [ms for r in untraced for ms in r["calls_ms"]]
        tail_ms, pct = tail(calls)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "call_p50_ms": statistics.median(calls),
            "call_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        notes["calls"] = len(calls)
        notes["call_tail_percentile"] = pct
        notes["setups"] = len(setups)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "result": result,
        "accuracy": accuracy,
        "notes": notes,
        "provenance": provenance(w, seed, seconds, trace, size),
        "failures": [f for r in passes for f in r["failures"]],
        "passes": {
            "untraced": untraced,
            "traced": traced,
            "setup_s": setups,
            "raw_setup_s": raw_setups,
        },
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def provenance(w, seed, seconds, trace, size):
    import numpy

    import calib
    import reference

    prov = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seed_enters_inputs": not w.deterministic,
        "seconds": seconds,
        "pass_budget_s": w.pass_budget_s,
        "calibration_kernel": w.kernel,
        "kernel_nominal_s": calib.KERNELS[w.kernel][1],
        "calibration_every_s": calib.CAL_EVERY_S,
        "trace": trace,
        "size": size,
        "params": repr(w.sizes[size]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: BLAS_THREADS for k in BLAS_ENV},
        "platform": platform.platform(),
    }
    if w.searches:
        prov["sharp_source"] = reference.SHARP_SOURCE
        prov["sharp"] = reference.SHARP
    return prov


def report(result, record):
    notes = record["notes"]
    prov = record["provenance"]
    print(f"== {prov['workload']}: {prov['why']}")
    for key in ("seed", "seed_enters_inputs", "seconds", "params", "python", "numpy", "nproc", "blas_threads"):
        print(f"   {key}: {prov[key]}")
    if "sharp_source" in prov:
        print(f"   sharp constants: {len(prov['sharp'])} stored, from {prov['sharp_source']}")
    print(f"   notes: {json.dumps(notes)}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "call_tail_ms":
            extra = f"  (p{notes['call_tail_percentile']:.1f} of {notes['calls']} calls)"
        print(f"   {name:32s} {m['value']:.6g} {m['unit']}{extra}")
    for key, value in sorted(record["accuracy"].items()):
        print(f"   {key:32s} {value:.3g} (accuracy, checked)")
    print(f"   checks: {result['attempted'] - result['failed']}/{result['attempted']} calls correct")
    for f in record["failures"][:10]:
        print(f"   FAIL {f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="frnorms benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in about a second (smoke check)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "frnorms" / "__init__.py").is_file():
        print(f"error: no frnorms sources under {SRC}", file=sys.stderr)
        return 2
    for k in BLAS_ENV:
        os.environ[k] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, args.size)
        report(result, record)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
