"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that
the last line carries exactly the metrics BENCHMARK.json names, with
their units, and that every output passed its checks.  It also checks
the stored sharp constants against their formula, and that the harness
refuses to run, without printing a result, where the program's sources
are missing.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(spec, workload, trace, errors):
    proc = run(["--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if got != want:
        errors.append(f"{where}: metrics {got} != {want}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: checks failed: {result}")
    for k, v in result["metrics"].items():
        if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
            errors.append(f"{where}: {k} = {v['value']!r}")
    print(f"ok   {where}: {len(got)} metrics, {result['attempted']} calls checked")


def check_sharp(errors):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from frnorms.constants import TABLE1_SPECS, table1_subalgebra
    from frnorms.fleet import build_fleet

    import reference

    problems = [(label,) + table1_subalgebra(label) for label, *_ in TABLE1_SPECS]
    problems += [(fx.name, fx.subalgebra, fx.weight) for fx in build_fleet()]
    for name, b, v in problems:
        b = getattr(b, "base", b)
        value = reference.sharp_constant(
            b.shape.dims, v.weights, [p.terms for p in b.partitions], b.groups
        )
        if abs(value - reference.SHARP[name]) > 1e-15:
            errors.append(f"sharp[{name}] = {reference.SHARP[name]!r}, formula gives {value!r}")
    if {name for name, _, _ in problems} != set(reference.SHARP):
        errors.append("stored sharp constants do not cover exactly the table rows and fixtures")
    print(f"ok   stored sharp constants match the formula on {len(problems)} problems")


def check_refuses_without_sources(errors):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(["--workload", "tower", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        errors.append(f"without sources: exit {proc.returncode}, last line {last!r}")
    print(f"ok   without sources the harness exits {proc.returncode} and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    check_sharp(errors)
    check_refuses_without_sources(errors)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_metrics(spec, w["name"], trace, errors)
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
