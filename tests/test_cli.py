import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frnorms import cli, constants, effros_shen, fleet, linalg
from frnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    TracialWeight,
    element_from_json,
    weight_to_json,
)
from frnorms.constants import structural_constants
from frnorms.errors import (
    ConvergenceError,
    DimensionError,
    InputError,
    PartitionError,
    ShapeError,
)
from frnorms.expectation import fr_norm
from frnorms.fleet import build_fleet
from frnorms.subalgebra import (
    ConjugatedSubalgebra,
    StandardSubalgebra,
    subalgebra_from_json,
    subalgebra_to_json,
)


def run_cli(*args, check=False):
    # pytest's warning filter does not reach the subprocess, so numeric
    # warnings are made errors there explicitly.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "frnorms.cli", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    files = {}
    payloads = {
        "algebra": {"shape": [2]},
        "subalgebra": {
            "shape": [2],
            "partitions": [[[1, 1], [1, 1]]],
            "groups": [[[1, 1]], [[1, 2]]],
        },
        "weights": {"weights": [1.0]},
        "element": {
            "shape": [2],
            "summands": [
                {
                    "rows": 2,
                    "cols": 2,
                    "data": [[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [1.0, 0.0]],
                }
            ],
        },
    }
    for name, payload in payloads.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    return files


def problem_args(files, element=False):
    args = [
        "--algebra", files["algebra"],
        "--subalgebra", files["subalgebra"],
        "--weights", files["weights"],
    ]
    if element:
        args += ["--element", files["element"]]
    return args


def test_norm_command_pinned_output(problem_files):
    proc = run_cli("norm", *problem_args(problem_files, element=True), check=True)
    out = json.loads(proc.stdout)
    assert set(out) == {"fr_norm_sq", "op_norm"}
    # P(A*A) = diag(5, 5) for A = [[1,2],[2,1]] over the diagonal subalgebra
    assert out["fr_norm_sq"] == 5.0
    assert out["op_norm"] == 3.0


def test_norm_refuses_an_overflowing_element(tmp_path, problem_files):
    path = tmp_path / "huge.json"
    huge = {"rows": 2, "cols": 2, "data": [[1e160, 0.0]] * 4}
    path.write_text(json.dumps({"shape": [2], "summands": [huge]}))
    args = problem_args(problem_files) + ["--element", str(path)]
    # Not run_cli: this checks the refusal with numpy's warnings left at
    # their defaults; test_overflow_refusal_prints_no_warning runs it so.
    proc = subprocess.run(
        [sys.executable, "-m", "frnorms.cli", "norm", *args], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"


def test_overflow_refusal_prints_no_warning(tmp_path, problem_files):
    """The Gram of 1e160 entries overflows; the refusal is the typed one,
    exit 2, even with numeric warnings made errors, and nothing reaches
    stderr."""
    path = tmp_path / "huge.json"
    huge = {"rows": 2, "cols": 2, "data": [[1e160, 0.0]] * 4}
    path.write_text(json.dumps({"shape": [2], "summands": [huge]}))
    proc = run_cli("norm", *problem_args(problem_files), "--element", str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"
    assert proc.stderr == ""


def test_expect_command_output(problem_files):
    proc = run_cli("expect", *problem_args(problem_files, element=True), check=True)
    out = json.loads(proc.stdout)
    assert out["shape"] == [2]
    m = out["summands"][0]
    assert m["rows"] == 2 and m["cols"] == 2
    # diagonal part of [[1,2],[2,1]]
    assert m["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_constants_command_schema(problem_files):
    proc = run_cli("constants", *problem_args(problem_files), check=True)
    out = json.loads(proc.stdout)
    assert set(out) == {"L", "r", "ell", "m", "alpha", "gamma", "bound", "theorem"}
    assert out["L"] == 2
    assert out["r"] == 2
    assert out["ell"] == 1
    assert out["theorem"] == "multiplicity-free"
    assert abs(out["bound"] - 2**-0.5) < 1e-15


def test_constants_command_exact_stdout(problem_files, capsys):
    assert cli.main(["constants", *problem_args(problem_files)]) == 0
    assert capsys.readouterr().out == (
        '{"L": 2, "r": 2, "ell": 1, "m": 1, "alpha": 0.5, "gamma": 0.5, '
        '"bound": 0.7071067811865475, "theorem": "multiplicity-free"}\n'
    )


def test_malformed_weight_and_shape_files_exit_2(tmp_path, problem_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weights": 5}))
    args = ["--subalgebra", problem_files["subalgebra"], "--weights", str(bad)]
    assert cli.main(["constants", *args]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "WeightError"
    bad.write_text(json.dumps({"shape": 5}))
    args = [
        "--algebra", str(bad),
        "--subalgebra", problem_files["subalgebra"],
        "--weights", problem_files["weights"],
    ]
    assert cli.main(["constants", *args]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ShapeError"


# Count fields of the wire format, as (file, path to the field).
_COUNT_FIELDS = (
    ("algebra", ("shape", 0)),
    ("subalgebra", ("shape", 0)),
    ("subalgebra", ("partitions", 0, 0, 0)),
    ("subalgebra", ("partitions", 0, 1, 1)),
    ("subalgebra", ("groups", 0, 0, 0)),
    ("subalgebra", ("groups", 1, 0, 1)),
    ("element", ("shape", 0)),
    ("element", ("summands", 0, "rows")),
    ("element", ("summands", 0, "cols")),
)


def test_wire_format_refuses_non_integer_counts(tmp_path, problem_files, capsys):
    """A count given as 2.5, true or a string exits 2, and the same count
    written as an integral float reads as the integer.  Weights and
    matrix entries refuse true, strings and integers beyond the float
    range."""
    assert cli.main(["norm", *problem_args(problem_files, element=True)]) == 0
    want = capsys.readouterr().out

    def run_with(name, path, value):
        payload = json.loads(Path(problem_files[name]).read_text())
        *head, last = path
        node = payload
        for key in head:
            node = node[key]
        node[last] = value(node[last])
        edited = tmp_path / f"{name}.json"
        edited.write_text(json.dumps(payload))
        files = {**problem_files, name: str(edited)}
        code = cli.main(["norm", *problem_args(files, element=True)])
        return code, capsys.readouterr().out

    for name, path in _COUNT_FIELDS:
        for bad in (lambda x: x + 0.5, lambda x: True, str):
            code, out = run_with(name, path, bad)
            assert code == 2, (name, path, out)
            assert "error" in json.loads(out)
        assert run_with(name, path, float) == (0, want), (name, path)
    for name, path in (("weights", ("weights", 0)), ("element", ("summands", 0, "data", 0, 0))):
        for bad in (lambda x: True, str, lambda x: 10**400):
            code, out = run_with(name, path, bad)
            assert code == 2, (name, path, out)
            assert "error" in json.loads(out)


def test_search_command_schema_and_determinism(problem_files):
    args = ("search", *problem_args(problem_files),
            "--samples", "200", "--seed", "3", "--no-refine")
    p1 = run_cli(*args, check=True)
    p2 = run_cli(*args, check=True)
    assert p1.stdout == p2.stdout  # byte-identical for a fixed seed
    out = json.loads(p1.stdout)
    assert set(out) == {
        "best_ratio", "witness", "samples", "seed", "refine_steps",
    }
    assert out["samples"] == 200 and out["seed"] == 3
    assert out["refine_steps"] == 0
    assert 2**-0.5 - 1e-9 <= out["best_ratio"] <= 1.0


def test_readme_search_example(problem_files):
    """The search example of the README, on its diagonal of M_2."""
    proc = run_cli("search", *problem_args(problem_files),
                   "--samples", "2000", "--seed", "1", check=True)
    out = json.loads(proc.stdout)
    assert out["best_ratio"] == 0.7071067811865659
    assert out["refine_steps"] == 14
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert '{"best_ratio": 0.7071067811865659,' in readme
    assert '"refine_steps": 14}' in readme


def test_a_negative_seed_exits_2_naming_the_seed(problem_files, capsys):
    """search, table1 and selftest refuse --seed -1 with exit 2 and a
    JSON error that names the seed."""
    for args in (
        ["search", *problem_args(problem_files), "--samples", "10"],
        ["table1", "--samples", "10"],
        ["table1"],
        ["selftest"],
    ):
        assert cli.main([*args, "--seed", "-1"]) == 2, args
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and "seed" in err["message"], args


def test_search_rejects_bad_counts(problem_files):
    proc = run_cli("search", *problem_args(problem_files), "--samples", "0")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError"


# One slot of 10**8 copies of a 1x1 block: a 72-byte file.
HUGE_ONE_SLOT = '{"shape":[100000000],"partitions":[[[1,100000000]]],"groups":[[[1,1]]]}\n'


def test_constants_on_the_huge_one_slot_file(tmp_path, problem_files):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_ONE_SLOT)
    assert path.stat().st_size == 72
    proc = run_cli("constants", "--subalgebra", str(path), "--weights", problem_files["weights"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"r": 100000000' in proc.stdout


def test_constants_when_r_times_ell_passes_64_bits(tmp_path, problem_files):
    """Slots (1, 10**8) and (1, 10**8 + 1) of one summand give r * ell
    above 2**63; the bound is a float square root, not a numpy one."""
    obj = {
        "shape": [2 * 10**8 + 1],
        "partitions": [[[1, 10**8], [1, 10**8 + 1]]],
        "groups": [[[1, 1]], [[1, 2]]],
    }
    path = tmp_path / "two-slot.json"
    path.write_text(json.dumps(obj))
    assert path.stat().st_size == 104
    proc = run_cli("constants", "--subalgebra", str(path), "--weights", problem_files["weights"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["r"] * out["ell"] > 2**63
    assert out["bound"] == 7.071067758832467e-13
    sub = subalgebra_from_json(obj)
    weight = TracialWeight(sub.shape, (1.0,))
    assert structural_constants(sub, weight).bound == 7.071067758832467e-13


def test_search_refuses_the_huge_one_slot_file_before_drawing(tmp_path, problem_files):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_ONE_SLOT)
    proc = run_cli("search", "--subalgebra", str(path), "--weights", problem_files["weights"])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"


def test_table1_csv_format():
    proc = run_cli("table1", "--format", "csv", check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    assert lines[0] == "label,theoretical,empirical,theorem"
    assert len(lines) == 17
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert all(len(r) == 4 for r in rows)
    first = rows[1]
    assert first[0] == "B^3_{2,1}"
    assert float(first[1]) == 0.7071067811865475
    assert first[2] == ""  # no samples requested
    assert first[3] == "multiplicity-free"
    # csv floats use the shortest round-trip form
    assert first[1] == repr(0.7071067811865475)
    # comma-bearing labels are quoted, keeping the 4-column layout parseable
    assert lines[1].startswith('"B^3_{2,1}"')


def test_table1_json_flags_the_divergent_row():
    proc = run_cli("table1", check=True)
    rows = json.loads(proc.stdout)
    assert len(rows) == 16
    flagged = [r for r in rows if r["flagged"]]
    assert len(flagged) == 1
    row = flagged[0]
    assert row["label"] == "B^5_{2,1,1,1}"
    assert row["theoretical"] == 0.5
    assert abs(row["reference_theoretical"] - 3**-0.5) < 1e-15
    assert all(
        set(r) == {
            "label", "dim", "terms", "theoretical", "theorem", "empirical",
            "reference_guess", "reference_theoretical", "flagged",
        }
        for r in rows
    )


def test_table1_json_row_layout(capsys):
    assert cli.main(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        '[{"label": "B^3_{2,1}", "dim": 3, "terms": [[2, 1], [1, 1]], '
        '"theoretical": 0.7071067811865475, "theorem": "multiplicity-free", '
        '"empirical": null, "reference_guess": 0.7071067811865475, '
        '"reference_theoretical": 0.7071067811865475, "flagged": false}, '
    )
    assert all(
        list(r) == [
            "label", "dim", "terms", "theoretical", "theorem", "empirical",
            "reference_guess", "reference_theoretical", "flagged",
        ]
        for r in json.loads(out)
    )


def test_table1_with_samples_fills_empirical():
    proc = run_cli(
        "table1", "--samples", "40", "--seed", "1", "--no-refine",
        "--format", "csv", check=True,
    )
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) == 17
    for row in rows[1:]:
        emp = row[2]
        assert emp != ""
        assert 0.0 < float(emp) <= 1.0 + 1e-12
    # determinism: identical bytes on repeat
    again = run_cli(
        "table1", "--samples", "40", "--seed", "1", "--no-refine",
        "--format", "csv", check=True,
    )
    assert again.stdout == proc.stdout


def test_effros_shen_command_with_cf():
    proc = run_cli("effros-shen", "--cf", "1,1,1,1", "--level", "2", check=True)
    out = json.loads(proc.stdout)
    assert set(out) == {"level", "shape", "t", "constant", "structural"}
    assert out["level"] == 2
    assert out["shape"] == [2, 1]
    assert abs(out["constant"] - 0.3090169943749475) < 1e-14
    assert set(out["structural"]) == {"r", "ell", "m", "alpha", "gamma"}
    assert out["structural"]["r"] == 2
    assert out["structural"]["ell"] == 1
    assert out["structural"]["m"] == 2


def test_effros_shen_cf_exact_matches_theta_decimal():
    golden = (5**0.5 - 1) / 2
    p_cf = run_cli("effros-shen", "--cf", "1", "--level", "3", check=True)
    p_th = run_cli("effros-shen", "--theta", repr(golden), "--level", "3", check=True)
    a = json.loads(p_cf.stdout)
    b = json.loads(p_th.stdout)
    assert a["shape"] == b["shape"]
    assert abs(a["constant"] - b["constant"]) < 1e-12


def test_effros_shen_deep_level_builds_no_basis():
    # Level 30 has about 9.6e11 canonical basis elements; the command needs
    # only the partition data.  The constant's precision this deep is a
    # separate question, so only the exit code and the shape are pinned.
    proc = run_cli("effros-shen", "--cf", "1", "--level", "30", check=True)
    assert json.loads(proc.stdout)["shape"] == [1346269, 832040]


def test_effros_shen_rejects_rational_theta():
    proc = run_cli("effros-shen", "--theta", "0.5", "--level", "2")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "RationalityError"
    assert proc.stderr == ""


def test_effros_shen_refuses_a_cancelled_tail_value():
    proc = run_cli("effros-shen", "--cf", "200000000", "--level", "2")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError" and "tail value" in err["message"]
    assert proc.stderr == ""


def test_effros_shen_argument_validation():
    proc = run_cli("effros-shen", "--theta", "0.3", "--cf", "1", "--level", "2")
    assert proc.returncode == 2  # mutually exclusive
    proc = run_cli("effros-shen", "--cf", "1", "--level", "1")
    assert proc.returncode == 2
    proc = run_cli("effros-shen", "--cf", "1,0", "--level", "2")
    assert proc.returncode == 2
    proc = run_cli("effros-shen", "--theta", "1.5", "--level", "2")
    assert proc.returncode == 2
    # No depth above 91 has 64-bit convergents; it is refused up front.
    for source in (("--cf", "1"), ("--theta", "0.6180339887498949")):
        proc = run_cli("effros-shen", *source, "--level", "1000000")
        assert proc.returncode == 2
        assert "exceeds 91" in json.loads(proc.stdout)["error"]["message"]


def test_baire_command():
    proc = run_cli("baire", "--cf", "1,1,1", "--cf", "1,1,2", check=True)
    assert json.loads(proc.stdout) == {"distance": 0.125}
    proc = run_cli("baire", "--cf", "1,1,1")
    assert proc.returncode == 2
    proc = run_cli("baire", "--cf", "1,1", "--cf", "1,x")
    assert proc.returncode == 2


def test_validation_errors_are_json_on_stdout(problem_files):
    proc = run_cli("norm", *problem_args(problem_files, element=True)[:-2],
                   "--element", "/nonexistent/file.json")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError"
    assert "message" in err


def test_unknown_subcommand_and_flag_exit_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    json.loads(proc.stdout)  # still a JSON error object
    proc = run_cli("table1", "--nope")
    assert proc.returncode == 2


def test_shape_mismatch_between_files(tmp_path, problem_files):
    bad = tmp_path / "alg3.json"
    bad.write_text(json.dumps({"shape": [3]}))
    proc = run_cli(
        "norm",
        "--algebra", str(bad),
        "--subalgebra", problem_files["subalgebra"],
        "--weights", problem_files["weights"],
        "--element", problem_files["element"],
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"


def test_selftest_command():
    proc = run_cli("selftest", "--seed", "0", check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")
    assert len(lines) >= 9


SELFTEST_CHECKS = (
    "induced-norm regression values",
    "conjugation moves the induced norm",
    "reference table recomputation",
    "dual projection routes agree",
    "projection axioms (idempotent, trace-preserving, contractive)",
    "pinching pipeline matches the projection",
    "pinching keeps at least 1/size of the norm",
    "norm sandwich bound * opnorm <= induced <= opnorm",
    "tower constant equals the structural bound",
)


def _selftest_lines(capsys, *args):
    rc = cli.main(["selftest", *args])
    return rc, capsys.readouterr().out.rstrip("\n").split("\n")


def _moved_flag_table(*args, **kwargs):
    """The reference table with its one flag moved: B^5_{2,1,1,1} recomputed
    to its stored value and B^4_{2,2} off by 1e-9, each flag agreeing with
    its own row's fields."""
    moved = {"B^5_{2,1,1,1}": 0.0, "B^4_{2,2}": 1e-9}
    rows = []
    for r in constants.table1(*args, **kwargs):
        if r.label in moved:
            bound = r.reference_theoretical + moved[r.label]
            r = dataclasses.replace(r, theoretical=bound, flagged=bool(moved[r.label]))
        rows.append(r)
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_selftest_passes_every_check(capsys, seed):
    rc, lines = _selftest_lines(capsys, "--seed", str(seed))
    assert rc == 0
    assert lines[-1] == "9 checks, 0 failed"
    assert len(lines) == 10
    for line, name in zip(lines, SELFTEST_CHECKS):
        assert line.startswith(f"PASS {name} (worst deviation ")


@pytest.mark.parametrize(
    "target, patch, failing",
    [
        ("es_constant", lambda f: lambda *a: f(*a) + 1e-9, 8),
        ("cond_expect_gram", lambda f: lambda b, v, x: x, 3),
        ("table1", lambda f: _moved_flag_table, 2),
    ],
    ids=["tower", "dual-routes", "moved-flag"],
)
def test_selftest_fails_the_broken_check(capsys, monkeypatch, target, patch, failing):
    monkeypatch.setattr(fleet, target, patch(getattr(fleet, target)))
    rc, lines = _selftest_lines(capsys)
    assert rc == 1
    assert lines[-1] == "9 checks, 1 failed"
    assert [line.split(" ", 1)[0] for line in lines[:-1]] == [
        "FAIL" if i == failing else "PASS" for i in range(9)
    ]
    assert lines[failing].startswith(f"FAIL {SELFTEST_CHECKS[failing]} (worst deviation ")


def test_convergence_error_exits_3(monkeypatch, capsys):
    def boom(args):
        raise ConvergenceError("no convergence in test")

    # main() builds the parser per call, so the patched handler is picked up
    monkeypatch.setattr(cli, "_cmd_baire", boom)
    rc = cli.main(["baire", "--cf", "1", "--cf", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    err = json.loads(captured.out)["error"]
    assert err["type"] == "ConvergenceError"
    assert err["message"] == "no convergence in test"


def test_main_returns_zero_in_process(capsys):
    rc = cli.main(["baire", "--cf", "2,2", "--cf", "2,2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"distance": 0.0}


def _conjugated_problem(tmp_path, problem_files, rows, shape=(2,)):
    """The problem's subalgebra with a ``"unitary"`` key holding ``rows``."""
    with open(problem_files["subalgebra"]) as fh:
        payload = json.load(fh)
    d = len(rows)
    payload["unitary"] = {
        "shape": list(shape),
        "summands": [
            {"rows": d, "cols": d, "data": [[x, 0.0] for row in rows for x in row]}
        ],
    }
    path = tmp_path / "conjugated.json"
    path.write_text(json.dumps(payload))
    return payload, [
        "--subalgebra", str(path),
        "--weights", problem_files["weights"],
        "--element", problem_files["element"],
    ]


HADAMARD = [[0.5**0.5, 0.5**0.5], [0.5**0.5, -(0.5**0.5)]]


def test_norm_honours_the_unitary_key(tmp_path, problem_files):
    # U diag U* for the Hadamard U is the set of [[a, b], [b, a]], which
    # holds A = [[1, 2], [2, 1]]; so P(A*A) = A*A and the norm is ||A||^2.
    _, args = _conjugated_problem(tmp_path, problem_files, HADAMARD)
    out = json.loads(run_cli("norm", *args, check=True).stdout)
    assert abs(out["fr_norm_sq"] - 9.0) < 1e-12
    assert out["op_norm"] == 3.0


def test_unitary_key_is_validated(tmp_path, problem_files):
    _, args = _conjugated_problem(tmp_path, problem_files, [[1.0, 1.0], [0.0, 1.0]])
    proc = run_cli("norm", *args)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "UnitarityError"
    _, args = _conjugated_problem(
        tmp_path, problem_files, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (3,)
    )
    proc = run_cli("norm", *args)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ShapeError"
    payload, args = _conjugated_problem(tmp_path, problem_files, HADAMARD)
    payload["unitary"]["summands"] = 5
    with open(args[1], "w") as fh:
        json.dump(payload, fh)
    proc = run_cli("norm", *args)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ShapeError"


def test_conjugated_subalgebra_json_round_trip(tmp_path, problem_files):
    payload, args = _conjugated_problem(tmp_path, problem_files, HADAMARD)
    sub = subalgebra_from_json(payload)
    assert isinstance(sub, ConjugatedSubalgebra)
    assert subalgebra_to_json(sub) == payload
    again = tmp_path / "again.json"
    again.write_text(json.dumps(subalgebra_to_json(sub)))
    first = run_cli("expect", *args, check=True)
    args[1] = str(again)
    assert run_cli("expect", *args, check=True).stdout == first.stdout


def test_readme_effros_shen_example():
    """The README shows the t and constant that its effros-shen --cf 1,2
    --level 3 example prints."""
    proc = run_cli("effros-shen", "--cf", "1,2", "--level", "3", check=True)
    out = json.loads(proc.stdout)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("frnorms effros-shen --cf 1,2 --level 3\n", 1)[1].split("\n\n", 1)[0]
    assert f'"t": {out["t"]!r},' in example
    assert f'"constant": {out["constant"]!r},' in example


def _strict_json(text):
    """Parse text as standard JSON: Infinity and NaN are refused."""

    def refuse(constant):
        raise AssertionError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_norm_refusals_name_the_overflow_and_print_only_json(tmp_path, capsys):
    """A square beyond the float range exits 2 with a message that names
    the overflow: every entry of M_3 at 5.7e153 is finite and so is its
    Gram, but not the Gram's spectrum, and at 1e200 the Gram itself
    overflows.  A non-finite result is never printed: stdout is standard
    JSON."""
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"shape": [3], "partitions": [[[3, 1]]], "groups": [[[1, 1]]]}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [1.0]}))
    element = tmp_path / "a.json"
    args = ["norm", "--subalgebra", str(sub), "--weights", str(weights), "--element", str(element)]
    for entry in (5.7e153, 1e200):
        data = [[entry, 0.0]] * 9
        element.write_text(json.dumps({"shape": [3], "summands": [{"rows": 3, "cols": 3, "data": data}]}))
        assert cli.main(args) == 2, entry
        err = _strict_json(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and "float range" in err["message"], (entry, err)


def test_a_non_finite_result_exits_2_as_json(monkeypatch, tmp_path, problem_files, capsys):
    """_emit refuses a value that standard JSON cannot hold, and main()
    turns that into the JSON error object with exit 2."""
    for value in (float("inf"), float("nan")):
        monkeypatch.setattr(cli, "fr_norm_squared", lambda *args, value=value: value)
        assert cli.main(["norm", *problem_args(problem_files, element=True)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert _strict_json(out)["error"]["type"] == "ValueError"


def _write(tmp_path, text):
    path = tmp_path / "file.json"
    path.write_text(text)
    return str(path)


def _one_summand_file(tmp_path, d, terms):
    return _write(
        tmp_path, json.dumps({"shape": [d], "partitions": [terms], "groups": [[[1, 1]]]})
    )


# Files beyond what the reader and the arithmetic take: a list nested
# 5000 deep, past the JSON parser's recursion limit, and summand
# dimensions above 2**63 - 1, whose weight factor 1/d or sqrt(r * ell)
# would overflow a float.
_UNREADABLE = {
    "nested": lambda tmp_path: _write(tmp_path, "[" * 5000),
    "dim-1e300": lambda tmp_path: _one_summand_file(tmp_path, 10**300, [[1, 10**300]]),
    "dim-1e400": lambda tmp_path: _one_summand_file(tmp_path, 10**400, [[10**400, 1]]),
    "dim-2**64": lambda tmp_path: _one_summand_file(tmp_path, 2**64, [[2**64, 1]]),
}


@pytest.mark.parametrize("command", ["norm", "expect", "constants", "search"])
@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_deep_and_huge_files_exit_2_as_json(name, command, tmp_path, problem_files, capsys):
    path = _UNREADABLE[name](tmp_path)
    args = ["--subalgebra", path, "--weights", problem_files["weights"]]
    if command in ("norm", "expect"):
        args += ["--element", problem_files["element"]]
    assert cli.main([command, *args]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == ("InputError" if name == "nested" else "ShapeError")


def test_a_dimension_of_2_63_minus_1_is_accepted(tmp_path, problem_files, capsys):
    d = 2**63 - 1
    assert AlgebraShape((d, 2)).offsets == (0, d)
    with pytest.raises(ShapeError, match="2\\*\\*63 - 1"):
        AlgebraShape((2, d + 1))
    args = ["--subalgebra", _one_summand_file(tmp_path, d, [[1, d]])]
    assert cli.main(["constants", *args, "--weights", problem_files["weights"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["r"], out["ell"], out["m"]) == (d, d, d)
    assert out["bound"] == 1.0 / d


def _matrix(text):
    return linalg.matrix_from_json(json.loads(text))


# One call per typed refusal of the library and the command line, with
# the error type it must raise and a fragment of its message.
_REFUSALS = {
    "load-json-not-json": (
        lambda tmp_path: cli._load_json(_write(tmp_path, "{not json")),
        InputError,
        "is not valid JSON",
    ),
    "table1-negative-samples": (
        lambda _: cli._cmd_table1(cli.build_parser().parse_args(["table1", "--samples", "-1"])),
        InputError,
        "nonnegative",
    ),
    "element-not-a-mapping": (lambda _: element_from_json([]), ShapeError, "mapping"),
    "matrix-not-2d": (lambda _: linalg.as_matrix([1.0, 2.0]), DimensionError, "2-d"),
    "matrix-not-a-mapping": (lambda _: _matrix("[]"), DimensionError, "mapping"),
    "matrix-malformed": (lambda _: _matrix('{"rows": 1}'), DimensionError, "malformed"),
    "matrix-data-length": (
        lambda _: _matrix('{"rows": 1, "cols": 2, "data": [[1.0, 0.0]]}'),
        DimensionError,
        "does not match 1x2",
    ),
    "matrix-entry-not-a-pair": (
        lambda _: _matrix('{"rows": 1, "cols": 1, "data": [[1.0]]}'),
        DimensionError,
        "pairs",
    ),
    "matrix-entry-infinite": (
        lambda _: _matrix('{"rows": 1, "cols": 1, "data": [[Infinity, 0.0]]}'),
        ValueError,
        "finite",
    ),
    "theta-bad-prefix": (
        lambda _: effros_shen.eventually_periodic_theta((0,), (1,), 5),
        InputError,
        "prefix",
    ),
    "theta-bad-period": (
        lambda _: effros_shen.eventually_periodic_theta((1,), (), 5),
        InputError,
        "period",
    ),
    "es-constant-level-1": (
        lambda _: effros_shen.es_constant(effros_shen.GOLDEN, 1),
        ValueError,
        "level",
    ),
    "continuity-probe-level-1": (
        lambda _: effros_shen.continuity_probe(effros_shen.GOLDEN, [0.6], 1),
        ValueError,
        "level",
    ),
    "continuity-probe-fraction-count": (
        lambda _: effros_shen.continuity_probe(
            effros_shen.GOLDEN, [0.6, 0.61, 0.62], 3, perturbation_cfs=[None]
        ),
        InputError,
        "1 perturbation fractions for 3 perturbations",
    ),
    "subalgebra-partition-count": (
        lambda _: StandardSubalgebra(AlgebraShape((2, 2)), [((2, 1),)], [[(1, 1)]]),
        PartitionError,
        "expected 2 partitions",
    ),
    "subalgebra-malformed-values": (
        lambda _: subalgebra_from_json({"shape": [2], "partitions": [[[2]]], "groups": []}),
        ShapeError,
        "malformed",
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_each_typed_refusal_raises_its_error_type(name, tmp_path):
    call, error, fragment = _REFUSALS[name]
    with pytest.raises(error, match=fragment) as info:
        call(tmp_path)
    assert info.type is error


def test_search_prints_its_witness_as_a_summand_and_a_vector(tmp_path, capsys):
    """On a conjugate and on a two-summand fixture, search prints the
    witness as its summand (1-based) and a unit vector of that summand,
    whose projection has the printed ratio; the keys keep their order."""
    fleet = {f.name: f for f in build_fleet()}
    for name in ("circulant-M3", "dsum-cross"):
        fx = fleet[name]
        sub, weights = tmp_path / f"{name}.json", tmp_path / f"{name}-w.json"
        sub.write_text(json.dumps(subalgebra_to_json(fx.subalgebra)))
        weights.write_text(json.dumps(weight_to_json(fx.weight)))
        args = ["--subalgebra", str(sub), "--weights", str(weights), "--samples", "500"]
        assert cli.main(["search", *args]) == 0, name
        out = _strict_json(capsys.readouterr().out)
        assert list(out) == ["best_ratio", "witness", "samples", "seed", "refine_steps"]
        assert list(out["witness"]) == ["summand", "vector"], name
        k = out["witness"]["summand"]
        x = linalg.matrix_from_json(out["witness"]["vector"])
        assert x.shape == (fx.shape.dims[k - 1], 1), name
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12, name
        mats = [x @ x.conj().T if j == k else np.zeros((d, d)) for j, d in enumerate(fx.shape.dims, 1)]
        ratio = fr_norm(fx.subalgebra, fx.weight, AlgebraElement(fx.shape, mats))
        assert abs(ratio - out["best_ratio"]) < 1e-12, name
