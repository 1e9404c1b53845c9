import csv
import io
import json
import subprocess
import sys

import pytest

from frnorms import cli
from frnorms.errors import ConvergenceError
from frnorms.subalgebra import (
    ConjugatedSubalgebra,
    subalgebra_from_json,
    subalgebra_to_json,
)


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "frnorms.cli", *args],
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


def test_search_rejects_bad_counts(problem_files):
    proc = run_cli("search", *problem_args(problem_files), "--samples", "0")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError"


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


def test_effros_shen_argument_validation():
    proc = run_cli("effros-shen", "--theta", "0.3", "--cf", "1", "--level", "2")
    assert proc.returncode == 2  # mutually exclusive
    proc = run_cli("effros-shen", "--cf", "1", "--level", "1")
    assert proc.returncode == 2
    proc = run_cli("effros-shen", "--cf", "1,0", "--level", "2")
    assert proc.returncode == 2
    proc = run_cli("effros-shen", "--theta", "1.5", "--level", "2")
    assert proc.returncode == 2


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
