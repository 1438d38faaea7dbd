import json
import subprocess
import sys

import pytest

from fractions import Fraction

from alike.cli import main
from alike.exactlinalg import ExactMatrix
from alike.hypercube import hypercube
from alike.alike import GROUP_NAMES, is_alike


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def write_p3(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    return str(path)


def matrix_from_payload(payload):
    ent = {}
    for r, row in enumerate(payload["entries"]):
        for c, text in enumerate(row):
            value = Fraction(text)
            if value:
                ent[(r, c)] = value
    return ExactMatrix(payload["rows"], payload["cols"], ent)


# -- dims -------------------------------------------------------------------------


def test_dims_hypercube_3(capsys):
    code, data, _ = run_json(capsys, "dims", "--hypercube", "3")
    assert code == 0
    assert data["sym"] == 4
    assert data["antisym"] == 3
    assert data["total"] == 7
    assert data["formula_agrees"] is True
    assert data["bruteforce"]["within_cap"] is True
    assert data["bruteforce"]["agrees"] is True


def test_dims_hypercube_1(capsys):
    code, data, _ = run_json(capsys, "dims", "--hypercube", "1")
    assert code == 0
    assert (data["sym"], data["antisym"], data["total"]) == (2, 0, 2)
    assert data["formula_agrees"] is True


def test_dims_hypercube_above_brutecap_is_partial(capsys):
    code, data, _ = run_json(
        capsys, "dims", "--hypercube", "7", "--cap-bruteforce", "64"
    )
    assert code == 0
    assert data["bruteforce"] == {"within_cap": False}
    assert data["formula_agrees"] is True


def test_dims_graph_file(capsys, tmp_path):
    code, data, _ = run_json(capsys, "dims", "--graph", write_p3(tmp_path))
    assert code == 0
    assert (data["sym"], data["antisym"], data["total"]) == (2, 0, 2)
    assert "formula" not in data


# -- basis ------------------------------------------------------------------------


def test_basis_q2_antisym_triplets(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--hypercube", "2", "--part", "antisym",
        "--format", "triplet",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[0] == "matrix b_1_2 rows=4 cols=4"
    entries = lines[1:]
    assert len(entries) == 8
    values = {line.split()[2] for line in entries}
    assert values == {"2", "-2"}


def test_basis_q1_sym_order(capsys):
    code, data, _ = run_json(capsys, "basis", "--hypercube", "1", "--part", "sym")
    assert code == 0
    labels = [m["label"] for m in data["matrices"]]
    assert labels == ["identity", "alpha_1"]
    assert matrix_from_payload(data["matrices"][0]) == ExactMatrix.identity(2)
    assert matrix_from_payload(data["matrices"][1]) == ExactMatrix.from_rows(
        [[0, 1], [1, 0]]
    )


def test_basis_q1_antisym_is_empty(capsys):
    code, data, _ = run_json(capsys, "basis", "--hypercube", "1", "--part", "antisym")
    assert code == 0
    assert data["count"] == 0
    assert data["matrices"] == []


def test_basis_graph_source_uses_solver(capsys, tmp_path):
    code, data, _ = run_json(
        capsys, "basis", "--graph", write_p3(tmp_path), "--part", "sym"
    )
    assert code == 0
    assert data["count"] == 2


def test_basis_full_matrices_are_members(capsys):
    g, _ = hypercube(3)
    code, data, _ = run_json(capsys, "basis", "--hypercube", "3", "--part", "full")
    assert code == 0
    assert data["count"] == 7
    for payload in data["matrices"]:
        assert is_alike(g, matrix_from_payload(payload))


# -- solve ------------------------------------------------------------------------


def test_solve_emits_dims_and_reingestable_matrices(capsys, tmp_path):
    path = write_p3(tmp_path)
    code, data, _ = run_json(capsys, "solve", "--graph", path)
    assert code == 0
    assert data["dims"] == {"total": 2, "sym": 2, "antisym": 0}
    from alike.hypercube import load_graph

    g = load_graph(path)
    assert len(data["matrices"]) == 2
    for payload in data["matrices"]:
        assert is_alike(g, matrix_from_payload(payload))


def test_solve_hypercube_part_selection(capsys):
    code, data, _ = run_json(
        capsys, "solve", "--hypercube", "2", "--part", "antisym"
    )
    assert code == 0
    assert data["dims"] == {"total": 4, "sym": 3, "antisym": 1}
    assert len(data["matrices"]) == 1


# -- verify -----------------------------------------------------------------------


def test_verify_q2_passes(capsys):
    code, data, err = run_json(capsys, "verify", "--hypercube", "2", "--seed", "3")
    assert code == 0
    assert data["all_passed"] is True
    assert data["seed"] == 3
    assert "timing" in err


def test_verify_skip_groups(capsys):
    code, data, _ = run_json(
        capsys, "verify", "--hypercube", "2", "--skip", "brute,idempotents"
    )
    assert code == 0
    names = {g["name"] for g in data["groups"]}
    assert "dimensions" not in names
    assert "idempotents" not in names


def test_verify_q5_with_skips_passes(capsys):
    code, data, _ = run_json(
        capsys, "verify", "--hypercube", "5", "--skip", "brute,idempotents"
    )
    assert code == 0
    assert data["all_passed"] is True
    assert len(data["groups"]) == 6


def test_verify_honours_cap_bruteforce(capsys):
    code, data, _ = run_json(
        capsys, "verify", "--hypercube", "3", "--cap-bruteforce", "4"
    )
    assert code == 0
    group = next(g for g in data["groups"] if g["name"] == "dimensions")
    assert group["skipped"] is True
    assert group["reason"] == "brute-force solver capped at 4 vertices"


def test_verify_unknown_skip_group(capsys):
    code, _, err = run_cli(capsys, "verify", "--hypercube", "2", "--skip", "bogus")
    assert code == 2
    assert "unknown check group" in err


def test_verify_skipping_every_group_is_usage_error(capsys):
    skip = ",".join(GROUP_NAMES)
    code, out, err = run_cli(capsys, "verify", "--hypercube", "2", "--skip", skip)
    assert code == 2
    assert out == ""
    assert "no check group selected" in err


def test_verify_dimension_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--hypercube", "0"])
    assert exc.value.code == 2


def test_verify_above_construction_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--hypercube", "13")
    assert code == 2
    assert "cap" in err


def test_construction_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ALIKE_CAP_D", "2")
    code, _, err = run_cli(capsys, "dims", "--hypercube", "3")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("ALIKE_CAP_D", "frogs")
    code, _, err = run_cli(capsys, "dims", "--hypercube", "3")
    assert code == 2


# -- compare ----------------------------------------------------------------------


@pytest.mark.parametrize("d", ["2", "3", "5"])
def test_compare_small_cubes(capsys, d):
    code, data, _ = run_json(capsys, "compare", "--hypercube", d)
    assert code == 0
    assert data["full"] and data["sym"] and data["antisym"]
    assert data["all_equal"] is True


def test_compare_above_cap_errors(capsys):
    code, _, err = run_cli(capsys, "compare", "--hypercube", "12")
    assert code == 2
    assert "cap" in err


# -- input errors -------------------------------------------------------------------


def test_missing_graph_file(capsys):
    code, _, err = run_cli(capsys, "dims", "--graph", "/no/such/file.json")
    assert code == 2


def test_graph_file_with_loop(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 0]]}))
    code, _, err = run_cli(capsys, "dims", "--graph", str(path))
    assert code == 2
    assert "loop" in err


def test_graph_file_with_duplicate_edges(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1], [1, 0]]}))
    code, _, err = run_cli(capsys, "dims", "--graph", str(path))
    assert code == 2
    assert "duplicate" in err


def test_graph_file_with_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "dims", "--graph", str(path))
    assert code == 2


def test_verify_failure_maps_to_exit_code_1(capsys, monkeypatch):
    import alike.cli as cli
    from alike.alike import GroupResult, VerificationReport

    def fake_verify_all(ctx, groups=None, seed=0, graph=None, brute_cap=64):
        report = VerificationReport(d=ctx.d, seed=seed)
        report.groups.append(GroupResult("alpha", False, 1, witness="forced"))
        return report

    monkeypatch.setattr(cli, "verify_all", fake_verify_all)
    code, data, _ = run_json(capsys, "verify", "--hypercube", "2")
    assert code == 1
    assert data["all_passed"] is False


# -- golden outputs (schema locks) ----------------------------------------------------

GOLDEN_DIMS_Q2 = """\
{
  "source": {
    "type": "hypercube",
    "d": 2,
    "vertices": 4
  },
  "sym": 3,
  "antisym": 1,
  "total": 4,
  "formula": {
    "sym": 3,
    "antisym": 1,
    "total": 4
  },
  "formula_agrees": true,
  "bruteforce": {
    "within_cap": true,
    "sym": 3,
    "antisym": 1,
    "total": 4,
    "agrees": true
  }
}
"""

GOLDEN_TRIPLET_Q1_SYM = """\
matrix identity rows=2 cols=2
0 0 1
1 1 1

matrix alpha_1 rows=2 cols=2
0 1 1
1 0 1
"""


def test_golden_dims_q2(capsys):
    code, out, _ = run_cli(capsys, "dims", "--hypercube", "2")
    assert code == 0
    assert out == GOLDEN_DIMS_Q2


def test_golden_triplet_q1_sym(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--hypercube", "1", "--part", "sym", "--format", "triplet"
    )
    assert code == 0
    assert out == GOLDEN_TRIPLET_Q1_SYM


# -- determinism ---------------------------------------------------------------------


def test_verify_output_is_byte_identical_across_runs():
    argv = [sys.executable, "-m", "alike.cli", "verify", "--hypercube", "3",
            "--seed", "7"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip().startswith(b"{")
