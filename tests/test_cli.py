import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

import alike.cli as cli_module
import alike.hypercube
from alike.cli import _emit_matrices, main
from alike.exactlinalg import ExactMatrix
from alike.hypercube import hypercube
from alike.alike import GROUP_NAMES, b_matrix, is_alike


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


def dense_matrix_payload(label, m):
    """The dense "matrices" element, as json.dumps would be handed it."""
    entries = [["0"] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        entries[r][c] = str(v)
    return {"label": label, "rows": m.rows, "cols": m.cols, "entries": entries}


# zero is drawn often, so most rows hold one or two nonzeros
_entry = st.one_of(
    st.just(0),
    st.integers(-1000, 1000),
    st.fractions(-9, 9, max_denominator=7),
)
_label = st.text(st.one_of(st.sampled_from('"\\/\u00e9\u20ac\n'), st.characters()))


_shape = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 6)),
    st.tuples(st.just(1), st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(1)),
)


@st.composite
def labeled_matrices(draw):
    # any number of the matrices may share one shape, and the writer builds
    # each one's zero row afresh; an all-zero matrix is drawn on purpose
    shared = draw(_shape)
    labeled = []
    for _ in range(draw(st.integers(0, 4))):
        rows, cols = draw(st.one_of(st.just(shared), _shape))
        size = rows * cols
        cells = draw(
            st.one_of(st.lists(_entry, min_size=size, max_size=size), st.just([0] * size))
        )
        m = ExactMatrix(rows, cols, {divmod(k, cols): v for k, v in enumerate(cells)})
        labeled.append((draw(_label), m))
    return labeled


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(labeled_matrices(), _label)
@example(
    [
        ("a", ExactMatrix(2, 3, {(0, 0): 5, (1, 2): Fraction(-1, 2)})),
        ("b", ExactMatrix(2, 3)),
        ("c", ExactMatrix(2, 3, {(1, 1): 7})),
        ("d", ExactMatrix(3, 2, {(2, 1): 1})),
    ],
    "shared",
)
def test_json_matrices_match_the_indent_encoder(labeled, path):
    payload = {"source": {"type": "graph", "path": path}, "count": len(labeled)}
    document = dict(payload, matrices=[dense_matrix_payload(*lm) for lm in labeled])
    expected = json.JSONEncoder(indent=2).encode(document) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _emit_matrices(SimpleNamespace(format="json"), labeled, payload) == 0
    assert out.getvalue() == expected
    assert json.loads(out.getvalue()) == document


class _CharCounter:
    """A stdout that keeps only how many characters were written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


def test_json_matrix_is_written_without_its_dense_text():
    # the dense text of this matrix is 63 MB; the writer may hold a row of it
    n = 2048
    m = ExactMatrix(n, n, {(0, 0): 1, (n // 2, 7): Fraction(-3, 5), (n - 1, n - 1): 2})
    sink = _CharCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            _emit_matrices(SimpleNamespace(format="json"), [("m", m)], {"count": 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert sink.chars > 15 * n * n  # every cell went through the sink


def triplet_document(labeled):
    """The triplet text as one "\\n".join over the whole document."""
    lines = []
    for label, m in labeled:
        lines.append(f"matrix {label} rows={m.rows} cols={m.cols}")
        lines += (f"{r} {c} {v}" for (r, c), v in sorted(m.entries.items()))
        lines.append("")
    return "\n".join(lines)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(labeled_matrices())
@example([])
@example([("zero", ExactMatrix(2, 3))])
def test_triplet_matrices_match_one_join_over_the_document(labeled):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        payload = {"count": len(labeled)}
        assert _emit_matrices(SimpleNamespace(format="triplet"), labeled, payload) == 0
    assert out.getvalue() == triplet_document(labeled)


def test_basis_holds_one_closed_form_matrix_at_a_time(monkeypatch):
    # the traced memory as each b_ij of Q11 starts to be built: every earlier
    # matrix written and dropped, it is where it was for b_12, give or take
    # the at most 2000 freed pairs (110 KiB) that CPython keeps for reuse
    loaded = hypercube(11)
    monkeypatch.setattr(cli_module, "_load", lambda args: loaded)
    before, sizes = [], []

    def traced_b_matrix(ctx, i, j):
        before.append(tracemalloc.get_traced_memory()[0])
        m = b_matrix(ctx, i, j)
        sizes.append(tracemalloc.get_traced_memory()[0] - before[-1])
        return m

    monkeypatch.setattr(cli_module, "b_matrix", traced_b_matrix)
    argv = ["basis", "--hypercube", "11", "--part", "antisym", "--format", "triplet"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_CharCounter()):
            main(argv)
    finally:
        tracemalloc.stop()
    assert len(before) == 55
    assert max(before) - before[0] < min(sizes) // 2


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


def test_verify_runs_the_projector_checks_at_d10(capsys):
    others = ",".join(name for name in GROUP_NAMES if name != "idempotents")
    code, data, _ = run_json(capsys, "verify", "--hypercube", "10", "--skip", others)
    assert code == 0
    [group] = data["groups"]
    assert group["name"] == "idempotents"
    assert group["passed"] is True and group["skipped"] is False
    assert group["checks"] == 168


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


def test_seed_is_a_verify_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--hypercube", "2", "--seed", "1"])
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
    monkeypatch.setenv("ALIKE_CAP_D", "17")
    code, out, err = run_cli(capsys, "dims", "--hypercube", "3")
    assert code == 2
    assert out == ""
    assert "ALIKE_CAP_D: must be at most 16" in err
    monkeypatch.setenv("ALIKE_CAP_D", "16")
    code, _, _ = run_cli(capsys, "dims", "--hypercube", "3")
    assert code == 0


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


def test_graph_file_above_solver_cap_is_usage_error(capsys, tmp_path):
    # rejected by the solver cap without first building a million vertices
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10**6, "edges": []}))
    code, out, err = run_cli(capsys, "dims", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "brute-force solver capped at 64 vertices, got 1000000" in err


def test_graph_file_above_byte_bound_is_usage_error(capsys, tmp_path, monkeypatch):
    # the file is rejected by its size, before json parses any of it
    path = write_p3(tmp_path)
    size = os.path.getsize(path)
    monkeypatch.setattr(alike.hypercube, "MAX_GRAPH_FILE_BYTES", size - 1)
    code, out, err = run_cli(capsys, "solve", "--graph", path)
    assert code == 2
    assert out == ""
    assert f"graph file is larger than {size - 1} bytes" in err
    monkeypatch.setattr(alike.hypercube, "MAX_GRAPH_FILE_BYTES", size)
    code, _, _ = run_cli(capsys, "solve", "--graph", path)
    assert code == 0


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


def test_deeply_nested_graph_file_is_usage_error(capsys, tmp_path):
    # far below the byte bound, but deeper than the json parser can recurse
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "dims", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "graph file nests too deeply" in err


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


# -- no numpy --------------------------------------------------------------------------

NUMPY_PROBE = """
import sys
import alike.cli as cli
for argv in (["dims", "--hypercube", "3"], ["compare", "--hypercube", "3"],
             ["basis", "--hypercube", "3"], ["solve", "--graph", sys.argv[1]],
             ["verify", "--hypercube", "2"]):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""

#: With numpy blocked in sys.modules, any attempt to import it raises.
NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
import alike.cli as cli
sys.exit(cli.main(["verify", "--hypercube", "2"]))
"""


def test_no_command_loads_numpy():
    # fresh interpreters, so no earlier test has imported numpy already
    graph = Path(__file__).resolve().parent / "golden" / "p3.json"
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(graph)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    blocked = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED], capture_output=True, text=True
    )
    assert blocked.returncode == 0, blocked.stderr
    groups = {g["name"]: g for g in json.loads(blocked.stdout)["groups"]}
    assert groups["idempotents"]["passed"] and not groups["idempotents"]["skipped"]


# -- start-up --------------------------------------------------------------------------

STARTUP_PROBE = """
import sys
import alike.cli
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: pytest itself has imported both; together they
    # cost every `alike` process about 10 ms of start-up
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
