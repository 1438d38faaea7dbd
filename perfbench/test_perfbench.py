"""Tests of the benchmark itself: input generator, output checker, tracer."""

import json
from pathlib import Path

import alike.cli
import alike.exactlinalg
from alike.exactlinalg import ExactMatrix

from perfbench import check, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic():
    first = workloads.solve_graphs(11)
    assert first == workloads.solve_graphs(11)
    assert first != workloads.solve_graphs(12)
    for stem, (n, edges) in first:
        assert all(0 <= u < v < n for u, v in edges), stem
        assert len(set(edges)) == len(edges), stem
    degree = {"circulant": 6, "cayley": 7, "sparse": 6, "dense": 7}
    for stem, (n, edges) in first:
        degrees = [sum(v in e for e in edges) for v in range(n)]
        assert degrees == [degree[stem.split("-")[0]]] * n, stem
    sizes = {stem.split("-")[0]: n for stem, (n, _) in first}
    assert sizes == {"circulant": 40, "cayley": 64, "sparse": 64, "dense": 36}


def test_build_writes_the_graph_files(tmp_path):
    invocations = workloads.build("solve-graphs", 5, tmp_path)
    solves = [inv for inv in invocations if inv.kind == "solve"]
    assert len(solves) == sum(count for _, count in workloads.FAMILIES)
    for inv in solves:
        doc = json.loads(Path(inv.argv[-1]).read_text())
        assert (doc["n"], [tuple(e) for e in doc["edges"]]) == inv.graph


def _solve_output(tmp_path, capsys, n, edges):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    inv = workloads.Invocation(("solve", "--graph", str(path)), "solve", graph=(n, edges))
    code = alike.cli.main(list(inv.argv))
    return inv, code, capsys.readouterr().out


def test_checker_accepts_a_correct_solve(tmp_path, capsys):
    inv, code, out = _solve_output(tmp_path, capsys, 5, [(i, (i + 1) % 5) for i in range(5)])
    assert check.problems(inv, code, out.encode()) == []


def test_checker_flags_a_non_alike_matrix(tmp_path, capsys):
    inv, code, out = _solve_output(tmp_path, capsys, 3, [(0, 1), (1, 2)])
    doc = json.loads(out)
    doc["matrices"][0]["entries"][0][2] = "1"  # (0, 2) is not an edge of P3
    found = check.problems(inv, code, json.dumps(doc).encode())
    assert any("not A-like" in p for p in found)
    # inside the support but not commuting with A
    assert "BA != AB" in check.alike_problem(3, [(0, 1), (1, 2)], {(0, 0): (1, 1)})
    assert check.alike_problem(3, [(0, 1), (1, 2)], {(0, 1): (1, 1)}) is not None


def test_checker_flags_corrupted_stdout(tmp_path, capsys):
    inv, code, out = _solve_output(tmp_path, capsys, 3, [(0, 1), (1, 2)])
    assert check.problems(inv, code, out[: len(out) // 2].encode())
    assert check.problems(inv, 1, out.encode()) == ["exit code 1"]
    doc = json.loads(out)
    doc["matrices"].append(doc["matrices"][0])
    doc["dims"]["total"] += 1
    doc["dims"]["sym"] += 1
    found = check.problems(inv, code, json.dumps(doc).encode())
    assert "basis matrices are linearly dependent" in found


def test_checker_flags_failed_verdicts(capsys):
    inv = workloads.verify(2, 3)
    code = alike.cli.main(list(inv.argv))
    out = capsys.readouterr().out
    assert check.problems(inv, code, out.encode()) == []
    doc = json.loads(out)
    doc["all_passed"] = False
    doc["groups"][1]["passed"] = False
    assert len(check.problems(inv, code, json.dumps(doc).encode())) == 2

    inv = workloads.Invocation(("dims", "--hypercube", "3"), "dims", d=3)
    code = alike.cli.main(list(inv.argv))
    doc = json.loads(capsys.readouterr().out)
    assert check.problems(inv, code, json.dumps(doc).encode()) == []
    doc["antisym"] += 1
    assert check.problems(inv, code, json.dumps(doc).encode())


def test_checker_expects_the_groups_a_verify_runs(capsys):
    inv = workloads.verify(2, 3, ("alpha", "restriction"))
    assert inv.argv[-2:] == ("--skip", "eigenbasis,idempotents,characterization,"
                             "sym_basis,antisym_basis,dimensions")
    code = alike.cli.main(list(inv.argv))
    out = capsys.readouterr().out
    assert check.problems(inv, code, out.encode()) == []
    doc = json.loads(out)
    doc["groups"].pop()
    found = check.problems(inv, code, json.dumps(doc).encode())
    assert found == ["check groups differ from the expected ones"]


def test_checker_flags_bad_closed_form_basis(capsys):
    argv = ("basis", "--hypercube", "3", "--part", "antisym", "--format", "triplet")
    inv = workloads.Invocation(argv, "basis-triplet", d=3)
    code = alike.cli.main(list(argv))
    out = capsys.readouterr().out
    assert check.problems(inv, code, out.encode()) == []
    first_entry = next(line for line in out.splitlines() if line and not line.startswith("matrix"))
    r, c, v = first_entry.split()
    flipped = out.replace(first_entry, f"{r} {c} {-int(v)}", 1)
    assert any("antisymmetric" in p for p in check.problems(inv, code, flipped.encode()))


def test_judge_flags_a_repeat_with_other_bytes(capsys):
    inv = workloads.Invocation(("compare", "--hypercube", "2"), "compare", d=2)
    code = alike.cli.main(list(inv.argv))
    out = capsys.readouterr().out.encode()
    judge = run.Judge([inv])
    judge.judge(0, code, out)
    judge.judge(0, code, out)
    assert (judge.attempted, judge.failed) == (2, 0)
    judge.judge(0, code, out + b" ")
    assert (judge.attempted, judge.failed) == (3, 1)


def test_tracer_partitions_time_and_restores(tmp_path):
    original_nullspace = alike.exactlinalg.nullspace
    original_matmul = ExactMatrix.__matmul__
    invocations = [
        workloads.Invocation(("verify", "--hypercube", "3", "--seed", "1"), "verify", d=3, seed=1),
        workloads.Invocation(("compare", "--hypercube", "3"), "compare", d=3),
        workloads.Invocation(("basis", "--hypercube", "3", "--part", "full"), "basis-json", d=3),
    ]
    untraced = tracing.run_in_process(alike.cli, invocations)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracing.run_in_process(alike.cli, invocations, tracer)
    finally:
        tracer.uninstall()
    assert alike.exactlinalg.nullspace is original_nullspace
    assert alike.cli.solve_alike is alike.alike.solve_alike
    assert ExactMatrix.__matmul__ is original_matmul
    assert [r[:2] for r in untraced] == [r[:2] for r in traced]

    value = tracing.layer_values(tracer, invocations, traced)
    assert abs(value["trace.self_sum_s"] - value["trace.wall_s"]) <= 0.05 * value["trace.wall_s"]
    assert value["exactlinalg.matmul.calls"] > 0 and value["alike.solve_alike.calls"] == 2
    assert value["alike.group.characterization.checks"] > 0
    assert value["alike.group.characterization.s"] > 0
    assert {span[4] for span in tracer.spans} == {0, 1, 2}
    spans_path = tmp_path / "spans.jsonl"
    tracer.write(spans_path)
    assert value["trace.spans"] == len(spans_path.read_text().splitlines())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]
