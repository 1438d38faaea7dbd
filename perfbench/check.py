"""Output checker for the benchmark's invocations.

Judges each invocation's exit code and stdout with the benchmark's own
integer arithmetic; nothing here imports `alike`, so a fault in the program
cannot hide itself by also corrupting the check.  `problems` returns a list of
findings, empty when the output is correct.
"""

from __future__ import annotations

import json
import math

from .workloads import GROUPS, cayley_z2, cube_dims

#: Prime for the independence check of emitted bases.
PRIME = (1 << 61) - 1


def parse_rational(text):
    """'p' or 'p/q' as a pair of ints (p, q) with q > 0."""
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    if q <= 0:
        raise ValueError(f"bad rational {text!r}")
    return p, q


def integer_entries(entries):
    """Scale {(r, c): (p, q)} by the lcm of the denominators to {(r, c): int}."""
    scale = 1
    for _, q in entries.values():
        scale = scale * q // math.gcd(scale, q)
    return {key: p * (scale // q) for key, (p, q) in entries.items()}


def cube_graph(d):
    return cayley_z2(d, [1 << i for i in range(d)])


def alike_problem(n, edges, entries):
    """Why the n x n matrix {(r, c): (p, q)} is not A-like for the graph, or None.

    A-like means BA = AB and B[x, y] = 0 at distinct non-adjacent x, y.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    ent = integer_entries(entries)
    for (x, y), value in sorted(ent.items()):
        if not (0 <= x < n and 0 <= y < n):
            return f"entry ({x},{y}) outside {n}x{n}"
        if value and x != y and y not in nbrs[x]:
            return f"support violated at ({x},{y})"
    ba, ab = {}, {}
    for (x, v), value in ent.items():
        for y in nbrs[v]:  # (BA)[x, y] = sum_v B[x, v] A[v, y]
            ba[(x, y)] = ba.get((x, y), 0) + value
        for w in nbrs[x]:  # (AB)[w, v] = sum_x A[w, x] B[x, v]
            ab[(w, v)] = ab.get((w, v), 0) + value
    ba = {k: v for k, v in ba.items() if v}
    ab = {k: v for k, v in ab.items() if v}
    if ba != ab:
        pos = min(k for k in ba.keys() | ab.keys() if ba.get(k) != ab.get(k))
        return f"BA != AB at {pos}"
    return None


def modular_rank(vectors):
    """Rank mod PRIME of sparse vectors {index: (p, q)}."""
    pivots = {}  # pivot index -> row normalised to 1 there
    for vec in vectors:
        row = {
            k: p % PRIME * pow(q, -1, PRIME) % PRIME for k, (p, q) in vec.items()
        }
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], -1, PRIME)
                pivots[lead] = {k: v * inv % PRIME for k, v in row.items()}
                break
            factor = row[lead]
            for k, v in pivots[lead].items():
                nv = (row.get(k, 0) - factor * v) % PRIME
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def _json_matrix(obj):
    """(label, rows, cols, {(r, c): (p, q)}) of one emitted JSON matrix."""
    entries = {}
    for r, row in enumerate(obj["entries"]):
        if len(row) != obj["cols"]:
            raise ValueError(f"matrix {obj['label']} row {r} has {len(row)} entries")
        for c, text in enumerate(row):
            if text != "0":
                entries[(r, c)] = parse_rational(text)
    if len(obj["entries"]) != obj["rows"]:
        raise ValueError(f"matrix {obj['label']} has the wrong row count")
    return obj["label"], obj["rows"], obj["cols"], entries


def _triplet_matrices(text):
    matrices = []
    for line in text.splitlines():
        if line.startswith("matrix "):
            _, label, rows, cols = line.split()
            matrices.append(
                (label, int(rows.removeprefix("rows=")), int(cols.removeprefix("cols=")), {})
            )
        elif line:
            r, c, value = line.split()
            matrices[-1][3][(int(r), int(c))] = parse_rational(value)
    return matrices


def _antisym_labels(d):
    return [f"b_{i}_{j}" for i in range(1, d + 1) for j in range(i + 1, d + 1)]


def _full_labels(d):
    return ["identity"] + [f"alpha_{i}" for i in range(1, d + 1)] + _antisym_labels(d)


def _matrix_problems(matrices, n, edges, labels=None):
    found = []
    if labels is not None and [m[0] for m in matrices] != labels:
        found.append("matrix labels or count differ from the closed form")
    for label, rows, cols, entries in matrices:
        if (rows, cols) != (n, n):
            found.append(f"{label} is {rows}x{cols}, expected {n}x{n}")
            continue
        why = alike_problem(n, edges, entries)
        if why:
            found.append(f"{label} is not A-like: {why}")
    return found


def problems(inv, exit_code, stdout: bytes):
    """Findings against one invocation's exit code and stdout."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _output_problems(inv, stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _output_problems(inv, text):
    if inv.kind == "basis-triplet":
        matrices = _triplet_matrices(text)
        n, edges = cube_graph(inv.d)
        found = _matrix_problems(matrices, n, edges, _antisym_labels(inv.d))
        for label, _, _, entries in matrices:
            if any(entries.get((c, r)) != (-p, q) for (r, c), (p, q) in entries.items()):
                found.append(f"{label} is not antisymmetric")
        return found
    obj = json.loads(text)
    if inv.kind == "verify":
        found = []
        if (obj["d"], obj["seed"]) != (inv.d, inv.seed):
            found.append("report is for another cube or seed")
        if obj["all_passed"] is not True:
            found.append("all_passed is not true")
        # --skip leaves a group out of the report
        if tuple(g["name"] for g in obj["groups"]) != tuple(
            g for g in GROUPS if g not in inv.skip
        ):
            found.append("check groups differ from the expected ones")
        found += [
            f"group {g['name']} failed or did not run"
            for g in obj["groups"]
            if g["skipped"] or g["passed"] is not True
        ]
        return found
    if inv.kind == "compare":
        if (obj["d"], obj["vertices"]) != (inv.d, 1 << inv.d):
            return ["comparison is for another cube"]
        keys = ("full", "sym", "antisym", "all_equal")
        return [f"{key} is not true" for key in keys if obj[key] is not True]
    if inv.kind == "dims":
        total, sym, antisym = cube_dims(inv.d)
        want = {"sym": sym, "antisym": antisym, "total": total}
        found = []
        if obj["formula"] != want or any(obj[k] != v for k, v in want.items()):
            found.append(f"dims differ from (1+d+C(d,2), d+1, C(d,2)) = {want}")
        if obj["formula_agrees"] is not True:
            found.append("formula_agrees is not true")
        brute = obj["bruteforce"]
        if brute["within_cap"] and (
            brute["agrees"] is not True or any(brute[k] != v for k, v in want.items())
        ):
            found.append("brute-force dims disagree with the formula")
        return found
    if inv.kind == "solve":
        n, edges = inv.graph
        dims = obj["dims"]
        matrices = [_json_matrix(m) for m in obj["matrices"]]
        found = []
        if dims["total"] != dims["sym"] + dims["antisym"]:
            found.append("sym + antisym != total")
        if len(matrices) != dims["total"]:
            found.append(f"{len(matrices)} basis matrices for dimension {dims['total']}")
        found += _matrix_problems(matrices, n, edges)
        flat = [{r * n + c: v for (r, c), v in m[3].items()} for m in matrices]
        if modular_rank(flat) != len(matrices):
            found.append("basis matrices are linearly dependent")
        return found
    if inv.kind == "basis-json":
        if (obj["source"]["d"], obj["part"]) != (inv.d, "full"):
            return ["basis is for another cube or part"]
        total, _, _ = cube_dims(inv.d)
        found = [] if obj["count"] == total else [f"count {obj['count']} != {total}"]
        n, edges = cube_graph(inv.d)
        matrices = [_json_matrix(m) for m in obj["matrices"]]
        return found + _matrix_problems(matrices, n, edges, _full_labels(inv.d))
    raise ValueError(f"unknown invocation kind {inv.kind!r}")
