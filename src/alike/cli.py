"""Command-line front end.

Subcommands: dims, basis, solve, verify, compare.  Sources are either a
hypercube dimension (--hypercube D) or a JSON graph file (--graph PATH with
{"n": int, "edges": [[u, v], ...]}).  All numeric output is exact: rationals
serialize as "num/den" strings (plain integers when the denominator is 1),
never floats.  Matrix and key orderings are fixed so output is byte-stable
for a given configuration and seed.

Exit codes: 0 all requested checks/comparisons pass, 1 a verification or
comparison failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .alike import (
    DEFAULT_BRUTE_CAP,
    GROUP_NAMES,
    closed_form_antisym_basis,
    closed_form_spans,
    closed_form_sym_basis,
    coordinate_pairs,
    resolve_groups,
    solve_alike,
    verify_all,
)
from .exactlinalg import span_equal
from .hypercube import DEFAULT_CONSTRUCTION_CAP, hypercube, load_graph

PARTS = ("full", "sym", "antisym")
FORMATS = ("json", "triplet")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# ALIKE_CAP_D may raise the construction cap this far and no further: the
# 16-cube already has 65536 vertices
MAX_CAP_D = 16


def _construction_cap():
    raw = os.environ.get("ALIKE_CAP_D")
    if raw is None:
        return DEFAULT_CONSTRUCTION_CAP
    try:
        cap = _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"ALIKE_CAP_D: {exc}") from None
    if cap > MAX_CAP_D:
        raise ValueError(f"ALIKE_CAP_D: must be at most {MAX_CAP_D}")
    return cap


def _emit(payload):
    # The small reports (dims, verify, compare); basis matrices go through
    # _emit_matrices, which writes the same layout from their sparse entries.
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# a zero entry of a matrix row, at its indent in the json.dumps(indent=2) layout
_ZERO = "\n" + " " * 10 + '"0"'


def _write_matrix(out, label, m):
    """Write one element of "matrices", byte-identical to json.dumps(indent=2).

    Each row is cut from the text of one all-zero row, whose '"0"' cells sit
    len(_ZERO) + 1 apart: its sorted nonzero entries replace their cells, and
    a row with no nonzero entry is that text itself.  The rows go out in runs
    of at least 64 KiB of text: a larger matrix is never one string, and it
    takes few writes.
    """
    cells = ",".join([_ZERO] * m.cols)
    zero = "\n" + " " * 8 + ("[" + cells + "\n" + " " * 8 + "]" if cells else "[]")
    first = zero.find('"0"')
    rows = {}
    for (r, c), v in sorted(m.entries.items()):
        rows.setdefault(r, []).append((first + c * (len(_ZERO) + 1), v))
    pieces = [
        f'\n    {{\n      "label": {encode_basestring_ascii(label)},'
        f'\n      "rows": {m.rows},\n      "cols": {m.cols},'
        '\n      "entries": '
    ]
    per_write = 1 + (1 << 16) // len(zero)
    for r in range(m.rows):
        pieces.append("," if r else "[")
        start = 0
        for at, v in rows.get(r, ()):
            pieces += (zero[start:at], encode_basestring_ascii(str(v)))
            start = at + len('"0"')
        pieces.append(zero[start:])
        if r % per_write == per_write - 1:
            out.write("".join(pieces))
            pieces = []
    pieces.append("\n      ]\n    }" if m.rows else "[]\n    }")
    out.write("".join(pieces))


def _emit_matrices(args, labeled, payload):
    """Write labeled matrices as triplets, or as ``payload`` plus "matrices".

    The JSON bytes are those of json.dumps(payload, indent=2) with the dense
    "matrices" list as the last key, and the triplet bytes are those of one
    "\\n".join over the document.  Either way each matrix is written on its
    own, a JSON one row at a time, so the document is never one string.
    """
    out = sys.stdout  # looked up per call: callers redirect stdout
    if args.format == "json":
        head = json.dumps(payload, indent=2)[: -len("\n}")]
        out.write(head + ',\n  "matrices": [')
        for k, (label, m) in enumerate(labeled):
            out.write("," if k else "")
            _write_matrix(out, label, m)
        out.write("\n  ]\n}\n" if labeled else "]\n}\n")
        return 0
    for k, (label, m) in enumerate(labeled):
        lines = [f"matrix {label} rows={m.rows} cols={m.cols}"]
        lines += (f"{r} {c} {v}" for (r, c), v in sorted(m.entries.items()))
        out.write(("\n" if k else "") + "\n".join(lines) + "\n")
    return 0


def _closed_form_matrices(ctx, part):
    labeled = []
    if part != "antisym":
        labels = ["identity"] + [f"alpha_{i}" for i in range(1, ctx.d + 1)]
        labeled += zip(labels, closed_form_sym_basis(ctx))
    if part != "sym":
        labels = [f"b_{i}_{j}" for i, j in coordinate_pairs(ctx.d)]
        labeled += zip(labels, closed_form_antisym_basis(ctx))
    return labeled


def _solved_matrices(decomposition, part):
    return [
        (f"{part}_{k}", m)
        for k, m in enumerate(decomposition.basis_matrices(part))
    ]


def _source_payload(args):
    if args.hypercube is None:
        return {"type": "graph", "path": args.graph}
    return {"type": "hypercube", "d": args.hypercube, "vertices": 1 << args.hypercube}


def _load(args):
    cap = _construction_cap()
    if args.hypercube is not None:
        return hypercube(args.hypercube, cap=cap)
    return load_graph(args.graph), None


def _dims(decomposition):
    total, sym, antisym = decomposition.dims
    return {"sym": sym, "antisym": antisym, "total": total}


def cmd_dims(args):
    graph, ctx = _load(args)
    payload = {"source": _source_payload(args)}
    if ctx is None:
        payload["source"]["vertices"] = graph.n
        payload.update(_dims(solve_alike(graph, cap=args.cap_bruteforce)))
        _emit(payload)
        return 0
    d = ctx.d
    spans = closed_form_spans(ctx)
    dims = {"sym": spans["sym"].dim, "antisym": spans["antisym"].dim}
    dims["total"] = spans["full"].dim
    formula = {"sym": d + 1, "antisym": math.comb(d, 2)}
    formula["total"] = 1 + d + math.comb(d, 2)
    ok = dims == formula
    payload.update(dims, formula=formula, formula_agrees=ok)
    payload["bruteforce"] = {"within_cap": ctx.n <= args.cap_bruteforce}
    if ctx.n <= args.cap_bruteforce:
        brute = _dims(solve_alike(graph, cap=args.cap_bruteforce))
        payload["bruteforce"].update(brute, agrees=brute == dims)
        ok = ok and brute == dims
    _emit(payload)
    return 0 if ok else 1


def cmd_basis(args):
    graph, ctx = _load(args)
    if ctx is not None:
        labeled = _closed_form_matrices(ctx, args.part)
    else:
        decomposition = solve_alike(graph, cap=args.cap_bruteforce)
        labeled = _solved_matrices(decomposition, args.part)
    payload = {"source": _source_payload(args), "part": args.part}
    payload["count"] = len(labeled)
    return _emit_matrices(args, labeled, payload)


def cmd_solve(args):
    graph, _ctx = _load(args)
    decomposition = solve_alike(graph, cap=args.cap_bruteforce)
    total, sym, antisym = decomposition.dims
    dims = {"total": total, "sym": sym, "antisym": antisym}
    payload = {"source": _source_payload(args), "dims": dims, "part": args.part}
    labeled = _solved_matrices(decomposition, args.part)
    return _emit_matrices(args, labeled, payload)


def cmd_verify(args):
    graph, ctx = _load(args)
    skip = resolve_groups(name.strip() for name in args.skip.split(",") if name.strip())
    groups = [name for name in GROUP_NAMES if name not in skip]
    report = verify_all(
        ctx, groups=groups, seed=args.seed, graph=graph, brute_cap=args.cap_bruteforce
    )
    for name, seconds in report.timings.items():
        print(f"[timing] {name}: {seconds:.3f}s", file=sys.stderr)
    _emit(report.to_dict())
    return 0 if report.all_passed else 1


def cmd_compare(args):
    graph, ctx = _load(args)
    solved = solve_alike(graph, cap=args.cap_bruteforce).parts
    closed = closed_form_spans(ctx)
    payload = {"d": ctx.d, "vertices": ctx.n}
    payload.update({part: span_equal(solved[part], closed[part]) for part in PARTS})
    payload["all_equal"] = all(payload[part] for part in PARTS)
    _emit(payload)
    return 0 if payload["all_equal"] else 1


#: Subcommand -> (handler, help, accepts --graph, takes --part and --format).
COMMANDS = {
    "dims": (cmd_dims, "dimensions of the space and its parts", True, False),
    "basis": (cmd_basis, "emit basis matrices", True, True),
    "solve": (cmd_solve, "brute-force solve and emit the result", True, True),
    "verify": (cmd_verify, "run the identity-check groups", False, False),
    "compare": (
        cmd_compare, "compare solver output with the closed-form bases", False, False
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alike",
        description=(
            "Compute and verify the space of matrices that commute with a "
            "graph's adjacency matrix and vanish off the diagonal-plus-edges "
            "support, including the closed-form hypercube bases."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, graph_allowed, emits_matrices) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--hypercube",
            type=_positive_int,
            metavar="D",
            help="use the D-dimensional hypercube",
        )
        if graph_allowed:
            source.add_argument("--graph", metavar="PATH", help="use a JSON graph file")
        p.add_argument(
            "--cap-bruteforce",
            type=_positive_int,
            default=DEFAULT_BRUTE_CAP,
            metavar="N",
            help=f"vertex cap for the brute-force solver (default {DEFAULT_BRUTE_CAP})",
        )
        if emits_matrices:
            p.add_argument("--part", choices=PARTS, default="full")
            p.add_argument("--format", choices=FORMATS, default="json")
    verify = sub.choices["verify"]
    verify.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    verify.add_argument(
        "--skip",
        default="",
        metavar="GROUP,...",
        help=f"groups to skip (of: {', '.join(GROUP_NAMES)}; 'brute' means dimensions)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
