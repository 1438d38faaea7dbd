"""In-process traced run: spans around the public functions of `alike`.

The tracer wraps each function listed in LAYERS where it is looked up: as a
module attribute in every `alike` module that holds it (the modules import
one another's functions by name), or as a class attribute for methods.  Each
call records a span (name, start, end, parent, invocation id) in memory; a
layer's self time is its spans' durations minus the time their child spans
cover.  Counters (COUNTERS) are taken inside their span, so their cost is
part of that layer's self time.  The program's own code is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from . import workloads
from .workloads import GROUPS

#: Layer span name -> the public functions ("module:qualname") it covers.
LAYERS = {
    "exactlinalg.matmul": ["exactlinalg:ExactMatrix.__matmul__"],
    "exactlinalg.matvec": ["exactlinalg:ExactMatrix.matvec"],
    # a subtraction is one __sub__ span holding the __add__ span it makes
    "exactlinalg.addsub": ["exactlinalg:ExactMatrix.__add__", "exactlinalg:ExactMatrix.__sub__"],
    "exactlinalg.nullspace": ["exactlinalg:nullspace"],
    "exactlinalg.subspace": ["exactlinalg:SubspaceBasis.__init__"],
    "exactlinalg.contains": ["exactlinalg:SubspaceBasis.contains"],
    "exactlinalg.rank": ["exactlinalg:rank"],
    "hypercube.eigen_data": ["hypercube:eigen_data"],
    "hypercube.idempotent_report": ["hypercube:idempotent_report"],
    "hypercube.structure": [
        "hypercube:alpha",
        "hypercube:alpha_star",
        "hypercube:adjacency",
        "hypercube:cube_adjacency",
        "hypercube:alpha_via_kron",
        "hypercube:alpha_star_via_kron",
        "hypercube:scaled_eigenvector",
    ],
    "hypercube.graph_io": ["hypercube:hypercube", "hypercube:load_graph"],
    "alike.solve_alike": ["alike:solve_alike"],
    "alike.residual": ["alike:characterization_residual"],
    "alike.restriction": ["alike:restriction_to_E1"],
    "alike.is_alike": ["alike:is_alike"],
    "alike.b_matrix": ["alike:b_matrix"],
    "alike.closed_form": ["alike:closed_form_sym_basis", "alike:closed_form_antisym_basis"],
    # the check groups' own code: comparisons, sign-vector matching, loops
    "alike.verify_all": ["alike:verify_all"],
    # root span of every invocation: parsing, payload building, json.dumps, write
    "cli": ["cli:main"],
}

V, W, E, R = "verify-cube6", "solve-graphs", "emit-basis", "moves wall_ref and cpu_ref"
C = f"moves wall_ref and peak_rss_mb on {E}, almost nothing elsewhere"
#: Per-layer metrics: (name, unit, better, note).  The note of a layer metric
#: says which end-to-end metric it should move, on which workload.
PER_LAYER = [
    ("exactlinalg.matmul.calls", "count", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.matmul.self_s", "s", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.matmul.nnz_out", "count", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.matvec.calls", "count", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.matvec.self_s", "s", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.addsub.calls", "count", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.addsub.self_s", "s", "lower", f"{R} on {V}, a little on {E}, not {W}"),
    ("exactlinalg.nullspace.calls", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.nullspace.self_s", "s", "lower", f"{R} on {W}"),
    ("exactlinalg.nullspace.rows", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.nullspace.cols", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.subspace.calls", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.subspace.self_s", "s", "lower", f"{R} on {W}"),
    ("exactlinalg.subspace.vectors_in", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.subspace.dim_out", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.contains.calls", "count", "lower", f"{R} on {W}"),
    ("exactlinalg.contains.self_s", "s", "lower", f"{R} on {W}"),
    ("exactlinalg.max_out_bits", "bits", "lower", f"{R} on {W}"),
    ("exactlinalg.rank.calls", "count", "lower", f"{R} on {V}, through idempotents"),
    ("exactlinalg.rank.self_s", "s", "lower", f"{R} on {V}, through idempotents"),
    ("hypercube.eigen_data.self_s", "s", "lower", f"{R} on {V}, through idempotents"),
    ("hypercube.idempotent_report.self_s", "s", "lower", f"{R} on {V}, through idempotents"),
    ("hypercube.structure.calls", "count", "lower", f"{R} on {V} and {W}"),
    ("hypercube.structure.self_s", "s", "lower", f"{R} on {V} and {W}"),
    ("hypercube.graph_io.self_s", "s", "lower", f"{R} on {V} and {W}"),
    ("alike.solve_alike.calls", "count", "lower", f"{R} on {W}"),
    ("alike.solve_alike.self_s", "s", "lower", f"{R} on {W}"),
    ("alike.residual.calls", "count", "lower", f"{R} on {V}"),
    ("alike.residual.self_s", "s", "lower", f"{R} on {V}"),
    ("alike.restriction.calls", "count", "lower", f"{R} on {V}"),
    ("alike.restriction.self_s", "s", "lower", f"{R} on {V}"),
    ("alike.is_alike.calls", "count", "lower", f"{R} on {V}"),
    ("alike.is_alike.self_s", "s", "lower", f"{R} on {V}"),
    ("alike.b_matrix.calls", "count", "lower", f"{R} on {V} and {E}"),
    ("alike.b_matrix.self_s", "s", "lower", f"{R} on {V} and {E}"),
    ("alike.closed_form.self_s", "s", "lower", f"{R} on {V} and {E}"),
    ("alike.verify_all.self_s", "s", "lower", f"{R} on {V}"),
    *(
        (f"alike.group.{g}.{field}", unit, better, f"{R} on {V}")
        for g in GROUPS
        for field, unit, better in (("s", "s", "lower"), ("checks", "count", "higher"))
    ),
    ("cli.self_s", "s", "lower", C),
    ("cli.stdout_bytes", "bytes", "lower", C),
    ("trace.wall_s", "s", "lower", "traced pass, summed over invocations"),
    ("trace.untraced_wall_s", "s", "lower", "the same pass in-process without spans"),
    ("trace.overhead_s", "s", "lower", "trace.wall_s - trace.untraced_wall_s"),
    ("trace.self_sum_s", "s", "lower", "sum of all layer self times; equals trace.wall_s"),
    ("trace.spans", "count", "lower", "spans recorded in the traced pass"),
]


def _bits(basis_vectors):
    best = 0
    for vec in basis_vectors:
        for value in vec.entries.values():
            best = max(best, value.numerator.bit_length(), value.denominator.bit_length())
    return best


def _count_matmul(counts, args, result):
    counts["exactlinalg.matmul.nnz_out"] += len(result.entries)


def _count_nullspace(counts, args, result):
    counts["exactlinalg.nullspace.rows"] += args[0].rows
    counts["exactlinalg.nullspace.cols"] += args[0].cols
    counts["exactlinalg.max_out_bits"] = max(
        counts["exactlinalg.max_out_bits"], _bits(result.vectors)
    )


def _count_subspace(counts, args, result):
    basis = args[0]
    vectors = args[2] if len(args) > 2 else ()
    counts["exactlinalg.subspace.vectors_in"] += len(vectors)
    counts["exactlinalg.subspace.dim_out"] += len(basis.vectors)
    counts["exactlinalg.max_out_bits"] = max(
        counts["exactlinalg.max_out_bits"], _bits(basis.vectors)
    )


def _count_report(counts, args, report):
    for name, seconds in report.timings.items():
        counts[f"alike.group.{name}.s"] += seconds


COUNTERS = {
    "exactlinalg:ExactMatrix.__matmul__": _count_matmul,
    "exactlinalg:nullspace": _count_nullspace,
    "exactlinalg:SubspaceBasis.__init__": _count_subspace,
    "alike:verify_all": _count_report,
}


class Tracer:
    """Spans and counters of one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, invocation]
        self.counts = Counter()
        self.invocation = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, result)
            finally:
                span[2] = clock()
                stack.pop()
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "alike" or name.startswith("alike.")
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                owner_name, _, attr = qualname.rpartition(".")
                home = sys.modules[f"alike.{module_name}"]
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(layer, original, COUNTERS.get(target)))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(layer, original, COUNTERS.get(target))
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """(self seconds, calls) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def run_in_process(cli, invocations, tracer=None):
    """Run each invocation through cli.main; [(exit code, stdout bytes, seconds)]."""
    results = []
    for index, inv in enumerate(invocations):
        if tracer is not None:
            tracer.invocation = index
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
            except Exception:  # a crash fails this invocation, as it would the CLI
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - start
        results.append((code, out.getvalue().encode("utf-8"), seconds))
    return results


def layer_values(tracer, invocations, results):
    """Per-layer metric values of a traced pass, keyed as in PER_LAYER."""
    self_s, calls = tracer.self_times()
    values = dict(tracer.counts)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]
    for inv, (_, stdout, _) in zip(invocations, results):
        if inv.kind == "verify" and stdout:
            for group in json.loads(stdout)["groups"]:
                key = f"alike.group.{group['name']}.checks"
                values[key] = values.get(key, 0) + group["checks"]
    values["cli.stdout_bytes"] = sum(len(stdout) for _, stdout, _ in results)
    values["trace.wall_s"] = sum(seconds for _, _, seconds in results)
    values["trace.self_sum_s"] = sum(self_s.values())
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv):
    """Child entry: MODE (traced|untraced) WORKLOAD SEED WORK_DIR SPANS_PATH.

    Runs the workload's invocations once in this fresh interpreter, writes
    each stdout to WORK_DIR/MODE-<i>.out and a summary to WORK_DIR/MODE.json.
    """
    mode, workload, seed, work, spans_path = argv
    work = Path(work)
    invocations = workloads.build(workload, int(seed), work)
    import alike.cli as cli  # here: run.py imports this module without src/ on its path

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        results = run_in_process(cli, invocations, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for index, (_, stdout, _) in enumerate(results):
        (work / f"{mode}-{index}.out").write_bytes(stdout)
    summary = {
        "codes": [code for code, _, _ in results],
        "seconds": [seconds for _, _, seconds in results],
    }
    if tracer is not None:
        tracer.write(spans_path)
        summary["values"] = layer_values(tracer, invocations, results)
    (work / f"{mode}.json").write_text(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
