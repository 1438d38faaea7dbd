"""The benchmark's workloads: seeded lists of `alike` CLI invocations.

A workload is a list of invocations that one pass runs in order, each as its
own `python -m alike ...` child process.  Everything a workload feeds the
program is derived from the seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Cube whose solver output solve-graphs compares with the closed forms: 64
#: vertices, inside the CLI's default brute-force cap.
COMPARE_DIM = 6
#: Small cube for `dims`: inside the default cap, so the output carries both
#: the `formula_agrees` verdict and the brute-force cross-check.
DIMS_DIM = 5
#: Cube of verify-cube6: the largest inside the solver's cap of 64 vertices, so
#: all eight groups run, the solver-backed `dimensions` group too.
VERIFY_DIM = 6
#: The check groups of `alike verify`, in report order.
GROUPS = (
    "alpha",
    "eigenbasis",
    "idempotents",
    "characterization",
    "sym_basis",
    "antisym_basis",
    "dimensions",
    "restriction",
)
#: verify-cube6 runs the groups in three invocations of 1 to 2 s each (with
#: --skip for the rest), not one of ~4 s: the benchmark times the host's
#: speed between invocations, and shorter ones let it follow the host closely.
VERIFY_PARTS = (
    ("characterization",),
    ("eigenbasis", "idempotents"),
    ("alpha", "sym_basis", "antisym_basis", "dimensions", "restriction"),
)
#: Cube of the small verify that solve-graphs and emit-basis end with, so that
#: every layer the traced run reports is called on every workload.
PROBE_DIM = 3
#: Cube of emit-basis.
CUBE_DIM = 8


@dataclass(frozen=True)
class Invocation:
    """One CLI call plus what the output checker needs to judge it."""

    argv: tuple
    kind: str  # verify | compare | dims | solve | basis-json | basis-triplet
    d: int = 0  # cube dimension, for the cube commands
    graph: tuple | None = None  # (n, edges) of the graph file, for solve
    seed: int = 0
    skip: tuple = ()  # verify groups left out with --skip


# -- graph families for solve-graphs -------------------------------------------
#
# Why each family is in the workload:
# - the circulant C_40(1, 7, 11) and the Cayley graph of Z_2^6 on the unit
#   vectors plus the chord 000111: vertex-transitive graphs with large A-like
#   spaces (7 and 26 dimensions), so the solver's kernel, the
#   transpose-closure `contains` checks and the symmetric/antisymmetric split
#   all carry real work.  They are fixed, not drawn from the seed: relabelling
#   either one moved its solve time by up to 15%, and the benchmark's spread
#   over seeds would carry that.  They also fix the output size and so the
#   peak memory.
# - sparse: random 6-regular graphs on 64 vertices (192 edges, density 0.1):
#   many unknowns but short rows; elimination stays cheap and the A-like
#   space is usually span{I, A}.  The easy end.
# - dense: random 7-regular graphs on 36 vertices (126 edges, density 0.2):
#   fraction-free elimination on these builds large intermediate
#   coefficients, the growth Bareiss (1968) bounds.
# The random families fix the degree sequence, which the cost follows: over
# 8 seeds the solve time of one G(36, 126) graph varied with a coefficient of
# variation of 0.19 (0.3 over 10 seeds at n = 32 to 40), and of one G(64, 202)
# graph 0.24, against 0.08 for random regular graphs of the same sizes.  The
# pass holds four dense graphs, as the spread of a sum of k graphs falls as
# 1/sqrt(k), and one of each other family, which keeps a pass near 7 s so
# that a run repeats every invocation several times.
FAMILIES = (
    ("circulant", 1),
    ("cayley", 1),
    ("sparse", 1),
    ("dense", 4),
)


def circulant(n, connections):
    edges = set()
    for x in range(n):
        for s in connections:
            y = (x + s) % n
            edges.add((min(x, y), max(x, y)))
    return n, sorted(edges)


def cayley_z2(k, generators):
    n = 1 << k
    edges = set()
    for x in range(n):
        for g in generators:
            y = x ^ g
            edges.add((min(x, y), max(x, y)))
    return n, sorted(edges)


def random_regular(n, k, rng, swaps):
    """A random k-regular graph on n vertices (n even when k is odd).

    Starts from the circulant C_n(1, ..., k // 2), plus the diameters
    x ~ x + n/2 when k is odd, and makes `swaps` attempts at a double edge
    swap ab, cd -> ad, cb that keeps the graph simple; each swap keeps
    every degree.
    """
    _, start = circulant(n, list(range(1, k // 2 + 1)) + [n // 2] * (k % 2))
    edges = set(start)
    order = sorted(edges)
    for _ in range(swaps):
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        (a, b), (c, d) = order[i], order[j]
        if rng.random() < 0.5:
            c, d = d, c
        ad, cb = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) < 4 or ad in edges or cb in edges:
            continue
        edges -= {order[i], order[j]}
        edges |= {ad, cb}
        order[i], order[j] = ad, cb
    return n, sorted(edges)


def make_graph(family, seed, index):
    """The index-th graph of a family for a seed, as (n, sorted edges)."""
    rng = random.Random(f"{seed}:{family}:{index}")
    if family == "circulant":
        return circulant(40, [1, 7, 11])
    if family == "cayley":
        return cayley_z2(6, [1 << i for i in range(6)] + [0b000111])
    if family == "sparse":
        return random_regular(64, 6, rng, 2000)
    if family == "dense":
        return random_regular(36, 7, rng, 2000)
    raise ValueError(f"unknown graph family {family!r}")


def solve_graphs(seed):
    """All graphs of the solve-graphs workload for a seed, with file stems."""
    return [
        (f"{family}-{index}", make_graph(family, seed, index))
        for family, count in FAMILIES
        for index in range(count)
    ]


# -- workloads -----------------------------------------------------------------

WORKLOADS = ("verify-cube6", "solve-graphs", "emit-basis")


def verify(d, seed, groups=GROUPS):
    """`alike verify` on the d-cube, running only `groups`."""
    argv = ("verify", "--hypercube", str(d), "--seed", str(seed))
    skip = tuple(g for g in GROUPS if g not in groups)
    if skip:
        argv += ("--skip", ",".join(skip))
    return Invocation(argv, "verify", d=d, seed=seed, skip=skip)


def build(name, seed, work_dir: Path):
    """Invocation list of a workload; writes the graph files it needs."""
    if name == "verify-cube6":
        # Sparse matmul, residuals and the numpy projectors carry the time.
        return [verify(VERIFY_DIM, seed, part) for part in VERIFY_PARTS]
    if name == "solve-graphs":
        invocations = [
            Invocation(
                ("compare", "--hypercube", str(COMPARE_DIM)),
                "compare",
                d=COMPARE_DIM,
            ),
            Invocation(("dims", "--hypercube", str(DIMS_DIM)), "dims", d=DIMS_DIM),
        ]
        work_dir.mkdir(parents=True, exist_ok=True)
        for stem, (n, edges) in solve_graphs(seed):
            path = work_dir / f"{stem}.json"
            path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
            invocations.append(
                Invocation(("solve", "--graph", str(path)), "solve", graph=(n, edges))
            )
        return invocations + [verify(PROBE_DIM, seed)]
    if name == "emit-basis":
        # Closed-form construction, JSON building and writing; the small
        # verify at the end is the only elimination.
        return [
            Invocation(
                ("basis", "--hypercube", str(CUBE_DIM), "--part", "full"),
                "basis-json",
                d=CUBE_DIM,
            ),
            Invocation(
                (
                    "basis", "--hypercube", str(CUBE_DIM),
                    "--part", "antisym", "--format", "triplet",
                ),
                "basis-triplet",
                d=CUBE_DIM,
            ),
            verify(PROBE_DIM, seed),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def cube_dims(d):
    """(total, sym, antisym) of the d-cube's A-like space, by the paper's formula."""
    return 1 + d + math.comb(d, 2), d + 1, math.comb(d, 2)
