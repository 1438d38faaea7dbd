"""A modular certificate for the solver's kernels, sharing no code with exactlinalg.

Over the integers, rank mod p <= rank over Q, so the nullity mod p bounds the
true nullity from above.  When a part's k returned vectors are independent,
satisfy the part's system exactly, and the nullity mod p is k, the kernel is
proved, whatever route computed it.  An unlucky prime can only make the
check inconclusive, never a false pass; a second prime is tried then.
"""

import json
import random
from pathlib import Path

import pytest

from alike.alike import solve_alike
from alike.hypercube import Graph, hypercube

PRIMES = (2**31 - 1, 2**61 - 1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def commutator_system(g, sign):
    """Unknown cells and the rows of B A - A B = 0, B^T = sign * B, B on the support."""
    cells = [(x, x) for x in range(g.n)] if sign > 0 else []
    cells += sorted(g.edges)
    unknown = {}
    for k, (u, v) in enumerate(cells):
        unknown[(u, v)] = (k, 1)
        unknown[(v, u)] = (k, sign)
    rows = []
    for x in range(g.n):
        for y in range(g.n):
            # (B A - A B)[x, y] = sum over v ~ y of B[x, v] - sum over v ~ x of B[v, y]
            terms = [((x, v), 1) for v in g.neighbors(y)]
            terms += [((v, y), -1) for v in g.neighbors(x)]
            row = {}
            for cell, c in terms:
                if cell in unknown:
                    k, f = unknown[cell]
                    row[k] = row.get(k, 0) + c * f
            rows.append(row)
    return cells, rows


def rank_mod(rows, p):
    """Rank mod p, by reducing each row against pivots kept at leading 1."""
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in pivots[lead].items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def certify(g, basis, sign):
    """Assert that ``basis`` spans the kernel of the part with B^T = sign * B."""
    cells, rows = commutator_system(g, sign)
    leads = [min(vec.entries) for vec in basis]
    assert leads == sorted(set(leads))  # distinct leading indices: independent
    for vec in basis:
        x = [vec.entries.get(u * g.n + v, 0) for u, v in cells]
        embedded = {u * g.n + v: c for (u, v), c in zip(cells, x) if c}
        embedded.update({v * g.n + u: sign * c for (u, v), c in zip(cells, x) if c})
        assert embedded == vec.entries
        for row in rows:
            assert sum(c * x[k] for k, c in row.items()) == 0
    nullities = (len(cells) - rank_mod(rows, p) for p in PRIMES)
    assert any(nullity == basis.dim for nullity in nullities)


def _graphs():
    rng = random.Random("certificate")
    for k in range(10):
        n = rng.randint(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        yield f"random{k}", Graph(n, edges)
    for name in ("p3", "petersen"):
        spec = json.loads((GOLDEN / f"{name}.json").read_text())
        yield name, Graph(spec["n"], spec["edges"])
    for d in range(1, 8):
        yield f"cube{d}", hypercube(d)[0]


GRAPHS = dict(_graphs())


@pytest.mark.parametrize("name", GRAPHS)
def test_solver_kernels_carry_a_modular_certificate(name):
    g = GRAPHS[name]
    decomposition = solve_alike(g, cap=128)
    certify(g, decomposition.symmetric, 1)
    certify(g, decomposition.antisymmetric, -1)
