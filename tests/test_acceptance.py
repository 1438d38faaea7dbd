"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is exact (tolerance zero); the only stated budgets are wall-clock
bounds, asserted where the criterion pins one.  Run with ``pytest -v -s`` to
see one PASS/FAIL line per criterion.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from alike.alike import (
    GroupResult,
    b_matrix,
    characterization_cases,
    closed_form_antisym_basis,
    closed_form_sym_basis,
    is_alike,
    restriction_to_E1,
    solve_alike,
    verify_all,
)
from alike.exactlinalg import ExactMatrix, SubspaceBasis, span_equal
from alike.hypercube import (
    Graph,
    alpha_star,
    eigen_data,
    hypercube,
    idempotent_report,
)

EXPECTED_DIMS = {
    1: (2, 2, 0),
    2: (4, 3, 1),
    3: (7, 4, 3),
    4: (11, 5, 6),
    5: (16, 6, 10),
}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_dimension_counts():
    with criterion(1, "brute-force dimension counts D=1..5"):
        start = time.time()
        for d in range(1, 6):
            g, _ = hypercube(d)
            dims = solve_alike(g).dims
            assert dims == EXPECTED_DIMS[d], f"D={d}: {dims}"
            assert dims == (1 + d + math.comb(d, 2), d + 1, math.comb(d, 2))
        assert time.time() - start < 120


def test_criterion_2_oracle_span_equivalence():
    with criterion(2, "solver vs closed-form spans, D=1..5"):
        for d in range(1, 6):
            g, ctx = hypercube(d)
            decomposition = solve_alike(g)
            sym = closed_form_sym_basis(ctx)
            antisym = closed_form_antisym_basis(ctx)
            assert span_equal(
                decomposition.full, SubspaceBasis.from_matrices(sym + antisym)
            ), f"D={d} full"
            assert span_equal(
                decomposition.symmetric, SubspaceBasis.from_matrices(sym)
            ), f"D={d} sym"
            assert span_equal(
                decomposition.antisymmetric,
                SubspaceBasis.from_matrices(antisym, shape=(ctx.n, ctx.n)),
            ), f"D={d} antisym"


def test_criterion_3_identity_suite_to_d10():
    with criterion(3, "identity suite D=1..10"):
        start = time.time()
        for d in range(1, 11):
            _, ctx = hypercube(d)
            report = verify_all(
                ctx, groups=["alpha", "eigenbasis", "antisym_basis"], seed=d
            )
            for group in report.groups:
                assert group.passed, f"D={d} {group.name}: {group.witness}"
            # every eigenvector's actions (alpha_i, alpha_star_i, adjacency)
            # and every ordered pair's inner product
            eigenbasis = report.group("eigenbasis")
            assert not eigenbasis.sampled
            assert eigenbasis.checks == (1 << d) * (2 * d + 1) + (1 << 2 * d)
            pairs = math.comb(d, 2)
            table = pairs * (1 << d) if d <= 5 else 120
            assert report.group("antisym_basis").checks >= pairs * (4 + d) + table
        assert time.time() - start < 300


def test_criterion_4_idempotent_suite_to_d10():
    with criterion(4, "spectral projector suite D=1..10"):
        start = time.time()
        for d in range(1, 11):
            _, ctx = hypercube(d)
            result = GroupResult("idempotents")
            result.run(idempotent_report, ctx, eigen_data(ctx))
            assert result.passed, f"D={d}: {result.witness}"
            assert result.checks == (d + 1) ** 2 + 4 * (d + 1) + 3
        assert time.time() - start < 2


def test_criterion_5_characterization_property():
    with criterion(5, "support/residual equivalence, 400 seeded cases"):
        total_cases = 0
        for d in range(2, 6):
            g, ctx = hypercube(d)
            rng = random.Random(f"acceptance:characterization:{d}")
            result = GroupResult("characterization")
            result.run(characterization_cases, ctx, g, rng, 50)
            assert result.passed, f"D={d}: {result.witness}"
            assert result.checks == 50 * math.comb(d, 2) + 50
            total_cases += 100
        assert total_cases == 400


def test_criterion_6_restriction_bijection_to_d10():
    with criterion(6, "restriction to the (d-2)-eigenspace, D=2..10"):
        for d in range(2, 11):
            _, ctx = hypercube(d)
            restrictions = []
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    m = restriction_to_E1(ctx, b_matrix(ctx, i, j))
                    assert m == ExactMatrix(
                        d, d, {(i - 1, j - 1): 4, (j - 1, i - 1): -4}
                    ), f"D={d} ({i},{j})"
                    assert m.is_antisymmetric()
                    restrictions.append(m)
            span = SubspaceBasis.from_matrices(restrictions)
            assert span.dim == math.comb(d, 2), f"D={d} span"


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls"):
        g2, ctx2 = hypercube(2)
        verdict = is_alike(g2, alpha_star(ctx2, 1))
        assert not verdict
        assert verdict.failed_condition == "commute"
        assert verdict.position is not None

        corrupted = Graph(4, [(0, 1), (0, 2), (1, 3), (1, 2)])
        report = verify_all(
            ctx2, groups=["characterization"], seed=0, graph=corrupted
        )
        group = report.group("characterization")
        assert group.passed is False
        assert group.witness is not None

        # J commutes with A(Q2) but is nonzero at the distant pairs
        verdict = is_alike(g2, ExactMatrix.ones(4))
        assert not verdict
        assert verdict.failed_condition == "support"


def test_criterion_8_cli_determinism():
    with criterion(8, "byte-identical verify output"):
        argv = [
            sys.executable, "-m", "alike.cli",
            "verify", "--hypercube", "4", "--seed", "7",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["all_passed"] is True
        assert payload["seed"] == 7
