"""Byte-for-byte locks on the CLI's stdout.

Each case runs ``alike.cli.main`` in-process and compares its stdout with
``tests/golden/<case>.txt``.  Graph-file cases run from ``tests/golden`` so
the path echoed in the output is the bare file name.  To rewrite the files
after a deliberate output change, run ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.  The 8-cube basis outputs are
locked by their length and sha256 instead, since the JSON one is 36.6 MB.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from alike import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cases():
    cases = {}
    for d in range(1, 7):
        for seed in (0, 7):
            cases[f"verify-d{d}-seed{seed}"] = (
                "verify", "--hypercube", str(d), "--seed", str(seed)
            )
    # the only case with a cap-skipped group; its eigenbasis group checks
    # every pair of sign vectors, as at every d <= 10
    cases["verify-d7-seed0-skip-characterization"] = (
        "verify", "--hypercube", "7", "--seed", "0", "--skip", "characterization"
    )
    for d in range(1, 6):
        cases[f"dims-d{d}"] = ("dims", "--hypercube", str(d))
        cases[f"compare-d{d}"] = ("compare", "--hypercube", str(d))
    for part in ("full", "sym", "antisym"):
        for d in range(1, 4):
            cases[f"basis-d{d}-{part}-json"] = (
                "basis", "--hypercube", str(d), "--part", part
            )
        for d in range(4, 6):
            cases[f"basis-d{d}-{part}-triplet"] = (
                "basis", "--hypercube", str(d), "--part", part, "--format", "triplet"
            )
    # the largest JSON basis golden: 11 matrices of 16 x 16
    cases["basis-d4-full-json"] = ("basis", "--hypercube", "4", "--part", "full")
    for graph in ("p3", "petersen"):
        for command in ("dims", "solve", "basis"):
            cases[f"{command}-{graph}"] = (command, "--graph", f"{graph}.json")
    # the circulant C10(1,3): its solved bases carry fractions such as 1/2
    for part in ("sym", "antisym"):
        cases[f"solve-c10-1-3-{part}-triplet"] = (
            "solve", "--graph", "c10-1-3.json", "--part", part, "--format", "triplet"
        )
    cases["solve-c10-1-3-sym-json"] = (
        "solve", "--graph", "c10-1-3.json", "--part", "sym"
    )
    return cases


CASES = _cases()


def run_case(argv):
    """(exit code, stdout) of one in-process CLI run from the golden directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name):
    code, out = run_case(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# The JSON goldens stop at d=4; these digests lock the 8-cube outputs that the
# emit-basis benchmark workload writes (36.6 MB of JSON, too large to keep).
BASIS_D8_DIGESTS = {
    ("basis", "--hypercube", "8", "--part", "full"): (
        36_572_976,
        "c566d81b7e1cd51a6fed9bdfd2cceed4e149b718637ec6f7b45a6a87ad8aaae3",
    ),
    ("basis", "--hypercube", "8", "--part", "antisym", "--format", "triplet"): (
        139_103,
        "89f1e16b2140eb4a6f62640a4c4082df6be0c1e0e5b7a86deac3b68a01a65ad3",
    ),
}


@pytest.mark.parametrize("argv", list(BASIS_D8_DIGESTS), ids=" ".join)
def test_basis_d8_bytes(argv):
    code, out = run_case(argv)
    assert code == 0
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == BASIS_D8_DIGESTS[argv]


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = run_case(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
        print(name)
