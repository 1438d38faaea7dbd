"""Byte-for-byte locks on the CLI's stdout.

Each case runs ``alike.cli.main`` in-process and compares its stdout with
``tests/golden/<case>.txt``.  Graph-file cases run from ``tests/golden`` so
the path echoed in the output is the bare file name.  To rewrite the files
after a deliberate output change, run ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import contextlib
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
    # the only case with sampled orthogonality and a cap-skipped group
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
    for graph in ("p3", "petersen"):
        for command in ("dims", "solve", "basis"):
            cases[f"{command}-{graph}"] = (command, "--graph", f"{graph}.json")
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


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = run_case(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
        print(name)
