"""Let child interpreters started by the tests import this checkout's `alike`.

`pythonpath = ["src"]` in pyproject.toml puts `src` on the test process's own
path; a subprocess sees only the environment, so `src` joins PYTHONPATH too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_inherited = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = _SRC + (os.pathsep + _inherited if _inherited else "")
