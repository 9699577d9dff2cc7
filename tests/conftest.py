"""Put the source tree on PYTHONPATH for the CLI subprocesses some tests
start, so that a bare ``pytest`` passes without installing the package
(pyproject's ``pythonpath`` setting covers only the test process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
