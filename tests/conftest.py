"""Put the source tree on PYTHONPATH for the CLI subprocesses some tests
start, so that a bare ``pytest`` passes without installing the package
(pyproject's ``pythonpath`` setting covers only the test process itself),
and hold the fixtures that more than one test module uses."""

import os
from pathlib import Path

import pytest

from holoconf.algebra import SO31_PACKING, UPSILON_LINE, generator

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def packed_coefficients():
    """The upsilon-line coefficient of each packed rotation s_ab at a single
    u, as a function of u: its SO31_PACKING row summed over the generators'
    coefficients, independently of SO31_PACK_MATRIX."""

    def at(u) -> dict:
        return {
            ab: sum(c * generator(g, UPSILON_LINE).coeffs(u)[0] for g, c in row.items())
            for ab, row in SO31_PACKING.items()
        }

    return at
