"""Each demo prints exactly its recorded output.

The recordings in tests/data/demos/ were taken from the demos as they ran
before single points went through the array code, so a changed digit, a
numpy scalar repr or a reordered line shows here.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent
RECORDED = Path(__file__).parent / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(r.stem for r in RECORDED.glob("*.txt"))
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_recording(demo, capsys):
    with np.printoptions():  # a demo may set numpy's print options
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (RECORDED / f"{demo.stem}.txt").read_text()
