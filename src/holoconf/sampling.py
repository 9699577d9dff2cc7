"""Seeded, rejection-free sampling of chart domains and parameter boxes.

Every suite draws its points through these helpers so a run is fully
reproducible from the seed alone.  Ranges stay safely inside each chart's
validity region (and away from the solution singularity at the origin).
"""

from __future__ import annotations

import math
import random

import numpy as np

from .bicomplex import Bicomplex
from .charts import ChartId, ChartPoint

_RANGES = {
    ChartId.POLAR: (0.3, 2.2),
    ChartId.HOLOGRAPHIC: (0.15, math.pi / 2 - 0.15),
    ChartId.CONFORMAL: (-1.0, 1.0),
}


def chart_points(chart: ChartId, n: int, rng: random.Random) -> list[ChartPoint]:
    pts = []
    for _ in range(n):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if chart is ChartId.CARTESIAN:
            r = rng.uniform(0.3, 2.2)
            pts.append(ChartPoint(chart, r * math.cos(phi), r * math.sin(phi)))
        else:
            lo, hi = _RANGES[chart]
            pts.append(ChartPoint(chart, rng.uniform(lo, hi), phi))
    return pts


def upsilon_points(n: int, rng: random.Random) -> list[complex]:
    """Nonzero complex points for the solution-coordinate realization."""
    out = []
    for _ in range(n):
        r = rng.uniform(0.4, 1.6)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.append(complex(r * math.cos(phi), r * math.sin(phi)))
    return out


def scale_dimensions(n: int, rng: random.Random) -> list[complex]:
    """Random complex scale dimensions in [-3, 3] + i[-1, 1]."""
    return [complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(n)]


def bicomplex_values(n: int, rng: random.Random, scale: float = 2.0) -> list[Bicomplex]:
    return [
        Bicomplex(*(rng.uniform(-scale, scale) for _ in range(4))) for _ in range(n)
    ]


def uniform_array(count: int, rng: random.Random, lo: float, hi: float) -> np.ndarray:
    """count draws of rng.uniform(lo, hi), in order and bitwise equal, as one
    array (filled without a list of Python floats)."""
    u = np.fromiter(iter(rng.random, None), dtype=float, count=count)
    return lo + (hi - lo) * u


def bicomplex_batch(n: int, rng: random.Random, scale: float = 2.0) -> Bicomplex:
    """The n values of bicomplex_values(n, rng, scale) as one array-valued
    Bicomplex: the same draws in the same order, bitwise equal."""
    c = uniform_array(4 * n, rng, -scale, scale).reshape(n, 4).T.copy()
    return Bicomplex(*c)
