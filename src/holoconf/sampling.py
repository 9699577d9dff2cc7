"""Seeded, rejection-free sampling of chart domains and parameter boxes.

Every suite draws its points through these helpers so a run is fully
reproducible from the seed alone.  Ranges stay safely inside each chart's
validity region (and away from the solution singularity at the origin).

Draw-order contract: every sampler draws through ``uniform``, which reads
``rng.random()`` one sample (row) at a time, one value per range in the
order the ranges are given, and scales it as ``random.uniform`` does.  A
sampler's arrays are therefore bitwise the values, and leave the stream in
the state, of a loop that calls ``rng.uniform`` for each sample in turn
(and ``math.cos``/``math.sin`` of the drawn angles, which numpy matches on
[0, 2*pi)).
"""

from __future__ import annotations

import math
import random

import numpy as np

from .bicomplex import Bicomplex, _complex
from .charts import ChartId, ChartPoint

_ANGLE = (0.0, 2.0 * math.pi)

_RANGES = {
    ChartId.CARTESIAN: (0.3, 2.2),  # the radius, see chart_points
    ChartId.POLAR: (0.3, 2.2),
    ChartId.HOLOGRAPHIC: (0.15, math.pi / 2 - 0.15),
    ChartId.CONFORMAL: (-1.0, 1.0),
}


def uniform(n: int, rng: random.Random, *ranges) -> tuple[np.ndarray, ...]:
    """n samples of one rng.uniform(lo, hi) draw per (lo, hi) range, as one
    array per range: the draws of the per-sample loop, in order and bitwise
    equal (lo + (hi - lo) * u is what random.uniform computes)."""
    u = np.fromiter(iter(rng.random, None), float, n * len(ranges)).reshape(n, len(ranges))
    return tuple(lo + (hi - lo) * u[:, k] for k, (lo, hi) in enumerate(ranges))


def chart_points(chart: ChartId, n: int, rng: random.Random) -> ChartPoint:
    """n points of the chart as one array point; per point, the angle is
    drawn first (a cartesian point is drawn in polar coordinates)."""
    phi, y0 = uniform(n, rng, _ANGLE, _RANGES[chart])
    if chart is ChartId.CARTESIAN:
        return ChartPoint(chart, y0 * np.cos(phi), y0 * np.sin(phi))
    return ChartPoint(chart, y0, phi)


def upsilon_points(n: int, rng: random.Random, radii=(0.4, 1.6)) -> np.ndarray:
    """Nonzero complex points r e^{i phi} for the solution-coordinate
    realization, with r in radii; per point, r is drawn first."""
    r, phi = uniform(n, rng, radii, _ANGLE)
    return _complex(r * np.cos(phi), r * np.sin(phi))


def scale_dimensions(n: int, rng: random.Random) -> np.ndarray:
    """Random complex scale dimensions in [-3, 3] + i[-1, 1]."""
    return _complex(*uniform(n, rng, (-3, 3), (-1, 1)))


def bicomplex_batch(n: int, rng: random.Random, scale: float = 2.0) -> Bicomplex:
    """n random numbers with components in [-scale, scale], as one
    array-valued Bicomplex."""
    return Bicomplex(*uniform(n, rng, *[(-scale, scale)] * 4))
