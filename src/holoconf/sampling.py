"""Seeded, rejection-free sampling of chart domains and parameter boxes.

Every suite draws its points through these helpers so a run is fully
reproducible from the seed alone.  Ranges stay safely inside each chart's
validity region (and away from the solution singularity at the origin).

Draw-order contract: every sampler draws through ``uniform``, which reads
the Mersenne Twister's raw 32-bit words in bulk (``words``) and rebuilds from
them, bitwise, the ``rng.uniform`` draws of a per-sample loop, one sample
(row) at a time and one value per range in the order given.  The arrays
leave the stream in the state that loop leaves (and numpy's cos and sin of
the drawn angles match ``math``'s on [0, 2*pi)).
"""

from __future__ import annotations

import math
import random

import numpy as np

from .bicomplex import Bicomplex, _complex
from .charts import ChartId, ChartPoint, embed_coords

_ANGLE = (0.0, 2.0 * math.pi)

_RANGES = {
    ChartId.CARTESIAN: (0.3, 2.2),  # the radius, see chart_points
    ChartId.POLAR: (0.3, 2.2),
    ChartId.HOLOGRAPHIC: (0.15, math.pi / 2 - 0.15),
    ChartId.CONFORMAL: (-1.0, 1.0),
}


def words(rng: random.Random, n: int) -> np.ndarray:
    """The next n outputs of rng's Mersenne Twister as uint32; rng moves n words on."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _doubles(w: np.ndarray) -> np.ndarray:
    """rng.random() of each word pair, exactly, in float64: uint32 loops would add RSS."""
    return (np.floor(w[0::2] * 2.0**-5) * 2.0**26 + np.floor(w[1::2] * 2.0**-6)) * 2.0**-53


def uniform(n: int, rng: random.Random, *ranges) -> tuple[np.ndarray, ...]:
    """n samples of one rng.uniform(lo, hi) draw per (lo, hi) range, as one
    array per range: the draws of the per-sample loop, in order and bitwise
    equal (lo + (hi - lo) * u is what random.uniform computes)."""
    u = np.empty(n * len(ranges))  # sample-major: u[k::len(ranges)] is range k
    for start in range(0, u.size, 8192):  # blocks bound the transient memory
        part = u[start : start + 8192]
        part[:] = _doubles(words(rng, 2 * part.size))
    return tuple(lo + (hi - lo) * u[k :: len(ranges)] for k, (lo, hi) in enumerate(ranges))


def chart_points(chart: ChartId, n: int, rng: random.Random) -> ChartPoint:
    """n points of the chart as one array point; per point, the angle is drawn
    first (a cartesian point as polar (r, phi), placed by embed_coords(POLAR, r, phi))."""
    phi, y0 = uniform(n, rng, _ANGLE, _RANGES[chart])
    if chart is ChartId.CARTESIAN:
        return ChartPoint(chart, *embed_coords(ChartId.POLAR, y0, phi))
    return ChartPoint(chart, y0, phi)


def upsilon_points(n: int, rng: random.Random, radii=(0.4, 1.6)) -> np.ndarray:
    """Nonzero complex points r e^{i phi} for the solution-coordinate
    realization, with r in radii; per point, r is drawn first."""
    r, phi = uniform(n, rng, radii, _ANGLE)
    return _complex(*embed_coords(ChartId.POLAR, r, phi))


def scale_dimensions(n: int, rng: random.Random) -> np.ndarray:
    """Random complex scale dimensions in [-3, 3] + i[-1, 1]."""
    return _complex(*uniform(n, rng, (-3, 3), (-1, 1)))


def bicomplex_batch(n: int, rng: random.Random, scale: float = 2.0) -> Bicomplex:
    """n random numbers with components in [-scale, scale], as one
    array-valued Bicomplex."""
    return Bicomplex(*uniform(n, rng, *[(-scale, scale)] * 4))
