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

Each word pair becomes ``rng.random()``'s double by genrand_res53 (Matsumoto
and Nishimura, ACM TOMACS 8(1), 1998) in integer passes over the pairs read
as little-endian uint64, written straight into the sample-major buffer; each
range's array is then one new contiguous array.  Several numbers a sample
(``bicomplex_batch``'s count) are one ``uniform`` call over all their ranges,
so each number's components come out contiguous, not as strided views.
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


def _doubles(w: np.ndarray, out: np.ndarray) -> None:
    """rng.random() of each word pair (a, b), exactly, into out: genrand_res53's
    ((a >> 5) * 2**26 + (b >> 6)) * 2**-53, read from the pair as one
    little-endian uint64 x = a | b << 32 in integer passes (the 53-bit integer
    converts to float64 exactly)."""
    x = w.view("<u8")
    np.multiply((x & 0xFFFFFFE0) << 21 | x >> 38, 2.0**-53, out=out)


def uniform(n: int, rng: random.Random, *ranges) -> tuple[np.ndarray, ...]:
    """n samples of one rng.uniform(lo, hi) draw per (lo, hi) range, as one
    array per range: the draws of the per-sample loop, in order and bitwise
    equal (lo + (hi - lo) * u is what random.uniform computes)."""
    u = np.empty(n * len(ranges))  # sample-major: u[k::len(ranges)] is range k
    for start in range(0, u.size, 8192):  # blocks bound the transient memory
        part = u[start : start + 8192]
        _doubles(words(rng, 2 * part.size), part)
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


def bicomplex_batch(
    n: int, rng: random.Random, scale: float = 2.0, count: int | None = None
) -> Bicomplex | tuple[Bicomplex, ...]:
    """n random numbers with components in [-scale, scale], as one
    array-valued Bicomplex; with a count, n samples of count numbers each
    (a sample's first number drawn first, then its second, ...) from one
    uniform call, as a tuple of count array-valued Bicomplex."""
    vals = uniform(n, rng, *[(-scale, scale)] * (4 * (1 if count is None else count)))
    numbers = tuple(Bicomplex(*vals[k : k + 4]) for k in range(0, len(vals), 4))
    return numbers if count is not None else numbers[0]
