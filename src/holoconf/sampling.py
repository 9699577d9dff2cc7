"""Seeded, rejection-free sampling of chart domains and parameter boxes.

Every suite draws its points through these helpers so a run is fully
reproducible from the seed alone.  Ranges stay safely inside each chart's
validity region (and away from the solution singularity at the origin).

Draw-order contract: every sampler reads the Mersenne Twister's raw 32-bit
words in bulk (``words``) and rebuilds from them, bitwise, the values of a
per-sample loop: ``uniform`` makes ``rng.uniform`` draws, one sample (row) at
a time and one value per range in the order given; ``index_pairs`` puts an
``rng.sample(range(size), 2)`` ahead of each sample's uniform draws.  The
arrays leave the stream in the state that loop leaves (and numpy's cos and
sin of the drawn angles match ``math``'s on [0, 2*pi)).
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
    u = np.empty((n, len(ranges)))
    for part in np.split(u.ravel(), range(8192, u.size, 8192)):  # bounds the transient memory
        part[:] = _doubles(words(rng, 2 * part.size))
    return tuple(lo + (hi - lo) * u[:, k] for k, (lo, hi) in enumerate(ranges))


def _first_true(ok: np.ndarray) -> np.ndarray:
    """Per position, the first at or after it where ok holds (len(ok) if none)."""
    return np.minimum.accumulate(np.where(ok, np.arange(ok.size, dtype=float), ok.size)[::-1])[::-1]


def index_pairs(n: int, rng: random.Random, size: int, *ranges) -> tuple[np.ndarray, ...]:
    """n samples of rng.sample(range(size), 2), 2 <= size <= 21, then one
    rng.uniform(lo, hi) per range, as arrays (first, second, one per range).
    sample takes randbelow(size), then randbelow(size - 1) (size - 1 if equal to
    the first), each one word a try until its top m.bit_length() bits are < m."""
    out, done = (np.empty(n, int), np.empty(n, int), *(np.empty(n) for _ in ranges)), 0
    span, block = 2 * len(ranges), (2 * len(ranges) + 4) * min(n, 1024)  # words for <= 1024 samples
    while done < n:
        state, w = rng.getstate(), words(rng, block)  # parsed, then rewound and advanced
        t0, t1 = (np.floor(w * 2.0 ** (m.bit_length() - 32)) for m in (size, size - 1))
        i0 = _first_true(t0 < size)  # positions are floats too, as in _doubles
        i1 = np.append(_first_true(t1 < size - 1), (block, block))[1:][i0.astype(int)]
        end = np.append(i1 + (1 + span), block + 1)  # where the next sample starts
        starts, jump = [0], np.minimum(end, block).astype(int)
        while len(starts) < min(n - done, 1024):  # chain the sample starts
            starts.append(jump.item(starts[-1]))
        starts = np.array(starts)[end[starts] <= block]
        rng.setstate(state)
        rng.getrandbits(32 * int(end[starts].max(initial=0)))
        block *= 1 if starts.size else 2  # no sample fitted: retry with twice the words
        a, b = t0[i0[starts].astype(int)], t1[i1[starts].astype(int)]
        k, done = slice(done, done + starts.size), done + starts.size
        out[0][k], out[1][k] = a, np.where(b == a, size - 1, b)
        u = _doubles(w[(i1[starts, None] + np.arange(1.0, span + 1)).ravel().astype(int)])
        for o, (lo, hi), col in zip(out[2:], ranges, u.reshape(starts.size, len(ranges)).T):
            o[k] = lo + (hi - lo) * col
    return out


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
