"""CSV sample grids for offline plotting (no plotting here)."""

from __future__ import annotations

import math

import numpy as np

from .algebra import B, S01, cn, sn
from .bicomplex import _complex
from .projective import Ring, S3Point, exp_one_param, hopf, mobius_apply


def _joukowski_rows(resolution: int):
    yield ("radius", "phi", "u_re", "u_im", "cn_re", "cn_im", "sn_re", "sn_im")
    phi = 2.0 * math.pi * np.arange(resolution) / resolution
    for radius in (1.0, 1.1, 1.3, 1.6, 2.0):
        u = _complex(radius * np.cos(phi), radius * np.sin(phi))
        c, s = cn(u), sn(u)
        columns = (np.full(resolution, radius), phi, u.real, u.imag, c.real, c.imag, s.real, s.imag)
        yield from zip(*(x.tolist() for x in columns))


def _fiber_seed(xi1: float, xi2: float, xi3: float) -> S3Point:
    # one preimage of the base point (formula valid away from the south pole)
    v1 = math.sqrt((1.0 + xi3) / 2.0)
    v2 = complex(xi1, -xi2) / (2.0 * v1)
    return S3Point(v1, 0.0, v2.real, v2.imag)


def _hopf_rows(resolution: int):
    yield ("xi1", "xi2", "xi3", "lam", "s1", "s2", "s3", "s4")
    bases = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8), (0.0, 0.8, 0.6))
    lam = 2.0 * math.pi * np.arange(resolution) / resolution
    for base in bases:
        pt = _fiber_seed(*base).phase_rotated(lam)
        mapped = hopf(pt)
        columns = (mapped.xi1, mapped.xi2, mapped.xi3, lam) + pt.components()
        yield from zip(*(c.tolist() for c in columns))


def _conformal_flow_rows(resolution: int):
    yield ("generator", "eps", "u0_re", "u0_im", "u_re", "u_im")
    starts = (0.5 + 0j, 0.3 + 0.4j, -0.6 + 0.2j, 1j)
    eps = -1.0 + 2.0 * np.arange(resolution) / (resolution - 1)
    for g in (B, S01):
        m = exp_one_param(g, eps, Ring.COMPLEX)
        for u0 in starts:
            u = mobius_apply(m, u0)
            for e, re, im in zip(eps.tolist(), u.real.tolist(), u.imag.tolist()):
                yield (g.value, e, u0.real, u0.imag, re, im)


# the rows of each grid kind, header first
_ROWS = {"joukowski": _joukowski_rows, "hopf-fibers": _hopf_rows, "conformal-flow": _conformal_flow_rows}

GRID_KINDS = tuple(_ROWS)


def emit_grid(kind: str, resolution: int, path: str) -> int:
    """Write the named sample grid as CSV; returns the number of data rows."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if kind not in _ROWS:
        raise ValueError(f"unknown grid kind {kind!r}; choose from {GRID_KINDS}")
    import csv  # only grid writes CSV: verify does not pay for the module

    count = -1  # header excluded
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in _ROWS[kind](resolution):
            writer.writerow(row)
            count += 1
    return count
