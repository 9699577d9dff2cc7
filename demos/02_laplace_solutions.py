"""Rescaled Laplace operators and the scale-dimension solution family.

The same solution evaluated in any chart agrees at coinciding plane points,
its residual under the chart's rescaled operator vanishes (including for
complex scale dimensions), and for integer dimensions it reproduces the
extremal spherical harmonics up to a constant.
"""

import math
import random

from holoconf.charts import ChartId, ChartPoint, embed, invert
from holoconf.laplace import residual, solve, ylm, ylm_ratio
from holoconf.sampling import chart_points

rng = random.Random(0)

print("--- residuals of the solution family (all should be ~ 0)")
for chart in (ChartId.CARTESIAN, ChartId.POLAR, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL):
    p = chart_points(chart, 1, rng)[0]
    for alpha in (2.0, -1.5, 0.5 + 0.25j, 3.0 - 1.0j):
        print(f"{chart.value:12s} alpha={alpha}: residual {residual(alpha, p):.2e}")
    print()

print("--- one solution, four charts, one plane point")
p = ChartPoint(ChartId.HOLOGRAPHIC, 0.55, 1.9)
x = embed(p)
alpha = 1.75 - 0.3j
for chart in (ChartId.HOLOGRAPHIC, ChartId.CARTESIAN, ChartId.POLAR, ChartId.CONFORMAL):
    q = invert(chart, *x)
    print(f"{chart.value:12s} -> {solve(alpha, q):.12f}")

print()
print("--- integer dimensions vs extremal spherical harmonics")
grid = chart_points(ChartId.HOLOGRAPHIC, 12, rng)
for l in (1, 2, 3, 4):
    ratio = ylm_ratio(l, grid)
    sample = grid[0]
    print(
        f"l={l}: Y_l^l / u^l = {ratio:.10f}"
        f"   (spot check Y = {ylm(l, l, sample.y0, sample.y1):.6f})"
    )
print("mirror branch (m = -l):", ylm_ratio(1, grid, negative_branch=True))
print("closed form for l=1:   ", -math.sqrt(3 / (8 * math.pi)))
