"""The conformal algebra in its vector-field realizations.

Every realization satisfies the reference commutation table with the same
per-bracket sign ledger (the four [q, p] brackets negated).  Acting on the
solution family, translations lower and special conformal generators raise
the scale dimension.  Packing the six generators as rotations of a
4-dimensional space forces the Minkowski metric.
"""

from holoconf.algebra import (
    COORDINATE_NAMES,
    GENERATOR_TABLE_STRINGS,
    GENERATORS,
    UPSILON_LINE,
    act,
    eigenactions,
    minkowski_check,
    structure_table,
)
from holoconf.charts import ChartId, ChartPoint

print("--- holographic generator table")
n0, n1 = COORDINATE_NAMES["holographic"]
for g in GENERATORS:
    c0, c1 = GENERATOR_TABLE_STRINGS["holographic"][g]
    print(f"{g.value:4s} = ({c0}) d_{n0} + ({c1}) d_{n1}")

print()
print("--- bracket sign ledgers (+1 = table as written, -1 = negated)")
for realization in (ChartId.CARTESIAN, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL, UPSILON_LINE):
    led = structure_table(realization)
    negated = sorted(k for k, s in led.signs.items() if s == -1)
    print(f"{led.realization:13s} max defect {led.max_defect:.2e}, negated: {negated}")

print()
print("--- eigenactions on the solution with scale dimension 2")
p = ChartPoint(ChartId.HOLOGRAPHIC, 0.8, 0.45)
for g, (_, want) in zip(GENERATORS, eigenactions(2.0, p)):
    got = act(g, 2.0, p)
    print(f"{g.value:4s} u^2 = {got:+.8f}   expected {want:+.8f}")

print()
print("--- rotation packaging and the emergent metric")
res = minkowski_check(ChartId.CARTESIAN)
print("negated packed brackets:", sorted(k for k, s in res.ledger.signs.items() if s == -1))
print("diagonal metrics compatible with the relation:", res.passing_metrics)
print("metric forced to diag(1,1,1,-1):", res.metric_forced)
