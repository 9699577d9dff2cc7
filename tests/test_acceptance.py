"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (run with -s or -v to see them).
"""

import json
import math
import os
import random
import subprocess
import sys

from holoconf import bicomplex as bc
from holoconf.algebra import (
    B,
    EXPECTED_FIELD_SIGNS,
    GENERATORS,
    MINKOWSKI_FIELD_SIGNS,
    MINKOWSKI_METRIC,
    P0,
    P1,
    Q0,
    Q1,
    REALIZATIONS,
    S01,
    UPSILON_LINE,
    act,
    angular_tensor,
    bracket,
    default_points,
    field_values,
    generator,
    generator_tensors,
    minkowski_check,
    structure_table,
    substituted_rows,
)
from holoconf.charts import ChartId
from holoconf.laplace import solve
from holoconf.projective import (
    EXPECTED_MATRIX_SIGNS,
    Ring,
    flow_consistency,
    hopf_raw,
    matrix_bracket_table,
    matrix_rep,
)
from holoconf.report import SuiteConfig
from holoconf.sampling import chart_points, scale_dimensions, upsilon_points
from holoconf.suites import (
    bicomplex_checks,
    charts_checks,
    laplace_checks,
    projective_checks,
)

import numpy as np


def _verdict(label: str, ok: bool):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_bicomplex_suite():
    # ring axioms, both rule sets, involutions, projection structure;
    # 1000 seeded random values, defect <= 1e-12
    cfg = SuiteConfig(seed=101, samples=1000, tol=1e-12)
    results = bicomplex_checks(cfg)
    ok = all(r.passed and r.max_defect <= 1e-12 for r in results)
    _verdict("1 bicomplex ring/involutions/projections @1e-12 x1000", ok)


def test_criterion_2_chart_suite():
    # basis vs closed forms, metric diagonals, Jacobian inverses, null
    # compactification; 100 points per chart, defect <= 1e-10
    cfg = SuiteConfig(seed=102, samples=100, tol=1e-10)
    results = charts_checks(cfg)
    core = [
        r
        for r in results
        if r.name.split("[")[0]
        in (
            "basis_dual_vs_closed",
            "metric_closed_form",
            "jacobian_inverse",
            "jacobian_mixed_closed",
            "compactify_null",
        )
    ]
    assert len(core) == 4 * 4 + 1
    ok = all(r.passed and r.max_defect <= 1e-10 for r in core)
    ok = ok and all(r.passed for r in results)
    _verdict("2 charts basis/metric/jacobian/null @1e-10 x100", ok)


def test_criterion_3_laplace_suite():
    # residuals for 50 random alphas per chart; Y ratio for l = 1..4 with
    # relative spread <= 1e-10; rescaled-vs-standard factors
    cfg = SuiteConfig(seed=103, samples=50, tol=1e-10)
    results = laplace_checks(cfg)
    ok = all(r.passed for r in results)

    rng = random.Random(1031)
    grid = chart_points(ChartId.HOLOGRAPHIC, 20, rng)
    from holoconf.laplace import ylm

    for l in (1, 2, 3, 4):
        ratios = [
            ylm(l, l, p.y0, p.y1) / solve(l, p) for p in grid
        ]
        mean = sum(ratios) / len(ratios)
        spread = math.sqrt(sum(abs(r - mean) ** 2 for r in ratios) / len(ratios))
        ok = ok and spread <= 1e-10 * abs(mean)
    _verdict("3 laplace residuals/Y-ratio/rescaling @1e-10", ok)


def test_criterion_4_algebra_suite(packed_coefficients):
    # 15 brackets x 5 realizations with the documented ledger; eigenactions
    # at 1e-10; Jacobi; packed relation with forced metric; multiplier
    # tensor vs packed coefficients for 50 random points
    ok = True
    for r in REALIZATIONS:
        led = structure_table(r, points=default_points(r, n=50, seed=104))
        ok = ok and led.max_defect <= 1e-10
        ok = ok and led.signs == EXPECTED_FIELD_SIGNS

    # the paper's eigen-action table: g u^alpha = factor * alpha * u^(alpha + shift)
    table = {B: (1, 0), S01: (1j, 0), P0: (1, -1), P1: (1j, -1), Q0: (1, 1), Q1: (-1j, 1)}
    rng = random.Random(1041)
    for chart in ChartId:
        pts = chart_points(chart, 50, rng)
        alphas = scale_dimensions(50, rng)
        for g in GENERATORS:
            factor, shift = table[g]
            for p, alpha in zip(pts, alphas):
                expected = factor * alpha * solve(alpha + shift, p)
                ok = ok and abs(act(g, alpha, p) - expected) <= 1e-10 * (
                    1 + abs(expected)
                )

    for r in REALIZATIONS:
        pts = default_points(r, n=4, seed=1042)
        gens = [generator(g, r) for g in (B, Q0, P0)]
        x, y, z = gens
        total = sum(field_values(bracket(bracket(a, b), c), pts) for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))
        ok = ok and float(np.max(np.abs(total))) <= 1e-10

        res = minkowski_check(r, points=default_points(r, n=15, seed=1043))
        ok = ok and res.metric_forced and res.passing_metrics == [MINKOWSKI_METRIC]
        ok = ok and res.ledger.signs == MINKOWSKI_FIELD_SIGNS
        ok = ok and res.ledger.max_defect <= 1e-10

    for u in upsilon_points(50, random.Random(1044)):
        m = angular_tensor(u)
        for (a, b), coeff in packed_coefficients(u).items():
            ok = ok and abs(m[a, b] * u - coeff) <= 1e-10
    _verdict("4 algebra brackets/eigenactions/jacobi/minkowski/tensor", ok)


def test_criterion_5_projective_suite():
    # bicomplex matrices: table exact, ledger all +1, [q0,p0] = 2b with
    # b = (ij/2) diag(1,-1); real ledger = negation of the upsilon-line
    # ledger; Richardson ratio in [3.8, 4.2] (translations exact); sphere
    # map norm/fiber/involution agreement at 1e-12
    led = matrix_bracket_table(Ring.BICOMPLEX)
    ok = led.signs == EXPECTED_MATRIX_SIGNS[Ring.BICOMPLEX]
    ok = ok and led.max_defect <= 1e-12
    b = matrix_rep(B, Ring.BICOMPLEX)
    ok = ok and b.a == 0.5 * bc.UNIT_IJ and b.d == -0.5 * bc.UNIT_IJ

    real_led = matrix_bracket_table(Ring.REAL)
    ups = structure_table(UPSILON_LINE, points=default_points(UPSILON_LINE, n=50))
    for key, sign in real_led.signs.items():
        ok = ok and sign == -ups.signs[key]

    rng = random.Random(105)
    for g in GENERATORS:
        exact = True
        for _ in range(10):
            v0 = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5))
            d1 = flow_consistency(g, v0, 1e-3)
            d2 = flow_consistency(g, v0, 5e-4)
            if d1 <= 1e-13 and d2 <= 1e-13:
                continue
            exact = False
            ok = ok and 3.8 <= d1 / d2 <= 4.2
        # translations must be the exact flows
        if g in (P0, P1):
            ok = ok and exact

    for _ in range(200):
        raw = [rng.uniform(-2, 2) for _ in range(4)]
        if sum(abs(c) for c in raw) < 0.1:
            continue
        xi = hopf_raw(*raw)
        nsq = sum(c * c for c in raw)
        ok = ok and abs(math.sqrt(sum(x * x for x in xi)) - nsq) <= 1e-12 * (1 + nsq)
        t = bc.involution_projections(bc.Bicomplex(*raw))
        ok = ok and max(
            abs(t.xi1 - xi[0]), abs(t.xi2 - xi[1]), abs(t.xi3 - xi[2])
        ) <= 1e-12
    cfg = SuiteConfig(seed=105, samples=50)
    ok = ok and all(r.passed for r in projective_checks(cfg))
    _verdict("5 projective matrices/flows/sphere-map", ok)


def test_criterion_6_substitution_identities():
    # the paravectors w = c(u)/u of q0, p0 and b (c their upsilon-line
    # coefficients) are the solution u, its inverse 1/u and 1, and
    # substituting (1, i) -> (tan theta d_theta, d_phi) in them reproduces
    # the holographic rows, at 50 points, <= 1e-12
    rng = random.Random(106)
    pts = chart_points(ChartId.HOLOGRAPHIC, 50, rng)
    u = solve(1.0, pts)
    coeffs = generator_tensors(UPSILON_LINE, u).v[:, 0]
    rows = substituted_rows(ChartId.HOLOGRAPHIC, pts)
    ok = True
    for target, paravector in ((Q0, u), (P0, 1.0 / u), (B, 1.0)):
        i = GENERATORS.index(target)
        w = coeffs[i] / u
        ok = ok and float(np.max(np.abs(w - paravector))) <= 1e-12
        table = field_values(generator(target, ChartId.HOLOGRAPHIC), pts).T
        for sub in (np.stack((w.real * np.tan(pts.y0), w.imag)), rows[i]):
            ok = ok and float(np.max(np.abs(sub - table))) <= 1e-12
    _verdict("6 paravector substitution q0/p0/b @1e-12 x50", ok)


def test_criterion_7_determinism():
    # two CLI runs with the same seed: byte-identical output, exit code 0
    def run():
        return subprocess.run(
            [sys.executable, "-m", "holoconf", "verify", "--seed", "7"],
            capture_output=True,
            env=dict(os.environ),
        )

    a, b = run(), run()
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    ok = ok and json.loads(a.stdout)["overall"] == "pass"
    _verdict("7 determinism: byte-identical reports, exit 0", ok)
