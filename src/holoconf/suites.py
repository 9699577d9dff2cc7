"""Deterministic verification suites aggregating every module's identities.

Each check draws its sample points from a random stream seeded by
``(config seed, check label)``, so reports are byte-stable for a fixed
configuration.  Check failures (tolerance violations) are recorded in the
report; they never raise.  Tolerances pinned by an identity's contract
(for example the exact-arithmetic checks at 1e-12) are enforced at
``min(config tol, pinned)``.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from . import algebra, bicomplex as bc, charts, dual, laplace, projective, sampling
from .algebra import (
    B,
    GENERATORS,
    P0,
    P1,
    Q0,
    Q1,
    S01,
    UPSILON_LINE,
    UnmatchedBracketError,
)
from .charts import ChartId, ChartPoint
from .report import CheckResult, SuiteConfig, VerificationReport

ALL_CHARTS = (ChartId.CARTESIAN, ChartId.POLAR, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL)

FIELD_REALIZATIONS = (
    ChartId.CARTESIAN,
    ChartId.HOLOGRAPHIC,
    ChartId.CONFORMAL,
    UPSILON_LINE,
)


def _rng(cfg: SuiteConfig, label: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{label}")


def _worst(*defects) -> float:
    """Largest of the defects (scalars or arrays); NaN as soon as one is NaN.

    The builtin max keeps or drops NaN depending on argument order
    (max(0.0, nan) is 0.0), which would let a NaN defect pass.
    """
    worst = -math.inf
    for d in defects:
        if isinstance(d, np.ndarray):
            d = np.max(d)  # propagates NaN
        if d != d:
            return math.nan
        if d > worst:
            worst = d
    return float(worst)


RATIO_UNDEFINED = "zero defect at eps/2: Richardson ratio undefined"


def _ratio_defect(coarse: float, fine: float) -> float:
    """Distance of the Richardson ratio coarse/fine from 4 (second order);
    inf when the finer defect vanishes and the ratio is undefined."""
    return abs(coarse / fine - 4.0) if fine else math.inf


def _result(suite, name, identity, defect, threshold, ledger=None, message=None):
    finite = math.isfinite(defect)
    if not finite and message is None:
        message = "non-finite defect" if math.isnan(defect) else "structural mismatch"
    return CheckResult(
        suite=suite,
        name=name,
        identity=identity,
        passed=bool(finite and defect <= threshold),
        max_defect=float(defect) if finite else None,
        sign_ledger=ledger,
        message=message,
    )


# --- bicomplex ---------------------------------------------------------------

def bicomplex_checks(cfg: SuiteConfig):
    tol = min(cfg.tol, 1e-12)
    out = []

    rng = _rng(cfg, "bc.ring")
    vals = sampling.bicomplex_values(3 * cfg.samples, rng)
    worst = 0.0
    for a, b, c in zip(vals[0::3], vals[1::3], vals[2::3]):
        worst = _worst(
            worst,
            ((a * b) * c - a * (b * c)).max_abs(),
            (a * b - b * a).max_abs(),
            (a * (b + c) - (a * b + a * c)).max_abs(),
            (bc.ONE * a - a).max_abs(),
        )
    out.append(
        _result(
            "bicomplex",
            "ring_axioms",
            "associativity, commutativity, distributivity, unit element",
            worst,
            tol,
        )
    )

    o, obar = bc.null_plane_units()
    worst = _worst(
        (o * o - bc.UNIT_I * o).max_abs(),
        (o * o - bc.UNIT_J * o).max_abs(),
        (obar * obar - (-1 * bc.UNIT_I) * obar).max_abs(),
        (obar * obar - bc.UNIT_J * obar).max_abs(),
        (o * obar).max_abs(),
        (o - obar - bc.UNIT_I).max_abs(),
        (o + obar - bc.UNIT_J).max_abs(),
        (o * o - obar * obar - bc.UNIT_IJ).max_abs(),
        (o * o + obar * obar + bc.ONE).max_abs(),
    )
    out.append(
        _result(
            "bicomplex",
            "null_unit_rules",
            "oo = i o = j o, obar obar = -i obar = j obar, o obar = 0, "
            "unit recombinations",
            worst,
            tol,
        )
    )

    rng = _rng(cfg, "bc.invol")
    vals = sampling.bicomplex_values(2 * cfg.samples, rng)
    worst = _worst(
        (bc.UNIT_I.conjugate() + bc.UNIT_I).max_abs(),
        (bc.UNIT_J.conjugate() - bc.UNIT_J).max_abs(),
        (bc.UNIT_IJ.conjugate() + bc.UNIT_IJ).max_abs(),
        (bc.UNIT_I.reverse() + bc.UNIT_I).max_abs(),
        (bc.UNIT_J.reverse() + bc.UNIT_J).max_abs(),
        (bc.UNIT_IJ.reverse() - bc.UNIT_IJ).max_abs(),
    )
    for a, b in zip(vals[0::2], vals[1::2]):
        worst = _worst(
            worst,
            (a.conjugate().conjugate() - a).max_abs(),
            (a.reverse().reverse() - a).max_abs(),
            ((a * b).conjugate() - a.conjugate() * b.conjugate()).max_abs(),
            ((a * b).reverse() - a.reverse() * b.reverse()).max_abs(),
        )
    out.append(
        _result(
            "bicomplex",
            "involutions",
            "conjugate and reverse are involutive ring homomorphisms with the "
            "stated unit signs",
            worst,
            tol,
        )
    )

    rng = _rng(cfg, "bc.proj")
    vals = sampling.bicomplex_values(cfg.samples, rng)
    worst = 0.0
    failure = None
    for s in vals:
        try:
            t = bc.involution_projections(s)
        except bc.StructureError as exc:  # pragma: no cover - arithmetic bug
            failure = str(exc)
            worst = math.inf
            break
        nsq = s.squared_length()
        scale = 1.0 + nsq * nsq
        worst = _worst(
            worst,
            abs(t.xi1**2 + t.xi2**2 + t.xi3**2 - t.len_sq**2) / scale,
            abs(t.len_sq - nsq) / (1.0 + nsq),
        )
    out.append(
        _result(
            "bicomplex",
            "projection_structure",
            "s conj(s) in span(1, j), s rev(s) in span(1, ij), and "
            "|xi|^2 = (|s|^2)^2",
            worst,
            tol,
            message=failure,
        )
    )

    rng = _rng(cfg, "bc.exp")
    vals = sampling.bicomplex_values(2 * cfg.samples, rng, scale=0.8)
    worst = (bc.ZERO.exp() - bc.ONE).max_abs()
    for a, b in zip(vals[0::2], vals[1::2]):
        lhs = a.exp() * b.exp()
        rhs = (a + b).exp()
        worst = _worst(worst, (lhs - rhs).max_abs() / (1.0 + rhs.max_abs()))
    out.append(
        _result(
            "bicomplex",
            "exp_addition",
            "exp(a) exp(b) = exp(a + b) on the commutative ring; exp(0) = 1",
            worst,
            tol,
        )
    )
    return out


# --- charts ------------------------------------------------------------------

def _metric_closed_form(p: ChartPoint) -> np.ndarray:
    zero = 0.0 * p.y0  # 0.0, or zeros of p's sample shape
    if p.chart is ChartId.CARTESIAN:
        d0 = d1 = 1.0 + zero
    elif p.chart is ChartId.POLAR:
        d0, d1 = 1.0 + zero, p.y0 * p.y0
    elif p.chart is ChartId.HOLOGRAPHIC:
        d0, d1 = dual.cos(p.y0) ** 2, dual.sin(p.y0) ** 2
    else:
        d0 = d1 = dual.exp(2 * p.y0)
    return np.array([[d0, zero], [zero, d1]])


def charts_checks(cfg: SuiteConfig):
    out = []
    tol_exact = min(cfg.tol, 1e-12)
    n = max(cfg.samples, 100)

    for chart in ALL_CHARTS:
        p = ChartPoint.stack(sampling.chart_points(chart, n, _rng(cfg, f"ch.{chart.value}")))

        b0, b1 = charts.basis(p)
        c0, c1 = charts.basis_closed_form(p)
        out.append(
            _result(
                "charts",
                f"basis_dual_vs_closed[{chart.value}]",
                "dual-number basis vectors equal the closed forms",
                _worst(np.abs(b0 - c0), np.abs(b1 - c1)),
                tol_exact,
            )
        )

        g = charts.metric(p)
        out.append(
            _result(
                "charts",
                f"metric_closed_form[{chart.value}]",
                "Gram matrix of the basis equals the diagonal closed form",
                _worst(np.abs(g - _metric_closed_form(p))),
                cfg.tol,
            )
        )

        # lower @ mixed.T at every sample
        prod = np.einsum("ik...,jk...->ij...", charts.jacobian_lower(p), charts.jacobian_mixed(p))
        out.append(
            _result(
                "charts",
                f"jacobian_inverse[{chart.value}]",
                "lower and mixed transformation matrices are mutually inverse",
                _worst(np.abs(prod - np.eye(2)[:, :, None])),
                cfg.tol,
            )
        )

        diff = charts.jacobian_mixed(p) - charts.jacobian_mixed_closed_form(p)
        out.append(
            _result(
                "charts",
                f"jacobian_mixed_closed[{chart.value}]",
                "index-moved transformation matrix equals the closed form",
                _worst(np.abs(diff)),
                cfg.tol,
            )
        )

        x0, x1 = charts.embed(p)
        z0, z1 = charts.embed(charts.invert(chart, x0, x1))
        out.append(
            _result(
                "charts",
                f"embed_roundtrip[{chart.value}]",
                "embedding composed with the analytic inverse is the identity",
                _worst(np.abs(x0 - z0), np.abs(x1 - z1)),
                cfg.tol,
            )
        )

    rng = _rng(cfg, "ch.null")
    worst = 0.0
    for _ in range(max(1000, cfg.samples)):
        x0 = rng.uniform(-2.5, 2.5)
        x1 = rng.uniform(-2.5, 2.5)
        u = charts.compactify(x0, x1)
        v = charts.compactify(x0, x1, rescaled=True)
        worst = _worst(
            worst,
            abs(u.null_defect()) / (1.0 + u.u3 * u.u3),
            abs(v.null_defect()),
            abs(v.u0**2 + v.u1**2 + v.u2**2 - 1.0),
            abs(v.u3 - 1.0),
        )
    out.append(
        _result(
            "charts",
            "compactify_null",
            "lifted vectors are null; rescaled ones lie on the unit sphere "
            "with last component 1",
            worst,
            tol_exact,
        )
    )

    # finite special conformal map: worked value and first-order generator match
    x = charts.special_conformal((0.7, -0.3), (0.0, 0.0))
    y = charts.special_conformal((0.0, 2.0), (0.0, -0.25))
    worst = _worst(abs(x[0] - 0.7), abs(x[1] + 0.3), abs(y[0] - 0.0), abs(y[1] - 4.0))
    out.append(
        _result(
            "charts",
            "special_conformal_values",
            "inversion-translation-inversion fixes x when c = 0 and maps "
            "(0,2) to (0,4) for c = (0,-0.25)",
            worst,
            tol_exact,
        )
    )

    rng = _rng(cfg, "ch.sct")
    q0 = algebra.generator(Q0, ChartId.CARTESIAN)
    q1 = algebra.generator(Q1, ChartId.CARTESIAN)
    worst = 0.0
    for _ in range(cfg.samples):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.5, 2.0)
        x = (r * math.cos(ang), r * math.sin(ang))
        cang = rng.uniform(0, 2 * math.pi)
        eps = 1e-3

        def defect(scale):
            c = (scale * math.cos(cang), scale * math.sin(cang))
            y = charts.special_conformal(x, c)
            # first-order step is minus the quadratic fields
            dx0 = -(c[0] * q0.coeffs[0](*x) + c[1] * q1.coeffs[0](*x))
            dx1 = -(c[0] * q0.coeffs[1](*x) + c[1] * q1.coeffs[1](*x))
            return math.hypot(y[0] - (x[0] + dx0), y[1] - (x[1] + dx1))

        worst = _worst(worst, _ratio_defect(defect(eps), defect(eps / 2)))
    out.append(
        _result(
            "charts",
            "special_conformal_infinitesimal",
            "finite map deviates from the first-order quadratic-field step "
            "at second order (Richardson ratio 4)",
            worst,
            0.2,
            message=RATIO_UNDEFINED if worst == math.inf else None,
        )
    )
    return out


# --- laplace -----------------------------------------------------------------

def _random_polynomial(rng: random.Random):
    coeffs = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]

    def f(x0, x1):
        acc = 0.0
        for i in range(4):
            for j in range(4):
                if i + j <= 3:
                    acc = acc + coeffs[i][j] * x0**i * x1**j
        return acc

    return f


def laplace_checks(cfg: SuiteConfig):
    out = []

    for chart in ALL_CHARTS:
        rng = _rng(cfg, f"lap.res.{chart.value}")
        alphas = sampling.scale_dimensions(cfg.samples, rng)
        pts = sampling.chart_points(chart, 3, rng)
        # the alpha x point grid, flattened: every point for each alpha
        alpha = np.repeat(alphas, len(pts))
        grid = ChartPoint.stack(pts * len(alphas))
        u = laplace.solve(alpha, chart, grid)
        worst = _worst(laplace.residual(alpha, chart, grid) / (1.0 + np.abs(u)))
        out.append(
            _result(
                "laplace",
                f"solution_residual[{chart.value}]",
                "the rescaled operator annihilates the scale-dimension family",
                worst,
                cfg.tol,
            )
        )

    for chart in (ChartId.POLAR, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL):
        rng = _rng(cfg, f"lap.scale.{chart.value}")
        p = ChartPoint.stack(sampling.chart_points(chart, 10, rng))
        flat_p = ChartPoint(ChartId.CARTESIAN, *charts.embed(p))
        worst = 0.0
        for _ in range(3):
            poly = _random_polynomial(rng)

            def pulled(y0, y1, chart=chart, poly=poly):
                return poly(*charts.embed_coords(chart, y0, y1))

            lhs = laplace.laplacian(chart, pulled, p)
            rhs = laplace.rescale_factor(chart, p) * laplace.laplacian(
                ChartId.CARTESIAN, poly, flat_p
            )
            worst = _worst(worst, np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))
        out.append(
            _result(
                "laplace",
                f"rescaled_operator_factor[{chart.value}]",
                "chart operator equals (r^2 | sin^2 theta | e^{2 rho}) times "
                "the flat Laplacian of the pulled-back function",
                worst,
                cfg.tol,
            )
        )

    rng = _rng(cfg, "lap.consist")
    p = ChartPoint.stack(sampling.chart_points(ChartId.HOLOGRAPHIC, cfg.samples, rng))
    alpha = np.array(sampling.scale_dimensions(cfg.samples, rng))
    x0, x1 = charts.embed(p)
    ref = laplace.solve(alpha, ChartId.HOLOGRAPHIC, p)
    worst = _worst(
        *(
            np.abs(laplace.solve(alpha, chart, charts.invert(chart, x0, x1)) - ref)
            / (1.0 + np.abs(ref))
            for chart in (ChartId.CARTESIAN, ChartId.POLAR, ChartId.CONFORMAL)
        )
    )
    out.append(
        _result(
            "laplace",
            "chart_consistency",
            "all four charts give the same solution value at the same plane point",
            worst,
            cfg.tol,
        )
    )

    rng = _rng(cfg, "lap.ylm")
    grid = sampling.chart_points(ChartId.HOLOGRAPHIC, 20, rng)
    worst = 0.0
    message = None
    try:
        for l in (1, 2, 3, 4):
            ratio = laplace.ylm_ratio(l, grid)
            expected = (-1) ** l * math.sqrt(
                (2 * l + 1) / (4 * math.pi * math.factorial(2 * l))
            ) * math.prod(range(1, 2 * l, 2))
            worst = _worst(worst, abs(ratio - expected) / abs(expected))
        neg = laplace.ylm_ratio(1, grid, negative_branch=True)
        worst = _worst(worst, abs(neg - math.sqrt(3 / (8 * math.pi))))
    except ArithmeticError as exc:
        worst, message = math.inf, str(exc)
    out.append(
        _result(
            "laplace",
            "harmonic_ratio",
            "degree-l solutions are proportional to the extremal (m = +-l) "
            "spherical harmonics with the closed-form constant",
            worst,
            cfg.tol,
            message=message,
        )
    )

    rng = _rng(cfg, "lap.holo")
    p = ChartPoint.stack(sampling.chart_points(ChartId.CARTESIAN, cfg.samples, rng))
    alpha = np.array(sampling.scale_dimensions(cfg.samples, rng))
    f = laplace.SolutionFamily(alpha, ChartId.CARTESIAN)
    d = laplace.conjugate_derivative(f, p.y0, p.y1)
    worst = _worst(np.abs(d) / (1.0 + np.abs(alpha) * np.abs(f(p.y0, p.y1))))
    out.append(
        _result(
            "laplace",
            "holomorphy_annihilation",
            "the conjugate derivative (d0 + i d1) kills the solution family",
            worst,
            cfg.tol,
        )
    )
    return out


# --- algebra -----------------------------------------------------------------

def _realization_name(r) -> str:
    return algebra.realization_key(r)


def algebra_checks(cfg: SuiteConfig):
    out = []

    for r in FIELD_REALIZATIONS:
        name = _realization_name(r)
        pts = algebra.default_points(r, n=cfg.samples, seed=cfg.seed)
        try:
            ledger = algebra.structure_table(r, points=pts)
            signs_ok = all(
                ledger.signs[algebra.pair_label(g1, g2)]
                == algebra.EXPECTED_FIELD_SIGNS[(g1, g2)]
                for g1, g2 in algebra.BRACKET_PAIRS
            )
            defect = ledger.max_defect if signs_ok else math.inf
            out.append(
                _result(
                    "algebra",
                    f"bracket_table[{name}]",
                    "all 15 brackets match the table, as written except the "
                    "four negated [q, p] entries",
                    defect,
                    cfg.tol,
                    ledger=ledger.as_dict(),
                )
            )
        except UnmatchedBracketError as exc:
            out.append(
                _result(
                    "algebra",
                    f"bracket_table[{name}]",
                    "all 15 brackets match the table up to sign",
                    math.inf,
                    cfg.tol,
                    message=str(exc),
                )
            )

    for chart in (ChartId.HOLOGRAPHIC, ChartId.CARTESIAN, ChartId.CONFORMAL):
        rng = _rng(cfg, f"alg.eig.{chart.value}")
        p = ChartPoint.stack(sampling.chart_points(chart, cfg.samples, rng))
        alpha = np.array(sampling.scale_dimensions(cfg.samples, rng))
        worst = 0.0
        for g in GENERATORS:
            expected = algebra.eigenaction_expected(g, alpha, p)
            worst = _worst(
                worst,
                np.abs(algebra.act(g, alpha, p) - expected) / (1.0 + np.abs(expected)),
            )
        out.append(
            _result(
                "algebra",
                f"eigenactions[{chart.value}]",
                "generators scale the solution family and shift its dimension "
                "by -1 (translations) / +1 (special conformal)",
                worst,
                cfg.tol,
            )
        )

    rng = _rng(cfg, "alg.degree")
    us = sampling.upsilon_points(10, rng)
    p0 = algebra.generator(P0, UPSILON_LINE)
    q0 = algebra.generator(Q0, UPSILON_LINE)
    worst = 0.0
    for n in range(9):
        mono = lambda u, n=n: u**n
        for u in us:
            expected_p = n * u ** (n - 1) if n else 0.0
            worst = _worst(
                worst,
                abs(algebra.apply_to_function(p0, mono, u) - expected_p),
                abs(algebra.apply_to_function(q0, mono, u) - n * u ** (n + 1)),
            )
    out.append(
        _result(
            "algebra",
            "degree_shift",
            "on monomials u^n the translation lowers and the special "
            "conformal raises the degree, both with coefficient n",
            worst,
            cfg.tol,
        )
    )

    for r in FIELD_REALIZATIONS:
        name = _realization_name(r)
        rng = _rng(cfg, f"alg.jacobi.{name}")
        pts = algebra.default_points(r, n=5, seed=cfg.seed + 1)
        gens = {g: algebra.generator(g, r) for g in GENERATORS}
        triples = [tuple(rng.sample(GENERATORS, 3)) for _ in range(10)]
        worst = 0.0
        for gx, gy, gz in triples:
            x, y, z = gens[gx], gens[gy], gens[gz]
            total = algebra.lincomb(
                [
                    (1.0, algebra.bracket(algebra.bracket(x, y), z)),
                    (1.0, algebra.bracket(algebra.bracket(y, z), x)),
                    (1.0, algebra.bracket(algebra.bracket(z, x), y)),
                ],
                r,
            )
            worst = _worst(worst, np.abs(algebra.field_values(total, pts)))
        out.append(
            _result(
                "algebra",
                f"jacobi[{name}]",
                "cyclic double brackets cancel",
                worst,
                cfg.tol,
            )
        )

    for r in FIELD_REALIZATIONS:
        name = _realization_name(r)
        pts = algebra.default_points(r, n=max(10, cfg.samples // 2), seed=cfg.seed + 2)
        try:
            res = algebra.minkowski_check(r, points=pts)
            signs_ok = all(
                res.ledger.signs[key] == algebra.MINKOWSKI_FIELD_SIGNS.get(key, 1)
                for key in res.ledger.signs
            )
            defect = res.ledger.max_defect
            if not (signs_ok and res.metric_forced):
                defect = math.inf
            out.append(
                _result(
                    "algebra",
                    f"minkowski_packing[{name}]",
                    "packed rotations satisfy the single relation with metric "
                    "diag(1,1,1,-1); every other diagonal sign pattern breaks "
                    "a bracket",
                    defect,
                    cfg.tol,
                    ledger=res.ledger.as_dict(),
                    message=None
                    if res.metric_forced
                    else f"passing metrics: {res.passing_metrics}",
                )
            )
        except UnmatchedBracketError as exc:
            out.append(
                _result(
                    "algebra",
                    f"minkowski_packing[{name}]",
                    "packed rotation relation",
                    math.inf,
                    cfg.tol,
                    message=str(exc),
                )
            )

    rng = _rng(cfg, "alg.tensor")
    u = np.array(sampling.upsilon_points(cfg.samples, rng))
    pack = algebra.so31_pack(UPSILON_LINE)
    m = algebra.angular_tensor(u)
    worst = _worst(
        np.abs(m + m.swapaxes(0, 1)),
        *(np.abs(m[a, b] * u - dual.value(fld.coeffs[0](u))) for (a, b), fld in pack.items()),
    )
    out.append(
        _result(
            "algebra",
            "angular_tensor",
            "the antisymmetric cn/sn multiplier tensor reproduces the packed "
            "rotation coefficients over the common factor u d/du",
            worst,
            cfg.tol,
        )
    )

    rng = _rng(cfg, "alg.subst")
    pts = sampling.chart_points(ChartId.HOLOGRAPHIC, cfg.samples, rng)
    sub_q0 = algebra.paravector_substitute(
        lambda t, f: dual.cos(f) * dual.sin(t), lambda t, f: dual.sin(f) * dual.sin(t)
    )
    sub_p0 = algebra.paravector_substitute(
        lambda t, f: dual.cos(f) / dual.sin(t), lambda t, f: -dual.sin(f) / dual.sin(t)
    )
    sub_b = algebra.paravector_substitute(lambda t, f: 1.0, lambda t, f: 0.0)
    worst = 0.0
    for target, sub in ((Q0, sub_q0), (P0, sub_p0), (B, sub_b)):
        ref = algebra.generator(target, ChartId.HOLOGRAPHIC)
        diff = algebra.field_values(sub, pts) - algebra.field_values(ref, pts)
        worst = _worst(worst, np.abs(diff))
    out.append(
        _result(
            "algebra",
            "paravector_substitution",
            "substituting (1, i) -> (tan theta d_theta, d_phi) in the "
            "solution, its inverse, and the constant 1 reproduces q0, p0, b",
            worst,
            min(cfg.tol, 1e-12),
        )
    )

    rng = _rng(cfg, "alg.curve")
    pts = sampling.chart_points(ChartId.HOLOGRAPHIC, 10, rng)
    worst_deriv = 0.0
    worst_ratio = 0.0
    for p in pts:
        u = laplace.solve(1.0, ChartId.HOLOGRAPHIC, p)
        flow_derivative = algebra.apply_to_function(
            algebra.generator(B, ChartId.HOLOGRAPHIC),
            laplace.SolutionFamily(1.0, ChartId.HOLOGRAPHIC),
            p,
        )
        worst_deriv = _worst(worst_deriv, abs(flow_derivative - u))

        def sine_defect(eps, p=p):
            approx = math.sin(p.y0 + eps * math.tan(p.y0)) * complex(
                math.cos(p.y1), math.sin(p.y1)
            )
            return abs(algebra.tangent_curve(eps, p) - approx)

        worst_ratio = _worst(worst_ratio, _ratio_defect(sine_defect(1e-3), sine_defect(5e-4)))
    out.append(
        _result(
            "algebra",
            "tangent_curve_derivative",
            "the dilation flow of the solution has derivative "
            "tan(theta) d_theta u, which equals u itself",
            worst_deriv,
            cfg.tol,
        )
    )
    quarter = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.0)
    sample_defect = abs(
        algebra.tangent_curve(1e-3, quarter) - math.sin(math.pi / 4 + 1e-3)
    )
    out.append(
        _result(
            "algebra",
            "tangent_curve_order",
            "the flow curve matches the shifted-angle sine to second order "
            "(Richardson ratio 4; defect below 1e-5 at eps = 1e-3)",
            _worst(worst_ratio / 0.4, sample_defect / 1e-5),
            1.0,
            message=RATIO_UNDEFINED if worst_ratio == math.inf else None,
        )
    )
    return out


# --- projective ---------------------------------------------------------------

def projective_checks(cfg: SuiteConfig):
    out = []
    tol_exact = min(cfg.tol, 1e-12)

    for ring in (projective.Ring.BICOMPLEX, projective.Ring.REAL, projective.Ring.COMPLEX):
        try:
            ledger = projective.matrix_bracket_table(ring)
            signs_ok = ledger.signs == projective.EXPECTED_MATRIX_SIGNS[ring]
            defect = ledger.max_defect if signs_ok else math.inf
            out.append(
                _result(
                    "projective",
                    f"matrix_brackets[{ring.value}]",
                    "spin-matrix commutators match the table with the "
                    "documented per-ring signs (bicomplex: all as written)",
                    defect,
                    tol_exact,
                    ledger=ledger.as_dict(),
                )
            )
        except UnmatchedBracketError as exc:
            out.append(
                _result(
                    "projective",
                    f"matrix_brackets[{ring.value}]",
                    "spin-matrix commutators match the table up to sign",
                    math.inf,
                    tol_exact,
                    message=str(exc),
                )
            )

    real_ledger = projective.matrix_bracket_table(projective.Ring.REAL)
    ups_ledger = algebra.structure_table(
        UPSILON_LINE, points=sampling.upsilon_points(cfg.samples, _rng(cfg, "proj.ledger"))
    )
    worst = 0.0
    for key in real_ledger.signs:
        if real_ledger.signs[key] != -ups_ledger.signs[key]:
            worst = math.inf
    out.append(
        _result(
            "projective",
            "real_ledger_negation",
            "the real matrix ledger is the global negation of the "
            "upsilon-line field ledger on the shared subalgebra",
            worst,
            tol_exact,
            ledger={"real": real_ledger.as_dict(), "upsilon-line": {
                k: ups_ledger.signs[k] for k in real_ledger.signs}},
        )
    )

    o, obar = bc.null_plane_units()
    half = bc.Bicomplex(0.5)
    expected_matrices = [
        (
            projective.matrix_rep(S01, projective.Ring.COMPLEX),
            (0.5j, 0j, 0j, -0.5j),
        ),
        (
            projective.matrix_rep(P1, projective.Ring.COMPLEX),
            (0j, 1j, 0j, 0j),
        ),
        (
            projective.matrix_rep(Q1, projective.Ring.COMPLEX),
            (0j, 0j, 1j, 0j),
        ),
        (
            projective.matrix_rep(B, projective.Ring.BICOMPLEX),
            (half * bc.UNIT_IJ, bc.ZERO, bc.ZERO, -1 * (half * bc.UNIT_IJ)),
        ),
        (
            projective.matrix_rep(P0, projective.Ring.BICOMPLEX),
            (bc.ZERO, o, -1 * obar, bc.ZERO),
        ),
        (
            projective.matrix_rep(Q0, projective.Ring.BICOMPLEX),
            (bc.ZERO, obar, -1 * o, bc.ZERO),
        ),
        (
            projective.matrix_rep(S01, projective.Ring.BICOMPLEX),
            (bc.UNIT_I * (half * bc.UNIT_IJ), bc.ZERO, bc.ZERO,
             -1 * (bc.UNIT_I * (half * bc.UNIT_IJ))),
        ),
    ]
    worst = 0.0
    for m, entries in expected_matrices:
        for got, want in zip(m.entries(), entries):
            diff = got - want
            worst = _worst(
                worst,
                diff.max_abs() if isinstance(diff, bc.Bicomplex) else abs(diff),
            )
        tr = m.trace()
        worst = _worst(
            worst, tr.max_abs() if isinstance(tr, bc.Bicomplex) else abs(tr)
        )
    out.append(
        _result(
            "projective",
            "explicit_matrices",
            "complexified and bicomplex generator matrices equal their "
            "frozen closed forms and are trace-free",
            worst,
            tol_exact,
        )
    )

    worst = 0.0
    for ring in projective.Ring:
        for g in projective.supported_generators(ring):
            for eps in (0.3, -0.7, 1e-3):
                m = projective.exp_one_param(g, eps, ring)
                det = m.det()
                if isinstance(det, bc.Bicomplex):
                    worst = _worst(worst, (det - bc.ONE).max_abs())
                else:
                    worst = _worst(worst, abs(det - 1.0))
    eps = 0.37
    m = projective.exp_one_param(S01, eps, projective.Ring.COMPLEX)
    worst = _worst(
        worst,
        abs(m.a - cmath.exp(1j * eps / 2)),
        abs(m.d - cmath.exp(-1j * eps / 2)),
        abs(m.b),
        abs(m.c),
    )
    mb = projective.exp_one_param(B, eps, projective.Ring.BICOMPLEX)
    want = bc.Bicomplex(math.cosh(eps / 2), 0, 0, math.sinh(eps / 2))
    worst = _worst(worst, (mb.a - want).max_abs(), (mb.d - want.conjugate()).max_abs())
    mp = projective.exp_one_param(P0, eps, projective.Ring.REAL)
    worst = _worst(worst, abs(mp.a - 1), abs(mp.b - eps), abs(mp.c), abs(mp.d - 1))
    out.append(
        _result(
            "projective",
            "one_parameter_subgroups",
            "exponentials have unit determinant; diagonal flows are the "
            "half-angle phase / hyperbolic pairs, translations terminate at "
            "first order",
            worst,
            tol_exact,
        )
    )

    rng = _rng(cfg, "proj.flow")
    worst = 0.0
    exact_floor = 1e-13
    for g in GENERATORS:
        for _ in range(10):
            r = rng.uniform(0.3, 1.2)
            ang = rng.uniform(0, 2 * math.pi)
            v0 = complex(r * math.cos(ang), r * math.sin(ang))
            eps = 1e-3
            d1 = projective.flow_consistency(g, v0, eps)
            d2 = projective.flow_consistency(g, v0, eps / 2)
            if d1 <= exact_floor and d2 <= exact_floor:
                continue  # translation flows are exact
            worst = _worst(worst, _ratio_defect(d1, d2))
    out.append(
        _result(
            "projective",
            "flow_richardson",
            "matrix flows agree with the field step to second order: halving "
            "eps divides the defect by 4 (translations are exact)",
            worst,
            0.2,
            message=RATIO_UNDEFINED if worst == math.inf else None,
        )
    )

    rng = _rng(cfg, "proj.mobius")
    worst = 0.0
    for _ in range(cfg.samples):
        gs = rng.sample(GENERATORS, 2)
        m = projective.exp_one_param(gs[0], rng.uniform(-0.8, 0.8), projective.Ring.COMPLEX)
        n = projective.exp_one_param(gs[1], rng.uniform(-0.8, 0.8), projective.Ring.COMPLEX)
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        try:
            lhs = projective.mobius_apply(m @ n, v)
            rhs = projective.mobius_apply(m, projective.mobius_apply(n, v))
        except projective.PoleError:
            continue
        worst = _worst(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    out.append(
        _result(
            "projective",
            "mobius_group_action",
            "applying a product matrix equals applying the factors in turn",
            worst,
            cfg.tol,
        )
    )

    rng = _rng(cfg, "proj.hopf")
    worst = 0.0
    for _ in range(cfg.samples):
        raw = [rng.uniform(-2, 2) for _ in range(4)]
        if all(abs(c) < 1e-3 for c in raw):
            continue
        xi = projective.hopf_raw(*raw)
        nsq = sum(c * c for c in raw)
        # agreement with the bicomplex involution projections
        t = bc.involution_projections(bc.Bicomplex(*raw))
        s = projective.S3Point(*raw)
        onsphere = projective.hopf(s)
        lam = rng.uniform(0, 2 * math.pi)
        rot = projective.hopf(s.phase_rotated(lam))
        worst = _worst(
            worst,
            abs(math.sqrt(sum(x * x for x in xi)) - nsq) / (1.0 + nsq),
            abs(t.xi1 - xi[0]),
            abs(t.xi2 - xi[1]),
            abs(t.xi3 - xi[2]),
            abs(t.len_sq - nsq),
            abs(onsphere.xi1**2 + onsphere.xi2**2 + onsphere.xi3**2 - 1.0),
            abs(rot.xi1 - onsphere.xi1),
            abs(rot.xi2 - onsphere.xi2),
            abs(rot.xi3 - onsphere.xi3),
        )
    out.append(
        _result(
            "projective",
            "sphere_map",
            "|image| = |input|^2, the image is phase-fiber invariant, and it "
            "matches the bicomplex involution projections",
            worst,
            tol_exact,
        )
    )

    rng = _rng(cfg, "proj.charts")
    worst = 0.0
    for _ in range(cfg.samples):
        v1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(v1) < 1e-3 or abs(v2) < 1e-3:
            continue
        p = projective.ProjectivePoint(v1, v2)
        tr = projective.chart_transition(p)
        worst = _worst(worst, abs(abs(tr.transition) - 1.0))
        scaled = projective.ProjectivePoint(1.7j * v1, 1.7j * v2)
        if not projective.projectively_equal(p, scaled):
            worst = math.inf
    single = projective.chart_transition(projective.ProjectivePoint(2.0 + 0j, 0j))
    if single.in_overlap or single.affine1 != (1.0 + 0j, 0j):
        worst = math.inf
    out.append(
        _result(
            "projective",
            "line_charts",
            "affine normalizations exist on the overlap with unit-modulus "
            "transition; one-chart points are reported as such",
            worst,
            tol_exact,
        )
    )
    return out


_SUITES = {
    "bicomplex": bicomplex_checks,
    "charts": charts_checks,
    "laplace": laplace_checks,
    "algebra": algebra_checks,
    "projective": projective_checks,
}


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run the selected suites; failures become report entries, not raises."""
    report = VerificationReport(config=cfg)
    for name in ("bicomplex", "charts", "laplace", "algebra", "projective"):
        if name not in cfg.suites:
            continue
        report.checks.extend(_SUITES[name](cfg))
    return report
