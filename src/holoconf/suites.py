"""Deterministic verification suites aggregating every module's identities.

Each check draws its sample points from a random stream seeded by
``(config seed, check label)``, so reports are byte-stable for a fixed
configuration.

Every check runs through one runner, ``_Runner.check``.  A check body holds
only the identity's defect computation: it yields its defects (numbers or
arrays) one at a time, or returns an ``_Outcome`` that also carries a sign
ledger.  The runner

- reduces the defects to their maximum, starting from 0.0 (a body that skips
  every sample passes with defect 0.0); a NaN defect fails with the message
  ``non-finite defect``, an infinite one with ``structural mismatch`` or the
  check's own ``inf_message`` (an undefined Richardson ratio, say);
- judges the maximum against the check's threshold: ``"tol"`` is the
  configured tolerance, ``"exact"`` is ``min(tol, 1e-12)`` for identities that
  hold in exact arithmetic, and a number is a fixed bound;
- turns an exception raised in the body into a failed check with no defect
  and the message ``"<ExceptionType>: <text>"``; the later checks still run.

A check family declares its members once, as ``over=``: the runner calls
the body once per member and records each result as ``name[member]``.
Work that checks share (a draw, a basis) is a cached thunk, taken in the first
body that reads it: no work runs outside a check body, so every exception of
a check's work becomes a failed entry.  Failed checks never raise.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from . import algebra, bicomplex as bc, charts, laplace, projective, sampling
from .algebra import B, GENERATORS, P0, P1, Q0, Q1, REALIZATIONS, S01, UPSILON_LINE
from .charts import ChartId, ChartPoint
from .report import SUITE_NAMES, CheckResult, SuiteConfig, VerificationReport

ALL_CHARTS = tuple(ChartId)

# pinned bound of the identities that hold in exact arithmetic
EXACT_TOL = 1e-12

RATIO_UNDEFINED = "zero defect at eps/2: Richardson ratio undefined"


def _seed(cfg: SuiteConfig, label: str) -> str:
    """Seed of the stream labelled label: each check draws from its own."""
    return f"{cfg.seed}:{label}"


def _rng(cfg: SuiteConfig, label: str) -> random.Random:
    return random.Random(_seed(cfg, label))


def _worst(defects) -> float:
    """Largest of the defects (scalars or arrays), at least 0.0; NaN as soon
    as one is NaN.

    The builtin max keeps or drops NaN depending on argument order
    (max(0.0, nan) is 0.0), which would let a NaN defect pass.
    """
    worst = 0.0
    for d in defects:
        if isinstance(d, np.ndarray):
            if not d.size:
                continue  # every sample skipped
            d = d.max()  # propagates NaN
        if d != d:
            return math.nan
        if d > worst:
            worst = d
    return float(worst)


def _ratio_defect(coarse, fine):
    """Distance of the Richardson ratio coarse/fine from 4 (second order),
    sample by sample for arrays; inf where the finer defect vanishes and the
    ratio is undefined."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(fine != 0, np.abs(np.divide(coarse, fine) - 4.0), math.inf)


class _Outcome(NamedTuple):
    """A check's defect together with its sign ledger and message."""

    defect: float
    ledger: dict | None = None
    message: str | None = None


def _signed(ledger: algebra.SignLedger, expected: dict) -> _Outcome:
    """The ledger's worst defect when its signs are the expected ones, else inf."""
    return _Outcome(ledger.max_defect if ledger.signs == expected else math.inf, dict(ledger.signs))


class _Runner:
    """Runs the checks of one suite in order and collects their results."""

    def __init__(self, suite: str, cfg: SuiteConfig):
        self.suite = suite
        self.limits = {"tol": cfg.tol, "exact": min(cfg.tol, EXACT_TOL)}
        self.results = []

    def check(
        self, name: str, identity: str, threshold: str | float, inf_message: str = "structural mismatch", over=None
    ):
        """Decorator that runs the body at once and records its result (the
        decorated name is left bound to None).  With over, a tuple of
        members, it runs body(member) for each and records its result as
        name[member]; an exception fails only that member's entry."""

        def run(body):
            calls = [(name, body)] if over is None else [(f"{name}[{m}]", functools.partial(body, m)) for m in over]
            for entry, call in calls:
                try:
                    out = call()
                    if not isinstance(out, _Outcome):
                        out = _Outcome(_worst(out))
                except Exception as exc:
                    out = _Outcome(math.nan, message=f"{type(exc).__name__}: {exc}")
                defect, ledger, message = out
                finite = math.isfinite(defect)
                if not finite and message is None:
                    message = "non-finite defect" if math.isnan(defect) else inf_message
                self.results.append(
                    CheckResult(
                        suite=self.suite,
                        name=entry,
                        identity=identity,
                        passed=bool(finite and defect <= self.limits.get(threshold, threshold)),
                        max_defect=float(defect) if finite else None,
                        sign_ledger=ledger,
                        message=message,
                    )
                )

        return run


# --- bicomplex ---------------------------------------------------------------

def bicomplex_checks(cfg: SuiteConfig):
    run = _Runner("bicomplex", cfg)

    @run.check(
        "ring_axioms",
        "associativity, commutativity, distributivity, unit element",
        "exact",
    )
    def _():
        a, b, c = sampling.bicomplex_batch(cfg.samples, _rng(cfg, "bc.ring"), count=3)
        yield from (
            ((a * b) * c - a * (b * c)).max_abs(),
            (a * b - b * a).max_abs(),
            (a * (b + c) - (a * b + a * c)).max_abs(),
            (bc.ONE * a - a).max_abs(),
        )

    @run.check(
        "null_unit_rules",
        "oo = i o = j o, obar obar = -i obar = j obar, o obar = 0, "
        "unit recombinations",
        "exact",
    )
    def _():
        o, obar = bc.null_plane_units()
        yield from (
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

    @run.check(
        "involutions",
        "conjugate and reverse are involutive ring homomorphisms with the "
        "stated unit signs",
        "exact",
    )
    def _():
        a, b = sampling.bicomplex_batch(cfg.samples, _rng(cfg, "bc.invol"), count=2)
        yield from (
            (bc.UNIT_I.conjugate() + bc.UNIT_I).max_abs(),
            (bc.UNIT_J.conjugate() - bc.UNIT_J).max_abs(),
            (bc.UNIT_IJ.conjugate() + bc.UNIT_IJ).max_abs(),
            (bc.UNIT_I.reverse() + bc.UNIT_I).max_abs(),
            (bc.UNIT_J.reverse() + bc.UNIT_J).max_abs(),
            (bc.UNIT_IJ.reverse() - bc.UNIT_IJ).max_abs(),
            (a.conjugate().conjugate() - a).max_abs(),
            (a.reverse().reverse() - a).max_abs(),
            ((a * b).conjugate() - a.conjugate() * b.conjugate()).max_abs(),
            ((a * b).reverse() - a.reverse() * b.reverse()).max_abs(),
        )

    @run.check(
        "projection_structure",
        "s conj(s) in span(1, j), s rev(s) in span(1, ij), and "
        "|xi|^2 = (|s|^2)^2",
        "exact",
    )
    def _():
        s = sampling.bicomplex_batch(cfg.samples, _rng(cfg, "bc.proj"))
        t = bc.involution_projections(s)
        nsq = s.squared_length()
        scale = 1.0 + nsq * nsq
        yield abs(sum(x * x for x in (t.xi1, t.xi2, t.xi3)) - t.len_sq * t.len_sq) / scale
        yield abs(t.len_sq - nsq) / (1.0 + nsq)

    @run.check(
        "exp_addition",
        "exp(a) exp(b) = exp(a + b) on the commutative ring; exp(0) = 1",
        "exact",
    )
    def _():
        a, b = sampling.bicomplex_batch(cfg.samples, _rng(cfg, "bc.exp"), scale=0.8, count=2)
        yield (bc.ZERO.exp() - bc.ONE).max_abs()
        lhs = a.exp() * b.exp()
        rhs = (a + b).exp()
        yield (lhs - rhs).max_abs() / (1.0 + rhs.max_abs())

    return run.results


# --- charts ------------------------------------------------------------------

def charts_checks(cfg: SuiteConfig):
    run = _Runner("charts", cfg)
    n = max(cfg.samples, 100)

    for chart in ALL_CHARTS:
        # one draw shared by the chart's five checks and one basis by the four
        # that read it, each taken at first use; one that raises fails each reader
        p = functools.cache(lambda: sampling.chart_points(chart, n, _rng(cfg, f"ch.{chart.value}")))
        lower = functools.cache(lambda: charts.jacobian_lower(p()))
        mixed = functools.cache(lambda: charts.mixed_from_lower(lower()))

        @run.check(
            f"basis_dual_vs_closed[{chart.value}]",
            "dual-number basis vectors equal the closed forms",
            "exact",
        )
        def _():
            a = lower()
            c0, c1 = charts.basis_closed_form(p())
            yield from (np.abs(a[:, 0] - c0), np.abs(a[:, 1] - c1))

        @run.check(
            f"metric_closed_form[{chart.value}]",
            "Gram matrix of the basis equals the diagonal closed form",
            "tol",
        )
        def _():
            yield np.abs(charts.gram(lower()) - charts.metric_closed_form(p()))

        @run.check(
            f"jacobian_inverse[{chart.value}]",
            "lower and mixed transformation matrices are mutually inverse",
            "tol",
        )
        def _():
            # lower @ mixed.T at every sample
            prod = np.einsum("ik...,jk...->ij...", lower(), mixed())
            yield np.abs(prod - np.eye(2)[:, :, None])

        @run.check(
            f"jacobian_mixed_closed[{chart.value}]",
            "index-moved transformation matrix equals the closed form",
            "tol",
        )
        def _():
            yield np.abs(mixed() - charts.jacobian_mixed_closed_form(p()))

        @run.check(
            f"embed_roundtrip[{chart.value}]",
            "embedding composed with the analytic inverse is the identity",
            "tol",
        )
        def _():
            x0, x1 = charts.embed(p())
            z0, z1 = charts.embed(charts.invert(chart, x0, x1))
            yield from (np.abs(x0 - z0), np.abs(x1 - z1))

    @run.check(
        "compactify_null",
        "lifted vectors are null; rescaled ones lie on the unit sphere "
        "with last component 1",
        "exact",
    )
    def _():
        x = sampling.uniform(max(1000, cfg.samples), _rng(cfg, "ch.null"), (-2.5, 2.5), (-2.5, 2.5))
        u = charts.compactify(*x)
        v = charts.compactify(*x, rescaled=True)
        yield from (
            abs(u.null_defect()) / (1.0 + u.u3 * u.u3),
            abs(v.null_defect()),
            abs(v.u0**2 + v.u1**2 + v.u2**2 - 1.0),
            abs(v.u3 - 1.0),
        )

    @run.check(
        "special_conformal_values",
        "inversion-translation-inversion fixes x when c = 0 and maps "
        "(0,2) to (0,4) for c = (0,-0.25)",
        "exact",
    )
    def _():
        x = charts.special_conformal((0.7, -0.3), (0.0, 0.0))
        y = charts.special_conformal((0.0, 2.0), (0.0, -0.25))
        yield from (abs(x[0] - 0.7), abs(x[1] + 0.3), abs(y[0] - 0.0), abs(y[1] - 4.0))

    @run.check(
        "special_conformal_infinitesimal",
        "finite map deviates from the first-order quadratic-field step "
        "at second order (Richardson ratio 4)",
        0.2,
        inf_message=RATIO_UNDEFINED,
    )
    def _():
        ang, r, cang = sampling.uniform(
            cfg.samples, _rng(cfg, "ch.sct"), (0, 2 * math.pi), (0.5, 2.0), (0, 2 * math.pi)
        )
        x = charts.embed_coords(ChartId.POLAR, r, ang)
        # the quadratic fields' coefficients at x: q0 and q1 end GENERATORS
        q0, q1 = algebra.generator_tensors(ChartId.CARTESIAN, ChartPoint(ChartId.CARTESIAN, *x), order=0).v[-2:]

        def defect(scale):
            c = charts.embed_coords(ChartId.POLAR, scale, cang)
            y = charts.special_conformal(x, c)
            # first-order step is minus the quadratic fields
            dx0 = -(c[0] * q0[0] + c[1] * q1[0])
            dx1 = -(c[0] * q0[1] + c[1] * q1[1])
            return np.hypot(y[0] - (x[0] + dx0), y[1] - (x[1] + dx1))

        yield _ratio_defect(defect(1e-3), defect(5e-4))

    return run.results


# --- laplace -----------------------------------------------------------------

def _random_polynomial(rng: random.Random, count: int) -> np.ndarray:
    """Coefficients c[i, j] of count random cubics sum c_ij x0^i x1^j
    (i + j <= 3), drawn one cubic after another, each as 16 uniform(-1, 1)
    draws row i by row; shape (4, 4, count, 1), so that _polynomial stacks
    the cubics on an axis before the points' sample axis."""
    u = np.array(sampling.uniform(4 * count, rng, *[(-1, 1)] * 4))  # (j, cubic * 4 + i)
    return u.reshape(4, count, 4).transpose(2, 0, 1)[..., None]


def _polynomial(coeffs: np.ndarray, x0, x1):
    """The cubics of _random_polynomial's coefficients at (x0, x1) (numbers,
    arrays or jets), stacked on a leading axis."""
    pow0, pow1 = [x0**i for i in range(4)], [x1**j for j in range(4)]
    acc = 0.0
    for i in range(4):
        for j in range(4 - i):
            acc = acc + coeffs[i, j] * pow0[i] * pow1[j]
    return acc


def laplace_checks(cfg: SuiteConfig):
    run = _Runner("laplace", cfg)

    @run.check(
        "solution_residual",
        "the rescaled operator annihilates the scale-dimension family",
        "tol",
        over=ALL_CHARTS,
    )
    def _(chart):
        rng = _rng(cfg, f"lap.res.{chart}")
        alphas = sampling.scale_dimensions(cfg.samples, rng)
        pts = sampling.chart_points(chart, 3, rng)
        # the alpha x point grid, broadcast: every point for each alpha
        alpha = alphas[:, None]
        u = laplace.solve(alpha, pts)
        yield laplace.residual(alpha, pts) / (1.0 + np.abs(u))

    @run.check(
        "rescaled_operator_factor",
        "chart operator equals (r^2 | sin^2 theta | e^{2 rho}) times "
        "the flat Laplacian of the pulled-back function",
        "tol",
        over=charts.ANGULAR_CHARTS,
    )
    def _(chart):
        rng = _rng(cfg, f"lap.scale.{chart}")
        p = sampling.chart_points(chart, 10, rng)
        flat_p = ChartPoint(ChartId.CARTESIAN, *charts.embed(p))
        # three cubics, stacked: each laplacian evaluates all of them
        coeffs = _random_polynomial(rng, 3)

        def flat(x0, x1):
            return _polynomial(coeffs, x0, x1)

        def pulled(y0, y1):
            return flat(*charts.embed_coords(chart, y0, y1))

        lhs = laplace.laplacian(pulled, p)
        rhs = laplace.rescale_factor(p) * laplace.laplacian(flat, flat_p)
        yield np.abs(lhs - rhs) / (1.0 + np.abs(rhs))

    @run.check(
        "chart_consistency",
        "all four charts give the same solution value at the same plane point",
        "tol",
    )
    def _():
        rng = _rng(cfg, "lap.consist")
        p = sampling.chart_points(ChartId.HOLOGRAPHIC, cfg.samples, rng)
        alpha = sampling.scale_dimensions(cfg.samples, rng)
        x0, x1 = charts.embed(p)
        ref = laplace.solve(alpha, p)
        for chart in (ChartId.CARTESIAN, ChartId.POLAR, ChartId.CONFORMAL):
            u = laplace.solve(alpha, charts.invert(chart, x0, x1))
            yield np.abs(u - ref) / (1.0 + np.abs(ref))

    @run.check(
        "harmonic_ratio",
        "degree-l solutions are proportional to the extremal (m = +-l) "
        "spherical harmonics with the closed-form constant",
        "tol",
    )
    def _():
        grid = sampling.chart_points(ChartId.HOLOGRAPHIC, 20, _rng(cfg, "lap.ylm"))
        for l in (1, 2, 3, 4):
            ratio = laplace.ylm_ratio(l, grid)
            expected = (-1) ** l * math.sqrt(
                (2 * l + 1) / (4 * math.pi * math.factorial(2 * l))
            ) * math.prod(range(1, 2 * l, 2))
            yield abs(ratio - expected) / abs(expected)
        neg = laplace.ylm_ratio(1, grid, negative_branch=True)
        yield abs(neg - math.sqrt(3 / (8 * math.pi)))

    @run.check(
        "holomorphy_annihilation",
        "the conjugate derivative (d0 + i d1) kills the solution family",
        "tol",
    )
    def _():
        rng = _rng(cfg, "lap.holo")
        p = sampling.chart_points(ChartId.CARTESIAN, cfg.samples, rng)
        alpha = sampling.scale_dimensions(cfg.samples, rng)
        f = laplace.SolutionFamily(alpha, ChartId.CARTESIAN)
        d = laplace.conjugate_derivative(f, p.y0, p.y1)
        yield np.abs(d) / (1.0 + np.abs(alpha) * np.abs(f(p.y0, p.y1)))

    return run.results


# --- algebra -----------------------------------------------------------------

# the 20 triples of distinct generators, as one index array per bracket slot
_JACOBI_TRIPLES = np.array(list(itertools.combinations(range(len(GENERATORS)), 3))).T


def algebra_checks(cfg: SuiteConfig):
    run = _Runner("algebra", cfg)

    @run.check(
        "bracket_table",
        "all 15 brackets match the table, as written except the "
        "four negated [q, p] entries",
        "tol",
        over=REALIZATIONS,
    )
    def _(r):
        pts = algebra.default_points(r, n=cfg.samples, seed=_seed(cfg, f"alg.bracket.{r}"))
        return _signed(algebra.structure_table(r, points=pts), algebra.EXPECTED_FIELD_SIGNS)

    @run.check(
        "eigenactions",
        "generators scale the solution family and shift its dimension "
        "by -1 (translations) / +1 (special conformal)",
        "tol",
        over=ALL_CHARTS,
    )
    def _(chart):
        rng = _rng(cfg, f"alg.eig.{chart}")
        p = sampling.chart_points(chart, cfg.samples, rng)
        alpha = sampling.scale_dimensions(cfg.samples, rng)
        for acted, expected in algebra.eigenactions(alpha, p):
            yield np.abs(acted - expected) / (1.0 + np.abs(expected))

    @run.check(
        "degree_shift",
        "on monomials u^n the translation lowers and the special "
        "conformal raises the degree, both with coefficient n",
        "tol",
    )
    def _():
        u = sampling.upsilon_points(10, _rng(cfg, "alg.degree"))
        for n in range(9):
            actions = algebra.generator_actions(UPSILON_LINE, lambda u, n=n: u**n, u)
            expected_p = n * u ** (n - 1) if n else 0.0
            yield abs(actions[GENERATORS.index(P0)] - expected_p)
            yield abs(actions[GENERATORS.index(Q0)] - n * u ** (n + 1))

    @run.check("jacobi", "cyclic double brackets cancel", "tol", over=REALIZATIONS)
    def _(r):
        pts = algebra.default_points(r, n=5, seed=_seed(cfg, f"alg.jacobi.points.{r}"))
        gens = algebra.generator_tensors(r, pts, order=2)
        # every triple, bracketed as one stack per slot
        yield np.abs(algebra.jacobiator(*(gens[t] for t in _JACOBI_TRIPLES)))

    @run.check(
        "minkowski_packing",
        "packed rotations satisfy the single relation with metric "
        "diag(1,1,1,-1); every other diagonal sign pattern breaks "
        "a bracket",
        "tol",
        over=REALIZATIONS,
    )
    def _(r):
        n = max(10, cfg.samples // 2)
        pts = algebra.default_points(r, n=n, seed=_seed(cfg, f"alg.minkowski.{r}"))
        res = algebra.minkowski_check(r, points=pts)
        out = _signed(res.ledger, algebra.MINKOWSKI_FIELD_SIGNS)
        if res.metric_forced:
            return out
        return out._replace(
            defect=math.inf, message=f"passing metrics: {res.passing_metrics}"
        )

    @run.check(
        "angular_tensor",
        "the antisymmetric cn/sn multiplier tensor reproduces the packed "
        "rotation coefficients over the common factor u d/du",
        "tol",
    )
    def _():
        u = sampling.upsilon_points(cfg.samples, _rng(cfg, "alg.tensor"))
        pack = algebra.generator_tensors(UPSILON_LINE, u, order=0).combine(algebra.SO31_PACK_MATRIX)
        m = algebra.angular_tensor(u)
        yield np.abs(m + m.swapaxes(0, 1))
        for (a, b), coeff in zip(algebra.SO31_INDEX_PAIRS, pack.v):
            yield np.abs(m[a, b] * u - coeff[0])

    @run.check(
        "paravector_substitution",
        "substituting (1, i) -> (k d_y0, d_phi), k = R/R', in c(u)/u (or (d_x0, d_x1) in c(u) on "
        "cartesian), for each upsilon-line coefficient c, reproduces the chart's generator rows",
        "exact",
        over=ALL_CHARTS,
    )
    def _(chart):
        pts = sampling.chart_points(chart, cfg.samples, _rng(cfg, f"alg.subst.{chart}"))
        yield np.abs(algebra.substituted_rows(chart, pts) - algebra.generator_tensors(chart, pts, order=0).v)

    # one draw shared by the two tangent-curve checks, taken at first use
    curve = functools.cache(lambda: sampling.chart_points(ChartId.HOLOGRAPHIC, 10, _rng(cfg, "alg.curve")))

    @run.check(
        "tangent_curve_derivative",
        "the dilation flow of the solution has derivative "
        "tan(theta) d_theta u, which equals u itself",
        "tol",
    )
    def _():
        u = laplace.solve(1.0, curve())
        actions = algebra.generator_actions(ChartId.HOLOGRAPHIC, laplace.SolutionFamily(1.0, ChartId.HOLOGRAPHIC), curve())
        yield abs(actions[GENERATORS.index(B)] - u)

    @run.check(
        "tangent_curve_order",
        "the flow curve matches the shifted-angle sine to second order "
        "(Richardson ratio 4; defect below 1e-5 at eps = 1e-3)",
        1.0,
        inf_message=RATIO_UNDEFINED,
    )
    def _():
        theta, phi = curve().y0, curve().y1

        def sine_defect(eps):
            approx = np.sin(theta + eps * np.tan(theta)) * (np.cos(phi) + 1j * np.sin(phi))
            return abs(algebra.tangent_curve(eps, curve()) - approx)

        yield _ratio_defect(sine_defect(1e-3), sine_defect(5e-4)) / 0.4
        quarter = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.0)
        yield abs(algebra.tangent_curve(1e-3, quarter) - math.sin(math.pi / 4 + 1e-3)) / 1e-5

    return run.results


# --- projective ---------------------------------------------------------------

def _mobius_draws(n: int, rng: random.Random) -> tuple:
    """n samples of an ordered pair of distinct generator indices (first,
    second, as floats), uniform over the 30 such pairs, then eps_m, eps_n
    and a Mobius argument v."""
    size = len(GENERATORS)
    u0, u1, eps_m, eps_n, re, im = sampling.uniform(
        n, rng, (0, size), (0, size - 1), *[(-0.8, 0.8)] * 2, *[(-1, 1)] * 2
    )
    first, s = np.floor(u0), np.floor(u1)
    return first, np.where(s >= first, s + 1, s), eps_m, eps_n, bc._complex(re, im)


def _exp_per_sample(gens: np.ndarray, eps: np.ndarray) -> projective.SpinMatrix:
    """exp_one_param(GENERATORS[gens[k]], eps[k], COMPLEX) at every sample k,
    as one matrix of entry arrays; each exponential is taken only on the
    samples that picked its generator, gathered and scattered by their
    indices (a boolean mask would scan every sample at each of the 24 writes)."""
    entries = [np.empty(eps.shape, complex) for _ in range(4)]
    for k, g in enumerate(GENERATORS):
        picked = np.flatnonzero(gens == k)
        m = projective.exp_one_param(g, eps[picked], projective.Ring.COMPLEX)
        for out, e in zip(entries, m.entries()):
            out[picked] = e
    return projective.SpinMatrix(projective.Ring.COMPLEX, *entries)


def _kept(keep: np.ndarray, *values) -> tuple:
    """values themselves when keep holds at every sample, else the kept
    samples of each (an array, or a SpinMatrix of entry arrays)."""
    return values if keep.all() else tuple(v[keep] for v in values)


def projective_checks(cfg: SuiteConfig):
    run = _Runner("projective", cfg)

    @run.check(
        "matrix_brackets",
        "spin-matrix commutators match the table with the "
        "documented per-ring signs (bicomplex: all as written)",
        "exact",
        over=(projective.Ring.BICOMPLEX, projective.Ring.REAL, projective.Ring.COMPLEX),
    )
    def _(ring):
        return _signed(projective.matrix_bracket_table(ring), projective.EXPECTED_MATRIX_SIGNS[ring])

    @run.check(
        "real_ledger_negation",
        "the real matrix ledger is the global negation of the "
        "upsilon-line field ledger on the shared subalgebra",
        "exact",
    )
    def _():
        real = projective.matrix_bracket_table(projective.Ring.REAL)
        ups = algebra.structure_table(
            UPSILON_LINE, points=sampling.upsilon_points(cfg.samples, _rng(cfg, "proj.ledger"))
        )
        shared = {key: ups.signs[key] for key in real.signs}
        out = _signed(real, {key: -sign for key, sign in shared.items()})
        return out._replace(ledger={"real": out.ledger, "upsilon-line": shared})

    @run.check(
        "explicit_matrices",
        "complexified and bicomplex generator matrices equal their "
        "frozen closed forms and are trace-free",
        "exact",
    )
    def _():
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
        for m, entries in expected_matrices:
            for got, want in zip(m.entries(), entries):
                yield projective.absval(got - want)
            yield projective.absval(m.trace())

    @run.check(
        "one_parameter_subgroups",
        "exponentials have unit determinant; diagonal flows are the "
        "half-angle phase / hyperbolic pairs, translations terminate at "
        "first order",
        "exact",
    )
    def _():
        eps = np.array([0.3, -0.7, 1e-3])
        for ring in projective.Ring:
            for g in projective.supported_generators(ring):
                yield projective.absval(projective.exp_one_param(g, eps, ring).det() - 1.0)
        eps = 0.37
        m = projective.exp_one_param(S01, eps, projective.Ring.COMPLEX)
        yield from (
            abs(m.a - cmath.exp(1j * eps / 2)),
            abs(m.d - cmath.exp(-1j * eps / 2)),
            abs(m.b),
            abs(m.c),
        )
        mb = projective.exp_one_param(B, eps, projective.Ring.BICOMPLEX)
        want = bc.Bicomplex(math.cosh(eps / 2), 0, 0, math.sinh(eps / 2))
        yield from ((mb.a - want).max_abs(), (mb.d - want.conjugate()).max_abs())
        mp = projective.exp_one_param(P0, eps, projective.Ring.REAL)
        yield from (abs(mp.a - 1), abs(mp.b - eps), abs(mp.c), abs(mp.d - 1))

    @run.check(
        "flow_richardson",
        "matrix flows agree with the field step to second order: halving "
        "eps divides the defect by 4 (translations are exact)",
        0.2,
        inf_message=RATIO_UNDEFINED,
    )
    def _():
        rng = _rng(cfg, "proj.flow")
        exact_floor = 1e-13
        eps = 1e-3
        for g in GENERATORS:
            v0 = sampling.upsilon_points(10, rng, radii=(0.3, 1.2))
            d1 = projective.flow_consistency(g, v0, eps)
            d2 = projective.flow_consistency(g, v0, eps / 2)
            # translation flows are exact; a NaN defect stays in
            inexact = ~((d1 <= exact_floor) & (d2 <= exact_floor))
            yield _ratio_defect(d1[inexact], d2[inexact])

    @run.check(
        "mobius_group_action",
        "applying a product matrix equals applying the factors in turn",
        "tol",
    )
    def _():
        first, second, eps_m, eps_n, v = _mobius_draws(cfg.samples, _rng(cfg, "proj.mobius"))
        m, n = _exp_per_sample(first, eps_m), _exp_per_sample(second, eps_n)
        mn = m @ n
        # skip the samples that sit on a pole of any of the three maps
        m, n, mn, v = _kept(~(projective.on_pole(mn, v) | projective.on_pole(n, v)), m, n, mn, v)
        inner = projective.mobius_apply(n, v)
        m, mn, v, inner = _kept(~projective.on_pole(m, inner), m, mn, v, inner)
        lhs = projective.mobius_apply(mn, v)
        rhs = projective.mobius_apply(m, inner)
        yield np.abs(lhs - rhs) / (1.0 + np.abs(lhs))

    @run.check(
        "sphere_map",
        "|image| = |input|^2, the image is phase-fiber invariant, and it "
        "matches the bicomplex involution projections",
        "exact",
    )
    def _():
        *raw, lam = sampling.uniform(cfg.samples, _rng(cfg, "proj.hopf"), *[(-2, 2)] * 4, (0, 2 * math.pi))
        # skip the samples whose four components all lie near 0
        *raw, lam = _kept(~np.all(np.abs(raw) < 1e-3, axis=0), *raw, lam)
        xi = projective.hopf_raw(*raw)
        nsq = sum(c * c for c in raw)
        # agreement with the bicomplex involution projections
        t = bc.involution_projections(bc.Bicomplex(*raw))
        s = projective.S3Point(*raw)
        onsphere = projective.hopf(s)
        rot = projective.hopf(s.phase_rotated(lam))
        yield from (
            abs(np.sqrt(sum(x * x for x in xi)) - nsq) / (1.0 + nsq),
            abs(t.xi1 - xi[0]),
            abs(t.xi2 - xi[1]),
            abs(t.xi3 - xi[2]),
            abs(t.len_sq - nsq),
            abs(sum(x * x for x in (onsphere.xi1, onsphere.xi2, onsphere.xi3)) - 1.0),
            abs(rot.xi1 - onsphere.xi1),
            abs(rot.xi2 - onsphere.xi2),
            abs(rot.xi3 - onsphere.xi3),
        )

    @run.check(
        "line_charts",
        "affine normalizations exist on the overlap with unit-modulus "
        "transition; one-chart points are reported as such",
        "exact",
    )
    def _():
        re1, im1, re2, im2 = sampling.uniform(cfg.samples, _rng(cfg, "proj.charts"), *[(-2, 2)] * 4)
        v1 = re1 + 1j * im1
        v2 = re2 + 1j * im2
        p = projective.ProjectivePoint(*_kept((np.abs(v1) >= 1e-3) & (np.abs(v2) >= 1e-3), v1, v2))
        tr = projective.chart_transition(p)
        yield abs(np.abs(tr.transition) - 1.0)
        scaled = projective.ProjectivePoint(1.7j * p.v1, 1.7j * p.v2)
        yield np.where(projective.projectively_equal(p, scaled), 0.0, math.inf)
        single = projective.chart_transition(projective.ProjectivePoint(2.0 + 0j, 0j))
        if single.in_overlap or single.affine1 != (1.0 + 0j, 0j):
            yield math.inf

    return run.results


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
    for name in SUITE_NAMES:
        if name not in cfg.suites:
            continue
        report.checks.extend(_SUITES[name](cfg))
    return report
