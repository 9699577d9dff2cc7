"""Verification harness: determinism, filtering, report shape, grids, CLI."""

import csv
import functools
import gc
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holoconf import algebra, charts, cli, dual, grids, laplace, projective, sampling, suites
from holoconf import bicomplex as bc
from holoconf.algebra import Q0, Q1
from holoconf.charts import ChartId
from holoconf.grids import emit_grid
from holoconf.report import SUITE_NAMES, SuiteConfig
from holoconf.suites import run_suite

REPORT_GOLDEN = Path(__file__).parent / "data" / "verify_seed7_report.json"
REPORT_1000_GOLDEN = Path(__file__).parent / "data" / "verify_seed7_samples1000_report.json"
RINGS_10000_GOLDEN = Path(__file__).parent / "data" / "rings_seed7_samples10000_report.json"
TABLE_GOLDEN = Path(__file__).parent / "data" / "table_golden.txt"
RINGS_GOLDEN = Path(__file__).parent / "data" / "rings_seed7_golden.json"
GRID_GOLDEN = Path(__file__).parent / "data" / "grids"
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_default_run_passes():
    report = run_suite(SuiteConfig(seed=3, samples=20))
    assert report.overall_pass
    assert {c.suite for c in report.checks} == set(SUITE_NAMES)


def test_suite_filtering():
    report = run_suite(SuiteConfig(seed=3, samples=10, suites=("bicomplex",)))
    assert {c.suite for c in report.checks} == {"bicomplex"}
    assert report.overall_pass


def test_tolerance_below_machine_precision_fails_gracefully():
    report = run_suite(SuiteConfig(seed=3, samples=10, tol=1e-20))
    assert not report.overall_pass
    failed = [c for c in report.checks if not c.passed]
    assert failed
    for c in failed:
        assert c.max_defect is not None  # defect reported, not a crash


def test_reports_are_byte_identical():
    a = run_suite(SuiteConfig(seed=11, samples=15)).to_json()
    b = run_suite(SuiteConfig(seed=11, samples=15)).to_json()
    assert a == b
    # a different seed changes sample points but not the outcome
    c = run_suite(SuiteConfig(seed=12, samples=15))
    assert c.overall_pass


def test_report_shape():
    report = run_suite(SuiteConfig(seed=5, samples=10, suites=("charts",)))
    data = json.loads(report.to_json())
    assert data["schema_version"] == 1
    assert data["overall"] == "pass"
    assert data["summary"]["total"] == len(data["checks"])
    assert data["summary"]["failed"] == 0
    for entry in data["checks"]:
        assert entry["status"] in ("pass", "fail")
        assert "identity" in entry and "max_defect" in entry
    text = report.to_text()
    assert "overall: pass" in text


def test_sign_ledgers_in_report():
    report = run_suite(SuiteConfig(seed=5, samples=10, suites=("algebra",)))
    tables = [c for c in report.checks if c.name.startswith("bracket_table")]
    assert len(tables) == len(algebra.REALIZATIONS)
    for c in tables:
        assert c.sign_ledger["[q0,p0]"] == -1
        assert c.sign_ledger["[b,p0]"] == 1


@pytest.mark.parametrize(
    "cfg, golden",
    [
        (SuiteConfig(seed=7), REPORT_GOLDEN),
        (SuiteConfig(seed=7, samples=1000), REPORT_1000_GOLDEN),
        (SuiteConfig(seed=7, samples=10000, suites=("bicomplex", "projective")), RINGS_10000_GOLDEN),
    ],
)
def test_seed7_report_is_byte_identical_to_golden(cfg, golden):
    # the whole JSON of `holoconf verify --seed 7` (and at --samples 1000, and
    # of the two ring suites at 10000), every max_defect included: a refactor
    # must leave it byte for byte
    assert run_suite(cfg).to_json() == golden.read_text()


def test_rings_seed7_matches_golden():
    # the whole report of `holoconf verify --seed 7 --samples 2000 --suite
    # bicomplex --suite projective --format json`
    cfg = SuiteConfig(seed=7, samples=2000, suites=("bicomplex", "projective"))
    assert json.loads(run_suite(cfg).to_json()) == json.loads(RINGS_GOLDEN.read_text())


def test_rings_pass_for_every_seed():
    # the re-drawn mobius_group_action, and no argument rejection of
    # mobius_apply firing inside the suites
    for seed in range(50):
        report = run_suite(SuiteConfig(seed=seed, samples=20, suites=("bicomplex", "projective")))
        data = json.loads(report.to_json())
        assert data["summary"]["failed"] == 0, [c for c in data["checks"] if c["status"] == "fail"]


@pytest.mark.parametrize("samples", (3, 20))
def test_every_suite_passes_for_every_seed(samples):
    # a re-drawn check (or a draw that replays another check's points) that
    # fails for some seed shows here, not only in a hand-run sweep
    for seed in range(20):
        report = run_suite(SuiteConfig(seed=seed, samples=samples))
        assert report.overall_pass, [(seed, c.name, c.message) for c in report.checks if not c.passed]


def test_worst_skips_empty_arrays():
    assert suites._worst([np.array([])]) == 0.0
    assert suites._worst([np.array([]), np.array([0.5, 0.25]), 0.75]) == 0.75
    assert math.isnan(suites._worst([np.array([]), np.array([1.0, math.nan])]))


def test_nan_defect_fails_the_check(monkeypatch, capsys):
    monkeypatch.setattr(laplace, "laplacian", lambda f, p: math.nan)
    report = run_suite(SuiteConfig(seed=3, samples=10, suites=("laplace",)))
    residuals = [c for c in report.checks if c.name.startswith("solution_residual")]
    assert len(residuals) == 4
    for c in residuals:
        assert not c.passed
        assert c.max_defect is None
        assert c.message == "non-finite defect"
    rc = cli.main(["verify", "--suite", "laplace", "--seed", "3", "--samples", "10"])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "fail"


def test_zero_richardson_denominator_fails_with_message(monkeypatch):
    q0 = algebra.generator(Q0, ChartId.CARTESIAN)
    q1 = algebra.generator(Q1, ChartId.CARTESIAN)

    def first_order_step(x, c):
        # exactly the step the check compares against: zero defect at every eps
        return tuple(
            x[k] - (c[0] * q0.coeffs(*x)[k] + c[1] * q1.coeffs(*x)[k]) for k in (0, 1)
        )

    def sine_curve(eps, p):
        return np.sin(p.y0 + eps * np.tan(p.y0)) * (np.cos(p.y1) + 1j * np.sin(p.y1))

    monkeypatch.setattr(charts, "special_conformal", first_order_step)
    monkeypatch.setattr(algebra, "tangent_curve", sine_curve)
    report = run_suite(SuiteConfig(seed=3, samples=5, suites=("charts", "algebra")))
    checks = {c.name: c for c in report.checks}
    for name in ("special_conformal_infinitesimal", "tangent_curve_order"):
        assert not checks[name].passed
        assert checks[name].max_defect is None
        assert "Richardson ratio undefined" in checks[name].message
    assert checks["tangent_curve_derivative"].passed


def test_exception_in_a_check_fails_only_that_check(monkeypatch, capsys):
    cfg = SuiteConfig(seed=3, samples=10, suites=("bicomplex", "projective"))
    names = [c.name for c in run_suite(cfg).checks]

    def boom(s):
        raise RuntimeError("boom")

    monkeypatch.setattr(bc, "involution_projections", boom)
    report = run_suite(cfg)
    assert [c.name for c in report.checks] == names
    broken = {"projection_structure", "sphere_map"}
    for c in report.checks:
        if c.name in broken:
            assert not c.passed
            assert c.max_defect is None
            assert "RuntimeError: boom" in c.message
        else:
            assert c.passed, c.name
    argv = ["verify", "--suite", "bicomplex", "--suite", "projective", "--seed", "3", "--samples", "10"]
    assert cli.main(argv) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["failed"] == len(broken)


def test_a_check_family_records_one_entry_per_member():
    # the runner calls the body once per member and names each entry
    # name[member]; an exception in one member fails only its entry
    run = suites._Runner("fam-suite", SuiteConfig(seed=3, samples=5))

    @run.check("fam", "one body per member", "exact", over=("a", ChartId.POLAR, "c"))
    def _(m):
        if m is ChartId.POLAR:
            raise ArithmeticError(f"no value at {m}")
        yield 0.0 if m == "a" else 1e-13

    assert [c.name for c in run.results] == ["fam[a]", "fam[polar]", "fam[c]"]
    assert [c.passed for c in run.results] == [True, False, True]
    assert [c.max_defect for c in run.results] == [0.0, None, 1e-13]
    assert run.results[1].message == "ArithmeticError: no value at polar"
    assert run.results[0].message is None and run.results[2].message is None


def _failing_draw(monkeypatch, cfg, label, error):
    """Make sampling.chart_points raise error for the stream labelled label."""
    draw, state = sampling.chart_points, suites._rng(cfg, label).getstate()

    def failing(chart, n, rng):
        if rng.getstate() == state:
            raise error
        return draw(chart, n, rng)

    monkeypatch.setattr(sampling, "chart_points", failing)


def test_a_raising_chart_draw_fails_only_its_charts_entries(monkeypatch, capsys):
    # each chart's draw is taken inside the first check that reads it, so a
    # draw that raises (a --samples too large to allocate, say) fails that
    # chart's five entries rather than escape run_suite
    cfg = SuiteConfig(seed=3, samples=10, suites=("charts",))
    want = run_suite(cfg).as_dict()["checks"]
    _failing_draw(monkeypatch, cfg, "ch.polar", MemoryError("no room for the polar draw"))
    got = run_suite(cfg).as_dict()["checks"]
    assert [c["name"] for c in got] == [c["name"] for c in want]
    failed = [c for c in got if c["status"] != "pass"]
    assert [c["name"] for c in failed] == [c["name"] for c in want if c["name"].endswith("[polar]")]
    assert len(failed) == 5
    for c in failed:
        assert c["message"] == "MemoryError: no room for the polar draw" and c["max_defect"] is None
    assert [c for c in got if c not in failed] == [c for c in want if not c["name"].endswith("[polar]")]
    assert cli.main(["verify", "--suite", "charts", "--seed", "3", "--samples", "10"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 5


def test_a_raising_tangent_curve_draw_fails_only_its_two_checks(monkeypatch):
    cfg = SuiteConfig(seed=3, samples=20, suites=("algebra",))
    want = run_suite(cfg).as_dict()["checks"]
    _failing_draw(monkeypatch, cfg, "alg.curve", MemoryError("no room for the curve"))
    got = run_suite(cfg).as_dict()["checks"]
    curve_checks = ("tangent_curve_derivative", "tangent_curve_order")
    assert [c["name"] for c in got if c["status"] != "pass"] == list(curve_checks)
    for c in got:
        if c["name"] in curve_checks:
            assert c["message"] == "MemoryError: no room for the curve" and c["max_defect"] is None
    assert [c for c in got if c["name"] not in curve_checks] == [c for c in want if c["name"] not in curve_checks]


def _on_mobius_pole(draws):
    # exp(0.5 q0) = [[1, 0], [-0.5, 1]] has its pole at v = 2
    first, second, _, eps_n, v = draws
    first[0], second[0], eps_n[0], v[0] = 0.0, 4.0, 0.5, 2.0
    return draws


def _at_origin(draws):
    for c in draws[:4]:
        c[0] = 0.0
    return draws


def _v1_at_zero(draws):
    draws[0][0] = draws[1][0] = 0.0
    return draws


@pytest.mark.parametrize(
    "check, label, draw, spoil",
    [
        ("mobius_group_action", "proj.mobius", (suites, "_mobius_draws"), _on_mobius_pole),
        ("sphere_map", "proj.hopf", (sampling, "uniform"), _at_origin),
        ("line_charts", "proj.charts", (sampling, "uniform"), _v1_at_zero),
    ],
)
def test_a_skipped_sample_leaves_the_defect_of_the_kept_samples(monkeypatch, check, label, draw, spoil):
    # sample 0 of the check's draw made one that the check skips; seeded draws
    # never take that path.  The entry must pass with the defect of a run on
    # the same draws without sample 0
    cfg = SuiteConfig(seed=5, samples=40, suites=("projective",))
    module, name = draw
    original, state = getattr(module, name), suites._rng(cfg, label).getstate()

    def entry(edit):
        def edited(n, rng, *args):
            if rng.getstate() != state:
                return original(n, rng, *args)
            return tuple(edit(list(original(n, rng, *args))))

        with monkeypatch.context() as m:
            m.setattr(module, name, edited)
            (result,) = [c for c in run_suite(cfg).checks if c.name == check]
        return result

    spoiled, kept = entry(spoil), entry(lambda draws: [d[1:] for d in draws])
    assert spoiled.passed and kept.passed and spoiled.message is None
    assert spoiled.max_defect == kept.max_defect


@pytest.mark.parametrize("realization", algebra.REALIZATIONS, ids=str)
def test_jacobi_checks_every_generator_triple(realization):
    # jacobi[*] reports the largest jacobiator defect over all 20 triples of
    # distinct generators, at the points of its labelled stream
    cfg = SuiteConfig(seed=7, suites=("algebra",))
    pts = algebra.default_points(realization, n=5, seed=suites._seed(cfg, f"alg.jacobi.points.{realization}"))
    gens = algebra.generator_tensors(realization, pts, order=2)
    want = max(
        np.abs(algebra.jacobiator(gens[x], gens[y], gens[z])).max()
        for x, y, z in itertools.combinations(range(6), 3)
    )
    (check,) = [c for c in run_suite(cfg).checks if c.name == f"jacobi[{realization}]"]
    assert check.max_defect == float(want)


def test_each_algebra_check_evaluates_the_tables_to_the_order_it_reads(monkeypatch):
    # the substitution rule and the angular tensor read values only, so they
    # ask for order 0; the bracket checks read gradients, and only jacobi[*]
    # brackets brackets, so only it asks for Hessians.  Each entry's calls
    # are those made before its result is recorded.
    tensors, check_result, orders, pending = algebra.generator_tensors, suites.CheckResult, {}, []

    def spy(realization, points, order=1):
        pending.append(order)
        return tensors(realization, points, order)

    def record(**fields):
        orders[fields["name"]] = pending[:]
        pending.clear()
        return check_result(**fields)

    monkeypatch.setattr(algebra, "generator_tensors", spy)
    monkeypatch.setattr(suites, "CheckResult", record)
    report = run_suite(SuiteConfig(seed=7, suites=("algebra",)))
    assert report.overall_pass
    assert orders["angular_tensor"] == [0]
    for chart in ChartId:
        # substituted_rows' upsilon-line table, then the chart's own table
        assert orders[f"paravector_substitution[{chart}]"] == [0, 0]
    assert {name: o for name, o in orders.items() if 2 in o} == {f"jacobi[{r}]": [2] for r in algebra.REALIZATIONS}


def test_unmatched_bracket_fails_its_check(monkeypatch):
    # [b, p0] = -3 p0 holds with neither sign
    monkeypatch.setitem(algebra.BRACKET_RELATIONS, (algebra.B, algebra.P0), {algebra.P0: -3.0})
    report = run_suite(SuiteConfig(seed=3, samples=5, suites=("algebra",)))
    for c in report.checks:
        if c.name.startswith("bracket_table["):
            assert not c.passed
            assert c.max_defect is None and c.sign_ledger is None
            assert c.message.startswith("UnmatchedBracketError: [b,p0] in ")
        else:
            assert c.passed, c.name


def test_unmatched_packed_bracket_fails_its_check(monkeypatch):
    # doubled rotation operators: [2 s01, 2 s02] is twice the relation's
    # doubled right-hand side, which neither sign matches
    monkeypatch.setattr(algebra, "SO31_PACK_MATRIX", 2 * algebra.SO31_PACK_MATRIX)
    report = run_suite(SuiteConfig(seed=3, samples=5, suites=("algebra",)))
    packed = [c for c in report.checks if c.name.startswith("minkowski_packing[")]
    assert len(packed) == len(algebra.REALIZATIONS)
    for c in packed:
        assert not c.passed
        assert c.max_defect is None and c.sign_ledger is None
        assert c.message.startswith("UnmatchedBracketError: [s01,s02]: defects ")
    # the angular tensor reads the same matrix; every other check passes
    assert [c.name for c in report.checks if not c.passed] == [c.name for c in packed] + ["angular_tensor"]


def test_a_dropped_packed_bracket_fails_its_check(monkeypatch):
    # the ledger is compared with all 15 expected signs, so a ledger that
    # lost a bracket fails rather than pass on the 14 it kept
    check = algebra.minkowski_check

    def dropping(r, points):
        res = check(r, points=points)
        del res.ledger.signs["[s02,s03]"]
        return res

    monkeypatch.setattr(algebra, "minkowski_check", dropping)
    report = run_suite(SuiteConfig(seed=3, samples=5, suites=("algebra",)))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [f"minkowski_packing[{r}]" for r in algebra.REALIZATIONS]
    for c in failed:
        assert c.max_defect is None and c.message == "structural mismatch"
        assert "[s02,s03]" not in c.sign_ledger


def test_a_solution_family_that_ignores_its_branch_fails_harmonic_ratio(monkeypatch):
    # ylm_ratio divides the m = -l harmonic by the conjugate branch of the
    # solution family, so a family that drops conjugate_branch fails the
    # mirror ratio, and no other check reads the branch
    init = laplace.SolutionFamily.__init__

    def branchless(self, alpha, chart, conjugate_branch=False):
        init(self, alpha, chart)

    monkeypatch.setattr(laplace.SolutionFamily, "__init__", branchless)
    report = run_suite(SuiteConfig(seed=7))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["harmonic_ratio"]
    assert failed[0].message.startswith("ArithmeticError: Y ratio not constant")


def test_a_raising_basis_fails_each_check_that_reads_it(monkeypatch):
    # the charts suite computes each chart's basis once for the four checks
    # that read it; a basis that raises is not cached, so it fails all four
    basis = charts.basis
    calls = []

    def failing(p):
        calls.append(p.chart)
        if p.chart is ChartId.HOLOGRAPHIC:
            raise ArithmeticError("no basis here")
        return basis(p)

    monkeypatch.setattr(charts, "basis", failing)
    report = run_suite(SuiteConfig(seed=3, samples=10, suites=("charts",)))
    dependent = ("basis_dual_vs_closed", "metric_closed_form", "jacobian_inverse", "jacobian_mixed_closed")
    failed = [c for c in report.checks if not c.passed]
    # embed_roundtrip[holographic] and every other chart's checks pass
    assert [c.name for c in failed] == [f"{name}[holographic]" for name in dependent]
    for c in failed:
        assert c.message == "ArithmeticError: no basis here" and c.max_defect is None
    assert calls == [ChartId.CARTESIAN, ChartId.POLAR] + [ChartId.HOLOGRAPHIC] * 4 + [ChartId.CONFORMAL]


CLOSED_FORM_CHECKS = ("basis_dual_vs_closed", "metric_closed_form", "jacobian_mixed_closed")


@pytest.mark.parametrize(
    "chart, entry, wrong, fails",
    [
        # R' = sin for R = sin: basis differentiates R, the closed forms read R'
        (ChartId.HOLOGRAPHIC, "derivative", dual.sin, CLOSED_FORM_CHECKS),
        # a wrong R^-1 sends a plane point back elsewhere on its ray
        (ChartId.POLAR, "inverse", lambda r: 1.5 * r, ("embed_roundtrip",)),
        (ChartId.HOLOGRAPHIC, "inverse", np.arctan, ("embed_roundtrip",)),
        (ChartId.CONFORMAL, "inverse", lambda r: np.log(r) + 0.5, ("embed_roundtrip",)),
    ],
    ids=["holographic-derivative-sin", "polar-inverse-1.5r", "holographic-inverse-arctan", "conformal-inverse-log+0.5"],
)
def test_a_wrong_radius_table_entry_fails_its_chart_checks(monkeypatch, chart, entry, wrong, fails):
    # the closed forms and the inverse read the one radius table; a wrong
    # entry there must show in the checks of that chart and no others
    radius = charts._RADII[chart]
    monkeypatch.setitem(charts._RADII, chart, radius._replace(**{entry: wrong}))
    report = run_suite(SuiteConfig(seed=3, samples=10, suites=("charts",)))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [f"{name}[{chart}]" for name in fails]
    for c in failed:
        assert c.max_defect > 1e-3 and c.message is None


@pytest.mark.parametrize("chart", charts.ANGULAR_CHARTS, ids=str)
def test_a_wrong_derivative_entry_fails_its_chart_and_laplace_checks(monkeypatch, chart):
    # R' doubled: the closed forms read R', and laplacian and the
    # substitution rule share k = R/R' (radial_scale), so exactly the chart's
    # three closed-form checks, its two operator checks and its substitution
    # check fail
    radius = charts._RADII[chart]
    monkeypatch.setitem(charts._RADII, chart, radius._replace(derivative=lambda y0: 2 * radius.derivative(y0)))
    report = run_suite(SuiteConfig(seed=3, samples=10, suites=("charts", "laplace", "algebra")))
    failed = [c for c in report.checks if not c.passed]
    fails = (*CLOSED_FORM_CHECKS, "solution_residual", "rescaled_operator_factor", "paravector_substitution")
    assert [c.name for c in failed] == [f"{name}[{chart}]" for name in fails]
    for c in failed:
        assert c.max_defect > 1e-3 and c.message is None


def _negated_entry_failures(monkeypatch, key: str, g, k: int, cfg: SuiteConfig) -> list:
    """The names of the failed checks of cfg's report with entry k of g's
    row in realization key's generator table negated.  The mutant is made
    in the table string, and the table function, which generator() reads
    too, is rebuilt from it."""
    rows = algebra.GENERATOR_TABLE_STRINGS[key]
    with monkeypatch.context() as m:
        m.setitem(rows, g, rows[g][:k] + (f"-({rows[g][k]})",) + rows[g][k + 1 :])
        m.setitem(algebra._TABLE_FUNCTIONS, key, algebra._compile(key))
        return [c.name for c in run_suite(cfg).checks if not c.passed]


def test_every_negated_generator_entry_fails_a_check(monkeypatch):
    # mutation catalogue: each non-zero entry of the generator tables,
    # negated on its own, must fail at least one check of the suites that
    # read the tables; a realization left out of a check family lets its
    # mutants survive
    cfg = SuiteConfig(seed=7, samples=3, suites=("charts", "algebra", "projective"))
    mutants, survivors = 0, []
    for key, rows in algebra.GENERATOR_TABLE_STRINGS.items():
        for g, row in rows.items():
            for k, text in enumerate(row):
                if text == "0":
                    continue
                mutants += 1
                if not _negated_entry_failures(monkeypatch, key, g, k, cfg):
                    survivors.append(f"{key} {g} {k}: {text}")
    assert mutants == 46
    assert survivors == []


ALGEBRA_ONLY = SuiteConfig(seed=7, samples=3, suites=("algebra",))


@pytest.mark.parametrize("g", algebra.GENERATORS, ids=str)
def test_a_negated_upsilon_line_entry_fails_eigenactions_in_every_chart(monkeypatch, g):
    # eigenactions takes its expected values from g's upsilon-line row
    failed = _negated_entry_failures(monkeypatch, algebra.UPSILON_LINE, g, 0, ALGEBRA_ONLY)
    assert {f"eigenactions[{c}]" for c in ChartId} <= set(failed)


CHART_ENTRIES = [
    (chart, g, k)
    for chart in ChartId
    for g, row in algebra.GENERATOR_TABLE_STRINGS[chart.value].items()
    for k, text in enumerate(row)
    if text != "0"
]


@pytest.mark.parametrize("chart, g, k", CHART_ENTRIES, ids=str)
def test_a_negated_chart_entry_fails_paravector_substitution_in_its_chart(monkeypatch, chart, g, k):
    # the substitution rule derives all 24 chart rows (40 non-zero entries)
    # from the upsilon line
    failed = _negated_entry_failures(monkeypatch, chart.value, g, k, ALGEBRA_ONLY)
    assert f"paravector_substitution[{chart}]" in failed


def _constant_mutants():
    """(label, suite, table, key, value) of each mutant table[key] = value
    of the constant tables: a negated non-zero SO31_PACKING entry, spin-matrix
    entry or _REAL_ENTRIES entry."""
    for pair, row in algebra.SO31_PACKING.items():
        for g, c in row.items():
            yield f"SO31_PACKING {pair} {g}", "algebra", algebra.SO31_PACKING, pair, {**row, g: -c}
    for (g, ring), matrix in projective._MATRICES.items():
        entries = matrix.entries()
        for k, e in enumerate(entries):
            if projective.absval(e):
                negated = projective.SpinMatrix(ring, *entries[:k], -1 * e, *entries[k + 1 :])
                yield f"_MATRICES {g} {ring} {k}", "projective", projective._MATRICES, (g, ring), negated
    for g, row in projective._REAL_ENTRIES.items():
        for k, x in enumerate(row):
            if x:
                negated = row[:k] + (-x,) + row[k + 1 :]
                yield f"_REAL_ENTRIES {g} {k}", "projective", projective._REAL_ENTRIES, g, negated


def test_every_mutant_of_the_constant_tables_fails_a_check(monkeypatch):
    # mutation catalogue of the packing and spin-matrix tables: each mutant must fail a check of the suite that reads it
    mutants, survivors = 0, []
    for label, suite, table, key, value in _constant_mutants():
        mutants += 1
        with monkeypatch.context() as m:
            m.setitem(table, key, value)
            # the tables built from a mutated one at import
            pack = [[row.get(g, 0.0) for g in algebra.GENERATORS] for row in algebra.SO31_PACKING.values()]
            m.setattr(algebra, "SO31_PACK_MATRIX", np.array(pack))
            if table is projective._REAL_ENTRIES:
                m.setattr(projective, "_MATRICES", {k: projective._build_matrix(*k) for k in projective._MATRICES})
            if all(c.passed for c in run_suite(SuiteConfig(seed=7, samples=3, suites=(suite,))).checks):
                survivors.append(label)
    assert mutants == 38
    assert survivors == []


def test_nan_commutator_fails_matrix_brackets(monkeypatch):
    # a NaN in the last entry of every real commutator: a NaN-dropping
    # reduction would see only the matching entries and pass
    commutator = projective.commutator

    def nan_commutator(m, n):
        out = commutator(m, n)
        if out.ring is not projective.Ring.REAL:
            return out
        return projective.SpinMatrix(out.ring, out.a, out.b, out.c, math.nan)

    monkeypatch.setattr(projective, "commutator", nan_commutator)
    report = run_suite(SuiteConfig(seed=3, samples=5, suites=("projective",)))
    failed = {c.name: c for c in report.checks if not c.passed}
    assert set(failed) == {"matrix_brackets[real]", "real_ledger_negation"}
    assert failed["matrix_brackets[real]"].message.startswith("UnmatchedBracketError: ")


def test_verify_enters_none_of_the_functions_the_readme_lists(monkeypatch):
    # README's list of what verify never enters: the brackets are tensor
    # contractions, and bracket and field_values remain only as the
    # independent reference the tests compare against
    def never(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"verify entered {name}")

        return raising

    for cls, names in (
        (bc.Bicomplex, ("__truediv__", "__rtruediv__", "__rsub__", "__neg__", "__getitem__", "inverse")),
        (dual.Jet, ("__rsub__", "__rtruediv__")),
        (projective.SpinMatrix, ("__getitem__",)),
        (charts.ChartPoint, ("__getitem__",)),
        (charts.ConformalVector, ("as_array",)),
    ):
        for name in names:
            monkeypatch.setattr(cls, name, never(f"{cls.__name__}.{name}"))
    monkeypatch.setattr(algebra.VectorField, "arity", property(never("VectorField.arity")))
    mobius_apply = projective.mobius_apply

    def complex_ring_only(m, v):
        if m.ring is not projective.Ring.COMPLEX:
            raise AssertionError(f"verify entered the {m.ring.value} ring of mobius_apply")
        return mobius_apply(m, v)

    replacements = {id(mobius_apply): complex_ring_only}
    for module, name in ((algebra, "bracket"), (algebra, "field_values"), (algebra, "act"), (charts, "metric"), (charts, "jacobian_mixed")):
        replacements[id(getattr(module, name))] = never(name)
    # in every module that binds one of them, so that no import reaches the original
    for module in [m for n, m in sys.modules.items() if n == "holoconf" or n.startswith("holoconf.")]:
        for name, value in list(vars(module).items()):
            if id(value) in replacements:
                monkeypatch.setattr(module, name, replacements[id(value)])
    for samples, names in ((50, SUITE_NAMES), (10000, ("bicomplex", "projective"))):
        report = run_suite(SuiteConfig(seed=7, samples=samples, suites=names))
        assert [(c.name, c.message) for c in report.checks if not c.passed] == []


def test_real_ledger_negation_draws_points_from_the_seed(monkeypatch):
    seen = []
    structure_table = algebra.structure_table

    def recording(realization, points=None, **kwargs):
        seen.append(list(points))
        return structure_table(realization, points=points, **kwargs)

    monkeypatch.setattr(algebra, "structure_table", recording)
    for seed in (1, 2):
        assert run_suite(SuiteConfig(seed=seed, samples=5, suites=("projective",))).overall_pass
    assert len(seen) == 2
    assert seen[0] != seen[1]


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, holoconf; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_and_verify_generate_no_code():
    # the record types are plain slotted classes, and only grid writes CSV:
    # neither a fresh import nor a verify run loads dataclasses or csv,
    # unless numpy alone already does on this Python
    code = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "names = [n for n in ('dataclasses', 'csv') if n not in sys.modules]\n"
        "import holoconf\n"
        "loaded = [n for n in names if n in sys.modules]\n"
        "from holoconf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify', '--samples', '5'])\n"
        "print(json.dumps([rc, loaded, [n for n in names if n in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [], []]
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "holoconf"]
    classes = {c for m in modules for c in vars(m).values() if isinstance(c, type)}
    classes = [c for c in classes if c.__module__.split(".")[0] == "holoconf"]
    assert len(classes) > 16 and not [c for c in classes if hasattr(c, "__dataclass_fields__")]


def test_laplace_suite_does_not_load_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from holoconf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify', '--suite', 'laplace', '--samples', '5'])\n"
        "print(rc, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_every_traced_span_is_a_public_function_of_its_module():
    # the benchmark's tracer wraps holoconf's public functions by name; a
    # span whose function was renamed or made private would break its run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    methods = {".".join(m) for m in tracing.METHODS}
    for metric in tracing.SPAN_METRICS:
        span = metric.rsplit(".", 1)[0]
        span = tracing.SPAN_NAMES.get(span, span)
        layer, *path = span.split(".")
        assert layer in tracing.LAYERS, metric
        assert not any(name.startswith("_") for name in path), metric
        module = importlib.import_module(f"holoconf.{layer}")
        fn = functools.reduce(getattr, path, module)
        if span in methods:
            assert inspect.isfunction(fn), metric
        else:
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, metric


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(samples=0)
    with pytest.raises(ValueError):
        SuiteConfig(tol=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(suites=("nope",))
    # an empty selection would report 0 checks and an overall pass
    with pytest.raises(ValueError, match="no suites selected"):
        SuiteConfig(suites=())
    for samples in (2.5, 10.0, "10"):
        with pytest.raises(ValueError, match=f"samples must be an integer, got {samples!r}"):
            SuiteConfig(samples=samples)
    assert SuiteConfig(samples=np.int64(3)).samples == 3
    for seed in (2.5, "7"):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            SuiteConfig(seed=seed)
    # a string is not a sequence of names: its letters are not suites
    with pytest.raises(ValueError, match="not the string 'algebra'"):
        SuiteConfig(suites="algebra")
    for tol in ("1e-10", None, 1e-10j):
        with pytest.raises(ValueError, match=f"tol must be a positive, finite real number, got {tol!r}"):
            SuiteConfig(tol=tol)
    # a number is no sequence of names, and a list is no name
    with pytest.raises(ValueError, match="suites must be a sequence of suite names, got 5"):
        SuiteConfig(suites=5)
    with pytest.raises(ValueError, match=re.escape("unknown suites: [['algebra']]")):
        SuiteConfig(suites=[["algebra"]])
    # finite as an int, but beyond float's range
    with pytest.raises(ValueError, match="tol must be a positive, finite real number"):
        SuiteConfig(tol=10**400)
    # a bool is an int to Python, but no count, seed or tolerance
    for name in ("tol", "samples", "seed"):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be a.*, got {flag!r}$"):
                SuiteConfig(**{name: flag})


def test_config_keeps_distinct_suites_in_first_seen_order():
    cfg = SuiteConfig(suites=["algebra", "bicomplex", "algebra"])
    assert cfg.suites == ("algebra", "bicomplex")
    assert hash(cfg) == hash(SuiteConfig(suites=("algebra", "bicomplex")))
    report = run_suite(SuiteConfig(seed=3, samples=5, suites=("bicomplex", "bicomplex")))
    assert json.loads(report.to_json())["config"]["suites"] == ["bicomplex"]
    assert [c.name for c in report.checks] == [
        c.name for c in run_suite(SuiteConfig(seed=3, samples=5, suites=("bicomplex",))).checks
    ]


def test_config_of_numpy_numbers_reports_as_python_numbers():
    # numpy scalars are stored as int and float, so the report serializes
    # exactly as for the same Python numbers
    suites = ("bicomplex",)
    cfg = SuiteConfig(seed=np.int64(7), samples=np.int32(3), tol=np.float32(1e-10), suites=suites)
    plain = SuiteConfig(seed=7, samples=3, tol=float(np.float32(1e-10)), suites=suites)
    assert type(cfg.seed) is int and type(cfg.samples) is int and type(cfg.tol) is float
    assert run_suite(cfg).to_json() == run_suite(plain).to_json()


def test_emit_grid_joukowski(tmp_path):
    path = tmp_path / "j.csv"
    rows = emit_grid("joukowski", 16, str(path))
    assert rows == 5 * 16
    with open(path) as fh:
        reader = csv.DictReader(fh)
        unit_circle = [r for r in reader if float(r["radius"]) == 1.0]
    # the unit circle maps onto the real segment [-1, 1]
    for r in unit_circle:
        assert abs(float(r["cn_im"])) <= 1e-12
        assert -1.0 - 1e-12 <= float(r["cn_re"]) <= 1.0 + 1e-12


def test_emit_grid_hopf_fibers(tmp_path):
    path = tmp_path / "h.csv"
    emit_grid("hopf-fibers", 12, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    pole = [r for r in rows if float(r["xi3"]) > 0.999 and abs(float(r["xi1"])) < 1e-9]
    assert pole
    for r in pole:
        lam = float(r["lam"])
        # the fiber over the pole is the circle (cos, sin, 0, 0)
        assert float(r["s1"]) == pytest.approx(math.cos(lam), abs=1e-9)
        assert float(r["s2"]) == pytest.approx(math.sin(lam), abs=1e-9)
        assert abs(float(r["s3"])) <= 1e-9
        assert abs(float(r["s4"])) <= 1e-9


def test_emit_grid_conformal_flow(tmp_path):
    path = tmp_path / "c.csv"
    emit_grid("conformal-flow", 9, str(path))
    with open(path) as fh:
        rows = [r for r in csv.DictReader(fh) if r["generator"] == "b"]
    for r in rows:
        u0 = complex(float(r["u0_re"]), float(r["u0_im"]))
        u = complex(float(r["u_re"]), float(r["u_im"]))
        # dilation flow scales radially
        assert u == pytest.approx(math.exp(float(r["eps"])) * u0, abs=1e-10)


@pytest.mark.parametrize("kind", ["joukowski", "hopf-fibers", "conformal-flow"])
def test_emit_grid_matches_golden(kind, tmp_path):
    path = tmp_path / "g.csv"
    emit_grid(kind, 9, str(path))
    assert path.read_text() == (GRID_GOLDEN / f"{kind}.csv").read_text()


def test_emit_grid_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_grid("joukowski", 1, str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        emit_grid("nope", 8, str(tmp_path / "x.csv"))


def test_a_grid_too_large_to_allocate_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the row builder fails as numpy does at a --res it cannot allocate; the
    # rows are built before the file opens, so none is left behind
    def unallocatable(resolution):
        yield ("radius", "phi")
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setitem(grids._ROWS, "joukowski", unallocatable)
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["grid", "--kind", "joukowski", "--res", "10000000000000", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "holoconf: error: --res 10000000000000 is too large to allocate (Unable to allocate 72.8 TiB)"
    )
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, seed_env",
    [
        (["verify", "--samples", "0"], None),
        (["verify", "--tol", "nan"], None),
        (["verify", "--tol", "-1"], None),
        (["verify", "--suite", "bicomplex"], "x"),
        (["grid", "--kind", "joukowski", "--res", "1", "--out", "{tmp}/g.csv"], None),
        (["grid", "--kind", "joukowski", "--res", "4", "--out", "{tmp}/missing/g.csv"], None),
    ],
    ids=["samples-0", "tol-nan", "tol-negative", "seed-env", "grid-res-1", "grid-out-unwritable"],
)
def test_bad_cli_input_is_a_usage_error(argv, seed_env, tmp_path, monkeypatch, capsys):
    if seed_env is None:
        monkeypatch.delenv("HOLOCONF_SEED", raising=False)
    else:
        monkeypatch.setenv("HOLOCONF_SEED", seed_env)
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "holoconf: error:" in err
    assert "Traceback" not in err


def test_cli_table_matches_golden(capsys):
    for r in ("cartesian", "polar", "holographic", "conformal", "upsilon-line"):
        assert cli.main(["table", "--realization", r]) == 0
    assert capsys.readouterr().out == TABLE_GOLDEN.read_text()


def _run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "holoconf", *args],
        capture_output=True,
        env=env,
        text=False,
    )


def test_cli_verify_subset_and_exit_code():
    proc = _run_cli("verify", "--suite", "bicomplex", "--seed", "5", "--samples", "10")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["overall"] == "pass"
    assert all(c["suite"] == "bicomplex" for c in data["checks"])


def test_cli_verify_nonzero_exit_on_failure():
    proc = _run_cli(
        "verify", "--suite", "charts", "--seed", "5", "--samples", "5", "--tol", "1e-30"
    )
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["overall"] == "fail"


def test_verify_without_options_runs_the_default_suite_config(monkeypatch, capsys):
    # the seed, --samples and --tol default to SuiteConfig's own defaults
    monkeypatch.delenv("HOLOCONF_SEED", raising=False)
    assert cli.main(["verify"]) == 0
    default = SuiteConfig()
    assert json.loads(capsys.readouterr().out)["config"] == {
        "seed": default.seed,
        "samples": default.samples,
        "tol": default.tol,
        "suites": list(default.suites),
    }


def test_cli_env_seed_fallback():
    a = _run_cli("verify", "--suite", "bicomplex", "--samples", "5",
                 env_extra={"HOLOCONF_SEED": "99"})
    b = _run_cli("verify", "--suite", "bicomplex", "--samples", "5", "--seed", "99")
    assert a.stdout == b.stdout


def test_cli_table():
    proc = _run_cli("table", "--realization", "holographic")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "tan(theta)" in out
    assert "q1" in out
    proc = _run_cli("table", "--realization", "upsilon-line")
    assert "u^2" in proc.stdout.decode()


def test_cli_grid(tmp_path):
    for kind in ("joukowski", "hopf-fibers", "conformal-flow"):
        out = tmp_path / f"{kind}.csv"
        proc = _run_cli("grid", "--kind", kind, "--res", "9", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == (GRID_GOLDEN / f"{kind}.csv").read_text()


def test_cli_verify_seed7_matches_golden():
    # the whole report as a user sees it: through the process entry, with
    # print's newline after the JSON
    proc = _run_cli("verify", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == REPORT_GOLDEN.read_bytes() + b"\n"


def test_cli_usage_error_exits_2_through_the_entry():
    proc = _run_cli("verify", "--samples", "0")
    assert proc.returncode == 2
    assert b"holoconf: error:" in proc.stderr and b"Traceback" not in proc.stderr


def test_entry_returns_the_status_of_main_and_freezes_the_heap():
    code = (
        "import gc, sys\n"
        "from holoconf import cli\n"
        "seen = []\n"
        "for status in (0, 1, 2, 7):\n"
        "    cli.main = lambda: status\n"
        "    seen.append(cli.entry())\n"
        "print(seen, gc.get_freeze_count() > 0, gc.isenabled())\n"
        "sys.exit(cli.entry())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr
    assert proc.stdout.split("\n") == ["[0, 1, 2, 7] True True", ""]


def test_main_leaves_the_collector_alone(capsys):
    # pytest and the benchmark's traced worker call main in-process: a
    # frozen heap there would keep every later cycle of the process alive
    before = (gc.get_freeze_count(), gc.isenabled())
    assert cli.main(["table", "--realization", "polar"]) == 0
    assert cli.main(["verify", "--suite", "bicomplex", "--samples", "3"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before
    capsys.readouterr()


def test_console_script_is_the_entry():
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)^\[", PYPROJECT.read_text(), re.M | re.S).group(1)
    assert re.findall(r'^(\S+) = "(\S+)"$', scripts, re.M) == [("holoconf", "holoconf.cli:entry")]


@pytest.mark.parametrize("unbuffered", (True, False), ids=("unbuffered", "buffered"))
@pytest.mark.parametrize("sink", ("closed-pipe", "dev-full"))
@pytest.mark.parametrize(
    "argv",
    [("verify",), ("verify", "--format", "text"), ("table", "--realization", "polar")],
    ids=("verify-json", "verify-text", "table"),
)
def test_unwritable_stdout_is_a_usage_error(argv, sink, unbuffered):
    _assert_unwritable_stdout_is_a_usage_error(argv, sink, unbuffered)


@pytest.mark.parametrize("sink", ("closed-pipe", "dev-full"))
def test_unwritable_stdout_after_help_is_a_usage_error(sink):
    # argparse ends main by SystemExit after its help; the entry flushes the
    # buffered help all the same.  Unbuffered, argparse drops its own write
    # error and the process exits 0
    _assert_unwritable_stdout_is_a_usage_error(("--help",), sink, unbuffered=False)


def _assert_unwritable_stdout_is_a_usage_error(argv, sink, unbuffered):
    # a JSON report overflows the 8 KiB stdout buffer and fails in print; the
    # text report and the table fail in the flush after main, or, unbuffered,
    # at their first write.  Neither may wait for the shutdown flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        out = open("/dev/full", "wb")
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = os.fdopen(write_end, "wb")
    with out:
        proc = subprocess.run([sys.executable, "-m", "holoconf", *argv], stdout=out, stderr=subprocess.PIPE, env=env)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("holoconf: error: cannot write to stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
