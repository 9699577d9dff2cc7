"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of a plain ``pytest`` collection of the
repository; they start subprocesses and take about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {
    "tiny-cli": workloads.Workload("tiny-cli", "cli", samples=2),
    "tiny-inproc": workloads.Workload("tiny-inproc", "inproc", samples=2),
    "tiny-cli-fail": workloads.Workload("tiny-cli-fail", "cli", samples=2, tol=1e-20),
    "tiny-inproc-fail": workloads.Workload("tiny-inproc-fail", "inproc", samples=2, tol=1e-20),
}


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORTTIME_PROBES", 1)


def bench(capsys, workload, trace=0):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)], table=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload,trace", [("tiny-cli", 0), ("tiny-inproc", 0), ("tiny-cli", 1), ("tiny-inproc", 1)])
def test_every_listed_metric_is_reported_with_its_unit(capsys, workload, trace):
    rc, result, detail = bench(capsys, workload, trace)
    assert rc == 0 and result["correct"] and result["failed"] == 0, detail["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace:
            assert run.unit_of(m["name"]) == m["unit"]
    if not trace:
        assert detail["check_fail_ratio"] == 0 and detail["run_error_ratio"] == 0
        assert detail["run_s.tail"]["samples"] == len(detail["run_s"])


@pytest.mark.parametrize("workload", ["tiny-cli-fail", "tiny-inproc-fail"])
def test_gate_fails_a_run_built_to_fail(capsys, workload):
    rc, result, detail = bench(capsys, workload)
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert detail["run_error_ratio"] == 1.0 and detail["check_fail_ratio"] > 0


@pytest.mark.parametrize("workload", ["tiny-cli", "tiny-inproc"])
def test_traced_half_runs_exactly_the_untraced_seeds(capsys, monkeypatch, workload):
    # an untraced half that ends after one run, while the traced half's own
    # minimum would take it to a second seed that has nothing to compare with
    real_cli_runs, real_worker = run.cli_runs, run.Runner.worker

    def one_cli_run(*args):
        return real_cli_runs(*args)[:1]

    def one_loop_run(self, *args):
        out = real_worker(self, *args)
        if args[0] == "loop" and "--spans" not in args:
            out["runs"] = out["runs"][:1]
        return out

    monkeypatch.setattr(run, "cli_runs", one_cli_run)
    monkeypatch.setattr(run.Runner, "worker", one_loop_run)
    rc, result, detail = bench(capsys, workload, trace=1)
    assert rc == 0 and result["correct"], detail["problems"]
    assert len(detail["untraced_run_s"]) == len(detail["traced_run_s"]) == 1
    assert result["attempted"] == 2


def _passing_report(suites=workloads.ALL_SUITES) -> dict:
    from holoconf import SuiteConfig, run_suite

    return run_suite(SuiteConfig(seed=5, samples=2, suites=suites)).as_dict()


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_gate_checks_overall_status_ledgers_and_presence():
    report = _passing_report()
    assert gate.check_report(json.dumps(report), workloads.ALL_SUITES)[0] == []

    def problems_after(mutate):
        bad = copy.deepcopy(report)
        mutate(bad)
        return gate.check_report(json.dumps(bad), workloads.ALL_SUITES)[0]

    assert problems_after(lambda r: r.update(overall="fail"))
    assert problems_after(lambda r: _check(r, "bracket_table[cartesian]")["sign_ledger"].update({"[q0,p0]": 1}))
    assert problems_after(lambda r: _check(r, "bracket_table[conformal]")["sign_ledger"].update({"[b,p0]": -1}))
    assert problems_after(lambda r: _check(r, "minkowski_packing[holographic]")["sign_ledger"].update({"[s01,s02]": -1}))
    assert problems_after(lambda r: _check(r, "matrix_brackets[bicomplex]")["sign_ledger"].update({"[b,p0]": -1}))
    assert problems_after(lambda r: _check(r, "matrix_brackets[real]")["sign_ledger"].update({"[q0,p0]": -1}))
    assert problems_after(
        lambda r: _check(r, "real_ledger_negation")["sign_ledger"]["upsilon-line"].update({"[q0,p0]": 1})
    )
    assert problems_after(lambda r: r["checks"].remove(_check(r, "bracket_table[upsilon-line]")))
    assert gate.check_report("not json", workloads.ALL_SUITES)[0]


def test_digest_ignores_defects_but_not_order():
    report = _passing_report()
    moved = copy.deepcopy(report)
    for c in moved["checks"]:
        if c["max_defect"] is not None:
            c["max_defect"] *= 2
    assert gate.structure_digest(moved) == gate.structure_digest(report)
    moved["checks"].reverse()
    assert gate.structure_digest(moved) != gate.structure_digest(report)


def test_seed_changes_the_per_run_seeds_and_nothing_else():
    for w in workloads.WORKLOADS.values():
        seeds_a = [workloads.run_seed(1, i) for i in range(20)]
        seeds_b = [workloads.run_seed(2, i) for i in range(20)]
        assert seeds_a == [workloads.run_seed(1, i) for i in range(20)]
        assert len(set(seeds_a)) == 20 and not set(seeds_a) & set(seeds_b)
        for i in range(3):
            a, b = workloads.cli_argv(w, seeds_a[i]), workloads.cli_argv(w, seeds_b[i])
            assert [x for x, y in zip(a, b) if x != y] == [str(seeds_a[i])]
        a, b = run.loop_args(w, 1), run.loop_args(w, 2)
        assert [(x, y) for x, y in zip(a, b) if x != y] == [("1", "2")]
        assert a[a.index("--seed") + 1] == "1"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    t = run.tail([float(i) for i in range(30)])
    assert t == {"value": 19.0, "percentile": 100.0 * 20 / 30, "samples": 30, "beyond": 10}
    assert run.tail([2.0, 1.0])["value"] == 2.0


def test_tracer_patches_names_bound_by_import_and_restores_them():
    import holoconf
    from holoconf import algebra, laplace, suites

    original = laplace.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert algebra.solve is laplace.solve is holoconf.solve
        assert laplace.solve.__wrapped__ is original
        assert suites._SUITES["algebra"] is suites.algebra_checks
        tracer.begin_run()
        holoconf.run_suite(holoconf.SuiteConfig(seed=1, samples=2, suites=("laplace",))).to_json()
        tracer.end_run()
    finally:
        tracer.uninstall()
    assert laplace.solve is original and algebra.solve is original
    metrics = tracing.run_metrics(tracer, 0)
    assert metrics["laplace.solve.calls"] > 0 and metrics["report.bytes"] > 0
    assert metrics["suites.laplace.s"] >= metrics["laplace.solve.self_s"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
