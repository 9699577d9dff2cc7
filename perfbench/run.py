"""holoconf benchmark: end-to-end verify runs, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/holoconf. Each workload
is a closed loop with one client: the next holoconf run starts when the
previous one returns, so only one holoconf process runs at a time. Per-run
holoconf seeds derive from --seed (workloads.run_seed).

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the workload untraced for half of --seconds, then traced on exactly the
same seeds, and reports per-layer metrics, the tracing overhead,
-X importtime figures and isolated kernel timings.

Every run passes the correctness gate (gate.py); the repeat of a seed, and
the traced run of a seed, must give byte-identical reports. The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it are a readable summary and a JSON detail record. The
exit code is 0 only when every run passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0  # a benchmark run must end within 180 s
SETUP_PROBES = 7
IMPORTTIME_PROBES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import holoconf; t = time.perf_counter() - t\n"
    "import json, sys, numpy, scipy\n"
    "print(json.dumps({'import_s': t, 'versions': {'python': sys.version.split()[0],"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__}}))"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Child:
    wall_s: float
    ref_s: float  # reference loop, mean of just before and just after the child
    rc: int
    maxrss_kb: int
    stdout: str
    stderr: str


class Runner:
    """Starts each child process, waits for it, and keeps the run's deadline."""

    def __init__(self, budget_s: float = BUDGET_S):
        self.deadline = time.perf_counter() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion; wall time spans spawn to exit."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        self.count += 1
        out_path, err_path = OUT / f"child{self.count}.out", OUT / f"child{self.count}.err"
        before = workloads.reference_s()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        ref = (before + workloads.reference_s()) / 2
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() >= self.deadline:
            raise BenchError(f"child exceeded the run's time budget: {argv}")
        text = out_path.read_text()
        errs = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return Child(wall, ref, proc.returncode, usage.ru_maxrss, text, errs)

    def python(self, *args: str) -> Child:
        return self.spawn([sys.executable, *args])

    def worker(self, *args: str) -> dict:
        child = self.python(str(HERE / "worker.py"), *args)
        if child.rc != 0:
            raise BenchError(f"worker {args[0]} exited {child.rc}:\n{child.stderr}")
        out = json.loads(child.stdout)
        out["rss_kb"] = child.maxrss_kb
        return out


# --- set-up -----------------------------------------------------------------

def measure_setup(runner: Runner, probes: int) -> tuple[list[float], list[float], dict]:
    """Seconds for a fresh interpreter to import holoconf, per probe, raw and
    calibrated. One untimed probe first lets the bytecode cache fill."""
    raw, cal, versions = [], [], {}
    for i in range(probes + 1):
        child = runner.python("-c", IMPORT_PROBE)
        if child.rc != 0:
            raise BenchError(f"import holoconf failed:\n{child.stderr}")
        probe = json.loads(child.stdout)
        versions = probe["versions"]
        if i:
            raw.append(probe["import_s"])
            cal.append(workloads.calibrated(probe["import_s"], child.ref_s, workloads.PROCESS_SLOPE))
    return raw, cal, versions


IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def measure_importtime(runner: Runner, probes: int) -> dict:
    """Median self import seconds (calibrated) of scipy, numpy and holoconf modules."""
    per = {"scipy": [], "numpy": [], "holoconf": []}
    for _ in range(probes):
        child = runner.python("-X", "importtime", "-c", "import holoconf")
        if child.rc != 0:
            raise BenchError(f"import holoconf failed:\n{child.stderr}")
        sums = dict.fromkeys(per, 0)
        for line in child.stderr.splitlines():
            m = IMPORTTIME_LINE.match(line)
            if m and m.group(3).split(".")[0] in sums:
                sums[m.group(3).split(".")[0]] += int(m.group(1))
        for k in per:
            per[k].append(workloads.calibrated(sums[k] * 1e-6, child.ref_s, workloads.PROCESS_SLOPE))
    return {
        "setup.scipy_import_s": statistics.median(per["scipy"]),
        "setup.numpy_import_s": statistics.median(per["numpy"]),
        "setup.holoconf_self_import_s": statistics.median(per["holoconf"]),
    }


# --- workload runs -----------------------------------------------------------

def cli_runs(runner: Runner, w: workloads.Workload, seed: int, seconds: float) -> list[dict]:
    """Closed loop of fresh ``python -m holoconf verify`` processes."""
    runs = []
    stop = time.perf_counter() + seconds
    while len(runs) < workloads.MIN_RUNS or time.perf_counter() < stop:
        s = workloads.run_seed(seed, len(runs))
        child = runner.python("-m", "holoconf", *workloads.cli_argv(w, s))
        run = {"seed": s, "wall_s": child.wall_s, "ref_s": child.ref_s, "rss_kb": child.maxrss_kb,
               "report": child.stdout}
        if child.rc != 0:
            run["error"] = f"exit code {child.rc}: {child.stderr[-2000:]}"
        runs.append(run)
    return runs


def loop_args(w: workloads.Workload, seed: int) -> list[str]:
    """Worker loop arguments, without the --seconds or --runs that end the loop."""
    args = ["loop", "--seed", str(seed), "--samples", str(w.samples), "--suites", ",".join(w.suites)]
    if w.tol is not None:
        args += ["--tol", repr(w.tol)]
    return args


def judge(runs: list[dict], suites) -> tuple[int, int, int, list[str], set]:
    """Gate each run. Returns (bad runs, checks, failed checks, problems, digests)."""
    bad = checks = failed = 0
    problems, digests = [], set()
    for run in runs:
        errs = [run["error"]] if "error" in run else []
        if run.get("report") or "error" not in run:
            found, info = gate.check_report(run.get("report", ""), suites)
            errs += found
            checks += info.get("checks", 0)
            failed += info.get("failed_checks", 0)
            if "digest" in info:
                digests.add(info["digest"])
        errs += run.get("extra_problems", [])
        if errs:
            bad += 1
            problems += [f"seed {run['seed']}: {e}" for e in errs]
    return bad, checks, failed, problems, digests


def tail(values: list[float]) -> dict:
    """Highest percentile with at least 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return {"value": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0,
                "note": "fewer than 11 runs: reporting the maximum"}
    return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": 10}


def calibrated_walls(runs: list[dict], w: workloads.Workload) -> list[float]:
    return [workloads.calibrated(r["wall_s"], r["ref_s"], w.calibration_slope) for r in runs if "wall_s" in r]


def end_to_end(runner: Runner, w: workloads.Workload, seed: int, seconds: float) -> dict:
    setup_raw, setup, versions = measure_setup(runner, SETUP_PROBES)
    if w.kind == "cli":
        runs = cli_runs(runner, w, seed, seconds)
        first = runs[0]
        again = runner.python("-m", "holoconf", *workloads.cli_argv(w, first["seed"]))
        repeat = {"seed": first["seed"], "report": again.stdout}
        if again.rc != 0:
            repeat["error"] = f"exit code {again.rc}: {again.stderr[-2000:]}"
        rss_kb = max(r["rss_kb"] for r in runs)
    else:
        out = runner.worker(*loop_args(w, seed), "--seconds", repr(seconds), "--repeat")
        runs = out["runs"]
        repeat = {"seed": runs[0]["seed"], "report": out.get("repeat", "")}
        if "repeat_error" in out:
            repeat["error"] = out["repeat_error"]
        rss_kb = out["rss_kb"]
    if repeat.get("report") != runs[0].get("report"):
        repeat["extra_problems"] = ["repeat of the seed is not byte-identical"]
    all_runs = runs + [repeat]
    bad, checks, failed, problems, digests = judge(all_runs, w.suites)
    if len(digests) > 1:
        problems.append(f"structure digest differs between seeds: {sorted(digests)}")
        bad = max(bad, 1)
    walls = [r["wall_s"] for r in runs if "wall_s" in r]
    cal = calibrated_walls(runs, w)
    if not walls:
        raise BenchError("no run completed:\n" + "\n".join(problems))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s.p50": (statistics.median(cal), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }
    return {
        "attempted": len(all_runs),
        "failed": bad,
        "problems": problems,
        "metrics": metrics,
        "detail": {
            "run_s.tail": tail(cal),
            "raw.run_s.p50": statistics.median(walls),
            "raw.run_s.tail": tail(walls),
            "raw.setup_s": statistics.median(setup_raw),
            "check_fail_ratio": failed / checks if checks else 1.0,
            "check_fail_base": {"failed": failed, "checks": checks},
            "run_error_ratio": bad / len(all_runs),
            "run_error_base": {"bad": bad, "attempted": len(all_runs)},
            "digest": sorted(digests),
            "run_s": cal,
            "raw.run_s": walls,
            "ref_s": [r["ref_s"] for r in runs if "ref_s" in r],
            "setup_s": setup,
            "raw.setup_s_probes": setup_raw,
            "versions": versions,
        },
    }


def traced(runner: Runner, w: workloads.Workload, seed: int, seconds: float) -> dict:
    half = seconds / 2.0
    layer_setup = measure_importtime(runner, IMPORTTIME_PROBES)
    if w.kind == "cli":
        plain = cli_runs(runner, w, seed, half)
        traced_runs = []
        for base in plain:
            spans = OUT / f"spans-{w.name}-{len(traced_runs)}.npz"
            child = runner.python(str(HERE / "worker.py"), "cli", "--spans", str(spans), "--",
                                  *workloads.cli_argv(w, base["seed"]))
            run = {"seed": base["seed"], "wall_s": child.wall_s, "ref_s": child.ref_s}
            if child.rc != 0:
                run["error"] = f"traced worker exited {child.rc}: {child.stderr[-2000:]}"
            else:
                out = json.loads(child.stdout)
                run.update(report=out["stdout"], layers=out["layers"])
                if out["rc"] != 0:
                    run["error"] = f"holoconf verify returned {out['rc']}"
            traced_runs.append(run)
    else:
        plain = runner.worker(*loop_args(w, seed), "--seconds", repr(half))["runs"]
        spans = OUT / f"spans-{w.name}.npz"
        # exactly the untraced seeds, however fast the traced loop runs
        traced_runs = runner.worker(*loop_args(w, seed), "--runs", str(len(plain)), "--spans", str(spans))["runs"]
    by_seed = {r["seed"]: r.get("report") for r in plain}
    for run in traced_runs:
        if run["seed"] not in by_seed:
            run["extra_problems"] = ["traced run has no untraced run to compare with"]
        elif run.get("report") != by_seed[run["seed"]]:
            run["extra_problems"] = ["traced report differs from the untraced report"]
    kernels = runner.worker("kernels", "--seed", str(seed))
    versions = kernels.pop("versions")
    for key in ("maxrss_kb", "rss_kb"):
        del kernels[key]
    all_runs = plain + traced_runs
    bad, checks, failed, problems, _ = judge(all_runs, w.suites)
    plain_walls, traced_walls = calibrated_walls(plain, w), calibrated_walls(traced_runs, w)
    layered = [
        {k: workloads.calibrated(v, r["ref_s"]) if unit_of(k) == "s" else v for k, v in r["layers"].items()}
        for r in traced_runs
        if "layers" in r
    ]
    if not (plain_walls and traced_walls and layered):
        raise BenchError("no traced run completed:\n" + "\n".join(problems))
    per_layer = {k: statistics.median(x[k] for x in layered) for k in layered[0]}
    per_layer["suites.checks"] = checks / len(all_runs)
    per_layer["suites.checks_failed"] = failed / len(all_runs)
    per_layer["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    per_layer.update(layer_setup)
    per_layer.update(kernels)
    return {
        "attempted": len(all_runs),
        "failed": bad,
        "problems": problems,
        "metrics": {k: (v, unit_of(k)) for k, v in per_layer.items()},
        "detail": {
            "per_layer": per_layer,
            "untraced_run_s": plain_walls,
            "traced_run_s": traced_walls,
            "versions": versions,
        },
    }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ns") or "_ns." in metric:
        return "ns"
    if "_us_per_point" in metric:
        return "us"
    if metric == "trace.overhead":
        return "ratio"
    if metric == "report.bytes":
        return "bytes"
    return "count"


# --- environment and output ------------------------------------------------------

def environment() -> dict:
    env = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, val = line.partition(":")
            if key.strip() in ("model name", "cache size"):
                env.setdefault(key.strip(), val.strip())
    env["note"] = (
        f"wall-clock times on a shared machine with {env['nproc']} CPUs, calibrated against "
        "a reference loop (raw.* are uncalibrated); no system-wide tracing, only the "
        "benchmark's own processes are measured"
    )
    return env


def contract_metrics(trace: int) -> dict:
    """Metric name -> unit that BENCHMARK.json lists for this mode; the last
    output line carries exactly these, the detail record carries the rest."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None, table=workloads.WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "holoconf" / "__init__.py").is_file():
        print(f"holoconf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = table[args.workload]
    listed = contract_metrics(args.trace)
    OUT.mkdir(exist_ok=True)
    # one CPU for the benchmark and every child it starts, so that the
    # reference loop and the work it calibrates share a core
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        run = (traced if args.trace else end_to_end)(Runner(), w, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.sched_setaffinity(0, cpus)
    wrong = sorted(k for k, unit in listed.items() if run["metrics"].get(k, (0, None))[1] != unit)
    if wrong:
        print(f"benchmark error: metrics not measured in their listed unit: {wrong}", file=sys.stderr)
        return 1
    correct = run["failed"] == 0
    for name, (value, unit) in run["metrics"].items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for name, value in run["detail"].items():
        if name.endswith("_ratio") or (name.startswith("raw.") and isinstance(value, float)):
            print(f"{name:<44} {value:>14.6g} {'ratio' if name.endswith('_ratio') else 's'}")
    if "run_s.tail" in run["detail"]:
        t = run["detail"]["run_s.tail"]
        print(f"{'run_s.tail':<44} {t['value']:>14.6g} s  (p{t['percentile']:.1f} of {t['samples']} runs)")
    for digest in run["detail"].get("digest", []):
        print(f"{'structure digest':<44} {digest:>14}")
    for p in run["problems"]:
        print(f"GATE: {p}")
    detail = dict(run["detail"], workload=w.name, seed=args.seed, trace=args.trace,
                  environment=environment(), problems=run["problems"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": run["metrics"][k][0], "unit": unit} for k, unit in listed.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
