"""Runs holoconf inside one process for the benchmark and prints one JSON object.

Modes:
  loop     closed loop of run_suite + to_json, import outside the timed region
  cli      one traced ``holoconf verify`` through holoconf.cli.main
  kernels  isolated timings of the per-operation kernels

run.py starts it with PYTHONPATH pointing at the checkout's src directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import timeit
import traceback

import tracing
import workloads


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


class SpeedProbe:
    """Reference-loop speed over a timed interval, sampled inside it.

    A run takes seconds and the machine's speed can change within it, so a
    SIGALRM timer interrupts the run every interval and times a short slice
    of the reference loop; ``spent`` is the time those slices took, to be
    subtracted from the interval. Full loops run just before and after.
    """

    SLICE = workloads.REF_ITERATIONS // 10

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s

    def __enter__(self):
        self.refs = [workloads.reference_s()]
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.refs.append(workloads.reference_s(self.SLICE))
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.refs.append(workloads.reference_s())

    @property
    def ref_s(self) -> float:
        return statistics.fmean(self.refs)


def _tracer():
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def loop(args) -> dict:
    from holoconf import SuiteConfig, run_suite

    tracer = _tracer() if args.spans else None
    extra = {} if args.tol is None else {"tol": args.tol}

    def one(seed):
        cfg = SuiteConfig(seed=seed, samples=args.samples, suites=tuple(args.suites.split(",")), **extra)
        t0 = time.perf_counter()
        text = run_suite(cfg).to_json()
        return time.perf_counter() - t0, text

    runs = []
    deadline = time.perf_counter() + (args.seconds or 0.0)

    def more(i):
        if args.runs is not None:
            return i < args.runs
        return i < workloads.MIN_RUNS or time.perf_counter() < deadline

    while more(len(runs)):
        seed = workloads.run_seed(args.seed, len(runs))
        run = {"seed": seed}
        if tracer:
            tracer.begin_run()
        try:
            with SpeedProbe() as probe:
                wall, run["report"] = one(seed)
            run["wall_s"], run["ref_s"] = wall - probe.spent, probe.ref_s
        except Exception:
            run["error"] = traceback.format_exc()
        if tracer:
            tracer.end_run()
            run["layers"] = tracing.run_metrics(tracer, len(tracer.runs) - 1)
        runs.append(run)
    out = {"runs": runs}
    if args.repeat:
        try:
            out["repeat"] = one(runs[0]["seed"])[1]
        except Exception:
            out["repeat_error"] = traceback.format_exc()
    if tracer:
        tracer.uninstall()
        tracer.dump(args.spans)
    return out


def cli(args) -> dict:
    import holoconf.cli

    tracer = _tracer()
    tracer.begin_run()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = holoconf.cli.main(args.argv)
    tracer.end_run()
    tracer.uninstall()
    tracer.dump(args.spans)
    return {"rc": rc, "stdout": buf.getvalue(), "layers": tracing.run_metrics(tracer, 0)}


def _per_op(stmt, ns: dict, number: int, repeat: int = 5) -> float:
    """Median seconds per execution of stmt, calibrated."""
    before = workloads.reference_s()
    times = timeit.Timer(stmt, globals=ns).repeat(repeat=repeat, number=number)
    ref = (before + workloads.reference_s()) / 2
    return workloads.calibrated(statistics.median(times) / number, ref)


def kernels(args) -> dict:
    import random

    from holoconf import algebra, bicomplex, dual, projective
    from holoconf.algebra import P0, Q0, Q1, UPSILON_LINE
    from holoconf.charts import ChartId

    rng = random.Random(workloads.run_seed(args.seed, 0))
    u = lambda: rng.uniform(0.3, 0.9)
    a, b = dual.Jet(u(), u(), u()), dual.Jet(u(), u(), u())
    na = dual.Jet(dual.Jet(u(), u(), u()), dual.Jet(u(), u(), u()), 0.0)
    nb = dual.Jet(dual.Jet(u(), u(), u()), dual.Jet(u(), u(), u()), 0.0)
    x, y = bicomplex.Bicomplex(u(), u(), u(), u()), bicomplex.Bicomplex(u(), u(), u(), u())
    mc = projective.exp_one_param(Q0, u(), projective.Ring.COMPLEX)
    mb = projective.exp_one_param(Q0, u(), projective.Ring.BICOMPLEX)
    vc, vb = complex(u(), u()), bicomplex.Bicomplex(u(), u(), u(), u())
    ns = dict(a=a, b=b, na=na, nb=nb, x=x, y=y, dual=dual, mc=mc, mb=mb, vc=vc, vb=vb, mob=projective.mobius_apply)
    out = {
        "dual.jet_mul_ns": _per_op("a * b", ns, 20000),
        "dual.jet_sin_ns": _per_op("dual.sin(a)", ns, 20000),
        "dual.nested_jet_mul_ns": _per_op("na * nb", ns, 5000),
        "bicomplex.mul_ns": _per_op("x * y", ns, 20000),
        "bicomplex.exp_ns": _per_op("x.exp()", ns, 10000),
        "bicomplex.inverse_ns": _per_op("x.inverse()", ns, 10000),
        "projective.mobius_apply_ns.complex": _per_op("mob(mc, vc)", ns, 20000),
        "projective.mobius_apply_ns.bicomplex": _per_op("mob(mb, vb)", ns, 5000),
    }
    out = {k: v * 1e9 for k, v in out.items()}
    npts = 50
    for r in (ChartId.CARTESIAN, ChartId.POLAR, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL, UPSILON_LINE):
        key = algebra.realization_key(r)
        pts = algebra.default_points(r, n=npts, seed=rng.randrange(1 << 30))
        one = algebra.bracket(algebra.generator(Q0, r), algebra.generator(P0, r))
        two = algebra.bracket(one, algebra.generator(Q1, r))
        ns.update(algebra=algebra, pts=pts, one=one, two=two)
        out[f"algebra.bracket_us_per_point.{key}"] = (
            _per_op("algebra.field_values(one, pts)", ns, 1) / npts * 1e6
        )
        out[f"algebra.nested_bracket_us_per_point.{key}"] = (
            _per_op("algebra.field_values(two, pts)", ns, 1) / npts * 1e6
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("loop")
    p.add_argument("--seed", type=int, required=True, help="benchmark seed; per-run seeds derive from it")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--suites", required=True, help="comma-separated suite names")
    p.add_argument("--tol", type=float, default=None)
    limit = p.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float, help="run until this long has passed, at least MIN_RUNS times")
    limit.add_argument("--runs", type=int, help="run exactly the first RUNS per-run seeds")
    p.add_argument("--repeat", action="store_true", help="rerun the first seed untimed")
    p.add_argument("--spans", default=None, help="trace, and write the spans to this .npz")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("kernels")
    p.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    out = {"loop": loop, "cli": cli, "kernels": kernels}[args.mode](args)
    out["versions"] = _versions()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
