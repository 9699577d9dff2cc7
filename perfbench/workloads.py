"""The benchmark's workloads, the per-run seeds derived from its --seed, and
the reference loop that calibrates its times.

Shared by run.py (which drives the runs) and worker.py (which executes the
in-process ones), so both derive the same seeds and the same calibration.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

ALL_SUITES = ("bicomplex", "charts", "laplace", "algebra", "projective")


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: the next run starts when the previous returns.

    kind "cli" spawns one fresh ``python -m holoconf verify`` per run;
    kind "inproc" calls ``run_suite`` plus ``to_json`` in one worker process
    whose import happens before the timed region.
    """

    name: str
    kind: str
    samples: int
    suites: tuple = ALL_SUITES
    # None keeps holoconf's default tolerance; a tiny value builds a run
    # that must fail the correctness gate
    tol: float | None = None

    @property
    def calibration_slope(self) -> float:
        """Log-log slope of one run's time against the reference loop's."""
        return PROCESS_SLOPE if self.kind == "cli" else 1.0


WORKLOADS = {
    w.name: w
    for w in (
        # how users and the CLI tests run holoconf: import plus the small,
        # fixed-size checks
        Workload("cli-default", "cli", samples=50),
        # the large run: per-point jet and bracket kernels, import excluded
        Workload("verify-large", "inproc", samples=1000),
        # Bicomplex arithmetic, Mobius maps and the one-coefficient
        # upsilon-line structure table, which verify-large barely exercises
        Workload("rings-large", "inproc", samples=10000, suites=("bicomplex", "projective")),
    )
}


# fewest runs a timed loop makes, however short its time
MIN_RUNS = 2


def run_seed(bench_seed: int, i: int) -> int:
    """holoconf --seed of the i-th run of a benchmark run seeded bench_seed."""
    digest = hashlib.sha256(f"perfbench:{bench_seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def cli_argv(w: Workload, seed: int) -> list[str]:
    """Arguments after ``python -m holoconf`` for one CLI run: JSON on stdout."""
    argv = ["verify", "--seed", str(seed), "--samples", str(w.samples), "--format", "json"]
    if tuple(w.suites) != ALL_SUITES:
        for s in w.suites:
            argv += ["--suite", s]
    if w.tol is not None:
        argv += ["--tol", repr(w.tol)]
    return argv


# On a shared machine the speed of a core can drift by a third within tens
# of seconds, and CPU time drifts with it, so raw times of one program are
# not comparable between runs. Each timed interval is therefore bracketed
# by a fixed pure-Python loop in the same process, and its time rescaled to
# the speed at which that loop takes REF_NOMINAL_S. The loop mixes complex
# arithmetic with slotted-object arithmetic like Jet's and Bicomplex's:
# holoconf's run time follows the sum of the two more closely than either.
REF_ITERATIONS = 60_000
REF_NOMINAL_S = 0.03
# A fresh process's time from spawn to exit follows the loop less closely:
# interpreter start-up and imports are file and memory work as much as
# arithmetic. Fitted log-log slopes of raw time against the loop were 0.72
# over 778 cli-default runs and 0.60 to 0.71 over 539 import probes, where
# in-process runs gave 1.00 to 1.03.
PROCESS_SLOPE = 0.7


class _Triple:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c=0.0):
        self.a, self.b, self.c = a, b, c

    def __add__(self, o):
        return _Triple(self.a + o.a, self.b + o.b, self.c + o.c)

    def __mul__(self, o):
        return _Triple(self.a * o.a, self.a * o.b + self.b * o.a, self.a * o.c + 2 * self.b * o.b + self.c * o.a)


def reference_s(iterations: int = REF_ITERATIONS) -> float:
    """Seconds the fixed reference loop takes right now, scaled to
    REF_ITERATIONS when a shorter slice of it is run."""
    t0 = time.perf_counter()
    acc, z = 0.0, 1 + 0.5j
    for i in range(iterations):
        acc += (z * i).real % 7.0
    x, total, last = _Triple(0.5, 1.0), _Triple(0.0, 0.0), {}
    for i in range(iterations // 6):
        total = total + x * _Triple(i * 1e-6, 1.0)
        last[i & 63] = total.a
    return (time.perf_counter() - t0) * REF_ITERATIONS / iterations


def calibrated(raw_s: float, ref_s: float, slope: float = 1.0) -> float:
    """raw_s rescaled to the nominal reference speed, for work whose time
    follows the reference loop's with this log-log slope."""
    return raw_s * (REF_NOMINAL_S / ref_s) ** slope
