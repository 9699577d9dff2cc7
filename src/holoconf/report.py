"""Structured results of a verification run."""

from __future__ import annotations

import json
import math
import numbers

from ._record import Record

SCHEMA_VERSION = 1

SUITE_NAMES = ("bicomplex", "charts", "laplace", "algebra", "projective")


class SuiteConfig(Record, frozen=True):
    """One run's settings.  suites is kept as a tuple of distinct names in
    the order first given."""

    __slots__ = ("seed", "samples", "tol", "suites")

    def __init__(self, seed: int = 1, samples: int = 50, tol: float = 1e-10, suites: tuple = SUITE_NAMES):
        for name, value in (("samples", samples), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if isinstance(suites, str):
            raise ValueError(f"suites must be a sequence of suite names, not the string {suites!r}")
        try:
            suites = tuple(suites)
        except TypeError:
            raise ValueError(f"suites must be a sequence of suite names, got {suites!r}") from None
        if not suites:
            raise ValueError("no suites selected: an empty run would pass with 0 checks")
        try:
            ok = isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < float(tol) < math.inf
        except OverflowError:  # an int or a fraction beyond float's range
            ok = False
        if not ok:
            raise ValueError(f"tol must be a positive, finite real number, got {tol!r}")
        unknown = [s for s in suites if not isinstance(s, str) or s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        # stored as Python numbers: a numpy scalar would not serialize to JSON
        self._assign(int(seed), int(samples), float(tol), tuple(dict.fromkeys(suites)))


class CheckResult(Record):
    __slots__ = ("suite", "name", "identity", "passed", "max_defect", "sign_ledger", "message")

    def __init__(
        self, suite: str, name: str, identity: str, passed: bool, max_defect: float | None,
        sign_ledger: dict | None = None, message: str | None = None
    ):
        self._assign(suite, name, identity, passed, max_defect, sign_ledger, message)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "identity": self.identity,
            "status": "pass" if self.passed else "fail",
            "max_defect": self.max_defect,
            "sign_ledger": self.sign_ledger,
            "message": self.message,
        }


class VerificationReport(Record):
    __slots__ = ("config", "checks")

    def __init__(self, config: SuiteConfig, checks: list | None = None):
        self._assign(config, [] if checks is None else checks)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "seed": self.config.seed,
                "samples": self.config.samples,
                "tol": self.config.tol,
                "suites": list(self.config.suites),
            },
            "checks": [c.as_dict() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": passed,
                "failed": len(self.checks) - passed,
            },
            "overall": "pass" if self.overall_pass else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, allow_nan=False)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            defect = "n/a" if c.max_defect is None else f"{c.max_defect:.3e}"
            line = f"{status}  {c.suite}.{c.name}  (max defect {defect})"
            if c.message:
                line += f"  -- {c.message}"
            lines.append(line)
        total = len(self.checks)
        passed = sum(1 for c in self.checks if c.passed)
        lines.append(f"{passed}/{total} checks passed")
        lines.append("overall: " + ("pass" if self.overall_pass else "fail"))
        return "\n".join(lines)
