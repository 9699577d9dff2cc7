"""Structured results of a verification run."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

SUITE_NAMES = ("bicomplex", "charts", "laplace", "algebra", "projective")


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 1
    samples: int = 50
    tol: float = 1e-10
    suites: tuple = SUITE_NAMES

    def __post_init__(self):
        # stored as Python numbers: a numpy scalar would not serialize to JSON
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.suites:
            raise ValueError("no suites selected: an empty run would pass with 0 checks")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "tol", float(self.tol))
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")


@dataclass
class CheckResult:
    suite: str
    name: str
    identity: str
    passed: bool
    max_defect: float | None
    sign_ledger: dict | None = None
    message: str | None = None

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


@dataclass
class VerificationReport:
    config: SuiteConfig
    checks: list = field(default_factory=list)

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
