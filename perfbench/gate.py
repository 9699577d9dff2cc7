"""Correctness gate applied to every report the benchmark times or traces.

The expected sign ledgers are written out here rather than read from
holoconf, so that a change to holoconf's own expectations still trips the
gate.
"""

from __future__ import annotations

import hashlib
import json

QP = frozenset({"[q0,p0]", "[q0,p1]", "[q1,p0]", "[q1,p1]"})
ALL_PAIRS = frozenset(
    {
        "[b,s01]", "[b,p0]", "[b,p1]", "[b,q0]", "[b,q1]",
        "[s01,p0]", "[s01,p1]", "[s01,q0]", "[s01,q1]",
        "[p0,p1]", "[q0,q1]",
    }
    | QP
)
_PACKED = ("01", "02", "03", "12", "13", "23")
PACKED_PAIRS = frozenset(f"[s{a},s{b}]" for i, a in enumerate(_PACKED) for b in _PACKED[i + 1 :])
# packed rotation brackets that reduce to a [q, p] commutator
PACKED_QP = frozenset({"[s02,s03]", "[s02,s12]", "[s03,s13]", "[s12,s13]"})
REAL_PAIRS = frozenset({"[b,p0]", "[b,q0]", "[q0,p0]"})

# check-name prefix, the ledger's keys, and the keys whose sign is -1
LEDGER_RULES = (
    ("bracket_table[", ALL_PAIRS, QP),
    ("minkowski_packing[", PACKED_PAIRS, PACKED_QP),
    ("matrix_brackets[bicomplex]", ALL_PAIRS, frozenset()),
    ("matrix_brackets[real]", REAL_PAIRS, REAL_PAIRS - QP),
)
# the two halves of real_ledger_negation's ledger
NEGATION_HALVES = {"real": REAL_PAIRS - QP, "upsilon-line": REAL_PAIRS & QP}

# checks that must be present whenever their suite runs
REQUIRED = {
    "algebra": tuple(
        f"{kind}[{r}]"
        for kind in ("bracket_table", "minkowski_packing")
        for r in ("cartesian", "holographic", "conformal", "upsilon-line")
    ),
    "projective": ("matrix_brackets[real]", "matrix_brackets[bicomplex]", "real_ledger_negation"),
}


def _ledger_problems(check: dict) -> list[str]:
    """Sign-ledger expectations; an empty list means the ledger is right."""
    name, ledger = check.get("name", ""), check.get("sign_ledger")
    if name == "real_ledger_negation":
        halves = ledger if isinstance(ledger, dict) else {}
        parts = [
            (f"{name} {half}", halves.get(half), REAL_PAIRS, negated)
            for half, negated in NEGATION_HALVES.items()
        ]
    else:
        parts = [(name, ledger, keys, negated) for prefix, keys, negated in LEDGER_RULES if name.startswith(prefix)]
    return [
        f"{label}: sign ledger {got}"
        for label, got, keys, negated in parts
        if not isinstance(got, dict) or set(got) != keys or {k for k, v in got.items() if v == -1} != negated
    ]


def structure_digest(report: dict) -> str:
    """Hash of check names, order, status and ledgers; max_defect excluded,
    so it is the same for every seed and drifts only when checks change."""
    rows = [
        [c.get("suite"), c.get("name"), c.get("status"), c.get("sign_ledger")]
        for c in report.get("checks", [])
    ]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_report(text: str, suites) -> tuple[list[str], dict]:
    """Gate one JSON report. Returns (problems, info); no problems means pass.

    info holds the check counts and the structure digest when the text parses.
    """
    try:
        report = json.loads(text)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"invalid report: {exc}"], {}
    if not (isinstance(checks, list) and all(isinstance(c, dict) for c in checks)):
        return ["invalid report: checks is not a list of objects"], {}
    failed = [c.get("name") for c in checks if c.get("status") != "pass"]
    info = {"checks": len(checks), "failed_checks": len(failed), "digest": structure_digest(report)}
    problems = []
    if report.get("overall") != "pass":
        problems.append(f"overall {report.get('overall')!r}; failed checks: {failed}")
    names = {c.get("name") for c in checks}
    for suite in suites:
        missing = [n for n in REQUIRED.get(suite, ()) if n not in names]
        if missing:
            problems.append(f"missing checks: {missing}")
    for c in checks:
        problems += _ledger_problems(c)
    return problems, info
