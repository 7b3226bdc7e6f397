"""Verification reports and their deterministic JSON/CSV serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass
class TestReport:
    """Outcome of one verification.

    passed is a pure function of (statistic, reference, mc_std_error) under
    the declared rule; notes record engineering choices (tolerances, grid
    surrogates) that the statistic depends on.
    """

    name: str
    statistic: float
    reference: float
    mc_std_error: float = 0.0
    replicas: int = 0
    passed: bool = False
    rule: str = ""
    notes: str = ""
    expect_failure: bool = False   # negative controls: underlying check must fail

    @property
    def ok(self) -> bool:
        """True when the report counts as green for exit-status purposes."""
        return self.passed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "reference": self.reference,
            "mc_std_error": self.mc_std_error,
            "replicas": self.replicas,
            "pass": self.passed,
            "rule": self.rule,
            "notes": self.notes,
            "expect_failure": self.expect_failure,
        }


def bound_report(name: str, estimate: float, bound: float, se: float,
                 replicas: int, notes: str = "") -> TestReport:
    """Pass rule shared by every bound test: estimate <= bound + 3 se."""
    return TestReport(
        name=name, statistic=estimate, reference=bound, mc_std_error=se,
        replicas=replicas, passed=bool(estimate <= bound + 3.0 * se),
        rule="estimate <= bound + 3*mc_std_error", notes=notes)


def pvalue_report(name: str, stat: float, pvalue: float, alpha: float,
                  replicas: int, notes: str = "") -> TestReport:
    return TestReport(
        name=name, statistic=stat, reference=alpha, mc_std_error=pvalue,
        replicas=replicas, passed=bool(pvalue > alpha),
        rule="p-value > alpha (mc_std_error field carries the p-value)",
        notes=notes)


def exact_report(name: str, violations: int, samples: int,
                 notes: str = "") -> TestReport:
    return TestReport(
        name=name, statistic=float(violations), reference=0.0,
        replicas=samples, passed=violations == 0,
        rule="zero violations, exact comparison", notes=notes)


def write_bundle(path, bundle: str, seed: int, config_hash: str,
                 reports: list) -> Path:
    """Write one report bundle as deterministic JSON (sorted keys, no wall
    clock anywhere)."""
    path = Path(path)
    payload = {
        "bundle": bundle,
        "seed": seed,
        "config_hash": config_hash,
        "n_reports": len(reports),
        "all_pass": all(r.ok for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_replica_csv(path, header: list, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path
