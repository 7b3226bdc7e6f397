"""Two discrete-time flows on [0,1] with identical one-map marginals and
independent increments whose joint laws nevertheless differ.

Both flows live on the unit square with its uniform measure.  The first flow
pipes every point to omega1 at time 1 and keeps it there at time 2; the twin
re-randomizes to omega2 at time 2.  Every single mapping collapses [0,1] to
one uniform point, increments are independent for both, yet psi_{0,2} equals
psi_{0,1} identically while the twin's two maps are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidTimePair
from .reports import TestReport, exact_report, pvalue_report
from .rng import RngStream
from .stats import distance_correlation_test, ks_against_uniform

_TIMES = (0, 1, 2)
# replicas in each distance-correlation independence test
DCOR_SAMPLE = 2000


@dataclass(frozen=True)
class OmegaSquare:
    omega1: float
    omega2: float

    def __post_init__(self):
        if not (0.0 <= self.omega1 <= 1.0 and 0.0 <= self.omega2 <= 1.0):
            raise ValueError("coordinates must lie in [0,1]")

    @staticmethod
    def sample(rng: RngStream) -> "OmegaSquare":
        gen = rng.generator()
        w1, w2 = gen.random(2)
        return OmegaSquare(float(w1), float(w2))


def _check_times(s, t):
    if s not in _TIMES or t not in _TIMES or s > t:
        raise InvalidTimePair(f"(s,t)=({s},{t}) not in the discrete time set")


def psi(s: int, t: int, omega: OmegaSquare, x: float) -> float:
    """First flow: the time-1 point is sticky.

    psi_{1,2}(x) = omega2 except on the graph point x = omega1, which stays
    put; compositions therefore send everything to omega1 at time 2.
    """
    _check_times(s, t)
    if s == t:
        return x
    if (s, t) == (0, 1):
        return omega.omega1
    if (s, t) == (1, 2):
        return omega.omega1 if x == omega.omega1 else omega.omega2
    return omega.omega1  # (0, 2), exact composition


def psi_tilde(s: int, t: int, omega: OmegaSquare, x: float) -> float:
    """Twin flow: no exceptional branch, so time-2 forgets time-1."""
    _check_times(s, t)
    if s == t:
        return x
    if (s, t) == (0, 1):
        return omega.omega1
    if (s, t) == (1, 2):
        return omega.omega2
    return omega.omega2  # (0, 2)


def _map_array(flavor: str, s: int, t: int, w1: np.ndarray, w2: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """Replica-vectorized evaluation of the two flows (same piecewise rules
    as the scalar maps; agreement is spot-checked in verify_appendix)."""
    if s == t:
        return np.broadcast_to(x, w1.shape).astype(float)
    if (s, t) == (0, 1):
        return w1
    if flavor == "psi":
        if (s, t) == (1, 2):
            return np.where(x == w1, w1, w2)
        return w1
    return w2


_TRIPLES = ((0, 0, 1), (0, 1, 2), (0, 0, 2), (1, 1, 2),
            (0, 1, 1), (0, 2, 2), (1, 2, 2), (2, 2, 2))


def verify_appendix(replicas: int, rng: RngStream,
                    corr_replicas: int = 100_000,
                    alpha: float = 0.01) -> list:
    """Reproduce the split verdict: same one-map marginals and independent
    increments for both flows, but psi_{0,2} == psi_{0,1} exactly while the
    twin's endpoints decorrelate."""
    if replicas < 10_000:
        raise ValueError("need at least 1e4 replicas")
    gen = rng.generator()
    w1 = gen.random(replicas)
    w2 = gen.random(replicas)
    reports = []

    # (i) exact composition over every replica, 101 x-points plus the random
    # graph point, all admissible time triples
    viol = 0
    checks = 0
    xs = list(np.linspace(0.0, 1.0, 101))
    probes = [np.full(replicas, x) for x in xs] + [w1]
    for flavor in ("psi", "psi_tilde"):
        for x_arr in probes:
            for (r, s, t) in _TRIPLES:
                inner = _map_array(flavor, r, s, w1, w2, x_arr)
                lhs = _map_array(flavor, s, t, w1, w2, inner)
                rhs = _map_array(flavor, r, t, w1, w2, x_arr)
                viol += int(np.sum(lhs != rhs))
                checks += replicas
    # scalar maps must agree with the vectorized sweep
    agree_checks = 200
    for i in range(agree_checks):
        j = int(gen.integers(0, replicas))
        om = OmegaSquare(float(w1[j]), float(w2[j]))
        x = float(gen.random()) if i % 4 else float(w1[j])
        s, t = ((0, 1), (1, 2), (0, 2), (1, 1))[i % 4]
        if psi(s, t, om, x) != float(
                _map_array("psi", s, t, w1[j:j + 1], w2[j:j + 1],
                           np.array([x]))[0]):
            viol += 1
        if psi_tilde(s, t, om, x) != float(
                _map_array("psi_tilde", s, t, w1[j:j + 1], w2[j:j + 1],
                           np.array([x]))[0]):
            viol += 1
    reports.append(exact_report(
        "composition_identity", viol, checks + 2 * agree_checks,
        notes=(f"psi_st o psi_rs == psi_rt for both flows, {replicas} "
               "replicas x 102 x-points x all time triples, exact floats; "
               "includes scalar/vectorized agreement spot checks")))

    # (ii) every map sends each x to a Uniform[0,1] value
    x_probe = 0.5
    maps = {
        "psi01": w1, "psi12": np.where(x_probe == w1, w1, w2), "psi02": w1,
        "psi01_tilde": w1, "psi12_tilde": w2, "psi02_tilde": w2,
    }
    n_marg = len(maps)
    for name, vals in maps.items():
        stat, p = ks_against_uniform(vals)
        reports.append(pvalue_report(
            f"marginal_uniform_{name}", stat, p, alpha / n_marg, replicas,
            notes=f"KS vs Uniform[0,1] at x={x_probe}, Bonferroni over {n_marg}"))

    # (iii) independence of increments: (psi_{0,1}(x), psi_{1,2}(y))
    sub = min(DCOR_SAMPLE, replicas)
    pairs = [
        ("increments_psi", w1[:sub],
         np.where(0.25 == w1[:sub], w1[:sub], w2[:sub]), 2),
        ("increments_psi_tilde", w1[:sub], w2[:sub], 3),
    ]
    for name, u, v, branch in pairs:
        dcor, p = distance_correlation_test(u, v, rng.child(branch))
        reports.append(pvalue_report(
            f"independence_{name}", dcor, p, alpha, sub,
            notes="distance-correlation permutation test"))

    # (iv) the distinguisher, evaluated through the map definitions
    x_val = 0.3
    exact_equal = 0
    for i in range(replicas):
        om = OmegaSquare(float(w1[i]), float(w2[i]))
        if psi(0, 2, om, x_val) == psi(0, 1, om, x_val):
            exact_equal += 1
    reports.append(TestReport(
        name="distinguisher_psi_identical", statistic=float(exact_equal),
        reference=float(replicas), replicas=replicas,
        passed=bool(exact_equal == replicas),
        rule="psi_{0,2}(x) == psi_{0,1}(x) in every replica, exact",
        notes=f"x={x_val}"))

    gen2 = rng.child(1).generator()
    w1c = gen2.random(corr_replicas)
    w2c = gen2.random(corr_replicas)
    corr = float(np.corrcoef(w1c, w2c)[0, 1])  # (psi~_{0,1}, psi~_{0,2}) at any x
    se = 1.0 / math.sqrt(corr_replicas)
    reports.append(TestReport(
        name="distinguisher_psi_tilde_decorrelated", statistic=abs(corr),
        reference=0.0, mc_std_error=se, replicas=corr_replicas,
        passed=bool(abs(corr) <= 3.0 * se),
        rule="|corr| <= 3*mc_std_error",
        notes="sample correlation of the twin flow's two maps"))
    return reports


def write_verdict_table(reports: list, path) -> Path:
    """Plain-text verdict table mirroring the split conclusion."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["counterexample verdict", "=" * 54]
    for r in reports:
        lines.append(f"{r.name:44s} {'PASS' if r.passed else 'FAIL'}")
    lines.append("=" * 54)
    lines.append("same one-map marginals, independent increments, different joints")
    path.write_text("\n".join(lines) + "\n")
    return path
