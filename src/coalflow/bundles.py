"""Verification bundles: named groups of checks the CLI can run.

Each bundle maps a RunConfig to a list of TestReports plus optional extra
artifacts (per-replica CSVs, the counterexample verdict table).  Replica
counts default to the acceptance-scale values of config.REPLICA_DEFAULTS
and shrink with the config's replica scale for CI runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import verify
from .config import RunConfig
from .counterexample import verify_appendix, write_verdict_table
from .flows import (AxiomPlan, ConstantFlow, EvalQuery, FlowElement,
                    analytic_flow_element, check_flow_axioms, cocycle,
                    evaluate, shift, skeleton_flow_element)
from .motions import DiffusionSpec
from .reports import TestReport, exact_report, write_replica_csv
from .rng import RngStream
from .skeleton import SkeletonConfig, build_skeleton, check_sp_properties
from .verify import DriftInjectedSpec


def _controlled(name: str, underlying) -> TestReport:
    """Wrap a negative control: green means the underlying test failed."""
    reports = underlying if isinstance(underlying, list) else [underlying]
    failed = not all(r.passed for r in reports)
    worst = reports[0]
    return TestReport(
        name=name, statistic=worst.statistic, reference=worst.reference,
        mc_std_error=worst.mc_std_error, replicas=worst.replicas,
        passed=failed, expect_failure=True,
        rule="control: the underlying check must fail",
        notes="; ".join(r.notes for r in reports[:2]))


# ---------------------------------------------------------------------------
# shared configurations


def axiom_skeleton_config(model=None, t1: float = 1.2) -> SkeletonConfig:
    """Rows at every grid time (finite stand-in for the dense rational
    skeleton): needed so the strict range stays eps_d-dense at all times."""
    return SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0, t1=t1,
                               dt=1e-3, model=model or DiffusionSpec.arratia())


def cocycle_skeleton_config() -> SkeletonConfig:
    """Wide window so envelope queries over x in [0,1] never climb above the
    top trajectory within the sampled horizon."""
    return SkeletonConfig.rows(window=(-3.0, 4.0), dx=1.0 / 16, t0=0.0,
                               t1=1.75, dt=1e-3,
                               model=DiffusionSpec.arratia(),
                               row_period=0.05)


SHIFT_QUERIES = tuple((0.5, x, t) for t in (0.75, 1.0)
                      for x in (0.15, 0.3, 0.45, 0.6, 0.75))
SHIFT_HS = (0.25, 0.5)


def shift_skeleton_config(model=None) -> SkeletonConfig:
    # row period divides both h values and all query times sit on rows, so
    # the grid maps onto itself under the tested shifts
    return SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 64, t0=0.0,
                               t1=1.5, dt=1e-3,
                               model=model or DiffusionSpec.arratia(),
                               row_period=0.05)


# ---------------------------------------------------------------------------
# cocycle exactness (used by the bundle and by acceptance)


def cocycle_exactness_report(f: FlowElement, rng: RngStream, n: int,
                             x_range=(0.0, 1.0), time_hi: float = 0.8,
                             name: str = "perfect_cocycle") -> TestReport:
    """phi(t+s, f, x) == phi(t, theta_s f, phi(s, f, x)), exact equality on n
    sampled (s, t, x).

    The analytic backend samples dyadic times (so t+s is an exact float sum);
    a skeleton backend samples multiples of its own dt, where index snapping
    makes the lookup exact.
    """
    gen = rng.generator()
    skel = getattr(f.backend, "skeleton", None)
    if skel is not None:
        dt = skel.config.dt
        k_hi = int(time_hi / dt)

        def draw_time():
            return float(skel.times[int(gen.integers(0, k_hi + 1))]
                         - skel.config.t0)
    else:
        grid = 1024

        def draw_time():
            return float(Fraction(int(gen.integers(0, int(time_hi * grid))),
                                  grid))
    viol = 0
    for _ in range(n):
        s = draw_time()
        t = draw_time()
        x = x_range[0] + (x_range[1] - x_range[0]) * \
            float(Fraction(int(gen.integers(0, 4096)), 4096))
        lhs = cocycle(t + s, f, x)
        inner = cocycle(s, f, x)
        rhs = cocycle(t, shift(f, s), inner)
        if lhs != rhs:
            viol += 1
    return exact_report(name, viol, n,
                        notes="zero-tolerance equality on sampled triples")


def shift_group_report(f: FlowElement, rng: RngStream, n: int,
                       name: str = "shift_group_action") -> TestReport:
    """theta_0 = id and theta_h1 theta_h2 = theta_{h1+h2}, exact at sampled
    queries."""
    gen = rng.generator()
    skel = getattr(f.backend, "skeleton", None)
    if skel is not None:
        def draw_span():
            return float(skel.config.dt * int(gen.integers(0, 250)))
    else:
        def draw_span():
            return float(Fraction(int(gen.integers(0, 256)), 1024))
    viol = 0
    for _ in range(n):
        h1 = draw_span()
        h2 = draw_span()
        s = draw_span()
        t = s + draw_span()
        x = 0.25 + 0.5 * float(Fraction(int(gen.integers(0, 1024)), 1024))
        q = EvalQuery(s, x, t)
        f0 = shift(f, 0.0)
        if evaluate(f0, q) != evaluate(f, q):
            viol += 1
        lhs = evaluate(shift(shift(f, h1), h2), q)
        rhs = evaluate(shift(f, h1 + h2), q)
        if lhs != rhs:
            viol += 1
        direct = evaluate(f, EvalQuery(s + h1, x, t + h1))
        if evaluate(shift(f, h1), q) != direct:
            viol += 1
    return exact_report(name, viol, 3 * n)


# ---------------------------------------------------------------------------
# bundles


def bundle_counterexample(cfg: RunConfig, rng: RngStream):
    n = cfg.n_replicas("counterexample")
    corr_n = cfg.n_replicas("counterexample_corr")
    reports = verify_appendix(max(n, 10_000), rng, corr_replicas=corr_n)
    extras = [("counterexample_verdict.txt",
               lambda p, r=reports: write_verdict_table(r, p))]
    return reports, extras


def bundle_axioms(cfg: RunConfig, rng: RngStream):
    n_tuples = cfg.n_replicas("axioms")
    plan = AxiomPlan(n_composition=n_tuples, n_monotone=n_tuples)
    reports = []
    fa = analytic_flow_element()
    for r in check_flow_axioms(fa, rng.child(0), plan):
        r.name = "analytic_" + r.name
        reports.append(r)
    skel = build_skeleton(axiom_skeleton_config(), rng.child(1))
    fs = skeleton_flow_element(skel)
    for r in check_flow_axioms(fs, rng.child(2), plan):
        r.name = "skeleton_" + r.name
        reports.append(r)
    hostile = FlowElement(ConstantFlow())
    host_reports = check_flow_axioms(hostile, rng.child(3),
                                     AxiomPlan(n_composition=200,
                                               n_monotone=200,
                                               n_f4_points=50))
    f4 = next(r for r in host_reports if r.name == "F4_fresh_origin")
    reports.append(_controlled("hostile_constant_flow_fails_F4", f4))
    return reports, []


def bundle_cocycle(cfg: RunConfig, rng: RngStream):
    n = cfg.n_replicas("cocycle")
    reports = [cocycle_exactness_report(analytic_flow_element(), rng.child(0),
                                        n, name="perfect_cocycle_analytic"),
               shift_group_report(analytic_flow_element(), rng.child(1),
                                  max(50, n // 10),
                                  name="shift_group_analytic")]
    n_skel = cfg.n_replicas("cocycle_skeletons")
    ccfg = cocycle_skeleton_config()
    for i in range(n_skel):
        skel = build_skeleton(ccfg, rng.child(2, i))
        f = skeleton_flow_element(skel)
        reports.append(cocycle_exactness_report(
            f, rng.child(3, i), n, name=f"perfect_cocycle_skeleton_{i}"))
    reports.append(shift_group_report(
        skeleton_flow_element(build_skeleton(ccfg, rng.child(4))),
        rng.child(5), 50, name="shift_group_skeleton"))
    return reports, []


def bundle_motion_laws(cfg: RunConfig, rng: RngStream):
    reports = []
    reports.append(verify.test_no_meet_law(
        0.0, 1.0, 1.0, cfg.n_replicas("no_meet"), rng.child(0)))
    reports.append(verify.test_marginal_law(
        DiffusionSpec.arratia(), 0.0, 1.0,
        cfg.n_replicas("marginal"), rng.child(1)))
    reports.append(verify.test_marginal_law(
        DiffusionSpec.ornstein_uhlenbeck(1.0, math.sqrt(2.0)), 1.0, 1.0,
        cfg.n_replicas("marginal"), rng.child(2)))
    reports.append(verify.test_ou_moments(
        1.0, math.sqrt(2.0), 1.0, 1.0,
        cfg.n_replicas("ou_moments"), rng.child(3)))
    reports.append(verify.test_small_time_continuity(
        DiffusionSpec.arratia(), 0.0, 0.75, (0.2, 0.1, 0.05, 0.02),
        cfg.n_replicas("small_time"), rng.child(4)))
    return reports, []


def bundle_meeting_bound(cfg: RunConfig, rng: RngStream):
    n = cfg.n_replicas("meeting_bound")
    reports = [
        verify.test_meeting_bound(DiffusionSpec.arratia(), 0.0, 0.1, -10.0,
                                  10.0, 1.0, n, rng.child(0)),
        verify.test_meeting_bound(
            DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0), 0.0, 0.1, -10.0,
            10.0, 1.0, n, rng.child(1)),
    ]
    return reports, []


def bundle_cluster_count(cfg: RunConfig, rng: RngStream):
    n = cfg.n_replicas("cluster_count")
    report, vals = verify.test_cluster_count(
        DiffusionSpec.arratia(), (0.0, 1.0), 0.0, 1.0, 512, n, rng.child(0))
    oracle = verify.test_cluster_density_oracle(
        512, 0.01, cfg.n_replicas("cluster_density"), rng.child(1))
    extras = [("cluster_counts.csv",
               lambda p, v=vals: write_replica_csv(
                   p, ["replica", "distinct_clusters"],
                   [(i, float(c)) for i, c in enumerate(v)]))]
    return [report, oracle], extras


def bundle_skeleton_sp(cfg: RunConfig, rng: RngStream):
    scfg = axiom_skeleton_config(model=cfg.motion_model(), t1=1.0)
    skel = build_skeleton(scfg, rng.child(0))
    reports = check_sp_properties(skel, rng.child(1))
    return reports, []


def bundle_stopped(cfg: RunConfig, rng: RngStream):
    n = cfg.n_replicas("stopped")
    report = verify.test_stopped_equivalence(
        DiffusionSpec.arratia(), (0.0, 1.0), 1.0, n, rng.child(0))
    return [report], []


def bundle_shift(cfg: RunConfig, rng: RngStream):
    n = cfg.n_replicas("shift")
    scfg = shift_skeleton_config()
    reports = verify.test_shift_invariance(
        scfg, SHIFT_HS, SHIFT_QUERIES, n, rng.child(0))
    return reports, []


def bundle_rng(cfg: RunConfig, rng: RngStream):
    reports = []
    g1 = rng.child(0).generator().random(64)
    g2 = rng.child(0).generator().random(64)
    reports.append(exact_report(
        "rng_determinism", int(np.any(g1 != g2)), 64,
        notes="identical (seed, path) must reproduce identical draws"))
    k, n = 8, cfg.n_replicas("rng_battery")
    draws = np.stack([rng.child(1, i).generator().standard_normal(n)
                      for i in range(k)])
    corr = np.corrcoef(draws)
    off = corr[~np.eye(k, dtype=bool)]
    stat = float(np.max(np.abs(off)))
    bound = 4.5 / math.sqrt(n)
    reports.append(TestReport(
        name="rng_substream_independence", statistic=stat, reference=bound,
        mc_std_error=1.0 / math.sqrt(n), replicas=n,
        passed=bool(stat <= bound),
        rule="max |pairwise correlation| <= 4.5/sqrt(n)",
        notes=f"{k} sibling substreams, {n} draws each"))
    return reports, []


def bundle_negative_controls(cfg: RunConfig, rng: RngStream):
    reports = []
    n = cfg.n_replicas("control_meeting")
    reports.append(_controlled(
        "control_meeting_bound_no_bridge",
        verify.test_meeting_bound(DiffusionSpec.arratia(), 0.0, 0.1, -10.0,
                                  10.0, 1.0, n, rng.child(0),
                                  use_bridge=False)))
    rep, _ = verify.test_cluster_count(
        DiffusionSpec.arratia(), (0.0, 1.0), 0.0, 1.0, 512,
        cfg.n_replicas("control_cluster"), rng.child(1), detection="off")
    reports.append(_controlled("control_cluster_count_detector_off", rep))
    reports.append(_controlled(
        "control_marginal_inflated_sigma",
        verify.test_marginal_law(DiffusionSpec.arratia(), 0.0, 1.0,
                                 cfg.n_replicas("control_marginal"),
                                 rng.child(2), sigma_scale=1.25)))
    reports.append(_controlled(
        "control_small_time_jumps",
        verify.test_small_time_continuity(
            DiffusionSpec.arratia(), 0.0, 0.75, (0.2, 0.1, 0.05, 0.02),
            cfg.n_replicas("control_small_time"), rng.child(3),
            jump_rate=2.0)))
    reports.append(_controlled(
        "control_stopped_nonstopped_oracle",
        verify.test_stopped_equivalence(
            DiffusionSpec.arratia(), (0.0, 1.0), 1.0,
            cfg.n_replicas("control_stopped"), rng.child(4),
            hostile_no_stop=True)))
    hostile_cfg = shift_skeleton_config(
        DriftInjectedSpec(kind="arratia", drift_amp=1.5, drift_period=0.5))
    reports.append(_controlled(
        "control_shift_invariance_drift",
        verify.test_shift_invariance(
            hostile_cfg, (0.25,), SHIFT_QUERIES[:2],
            cfg.n_replicas("control_shift"), rng.child(5))))
    return reports, []


BUNDLES: dict = {
    "counterexample": bundle_counterexample,
    "axioms": bundle_axioms,
    "cocycle": bundle_cocycle,
    "motion-laws": bundle_motion_laws,
    "meeting-bound": bundle_meeting_bound,
    "cluster-count": bundle_cluster_count,
    "skeleton-sp": bundle_skeleton_sp,
    "stopped": bundle_stopped,
    "shift": bundle_shift,
    "rng": bundle_rng,
    "negative-controls": bundle_negative_controls,
}


def run_bundle(name: str, cfg: RunConfig, rng: RngStream):
    return BUNDLES[name](cfg, rng)
