"""Acceptance gate: one test per criterion, spec-scale replica counts.

Each test prints a single PASS/FAIL line (run with -s to see them live).
COALFLOW_ACCEPT_SCALE shrinks replica counts for smoke runs; the gate values
are the defaults (scale 1).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from coalflow import verify
from coalflow.bundles import (SHIFT_HS, SHIFT_QUERIES, axiom_skeleton_config,
                              cocycle_exactness_report,
                              cocycle_skeleton_config, shift_skeleton_config)
from coalflow.cli import main as cli_main
from coalflow.counterexample import verify_appendix
from coalflow.flows import (AxiomPlan, ConstantFlow, FlowElement,
                            analytic_flow_element, check_flow_axioms,
                            skeleton_flow_element)
from coalflow.motions import DiffusionSpec, pair_no_meet_probability_exact
from coalflow.rng import RngStream
from coalflow.skeleton import build_skeleton
from coalflow.verify import DriftInjectedSpec

SCALE = float(os.environ.get("COALFLOW_ACCEPT_SCALE", "1.0"))
SEED = 20260810


def n_of(default: int, floor: int = 50) -> int:
    return max(floor, int(round(default * SCALE)))


def report_line(cid: str, ok: bool, detail: str, t0: float):
    line = (f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} "
            f"({time.time() - t0:.1f}s) {detail}")
    print(line, flush=True)
    assert ok, line


def test_c01_perfect_cocycle_exact():
    t0 = time.time()
    n = n_of(1000)
    rng = RngStream(SEED, (1,))
    reports = [cocycle_exactness_report(analytic_flow_element(), rng.child(0),
                                        n, name="analytic")]
    ccfg = cocycle_skeleton_config()
    for i in range(5):
        skel = build_skeleton(ccfg, rng.child(1, i))
        reports.append(cocycle_exactness_report(
            skeleton_flow_element(skel), rng.child(2, i), n,
            name=f"skeleton_{i}"))
    viol = sum(int(r.statistic) for r in reports)
    report_line("C1", viol == 0,
                f"cocycle identity: {viol} violations over "
                f"{sum(r.replicas for r in reports)} sampled (s,t,x) triples "
                "(analytic + 5 skeleton replicas), exact equality", t0)


def test_c02_flow_axioms():
    t0 = time.time()
    n = n_of(10_000)
    rng = RngStream(SEED, (2,))
    plan = AxiomPlan(n_composition=n, n_monotone=n)
    analytic = {r.name: r for r in
                check_flow_axioms(analytic_flow_element(), rng.child(0), plan)}
    skel = build_skeleton(axiom_skeleton_config(), rng.child(1))
    skeleton = {r.name: r for r in
                check_flow_axioms(skeleton_flow_element(skel), rng.child(2),
                                  plan)}
    hostile = {r.name: r for r in
               check_flow_axioms(FlowElement(ConstantFlow()), rng.child(3),
                                 AxiomPlan(n_composition=200, n_monotone=200,
                                           n_f4_points=50))}
    eps_d = 8.0 * skel.config.dx
    ok = (analytic["F1_composition"].passed and analytic["F5_monotone"].passed
          and skeleton["F1_composition"].passed
          and skeleton["F5_monotone"].passed
          and skeleton["F2_range_density"].passed
          and analytic["F2_range_density"].passed
          and not hostile["F4_fresh_origin"].passed)
    report_line("C2", ok,
                f"F1/F5 exact on {n} tuples per flow, F2 within eps_d={eps_d} "
                f"(worst gap {skeleton['F2_range_density'].statistic:.4f}), "
                "hostile constant flow fails F4", t0)


def test_c03_arratia_two_point_law():
    t0 = time.time()
    n = n_of(100_000)
    r = verify.test_no_meet_law(0.0, 1.0, 1.0, n, RngStream(SEED, (3,)),
                                tol=0.01)
    ref = pair_no_meet_probability_exact(0.0, 1.0, 1.0)
    report_line("C3", r.passed,
                f"no-meet frequency {r.statistic:.4f} vs erf(0.5)={ref:.4f} "
                f"within 0.01 at {n} replicas", t0)


def test_c04_meeting_bound():
    t0 = time.time()
    n = n_of(100_000)
    rng = RngStream(SEED, (4,))
    arr = verify.test_meeting_bound(DiffusionSpec.arratia(), 0.0, 0.1,
                                    -10.0, 10.0, 1.0, n, rng.child(0))
    ou = verify.test_meeting_bound(
        DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0), 0.0, 0.1, -10.0, 10.0,
        1.0, n, rng.child(1))
    report_line("C4", arr.passed and ou.passed,
                f"Arratia {arr.statistic:.4f} <= {arr.reference:.4f}+3se; "
                f"OU {ou.statistic:.4f} <= |m(0.1)-m(0)|={ou.reference:.4f}"
                "+3se", t0)


def test_c05_cluster_count_bound():
    t0 = time.time()
    n = n_of(200)
    rep, _ = verify.test_cluster_count(
        DiffusionSpec.arratia(), (0.0, 1.0), 0.0, 1.0, 512, n,
        RngStream(SEED, (5,)))
    report_line("C5", rep.passed,
                f"mean distinct clusters {rep.statistic:.4f} <= "
                f"1+1/sqrt(pi)={rep.reference:.4f}+3se over {n} replicas "
                "(512 starts)", t0)


def test_c06_shift_invariance():
    t0 = time.time()
    n = n_of(2000, floor=200)
    cfg = shift_skeleton_config()
    reports = verify.test_shift_invariance(cfg, SHIFT_HS, SHIFT_QUERIES, n,
                                           RngStream(SEED, (6,)))
    fails = [r.name for r in reports if not r.passed]
    n_ctl = n_of(500, floor=100)
    hostile_cfg = shift_skeleton_config(
        DriftInjectedSpec(kind="arratia", drift_amp=1.5, drift_period=0.5))
    control = verify.test_shift_invariance(
        hostile_cfg, (0.25,), SHIFT_QUERIES[:2], n_ctl,
        RngStream(SEED, (6, 1)))
    control_failed = not all(r.passed for r in control)
    report_line("C6", not fails and control_failed,
                f"{len(reports)} KS/energy tests at Bonferroni alpha=0.01 on "
                f"2x{n} independent skeleton replicas per h in {SHIFT_HS}"
                f"{'; unexpected fails: ' + str(fails) if fails else ''}; "
                f"drift-injected control fails as designed={control_failed}",
                t0)


def test_c07_ou_marginal_moments():
    t0 = time.time()
    n = n_of(100_000)
    r = verify.test_ou_moments(1.0, math.sqrt(2.0), 1.0, 1.0, n,
                               RngStream(SEED, (7,)))
    report_line("C7", r.passed,
                f"OU(1, sqrt2) mean err {r.statistic:.5f} <= 0.01 vs "
                f"e^-1={math.exp(-1):.4f}; var within 0.02 of "
                f"1-e^-2={1 - math.exp(-2):.4f} at {n} replicas", t0)


def test_c08_stopped_equivalence():
    t0 = time.time()
    n = n_of(5000, floor=500)
    r = verify.test_stopped_equivalence(
        DiffusionSpec.arratia(), (0.0, 1.0), 1.0, n, RngStream(SEED, (8,)),
        permutations=199)
    report_line("C8", r.passed,
                f"energy two-sample p={r.mc_std_error:.3f} > 0.01 on {n} vs "
                f"{n} stopped paths", t0)


def test_c09_appendix_counterexample():
    t0 = time.time()
    n = n_of(10_000, floor=10_000)
    corr_n = n_of(100_000)
    reports = {r.name: r for r in
               verify_appendix(n, RngStream(SEED, (9,)),
                               corr_replicas=corr_n)}
    comp = reports["composition_identity"]
    marg_ok = all(r.passed for name, r in reports.items()
                  if name.startswith("marginal_uniform"))
    dist_same = reports["distinguisher_psi_identical"]
    dist_diff = reports["distinguisher_psi_tilde_decorrelated"]
    ok = (comp.passed and marg_ok and dist_same.passed and dist_diff.passed
          and reports["independence_increments_psi"].passed
          and reports["independence_increments_psi_tilde"].passed)
    report_line("C9", ok,
                f"composition exact ({comp.replicas} checks), six uniform "
                f"marginals KS alpha=0.01, psi02==psi01 in {dist_same.replicas} "
                f"replicas, |corr~|={dist_diff.statistic:.4f} < 3se at "
                f"{dist_diff.replicas}", t0)


def test_c10_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "seed": 42,
        "model": {"kind": "arratia"},
        "skeleton": {"window": [0.0, 1.0], "dx": 0.0625, "t0": 0.0,
                     "t1": 0.3, "dt": 1e-3, "row_period": 0.05},
        "bundles": ["counterexample", "rng", "meeting-bound"],
        "scale": 0.2,
    }
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps({**cfg, "out": str(out)}))
        rc = cli_main(["verify", "--config", str(cfg_path)])
        assert rc == 0
        tree = {p.name: p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append((tree, manifest["artifacts"]))
    identical = runs[0][0] == runs[1][0]
    checksums = runs[0][1] == runs[1][1]
    report_line("C10", identical and checksums,
                f"two verify runs produced byte-identical report bundles "
                f"({len(runs[0][0])} files) with matching manifest checksums",
                t0)
