"""Statistical verification battery.

Ties the samplers back to the quantitative claims: the local meeting-time
bound, the cluster-count bound, shift invariance of the skeleton-envelope
law, closed-form marginals, small-time continuity and the stopped-process
equivalence.  Every bound test passes by "estimate <= bound + 3 mc std
errors"; every distribution test runs at a pre-registered alpha with
Bonferroni correction inside its bundle.  Each test has a deliberately
broken fixture it must fail on; those live in the negative-control bundle
with expect_failure set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels
from .errors import NoAnalyticLaw
from .flows import EvalQuery, evaluate, shift, skeleton_flow_element
from .motions import (DiffusionSpec, Draws, meeting_bound_reference,
                      pair_no_meet_probability_exact, step_system)
from .reports import TestReport, bound_report, pvalue_report
from .rng import RngStream
from .skeleton import SkeletonConfig, build_skeleton, cluster_count_bound
from .stats import energy_two_sample, ks_against_normal, ks_two_sample

# replicas per lockstep skeleton build in shift_invariance_samples
SHIFT_BLOCK = 32


# ---------------------------------------------------------------------------
# closed-form references


def ou_moments(spec: DiffusionSpec, x: float, t: float):
    """Exact OU transition moments (mean, variance)."""
    lam, sig = spec.rate, spec.sigma
    mean = x * math.exp(-lam * t)
    var = sig * sig * (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
    return mean, var


def analytic_marginal(spec: DiffusionSpec, x: float, t: float):
    """(mean, sd) of the one-point motion at t; NoAnalyticLaw for generic."""
    if spec.kind == "arratia":
        return float(x), math.sqrt(t)
    if spec.kind == "ou":
        mean, var = ou_moments(spec, x, t)
        return mean, math.sqrt(var)
    raise NoAnalyticLaw(f"no closed-form marginal for kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# TP5 / meeting bound


def test_meeting_bound(spec: DiffusionSpec, x: float, y: float, c: float,
                       cp: float, t: float, replicas: int, rng: RngStream,
                       dt: float = 1e-3, use_bridge: bool = True) -> TestReport:
    """P(stay in [c,c']^2 on [0,t] and never meet) <= scale bound."""
    est, se, _ = kernels.pair_event_probability(
        spec, x, y, t, dt, replicas, rng, box=(c, cp), use_bridge=use_bridge)
    bound = meeting_bound_reference(spec, x, y, (c, cp), t) if y > x else 0.0
    notes = f"x={x}, y={y}, window=[{c},{cp}], t={t}, dt={dt}"
    if not use_bridge:
        notes += "; bridge detection disabled (hostile fixture)"
    return bound_report(f"meeting_bound_{spec.kind}", est, bound, se,
                        replicas, notes=notes)


# ---------------------------------------------------------------------------
# SP4 averaged cluster count


def test_cluster_count(model: DiffusionSpec, interval, s: float, t: float,
                       n_starts: int, replicas: int, rng: RngStream,
                       dt: float = 1e-3, box=(-10.0, 10.0),
                       detection: str = "bridge"):
    """Mean number of distinct endpoint values among coalescing paths started
    across the interval, against 1 + m(b) - m(a).  Returns (report, counts)."""
    a, b = interval
    duration = t - s
    starts = a + (b - a) * (np.arange(n_starts) + 0.5) / n_starts
    counts, inbox = kernels.cluster_count_sample(
        model, starts, duration, dt, replicas, rng, box=box,
        detection=detection)
    vals = counts.astype(float) * inbox
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    bound = cluster_count_bound(model, a, b, duration, box)
    notes = (f"{n_starts} starts in ({a},{b}), duration {duration}, dt={dt}, "
             f"box={box}")
    if detection != "bridge":
        notes += f"; detection={detection} (hostile fixture)"
    return bound_report("cluster_count_sp4", est, bound, se, replicas,
                        notes=notes), vals


def test_cluster_density_oracle(n_starts: int, duration: float,
                                replicas: int, rng: RngStream,
                                dt: float = 1e-3) -> TestReport:
    """Dual route: mean distinct count from a dense unit row vs the exact
    pairwise-survival oracle 1 + (n-1) erf(dx / (2 sqrt(t))) (which tends to
    the 1/sqrt(pi t) web density per unit length)."""
    spec = DiffusionSpec.arratia()
    dx = 1.0 / n_starts
    starts = (np.arange(n_starts) + 0.5) * dx
    counts, _ = kernels.cluster_count_sample(spec, starts, duration, dt,
                                             replicas, rng)
    est = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(replicas))
    oracle = 1.0 + (n_starts - 1) * pair_no_meet_probability_exact(
        0.0, dx, duration)
    return TestReport(
        name="cluster_density_oracle", statistic=est, reference=oracle,
        mc_std_error=se, replicas=replicas,
        passed=bool(abs(est - oracle) <= 3.0 * se),
        rule="|estimate - oracle| <= 3*mc_std_error",
        notes=(f"{n_starts} starts, duration {duration}; web density "
               f"heuristic {1.0 / math.sqrt(math.pi * duration):.4f}/unit"))


# ---------------------------------------------------------------------------
# two-point law (no-meet frequency vs reflection formula)


def test_no_meet_law(x: float, y: float, t: float, replicas: int,
                     rng: RngStream, dt: float = 1e-3,
                     tol: float = 0.01) -> TestReport:
    est, se, _ = kernels.pair_event_probability(
        DiffusionSpec.arratia(), x, y, t, dt, replicas, rng)
    ref = pair_no_meet_probability_exact(x, y, t)
    return TestReport(
        name="arratia_no_meet_erf", statistic=est, reference=ref,
        mc_std_error=se, replicas=replicas,
        passed=bool(abs(est - ref) <= tol),
        rule=f"|estimate - erf((y-x)/(2 sqrt(t)))| <= {tol}",
        notes=f"(x,y,t)=({x},{y},{t}), dt={dt}")


# ---------------------------------------------------------------------------
# marginal laws


def test_marginal_law(spec: DiffusionSpec, x: float, t: float, replicas: int,
                      rng: RngStream, dt: float = 1e-3, alpha: float = 0.01,
                      sigma_scale: float = 1.0) -> TestReport:
    """KS of the simulated one-point endpoint against the closed-form law."""
    try:
        mean, sd = analytic_marginal(spec, x, t)
    except NoAnalyticLaw:
        return TestReport(
            name=f"marginal_law_{spec.kind}", statistic=float("nan"),
            reference=alpha, replicas=0, passed=True,
            rule="skipped", notes="no analytic marginal for generic specs; "
            "test skipped and reported")
    sample = kernels.endpoint_sample(spec, x, t, dt, replicas, rng,
                                     sigma_scale=sigma_scale)
    if t == 0.0:
        exact = bool(np.all(sample == x))
        return TestReport(
            name=f"marginal_law_{spec.kind}", statistic=0.0, reference=0.0,
            replicas=replicas, passed=exact,
            rule="degenerate law at x, exact", notes="t=0")
    stat, p = ks_against_normal(sample, mean, sd)
    notes = f"x={x}, t={t}, dt={dt}, mean={mean:.6f}, sd={sd:.6f}"
    if sigma_scale != 1.0:
        notes += f"; sigma inflated x{sigma_scale} (hostile fixture)"
    return pvalue_report(f"marginal_law_{spec.kind}", stat, p, alpha,
                         replicas, notes=notes)


def test_ou_moments(rate: float, sigma: float, x: float, t: float,
                    replicas: int, rng: RngStream, dt: float = 1e-3,
                    mean_tol: float = 0.01, var_tol: float = 0.02) -> TestReport:
    """Simulated OU mean/variance against the exact transition moments."""
    spec = DiffusionSpec.ornstein_uhlenbeck(rate, sigma)
    sample = kernels.endpoint_sample(spec, x, t, dt, replicas, rng)
    mean_ref, var_ref = ou_moments(spec, x, t)
    mean_err = abs(float(sample.mean()) - mean_ref)
    var_err = abs(float(sample.var(ddof=1)) - var_ref)
    ok = mean_err <= mean_tol and var_err <= var_tol
    return TestReport(
        name="ou_transition_moments", statistic=mean_err, reference=mean_tol,
        mc_std_error=float(sample.std(ddof=1) / math.sqrt(replicas)),
        replicas=replicas, passed=bool(ok),
        rule=f"|mean err| <= {mean_tol} and |var err| <= {var_tol}",
        notes=(f"lambda={rate}, sigma={sigma}, x={x}, t={t}; "
               f"mean err {mean_err:.5f}, var err {var_err:.5f}"))


# ---------------------------------------------------------------------------
# small-time continuity (refined TP4 rate)


def test_small_time_continuity(spec: DiffusionSpec, u: float, eps: float,
                               t_ladder: Sequence[float], replicas: int,
                               rng: RngStream, dt: float = 1e-3,
                               threshold: float = 0.01,
                               jump_rate: float = 0.0) -> TestReport:
    """r(t) = P(max_{[0,t]} |X-u| > eps)/t must decrease along the ladder and
    end below the threshold."""
    ladder = sorted(t_ladder, reverse=True)
    rates, ses = [], []
    for i, t in enumerate(ladder):
        ex = kernels.max_excursion_exceeds(
            spec, u, eps, t, min(dt, t / 8.0), replicas, rng.child(i),
            jump_rate=jump_rate)
        p = float(ex.mean())
        se = math.sqrt(max(p * (1 - p), 1e-300) / replicas)
        rates.append(p / t)
        ses.append(se / t)
    decreasing = all(
        rates[i + 1] <= rates[i] + 3.0 * (ses[i] + ses[i + 1])
        for i in range(len(rates) - 1))
    final_ok = rates[-1] <= threshold + 3.0 * ses[-1]
    notes = (f"u={u}, eps={eps}, ladder={list(ladder)}, "
             f"rates={['%.3e' % r for r in rates]}")
    if jump_rate > 0:
        notes += f"; jump contamination rate {jump_rate} (hostile fixture)"
    return TestReport(
        name=f"small_time_rate_{spec.kind}", statistic=rates[-1],
        reference=threshold, mc_std_error=ses[-1], replicas=replicas,
        passed=bool(decreasing and final_ok),
        rule="r decreasing along ladder within MC error and final r <= threshold",
        notes=notes)


# ---------------------------------------------------------------------------
# stopped-process equivalence


def _production_stopped_paths(spec: DiffusionSpec, starts, t: float,
                              dt: float, replicas: int, rng: RngStream,
                              checkpoint_steps) -> np.ndarray:
    """Pair paths of the coalescing sampler stopped at the first merge,
    stepped by step_system (the production machinery).

    Returns (replicas, 2 * len(checkpoints) + 1): both positions at each
    checkpoint step (a merged pair reports its one position twice) and the
    grid meeting time, t if the pair never met.  The pairs are the
    two-entry segments of one array stepped in lockstep, replica r taking
    from its own rng.child(r) what it would take stepped alone (normals
    from rng.child(r, 0), uniforms from rng.child(r, 1), as
    motions.Draws.of lays them out), so no path depends on the number of
    replicas.  A segment that collapses to one entry is a pair that met:
    it is recorded and left empty, so its row of draws never moves again.
    """
    cps = sorted(checkpoint_steps)
    n_steps = int(round(t / dt))
    if cps and not 1 <= cps[0] <= cps[-1] <= n_steps:
        raise ValueError(f"checkpoint steps must lie in 1..{n_steps}")
    draws = Draws.of([rng.child(r) for r in range(replicas)])
    cur = np.tile(np.asarray(starts, dtype=float), replicas)
    seg = np.arange(0, cur.size + 1, 2)
    pos = cur.reshape(replicas, 2).copy()   # every replica; frozen once met
    meet_time = np.full(replicas, float(t))
    out = np.empty((replicas, 2 * len(cps) + 1), dtype=float)
    col = 0
    for k in range(1, n_steps + 1):
        if cur.size:
            cur, groups, _ = step_system(spec, cur, (k - 1) * dt, dt, draws,
                                         seg)
            if groups.size < seg[-1]:
                sizes = np.diff(np.searchsorted(groups, seg))
                met = sizes == 1
                lone = np.repeat(met, sizes)    # the one entry of a met pair
                pos[met] = cur[lone, None]
                meet_time[met] = k * dt
                cur = cur[~lone]
                sizes[met] = 0
                seg[1:] = np.cumsum(sizes)
        while col < 2 * len(cps) and k == cps[col // 2]:
            pos[np.diff(seg) == 2] = cur.reshape(-1, 2)
            out[:, col:col + 2] = pos
            col += 2
    out[:, -1] = meet_time
    return out


def test_stopped_equivalence(spec: DiffusionSpec, starts, t: float,
                             replicas: int, rng: RngStream, dt: float = 1e-3,
                             alpha: float = 0.01, n_checkpoints: int = 8,
                             permutations: int = 199,
                             hostile_no_stop: bool = False) -> TestReport:
    """Energy-distance two-sample test between the coalescing sampler's
    stopped paths and independently simulated paths stopped by the same
    bridge rule."""
    starts = sorted(starts)
    if len(starts) < 2 or starts[0] == starts[-1]:
        return TestReport(
            name="stopped_equivalence", statistic=0.0, reference=alpha,
            replicas=replicas, passed=True, rule="degenerate, identical by construction",
            notes=f"starts={starts}")
    if len(starts) > 2:
        raise ValueError(f"stopped equivalence is a pair test; got starts={starts}")
    n_steps = int(round(t / dt))
    cps = sorted({max(1, (i + 1) * n_steps // n_checkpoints)
                  for i in range(n_checkpoints)})
    prod = _production_stopped_paths(spec, starts, t, dt, replicas,
                                     rng.child(0), cps)
    orac = kernels.pair_stopped_paths(
        spec, starts[0], starts[1], t, dt, replicas, rng.child(1), cps,
        stop_at_meeting=not hostile_no_stop)
    stat, p = energy_two_sample(prod, orac, rng.child(2),
                                permutations=permutations)
    notes = (f"starts={starts}, t={t}, dt={dt}, {n_checkpoints} checkpoints "
             f"+ meeting time, {permutations} permutations")
    if hostile_no_stop:
        notes += "; oracle does not stop at meeting (hostile fixture)"
    return pvalue_report("stopped_equivalence", stat, p, alpha, replicas,
                         notes=notes)


# ---------------------------------------------------------------------------
# shift invariance of the skeleton-envelope law


@dataclass(frozen=True)
class DriftInjectedSpec(DiffusionSpec):
    """Hostile fixture: time-periodic square-wave drift breaks shift
    invariance while leaving every other contract intact."""

    drift_amp: float = 1.0
    drift_period: float = 0.5

    @property
    def time_drift(self):
        amp, period = self.drift_amp, self.drift_period

        def drift(t: float) -> float:
            return amp if (t % period) < 0.5 * period else -amp
        return drift


def shift_invariance_samples(config: SkeletonConfig, queries, h: float,
                             replicas: int, rng: RngStream) -> np.ndarray:
    """Evaluate theta_h-shifted queries on fresh independent skeletons.

    Replica r's skeleton is built from rng.child(r), SHIFT_BLOCK replicas
    in lockstep, observing only the shifted s and t of the queries (all a
    query reads).  Each draws what the full-horizon build of rng.child(r)
    alone draws up to its last observed step, so every value equals that
    skeleton's.  Any h whose shifted times lie on the grid works;
    config.observe is replaced.
    """
    off = Fraction(h)
    shifted = {float(Fraction(u) + off) for s, _, t in queries for u in (s, t)}
    observing = replace(config, observe=tuple(sorted(shifted)))
    vals = np.empty((replicas, len(queries)), dtype=float)
    for lo in range(0, replicas, SHIFT_BLOCK):
        streams = [rng.child(r)
                   for r in range(lo, min(lo + SHIFT_BLOCK, replicas))]
        # a block is dropped before the next one is built
        vals[lo:lo + len(streams)] = [
            _shifted_values(skel, queries, h)
            for skel in build_skeleton(observing, streams)]
    return vals


def _shifted_values(skel, queries, h: float) -> list:
    fe = shift(skeleton_flow_element(skel), h)
    return [float(evaluate(fe, EvalQuery(s, x, t))) for s, x, t in queries]


def test_shift_invariance(config: SkeletonConfig, hs, queries, replicas: int,
                          rng: RngStream, alpha: float = 0.01) -> list:
    """Per-query two-sample KS plus a joint energy test, unshifted vs each
    shifted sample, independent replica sets, Bonferroni inside the bundle.
    The energy tests run ceil(1 / alpha_each) permutations, so their p-value
    floor 1 / (permutations + 1) lies below the level they are tested at."""
    hs = list(hs)
    n_tests = len(hs) * (len(queries) + 1)
    alpha_each = alpha / n_tests
    permutations = math.ceil(1.0 / alpha_each)
    base = shift_invariance_samples(config, queries, 0.0, replicas,
                                    rng.child(0))
    reports = []
    for hi, h in enumerate(hs):
        shifted = shift_invariance_samples(config, queries, h, replicas,
                                           rng.child(1 + hi))
        for qi, (s, x, t) in enumerate(queries):
            stat, p = ks_two_sample(base[:, qi], shifted[:, qi])
            reports.append(pvalue_report(
                f"shift_invariance_ks_h{h}_q{qi}", stat, p, alpha_each,
                replicas, notes=f"query (s,x,t)=({s},{x},{t}), h={h}"))
        stat, p = energy_two_sample(base, shifted, rng.child(97 + hi),
                                    permutations=permutations)
        reports.append(pvalue_report(
            f"shift_invariance_energy_h{h}", stat, p, alpha_each, replicas,
            notes=(f"joint law over {len(queries)} queries, h={h}, "
                   f"{permutations} permutations")))
    return reports
