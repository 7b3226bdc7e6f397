import math

import numpy as np
import pytest

from coalflow import kernels
from coalflow.motions import (DiffusionSpec, collapse_proposals,
                              pair_no_meet_probability_exact,
                              propose_diffusion_step)
from coalflow.rng import RngStream
from coalflow.verify import DriftInjectedSpec


def test_pair_event_matches_reflection_formula():
    est, se, _ = kernels.pair_event_probability(
        DiffusionSpec.arratia(), 0.0, 1.0, 1.0, 1e-3, 20000, RngStream(1, (0,)))
    ref = pair_no_meet_probability_exact(0.0, 1.0, 1.0)
    assert abs(est - ref) < 3 * se + 1e-12


def test_pair_event_equal_starts_is_zero():
    est, se, hits = kernels.pair_event_probability(
        DiffusionSpec.arratia(), 0.3, 0.3, 1.0, 1e-3, 100, RngStream(1, (1,)))
    assert est == 0.0 and not hits.any()


def test_pair_event_box_conditioning_reduces_estimate():
    spec = DiffusionSpec.arratia()
    wide, _, _ = kernels.pair_event_probability(
        spec, 0.0, 1.0, 1.0, 1e-3, 20000, RngStream(1, (2,)), box=(-50, 50))
    tight, _, _ = kernels.pair_event_probability(
        spec, 0.0, 1.0, 1.0, 1e-3, 20000, RngStream(1, (2,)), box=(-0.5, 1.5))
    assert tight < wide


def test_no_bridge_overestimates_survival():
    spec = DiffusionSpec.arratia()
    with_b, _, _ = kernels.pair_event_probability(
        spec, 0.0, 0.1, 1.0, 1e-3, 20000, RngStream(1, (3,)))
    without, _, _ = kernels.pair_event_probability(
        spec, 0.0, 0.1, 1.0, 1e-3, 20000, RngStream(1, (3,)), use_bridge=False)
    assert without > with_b + 0.01


def test_endpoint_sample_normal_moments():
    sample = kernels.endpoint_sample(DiffusionSpec.arratia(), 0.5, 1.0, 1e-3,
                                     50000, RngStream(2, (0,)))
    assert sample.mean() == pytest.approx(0.5, abs=0.02)
    assert sample.var() == pytest.approx(1.0, abs=0.03)


def test_endpoint_sample_t_zero_degenerate():
    sample = kernels.endpoint_sample(DiffusionSpec.arratia(), 0.7, 0.0, 1e-3,
                                     100, RngStream(2, (1,)))
    assert np.all(sample == 0.7)


def test_max_excursion_matches_reflection_tail():
    # P(max |W| > eps on [0,t]) ~ 4 Phi(-eps/sqrt(t)) for eps >> sqrt(t)
    from scipy.stats import norm
    eps, t = 0.75, 0.1
    ex = kernels.max_excursion_exceeds(
        DiffusionSpec.arratia(), 0.0, eps, t, 1e-3, 40000, RngStream(3, (0,)))
    est = ex.mean()
    ref = 4 * norm.cdf(-eps / math.sqrt(t))
    se = math.sqrt(ref * (1 - ref) / 40000)
    assert abs(est - ref) < max(4 * se, 0.1 * ref)


def test_cluster_count_sample_matches_pairwise_oracle():
    # E[#distinct] = 1 + sum of adjacent-pair no-meet probabilities
    spec = DiffusionSpec.arratia()
    n, t = 64, 1.0
    starts = (np.arange(n) + 0.5) / n
    counts, inbox = kernels.cluster_count_sample(
        spec, starts, t, 1e-3, 200, RngStream(4, (0,)))
    assert inbox.all()
    est = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    oracle = 1 + (n - 1) * math.erf((1.0 / n) / (2 * math.sqrt(t)))
    assert abs(est - oracle) < 3 * se


def _reference_cluster_counts(spec, starts, duration, dt, replicas, rng,
                              box=None, detection="bridge"):
    """The per-replica loop the lockstep sampler replaced: each replica
    steps alone through the one-system kernels."""
    n_steps = int(round(duration / dt))
    counts = np.empty(replicas, dtype=np.int64)
    inbox = np.ones(replicas, dtype=bool)
    for r in range(replicas):
        gen = rng.child(r).generator()
        pos = np.unique(starts)
        ok = True
        for _ in range(n_steps):
            prop, flags = propose_diffusion_step(spec, pos, 0.0, dt, gen)
            if detection != "off" and flags.any():
                pos, _, _ = collapse_proposals(prop, flags)
            else:
                pos = prop
            if box is not None and ok:
                lo, hi = box
                if pos.min() < lo or pos.max() > hi:
                    ok = False
        counts[r] = np.unique(pos).size
        inbox[r] = ok
    return counts, inbox


@pytest.mark.parametrize("box, detection", [
    (None, "bridge"), ((-0.5, 1.5), "bridge"), ((-0.5, 1.5), "off")],
    ids=["no-box", "box", "detector-off"])
def test_cluster_count_sample_matches_per_replica_loop(box, detection):
    """Lockstep blocks give each replica its own one-system run, across a
    block edge too (65 replicas), in or out of a box some replicas leave."""
    spec = DiffusionSpec.arratia()
    starts = np.array([0.0, 0.02, 0.021, 0.5, 0.5, 0.51, 0.8, 1.0])
    rng = RngStream(4, (1,))
    for replicas in (0, 1, 65):
        got = kernels.cluster_count_sample(spec, starts, 0.3, 1e-2, replicas,
                                           rng, box=box, detection=detection)
        want = _reference_cluster_counts(spec, starts, 0.3, 1e-2, replicas,
                                         rng, box=box, detection=detection)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    if box is not None:
        assert want[1].any() and not want[1].all()
    if detection == "off":
        assert np.all(want[0] == 7)
    else:
        assert want[0].min() < want[0].max() < 7


def _reference_pair_step(spec, p1, p2, dt, z, u, use_bridge):
    """kernels._pair_step with its own Euler step and bridge law written
    out, as it was before it called the motions' shared ones."""
    b1 = spec.diffusion(p1)
    b2 = spec.diffusion(p2)
    sdt = math.sqrt(dt)
    q1 = p1 + spec.drift(p1) * dt + b1 * sdt * z[:, 0]
    q2 = p2 + spec.drift(p2) * dt + b2 * sdt * z[:, 1]
    d0 = p2 - p1
    d1 = q2 - q1
    met = d1 <= 0.0
    if use_bridge:
        open_pair = ~met & (d0 > 0.0)
        if np.any(open_pair):
            rate = b1[open_pair] ** 2 + b2[open_pair] ** 2
            pc = np.exp(-2.0 * d0[open_pair] * d1[open_pair] / (rate * dt))
            met[open_pair] = u[open_pair] < pc
    return q1, q2, met


@pytest.mark.parametrize("spec", [DiffusionSpec.arratia(),
                                  DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0)],
                         ids=["arratia", "ou"])
@pytest.mark.parametrize("use_bridge", [True, False])
def test_pair_step_equals_written_out_euler_and_bridge(spec, use_bridge):
    gen = RngStream(4, (2,)).generator()
    m, dt = 20000, 1e-2
    p1 = gen.uniform(-1.0, 1.0, m)
    p2 = p1 + gen.exponential(0.05, m)
    p2[:100] = p1[:100]                 # pairs that already met
    z = gen.standard_normal((m, 2))
    u = gen.random(m)
    got = kernels._pair_step(spec, p1, p2, 0.0, dt, z, u, use_bridge)
    want = _reference_pair_step(spec, p1, p2, dt, z, u, use_bridge)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert 0 < want[2].sum() < m


def test_one_and_two_point_kernels_apply_time_drift():
    """The drift-injected fixture's drift is +5 on [0, 0.25), so from the
    same stream a one-point path ends 5 * 0.2 = 1.0 above plain Arratia's,
    and a stopped pair 5 times its meeting time above (t if it never met)."""
    t, dt = 0.2, 1e-2
    specs = (DiffusionSpec.arratia(),
             DriftInjectedSpec(kind="arratia", drift_amp=5.0))
    plain, drift = [kernels.endpoint_sample(s, 0.3, t, dt, 500,
                                            RngStream(6, (1,)))
                    for s in specs]
    assert np.allclose(drift, plain + 1.0)
    plain, drift = [kernels.pair_stopped_paths(s, 0.0, 0.3, t, dt, 500,
                                               RngStream(6, (2,)), [10, 20])
                    for s in specs]
    meet = plain[:, -1]
    assert np.array_equal(drift[:, -1], meet)
    assert np.any(meet < t) and np.any(meet == t)
    assert np.allclose(drift[:, -3:-1], plain[:, -3:-1] + 5.0 * meet[:, None])


def test_pair_stopped_paths_freeze_after_meeting():
    spec = DiffusionSpec.arratia()
    out = kernels.pair_stopped_paths(spec, 0.0, 0.2, 1.0, 1e-2, 500,
                                     RngStream(5, (0,)), [50, 100, 100])
    met = out[:, -1] < 1.0
    # after the meeting both coordinates are equal at later checkpoints
    early_met = out[:, -1] <= 0.5
    assert np.all(out[early_met, 0] == out[early_met, 1])
    assert np.all(out[early_met, 2] == out[early_met, 3])
    assert met.mean() > 0.5  # gap 0.2 usually closes within t=1
    # a repeated checkpoint fills its own columns
    assert np.array_equal(out[:, 4:6], out[:, 2:4])
