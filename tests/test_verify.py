import math

import numpy as np
import pytest

from coalflow import kernels, verify
from coalflow.motions import (DiffusionSpec, HarrisSpec,
                              propose_diffusion_step, step_system)
from coalflow.flows import EvalQuery, evaluate, shift, skeleton_flow_element
from coalflow.rng import RngStream
from coalflow.skeleton import SkeletonConfig, build_skeleton

OU = DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0)
GENERIC = DiffusionSpec.generic(lambda x: -np.sin(x),
                                lambda x: 1.0 + 0.5 * np.cos(x), 1.5)
PAIR_SPECS = pytest.mark.parametrize(
    "spec", [DiffusionSpec.arratia(),
             DiffusionSpec.ornstein_uhlenbeck(1.0, 1.3), GENERIC],
    ids=["arratia", "ou", "generic"])


def test_meeting_bound_reference_values():
    arr = DiffusionSpec.arratia()
    ref = verify.meeting_bound_reference(arr, 0.0, 0.1, (-10, 10), 1.0)
    assert ref == pytest.approx(0.1 / math.sqrt(math.pi), rel=1e-9)
    # series oracle: int_0^0.1 exp(y^2) dy = sum x^(2k+1)/(k! (2k+1))
    series = sum(0.1 ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
                 for k in range(8))
    ref_ou = verify.meeting_bound_reference(OU, 0.0, 0.1, (-10, 10), 1.0)
    assert ref_ou == pytest.approx(series, rel=1e-9)


def test_meeting_bound_passes_arratia_and_ou():
    r1 = verify.test_meeting_bound(DiffusionSpec.arratia(), 0.0, 0.1, -10,
                                   10, 1.0, 20000, RngStream(1, (0,)))
    assert r1.passed, (r1.statistic, r1.reference)
    r2 = verify.test_meeting_bound(OU, 0.0, 0.1, -10, 10, 1.0, 20000,
                                   RngStream(1, (1,)))
    assert r2.passed
    assert r2.statistic < r2.reference  # OU bound has real slack


def test_meeting_bound_equal_points_trivial():
    r = verify.test_meeting_bound(DiffusionSpec.arratia(), 0.2, 0.2, -10, 10,
                                  1.0, 100, RngStream(1, (2,)))
    assert r.passed and r.statistic == 0.0 and r.reference == 0.0


def test_meeting_bound_control_fails_without_bridge():
    r = verify.test_meeting_bound(DiffusionSpec.arratia(), 0.0, 0.1, -10, 10,
                                  1.0, 20000, RngStream(1, (3,)),
                                  use_bridge=False)
    assert not r.passed


def test_cluster_count_bound_and_oracle():
    rep, vals = verify.test_cluster_count(
        DiffusionSpec.arratia(), (0.0, 1.0), 0.0, 1.0, 128, 80,
        RngStream(2, (0,)))
    assert rep.passed
    assert len(vals) == 80
    oracle = verify.test_cluster_density_oracle(128, 0.05, 100,
                                                RngStream(2, (1,)))
    assert oracle.passed


def test_cluster_count_single_start_trivial():
    rep, _ = verify.test_cluster_count(DiffusionSpec.arratia(), (0.0, 1.0),
                                       0.0, 0.5, 1, 20, RngStream(2, (2,)))
    assert rep.passed and rep.statistic == 1.0


def test_no_meet_law():
    r = verify.test_no_meet_law(0.0, 1.0, 1.0, 20000, RngStream(3, (0,)),
                                tol=0.02)
    assert r.passed


def test_marginal_laws():
    r = verify.test_marginal_law(DiffusionSpec.arratia(), 0.0, 1.0, 5000,
                                 RngStream(4, (0,)))
    assert r.passed
    r = verify.test_marginal_law(OU, 1.0, 1.0, 5000, RngStream(4, (1,)))
    assert r.passed
    generic = DiffusionSpec.generic(lambda x: -x, lambda x: np.ones_like(x),
                                    1.0)
    r = verify.test_marginal_law(generic, 0.0, 1.0, 100, RngStream(4, (2,)))
    assert r.passed and "skipped" in r.rule


def test_marginal_degenerate_t_zero():
    r = verify.test_marginal_law(DiffusionSpec.arratia(), 0.4, 0.0, 100,
                                 RngStream(4, (3,)))
    assert r.passed


def test_marginal_control_fails_inflated_sigma():
    r = verify.test_marginal_law(DiffusionSpec.arratia(), 0.0, 1.0, 5000,
                                 RngStream(4, (4,)), sigma_scale=1.25)
    assert not r.passed


def test_ou_moments():
    r = verify.test_ou_moments(1.0, math.sqrt(2.0), 1.0, 1.0, 30000,
                               RngStream(5, (0,)), mean_tol=0.02,
                               var_tol=0.04)
    assert r.passed


def test_small_time_continuity_and_control():
    r = verify.test_small_time_continuity(
        DiffusionSpec.arratia(), 0.0, 0.75, (0.2, 0.1, 0.05, 0.02), 20000,
        RngStream(6, (0,)))
    assert r.passed
    bad = verify.test_small_time_continuity(
        DiffusionSpec.arratia(), 0.0, 0.75, (0.2, 0.1, 0.05, 0.02), 20000,
        RngStream(6, (1,)), jump_rate=2.0)
    assert not bad.passed


def test_stopped_equivalence_and_control():
    r = verify.test_stopped_equivalence(
        DiffusionSpec.arratia(), (0.0, 1.0), 1.0, 800, RngStream(7, (0,)),
        dt=2e-3, permutations=99)
    assert r.passed, (r.statistic, r.mc_std_error)
    bad = verify.test_stopped_equivalence(
        DiffusionSpec.arratia(), (0.0, 1.0), 1.0, 800, RngStream(7, (1,)),
        dt=2e-3, permutations=99, hostile_no_stop=True)
    assert not bad.passed


def _reference_stopped_paths(spec, starts, t, dt, replicas, rng,
                             checkpoint_steps):
    """The per-replica loop the lockstep sampler replaced: each replica runs
    alone, one one-system step_system call a step until its pair merges."""
    cps = sorted(checkpoint_steps)
    n_steps = int(round(t / dt))
    out = np.empty((replicas, 2 * len(cps) + 1), dtype=float)
    for r in range(replicas):
        gen = rng.child(r).generator()
        pos = np.asarray(starts, dtype=float)
        meet_time = float(t)
        row = []
        cp_iter = list(cps)
        for k in range(1, n_steps + 1):
            if pos.size == 2:
                pos, _, _ = step_system(spec, pos, (k - 1) * dt, dt, gen)
                if pos.size < 2:
                    meet_time = k * dt
            while cp_iter and k == cp_iter[0]:
                row.extend(np.broadcast_to(pos, 2).tolist())
                cp_iter = cp_iter[1:]
        row.append(meet_time)
        out[r] = row
    return out


@PAIR_SPECS
@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("starts", [(0.2, 0.201), (-0.3, 0.4)],
                         ids=["close", "wide"])
def test_lockstep_stopped_paths_match_per_replica_loop(spec, dt, starts):
    t = 0.2
    n_steps = round(t / dt)
    cps = sorted({max(1, (i + 1) * n_steps // 8) for i in range(8)})
    rng = RngStream(11, (5,))
    for replicas in (0, 1, 200):
        got = verify._production_stopped_paths(spec, starts, t, dt, replicas,
                                               rng, cps)
        want = _reference_stopped_paths(spec, starts, t, dt, replicas, rng,
                                        cps)
        assert got.shape == (replicas, 2 * len(cps) + 1)
        assert np.array_equal(got, want)
    meet = want[:, -1]
    if starts[1] - starts[0] < 1e-2:
        # some pairs merge at step 1, before the first checkpoint
        assert cps[0] > 1 and np.any(meet == dt)
    else:
        assert np.any(meet == t) and np.any(meet < t)


@PAIR_SPECS
def test_lockstep_step_draws_what_a_one_system_step_draws(spec):
    """A pair stepped as a two-entry segment of a lockstep step_system call
    consumes exactly the draws of its one-system step, so the next draw of
    every generator agrees afterwards; pairs that merge by a sign change
    draw no uniform."""
    dt = 1e-2
    rng = RngStream(12, (0,))
    x = np.array([[0.2, 0.201], [-0.3, 0.4]] * 100)
    seg = np.arange(0, x.size + 1, 2)
    gens = [rng.child(r).generator() for r in range(len(x))]
    got, groups, _ = step_system(spec, x.ravel(), 0.0, dt, gens, seg)
    ends = np.searchsorted(groups, seg)
    merged = np.diff(ends) == 1
    crossed = np.zeros(len(x), dtype=bool)
    for r, row in enumerate(x):
        gen = rng.child(r).generator()
        pos, _, _ = step_system(spec, row, 0.0, dt, gen)
        assert merged[r] == (pos.size == 1)
        assert np.array_equal(got[ends[r]:ends[r + 1]], pos)
        nxt = gens[r].random()
        assert nxt == gen.random()
        prop, _ = propose_diffusion_step(spec, row, 0.0, dt,
                                         rng.child(r).generator())
        crossed[r] = prop[1] <= prop[0]
        normals_only = rng.child(r).generator()
        normals_only.standard_normal(2)
        assert (nxt == normals_only.random()) == crossed[r]
    assert crossed.any() and (merged & ~crossed).any() and not merged.all()
    with pytest.raises(TypeError):
        step_system(HarrisSpec(), x.ravel(), 0.0, dt, gens, seg)


@pytest.mark.parametrize("cps", [[0, 5], [5, 21]])
def test_production_stopped_paths_rejects_checkpoints_off_the_grid(cps):
    spec = DiffusionSpec.arratia()
    with pytest.raises(ValueError):
        verify._production_stopped_paths(spec, (0.0, 1.0), 0.2, 1e-2, 2,
                                         RngStream(1), cps)
    # the independent-pair oracle it is tested against keeps the same rule
    with pytest.raises(ValueError):
        kernels.pair_stopped_paths(spec, 0.0, 1.0, 0.2, 1e-2, 2,
                                   RngStream(1), cps)


def test_stopped_equivalence_degenerate():
    r = verify.test_stopped_equivalence(
        DiffusionSpec.arratia(), (0.5, 0.5), 1.0, 10, RngStream(7, (2,)))
    assert r.passed


def test_stopped_equivalence_rejects_three_starts():
    with pytest.raises(ValueError):
        verify.test_stopped_equivalence(
            DiffusionSpec.arratia(), (0.0, 0.5, 1.0), 1.0, 10,
            RngStream(7, (3,)))


def _reference_shift_samples(config, queries, h, replicas, rng):
    """The per-replica loop the lockstep sampler replaced: each replica's
    skeleton built alone, over the config's full horizon."""
    vals = np.empty((replicas, len(queries)), dtype=float)
    for r in range(replicas):
        fe = shift(skeleton_flow_element(build_skeleton(config, rng.child(r))),
                   h)
        for qi, (s, x, t) in enumerate(queries):
            vals[r, qi] = float(evaluate(fe, EvalQuery(s, x, t)))
    return vals


@pytest.mark.parametrize("model", [
    DiffusionSpec.arratia(),
    verify.DriftInjectedSpec(kind="arratia", drift_amp=1.5)],
    ids=["arratia", "drift"])
def test_shift_samples_equal_per_replica_full_horizon_loop(model):
    from coalflow.bundles import SHIFT_QUERIES
    queries = SHIFT_QUERIES[:3] + SHIFT_QUERIES[-2:]
    # the reference's full builds rebuild every cluster set from histories
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0,
                              t1=1.5, dt=2e-3, model=model, row_period=0.05,
                              observe="all")
    replicas = 2 * verify.SHIFT_BLOCK + 3
    rng = RngStream(8, (4,))
    for h in (0.0, 0.25, 0.5):
        got = verify.shift_invariance_samples(cfg, queries, h, replicas, rng)
        want = _reference_shift_samples(cfg, queries, h, replicas, rng)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_shift_invariance_small_and_control():
    from coalflow.bundles import SHIFT_QUERIES
    queries = SHIFT_QUERIES[:3]
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0,
                              t1=1.25, dt=2e-3, model=DiffusionSpec.arratia(),
                              row_period=0.05)
    reports = verify.test_shift_invariance(cfg, (0.25,), queries, 400,
                                           RngStream(8, (0,)))
    assert all(r.passed for r in reports), [
        (r.name, r.mc_std_error) for r in reports if not r.passed]
    hostile = SkeletonConfig.rows(
        window=(0.0, 1.0), dx=1.0 / 32, t0=0.0, t1=1.25, dt=2e-3,
        model=verify.DriftInjectedSpec(kind="arratia", drift_amp=1.5,
                                       drift_period=0.5), row_period=0.05)
    bad = verify.test_shift_invariance(hostile, (0.25,), queries, 400,
                                       RngStream(8, (1,)))
    assert not all(r.passed for r in bad)
    energy = [r for r in bad if "energy" in r.name]
    assert len(energy) == 1 and not energy[0].passed, energy
