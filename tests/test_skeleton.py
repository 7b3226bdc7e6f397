import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalflow import motions
from coalflow.cli import main
from coalflow.errors import ConfigError, OffGridTime, OutOfHorizon
from coalflow.flows import EvalQuery, evaluate_with_id, skeleton_flow_element
from coalflow.motions import DiffusionSpec, HarrisSpec
from coalflow.rng import RngStream
from coalflow.skeleton import (SkeletonConfig, SkeletonFlow, SpCheckPlan,
                               build_skeleton, check_sp_properties,
                               cluster_count_bound)
from coalflow.stats import ks_against_normal
from coalflow.verify import DriftInjectedSpec


def small_config(**kw):
    defaults = dict(window=(0.0, 1.0), dx=1.0 / 16, t0=0.0, t1=0.5, dt=1e-3,
                    model=DiffusionSpec.arratia(), row_period=0.05)
    defaults.update(kw)
    return SkeletonConfig.rows(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        SkeletonConfig.rows(window=(1.0, 0.0), dx=0.1, t0=0, t1=1, dt=1e-3,
                            model=DiffusionSpec.arratia())
    with pytest.raises(ConfigError):
        SkeletonConfig(window=(0, 1), dx=0.1, t0=0, t1=1, dt=1e-3,
                       start_times=(0.00037,), model=DiffusionSpec.arratia())
    for extra in ((0.00037, 0.5), (0.6, 0.5), (0.1, float("nan")),
                  (0.1, float("inf")), (0.1,)):
        with pytest.raises(ConfigError):
            small_config(extra_starts=(extra,))
    with pytest.raises(ConfigError, match="names no time"):
        small_config(observe=())
    cfg = small_config()
    with pytest.raises(OutOfHorizon):
        cfg.snap_index(2.0)
    with pytest.raises(OffGridTime):
        cfg.snap_index(0.00037)


def test_frozen_before_start_exact():
    cfg = small_config()
    skel = build_skeleton(cfg, RngStream(1, (0,)))
    later = [i for i in range(skel.n_traj) if skel.act[i] > 0]
    assert later
    for i in later[:50]:
        u = float(skel.u0[i])
        for k in range(0, int(skel.act[i])):
            assert skel.value(i, k) == u
        assert skel.value(i, int(skel.act[i])) == u


def test_sp2_merged_identical_forever_and_shared_tail():
    cfg = small_config()
    skel = build_skeleton(cfg, RngStream(1, (1,)))
    merges = skel.merges()
    assert merges
    for absorbed, parent, mt in merges[:100]:
        m = skel.snap_index(mt)
        for k in range(m, skel.n_steps + 1, 37):
            assert skel.value(absorbed, k) == skel.value(parent, k)
        # own storage ends at the merge: the tail is shared, not copied
        assert len(skel.hist[absorbed]) == m - skel.act[absorbed]


def test_duplicate_start_merges_at_injection():
    cfg = small_config(extra_starts=((0.0, 0.5), (0.0, 0.5)))
    skel = build_skeleton(cfg, RngStream(1, (2,)))
    dup = [i for i in range(skel.n_traj)
           if skel.u0[i] == 0.5 and skel.act[i] == 0]
    assert len(dup) >= 2
    for k in range(0, skel.n_steps + 1, 53):
        vals = {skel.value(i, k) for i in dup}
        assert len(vals) == 1


def test_row_landing_on_live_positions_merges_into_them():
    # a 1e-150 diffusion moves no position >= 0.25 by one ulp, so every
    # later row lands exactly on the live clusters of the first one
    frozen = DiffusionSpec.generic(lambda x: np.zeros_like(x),
                                   lambda x: np.full_like(x, 1e-150))
    cfg = SkeletonConfig.rows(window=(0.25, 1.0), dx=0.25, t0=0.0, t1=0.02,
                              dt=1e-3, model=frozen, row_period=0.01)
    skel = build_skeleton(cfg, RngStream(1, (5,)))
    assert skel.n_traj == 12
    ids, pos, minact = skel.clusters_at_index(skel.n_steps)
    assert ids.tolist() == [0, 1, 2, 3]
    assert minact.tolist() == [0] * 4
    for i in range(4, 12):
        assert skel.parent[i] == i % 4
        assert skel.merge_step[i] == skel.act[i]
        assert len(skel.hist[i]) == 0


def _reference_clusters(skel, k):
    """The per-trajectory rebuild: resolve every activated trajectory at step
    k and keep, per live id, the least activation step seen."""
    reps = {}
    for i in range(skel.n_traj):
        if skel.act[i] <= k:
            j = skel.resolve(i, k)
            reps[j] = min(reps.get(j, int(skel.act[i])), int(skel.act[i]))
    ids = np.fromiter(reps.keys(), dtype=np.int64)
    pos = np.array([skel.hist[j][k - skel.act[j]] for j in ids], dtype=float)
    minact = np.fromiter(reps.values(), dtype=np.int64)
    order = np.argsort(pos, kind="stable")
    return ids[order], pos[order], minact[order]


def _harris_every_step():
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 16, t0=0.0,
                              t1=0.2, dt=0.01, model=HarrisSpec(gamma=1.0))
    return build_skeleton(cfg, RngStream(3, (0,)))


def _arratia_colliding_extras():
    """Extra starts on a live position (repeated), on each other off the
    lattice, and on a row's lattice point; none of them moves a draw."""
    cfg = small_config(t1=0.2, dt=0.01, row_period=0.05)
    base = build_skeleton(cfg, RngStream(4, (0,)))
    t7, t10 = float(base.times[7]), float(base.times[10])
    live = float(base.clusters_at_index(7)[1][3])
    extras = ((t7, live), (t7, 0.123), (t7, live), (t7, 0.123),
              (t10, 0.5), (t10, 0.5))
    skel = build_skeleton(small_config(t1=0.2, dt=0.01, row_period=0.05,
                                       extra_starts=extras),
                          RngStream(4, (0,)))
    assert int(np.count_nonzero(skel.merge_step == skel.act)) >= 5
    return skel


@pytest.mark.parametrize("make", [_harris_every_step,
                                  _arratia_colliding_extras])
def test_lazy_rebuild_matches_resolve_loop(tmp_path, make):
    skel = make()
    loaded = SkeletonFlow.load(skel.save(tmp_path / "s.cfsk"))
    assert not loaded.snapshots
    for k in range(skel.n_steps + 1):
        got = loaded.clusters_at_index(k)
        for a, b in zip(got, _reference_clusters(loaded, k)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert k in loaded._lazy_cache
        assert loaded.clusters_at_index(k) is got


@pytest.mark.parametrize("make", [_harris_every_step,
                                  _arratia_colliding_extras])
def test_snapshot_min_act_is_act_of_live_id(make):
    """A build observing every step by a tuple of times: each cluster set's
    min_act is the act of its live id, and the least act in that id's
    cluster."""
    full = make()
    cfg = replace(full.config, observe=tuple(full.times.tolist()))
    skel = build_skeleton(cfg, RngStream(full.seed, full.rng_path))
    assert _kept(skel) == list(range(skel.n_steps + 1))
    for k in _kept(skel):
        ids, _, minact = skel.clusters_at_index(k)
        assert np.array_equal(minact, skel.act[ids])
        least = {}
        for i in np.flatnonzero(skel.act <= k).tolist():
            j = skel.resolve(i, k)
            least[j] = min(least.get(j, int(skel.act[i])), int(skel.act[i]))
        assert minact.tolist() == [least[j] for j in ids.tolist()]


def _kept(skel) -> list:
    """The steps a flow keeps (and so can read)."""
    return np.flatnonzero(np.diff(skel.rank)).tolist()


def _assert_same_build(got, want):
    """Every array of two builds equal, dtypes included, and so are their
    cluster sets at every kept step."""
    assert (got.seed, got.rng_path) == (want.seed, want.rng_path)
    for name in ("rank", "u0", "act", "parent", "merge_step", "flat",
                 "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(got.hist) == len(want.hist)
    for a, b in zip(got.hist, want.hist):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for k in _kept(want):
        for a, b in zip(got.clusters_at_index(k), want.clusters_at_index(k)):
            assert a.dtype == b.dtype and np.array_equal(a, b), k


GENERIC = DiffusionSpec.generic(lambda x: -np.sin(x),
                                lambda x: 1.0 + 0.5 * np.cos(x))


@pytest.mark.parametrize("width", [1, 3, 8])
@pytest.mark.parametrize("model", [
    DiffusionSpec.arratia(), DiffusionSpec.ornstein_uhlenbeck(1.0, 1.3),
    GENERIC, DriftInjectedSpec(kind="arratia", drift_amp=1.5),
    HarrisSpec(gamma=0.25), HarrisSpec(gamma=1.0), HarrisSpec(gamma=16.0),
    HarrisSpec(gamma=200.0)],
    ids=["arratia", "ou", "generic", "drift", "harris-0.25", "harris-1",
         "harris-16", "harris-200"])
def test_lockstep_block_equals_one_stream_builds(model, width, monkeypatch):
    """At the default draw width; the observing block draws one entry a
    row ahead (far fewer than its trajectories), so its rows refill every
    step, widening to the step's live count."""
    rng = RngStream(21, (3,))
    streams = [rng.child(r) for r in range(width)]
    for observe in ("all", (0.1, 0.25)):
        cfg = small_config(t1=0.3, row_period=0.05, model=model,
                           observe=observe)
        if observe != "all":
            monkeypatch.setattr(motions, "DRAW_BUDGET", width)
        block = build_skeleton(cfg, streams)
        monkeypatch.undo()
        assert len(block) == width
        for skel, stream in zip(block, streams):
            _assert_same_build(skel, build_skeleton(cfg, stream))
        if width == 1:
            assert build_skeleton(cfg, []) == []
        else:
            # the replicas step at different live counts
            ks = _kept(block[0])
            sizes = np.array([[skel.clusters_at_index(k)[0].size
                               for skel in block] for k in ks])
            assert np.any(sizes.min(axis=1) < sizes.max(axis=1))


def test_lockstep_block_with_colliding_starters():
    """Rows landing on the live clusters of every replica (frozen
    positions, so equal values meet across every cut) and extra starts on
    a live position, on each other and on a lattice point."""
    frozen = DiffusionSpec.generic(lambda x: np.zeros_like(x),
                                   lambda x: np.full_like(x, 1e-150))
    extras = ((0.01, 0.5), (0.01, 0.123), (0.01, 0.123), (0.015, 0.75))
    cfg = SkeletonConfig.rows(window=(0.25, 1.0), dx=0.25, t0=0.0, t1=0.02,
                              dt=1e-3, model=frozen, row_period=0.005,
                              extra_starts=extras)
    streams = [RngStream(1, (5, r)) for r in range(3)]
    every_other = tuple(cfg.times()[::2].tolist())
    for observe in ("all", every_other):
        kind = replace(cfg, observe=observe)
        for skel, stream in zip(build_skeleton(kind, streams), streams):
            _assert_same_build(skel, build_skeleton(kind, stream))
            assert int(np.count_nonzero(skel.merge_step == skel.act)) >= 14
    colliding = _arratia_colliding_extras().config
    streams = [RngStream(4, (0,)), RngStream(4, (1,)), RngStream(4, (2,))]
    for observe in ("all", (0.07, 0.1, 0.15)):
        cfg = replace(colliding, observe=observe)
        for skel, stream in zip(build_skeleton(cfg, streams), streams):
            _assert_same_build(skel, build_skeleton(cfg, stream))


@pytest.mark.parametrize("width", [1, 3, 32])
@pytest.mark.parametrize("model", [
    DiffusionSpec.arratia(), DiffusionSpec.ornstein_uhlenbeck(1.0, 1.3),
    DriftInjectedSpec(kind="arratia", drift_amp=1.5)],
    ids=["arratia", "ou", "drift"])
def test_history_free_build_equals_build_with_histories(model, width):
    cfg = small_config(t1=0.3, model=model, observe=(0.0, 0.1, 0.17, 0.3))
    streams = [RngStream(22, (3, r)) for r in range(width)]
    free = build_skeleton(cfg, streams)
    full = build_skeleton(replace(cfg, observe="all"), streams)
    for got, want in zip(free, full, strict=True):
        for name in ("u0", "act", "parent", "merge_step"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        kept = _kept(got)
        assert kept == [0, 100, 170, 300]
        # each own history is the full one at the kept steps it spans
        for i, h in enumerate(got.hist):
            end = got.merge_step[i] if got.merge_step[i] >= 0 else 301
            ks = np.array([k for k in kept if got.act[i] <= k < end], int)
            assert np.array_equal(h, want.hist[i][ks - want.act[i]]), i
        for k in kept:
            for a, b in zip(got.clusters_at_index(k),
                            want.clusters_at_index(k)):
                assert a.dtype == b.dtype and np.array_equal(a, b), k
            assert all(got.value(i, k) == want.value(i, k)
                       for i in range(got.n_traj))


def test_history_free_flow_refuses_unobserved_steps(tmp_path):
    cfg = small_config(observe=(0.1, 0.25))
    skel = build_skeleton(cfg, RngStream(9, (0,)))
    # the build stops at its last observed step
    assert skel.config == cfg.until(cfg.snap_index(0.25))
    assert skel.n_steps == 250 and skel.act.max() == 250
    k = cfg.snap_index(0.1)
    tid = int(skel.clusters_at_index(k)[0][-1])
    late = int(np.flatnonzero(skel.act > k)[0])
    assert skel.value(late, k) == skel.u0[late]     # frozen, no read needed
    assert np.array_equal(skel.series(tid, k, k), [skel.value(tid, k)])
    for step in (k + 1, 251):
        unkept = rf"step {step} not kept: .* keeps steps \[100, 250\] of"
        with pytest.raises(OffGridTime, match=unkept):
            skel.value(tid, step)
        with pytest.raises(OffGridTime, match=f"steps {step - 1}..{step} "):
            skel.series(tid, step - 1, step)
        with pytest.raises(OffGridTime, match=unkept):
            skel.clusters_at_index(step)
    # it saves and loads like any other flow, and exports its kept steps
    path = skel.save(tmp_path / "skel.cfsk")
    _assert_same_build(SkeletonFlow.load(path), skel)
    queries = tmp_path / "queries.csv"
    queries.write_text("s,x,t\n0.1,0.5,0.25\n0.25,0.3,0.25\n0.1,0.2,0.1\n"
                       "0.1,0.5,0.2\n0.15,0.5,0.25\n0.0,0.5,0.1\n")
    dest = tmp_path / "evals.csv"
    assert main(["export", "--snapshot", str(path), "--queries",
                 str(queries), "--out", str(dest)]) == 0
    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok"] * 3 + ["off_grid_time"] * 3
    full = skeleton_flow_element(
        build_skeleton(replace(cfg, observe="all"), RngStream(9, (0,))))
    for r in rows[:3]:
        q = EvalQuery(float(r["s"]), float(r["x"]), float(r["t"]))
        v, j = evaluate_with_id(full, q)
        assert (r["value"], r["trajectory_id"]) == (repr(v), str(j))


def test_reads_past_the_last_step_are_off_grid(tmp_path):
    """Step n_steps + 1 (or -1) is no step of the flow: value, series and
    clusters_at_index refuse it rather than read a neighbour's entries."""
    cfg = small_config(t1=0.1)
    full = build_skeleton(cfg, RngStream(8, (0,)))
    free = build_skeleton(replace(cfg, observe=(0.05, 0.1)),
                          RngStream(8, (0,)))
    flows = [full, free]
    for i, skel in enumerate((full, free)):
        flows.append(SkeletonFlow.load(skel.save(tmp_path / f"{i}.cfsk")))
    for skel in flows:
        K = skel.n_steps
        ids = skel.clusters_at_index(K)[0]
        j = int(ids[0])
        assert skel.value(j, K) == skel.series(j, K, K)[0]
        for read in (lambda: skel.value(j, K + 1),
                     lambda: skel.value(j, -1),
                     lambda: skel.series(j, K, K + 2),
                     lambda: skel.series(j, -1, K),
                     lambda: skel.clusters_at_index(K + 1),
                     lambda: skel.clusters_at_index(-1)):
            with pytest.raises(OffGridTime, match=f"of 0..{K}$"):
                read()


def test_until_builds_the_prefix():
    cfg = small_config(t1=0.3, extra_starts=((0.1, 0.3), (0.25, 0.7)),
                       observe=(0.05, 0.1, 0.2))
    k = cfg.snap_index(0.2)
    cut = cfg.until(k)
    assert cut.n_steps == k and cut.observe == cfg.observe
    with pytest.raises(ConfigError, match="outside"):
        replace(cfg, observe=(0.1, 0.3)).until(k)
    assert cut.extra_starts == ((0.1, 0.3),)
    assert cut.start_times == cfg.start_times[:5]
    assert cfg.until(cfg.n_steps) is cfg
    late = small_config(start_times=(0.1,))
    assert late.until(late.snap_index(0.05)) is late
    full = build_skeleton(replace(cfg, observe="all"), RngStream(2, (9,)))
    part = build_skeleton(replace(cut, observe="all"), RngStream(2, (9,)))
    ids = np.flatnonzero(full.act <= k)
    assert np.array_equal(part.u0, full.u0[ids])
    assert np.array_equal(part.act, full.act[ids])
    for i in ids.tolist():
        assert np.array_equal(part.series(i, 0, k), full.series(i, 0, k))
    # a history-free build cuts itself at its last observed step
    free = build_skeleton(cfg, RngStream(2, (9,)))
    assert free.config == cut
    for name in ("u0", "act", "parent", "merge_step"):
        assert np.array_equal(getattr(free, name), getattr(part, name)), name
    for k_obs in _kept(free):
        for a, b in zip(free.clusters_at_index(k_obs),
                        full.clusters_at_index(k_obs)):
            assert np.array_equal(a, b)


def test_positions_at_contract():
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=0.25, t0=0.0, t1=0.2,
                              dt=1e-3, model=DiffusionSpec.arratia(),
                              start_times=(0.1,))
    skel = build_skeleton(cfg, RngStream(1, (3,)))
    assert skel.positions_at(0.05) == []
    pts = skel.positions_at(0.1)
    assert [p for _, p in pts] == [0.0, 0.25, 0.5, 0.75, 1.0]
    pos = [p for _, p in skel.positions_at(0.2)]
    assert pos == sorted(pos)
    assert len(set(pos)) == len(pos)


def test_non_crossing_order_preserved():
    cfg = small_config()
    skel = build_skeleton(cfg, RngStream(1, (4,)))
    ids0, pos0, _ = skel.clusters_at_index(0)
    kend = skel.n_steps
    vals = [skel.value(int(i), kend) for i in ids0]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_single_start_endpoint_is_brownian():
    cfg = SkeletonConfig.rows(window=(0.0, 0.0), dx=1.0, t0=0.0, t1=1.0,
                              dt=1e-3, model=DiffusionSpec.arratia(),
                              start_times=(0.0,))
    ends = []
    for r in range(800):
        skel = build_skeleton(cfg, RngStream(6, (r,)))
        assert skel.n_traj == 1
        ends.append(skel.value(0, skel.n_steps))
    _, p = ks_against_normal(np.asarray(ends), 0.0, 1.0)
    assert p > 0.01


def test_snapshot_roundtrip_and_determinism(tmp_path):
    cfg = small_config()
    skel = build_skeleton(cfg, RngStream(42, (0,)))
    p1 = tmp_path / "a.cfsk"
    p2 = tmp_path / "b.cfsk"
    skel.save(p1)
    build_skeleton(cfg, RngStream(42, (0,))).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = SkeletonFlow.load(p1)
    assert loaded.n_traj == skel.n_traj
    for i in range(0, skel.n_traj, 7):
        for k in range(0, skel.n_steps + 1, 101):
            assert loaded.value(i, k) == skel.value(i, k)
    lp = [p for _, p in loaded.positions_at(0.25)]
    sp = [p for _, p in skel.positions_at(0.25)]
    assert lp == sp


def test_check_sp_properties_pass():
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0, t1=0.6,
                              dt=1e-3, model=DiffusionSpec.arratia())
    skel = build_skeleton(cfg, RngStream(7, (0,)))
    reports = check_sp_properties(skel, RngStream(7, (1,)),
                                  SpCheckPlan(n_sp4_samples=24,
                                              sp4_duration=0.25,
                                              sp4_span=0.25))
    by_name = {r.name: r for r in reports}
    assert by_name["SP1_fresh_starters"].passed
    assert by_name["SP2_permanence"].passed
    assert by_name["SP3_density"].passed
    assert by_name["SP4_cluster_bound"].passed
    assert by_name["SP5_right_modulus"].passed


def test_harris_cluster_count_bound_is_the_beta_minorant_bound():
    """1 + (b - a) min_L [1/L + L / ((1 - e^-gamma L) t)] over the fixed L
    grid: within 2e-4 of a fine scan's minimum, never below it, and
    1 + 2 (b - a) / sqrt(t) as gamma grows (min_L 1/L + L/t)."""
    L = np.linspace(0.05, 20.0, 400_000)
    for gamma in (0.25, 1.0, 4.0, 16.0, 200.0):
        got = cluster_count_bound(HarrisSpec(gamma=gamma), 0.2, 0.7, 0.5,
                                  (0.0, 1.0))
        fine = 1.0 + 0.5 * np.min(1 / L + L / (-np.expm1(-gamma * L) * 0.5))
        assert fine - 1e-12 <= got <= fine * (1 + 2e-4), gamma
    assert cluster_count_bound(HarrisSpec(gamma=1e4), 0.0, 0.5, 0.5,
                               (0.0, 1.0)) == pytest.approx(
        1.0 + 2 * 0.5 / math.sqrt(0.5), rel=2e-4)


@st.composite
def _skeleton_cases(draw):
    """Small grids with a row period that is a multiple of dt and extra
    starts on lattice points (forced collisions), repeated, or free."""
    model = draw(st.sampled_from([DiffusionSpec.arratia(),
                                  DiffusionSpec.ornstein_uhlenbeck(1.0, 1.3),
                                  HarrisSpec(gamma=1.0)]))
    dx = draw(st.sampled_from([0.25, 0.125, 1.0 / 16]))
    dt = 0.01
    n_steps = draw(st.integers(1, 25))
    row_period = dt * draw(st.integers(1, 8))
    lattice = [k * dx for k in range(int(round(1 / dx)) + 1)]
    extras = []
    for kind in draw(st.lists(st.sampled_from(["lattice", "repeat", "free"]),
                              max_size=6)):
        if kind == "repeat" and extras:
            extras.append(draw(st.sampled_from(extras)))
            continue
        s = dt * draw(st.integers(0, n_steps))
        u = (draw(st.sampled_from(lattice)) if kind == "lattice"
             else draw(st.floats(-0.5, 1.5)))
        extras.append((s, u))
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=dx, t0=0.0,
                              t1=dt * n_steps, dt=dt, model=model,
                              row_period=row_period, extra_starts=extras)
    return cfg, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_skeleton_cases())
def test_build_matches_saved_and_loaded_copy(case):
    cfg, seed = case
    skel = build_skeleton(cfg, RngStream(seed, (0,)))
    with tempfile.TemporaryDirectory() as tmp:
        loaded = SkeletonFlow.load(skel.save(Path(tmp) / "s.cfsk"))
    K = skel.n_steps
    # a built full flow is what save writes and load reads
    assert skel.snapshots == {}
    _assert_same_build(loaded, skel)
    # merge bookkeeping: absorbed into an older id, own history up to the
    # merge step (or the horizon)
    for i in range(skel.n_traj):
        m = int(skel.merge_step[i])
        if m >= 0:
            assert skel.parent[i] < i and skel.act[i] <= m
        end = m if m >= 0 else K + 1
        assert len(skel.hist[i]) == end - skel.act[i]
        values = [skel.value(i, k) for k in range(K + 1)]
        assert values == [loaded.value(i, k) for k in range(K + 1)]
        assert np.array_equal(skel.series(i, 0, K), values)
        assert np.array_equal(loaded.series(i, K // 2, K), values[K // 2:])


@settings(max_examples=40, deadline=None)
@given(_skeleton_cases(), st.data())
def test_history_free_build_is_the_full_build_at_observed_steps(case, data):
    """A build observing a random non-empty set of steps is the full
    build's prefix up to the last of them, its cluster sets are the full
    build's there, and every other step is an OffGridTime."""
    cfg, seed = case
    K = cfg.n_steps
    steps = sorted(data.draw(st.sets(st.integers(0, K), min_size=1)))
    free = build_skeleton(
        replace(cfg, observe=tuple(cfg.times()[steps].tolist())),
        RngStream(seed, (0,)))
    full = build_skeleton(cfg, RngStream(seed, (0,)))
    # the prefix up to the cut (step 1 when only step 0 is observed); a
    # merge after the cut has not happened in the history-free build
    cut = max(steps[-1], 1)
    assert free.n_steps == cut
    n = int(np.count_nonzero(full.act <= cut))
    later = full.merge_step[:n] > cut
    want = {"u0": full.u0[:n], "act": full.act[:n],
            "parent": np.where(later, np.arange(n), full.parent[:n]),
            "merge_step": np.where(later, -1, full.merge_step[:n])}
    for name, b in want.items():
        a = getattr(free, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert _kept(free) == steps
    for k in range(K + 1):
        if k in steps:
            snap = free.clusters_at_index(k)
            assert np.all(np.diff(snap[1]) > 0)
            for built, rebuilt in zip(snap, full.clusters_at_index(k)):
                assert built.dtype == rebuilt.dtype
                assert np.array_equal(built, rebuilt)
            assert all(free.value(i, k) == full.value(i, k)
                       for i in range(free.n_traj))
            continue
        with pytest.raises(OffGridTime):
            free.clusters_at_index(k)
        for i in np.flatnonzero(free.act <= k).tolist():
            with pytest.raises(OffGridTime):
                free.value(i, k)
