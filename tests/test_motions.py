import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning
from scipy.special import erfi

from coalflow.errors import (EmptyStarts, InvalidGap, NegativeDuration,
                             NonPositiveDiffusion)
from coalflow import motions
from coalflow.motions import (DiffusionSpec, Draws, HarrisSpec,
                              _euler_proposal,
                              bridge_cross_probability, collapse_proposals,
                              pair_no_meet_probability_exact,
                              propose_diffusion_step, propose_harris_step,
                              sample_npoint_motion, scale_function,
                              step_system)
from coalflow.rng import RngStream
from coalflow.skeleton import SkeletonConfig, build_skeleton
from coalflow.verify import DriftInjectedSpec

# Independent quadrature oracle (fine-grid Simpson, run before the build):
# int_0^1 exp(y^2) dy
OU_SCALE_AT_1 = 1.4626517459071675


# ---------------------------------------------------------------------------
# scale function


def test_scale_arratia_is_identity():
    spec = DiffusionSpec.arratia()
    assert scale_function(spec, 1.7) == pytest.approx(1.7, rel=1e-12)
    assert scale_function(spec, 0.0) == 0.0
    assert scale_function(spec, -2.3) == pytest.approx(-2.3, rel=1e-12)


def test_scale_ou_matches_fine_grid_oracle():
    ou = DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0)
    assert scale_function(ou, 1.0) == pytest.approx(OU_SCALE_AT_1, rel=1e-9)


def test_scale_strictly_increasing():
    ou = DiffusionSpec.ornstein_uhlenbeck(0.7, 1.3)
    xs = np.linspace(-2, 2, 17)
    ms = [scale_function(ou, float(x)) for x in xs]
    assert all(a < b for a, b in zip(ms, ms[1:]))


@pytest.mark.parametrize("lam,sigma", [(1.0, 1.0), (1.0, 1.3), (0.7, 1.3),
                                       (2.0, 0.7)])
def test_scale_matches_erfi_closed_form(lam, sigma):
    # a = -lam x, b = sigma: m(x) = (sigma/sqrt(lam)) (sqrt(pi)/2)
    # erfi(x sqrt(lam) / sigma), as OU and as a generic spec
    specs = [DiffusionSpec.ornstein_uhlenbeck(lam, sigma),
             DiffusionSpec.generic(lambda x: -lam * x,
                                   lambda x: np.full_like(x, sigma))]
    for x in np.linspace(-3.0, 3.0, 25):
        ref = (sigma / math.sqrt(lam) * math.sqrt(math.pi) / 2.0
               * erfi(x * math.sqrt(lam) / sigma))
        for spec in specs:
            assert scale_function(spec, float(x)) == pytest.approx(
                ref, rel=1e-11, abs=0.0)


def test_scale_generic_through_zero_drift_integral_increases():
    # the inner integral of -sin x / b^2 returns to zero near y = 2 pi
    spec = DiffusionSpec.generic(lambda x: -np.sin(x),
                                 lambda x: 1.0 + 0.5 * np.cos(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        ms = [scale_function(spec, float(x)) for x in np.linspace(-7, 7, 57)]
    assert all(a < b for a, b in zip(ms, ms[1:]))


def test_scale_rejects_nonpositive_diffusion():
    bad = DiffusionSpec.generic(lambda x: 0.0 * x, lambda x: x)
    with pytest.raises(NonPositiveDiffusion):
        scale_function(bad, 1.0)
    nan_b = DiffusionSpec.generic(lambda x: 0.0 * x, lambda x: math.nan + x)
    with pytest.raises(NonPositiveDiffusion):
        scale_function(nan_b, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_scale_rejects_non_finite_points(x):
    for spec in (DiffusionSpec.arratia(),
                 DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0)):
        with pytest.raises(ValueError):
            scale_function(spec, x)


# ---------------------------------------------------------------------------
# exact crossing laws


def test_no_meet_probability_values():
    assert pair_no_meet_probability_exact(0.0, 0.0, 1.0) == 0.0
    assert pair_no_meet_probability_exact(0.0, 1.0, 1.0) == pytest.approx(
        math.erf(0.5), abs=0.0)
    assert pair_no_meet_probability_exact(0.0, 1.0, 1e8) < 1e-3
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(NegativeDuration):
            pair_no_meet_probability_exact(0.0, 1.0, t)
    for x, y in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan),
                 (-math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            pair_no_meet_probability_exact(x, y, 1.0)


def test_no_meet_formula_vs_fine_step_monte_carlo():
    # one-off validation of the reflection-principle oracle
    gen = RngStream(2024, (0,)).generator()
    R, n_steps, dt = 20000, 400, 1.0 / 400
    g = np.full(R, 1.0)  # gap of two independent BMs: rate-2 Brownian motion
    alive = np.ones(R, dtype=bool)
    for _ in range(n_steps):
        step = math.sqrt(2 * dt) * gen.standard_normal(R)
        new = g + step
        hit = new <= 0
        surv = ~hit & alive
        u = gen.random(R)
        bridge = np.exp(-g * np.maximum(new, 1e-300) / dt)
        hit |= surv & (u < bridge)
        alive &= ~hit
        g = np.where(alive, new, 0.0)
    est = alive.mean()
    se = math.sqrt(est * (1 - est) / R)
    assert abs(est - math.erf(0.5)) < 3 * se


def test_bridge_cross_probability_values():
    assert bridge_cross_probability(1, 1, 1, 2) == pytest.approx(math.exp(-1))
    assert bridge_cross_probability(1, 1, 1e-9, 2) < 1e-100
    assert bridge_cross_probability(1e-12, 1.0, 1.0, 2.0) > 0.999
    for d0, d1 in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                   (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidGap):
            bridge_cross_probability(d0, d1, 1.0, 2.0)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(NegativeDuration):
            bridge_cross_probability(1.0, 1.0, dt, 2.0)
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bridge_cross_probability(1.0, 1.0, 1.0, rate)


def _discrete_bridge_crossing(d0, d1, dt, rate, R, m, seed_path):
    """Brute-force crossing frequency of the pinned gap on an m-point grid."""
    gen = RngStream(77, seed_path).generator()
    tgrid = np.linspace(0.0, dt, m + 1)
    crossed = np.zeros(R, dtype=bool)
    for lo in range(0, R, 2000):
        hi = min(lo + 2000, R)
        nb = hi - lo
        w = np.cumsum(math.sqrt(rate * dt / m) * gen.standard_normal((nb, m)),
                      axis=1)
        w = np.concatenate([np.zeros((nb, 1)), w], axis=1)
        bridge = d0 + w - (tgrid / dt)[None, :] * w[:, -1][:, None] \
            + (tgrid / dt)[None, :] * (d1 - d0)
        crossed[lo:hi] = bridge.min(axis=1) <= 0.0
    return crossed.mean()


def test_bridge_formula_vs_fine_subdivision_monte_carlo():
    # the discrete minimum misses excursions at rate ~ c/sqrt(m); estimate at
    # two resolutions and extrapolate the bias away before comparing
    d0 = d1 = 1.0
    dt, rate = 1.0, 2.0
    R, m1, m2 = 20000, 512, 4096
    est1 = _discrete_bridge_crossing(d0, d1, dt, rate, R, m1, (0,))
    est2 = _discrete_bridge_crossing(d0, d1, dt, rate, R, m2, (1,))
    c = (est2 - est1) / (1.0 / math.sqrt(m1) - 1.0 / math.sqrt(m2))
    extrapolated = est2 + c / math.sqrt(m2)
    ref = bridge_cross_probability(d0, d1, dt, rate)
    se = math.sqrt(ref * (1 - ref) / R)
    assert abs(extrapolated - ref) < 4 * se


# ---------------------------------------------------------------------------
# coalescing stepper and n-point sampler


def _merges_are_permanent(path: np.ndarray) -> bool:
    """Columns (particles) that are equal at one step stay equal after it."""
    eq = path[:, :, None] == path[:, None, :]
    return bool(np.all(eq[1:] >= eq[:-1]))


def test_from_starts_merges_duplicates():
    path = sample_npoint_motion(DiffusionSpec.arratia(), [0.0, 0.0, 1.0],
                                0.0, 1e-3, RngStream(0))
    assert path.shape == (1, 3)
    assert path[0].tolist() == [0.0, 0.0, 1.0]
    assert np.unique(path[0]).size == 2


def test_from_starts_requires_sorted():
    spec = DiffusionSpec.arratia()
    for starts in ([1.0, 0.0], [0.0, math.nan], [math.nan], [0.0, math.inf],
                   [-math.inf, 0.0]):
        with pytest.raises(ValueError):
            sample_npoint_motion(spec, starts, 0.1, 1e-3, RngStream(0))
    with pytest.raises(EmptyStarts):
        sample_npoint_motion(spec, [], 0.1, 1e-3, RngStream(0))
    for horizon, dt in ((0.1, 0.0), (0.1, math.nan), (0.1, math.inf),
                        (math.nan, 1e-3), (math.inf, 1e-3), (-0.1, 1e-3)):
        with pytest.raises(NegativeDuration):
            sample_npoint_motion(spec, [0.0], horizon, dt, RngStream(0))


def test_collapse_proposals_groups_and_cascade():
    prop = np.array([0.0, 1.0, 2.0])
    pos, starts, counts = collapse_proposals(prop, np.array([True, False]))
    assert np.allclose(pos, [0.5, 2.0])
    assert list(starts) == [0, 2] and list(counts) == [2, 1]
    # cascade: merged mean overtakes the next cluster
    prop = np.array([0.0, 3.0, 1.4])
    pos, starts, counts = collapse_proposals(prop, np.array([True, False]))
    assert counts.tolist() == [3]
    assert pos[0] == pytest.approx((0.0 + 3.0 + 1.4) / 3)
    assert np.all(np.diff(pos) > 0)


@st.composite
def _proposals_and_flags(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    prop = np.array(draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=n, max_size=n)))
    flags = np.array(draw(st.lists(st.booleans(), min_size=n - 1,
                                   max_size=n - 1)), dtype=bool)
    # every step kernel flags a sign change, so callers never pass an
    # unflagged pair that is out of order
    return prop, flags | (np.diff(prop) <= 0.0)


@given(_proposals_and_flags())
def test_collapse_proposals_invariants(case):
    prop, flags = case
    pos, starts, counts = collapse_proposals(prop, flags)
    assert np.all(np.diff(pos) > 0)
    assert pos.size == starts.size == counts.size
    assert starts[0] == 0 and np.all(counts > 0)
    assert np.array_equal(starts[1:], np.cumsum(counts)[:-1])
    assert counts.sum() == prop.size
    group = np.repeat(np.arange(counts.size), counts)
    assert np.all(group[:-1][flags] == group[1:][flags])


@st.composite
def _segmented_proposals(draw):
    """One to five independent systems end to end, each a case of
    _proposals_and_flags, with the pairs across their cuts unflagged."""
    parts = draw(st.lists(_proposals_and_flags(), min_size=1, max_size=5))
    prop = np.concatenate([p for p, _ in parts])
    flags = np.concatenate(
        [np.append(f, False) for _, f in parts])[:-1]
    sizes = [p.size for p, _ in parts]
    return parts, prop, flags, np.concatenate(([0], np.cumsum(sizes)))


@given(_segmented_proposals())
def test_collapse_proposals_segments_equal_one_call_each(case):
    """A segmented collapse is the per-segment collapses end to end: no
    group and no cascade crosses a cut."""
    parts, prop, flags, seg = case
    pos, starts, counts = collapse_proposals(prop, flags, seg)
    want = [collapse_proposals(p, f) for p, f in parts]
    assert np.array_equal(pos, np.concatenate([w[0] for w in want]))
    assert np.array_equal(starts, np.concatenate(
        [w[1] + a for w, a in zip(want, seg[:-1])]))
    assert np.array_equal(counts, np.concatenate([w[2] for w in want]))


# ---------------------------------------------------------------------------
# draws of lockstep blocks


def _own(stream):
    """A system's own two streams, drawn from directly (width 0)."""
    return Draws([stream.child(0).generator()], [stream.child(1).generator()])


def _next_draws(draws, r, m):
    """The next normal and the next uniform of row r of m."""
    one = np.zeros(m + 1, dtype=np.int64)
    one[r + 1:] = 1
    return draws.normal.take(one)[0], draws.uniform.take(one)[0]


def _take(kind, counts):
    """The next counts[r] values of every row r of a kind, end to end."""
    return kind.take(np.concatenate(([0], np.cumsum(counts))))


@st.composite
def _take_schedules(draw):
    """m rows and the (normal, uniform) counts of each step: zeros, counts
    above the width, and rows that go empty for good."""
    m = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.integers(min_value=0, max_value=9))
    counts = st.lists(st.integers(min_value=0, max_value=14), min_size=m,
                      max_size=m)
    steps = draw(st.lists(st.tuples(counts, counts), max_size=12))
    gone = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=m,
                         max_size=m))
    schedule = [(np.array(n) * (k < np.array(gone)),
                 np.array(u) * (k < np.array(gone)))
                for k, (n, u) in enumerate(steps)]
    return m, width, schedule


def _rows(takes, counts):
    """Each row's values of a list of takes, concatenated."""
    rows = [[] for _ in range(len(counts[0]) if counts else 0)]
    for values, c in zip(takes, counts):
        for r, part in enumerate(np.split(values, np.cumsum(c)[:-1])):
            rows[r].append(part)
    return [np.concatenate(parts) for parts in rows]


@given(_take_schedules(), st.integers(min_value=0, max_value=999))
def test_draws_rows_equal_their_own_streams(case, seed):
    """Whatever the width and the refill points, each row's takes are its
    own streams' standard_normal(total) and random(total); the shared,
    width-0 form interleaves standard_normal(n), random(k) a step, as one
    generator per system drew."""
    m, width, schedule = case
    streams = [RngStream(seed, (2, r)) for r in range(m)]
    draws = Draws([s.child(0).generator() for s in streams],
                  [s.child(1).generator() for s in streams], width)
    normals = [_take(draws.normal, n) for n, _ in schedule]
    uniforms = [_take(draws.uniform, u) for _, u in schedule]
    for r, (z, u) in enumerate(zip(_rows(normals, [n for n, _ in schedule]),
                                   _rows(uniforms, [u for _, u in schedule]))):
        assert np.array_equal(
            z, streams[r].child(0).generator().standard_normal(z.size))
        assert np.array_equal(
            u, streams[r].child(1).generator().random(u.size))
    shared = Draws([s.generator() for s in streams])
    refs = [s.generator() for s in streams]
    for n, u in schedule:
        got_z, got_u = _take(shared.normal, n), _take(shared.uniform, u)
        want_z = [g.standard_normal(c) for g, c in zip(refs, n.tolist())]
        want_u = [g.random(c) for g, c in zip(refs, u.tolist())]
        assert np.array_equal(got_z, np.concatenate(want_z))
        assert np.array_equal(got_u, np.concatenate(want_u))


def test_draws_refuse_shared_buffers_and_wrong_row_counts():
    gens = [RngStream(1, (r,)).generator() for r in range(2)]
    with pytest.raises(ValueError):
        Draws(gens, width=4)
    with pytest.raises(ValueError):
        Draws(gens, gens[:1])
    with pytest.raises(ValueError):
        Draws(gens).normal.take(np.arange(4))


def test_draws_of_caps_the_width(monkeypatch):
    """A block's buffers start at DRAW_BUDGET entries a kind and widen only
    to the most a row takes in one step, however many that row takes in
    all; one stream draws straight from its generators."""
    streams = [RngStream(1, (r,)) for r in range(4)]
    budget = motions.DRAW_BUDGET
    assert Draws.of(streams).normal.buf.shape == (4, budget // 4)
    assert Draws.of(streams[:1]).normal.width == 0
    assert Draws.of([]).uniform.width == 0
    monkeypatch.setattr(motions, "DRAW_BUDGET", 8)
    draws = Draws.of(streams)
    schedule = [[5, 0, 3, 1], [1, 2, 0, 4], [0, 0, 0, 0]] * 4
    z = [_take(draws.normal, c) for c in schedule]
    assert draws.normal.buf.shape == (4, 5)
    for r, got in enumerate(_rows(z, [np.array(c) for c in schedule])):
        assert np.array_equal(
            got, streams[r].child(0).generator().standard_normal(got.size))


def _lockstep_forms(rng, m):
    """(lockstep draws, reference of row r) of both forms: two streams a
    system, buffered 3 wide so rows refill mid-call, and one shared
    generator a system."""
    streams = [rng.child(r) for r in range(m)]
    yield (Draws([s.child(0).generator() for s in streams],
                 [s.child(1).generator() for s in streams], 3),
           lambda r: _own(streams[r]))
    yield (Draws([s.generator() for s in streams]),
           lambda r: Draws([streams[r].generator()]))


@pytest.mark.parametrize("spec", [
    DiffusionSpec.arratia(), DiffusionSpec.ornstein_uhlenbeck(1.0, 1.3),
    DiffusionSpec.generic(lambda x: -np.sin(x),
                          lambda x: 1.0 + 0.5 * np.cos(x)),
    DriftInjectedSpec(kind="arratia", drift_amp=5.0)],
    ids=["arratia", "ou", "generic", "drift"])
def test_segmented_diffusion_step_equals_one_call_per_segment(spec):
    """Each segment of a lockstep proposal takes from its own row what a
    one-row call on it takes, in both forms of draws; pairs across a cut
    (here often out of order or equal) are neither flagged nor drawn for,
    and empty and one-point segments draw nothing.  Both schedules are
    checked: many open pairs, and no more open pairs than segments."""
    dt = 1e-2
    rng = RngStream(13, (0,))
    gen = rng.child(99).generator()
    for sizes in ((5, 0, 1, 12, 2, 0, 7, 3), (2, 0, 1, 3, 2, 1, 1, 1)):
        systems = [np.sort(gen.uniform(0.0, 0.3, size)) for size in sizes]
        systems[4] = systems[3][:2]         # equal values across a cut
        x = np.concatenate(systems)
        seg = np.concatenate(([0], np.cumsum([a.size for a in systems])))
        for draws, own in _lockstep_forms(rng, len(systems)):
            prop, flags = propose_diffusion_step(spec, x, 0.3, dt, draws,
                                                 segments=seg)
            for r, a in enumerate(systems):
                lone = own(r)
                want_p, want_f = propose_diffusion_step(spec, a, 0.3, dt,
                                                        lone)
                lo, hi = seg[r], seg[r + 1]
                assert np.array_equal(prop[lo:hi], want_p)
                assert np.array_equal(flags[lo:max(lo, hi - 1)], want_f)
                if 0 < hi < x.size:
                    assert not flags[hi - 1]
                assert (_next_draws(draws, r, len(systems))
                        == _next_draws(lone, 0, 1))
            assert flags.any() and not flags.all()


STEP_SPECS = [
    DiffusionSpec.arratia(), DiffusionSpec.ornstein_uhlenbeck(1.0, 1.3),
    DiffusionSpec.generic(lambda x: -np.sin(x),
                          lambda x: 1.0 + 0.5 * np.cos(x)),
    DriftInjectedSpec(kind="arratia", drift_amp=5.0), HarrisSpec(gamma=0.25),
    HarrisSpec(gamma=1.0), HarrisSpec(gamma=200.0)]


def _step(spec, x, draws, segments=None):
    if isinstance(spec, HarrisSpec):
        return propose_harris_step(spec, x, 1e-2, draws, segments)
    return propose_diffusion_step(spec, x, 0.1, 1e-2, draws, segments)


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                max_size=8),
       st.sampled_from(STEP_SPECS), st.integers(min_value=0, max_value=999))
def test_segmented_step_equals_one_generator_calls(sizes, spec, seed):
    """Every step kernel, Harris included, in both forms of draws: a
    segmented call is the one-row calls on its segments end to end (empty
    and one-entry segments too, values often equal across a cut), flags no
    pair across a cut, and leaves every row at the same next draws; a lone
    Generator is the shared one-row form."""
    rng = RngStream(seed, (0,))
    layout = RngStream(seed, (1,)).generator()
    systems = [np.sort(layout.choice(64, n, replace=False)) / 200.0
               for n in sizes]
    x = np.concatenate(systems)
    seg = np.concatenate(([0], np.cumsum(sizes)))
    for draws, own in _lockstep_forms(rng, len(sizes)):
        prop, flags = _step(spec, x, draws, seg)
        assert prop.shape == x.shape and flags.shape == (max(x.size - 1, 0),)
        for r, a in enumerate(systems):
            lone = own(r)
            want_p, want_f = _step(spec, a, lone)
            lo, hi = seg[r], seg[r + 1]
            assert np.array_equal(prop[lo:hi], want_p)
            assert np.array_equal(flags[lo:max(lo, hi - 1)], want_f)
            if 0 < hi < x.size:
                assert not flags[hi - 1]
            assert _next_draws(draws, r, len(sizes)) == _next_draws(lone, 0, 1)
    # a lone Generator draws standard_normal(n), then random(k) for the k
    # pairs still apart (none for Harris)
    gen, ref = rng.child(0).generator(), rng.child(0).generator()
    a = systems[0]
    prop, _ = _step(spec, a, gen)
    z = ref.standard_normal(a.size)
    if not isinstance(spec, HarrisSpec):
        assert np.array_equal(prop, _euler_proposal(spec, a, z, 0.1, 1e-2)[0])
        ref.random(int(np.count_nonzero(np.diff(prop) > 0)))
    assert gen.random() == ref.random()


def test_step_preserves_order_and_permanence():
    spec = DiffusionSpec.arratia()
    draws = _own(RngStream(5, (1,)))
    pos = np.linspace(0, 1, 33)
    label = np.arange(33)
    for k in range(400):
        pos, _, counts = step_system(spec, pos, k * 1e-3, 1e-3, draws)
        assert np.all(np.diff(pos) > 0)
        label = np.repeat(np.arange(counts.size), counts)[label]
    assert pos.size < 33  # coalescence happened
    path = sample_npoint_motion(spec, np.linspace(0, 1, 33), 0.4, 1e-3,
                                RngStream(5, (1,)))
    assert np.array_equal(path[-1], pos[label])
    assert np.all(np.diff(path, axis=1) >= 0)
    assert _merges_are_permanent(path)


def test_tp3_duplicates_stay_one_cluster():
    spec = DiffusionSpec.arratia()
    path = sample_npoint_motion(spec, [0.5, 0.5], 0.2, 1e-3, RngStream(9))
    assert np.array_equal(path[:, 0], path[:, 1])


def test_single_cluster_marginal_mean():
    spec = DiffusionSpec.arratia()
    gen = RngStream(31, (0,)).generator()
    ends = []
    for r in range(2000):
        pos = np.array([0.0])
        for k in range(20):
            pos, _, _ = step_system(spec, pos, k * 0.05, 0.05, gen)
        ends.append(pos[0])
    ends = np.asarray(ends)
    assert abs(ends.mean()) < 3 / math.sqrt(len(ends))
    assert ends.var() == pytest.approx(1.0, abs=0.1)


def test_two_cluster_no_meet_frequency_matches_erf():
    spec = DiffusionSpec.arratia()
    R = 4000
    alive = 0
    for r in range(R):
        pos = np.array([0.0, 1.0])
        gen = RngStream(63, (r,)).generator()
        for k in range(100):
            pos, _, _ = step_system(spec, pos, k * 1e-2, 1e-2, gen)
        alive += pos.size == 2
    est = alive / R
    ref = pair_no_meet_probability_exact(0.0, 1.0, 1.0)
    se = math.sqrt(ref * (1 - ref) / R)
    assert abs(est - ref) < 3 * se


def test_one_point_sampler_endpoint_ks():
    from coalflow.stats import ks_against_normal
    spec = DiffusionSpec.arratia()
    ends = []
    for r in range(1200):
        path = sample_npoint_motion(spec, [0.0], 1.0, 2e-3,
                                    RngStream(71, (r,)))
        ends.append(path[-1, 0])
    _, p = ks_against_normal(np.asarray(ends), 0.0, 1.0)
    assert p > 0.01


def test_determinism_bit_identical():
    spec = DiffusionSpec.ornstein_uhlenbeck(1.0, 1.0)
    p1 = sample_npoint_motion(spec, [0.0, 0.3, 0.9], 0.3, 1e-3, RngStream(4, (2,)))
    p2 = sample_npoint_motion(spec, [0.0, 0.3, 0.9], 0.3, 1e-3, RngStream(4, (2,)))
    assert p1.shape == (301, 3)
    assert np.array_equal(p1, p2)
    assert _merges_are_permanent(p1)


@pytest.mark.parametrize("model", [
    DiffusionSpec.arratia(), DiffusionSpec.ornstein_uhlenbeck(1.0, 2.0),
    HarrisSpec(gamma=1.0), DriftInjectedSpec(kind="arratia", drift_amp=5.0)],
    ids=["arratia", "ou", "harris", "drift"])
def test_npoint_sampler_equals_one_row_skeleton(model):
    """The n-point sampler and a one-row skeleton run the same kernels on
    the same stream, so every particle agrees at every step (the drift
    spec's time drift included)."""
    cfg = SkeletonConfig(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0, t1=0.3,
                         dt=1e-3, start_times=(0.0,), model=model)
    skel = build_skeleton(cfg, RngStream(5, (1,)))
    path = sample_npoint_motion(model, cfg.lattice(), 0.3, 1e-3,
                                RngStream(5, (1,)))
    assert path.shape == (cfg.n_steps + 1, skel.n_traj)
    ref = np.array([[skel.value(i, k) for i in range(skel.n_traj)]
                    for k in range(cfg.n_steps + 1)])
    assert np.array_equal(path, ref)
    assert np.unique(path[-1]).size < skel.n_traj


# ---------------------------------------------------------------------------
# Harris flows


def test_harris_spec_validates():
    for gamma in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            HarrisSpec(gamma=gamma)
    for gap in (math.nan, math.inf):
        with pytest.raises(ValueError):
            HarrisSpec(merge_gap=gap)


@pytest.mark.parametrize("rate, sigma", [(0.0, 1.0), (1.0, -1.0),
                                         (math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, 1.0), (1.0, math.inf)])
def test_ou_spec_validates(rate, sigma):
    with pytest.raises(ValueError):
        DiffusionSpec.ornstein_uhlenbeck(rate, sigma)


def test_harris_single_cluster_is_standard_brownian():
    spec = HarrisSpec(gamma=1.0)
    gen = RngStream(8, (0,)).generator()
    pos = np.array([0.3])
    incs = []
    for k in range(4000):
        new, _, _ = step_system(spec, pos, k * 1e-3, 1e-3, gen)
        incs.append(new[0] - pos[0])
        pos = new
    incs = np.asarray(incs)
    assert incs.var() == pytest.approx(1e-3, rel=0.15)


def test_harris_increment_correlation_matches_gamma():
    spec = HarrisSpec(gamma=1.0)
    gen = RngStream(8, (1,)).generator()
    base = np.array([0.0, 5.0])
    d1, d2 = [], []
    for _ in range(100000):
        new, _, _ = step_system(spec, base, 0.0, 1e-3, gen)
        if new.size == 2:
            d1.append(new[0] - 0.0)
            d2.append(new[1] - 5.0)
    corr = np.corrcoef(np.asarray(d1), np.asarray(d2))[0, 1]
    assert abs(corr - math.exp(-5.0)) < 0.01


@pytest.mark.parametrize("n", [2, 64, 470])
def test_harris_recursion_equals_cholesky_factor(n):
    """The O(n) step applies the lower Cholesky factor of the exponential
    covariance, drawing exactly n normals per call."""
    dt = 1e-3
    rng = np.random.default_rng([31, n])
    for gamma in (0.5, 1.0, 4.0):
        spec = HarrisSpec(gamma=gamma)
        for gaps in (rng.uniform(0.0, 4.0 / n, n - 1),
                     rng.uniform(0.5e-9, 2e-9, n - 1)):
            x = rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(gaps)))
            assert np.all(np.diff(x) > 0)
            gen = np.random.Generator(np.random.Philox(n))
            twin = np.random.Generator(np.random.Philox(n))
            prop, flags = propose_harris_step(spec, x, dt, gen)
            z = twin.standard_normal(n)
            L = np.linalg.cholesky(spec.correlation(x[:, None] - x[None, :]))
            ref = x + math.sqrt(dt) * (L @ z)
            assert np.max(np.abs(prop - ref)) < 1e-10
            d1 = np.diff(ref)
            assert np.array_equal(flags, (d1 <= 0.0) | (d1 < spec.merge_gap))
            assert gen.standard_normal() == twin.standard_normal()


def test_harris_coalescence_permanence():
    spec = HarrisSpec(gamma=2.0, merge_gap=1e-6)
    gen = RngStream(8, (2,)).generator()
    pos = np.array([0.0, 0.02, 0.04, 0.06])
    for k in range(2000):
        pos, _, _ = step_system(spec, pos, k * 1e-3, 1e-3, gen)
        assert np.all(np.diff(pos) > 0)
    assert pos.size < 4


# ---------------------------------------------------------------------------
# consistency of the n-point family (TP2 flavour)


def test_projection_consistency_endpoint_law():
    from coalflow.stats import ks_two_sample
    spec = DiffusionSpec.arratia()
    R = 3000
    trip = np.empty((R, 2))
    pair = np.empty((R, 2))
    for r in range(R):
        trip[r] = sample_npoint_motion(spec, [0.0, 0.5, 1.0], 1.0, 0.02,
                                       RngStream(101, (0, r)))[-1, :2]
        pair[r] = sample_npoint_motion(spec, [0.0, 0.5], 1.0, 0.02,
                                       RngStream(101, (1, r)))[-1]
    alpha = 0.01 / 3
    for col in range(2):
        _, p = ks_two_sample(trip[:, col], pair[:, col])
        assert p > alpha
    _, p = ks_two_sample(trip[:, 1] - trip[:, 0], pair[:, 1] - pair[:, 0])
    assert p > alpha
