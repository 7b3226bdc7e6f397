"""n-point coalescing motions on the line.

Samplers for the consistent transition families behind three model classes:
Brownian trajectories that are independent before meeting (Arratia), general
coalescing diffusions dX = a(X)dt + b(X)dw with independent driving noise,
and Harris flows with spatially correlated noise d<w_x,w_y> = Gamma(x-y)dt
(exponential Gamma, whose correlated step costs O(n) through an exact
Markov recursion in x).
Trajectories that meet are merged and never separate again; between grid
points a Brownian-bridge minimum law resolves coalescence exactly for
constant-coefficient models and to O(dt) for the rest.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (EmptyStarts, InvalidGap, NegativeDuration,
                     NonPositiveDiffusion)
from .rng import RngStream

# scale-function quadrature: relative tolerance, and the absolute floor that
# lets an inner integral through zero converge
SCALE_TOL = {"epsrel": 1e-10, "epsabs": 1e-13}


# ---------------------------------------------------------------------------
# model specifications


@dataclass(frozen=True)
class DiffusionSpec:
    """One-point motion dX = a(X)dt + b(X)dw; n points move independently
    until they meet and coalesce afterwards."""

    kind: str                      # "arratia" | "ou" | "generic"
    rate: float = 0.0              # OU mean-reversion rate (lambda > 0)
    sigma: float = 1.0             # OU volatility
    drift_fn: Optional[Callable] = None
    diffusion_fn: Optional[Callable] = None

    @staticmethod
    def arratia() -> "DiffusionSpec":
        return DiffusionSpec(kind="arratia")

    @staticmethod
    def ornstein_uhlenbeck(rate: float, sigma: float) -> "DiffusionSpec":
        if rate <= 0 or sigma <= 0:
            raise ValueError("OU needs rate > 0 and sigma > 0")
        return DiffusionSpec(kind="ou", rate=rate, sigma=sigma)

    @staticmethod
    def generic(drift: Callable, diffusion: Callable) -> "DiffusionSpec":
        return DiffusionSpec(kind="generic", drift_fn=drift,
                             diffusion_fn=diffusion)

    @property
    def has_drift(self) -> bool:
        return self.kind != "arratia"

    def drift(self, x):
        if self.kind == "arratia":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.kind == "ou":
            return -self.rate * np.asarray(x, dtype=float)
        return np.asarray(self.drift_fn(x), dtype=float)

    def diffusion(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "arratia":
            return np.ones_like(x)
        if self.kind == "ou":
            return np.full_like(x, self.sigma)
        return np.asarray(self.diffusion_fn(x), dtype=float)


@dataclass(frozen=True)
class HarrisSpec:
    """Harris flow with exponential correlation Gamma(x) = exp(-gamma|x|).

    The coalescence-forcing minorant of 1 - Gamma is the beta_L of
    skeleton.cluster_count_bound; merge_gap is the sub-threshold gap at which
    a pair is declared met inside a step.
    """

    gamma: float = 1.0
    merge_gap: float = 1e-9

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def correlation(self, x):
        return np.exp(-self.gamma * np.abs(np.asarray(x, dtype=float)))


MotionModel = Union[DiffusionSpec, HarrisSpec]


# ---------------------------------------------------------------------------
# scale function and crossing laws


def scale_function(spec: DiffusionSpec, x: float) -> float:
    """Drift-removing transform m(x) = int_0^x exp(-2 int_0^y a/b^2) dy.

    Strictly increasing with m(0) = 0, x itself without drift; else nested
    scipy quad at relative tolerance 1e-10, as m enters acceptance bounds.
    """
    if not spec.has_drift or x == 0.0:
        return float(x)
    # imported here: simulate and export never need scipy
    from scipy.integrate import quad

    def over_b2(z):
        b = float(spec.diffusion(z))
        if b <= 0.0:
            raise NonPositiveDiffusion(f"b({z}) = {b} <= 0")
        return float(spec.drift(z)) / (b * b)

    def integrand(y):
        return math.exp(-2.0 * quad(over_b2, 0.0, y, **SCALE_TOL)[0])

    # Gauss-Kronrod nodes never reach the interval ends
    over_b2(0.0), over_b2(float(x))
    return quad(integrand, 0.0, float(x), **SCALE_TOL)[0]


def meeting_bound_reference(spec: DiffusionSpec, x: float, y: float,
                            window, t: float) -> float:
    """TP5 reference bound for P(no meeting while both stay in the window).

    Driftless: (m(y)-m(x)) / (sqrt(pi t) delta) with delta = inf of b over
    the window (exact constant from the time-changed reflection argument;
    delta = 1 for Brownian pairs).  With drift: |m(y)-m(x)| for the
    drift-removing scale m.
    """
    dm = scale_function(spec, y) - scale_function(spec, x)
    if not spec.has_drift:
        lo, hi = window
        delta = float(np.min(spec.diffusion(np.linspace(lo, hi, 257))))
        return dm / (math.sqrt(math.pi * t) * delta)
    return abs(dm)


def pair_no_meet_probability_exact(x: float, y: float, t: float) -> float:
    """P(two independent standard Brownian motions from x <= y have not met
    by t) = erf((y-x) / (2 sqrt(t))), by reflection on the gap process."""
    if t < 0:
        raise NegativeDuration(f"t = {t}")
    if x > y:
        raise ValueError("need x <= y")
    if t == 0.0:
        return 0.0 if x == y else 1.0
    return math.erf((y - x) / (2.0 * math.sqrt(t)))


def bridge_cross_probability(d0: float, d1: float, dt: float,
                             variance_rate: float) -> float:
    """P(gap process pinned at d0, d1 over a step of length dt touched zero),
    exp(-2 d0 d1 / (variance_rate dt)): the Brownian bridge minimum law."""
    if d0 <= 0 or d1 <= 0:
        raise InvalidGap(f"gaps must be positive, got {d0}, {d1}")
    if dt <= 0:
        raise NegativeDuration(f"dt = {dt}")
    if variance_rate <= 0:
        raise ValueError("variance_rate must be positive")
    return math.exp(-2.0 * d0 * d1 / (variance_rate * dt))


# ---------------------------------------------------------------------------
# stepping kernel


def collapse_proposals(prop: np.ndarray, merge_next: np.ndarray,
                       segments: Optional[np.ndarray] = None):
    """Collapse post-step proposals into merged clusters.

    merge_next[i] marks that original adjacent clusters (i, i+1) met inside
    the step.  A merged run adopts the mean of its members' proposals; any
    ordering violation the means introduce cascades into further
    (count-weighted) merges, so output positions are strictly increasing.
    Returns (positions, starts, counts): group g covers original cluster
    indices starts[g] .. starts[g]+counts[g]-1.

    segments, if given, are the offsets that cut prop into independent
    systems, as in propose_diffusion_step: merge_next flags no pair across
    a cut, positions increase strictly within each segment only, and no
    cascade folds across a cut.  None is one segment.
    """
    n = prop.size
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return prop.copy(), empty, empty
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.logical_not(merge_next, out=boundary[1:])
    starts = np.flatnonzero(boundary)
    if starts.size == n:
        return prop.copy(), starts, np.ones(n, dtype=np.int64)
    counts = np.diff(np.append(starts, n))
    pos = np.add.reduceat(prop, starts) / counts
    # the group each later segment opens with; the group before it belongs
    # to another system
    head = np.searchsorted(starts, _segments(segments, n)[1])
    rising = pos[1:] > pos[:-1]
    rising[head - 1] = True
    if rising.all():
        return pos, starts, counts
    # rare: a run mean crossed its neighbour; fold with count weights
    opens = np.zeros(starts.size, dtype=bool)
    opens[head] = True
    ps: list = []
    ss: list = []
    cs: list = []
    floor = 0
    for p, s, c, o in zip(pos.tolist(), starts.tolist(), counts.tolist(),
                          opens.tolist()):
        if o:
            floor = len(ps)
        while len(ps) > floor and p <= ps[-1]:
            p0, c0 = ps.pop(), cs.pop()
            s = ss.pop()
            p = (p0 * c0 + p * c) / (c0 + c)
            c = c0 + c
        ps.append(p)
        ss.append(s)
        cs.append(c)
    return (np.asarray(ps, dtype=float), np.asarray(ss, dtype=np.int64),
            np.asarray(cs, dtype=np.int64))


def _segments(segments: Optional[np.ndarray], n: int):
    """(segments, heads) of n entries: None is the one segment [0, n], and
    heads the offsets inside (0, n); the pair (h - 1, h) of a head h
    straddles a cut."""
    if segments is None:
        segments = np.array([0, n])
    bounds = segments.tolist()
    return segments, segments[bisect_right(bounds, 0):bisect_left(bounds, n)]


# entries per kind that a lockstep block's draw buffers hold
DRAW_BUDGET = 2**15


class _Kind:
    """One kind of draw (a Generator method name) for m rows: a 2-D
    buffer with a cursor and an end per row.  Width 0 draws straight from
    the generators, row by row."""

    def __init__(self, gens, method: str, width: int):
        self.draw = [getattr(g, method) for g in gens]
        self.width = width
        self.buf = np.empty((len(gens), width))
        self.cur = np.zeros(len(gens), dtype=np.int64)
        self.end = np.zeros(len(gens), dtype=np.int64)

    def take(self, offsets: np.ndarray) -> np.ndarray:
        """The next values of every row r, as out[offsets[r]:offsets[r + 1]]
        of one array (offsets nondecreasing from 0, one more than rows)."""
        if len(offsets) != len(self.draw) + 1:
            raise ValueError(f"{len(offsets)} offsets for "
                             f"{len(self.draw)} rows")
        if not self.width:
            bounds = offsets.tolist()
            out = np.empty(bounds[-1])
            for draw, a, b in zip(self.draw, bounds[:-1], bounds[1:]):
                if b > a:
                    draw(out=out[a:b])
            return out
        counts = np.diff(offsets)
        nxt = self.cur + counts
        for r in np.flatnonzero(nxt > self.end).tolist():
            self._refill(r, int(counts[r]))
            nxt[r] = counts[r]
        cols = self.buf.shape[1]
        idx = np.repeat(np.arange(0, cols * counts.size, cols) + self.cur
                        - offsets[:-1], counts) + np.arange(offsets[-1])
        self.cur = nxt
        return self.buf.take(idx)

    def _refill(self, r: int, need: int) -> None:
        """Row r keeps its leftover and is filled from its own generator up
        to max(width, need) entries."""
        cols = max(self.width, need)
        if cols > self.buf.shape[1]:
            wider = np.empty((self.buf.shape[0], cols))
            wider[:, :self.buf.shape[1]] = self.buf
            self.buf = wider
        row, c, e = self.buf[r], self.cur[r], self.end[r]
        row[:e - c] = row[c:e]
        self.draw[r](out=row[e - c:cols])
        self.cur[r], self.end[r] = 0, cols


class Draws:
    """The normals and uniforms of a block of m lockstep systems, one row
    each.

    Row r takes its normals from normal_gens[r] and its uniforms from
    uniform_gens[r], drawn ahead width at a time.  From one Generator,
    standard_normal (or random) filled into a[:k] and then a[k:] equals one
    call for all of a, so every row takes exactly what its generators give
    it drawn one step at a time, whatever the width.  uniform_gens None
    shares normal_gens, which needs width 0: each step then draws
    standard_normal, then random, as one generator per system always did.
    """

    def __init__(self, normal_gens: Sequence, uniform_gens=None,
                 width: int = 0):
        if uniform_gens is None:
            if width:
                raise ValueError("shared generators cannot draw ahead")
            uniform_gens = normal_gens
        if len(uniform_gens) != len(normal_gens):
            raise ValueError("one uniform generator per normal generator")
        self.normal = _Kind(normal_gens, "standard_normal", width)
        self.uniform = _Kind(uniform_gens, "random", width)

    @staticmethod
    def of(streams: Sequence[RngStream]) -> "Draws":
        """Two-stream draws of replica streams: normals from
        stream.child(0), uniforms from stream.child(1).  Each kind's
        buffers start at DRAW_BUDGET entries a block and widen only to the
        most a row takes in one step; one stream has nothing to gather
        and draws straight from its generators (width 0)."""
        m = len(streams)
        width = DRAW_BUDGET // m if m > 1 else 0
        return Draws([s.child(0).generator() for s in streams],
                     [s.child(1).generator() for s in streams], width)


def _segment_normals(draws, segments: Optional[np.ndarray], n: int):
    """(draws, segments, z, heads) of a step: segments and heads as
    _segments makes them, a lone Generator as the Draws of one segment,
    and z each segment's normals end to end."""
    if isinstance(draws, np.random.Generator):
        draws = Draws([draws])
    segments, heads = _segments(segments, n)
    z = draws.normal.take(segments)
    return draws, segments, z, heads


def _euler_proposal(spec: DiffusionSpec, x: np.ndarray, z: np.ndarray,
                    time: float, dt: float):
    """Draw-free Euler-Maruyama proposal x + a(x) dt + b(x) sqrt(dt) z,
    elementwise over an array of any shape, and b(x) for the bridge test
    (None for the constant-coefficient kinds, whose rate is fixed).  A spec
    with a time_drift attribute (the drift-injected negative-control
    fixture) adds the spatially constant drift time_drift(time) * dt last."""
    sdt = math.sqrt(dt)
    b = None
    if spec.kind == "arratia":
        prop = x + sdt * z
    elif spec.kind == "ou":
        prop = x + (-spec.rate * dt) * x + (spec.sigma * sdt) * z
    else:
        a = spec.drift(x)
        b = spec.diffusion(x)
        if np.any(b <= 0.0):
            raise NonPositiveDiffusion("b(x) <= 0 at a step node")
        prop = x + a * dt + b * sdt * z
    time_drift = getattr(spec, "time_drift", None)
    if time_drift is not None:
        prop = prop + time_drift(time) * dt
    return prop, b


def _bridge_exponent(spec: DiffusionSpec, d0: np.ndarray, d1: np.ndarray,
                     b: Optional[tuple], dt: float) -> np.ndarray:
    """log P(bridge hit) = -2 d0 d1 / (rate dt) for gaps d0 and d1 before
    and after a step, with rate = b_lower^2 + b_upper^2 frozen at the start
    for b = (b_lower, b_upper), the diffusion coefficients of the two ends
    (0 for a fixed barrier); b None is the constant rate of two points of
    the named kinds."""
    if b is None:
        const_rate = (2.0 if spec.kind == "arratia"
                      else 2.0 * spec.sigma * spec.sigma)
        return d0 * d1 * (-2.0 / (const_rate * dt))
    rate = b[0] ** 2 + b[1] ** 2
    return -2.0 * d0 * d1 / (rate * dt)


def propose_diffusion_step(spec: DiffusionSpec, positions: np.ndarray,
                           time: float, dt: float, draws,
                           segments: Optional[np.ndarray] = None):
    """One Euler-Maruyama step for all clusters plus per-adjacent-pair merge
    decisions (sign change always merges; otherwise the frozen-coefficient
    bridge law with variance rate b(x_i)^2 + b(x_j)^2 decides).

    Takes n normals, then one uniform for each of the k pairs whose gap is
    still positive: from a lone Generator, standard_normal(n) and then
    random(k).  The named kinds take closed-form fast paths; this is the
    innermost loop of every coalescing sampler.  The proposal is
    _euler_proposal's, time drift included.

    Lockstep systems, in every step kernel: draws may be the Draws of m
    rows, with segments the m + 1 nondecreasing offsets (0 first, n last)
    that cut positions into m independent, strictly increasing systems (a
    lone Generator is one segment).  System i takes from row i what a
    one-row call on it takes; no pair across a cut is flagged.
    """
    x = positions
    draws, segments, z, heads = _segment_normals(draws, segments, x.size)
    prop, b = _euler_proposal(spec, x, z, time, dt)
    d1 = prop[1:] - prop[:-1]
    flags = d1 <= 0.0
    open_pair = ~flags
    flags[heads - 1] = open_pair[heads - 1] = False
    pairs = np.flatnonzero(open_pair)
    if pairs.size:
        ends = None if b is None else (b[:-1], b[1:])
        expo = _bridge_exponent(spec, x[1:] - x[:-1], d1, ends, dt)[pairs]
        # offsets of each segment's open pairs
        u = draws.uniform.take(np.searchsorted(pairs, segments))
        hit = u < np.exp(expo)
        if hit.any():
            flags[pairs] = hit
    return prop, flags


def propose_harris_step(spec: HarrisSpec, positions: np.ndarray, dt: float,
                        draws, segments: Optional[np.ndarray] = None):
    """Joint Gaussian step with covariance Gamma(x_i - x_j) dt; merges on sign
    change or a sub-threshold gap.

    On sorted positions, Gamma(x) = exp(-gamma|x|) is the covariance of a
    stationary Ornstein-Uhlenbeck process in x, so its lower Cholesky factor
    is applied exactly, in O(n), by the Markov recursion W_0 = z_0,
    W_i = rho_i W_{i-1} + sigma_i z_i with rho_i = exp(-gamma(x_i - x_{i-1}))
    and sigma_i = sqrt(1 - rho_i^2).  Takes n normals a step, no uniform.

    Lockstep systems as in propose_diffusion_step: the recursion restarts at
    each segment's first entry, its gap +inf (rho = 0, sigma = 1, W = z).
    """
    x = positions
    _, _, z, heads = _segment_normals(draws, segments, x.size)
    gap = np.concatenate(([np.inf], np.diff(x)))
    gap[heads] = np.inf
    rho = np.exp(-spec.gamma * gap).tolist()
    sz = (np.sqrt(-np.expm1(-2.0 * spec.gamma * gap)) * z).tolist()
    acc = 0.0
    w = []
    for r, s in zip(rho, sz):
        acc = r * acc + s
        w.append(acc)
    prop = x + math.sqrt(dt) * np.array(w)
    d1 = np.diff(prop)
    flags = (d1 <= 0.0) | (d1 < spec.merge_gap)
    flags[heads - 1] = False
    return prop, flags


def step_system(model: MotionModel, positions: np.ndarray, time: float,
                dt: float, draws, segments: Optional[np.ndarray] = None):
    """One step of the coalescing motion on strictly increasing cluster
    positions: the model's proposal step, then collapse_proposals.

    Returns (positions, starts, counts) as collapse_proposals does; the
    skeleton builder runs the same two kernels on the same draws, time
    drift included.  draws is a lone Generator, taken from as the proposal
    step says, or a Draws.

    Lockstep systems, for every model: draws may be the Draws of m rows and
    segments the m + 1 offsets that cut positions into m independent
    systems, as in propose_diffusion_step; system i takes from row i
    exactly what a one-row call on its segment takes, and its clusters are
    the groups that np.searchsorted(starts, segments) cuts.
    """
    if isinstance(model, HarrisSpec):
        prop, flags = propose_harris_step(model, positions, dt, draws,
                                          segments)
    else:
        prop, flags = propose_diffusion_step(model, positions, time, dt,
                                             draws, segments)
    return collapse_proposals(prop, flags, segments)


def sample_npoint_motion(model: MotionModel, starts: Sequence[float],
                         horizon: float, dt: float,
                         rng: RngStream) -> np.ndarray:
    """Discrete-time paths of the n-point motion from sorted starts, as an
    (n_steps + 1, len(starts)) array of per-particle positions; duplicate
    starts occupy one cluster from time zero, and merged particles share
    one value from the step they meet on.  Draws as a one-stream skeleton
    build does: normals from rng.child(0), uniforms from rng.child(1)."""
    starts = np.asarray(starts, dtype=float)
    if starts.size == 0:
        raise EmptyStarts("no starting points")
    if np.any(np.diff(starts) < 0):
        raise ValueError("starts must be sorted nondecreasing")
    if dt <= 0 or horizon < 0:
        raise NegativeDuration("need dt > 0 and horizon >= 0")
    n_steps = int(round(horizon / dt))
    pos, label = np.unique(starts, return_inverse=True)
    draws = Draws.of([rng])
    path = np.empty((n_steps + 1, starts.size), dtype=float)
    path[0] = pos[label]
    for k in range(n_steps):
        pos, _, counts = step_system(model, pos, k * dt, dt, draws)
        label = np.repeat(np.arange(counts.size), counts)[label]
        path[k + 1] = pos[label]
    return path
