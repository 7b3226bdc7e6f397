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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (EmptyStarts, InvalidGap, NegativeDuration,
                     NonPositiveDiffusion)
from .numerics import adaptive_simpson
from .rng import RngStream

SCALE_REL_TOL = 1e-10


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
    lipschitz_bound: float = 0.0

    @staticmethod
    def arratia() -> "DiffusionSpec":
        return DiffusionSpec(kind="arratia")

    @staticmethod
    def ornstein_uhlenbeck(rate: float, sigma: float) -> "DiffusionSpec":
        if rate <= 0 or sigma <= 0:
            raise ValueError("OU needs rate > 0 and sigma > 0")
        return DiffusionSpec(kind="ou", rate=rate, sigma=sigma)

    @staticmethod
    def generic(drift: Callable, diffusion: Callable,
                lipschitz_bound: float) -> "DiffusionSpec":
        return DiffusionSpec(kind="generic", drift_fn=drift,
                             diffusion_fn=diffusion,
                             lipschitz_bound=lipschitz_bound)

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

    beta(x) = (1 - e^-gamma) * x minorizes 1 - Gamma on (0, 1], which is the
    coalescence-forcing condition; merge_gap is the sub-threshold gap at which
    a pair is declared met inside a step.
    """

    gamma: float = 1.0
    merge_gap: float = 1e-9

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def correlation(self, x):
        return np.exp(-self.gamma * np.abs(np.asarray(x, dtype=float)))

    def beta(self, x):
        return (1.0 - math.exp(-self.gamma)) * np.asarray(x, dtype=float)


MotionModel = Union[DiffusionSpec, HarrisSpec]


# ---------------------------------------------------------------------------
# scale function and crossing laws


def scale_function(spec: DiffusionSpec, x: float) -> float:
    """Drift-removing transform m(x) = int_0^x exp(-2 int_0^y a/b^2) dy.

    Strictly increasing with m(0) = 0; computed by nested adaptive Simpson
    at relative tolerance 1e-10 because m enters acceptance bounds.
    """
    if x == 0.0:
        return 0.0

    def over_b2(z):
        b = float(spec.diffusion(z))
        if b <= 0.0:
            raise NonPositiveDiffusion(f"b({z}) = {b} <= 0")
        return float(spec.drift(z)) / (b * b)

    def integrand(y):
        if spec.kind == "arratia":
            inner = 0.0
        else:
            inner = adaptive_simpson(over_b2, 0.0, y, rel_tol=SCALE_REL_TOL)
        return math.exp(-2.0 * inner)

    return adaptive_simpson(integrand, 0.0, float(x), rel_tol=SCALE_REL_TOL)


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
    cascade folds across a cut.
    """
    n = prop.size
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return prop.copy(), empty, empty
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    if n > 1:
        np.logical_not(merge_next, out=boundary[1:])
    starts = np.flatnonzero(boundary)
    if starts.size == n:
        return prop.copy(), starts, np.ones(n, dtype=np.int64)
    counts = np.diff(np.append(starts, n))
    pos = np.add.reduceat(prop, starts) / counts
    rising = pos[1:] > pos[:-1]
    head = None
    if segments is not None:
        # the group each later segment opens with; the group before it
        # belongs to another system
        head = np.searchsorted(starts, segments[1:-1])
        head = head[(head > 0) & (head < starts.size)]
        rising[head - 1] = True
    if rising.all():
        return pos, starts, counts
    # rare: a run mean crossed its neighbour; fold with count weights
    opens = np.zeros(starts.size, dtype=bool)
    if head is not None:
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
                           time: float, dt: float, gen,
                           segments: Optional[np.ndarray] = None):
    """One Euler-Maruyama step for all clusters plus per-adjacent-pair merge
    decisions (sign change always merges; otherwise the frozen-coefficient
    bridge law with variance rate b(x_i)^2 + b(x_j)^2 decides).

    Draws standard_normal(n), then random(k) for the k pairs whose gap is
    still positive.  The named kinds take closed-form fast paths; this is
    the innermost loop of every coalescing sampler.  The proposal is
    _euler_proposal's, time drift included.

    Lockstep systems: gen may instead be a sequence of m generators, with
    segments the m + 1 nondecreasing offsets (0 first, n last) that cut
    positions into m independent systems, each strictly increasing.  System
    i draws from gen[i] exactly what a one-generator call on its segment
    draws; a pair across a cut is never flagged or drawn for.
    """
    x = positions
    if segments is None:
        z = gen.standard_normal(x.size)
    else:
        bounds = segments.tolist()
        z = np.empty(x.size)
        for g, a, b in zip(gen, bounds[:-1], bounds[1:]):
            if b > a:
                g.standard_normal(out=z[a:b])
    prop, b = _euler_proposal(spec, x, z, time, dt)
    if x.size < 2:
        return prop, np.zeros(0, dtype=bool)
    d1 = prop[1:] - prop[:-1]
    flags = d1 <= 0.0
    open_pair = ~flags
    if segments is not None:
        cut = segments[1:-1] - 1
        cut = cut[(cut >= 0) & (cut < flags.size)]
        flags[cut] = False
        open_pair[cut] = False
    if open_pair.any():
        ends = None if b is None else (b[:-1], b[1:])
        expo = _bridge_exponent(spec, x[1:] - x[:-1], d1, ends, dt)[open_pair]
        if segments is None:
            u = gen.random(expo.size)
        else:
            # open pairs before each segment's first pair
            before = np.concatenate(([0], np.cumsum(open_pair)))
            ub = before[np.minimum(segments, flags.size)]
            if ub[-1] <= len(gen):
                # few draws, as for C8's pairs: k scalar random() calls draw
                # what random(k) draws, at half a sliced call's cost each
                owner = np.repeat(np.arange(len(gen)), np.diff(ub))
                u = np.array([gen[i].random() for i in owner.tolist()])
            else:
                ub = ub.tolist()
                u = np.empty(expo.size)
                for g, a, c in zip(gen, ub[:-1], ub[1:]):
                    if c > a:
                        g.random(out=u[a:c])
        hit = u < np.exp(expo)
        if hit.any():
            flags[open_pair] = hit
    return prop, flags


def propose_harris_step(spec: HarrisSpec, positions: np.ndarray, dt: float,
                        gen: np.random.Generator):
    """Joint Gaussian step with covariance Gamma(x_i - x_j) dt; merges on sign
    change or a sub-threshold gap.

    On sorted positions, Gamma(x) = exp(-gamma|x|) is the covariance of a
    stationary Ornstein-Uhlenbeck process in x, so its lower Cholesky factor
    is applied exactly, in O(n), by the Markov recursion W_0 = z_0,
    W_i = rho_i W_{i-1} + sigma_i z_i with rho_i = exp(-gamma(x_i - x_{i-1}))
    and sigma_i = sqrt(1 - rho_i^2).  One standard_normal(n) draw per step.
    """
    x = positions
    n = x.size
    z = gen.standard_normal(n)
    if n == 1:
        prop = x + math.sqrt(dt) * z
        return prop, np.zeros(0, dtype=bool)
    gap = np.diff(x)
    rho = np.exp(-spec.gamma * gap).tolist()
    sz = (np.sqrt(-np.expm1(-2.0 * spec.gamma * gap)) * z[1:]).tolist()
    acc = float(z[0])
    w = [acc]
    for r, s in zip(rho, sz):
        acc = r * acc + s
        w.append(acc)
    prop = x + math.sqrt(dt) * np.array(w)
    d1 = np.diff(prop)
    flags = (d1 <= 0.0) | (d1 < spec.merge_gap)
    return prop, flags


def step_system(model: MotionModel, positions: np.ndarray, time: float,
                dt: float, gen, segments: Optional[np.ndarray] = None):
    """One step of the coalescing motion on strictly increasing cluster
    positions: the model's proposal step, then collapse_proposals.

    Returns (positions, starts, counts) as collapse_proposals does; the
    skeleton builder runs the same two kernels on the same draws, time
    drift included.

    Lockstep systems (diffusions only): gen may instead be a sequence of m
    generators and segments the m + 1 offsets that cut positions into m
    independent systems, as in propose_diffusion_step; system i draws from
    gen[i] exactly what a one-system call on its segment draws, and its
    clusters are the groups that np.searchsorted(starts, segments) cuts.
    """
    if isinstance(model, HarrisSpec):
        if segments is not None:
            raise TypeError("lockstep steps need a DiffusionSpec")
        prop, flags = propose_harris_step(model, positions, dt, gen)
    else:
        prop, flags = propose_diffusion_step(model, positions, time, dt, gen,
                                             segments)
    return collapse_proposals(prop, flags, segments)


def sample_npoint_motion(model: MotionModel, starts: Sequence[float],
                         horizon: float, dt: float,
                         rng: RngStream) -> np.ndarray:
    """Discrete-time paths of the n-point motion from sorted starts, as an
    (n_steps + 1, len(starts)) array of per-particle positions; duplicate
    starts occupy one cluster from time zero, and merged particles share
    one value from the step they meet on."""
    starts = np.asarray(starts, dtype=float)
    if starts.size == 0:
        raise EmptyStarts("no starting points")
    if np.any(np.diff(starts) < 0):
        raise ValueError("starts must be sorted nondecreasing")
    if dt <= 0 or horizon < 0:
        raise NegativeDuration("need dt > 0 and horizon >= 0")
    gen = rng.generator()
    n_steps = int(round(horizon / dt))
    pos, label = np.unique(starts, return_inverse=True)
    path = np.empty((n_steps + 1, starts.size), dtype=float)
    path[0] = pos[label]
    for k in range(n_steps):
        pos, _, counts = step_system(model, pos, k * dt, dt, gen)
        label = np.repeat(np.arange(counts.size), counts)[label]
        path[k + 1] = pos[label]
    return path
