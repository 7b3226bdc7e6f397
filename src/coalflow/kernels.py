"""Vectorized Monte Carlo kernels.

The statistical battery needs 1e5-scale replica counts, so the two-point
and one-point simulations here draw for all replicas at once from one
stream.  They step with the coalescing motion's own draw-free halves,
motions._euler_proposal (the one Euler formula) and
motions._bridge_exponent (the one bridge law, for a pair of points or a
point and a fixed barrier); the test suite checks them against closed
forms.  The cluster-count sampler steps blocks of replicas in lockstep
through the segmented propose_diffusion_step and collapse_proposals, one
generator per replica, as the skeleton builder does.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NegativeDuration
from .motions import (DiffusionSpec, _bridge_exponent, _euler_proposal,
                      collapse_proposals, propose_diffusion_step)
from .rng import RngStream

# replicas per lockstep block in cluster_count_sample
CLUSTER_BLOCK = 64


def _steps(t: float, dt: float) -> int:
    n = int(round(t / dt))
    if n <= 0:
        raise NegativeDuration(f"horizon {t} shorter than dt {dt}")
    return n


def _pair_step(spec: DiffusionSpec, p1: np.ndarray, p2: np.ndarray,
               time: float, dt: float, z: np.ndarray, u: np.ndarray,
               use_bridge: bool = True):
    """Euler step at `time` of a batch of pairs p1 <= p2 from already drawn
    normals z (m, 2) and uniforms u (m,); returns (q1, q2, met).  A pair
    meets on a sign change of the gap or, if use_bridge, with the
    bridge-law probability of motions.propose_diffusion_step."""
    q1, b1 = _euler_proposal(spec, p1, z[:, 0], time, dt)
    q2, b2 = _euler_proposal(spec, p2, z[:, 1], time, dt)
    d0 = p2 - p1
    d1 = q2 - q1
    met = d1 <= 0.0
    if use_bridge:
        open_pair = ~met & (d0 > 0.0)
        if np.any(open_pair):
            ends = None if b1 is None else (b1[open_pair], b2[open_pair])
            met[open_pair] = u[open_pair] < np.exp(_bridge_exponent(
                spec, d0[open_pair], d1[open_pair], ends, dt))
    return q1, q2, met


def pair_event_probability(spec: DiffusionSpec, x: float, y: float, t: float,
                           dt: float, replicas: int, rng: RngStream,
                           box: Optional[tuple] = None,
                           use_bridge: bool = True):
    """Estimate P(pair from (x, y) never meets by t [and both stay in box]).

    Returns (estimate, std_error, hits) where hits is the replica event
    indicator.  Meeting is resolved by sign change plus the bridge law on the
    gap with frozen variance rate b(x1)^2 + b(x2)^2; the box condition is
    checked at grid times.
    """
    if x > y:
        raise ValueError("need x <= y")
    gen = rng.generator()
    n_steps = _steps(t, dt)
    alive_idx = np.arange(replicas)
    p1 = np.full(replicas, float(x))
    p2 = np.full(replicas, float(y))
    event = np.zeros(replicas, dtype=bool)
    if x == y:
        return 0.0, 0.0, event
    for k in range(n_steps):
        m = alive_idx.size
        if m == 0:
            break
        z = gen.standard_normal((m, 2))
        u = gen.random(m)
        q1, q2, met = _pair_step(spec, p1, p2, k * dt, dt, z, u, use_bridge)
        keep = ~met
        if box is not None:
            lo, hi = box
            inside = (q1 >= lo) & (q1 <= hi) & (q2 >= lo) & (q2 <= hi)
            keep &= inside
        p1, p2 = q1[keep], q2[keep]
        alive_idx = alive_idx[keep]
    event[alive_idx] = True
    est = float(event.mean())
    se = math.sqrt(max(est * (1.0 - est), 1e-300) / replicas)
    return est, se, event


def pair_stopped_paths(spec: DiffusionSpec, x: float, y: float, t: float,
                       dt: float, replicas: int, rng: RngStream,
                       checkpoint_steps: Sequence[int],
                       stop_at_meeting: bool = True) -> np.ndarray:
    """Simulate independent pairs stopped at their first meeting.

    Returns an array (replicas, 2*len(checkpoints) + 1): both coordinates at
    each checkpoint step (each in 1..n_steps) plus the (grid) meeting time,
    t if the pair never met.  After meeting both coordinates freeze at the
    merged midpoint.  stop_at_meeting=False is the negative-control variant
    that keeps paths moving after the meeting.
    """
    gen = rng.generator()
    n_steps = _steps(t, dt)
    cp = sorted(int(c) for c in checkpoint_steps)
    if cp and not 1 <= cp[0] <= cp[-1] <= n_steps:
        raise ValueError(f"checkpoint steps must lie in 1..{n_steps}")
    p1 = np.full(replicas, float(x))
    p2 = np.full(replicas, float(y))
    met = np.zeros(replicas, dtype=bool)
    meet_time = np.full(replicas, float(t))
    out = np.empty((replicas, 2 * len(cp) + 1), dtype=float)
    col = 0
    for k in range(1, n_steps + 1):
        active = ~met if stop_at_meeting else np.ones(replicas, dtype=bool)
        if np.any(active):
            z = gen.standard_normal((int(active.sum()), 2))
            u = gen.random(int(active.sum()))
            q1, q2, hit = _pair_step(spec, p1[active], p2[active],
                                     (k - 1) * dt, dt, z, u)
            newly = np.zeros(replicas, dtype=bool)
            newly[active] = hit & ~met[active]
            mid = 0.5 * (q1 + q2)
            if stop_at_meeting:
                q1 = np.where(hit, mid, q1)
                q2 = np.where(hit, mid, q2)
            p1[active], p2[active] = q1, q2
            meet_time[newly] = k * dt
            met |= newly
        while col < 2 * len(cp) and k == cp[col // 2]:
            out[:, col], out[:, col + 1] = p1, p2
            col += 2
    out[:, -1] = meet_time
    return out


def endpoint_sample(spec: DiffusionSpec, x: float, t: float, dt: float,
                    replicas: int, rng: RngStream,
                    sigma_scale: float = 1.0) -> np.ndarray:
    """Endpoint sample of the one-point motion (vectorized Euler).

    sigma_scale != 1 scales the normals: a deliberately broken fixture for
    marginal-law negative controls.
    """
    gen = rng.generator()
    pos = np.full(replicas, float(x))
    if t == 0.0:
        return pos
    n_steps = _steps(t, dt)
    for k in range(n_steps):
        z = sigma_scale * gen.standard_normal(replicas)
        pos, _ = _euler_proposal(spec, pos, z, k * dt, dt)
    return pos


def max_excursion_exceeds(spec: DiffusionSpec, u: float, eps: float, t: float,
                          dt: float, replicas: int, rng: RngStream,
                          jump_rate: float = 0.0):
    """Indicator sample of max_{r in [0,t]} |X(r) - u| > eps.

    Grid maxima plus a per-step bridge correction for the two barriers
    u +- eps, each a motionless neighbour of the path.  jump_rate > 0
    contaminates the path with jumps of size 2 eps (negative-control
    fixture for the small-time test).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gen = rng.generator()
    n_steps = _steps(t, dt)
    pos = np.full(replicas, float(u))
    exceeded = np.zeros(replicas, dtype=bool)
    lo, hi = u - eps, u + eps
    for k in range(n_steps):
        new, b = _euler_proposal(spec, pos, gen.standard_normal(replicas),
                                 k * dt, dt)
        if jump_rate > 0.0:
            jump = gen.random(replicas) < jump_rate * dt
            new = np.where(jump, new + 2.0 * eps, new)
        out = (new <= lo) | (new >= hi)
        inside = ~out & ~exceeded
        if np.any(inside):
            p0, p1 = pos[inside], new[inside]
            ends = (spec.diffusion(p0) if b is None else b[inside], 0.0)
            p_hi = np.exp(_bridge_exponent(spec, hi - p0, hi - p1, ends, dt))
            p_lo = np.exp(_bridge_exponent(spec, p0 - lo, p1 - lo, ends, dt))
            p_any = 1.0 - (1.0 - p_hi) * (1.0 - p_lo)
            out[inside] = gen.random(int(inside.sum())) < p_any
        exceeded |= out
        pos = new
    return exceeded


def cluster_count_sample(spec: DiffusionSpec, starts: np.ndarray,
                         duration: float, dt: float, replicas: int,
                         rng: RngStream, box: Optional[tuple] = None,
                         detection: str = "bridge"):
    """Distinct-cluster counts at the end of `duration` for coalescing paths
    from `starts`, one count per replica, plus the in-box indicator of the
    extreme paths (TP5-style conditioning event).

    Replica r draws from rng.child(r); CLUSTER_BLOCK replicas step in
    lockstep as the segments of one array, through the segmented
    propose_diffusion_step and collapse_proposals, so each replica's
    result is that of its own one-system run.  detection: "bridge"
    (production) or "off" (coalescence detector disabled; hostile fixture).
    """
    if detection not in ("bridge", "off"):
        raise ValueError(f"unknown detection mode {detection!r}")
    first = np.unique(np.asarray(starts, dtype=float))
    n_steps = _steps(duration, dt)
    counts = np.empty(replicas, dtype=np.int64)
    inbox = np.ones(replicas, dtype=bool)
    for lo in range(0, replicas, CLUSTER_BLOCK):
        gens = [rng.child(r).generator()
                for r in range(lo, min(lo + CLUSTER_BLOCK, replicas))]
        m = len(gens)
        pos = np.tile(first, m)
        seg = np.arange(m + 1) * first.size
        ok = inbox[lo:lo + m]           # a view: ok &= writes inbox
        for k in range(n_steps):
            prop, flags = propose_diffusion_step(spec, pos, k * dt, dt, gens,
                                                 segments=seg)
            if detection == "off" or not flags.any():
                pos = prop
            else:
                pos, groups, _ = collapse_proposals(prop, flags, seg)
                seg = np.searchsorted(groups, seg)
            if box is not None and pos.size:
                ok &= ((np.minimum.reduceat(pos, seg[:-1]) >= box[0])
                       & (np.maximum.reduceat(pos, seg[:-1]) <= box[1]))
        counts[lo:lo + m] = [np.unique(pos[a:b]).size
                             for a, b in zip(seg[:-1], seg[1:])]
    return counts, inbox
