"""Vectorized Monte Carlo kernels.

The coalescing stepper motions.step_system advances one system, or a
lockstep batch of independent pairs in which every pair keeps its own
generator.  The statistical battery needs 1e5-scale replica counts, so the
two-point and one-point simulations here draw for all replicas at once from
one stream.  Same mathematics as the stepper (Euler step + bridge
coalescence test); the test suite cross-checks the two code paths against
each other and against closed forms.  The cluster-count sampler loops over
replicas through the stepper's own proposal and collapse kernels.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NegativeDuration
from .motions import DiffusionSpec, collapse_proposals, propose_diffusion_step
from .rng import RngStream


def _steps(t: float, dt: float) -> int:
    n = int(round(t / dt))
    if n <= 0:
        raise NegativeDuration(f"horizon {t} shorter than dt {dt}")
    return n


def _pair_step(spec: DiffusionSpec, p1: np.ndarray, p2: np.ndarray,
               dt: float, z: np.ndarray, u: np.ndarray, use_bridge: bool):
    """Euler step of a batch of pairs p1 <= p2 from already drawn normals
    z (m, 2) and uniforms u (m,); returns (q1, q2, met).  A pair meets on a
    sign change of the gap or, if use_bridge, with the bridge-law
    probability under the frozen variance rate b(p1)^2 + b(p2)^2."""
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
    for _ in range(n_steps):
        m = alive_idx.size
        if m == 0:
            break
        z = gen.standard_normal((m, 2))
        u = gen.random(m)
        q1, q2, met = _pair_step(spec, p1, p2, dt, z, u, use_bridge)
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
                       use_bridge: bool = True,
                       stop_at_meeting: bool = True) -> np.ndarray:
    """Simulate independent pairs stopped at their first meeting.

    Returns an array (replicas, 2*len(checkpoints) + 1): both coordinates at
    each checkpoint step plus the (grid) meeting time, t if the pair never
    met.  After meeting both coordinates freeze at the merged midpoint.
    stop_at_meeting=False is the negative-control variant that keeps paths
    moving after the meeting.
    """
    gen = rng.generator()
    n_steps = _steps(t, dt)
    cp = sorted(int(c) for c in checkpoint_steps)
    p1 = np.full(replicas, float(x))
    p2 = np.full(replicas, float(y))
    met = np.zeros(replicas, dtype=bool)
    meet_time = np.full(replicas, float(t))
    out = np.empty((replicas, 2 * len(cp) + 1), dtype=float)
    col = 0
    if 0 in cp:
        out[:, 0], out[:, 1] = p1, p2
        col = 2
        cp = cp[1:]
    for k in range(1, n_steps + 1):
        active = ~met if stop_at_meeting else np.ones(replicas, dtype=bool)
        if np.any(active):
            z = gen.standard_normal((int(active.sum()), 2))
            u = gen.random(int(active.sum()))
            q1, q2, hit = _pair_step(spec, p1[active], p2[active], dt, z, u,
                                     use_bridge)
            newly = np.zeros(replicas, dtype=bool)
            newly[active] = hit & ~met[active]
            mid = 0.5 * (q1 + q2)
            if stop_at_meeting:
                q1 = np.where(hit, mid, q1)
                q2 = np.where(hit, mid, q2)
            p1[active], p2[active] = q1, q2
            meet_time[newly] = k * dt
            met |= newly
        if cp and k == cp[0]:
            out[:, col], out[:, col + 1] = p1, p2
            col += 2
            cp = cp[1:]
    out[:, -1] = meet_time
    return out


def endpoint_sample(spec: DiffusionSpec, x: float, t: float, dt: float,
                    replicas: int, rng: RngStream,
                    sigma_scale: float = 1.0) -> np.ndarray:
    """Endpoint sample of the one-point motion (vectorized Euler).

    sigma_scale != 1 is a deliberately broken fixture for marginal-law
    negative controls.
    """
    gen = rng.generator()
    pos = np.full(replicas, float(x))
    if t == 0.0:
        return pos
    n_steps = _steps(t, dt)
    sdt = math.sqrt(dt)
    for _ in range(n_steps):
        z = gen.standard_normal(replicas)
        pos += spec.drift(pos) * dt + sigma_scale * spec.diffusion(pos) * sdt * z
    return pos


def max_excursion_exceeds(spec: DiffusionSpec, u: float, eps: float, t: float,
                          dt: float, replicas: int, rng: RngStream,
                          bridge_correction: bool = True,
                          jump_rate: float = 0.0):
    """Indicator sample of max_{r in [0,t]} |X(r) - u| > eps.

    Grid maxima plus an optional per-step bridge correction for the two
    barriers u +- eps.  jump_rate > 0 contaminates the path with jumps of
    size 2 eps (negative-control fixture for the small-time test).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gen = rng.generator()
    n_steps = _steps(t, dt)
    pos = np.full(replicas, float(u))
    exceeded = np.zeros(replicas, dtype=bool)
    lo, hi = u - eps, u + eps
    sdt = math.sqrt(dt)
    for _ in range(n_steps):
        z = gen.standard_normal(replicas)
        b = spec.diffusion(pos)
        new = pos + spec.drift(pos) * dt + b * sdt * z
        if jump_rate > 0.0:
            jump = gen.random(replicas) < jump_rate * dt
            new = np.where(jump, new + 2.0 * eps, new)
        out = (new <= lo) | (new >= hi)
        if bridge_correction:
            inside = ~out & ~exceeded
            if np.any(inside):
                # gap to a fixed barrier diffuses at variance rate b^2
                rate = b[inside] ** 2
                g_hi0 = hi - pos[inside]
                g_hi1 = hi - new[inside]
                g_lo0 = pos[inside] - lo
                g_lo1 = new[inside] - lo
                p_hi = np.exp(-2.0 * g_hi0 * g_hi1 / (rate * dt))
                p_lo = np.exp(-2.0 * g_lo0 * g_lo1 / (rate * dt))
                p_any = 1.0 - (1.0 - p_hi) * (1.0 - p_lo)
                uu = gen.random(int(inside.sum()))
                cross = np.zeros(replicas, dtype=bool)
                cross[inside] = uu < p_any
                out |= cross
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

    detection: "bridge" (production), "sign" (sign changes only) or "off"
    (coalescence detector disabled; hostile fixture).
    """
    if detection not in ("bridge", "sign", "off"):
        raise ValueError(f"unknown detection mode {detection!r}")
    starts = np.asarray(starts, dtype=float)
    n_steps = _steps(duration, dt)
    counts = np.empty(replicas, dtype=np.int64)
    inbox = np.ones(replicas, dtype=bool)
    for r in range(replicas):
        gen = rng.child(r).generator()
        pos = np.unique(starts)
        ok = True
        for _ in range(n_steps):
            prop, flags = propose_diffusion_step(
                spec, pos, 0.0, dt, gen, use_bridge=detection == "bridge")
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
