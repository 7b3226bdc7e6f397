"""Elements of the flow space: envelope evaluation, shifts, cocycle, axioms.

A FlowElement is an evaluable family f(s,x;t) of order-preserving mappings.
Two production backends exist: SkeletonEnvelope evaluates the lower envelope
of a built skeleton (binary search at s, merge-chain follow to t), and
AnalyticFlow is the closed-form example built from the unit-cell
homeomorphism g(u) = u/(1+u).  The analytic backend computes in exact
rational arithmetic so the group law, composition and cocycle identities
hold with zero tolerance.  ConstantFlow is a hostile fixture: it satisfies
composition and monotonicity but has no fresh points, so the fresh-origin
axiom must fail on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import AboveRange
from .reports import TestReport, exact_report
from .rng import RngStream
from .skeleton import SkeletonFlow, max_window_gap


def _g(u: Fraction) -> Fraction:
    return u / (1 + u)


def _g_inv(v: Fraction) -> Fraction:
    return v / (1 - v)


@dataclass(frozen=True)
class AnalyticFlow:
    """f(s,x;t) = floor(x) + g(t - s + g^{-1}(x - floor(x)))."""

    window: tuple = (-2.0, 3.0)
    lattice_step: Fraction = Fraction(1, 64)

    def eval(self, s, x, t):
        s, x, t = Fraction(s), Fraction(x), Fraction(t)
        cell = math.floor(x)
        age = (t - s) + _g_inv(x - cell)
        return cell + _g(age)

    def range_lattice(self):
        lo, hi = Fraction(self.window[0]), Fraction(self.window[1])
        step = self.lattice_step
        n = int((hi - lo) / step)
        return [lo + k * step for k in range(n + 1)]


@dataclass(frozen=True)
class ConstantFlow:
    """Hostile fixture: f(s,x;t) = x.  Its range is everything, so there are
    no fresh points and F4 cannot hold."""

    window: tuple = (-2.0, 3.0)
    lattice_step: Fraction = Fraction(1, 64)


@dataclass(frozen=True)
class SkeletonEnvelope:
    skeleton: SkeletonFlow


Backend = Union[AnalyticFlow, ConstantFlow, SkeletonEnvelope]


@dataclass(frozen=True)
class EvalQuery:
    s: float
    x: float
    t: float

    def __post_init__(self):
        if self.s > self.t:
            raise ValueError(f"need s <= t, got s={self.s}, t={self.t}")


@dataclass(frozen=True)
class FlowElement:
    backend: Backend
    shift_offset: Fraction = Fraction(0)


def skeleton_flow_element(skel: SkeletonFlow) -> FlowElement:
    return FlowElement(SkeletonEnvelope(skel))


def analytic_flow_element(window=(-2.0, 3.0),
                          lattice_step=Fraction(1, 64)) -> FlowElement:
    return FlowElement(AnalyticFlow(window=window, lattice_step=lattice_step))


# ---------------------------------------------------------------------------
# evaluation


def _skeleton_query(f: FlowElement, q: EvalQuery):
    """(skeleton, ids, min_act, k_s, k_t) for a skeleton-backed element:
    ids and min_act list the clusters at or above x at the shifted s in
    position order (ties continue the skeleton trajectory through x), k_s
    and k_t are the grid steps of the shifted s and t."""
    skel = f.backend.skeleton
    k_s = skel.snap_index(float(Fraction(q.s) + f.shift_offset))
    k_t = skel.snap_index(float(Fraction(q.t) + f.shift_offset))
    ids, pos, minact = skel.clusters_at_index(k_s)
    idx = int(np.searchsorted(pos, float(q.x), side="left"))
    if idx >= pos.size:
        raise AboveRange(f"no skeleton trajectory >= {q.x} at step {k_s}")
    return skel, ids[idx:], minact[idx:], k_s, k_t


def evaluate(f: FlowElement, q: EvalQuery):
    """f(s,x;t) with the element's shift offset applied to (s, t)."""
    off = f.shift_offset
    b = f.backend
    if isinstance(b, AnalyticFlow):
        return b.eval(Fraction(q.s) + off, q.x, Fraction(q.t) + off)
    if isinstance(b, ConstantFlow):
        return q.x
    skel, ids, _, _, k_t = _skeleton_query(f, q)
    return skel.value(int(ids[0]), k_t)


def evaluate_with_id(f: FlowElement, q: EvalQuery):
    """(value, trajectory id) pair; for the analytic backend the id is the
    integer cell the trajectory was born in."""
    if isinstance(f.backend, SkeletonEnvelope):
        skel, ids, _, _, k_t = _skeleton_query(f, q)
        tid = int(ids[0])
        return skel.value(tid, k_t), skel.resolve(tid, k_t)
    v = evaluate(f, q)
    return v, math.floor(v)


def shift(f: FlowElement, h) -> FlowElement:
    """theta_h: evaluate(shift(f,h), (s,x,t)) == evaluate(f, (s+h,x,t+h))."""
    return FlowElement(f.backend, f.shift_offset + Fraction(h))


def cocycle(t: float, f: FlowElement, x):
    """phi(t, f, x) = f(0, x; t)."""
    if t < 0:
        raise ValueError("cocycle time must be nonnegative")
    return evaluate(f, EvalQuery(0.0, x, t))


def range_at(f: FlowElement, s: float) -> np.ndarray:
    """Range of the flow at time s: values f(r, x; s) over r < s, as a sorted
    array (finite representation per backend)."""
    b = f.backend
    if isinstance(b, AnalyticFlow):
        return np.array([float(p) for p in b.range_lattice()
                         if p.denominator != 1], dtype=float)
    if isinstance(b, ConstantFlow):
        return np.array([float(p) for p in
                         AnalyticFlow(b.window, b.lattice_step).range_lattice()],
                        dtype=float)
    skel = b.skeleton
    k = skel.snap_index(float(Fraction(s) + f.shift_offset))
    return np.sort(skel.range_values_at(k))


def is_fresh(f: FlowElement, s: float, x) -> bool:
    """Fresh point test at time s: not in the flow range (machine equality
    for the skeleton, integrality for the analytic example)."""
    b = f.backend
    if isinstance(b, AnalyticFlow):
        return Fraction(x).denominator == 1
    if isinstance(b, ConstantFlow):
        return False
    vals = range_at(f, s)
    return not bool(np.any(vals == float(x)))


# ---------------------------------------------------------------------------
# measurability cross-check (the f(s,x;t) < c witness relation)


def find_lt_witness(f: FlowElement, q: EvalQuery, c):
    """Search for (p, u) with p < s, f(p,u;s) >= x and f(p,u;t) < c.

    Witnesses come from skeleton starts and same-trajectory points one grid
    step earlier; for clusters born exactly at s the continuum relation has
    no witness on the finite grid (documented completeness gap).
    """
    b = f.backend
    if isinstance(b, ConstantFlow):
        return (q.s - 1.0, q.x) if q.x < c else None
    if isinstance(b, AnalyticFlow):
        return _analytic_lt_witness(b, f.shift_offset, q, c)
    skel, ids, minact, k_s, k_t = _skeleton_query(f, q)
    for j, a in zip(ids.tolist(), minact.tolist()):
        if not skel.value(j, k_t) < c:
            # monotone in j: higher clusters only end higher
            break
        if a < k_s:
            # report in unshifted coordinates
            p = float(skel.times[k_s - 1] - float(f.shift_offset))
            return (p, skel.value(j, k_s - 1))
    return None


def _analytic_lt_witness(b: AnalyticFlow, off: Fraction, q: EvalQuery, c):
    s = Fraction(q.s) + off
    t = Fraction(q.t) + off
    x = Fraction(q.x)
    v = b.eval(s, q.x, t)
    c_frac = None if math.isinf(float(c)) else Fraction(c)
    if c_frac is not None and not v < c_frac:
        return None
    cell = math.floor(x)
    age0 = _g_inv(x - cell)
    if age0 > 0:
        step = min(Fraction(b.lattice_step), age0 / 2)
        p = s - step
        u = cell + _g(age0 - step)
        return (float(p - off), u)
    # born exactly at s: construct a strictly earlier fresh-ish witness
    n = cell
    if c_frac is None or c_frac - n >= 1:
        step = Fraction(b.lattice_step)
        w = step
    else:
        margin = _g_inv(c_frac - n) - (t - s)
        step = margin / 4
        w = margin / 4
    p = s - step
    u = n + _g(w)
    return (float(p - off), u)


def characterize_lt(f: FlowElement, q: EvalQuery, c) -> bool:
    """True iff a witness per the measurability relation exists."""
    return find_lt_witness(f, q, c) is not None


# ---------------------------------------------------------------------------
# axiom battery


DENSITY_TIMES, DENSITY_MIN_AGE = 8, 0.01  # F2: times from t0 + age on
F3_POINTS, F3_LADDER = 24, 5               # F3: probes, step dx / 2**ladder


@dataclass(frozen=True)
class AxiomPlan:
    n_composition: int = 2000
    n_monotone: int = 2000
    n_f4_points: int = 200
    s_hi: Optional[float] = None


def check_flow_axioms(f: FlowElement, rng: RngStream,
                      plan: AxiomPlan = AxiomPlan()) -> list:
    """F1 composition and F5 monotonicity exactly; F2 density, F3 modulus and
    F4 fresh origins on the finite structure.  Failures are reported."""
    gen = rng.generator()
    b = f.backend
    reports = []
    skel = b.skeleton if isinstance(b, SkeletonEnvelope) else None
    if skel is not None:
        t0, t1 = skel.config.t0, skel.config.t1
        s_hi = plan.s_hi if plan.s_hi is not None else t0 + 0.75 * (t1 - t0)
        times = skel.times

        def draw_times3():
            ks = np.sort(gen.integers(skel.snap_index(t0),
                                      skel.snap_index(s_hi) + 1, size=3))
            return [float(times[k]) for k in ks]
        dx = skel.config.dx
        f3_tol = 4.0 * dx + 3.0 * math.sqrt(skel.config.dt)
        lattice = skel.config.lattice()
    else:
        def draw_times3():
            ks = np.sort(gen.integers(0, 1025, size=3))
            return [float(Fraction(int(k), 512)) for k in ks]
        dx = float(b.lattice_step)
        f3_tol = 4.0 * dx
        lattice = np.array([float(p) for p in
                            AnalyticFlow(b.window, b.lattice_step).range_lattice()])
    eps_d = 8.0 * dx

    def draw_x():
        lo, hi = (skel.config.window if skel is not None else b.window)
        span = hi - lo
        u = float(gen.integers(0, 4097)) / 4096.0
        return lo + span * (0.1 + 0.8 * u)    # the middle 80% of the window

    # F1: f(s, f(r,x;s); t) == f(r,x;t) exactly
    viol = 0
    for _ in range(plan.n_composition):
        r, s, t = draw_times3()
        x = draw_x()
        y = evaluate(f, EvalQuery(r, x, s))
        lhs = evaluate(f, EvalQuery(s, y, t))
        rhs = evaluate(f, EvalQuery(r, x, t))
        if lhs != rhs:
            viol += 1
    reports.append(exact_report("F1_composition", viol, plan.n_composition))

    # F5: monotone in x, exact
    viol = 0
    for _ in range(plan.n_monotone):
        r, s, t = draw_times3()
        x, y = sorted((draw_x(), draw_x()))
        if not evaluate(f, EvalQuery(s, x, t)) <= evaluate(f, EvalQuery(s, y, t)):
            viol += 1
    reports.append(exact_report("F5_monotone", viol, plan.n_monotone))

    # F2: strict range is eps_d-dense on the interior window
    worst = 0.0
    if skel is not None:
        k_lo = skel.snap_index(t0 + DENSITY_MIN_AGE)
        ks = np.unique(np.linspace(k_lo, skel.snap_index(s_hi),
                                   DENSITY_TIMES).astype(int))
        c, cp = skel.config.window
        lo, hi = c + eps_d, cp - eps_d
        for k in ks:
            vals = np.sort(skel.range_values_at(int(k)))
            worst = max(worst, max_window_gap(vals, lo, hi))
        n_times = len(ks)
    else:
        vals = range_at(f, 0.0)
        lo, hi = b.window[0] + eps_d, b.window[1] - eps_d
        worst = max_window_gap(vals, lo, hi)
        n_times = 1
    reports.append(TestReport(
        name="F2_range_density", statistic=worst, reference=eps_d,
        replicas=n_times, passed=bool(worst <= eps_d),
        rule="max interior range gap <= eps_d",
        notes=f"eps_d={eps_d}, interior [{lo}, {hi}]"))

    # F3: right-modulus at fresh points (finite surrogate for right
    # continuity; median over sampled points, the per-point step is
    # heavy-tailed on a grid)
    steps = []
    for _ in range(F3_POINTS):
        r, s, t = draw_times3()
        tries = 0
        x = None
        while tries < 50:
            cand = float(lattice[gen.integers(0, lattice.size)])
            lo_w, hi_w = (skel.config.window if skel is not None else b.window)
            if cand < lo_w + 0.05 * (hi_w - lo_w) or cand > hi_w - 0.2 * (hi_w - lo_w):
                tries += 1
                continue
            if is_fresh(f, s, cand):
                x = cand
                break
            tries += 1
        if x is None:
            continue
        base = evaluate(f, EvalQuery(s, x, t))
        delta = dx / (2 ** F3_LADDER)
        stepped = evaluate(f, EvalQuery(s, x + delta, t))
        steps.append(abs(float(stepped) - float(base)))
    med = float(np.median(steps)) if steps else 0.0
    reports.append(TestReport(
        name="F3_right_modulus", statistic=med, reference=f3_tol,
        replicas=len(steps), passed=bool(med <= f3_tol),
        rule="median right step at fresh points <= tolerance",
        notes=("finite-lattice surrogate for right continuity; flagged: no "
               "limit exists on a grid, tolerance is an engineering choice")))

    # F4: every evaluation coincides with a trajectory from a fresh origin
    # (the axiom quantifies over s < t, so degenerate draws are rerolled)
    viol = 0
    checked = 0
    for _ in range(plan.n_f4_points):
        r, s, t = draw_times3()
        if s == t:
            continue
        checked += 1
        x = draw_x()
        if not _f4_witness_ok(f, EvalQuery(s, x, t)):
            viol += 1
    reports.append(exact_report(
        "F4_fresh_origin", viol, checked,
        notes="witness checked exactly via merge log / integer origin"))
    return reports


def _f4_witness_ok(f: FlowElement, q: EvalQuery) -> bool:
    b = f.backend
    if isinstance(b, ConstantFlow):
        return False  # no fresh points anywhere
    if isinstance(b, AnalyticFlow):
        v = evaluate(f, q)
        cell = math.floor(v)
        frac = Fraction(v) - cell
        if q.t > q.s and frac == 0:
            return False
        birth_age = _g_inv(frac)
        r = Fraction(q.t) - birth_age  # unshifted coordinates
        check = b.eval(Fraction(r) + f.shift_offset, cell,
                       Fraction(q.t) + f.shift_offset)
        return (r < q.t or (r == q.t and q.t == q.s)) and check == v
    skel, ids, _, _, k_t = _skeleton_query(f, q)
    value = skel.value(int(ids[0]), k_t)
    # a live id never merged at injection, so it has a history of its own
    origin = skel.resolve(int(ids[0]), k_t)
    k_act = int(skel.act[origin])
    u0 = float(skel.u0[origin])
    rng_vals = skel.range_values_at(k_act)
    if np.any(rng_vals == u0):
        return False
    return skel.value(origin, k_t) == value
