"""Skeleton flows from a finite space-time grid.

The countable dense skeleton of the continuum construction is replaced by a
finite product grid: start rows (a space lattice over the window) injected at
configured times.  Trajectories are frozen at their start value before
activation, co-evolve under the coalescing n-point stepper afterwards, and
share storage through their absorbing trajectory once merged.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, OffGridTime, OutOfHorizon
from .motions import (DiffusionSpec, HarrisSpec, MotionModel,
                      collapse_proposals, propose_diffusion_step,
                      propose_harris_step, scale_function)
from .reports import TestReport, bound_report, exact_report
from .rng import RngStream

_SNAP_TOL = 1e-9
_MAGIC = b"CFSK"
_FORMAT_VERSION = 1


def model_to_dict(model: MotionModel) -> dict:
    if isinstance(model, HarrisSpec):
        return {"kind": "harris", "gamma": model.gamma,
                "merge_gap": model.merge_gap}
    if model.kind == "arratia":
        return {"kind": "arratia"}
    if model.kind == "ou":
        return {"kind": "ou", "rate": model.rate, "sigma": model.sigma}
    raise ConfigError("generic diffusion specs are API-only (callables are "
                      "not serializable)")


def model_from_dict(d: dict) -> MotionModel:
    kind = d["kind"]
    if kind == "arratia":
        return DiffusionSpec.arratia()
    if kind == "ou":
        return DiffusionSpec.ornstein_uhlenbeck(d["rate"], d["sigma"])
    if kind == "harris":
        return HarrisSpec(gamma=d["gamma"], merge_gap=d.get("merge_gap", 1e-9))
    raise ConfigError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class SkeletonConfig:
    """Grid geometry: start rows are start_times x {c, c+dx, ..., c'}."""

    window: tuple
    dx: float
    t0: float
    t1: float
    dt: float
    start_times: tuple
    model: MotionModel
    observe: Union[str, tuple] = "all"   # "all" or times whose cluster sets are recorded
    extra_starts: tuple = ()             # explicit (s, u) points beyond the product grid

    def __post_init__(self):
        c, cp = self.window
        if not (cp >= c and self.dx > 0 and self.dt > 0 and self.t1 > self.t0):
            raise ConfigError("need c' >= c, dx > 0, dt > 0, t1 > t0")
        if len(self.start_times) == 0:
            raise ConfigError("need at least one start row")
        for s in self.start_times:
            if s < self.t0 - _SNAP_TOL or s > self.t1 + _SNAP_TOL:
                raise ConfigError(f"start time {s} outside horizon")
            k = round((s - self.t0) / self.dt)
            if abs(self.t0 + k * self.dt - s) > _SNAP_TOL:
                raise ConfigError(f"start time {s} not on the dt grid")
        if tuple(sorted(self.start_times)) != tuple(self.start_times):
            raise ConfigError("start_times must be sorted")

    @staticmethod
    def rows(window, dx, t0, t1, dt, model, row_period=None, start_times=None,
             observe="all", extra_starts=()) -> "SkeletonConfig":
        """Convenience constructor; row_period=None puts a row at every grid
        time (the finite stand-in for time-density of the rational skeleton)."""
        if start_times is None:
            if row_period is None:
                row_period = dt
            n = int(math.floor((t1 - t0) / row_period + _SNAP_TOL))
            start_times = tuple(t0 + i * row_period for i in range(n + 1))
        return SkeletonConfig(window=tuple(window), dx=dx, t0=t0, t1=t1, dt=dt,
                              start_times=tuple(start_times), model=model,
                              observe=observe, extra_starts=tuple(extra_starts))

    @property
    def n_steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def lattice(self) -> np.ndarray:
        c, cp = self.window
        n = int(math.floor((cp - c) / self.dx + _SNAP_TOL))
        return c + self.dx * np.arange(n + 1)

    def snap_index(self, t: float) -> int:
        k = round((t - self.t0) / self.dt)
        if k < 0 or k > self.n_steps:
            raise OutOfHorizon(f"time {t} outside [{self.t0}, {self.t1}]")
        if abs(self.t0 + k * self.dt - t) > _SNAP_TOL:
            raise OffGridTime(f"time {t} not on the dt grid")
        return int(k)

    def to_dict(self) -> dict:
        return {
            "window": list(self.window), "dx": self.dx, "t0": self.t0,
            "t1": self.t1, "dt": self.dt,
            "start_times": list(self.start_times),
            "model": model_to_dict(self.model),
            "observe": (self.observe if isinstance(self.observe, str)
                        else list(self.observe)),
            "extra_starts": [list(p) for p in self.extra_starts],
        }

    @staticmethod
    def from_dict(d: dict) -> "SkeletonConfig":
        observe = d.get("observe", "all")
        if not isinstance(observe, str):
            observe = tuple(observe)
        return SkeletonConfig(
            window=tuple(d["window"]), dx=d["dx"], t0=d["t0"], t1=d["t1"],
            dt=d["dt"], start_times=tuple(d["start_times"]),
            model=model_from_dict(d["model"]), observe=observe,
            extra_starts=tuple(tuple(p) for p in d.get("extra_starts", [])))


class SkeletonFlow:
    """Built skeleton: per-trajectory histories with merge sharing.

    A trajectory's own history covers steps [act, merge_step); from its merge
    step on, positions are read through the absorbing trajectory, so merged
    tails are stored exactly once and equality after merging is exact.
    """

    def __init__(self, config: SkeletonConfig, seed: int, path: tuple,
                 u0: np.ndarray, act: np.ndarray, parent: np.ndarray,
                 merge_step: np.ndarray, hist: list,
                 snapshots: Optional[dict] = None):
        self.config = config
        self.seed = seed
        self.rng_path = tuple(path)
        self.times = config.times()
        self.u0 = u0
        self.act = act
        self.parent = parent
        self.merge_step = merge_step
        self.hist = hist
        self.snapshots = snapshots or {}
        self._lazy_cache: dict = {}

    # -- basic geometry ----------------------------------------------------

    @property
    def n_traj(self) -> int:
        return int(self.u0.size)

    @property
    def n_steps(self) -> int:
        return int(self.times.size - 1)

    def snap_index(self, t: float) -> int:
        return self.config.snap_index(t)

    def start_of(self, tid: int):
        return float(self.times[self.act[tid]]), float(self.u0[tid])

    # -- trajectory resolution ----------------------------------------------

    def resolve(self, tid: int, k: int) -> int:
        """Live trajectory id carrying tid's position at step k."""
        j = int(tid)
        while self.merge_step[j] >= 0 and k >= self.merge_step[j]:
            j = int(self.parent[j])
        return j

    def value(self, tid: int, k: int) -> float:
        """Y_{(s,u)} at grid step k; frozen at u before activation."""
        if k < self.act[tid]:
            return float(self.u0[tid])
        j = self.resolve(tid, k)
        return float(self.hist[j][k - self.act[j]])

    def series(self, tid: int, k_from: int, k_to: int) -> np.ndarray:
        """Positions of tid at steps k_from..k_to inclusive."""
        out = np.empty(k_to - k_from + 1, dtype=float)
        for i, k in enumerate(range(k_from, k_to + 1)):
            out[i] = self.value(tid, k)
        return out

    def origin_of(self, tid: int) -> int:
        """First ancestor with a real history (skips starters that landed
        exactly on an occupied position and merged at injection)."""
        j = int(tid)
        while len(self.hist[j]) == 0:
            j = int(self.parent[j])
        return j

    def merges(self) -> list:
        """(absorbed id, absorbing id, merge time), in id order."""
        out = []
        for i in range(self.n_traj):
            m = int(self.merge_step[i])
            if m >= 0:
                out.append((i, int(self.parent[i]), float(self.times[m])))
        return out

    # -- cluster views -------------------------------------------------------

    def clusters_at_index(self, k: int):
        """(ids, positions, min_act) of live clusters at step k, sorted by
        position; recorded at build time for observed steps, reconstructed
        otherwise."""
        if k in self.snapshots:
            return self.snapshots[k]
        if k in self._lazy_cache:
            return self._lazy_cache[k]
        reps: dict = {}
        for i in range(self.n_traj):
            if self.act[i] > k:
                continue
            j = self.resolve(i, k)
            cur = reps.get(j)
            a = int(self.act[i])
            reps[j] = a if cur is None else min(cur, a)
        ids = np.fromiter(reps.keys(), dtype=np.int64)
        pos = np.array([self.hist[j][k - self.act[j]] for j in ids], dtype=float)
        minact = np.fromiter(reps.values(), dtype=np.int64)
        order = np.argsort(pos, kind="stable")
        snap = (ids[order], pos[order], minact[order])
        self._lazy_cache[k] = snap
        return snap

    def positions_at(self, s: float):
        """Sorted (trajectory id, position) pairs of the merge-class
        representatives active at grid time s."""
        k = self.snap_index(s)
        ids, pos, _ = self.clusters_at_index(k)
        return [(int(i), float(p)) for i, p in zip(ids, pos)]

    def range_values_at(self, k: int) -> np.ndarray:
        """Positions of clusters containing a trajectory activated strictly
        before step k (the flow range, Definition F2 reads r < s)."""
        ids, pos, minact = self.clusters_at_index(k)
        return pos[minact < k]

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lens = np.array([len(h) for h in self.hist], dtype=np.int64)
        flat = (np.concatenate([np.asarray(h, dtype=float) for h in self.hist])
                if self.n_traj else np.zeros(0))
        header = {
            "format": "coalflow-skeleton",
            "version": _FORMAT_VERSION,
            "config": self.config.to_dict(),
            "seed": self.seed,
            "rng_path": list(self.rng_path),
            "n_traj": self.n_traj,
            "n_steps": self.n_steps,
        }
        hb = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _FORMAT_VERSION, len(hb)))
            fh.write(hb)
            for arr, dtype in ((self.u0, "<f8"), (self.act, "<i8"),
                               (self.parent, "<i8"), (self.merge_step, "<i8"),
                               (lens, "<i8"), (flat, "<f8")):
                a = np.asarray(arr).astype(dtype)
                fh.write(struct.pack("<Q", a.nbytes))
                fh.write(a.tobytes())
        return path

    @staticmethod
    def load(path) -> "SkeletonFlow":
        """Read a snapshot written by save; a truncated or inconsistent file
        is a ConfigError."""
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise ConfigError("not a coalflow skeleton snapshot")
            version, hlen = struct.unpack("<II", _read_exact(fh, 8))
            if version != _FORMAT_VERSION:
                raise ConfigError(f"unsupported snapshot version {version}")
            try:
                header = json.loads(_read_exact(fh, hlen).decode())
                cfg = SkeletonConfig.from_dict(header["config"])
                seed, rng_path = header["seed"], tuple(header["rng_path"])
                n_traj = header["n_traj"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"corrupt snapshot header: {exc}") from exc
            arrays = []
            for dtype in ("<f8", "<i8", "<i8", "<i8", "<i8", "<f8"):
                (nbytes,) = struct.unpack("<Q", _read_exact(fh, 8))
                if nbytes % 8:
                    raise ConfigError(f"snapshot block of {nbytes} bytes")
                arrays.append(np.frombuffer(_read_exact(fh, nbytes),
                                            dtype=dtype))
            if fh.read(1):
                raise ConfigError("trailing bytes after snapshot")
        u0, act, parent, merge_step, lens, flat = arrays
        if (any(a.size != n_traj for a in arrays[:5])
                or np.any(lens < 0) or int(lens.sum()) != flat.size):
            raise ConfigError("snapshot block lengths disagree")
        hist, off = [], 0
        for ln in lens:
            hist.append(flat[off:off + ln].copy())
            off += int(ln)
        return SkeletonFlow(cfg, seed, rng_path,
                            u0.copy(), act.astype(np.int64).copy(),
                            parent.astype(np.int64).copy(),
                            merge_step.astype(np.int64).copy(), hist)


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ConfigError(f"truncated snapshot: wanted {n} bytes, "
                          f"got {len(data)}")
    return data


def build_skeleton(config: SkeletonConfig, rng: RngStream) -> SkeletonFlow:
    """Run the grid injection + coalescing stepping loop.

    At each start time the new row is activated (history before the start is
    the constant start value) and thereafter co-evolves with the running
    system; a starter landing exactly on an occupied position merges at
    injection.
    """
    model = config.model
    lattice = config.lattice()
    K = config.n_steps
    times = config.times()
    row_steps: dict = {}
    for s in config.start_times:
        row_steps.setdefault(config.snap_index(s), []).append(None)
    extras: dict = {}
    for (s, u) in config.extra_starts:
        extras.setdefault(config.snap_index(s), []).append(float(u))
    if isinstance(config.observe, str):
        observe = None if config.observe == "all" else set()
    else:
        observe = {config.snap_index(t) for t in config.observe}

    gen = rng.generator()
    time_drift = getattr(model, "time_drift", None)
    is_harris = isinstance(model, HarrisSpec)

    u0: list = []
    act: list = []
    parent: list = []
    merge_step: list = []
    hist: list = []

    live_pos = np.zeros(0, dtype=float)
    live_id: list = []
    live_minact: list = []
    snapshots: dict = {}

    def new_tid(u, k):
        tid = len(u0)
        u0.append(float(u))
        act.append(k)
        parent.append(tid)
        merge_step.append(-1)
        hist.append([])
        return tid

    def inject_one(k, u):
        nonlocal live_pos
        tid = new_tid(u, k)
        idx = int(np.searchsorted(live_pos, u))
        if idx < live_pos.size and live_pos[idx] == u:
            # landed on the skeleton: merge immediately, keep SP1 vacuous
            parent[tid] = live_id[idx]
            merge_step[tid] = k
            live_minact[idx] = min(live_minact[idx], k)
        else:
            live_pos = np.insert(live_pos, idx, u)
            live_id.insert(idx, tid)
            live_minact.insert(idx, k)
            hist[tid].append(u)

    def inject(k):
        nonlocal live_pos
        if k in row_steps:
            # whole row at once: lattice values are distinct, so only
            # collisions against the running system need per-point handling
            base = len(u0)
            m_row = lattice.size
            tids = list(range(base, base + m_row))
            u0.extend(lattice.tolist())
            act.extend([k] * m_row)
            parent.extend(tids)
            merge_step.extend([-1] * m_row)
            hist.extend([] for _ in range(m_row))
            if live_pos.size:
                idx = np.searchsorted(live_pos, lattice)
                safe = np.minimum(idx, live_pos.size - 1)
                collide = (idx < live_pos.size) & (live_pos[safe] == lattice)
            else:
                collide = np.zeros(lattice.size, dtype=bool)
            if collide.any():
                for j in np.nonzero(collide)[0]:
                    tid = tids[int(j)]
                    at = int(np.searchsorted(live_pos, lattice[int(j)]))
                    parent[tid] = live_id[at]
                    merge_step[tid] = k
                    live_minact[at] = min(live_minact[at], k)
            fresh = ~collide
            fresh_tids = [t for t, f in zip(tids, fresh) if f]
            concat_pos = np.concatenate([live_pos, lattice[fresh]])
            concat_id = live_id + fresh_tids
            concat_minact = live_minact + [k] * len(fresh_tids)
            order = np.argsort(concat_pos, kind="stable")
            live_pos = concat_pos[order]
            live_id[:] = [concat_id[o] for o in order]
            live_minact[:] = [concat_minact[o] for o in order]
            for tid, u in zip(fresh_tids, lattice[fresh].tolist()):
                hist[tid].append(u)
        for u in extras.get(k, ()):
            inject_one(k, u)

    def advance(k):
        nonlocal live_pos
        n = live_pos.size
        if n == 0:
            return
        if is_harris:
            prop, flags = propose_harris_step(model, live_pos, config.dt, gen)
        else:
            prop, flags = propose_diffusion_step(
                model, live_pos, float(times[k]), config.dt, gen,
                time_drift=time_drift)
        if n >= 2 and flags.any():
            new_pos, starts, counts = collapse_proposals(prop, flags)
            new_id, new_minact = [], []
            pos_list = new_pos.tolist()
            for gi, (gs, gc) in enumerate(zip(starts.tolist(), counts.tolist())):
                if gc == 1:
                    lid = live_id[gs]
                    new_id.append(lid)
                    new_minact.append(live_minact[gs])
                    hist[lid].append(pos_list[gi])
                else:
                    ids = live_id[gs:gs + gc]
                    keep = min(ids)
                    for aid in ids:
                        if aid != keep:
                            parent[aid] = keep
                            merge_step[aid] = k + 1
                    hist[keep].append(pos_list[gi])
                    new_id.append(keep)
                    new_minact.append(min(live_minact[gs:gs + gc]))
            live_pos = new_pos
            live_id[:] = new_id
            live_minact[:] = new_minact
        else:
            live_pos = prop
            for lid, v in zip(live_id, prop.tolist()):
                hist[lid].append(v)

    def snapshot(k):
        if observe is not None and k not in observe:
            return
        snapshots[k] = (np.array(live_id, dtype=np.int64), live_pos.copy(),
                        np.array(live_minact, dtype=np.int64))

    inject(0)
    snapshot(0)
    for k in range(K):
        advance(k)
        inject(k + 1)
        snapshot(k + 1)

    flow = SkeletonFlow(
        config, rng.seed, rng.path,
        np.asarray(u0, dtype=float), np.asarray(act, dtype=np.int64),
        np.asarray(parent, dtype=np.int64),
        np.asarray(merge_step, dtype=np.int64),
        [np.asarray(h, dtype=float) for h in hist],
        snapshots=snapshots)
    return flow


# ---------------------------------------------------------------------------
# SP property checks (Lemma on skeleton versions: SP1..SP5)


@dataclass(frozen=True)
class SpCheckPlan:
    eps_d: Optional[float] = None        # SP3 tolerance, default 8*dx
    min_age: float = 0.01                # SP3 sampled times start at t0 + min_age
    n_density_times: int = 12
    interior_margin: Optional[float] = None
    n_sp2_samples: int = 64
    n_sp2_times: int = 8
    n_sp4_samples: int = 48
    sp4_duration: float = 0.5
    sp4_span: float = 0.5
    n_sp5_starts: int = 21
    sp5_ladder: int = 4


def cluster_count_bound(model: MotionModel, a: float, b: float,
                        duration: float, window) -> float:
    """1 + m(b) - m(a) with the meeting-time scale of the stepped model:
    driftless models divide by delta = inf of b over the window, drifting
    ones use the drift-removing scale m."""
    if isinstance(model, HarrisSpec):
        # no closed scale; Brownian comparison with unit diffusion
        return 1.0 + (b - a) / math.sqrt(math.pi * duration)
    if not model.has_drift:
        lo, hi = window
        delta = float(np.min(model.diffusion(np.linspace(lo, hi, 257))))
        return 1.0 + (b - a) / (math.sqrt(math.pi * duration) * delta)
    return 1.0 + scale_function(model, b) - scale_function(model, a)


def check_sp_properties(skel: SkeletonFlow, rng: RngStream,
                        plan: SpCheckPlan = SpCheckPlan()) -> list:
    """Finite-grid versions of the skeleton properties; failures are
    reported, never thrown."""
    cfg = skel.config
    gen = rng.generator()
    reports = []

    # SP1: later starters never equal an older trajectory's current value.
    collisions = 0
    for i in range(skel.n_traj):
        if len(skel.hist[i]) == 0 and skel.merge_step[i] == skel.act[i]:
            collisions += 1
    reports.append(exact_report(
        "SP1_fresh_starters", violations=0, samples=skel.n_traj,
        notes=(f"{collisions} starters landed exactly on an occupied position "
               "and were merged at injection (allowed, measure-zero event in "
               "the continuum); all remaining starts are exact-float fresh")))

    # SP2: permanence, exact through shared storage.
    merges = skel.merges()
    mism = 0
    checked = 0
    if merges:
        idx = gen.choice(len(merges), size=min(plan.n_sp2_samples, len(merges)),
                         replace=False)
        for mi in idx:
            absorbed, parent, mt = merges[int(mi)]
            k0 = skel.snap_index(mt)
            ks = np.unique(np.linspace(k0, skel.n_steps,
                                       plan.n_sp2_times).astype(int))
            for k in ks:
                checked += 1
                if skel.value(absorbed, int(k)) != skel.value(parent, int(k)):
                    mism += 1
    reports.append(exact_report("SP2_permanence", violations=mism,
                                samples=checked,
                                notes="positions compared exactly after merge"))

    # SP3: range density at sampled times.
    eps_d = plan.eps_d if plan.eps_d is not None else 8.0 * cfg.dx
    margin = (plan.interior_margin if plan.interior_margin is not None
              else eps_d)
    c, cp = cfg.window
    lo, hi = c + margin, cp - margin
    k_min = cfg.snap_index(cfg.t0 + plan.min_age)
    ks = np.unique(np.linspace(k_min, skel.n_steps,
                               plan.n_density_times).astype(int))
    worst = 0.0
    for k in ks:
        _, pos, _ = skel.clusters_at_index(int(k))
        worst = max(worst, max_window_gap(pos, lo, hi))
    reports.append(TestReport(
        name="SP3_density", statistic=worst, reference=eps_d,
        replicas=len(ks), passed=bool(worst <= eps_d),
        rule="max interior gap <= eps_d at every sampled time",
        notes=(f"eps_d={eps_d} (engineering tolerance, see config), interior "
               f"window [{lo}, {hi}], times >= t0+{plan.min_age}; cluster set "
               "from positions_at (activation <= s)")))

    # SP4: cluster count through a space interval, averaged over samples.
    picks = []
    dur_steps = max(1, int(round(plan.sp4_duration / cfg.dt)))
    for _ in range(plan.n_sp4_samples):
        ks_ = int(gen.integers(k_min, max(k_min + 1, skel.n_steps - dur_steps)))
        kt_ = ks_ + dur_steps
        a = float(gen.uniform(lo, hi - plan.sp4_span))
        picks.append((ks_, kt_, a, a + plan.sp4_span))
    counts, bounds = [], []
    for ks_, kt_, a, b in picks:
        ids, pos, _ = skel.clusters_at_index(ks_)
        sel = ids[(pos > a) & (pos < b)]
        vals = {skel.value(int(i), kt_) for i in sel}
        counts.append(float(len(vals)))
        bounds.append(cluster_count_bound(cfg.model, a, b, plan.sp4_duration,
                                          cfg.window))
    if counts:
        mean_count = float(np.mean(counts))
        mean_bound = float(np.mean(bounds))
        se = float(np.std(counts, ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
        reports.append(bound_report(
            "SP4_cluster_bound", mean_count, mean_bound, se, len(counts),
            notes=("single-skeleton average; the replicated version is "
                   "test_cluster_count; every sampled count was finite")))

    # SP5: right-modulus at sampled starts, heavy-tailed per start so the
    # decision statistic is the median over starts.
    stats = _sp5_ladder_stats(skel, gen, plan)
    if stats is not None:
        med_by_rung, n_starts = stats
        threshold = 4.0 * cfg.dx + 3.0 * math.sqrt(cfg.dt)
        monotone = all(med_by_rung[i] <= med_by_rung[i + 1] + 1e-12
                       for i in range(len(med_by_rung) - 1))
        reports.append(TestReport(
            name="SP5_right_modulus", statistic=med_by_rung[0],
            reference=threshold, replicas=n_starts,
            passed=bool(med_by_rung[0] <= threshold and monotone),
            rule="median over starts of max_t(Y_(p,u+dx)-Y_(p,u)) <= 4dx+3sqrt(dt), medians nondecreasing along the ladder",
            notes=f"ladder medians {['%.5f' % m for m in med_by_rung]}"))
    return reports


def max_window_gap(pos: np.ndarray, lo: float, hi: float) -> float:
    """Largest gap between consecutive points on [lo, hi], counting the
    nearest point at or beyond each end (or the end itself if none)."""
    if pos.size == 0:
        return hi - lo
    pts = np.asarray(pos, dtype=float)
    left = pts[pts <= lo]
    right = pts[pts >= hi]
    inner = pts[(pts > lo) & (pts < hi)]
    seq = np.concatenate((
        [left.max() if left.size else lo], inner,
        [right.min() if right.size else hi]))
    return float(np.max(np.diff(seq))) if seq.size > 1 else hi - lo


def _sp5_ladder_stats(skel: SkeletonFlow, gen, plan: SpCheckPlan):
    cfg = skel.config
    lattice = cfg.lattice()
    candidates = [i for i in range(skel.n_traj)
                  if len(skel.hist[i]) > 0
                  and skel.u0[i] + plan.sp5_ladder * cfg.dx <= cfg.window[1] + 1e-12]
    if not candidates:
        return None
    take = min(plan.n_sp5_starts, len(candidates))
    chosen = gen.choice(len(candidates), size=take, replace=False)
    per_rung = [[] for _ in range(plan.sp5_ladder)]
    for ci in chosen:
        i = candidates[int(ci)]
        k0, kend = int(skel.act[i]), skel.n_steps
        base = skel.series(i, k0, kend)
        row_mates = {}
        for j in range(skel.n_traj):
            if skel.act[j] == skel.act[i]:
                row_mates[round((skel.u0[j] - skel.u0[i]) / cfg.dx)] = j
        for r in range(1, plan.sp5_ladder + 1):
            j = row_mates.get(r)
            if j is None:
                continue
            upper = skel.series(j, k0, kend)
            per_rung[r - 1].append(float(np.max(upper - base)))
    meds = [float(np.median(v)) if v else float("nan") for v in per_rung]
    return meds, take
