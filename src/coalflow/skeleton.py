"""Skeleton flows from a finite space-time grid.

The countable dense skeleton of the continuum construction is replaced by a
finite product grid: start rows (a space lattice over the window) injected at
configured times.  Trajectories are frozen at their start value before
activation, co-evolve under the coalescing n-point stepper afterwards, and
share storage through their absorbing trajectory once merged.

The builder lays out the trajectory table (start value, activation step,
parent, merge step) before it steps and keeps the live clusters as numpy
arrays (ids, positions).  config.observe alone decides what it keeps: with
"all", the positions once per step and the ids at each injection (merges
keep the order of the live clusters, so the ids place every record), which
grouped by id are the histories (one flat array in id order, with
offsets); with a tuple of times, only those steps' live arrays as cluster
snapshots, stepping no further than the last (a history-free build: any
other step is an OffGridTime).

One engine builds a block of independent replicas in lockstep: their live
clusters lie end to end in the live arrays, one segment per replica, and
each step's proposal, bridge test, collapse and merge bookkeeping run once
over the block.  Every replica keeps its own generator and draws from it
what it would draw built alone (Philox streams are addressed by counter, so
a replica's draws do not depend on its block), and no pair across a
segment cut is flagged, drawn for or folded, so each skeleton of a block is
bit-identical to its one-stream build.  The segment offsets change only at
merges and injections; a one-replica build passes none to the kernels.

Ids run in activation order, a merge keeps the least id of its group, and a
starter merged at injection points at a live id or at an earlier starter of
its step, so parent[i] < i and act is nondecreasing in id.  Every trajectory
in the cluster of a live id j therefore has act >= act[j]: a cluster's least
activation step is its live id's own, and the live ids at step k are exactly
those with act <= k < merge_step (or merge_step < 0).
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, replace
from functools import cached_property
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
# most time steps, lattice points, start rows or trajectories a config may
# ask for; checked arithmetically before any grid array is made
MAX_GRID = 10_000_000
# live entries of build records scattered into the history array at a time
_SCATTER_ENTRIES = 8192
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
    try:
        kind = d["kind"]
        if kind == "arratia":
            return DiffusionSpec.arratia()
        if kind == "ou":
            return DiffusionSpec.ornstein_uhlenbeck(
                _finite(d["rate"], "rate"), _finite(d["sigma"], "sigma"))
        if kind == "harris":
            return HarrisSpec(
                gamma=_finite(d["gamma"], "gamma"),
                merge_gap=_finite(d.get("merge_gap", 1e-9), "merge_gap"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model {d!r}: {exc!r}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def _finite(v, what: str):
    """v, or a ConfigError when it is not a finite number (a bool is not)."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not math.isfinite(v)):
        raise ConfigError(f"{what} must be a finite number, got {v!r}")
    return v


def _tuple(v, what: str) -> tuple:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {v!r}")
    return tuple(v)


def _capped(what: str, size: float) -> float:
    """size, or a ConfigError when it exceeds MAX_GRID (or is not finite)."""
    if not size <= MAX_GRID:
        raise ConfigError(f"{size:.4g} {what} exceed the cap of {MAX_GRID:,}")
    return size


def _pair(v, what: str) -> tuple:
    """A pair of finite numbers, as a tuple."""
    v = _tuple(v, what)
    if len(v) != 2:
        raise ConfigError(f"{what} must be two numbers, got {v!r}")
    for x in v:
        _finite(x, what)
    return v


@dataclass(frozen=True)
class SkeletonConfig:
    """Grid geometry: start rows are start_times x {c, c+dx, ..., c'}.
    Validated on construction (a bad field is a ConfigError, so a build can
    trust its input); list-valued fields are stored as tuples."""

    window: tuple
    dx: float
    t0: float
    t1: float
    dt: float
    start_times: tuple
    model: MotionModel
    observe: Union[str, tuple] = "all"   # "all" or the only times a build keeps
    extra_starts: tuple = ()             # explicit (s, u) points beyond the product grid

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("window", _pair(self.window, "window"))
        for name in ("dx", "t0", "t1", "dt"):
            _finite(getattr(self, name), name)
        c, cp = self.window
        if not (cp >= c and self.dx > 0 and self.dt > 0 and self.t1 > self.t0):
            raise ConfigError("need c' >= c, dx > 0, dt > 0, t1 > t0")
        _capped("time steps", (self.t1 - self.t0) / self.dt)
        _capped("lattice points", (cp - c) / self.dx)
        put("start_times", _tuple(self.start_times, "start_times"))
        put("extra_starts", tuple(_pair(p, "extra start") for p in
                                  _tuple(self.extra_starts, "extra_starts")))
        if self.observe != "all":
            put("observe", _tuple(self.observe, "observe"))
            if not self.observe:
                raise ConfigError("observe names no time: a build keeps nothing")
        observed = self.observe if self.observe != "all" else ()
        for s in (*self.start_times, *observed,
                  *(s for s, _ in self.extra_starts)):
            _finite(s, "time")
            try:
                self.snap_index(s)
            except (OutOfHorizon, OffGridTime) as exc:
                raise ConfigError(str(exc)) from exc
        if len(self.start_times) == 0:
            raise ConfigError("need at least one start row")
        if tuple(sorted(self.start_times)) != self.start_times:
            raise ConfigError("start_times must be sorted")
        n_rows = len({self.snap_index(s) for s in self.start_times})
        _capped("trajectories",
                n_rows * self.lattice_size() + len(self.extra_starts))

    @staticmethod
    def rows(window, dx, t0, t1, dt, model, row_period=None, start_times=None,
             observe="all", extra_starts=()) -> "SkeletonConfig":
        """Convenience constructor; row_period=None puts a row at every grid
        time (the finite stand-in for time-density of the rational skeleton)."""
        if start_times is None:
            if row_period is None:
                row_period = dt
            for name, v in (("t0", t0), ("t1", t1),
                            ("row_period", row_period)):
                _finite(v, name)
            if row_period <= 0:
                raise ConfigError(f"row_period must be positive, "
                                  f"got {row_period}")
            n = int(math.floor(_capped("start rows",
                                       (t1 - t0) / row_period + _SNAP_TOL)))
            start_times = tuple(t0 + i * row_period for i in range(n + 1))
        return SkeletonConfig(window=window, dx=dx, t0=t0, t1=t1, dt=dt,
                              start_times=start_times, model=model,
                              observe=observe, extra_starts=extra_starts)

    @property
    def n_steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def lattice_size(self) -> int:
        c, cp = self.window
        return int(math.floor((cp - c) / self.dx + _SNAP_TOL)) + 1

    def lattice(self) -> np.ndarray:
        return self.window[0] + self.dx * np.arange(self.lattice_size())

    def snap_index(self, t: float) -> int:
        k = round((t - self.t0) / self.dt)
        if k < 0 or k > self.n_steps:
            raise OutOfHorizon(f"time {t} outside [{self.t0}, {self.t1}]")
        if abs(self.t0 + k * self.dt - t) > _SNAP_TOL:
            raise OffGridTime(f"time {t} not on the dt grid")
        return int(k)

    def until(self, k: int) -> "SkeletonConfig":
        """The same grid cut at step k >= 1: t1 moves to grid time k, and
        the start rows and extra starts after it are dropped (an observed
        time after it is a ConfigError).  Building on the cut config draws
        what the first k steps of a build on self draw, so the result is
        that build's prefix in every array.  self is returned when nothing
        is cut, or when no start row would be left."""
        def kept(ts):
            return tuple(s for s in ts if self.snap_index(s) <= k)
        if k >= self.n_steps or not kept(self.start_times):
            return self
        return replace(
            self, t1=self.t0 + k * self.dt, start_times=kept(self.start_times),
            extra_starts=tuple(p for p in self.extra_starts
                               if self.snap_index(p[0]) <= k))

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
        return SkeletonConfig(
            window=d["window"], dx=d["dx"], t0=d["t0"], t1=d["t1"],
            dt=d["dt"], start_times=d["start_times"],
            model=model_from_dict(d["model"]), observe=d.get("observe", "all"),
            extra_starts=d.get("extra_starts", ()))


class SkeletonFlow:
    """Built skeleton: per-trajectory histories with merge sharing.

    A trajectory's own history covers steps [act, merge_step); from its merge
    step on, positions are read through the absorbing trajectory, so merged
    tails are stored exactly once and equality after merging is exact.  The
    histories lie end to end in id order in one flat array: trajectory i's
    is flat[offsets[i]:offsets[i + 1]]; a full flow keeps nothing else.  A
    history-free flow (flat and offsets None) keeps only its observed
    steps' snapshots, and only those steps can be read.
    """

    def __init__(self, config: SkeletonConfig, seed: int, path: tuple,
                 u0: np.ndarray, act: np.ndarray, parent: np.ndarray,
                 merge_step: np.ndarray, flat: Optional[np.ndarray],
                 offsets: Optional[np.ndarray],
                 snapshots: Optional[dict] = None):
        self.config = config
        self.seed = seed
        self.rng_path = tuple(path)
        self.times = config.times()
        self.u0 = u0
        self.act = act
        self.parent = parent
        self.merge_step = merge_step
        self.flat = flat
        self.offsets = offsets
        self.snapshots = snapshots or {}
        self._lazy_cache: dict = {}

    def _no_history(self, k=None) -> OffGridTime:
        at = "every step" if k is None else f"step {k}"
        return OffGridTime(
            f"{at} needed, but the skeleton was built without histories and "
            f"observed only steps {sorted(self.snapshots)}")

    @cached_property
    def hist(self) -> list:
        """Per-trajectory history views of the flat array, made on first
        use (for inspection; the flow itself reads the flat array)."""
        if self.flat is None:
            raise self._no_history()
        off = self.offsets.tolist()
        return [self.flat[a:b] for a, b in zip(off[:-1], off[1:])]

    # -- basic geometry ----------------------------------------------------

    @property
    def n_traj(self) -> int:
        return int(self.u0.size)

    @property
    def n_steps(self) -> int:
        return int(self.times.size - 1)

    def snap_index(self, t: float) -> int:
        return self.config.snap_index(t)

    # -- trajectory resolution ----------------------------------------------

    def resolve(self, tid: int, k: int) -> int:
        """Live trajectory id carrying tid's position at step k."""
        j = int(tid)
        while self.merge_step[j] >= 0 and k >= self.merge_step[j]:
            j = int(self.parent[j])
        return j

    def value(self, tid: int, k: int) -> float:
        """Y_{(s,u)} at grid step k; frozen at u before activation.  After
        it, tid resolves to the live id carrying it at k, whose position is
        read from its history, or on a history-free flow from snapshot k
        (OffGridTime when step k was not observed)."""
        if k < self.act[tid]:
            return float(self.u0[tid])
        j = self.resolve(tid, k)
        if self.flat is None:
            if k not in self.snapshots:
                raise self._no_history(k)
            ids, pos, _ = self.snapshots[k]
            return float(pos[ids == j][0])
        return float(self.flat[self.offsets[j] + k - self.act[j]])

    def series(self, tid: int, k_from: int, k_to: int) -> np.ndarray:
        """Positions of tid at steps k_from..k_to inclusive: u0 before
        activation, then the history slices along tid's merge chain."""
        if self.flat is None:
            return np.array([self.value(tid, k)
                             for k in range(k_from, k_to + 1)])
        j = int(tid)
        k = max(k_from, int(self.act[j]))
        parts = [np.full(max(0, min(k, k_to + 1) - k_from), self.u0[j])]
        while k <= k_to:
            a, m = int(self.act[j]), int(self.merge_step[j])
            end = max(k, k_to + 1 if m < 0 else min(m, k_to + 1))
            o = int(self.offsets[j]) - a
            parts.append(self.flat[o + k:o + end])
            k, j = end, int(self.parent[j])
        return np.concatenate(parts)

    def merges(self) -> list:
        """(absorbed id, absorbing id, merge time), in id order."""
        return [(int(i), int(self.parent[i]),
                 float(self.times[self.merge_step[i]]))
                for i in np.flatnonzero(self.merge_step >= 0)]

    # -- cluster views -------------------------------------------------------

    def clusters_at_index(self, k: int):
        """(ids, positions, min_act) of live clusters at step k, sorted by
        position: a history-free flow's snapshot, or read off act/merge_step
        as the module docstring says, and cached."""
        if k in self.snapshots:
            return self.snapshots[k]
        if k in self._lazy_cache:
            return self._lazy_cache[k]
        if self.flat is None:
            raise self._no_history(k)
        ms = self.merge_step
        ids = np.flatnonzero((self.act <= k) & ((ms < 0) | (ms > k)))
        minact = self.act[ids]
        pos = self.flat[self.offsets[ids] + (k - minact)]
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
        if self.flat is None:
            raise self._no_history()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lens = np.diff(self.offsets)
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
                               (lens, "<i8"), (self.flat, "<f8")):
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
        # the module docstring's invariants, which keep every merge chain
        # finite and every read inside its trajectory's own history
        K, merged = cfg.n_steps, merge_step >= 0
        bad_merge = np.where(merged, (merge_step < act) | (merge_step > K)
                             | (parent < 0) | (parent >= np.arange(n_traj)),
                             merge_step != -1)
        if (np.any(np.diff(act) < 0) or np.any((act < 0) | (act > K))
                or np.any(bad_merge)
                or np.any(lens != np.where(merged, merge_step, K + 1) - act)):
            raise ConfigError("snapshot merge tables are inconsistent")
        return SkeletonFlow(cfg, seed, rng_path, u0.copy(),
                            act.astype(np.int64), parent.astype(np.int64),
                            merge_step.astype(np.int64), flat.copy(),
                            np.concatenate(([0], np.cumsum(lens))))


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ConfigError(f"truncated snapshot: wanted {n} bytes, "
                          f"got {len(data)}")
    return data


def build_skeleton(config: SkeletonConfig, rng):
    """Run the grid injection + coalescing stepping loop.

    The trajectory table is laid out first: ids run in step order, and
    within a step the start row comes first, then the step's extra starts
    in config order.  Each step k steps the live clusters from k - 1 (a
    merged cluster keeps its least id; the ids it absorbs get it as parent
    and k as merge step), injects step k's starters (one landing exactly on
    a live position, or on an earlier starter of the step, merges at
    injection) and records the live positions.

    rng may instead be a sequence of m RngStreams, for m independent
    replicas built in lockstep; one SkeletonFlow per stream is returned, in
    order.  Replica r draws from its own stream exactly what a one-stream
    build draws, so each result is bit-identical to build_skeleton(config,
    rng[r]).  The replicas' live clusters lie end to end in one array, cut
    into one segment per replica, so each step's proposal, bridge test,
    collapse and merge bookkeeping run once for the whole block.  Harris
    models build one stream at a time (a block of more raises TypeError).

    With config.observe "all" a flow keeps its histories and nothing else.
    With a tuple of times the build runs on config.until(its last observed
    step), records nothing per step and keeps only the observed steps'
    snapshots; its draws and tables are the full build's prefix.
    """
    # replica r's trajectory i has the block id r * n + i (n trajectories a
    # replica), and replica r's live clusters are live_*[seg[r]:seg[r + 1]]
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    if not rngs:
        return []
    history = config.observe == "all"
    if not history:
        observed = {config.snap_index(t) for t in config.observe}
        config = config.until(max(max(observed), 1))
    model = config.model
    m = len(rngs)
    lockstep = m > 1
    harris = isinstance(model, HarrisSpec)
    if harris and lockstep:
        raise TypeError("lockstep skeleton builds need a DiffusionSpec")
    K = config.n_steps
    times = config.times()
    lattice = config.lattice()
    row_steps = np.unique([config.snap_index(s) for s in config.start_times])
    extra_steps = [config.snap_index(s) for s, _ in config.extra_starts]
    steps = np.concatenate([np.repeat(row_steps, lattice.size),
                            np.asarray(extra_steps, dtype=np.int64)])
    order = np.argsort(steps, kind="stable")
    act = steps[order]
    u0 = np.concatenate([np.tile(lattice, row_steps.size),
                         [float(u) for _, u in config.extra_starts]])[order]
    n = u0.size
    parent = np.arange(m * n)
    merge_step = np.full(m * n, -1, dtype=np.int64)
    first = np.searchsorted(act, np.arange(K + 2))  # ids first[k]:first[k+1]

    gens = [r.generator() for r in rngs]
    gen = gens if lockstep else gens[0]
    live_id = np.zeros(0, dtype=np.int64)
    live_pos = np.zeros(0)
    seg = np.zeros(m + 1, dtype=np.int64)
    records, injected, snaps = [], [], {}
    for k in range(K + 1):
        if k and live_pos.size:
            if harris:
                prop, flags = propose_harris_step(model, live_pos, config.dt,
                                                  gen)
            else:
                prop, flags = propose_diffusion_step(
                    model, live_pos, float(times[k - 1]), config.dt, gen,
                    segments=seg if lockstep else None)
            if flags.any():
                live_pos, starts, counts = collapse_proposals(
                    prop, flags, seg if lockstep else None)
                keep = np.minimum.reduceat(live_id, starts)
                owner = np.repeat(keep, counts)
                gone = owner != live_id
                parent[live_id[gone]] = owner[gone]
                merge_step[live_id[gone]] = k
                live_id = keep
                seg = np.searchsorted(starts, seg)
            else:
                live_pos = prop
        lo, hi = first[k], first[k + 1]
        if hi > lo:
            new = u0[lo:hi]
            # each starter's host: the live cluster it lands on, else the
            # step's first starter at its value (itself when it is fresh)
            _, at, inv = np.unique(new, return_index=True, return_inverse=True)
            ids, pos = [], []
            for r, a, b in zip(range(0, m * n, n), seg[:-1].tolist(),
                               seg[1:].tolist()):
                host = r + lo + at[inv]
                if b > a:
                    j = a + np.minimum(np.searchsorted(live_pos[a:b], new),
                                       b - a - 1)
                    on_live = live_pos[j] == new
                    host[on_live] = live_id[j[on_live]]
                fresh = host == np.arange(r + lo, r + hi)
                parent[r + lo:r + hi] = host
                merge_step[r + lo:r + hi][~fresh] = k
                p = np.concatenate([live_pos[a:b], new[fresh]])
                order = np.argsort(p, kind="stable")
                pos.append(p[order])
                ids.append(np.concatenate([live_id[a:b], host[fresh]])[order])
            seg = np.concatenate(([0], np.cumsum([p.size for p in pos])))
            live_pos, live_id = np.concatenate(pos), np.concatenate(ids)
            if history:
                injected.append((k, live_id))
        # the live arrays are replaced, never written in place, so the
        # records and snapshots can share them
        if history:
            records.append(live_pos)
        elif k in observed:
            snaps[k] = (live_id, live_pos, seg)

    if history:
        flat, offsets = _histories(records, injected, np.tile(act, m),
                                   merge_step, K)
    flows = []
    for r, stream in enumerate(rngs):
        a, b = r * n, (r + 1) * n
        snapshots = {}
        for k, (ids, pos, sg) in snaps.items():
            ids, pos = ids[sg[r]:sg[r + 1]], pos[sg[r]:sg[r + 1]]
            if r:
                ids = ids - a
            snapshots[k] = (ids, pos, act[ids])
        own = ((flat[offsets[a]:offsets[b]], offsets[a:b + 1] - offsets[a])
               if history else (None, None))
        flows.append(SkeletonFlow(
            config, stream.seed, stream.path, u0, act,
            parent[a:b] - a, merge_step[a:b], *own, snapshots=snapshots))
    return flows[0] if isinstance(rng, RngStream) else flows


def _histories(records: list, injected: list, act: np.ndarray,
               merge_step: np.ndarray, K: int):
    """(flat, offsets) of a build from its per-step records, which are
    freed as they are used.

    Own history lengths follow from act and merge_step.  Merges keep the
    order of the live clusters, so the live ids at a step are those of the
    last injection still live, in its order: scatter each step's positions
    into their id-ordered places, a run of steps at a time.
    """
    ends = np.where(merge_step < 0, K + 1, merge_step)
    offsets = np.concatenate(([0], np.cumsum(ends - act)))
    flat = np.empty(int(offsets[-1]))
    at_step0 = offsets[:-1] - act
    b = K + 1
    for a, ids in reversed(injected):
        run = max(1, _SCATTER_ENTRIES // max(ids.size, 1))
        for k0 in range(a, b, run):
            ids = ids[ends[ids] > k0]
            ks = np.arange(k0, min(k0 + run, b))[:, None]
            flat[(at_step0[ids] + ks)[ends[ids] > ks]] = np.concatenate(
                records[k0:k0 + ks.size])
        del records[a:]
        b = a
    return flat, offsets


# ---------------------------------------------------------------------------
# SP property checks (Lemma on skeleton versions: SP1..SP5)


SP2_SAMPLES, SP2_TIMES = 64, 8      # SP2: merges, and times after each
SP3_TIMES, SP3_MIN_AGE = 12, 0.01   # SP3: times from t0 + age on
SP5_STARTS, SP5_LADDER = 21, 4      # SP5: starts, and lattice rungs above


@dataclass(frozen=True)
class SpCheckPlan:
    n_sp4_samples: int = 48
    sp4_duration: float = 0.5
    sp4_span: float = 0.5


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
    collisions = int(np.count_nonzero(skel.merge_step == skel.act))
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
        idx = gen.choice(len(merges), size=min(SP2_SAMPLES, len(merges)),
                         replace=False)
        for mi in idx:
            absorbed, parent, mt = merges[int(mi)]
            k0 = skel.snap_index(mt)
            ks = np.unique(np.linspace(k0, skel.n_steps,
                                       SP2_TIMES).astype(int))
            for k in ks:
                checked += 1
                if skel.value(absorbed, int(k)) != skel.value(parent, int(k)):
                    mism += 1
    reports.append(exact_report("SP2_permanence", violations=mism,
                                samples=checked,
                                notes="positions compared exactly after merge"))

    # SP3: range density at sampled times.
    eps_d = 8.0 * cfg.dx
    c, cp = cfg.window
    lo, hi = c + eps_d, cp - eps_d
    k_min = cfg.snap_index(cfg.t0 + SP3_MIN_AGE)
    ks = np.unique(np.linspace(k_min, skel.n_steps, SP3_TIMES).astype(int))
    worst = 0.0
    for k in ks:
        _, pos, _ = skel.clusters_at_index(int(k))
        worst = max(worst, max_window_gap(pos, lo, hi))
    reports.append(TestReport(
        name="SP3_density", statistic=worst, reference=eps_d,
        replicas=len(ks), passed=bool(worst <= eps_d),
        rule="max interior gap <= eps_d at every sampled time",
        notes=(f"eps_d={eps_d} (engineering tolerance, see config), interior "
               f"window [{lo}, {hi}], times >= t0+{SP3_MIN_AGE}; cluster set "
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
    stats = _sp5_ladder_stats(skel, gen)
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


def _sp5_ladder_stats(skel: SkeletonFlow, gen):
    cfg = skel.config
    lattice = cfg.lattice()
    act, u0, ms = skel.act, skel.u0, skel.merge_step
    # a trajectory has a history of its own unless it merged at injection
    candidates = np.flatnonzero(
        ((ms < 0) | (ms > act))
        & (u0 + SP5_LADDER * cfg.dx <= cfg.window[1] + 1e-12))
    if not candidates.size:
        return None
    take = min(SP5_STARTS, candidates.size)
    chosen = gen.choice(candidates.size, size=take, replace=False)
    per_rung = [[] for _ in range(SP5_LADDER)]
    for ci in chosen:
        i = int(candidates[ci])
        k0, kend = int(act[i]), skel.n_steps
        base = skel.series(i, k0, kend)
        mates = np.flatnonzero(act == act[i])
        offsets = np.rint((u0[mates] - u0[i]) / cfg.dx)
        for r in range(1, SP5_LADDER + 1):
            at_r = mates[offsets == r]
            if not at_r.size:
                continue
            # the last id wins when an offset repeats
            upper = skel.series(int(at_r[-1]), k0, kend)
            per_rung[r - 1].append(float(np.max(upper - base)))
    meds = [float(np.median(v)) if v else float("nan") for v in per_rung]
    return meds, take
