"""Run configuration: JSON in, validated dataclass out, canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .motions import MotionModel
from .skeleton import MAX_GRID, SkeletonConfig, model_from_dict

DEFAULT_SKELETON = {
    "window": [0.0, 1.0], "dx": 1.0 / 32, "t0": 0.0, "t1": 1.0,
    "dt": 1e-3, "row_period": None, "observe": "all",
}

# default replica count of every check the bundles size; a run config's
# `replicas` may override any of these keys, and `scale` multiplies them all
REPLICA_DEFAULTS = {
    "counterexample": 10_000, "counterexample_corr": 100_000,
    "axioms": 10_000, "cocycle": 1000, "cocycle_skeletons": 5,
    "no_meet": 100_000, "marginal": 10_000, "ou_moments": 100_000,
    "small_time": 40_000, "meeting_bound": 100_000, "cluster_count": 200,
    "cluster_density": 200, "stopped": 5000, "shift": 2000,
    "rng_battery": 20_000, "control_meeting": 20_000, "control_cluster": 20,
    "control_marginal": 10_000, "control_small_time": 20_000,
    "control_stopped": 1500, "control_shift": 500,
}

# least replica count of a check at any scale, and of any override: a
# negative control run below its default count stops detecting its planted
# defect
REPLICA_FLOORS = {"control_meeting": 20_000, "control_stopped": 1500}

KNOWN_BUNDLES = (
    "counterexample", "axioms", "cocycle", "motion-laws", "meeting-bound",
    "cluster-count", "skeleton-sp", "stopped", "shift", "rng",
    "negative-controls",
)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out: str = "runs/out"
    model: dict = field(default_factory=lambda: {"kind": "arratia"})
    skeleton: dict = field(default_factory=lambda: dict(DEFAULT_SKELETON))
    bundles: tuple = ("counterexample", "axioms")
    scale: float = 1.0                      # global replica multiplier (CI knob)
    replicas: dict = field(default_factory=dict)   # per-bundle overrides
    export_stride: int = 10                 # trajectory CSV decimation

    def __post_init__(self):
        for name, kind in (("seed", int), ("scale", (int, float)),
                           ("skeleton", dict), ("bundles", (list, tuple)),
                           ("replicas", dict), ("export_stride", int)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError(f"{name} has the wrong type: {v!r}")
        object.__setattr__(self, "bundles", tuple(self.bundles))
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if not 0 < self.scale < math.inf:
            raise ConfigError("scale must be positive and finite")
        if self.export_stride < 1:
            raise ConfigError("export_stride must be at least 1")
        for key, n in self.replicas.items():
            if key not in REPLICA_DEFAULTS:
                raise ConfigError(f"unknown replicas key {key!r}; known: "
                                  f"{sorted(REPLICA_DEFAULTS)}")
            if (isinstance(n, bool) or not isinstance(n, (int, float))
                    or not 0 < n < math.inf):
                raise ConfigError(f"replicas[{key!r}] must be a positive "
                                  f"finite number, not {n!r}")
            if n < REPLICA_FLOORS.get(key, 0):
                raise ConfigError(f"replicas[{key!r}] = {n!r} is below its "
                                  f"floor of {REPLICA_FLOORS[key]:,}")
        for key, n in dict(REPLICA_DEFAULTS, **self.replicas).items():
            if not n * self.scale <= MAX_GRID:
                raise ConfigError(f"{n * self.scale:.4g} {key} replicas "
                                  f"exceed the cap of {MAX_GRID:,}")
        for b in self.bundles:
            if b not in KNOWN_BUNDLES:
                raise ConfigError(f"unknown bundle {b!r}; known: {KNOWN_BUNDLES}")
        extra = set(self.skeleton) - set(DEFAULT_SKELETON) - {"start_times"}
        if extra:
            raise ConfigError(f"unknown skeleton keys: {sorted(extra)}")
        if self.skeleton.get("observe", "all") != "all":
            raise ConfigError('skeleton.observe must be "all"')
        model_from_dict(self.model)  # validates model dict

    def motion_model(self) -> MotionModel:
        return model_from_dict(self.model)

    def skeleton_config(self) -> SkeletonConfig:
        sk = dict(DEFAULT_SKELETON, **self.skeleton)
        return SkeletonConfig.rows(
            window=sk["window"], dx=sk["dx"], t0=sk["t0"], t1=sk["t1"],
            dt=sk["dt"], model=self.motion_model(),
            row_period=sk["row_period"], start_times=sk.get("start_times"))

    def n_replicas(self, key: str) -> int:
        """The replica count of a REPLICA_DEFAULTS key: its override or
        default, times scale, rounded and at least its REPLICA_FLOORS
        entry (else 1); an override below that entry is a ConfigError."""
        n = self.replicas.get(key, REPLICA_DEFAULTS[key])
        return max(REPLICA_FLOORS.get(key, 1), int(round(n * self.scale)))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "out": self.out, "model": self.model,
            "skeleton": self.skeleton, "bundles": list(self.bundles),
            "scale": self.scale, "replicas": self.replicas,
            "export_stride": self.export_stride,
        }

    def canonical_json(self) -> str:
        # the output directory is where results land, not a semantic input,
        # so it stays out of the identity hash
        d = self.to_dict()
        d.pop("out")
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a run config is a JSON object, not "
                              f"{type(d).__name__}")
        known = {"seed", "out", "model", "skeleton", "bundles", "scale",
                 "replicas", "export_stride"}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return RunConfig(**d)

    @staticmethod
    def load(path) -> "RunConfig":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:   # not JSON, or not UTF-8 text
                raise ConfigError(f"{path}: not a JSON file: {exc}") from None
        return RunConfig.from_dict(d)
