"""The benchmark's traced mode wraps program functions by the names their
callers use and reads a few SkeletonFlow attributes.  A rename here would
silently drop per-layer metrics from every traced run, so pin them."""

import importlib
from pathlib import Path

import pytest

from coalflow.motions import DiffusionSpec
from coalflow.rng import RngStream
from coalflow.skeleton import SkeletonConfig, SkeletonFlow, build_skeleton

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# read by perfbench/layers.py: _skeleton_counts and _lazy_kind
LAYER_ATTRS = ("hist", "act", "merge_step", "snapshots", "_lazy_cache")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("spans"),
            importlib.import_module("layers"))


def test_traced_targets_resolve(perfbench):
    spans, layers = perfbench
    targets = {t for t, _name, _count in layers.TARGETS + layers.CLI_TARGETS}
    for target in sorted(targets):
        owner, attr = spans.resolve(target)
        assert callable(getattr(owner, attr)), target


def test_skeleton_has_the_attributes_layers_reads(tmp_path):
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 8, t0=0.0, t1=0.1,
                              dt=1e-2, model=DiffusionSpec.arratia(),
                              row_period=0.05)
    built = build_skeleton(cfg, RngStream(3, (0,)))
    loaded = SkeletonFlow.load(built.save(tmp_path / "s.cfsk"))
    for skel in (built, loaded):
        missing = [a for a in LAYER_ATTRS if not hasattr(skel, a)]
        assert not missing, missing
