import numpy as np
import pytest

from coalflow.bundles import (BUNDLES, bundle_cluster_count,
                              bundle_motion_laws, bundle_negative_controls,
                              bundle_rng, bundle_skeleton_sp, run_bundle)
from coalflow.cli import _bundle_path_index
from coalflow.config import KNOWN_BUNDLES, RunConfig
from coalflow.rng import RngStream


def small_cfg(scale=0.1):
    return RunConfig(seed=7, scale=scale)


def test_registry_matches_known_names():
    assert set(BUNDLES) == set(KNOWN_BUNDLES)


def test_motion_laws_bundle_green():
    reports, _ = bundle_motion_laws(small_cfg(), RngStream(7, (0,)))
    assert reports and all(r.ok for r in reports), [
        r.name for r in reports if not r.ok]


def test_cluster_bundle_green_with_csv(tmp_path):
    reports, extras = bundle_cluster_count(small_cfg(0.3), RngStream(7, (1,)))
    assert all(r.ok for r in reports)
    assert extras
    rel, writer = extras[0]
    out = writer(tmp_path / rel)
    assert out.read_text().startswith("replica,distinct_clusters")


def test_skeleton_sp_bundle_green():
    reports, _ = bundle_skeleton_sp(small_cfg(), RngStream(7, (2,)))
    names = {r.name for r in reports}
    assert {"SP1_fresh_starters", "SP2_permanence", "SP3_density",
            "SP4_cluster_bound", "SP5_right_modulus"} <= names
    assert all(r.ok for r in reports), [r.name for r in reports if not r.ok]


@pytest.mark.parametrize("seed", [9, 42])
@pytest.mark.parametrize("gamma", [1, 4, 16])
def test_harris_skeleton_sp4_within_its_bound(gamma, seed):
    """The skeleton-sp run of `coalflow verify` on a Harris model at scale
    0.05, at (gamma, seed) fixed in advance: SP4's mean cluster count stays
    under the beta-minorant bound (at (1, 9) and (4, 9) it exceeded the
    Brownian-comparison reference that bound replaces)."""
    cfg = RunConfig(seed=seed, scale=0.05,
                    model={"kind": "harris", "gamma": gamma})
    reports, _ = bundle_skeleton_sp(
        cfg, RngStream(seed, (_bundle_path_index("skeleton-sp"),)))
    (sp4,) = [r for r in reports if r.name == "SP4_cluster_bound"]
    assert sp4.ok, (sp4.statistic, sp4.reference)


def test_rng_bundle_green():
    reports, _ = bundle_rng(small_cfg(), RngStream(7, (3,)))
    assert all(r.ok for r in reports)


def test_negative_controls_all_fail_as_designed():
    reports, _ = bundle_negative_controls(small_cfg(0.2), RngStream(7, (4,)))
    assert len(reports) == 6
    for r in reports:
        assert r.expect_failure
        assert r.ok, f"control {r.name} did not fail its underlying check"


def test_run_bundle_dispatch():
    reports, _ = run_bundle("rng", small_cfg(), RngStream(7, (5,)))
    assert reports
