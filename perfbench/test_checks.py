"""Tests of the benchmark itself: every output check passes on real output
and rejects a deliberately corrupted copy, and the traced mode survives
names that no longer exist.

    python3 -m pytest perfbench/test_checks.py -q     (from the repo root)
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from coalflow import bundles, kernels, motions, verify  # noqa: E402
from coalflow.motions import DiffusionSpec  # noqa: E402
from coalflow.reports import TestReport as Report  # noqa: E402
from coalflow.rng import RngStream  # noqa: E402
from spans import Tracer  # noqa: E402


def failed(ops):
    return [name for name, ok in ops if not ok]


# ---------------------------------------------------------------------------
# shift-law


def test_shift_law_rejects_a_shifted_sample_column(monkeypatch, tmp_path):
    wl = workloads.ShiftLaw(3, tmp_path)
    reports, _ = wl.round()
    assert failed(wl.check(reports)) == []
    real = verify.shift_invariance_samples

    def corrupted(config, queries, h, replicas, rng):
        vals = real(config, queries, h, replicas, rng)
        if h:
            vals[:, 0] += 2.0
        return vals
    monkeypatch.setattr(verify, "shift_invariance_samples", corrupted)
    reports, _ = wl.round()
    assert len(failed(wl.check(reports))) == 2       # column 0, both h


def test_exact_identities_reject_an_off_by_one_step_shift(monkeypatch,
                                                          tmp_path):
    wl = workloads.ShiftLaw(3, tmp_path)
    assert failed(wl.check_once()) == []
    real = bundles.shift
    monkeypatch.setattr(bundles, "shift",
                        lambda f, h: real(f, h + 1e-3 if h else h))
    assert len(failed(wl.check_once())) == 4


# ---------------------------------------------------------------------------
# stopped-law


def stopped_sample(replicas=150):
    cps = workloads.StoppedLaw.cp_steps_for(1.0, 1e-3, 8)
    sample = kernels.pair_stopped_paths(DiffusionSpec.arratia(), 0.0, 1.0,
                                        1.0, 1e-3, replicas,
                                        RngStream(5, (1,)), cps)
    return sample, cps


def test_stopped_checks_pass_on_real_paths():
    sample, cps = stopped_sample()
    assert failed(checks.stopped_sample("s", sample, cps, 1e-3, 1.0)) == []


def test_stopped_checks_reject_a_swapped_column():
    sample, cps = stopped_sample()
    bad = sample.copy()
    bad[:, [0, 14]] = bad[:, [14, 0]]     # x1 at the first and last checkpoint
    assert failed(checks.stopped_sample("s", bad, cps, 1e-3, 1.0))


def test_stopped_checks_reject_a_wrong_meeting_time():
    sample, cps = stopped_sample()
    bad = sample.copy()
    row = int(np.argmax(bad[:, 0] == bad[:, 1]))     # met by the first cp
    bad[row, -1] = 1.0
    assert failed(checks.stopped_sample("s", bad, cps, 1e-3, 1.0)) == [
        "s_meeting_time_consistent"]


# ---------------------------------------------------------------------------
# mc-laws


def report(name, stat, ref=0.0, se=0.0, replicas=0):
    return Report(name=name, statistic=stat, reference=ref,
                      mc_std_error=se, replicas=replicas)


def test_bound_and_law_checks_reject_corrupted_estimates():
    ref = math.erf(0.5)
    assert not failed(checks.no_meet_law(report("c3", ref + 0.004),
                                         0.0, 1.0, 1.0, 0.01))
    assert failed(checks.no_meet_law(report("c3", ref + 0.02),
                                     0.0, 1.0, 1.0, 0.01))
    assert not failed(checks.under_bound("b", report("b", 1.58, se=0.01),
                                         1.564))
    assert failed(checks.under_bound("b", report("b", 1.62, se=0.01), 1.564))


def test_ou_moment_checks():
    gen = np.random.default_rng(0)
    mean, var = math.exp(-1.0), 1.0 - math.exp(-2.0)
    sample = gen.normal(mean, math.sqrt(var), 100_000)
    assert failed(checks.ou_moments(sample, 1.0, math.sqrt(2), 1.0, 1.0)) == []
    assert failed(checks.ou_moments(sample * 1.05, 1.0, math.sqrt(2), 1.0,
                                    1.0)) == ["C7_ou_mean", "C7_ou_variance"]


def counterexample_reports(**corrupt):
    rs = [report("composition_identity", 0.0),
          report("distinguisher_psi_identical", 10_000.0, 10_000.0),
          report("distinguisher_psi_tilde_decorrelated", 0.002,
                 replicas=100_000)]
    rs += [report(f"marginal_uniform_{n}", 0.01, se=0.3)
           for n in ("psi01", "psi12", "psi02")]
    for r in rs:
        if r.name in corrupt:
            field, value = corrupt[r.name]
            setattr(r, field, value)
    return rs


def test_counterexample_checks_reject_each_corruption():
    assert failed(checks.counterexample(counterexample_reports())) == []
    for name, change in (("composition_identity", ("statistic", 3.0)),
                         ("distinguisher_psi_identical", ("statistic", 9999.0)),
                         ("distinguisher_psi_tilde_decorrelated",
                          ("statistic", 0.05)),
                         ("marginal_uniform_psi12", ("mc_std_error", 1e-9))):
        assert len(failed(checks.counterexample(
            counterexample_reports(**{name: change})))) == 1, name


def test_density_oracle_check():
    oracle = 1.0 + 511 * math.erf(1.0 / 512 / (2.0 * math.sqrt(0.01)))
    assert not failed(checks.density_oracle(
        report("o", oracle + 0.05, se=0.035), 512, 0.01))
    # the undercount seen on every run: 6.273 +- 0.0355 against 6.6307
    assert failed(checks.density_oracle(report("o", 6.273, se=0.0355),
                                        512, 0.01))


# ---------------------------------------------------------------------------
# harris-export


@pytest.fixture(scope="module")
def harris(tmp_path_factory):
    wl = workloads.HarrisExport(4, tmp_path_factory.mktemp("harris"))
    outputs, phases = wl.round()
    return wl, outputs


def test_export_checks_pass_on_real_output(harris):
    wl, outputs = harris
    assert failed(wl.check(outputs)) == []


def test_export_checks_reject_one_perturbed_value(harris):
    wl, (rows1, q2, want2, rows2) = harris
    bad = list(rows2)
    v, tid, status = bad[5]
    bad[5] = (v + 1e-12, tid, status)
    assert failed(wl.check((rows1, q2, want2, bad))) == ["export_pass2_F1"]


def test_export_checks_reject_a_wrong_trajectory_and_order(harris):
    wl, (rows1, q2, want2, rows2) = harris
    i = next(j for j, q in enumerate(wl.q1) if q[3][1] == "t"
             and q[3] == wl.q1[j + 1][3] and rows1[j][0] < rows1[j + 1][0])
    bad = list(rows1)
    v, tid, status = bad[i]
    bad[i] = (v, tid + 1, status)             # not at that step in the CSV
    assert failed(wl.check((bad, q2, want2, rows2)))
    bad = list(rows1)
    bad[i], bad[i + 1] = bad[i + 1], bad[i]   # breaks F5 order in x
    assert failed(wl.check((bad, q2, want2, rows2)))


def test_export_checks_reject_a_value_above_the_window(harris):
    wl, (rows1, q2, want2, rows2) = harris
    i = wl.want1.index("above_range")
    bad = list(rows1)
    bad[i] = (9.0, 1, "ok")
    assert failed(wl.check((bad, q2, want2, rows2))) == ["export_pass1"]


# ---------------------------------------------------------------------------
# tracing


def test_self_time_and_missing_names(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner():
        return sum(range(20_000))

    def outer():
        return mod.inner() + mod.inner()
    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = Tracer()
    tracer.install([("fake_layer.outer", "outer", None),
                    ("fake_layer.inner", "inner", None),
                    ("fake_layer.gone", "gone", None)])
    mod.outer()
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert tracer.absent == ["fake_layer.gone"]
    agg = tracer.aggregate()
    calls, total, self_time = agg["outer"]
    assert calls == 1 and agg["inner"][0] == 2
    assert self_time == pytest.approx(total - agg["inner"][1], abs=1e-9)
    metrics, absent = layers.report(
        {name: 1.0 for name in layers.PER_LAYER},
        ["coalflow.verify.energy_two_sample"])
    assert absent == ["stats.energy_s"] and "stats.energy_s" not in metrics


def test_fixed_size_calls_skip_a_missing_kernel(monkeypatch):
    monkeypatch.delattr(motions, "propose_harris_step")
    absent = []
    out = run.fixed_size_calls(1, absent)
    assert absent == ["coalflow.motions.propose_harris_step"]
    assert sorted(out) == ["motions.collapse_us.n64",
                           "motions.diffusion_step_us.n2",
                           "motions.diffusion_step_us.n512",
                           "motions.diffusion_step_us.n64"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
