"""The four workloads.

Each is a closed loop in one process (harris-export adds one CLI child at a
time).  Constructing a workload is its set-up: imports and inputs made from
the seed.  ``round()`` is one timed pass over a fixed list of operations and
returns (outputs, phase times); ``check(outputs)`` returns one (name, ok)
per operation.  Every round of a run repeats the same inputs, so rounds
differ only by timing noise and every run counts the same operations per
round.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import Capture

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class ShiftLaw:
    """C6 shift invariance at a reduced replica count: many small Arratia
    skeleton builds, small statistics."""

    name = "shift-law"
    replicas = 20                    # per sample; 3 samples (h = 0 and SHIFT_HS)

    def __init__(self, seed: int, out_dir: Path):
        from coalflow import bundles, verify
        from coalflow.rng import RngStream
        self.verify = verify
        self.bundles = bundles
        self.RngStream = RngStream
        self.seed = seed
        self.cfg = bundles.shift_skeleton_config()
        self.items = (1 + len(bundles.SHIFT_HS)) * self.replicas

    def round(self):
        reports = self.verify.test_shift_invariance(
            self.cfg, self.bundles.SHIFT_HS, self.bundles.SHIFT_QUERIES,
            self.replicas, self.RngStream(self.seed, (6,)))
        return reports, {}

    def gate_lines(self, reports):
        return [f"{r.name} p={r.mc_std_error:.4g} gate={'PASS' if r.passed else 'FAIL'}"
                for r in reports]

    def check(self, reports):
        return checks.shift_invariance(reports)

    def check_once(self):
        """Exact cocycle and shift-group identities on skeletons built apart
        from the criterion (the wide cocycle grid, so queries stay in
        range)."""
        from coalflow.flows import skeleton_flow_element
        from coalflow.skeleton import build_skeleton
        b = self.bundles
        reports = []
        for i in range(2):
            f = skeleton_flow_element(build_skeleton(
                b.cocycle_skeleton_config(), self.RngStream(self.seed, (61, i))))
            reports.append(b.cocycle_exactness_report(
                f, self.RngStream(self.seed, (62, i)), 60,
                name=f"cocycle_exact_{i}"))
            reports.append(b.shift_group_report(
                f, self.RngStream(self.seed, (63, i)), 30,
                name=f"shift_group_exact_{i}"))
        return checks.exact_reports(reports)


class StoppedLaw:
    """C8 stopped equivalence (Arratia, starts (0, 1), t = 1) at a reduced
    replica count: the per-replica SystemState stepper and the energy test."""

    name = "stopped-law"
    replicas = 300
    starts = (0.0, 1.0)
    horizon, dt, n_checkpoints = 1.0, 1e-3, 8

    def __init__(self, seed: int, out_dir: Path):
        from coalflow import verify
        from coalflow.motions import DiffusionSpec
        from coalflow.rng import RngStream
        self.verify = verify
        self.spec = DiffusionSpec.arratia()
        self.rng = RngStream(seed, (8,))
        # the two samples handed to the two-sample test
        self.samples = Capture("coalflow.verify.energy_two_sample")
        self.items = 2 * self.replicas
        self.cp_steps = self.cp_steps_for(self.horizon, self.dt,
                                          self.n_checkpoints)

    @staticmethod
    def cp_steps_for(horizon, dt, n_checkpoints):
        """Checkpoint steps as test_stopped_equivalence places them."""
        n_steps = round(horizon / dt)
        return sorted({max(1, (i + 1) * n_steps // n_checkpoints)
                       for i in range(n_checkpoints)})

    def round(self):
        self.samples.calls.clear()
        report = self.verify.test_stopped_equivalence(
            self.spec, self.starts, self.horizon, self.replicas, self.rng,
            dt=self.dt, n_checkpoints=self.n_checkpoints, permutations=199)
        (prod, orac, *_), _ = self.samples.calls[-1]
        return (report, prod, orac), {}

    def gate_lines(self, outputs):
        r = outputs[0]
        return [f"stopped_equivalence p={r.mc_std_error:.4g} "
                f"gate={'PASS' if r.passed else 'FAIL'} (printed, not counted)"]

    def check(self, outputs):
        _, prod, orac = outputs
        gap = self.starts[1] - self.starts[0]
        return (checks.stopped_sample("production", prod, self.cp_steps,
                                      self.dt, gap)
                + checks.stopped_sample("oracle", orac, self.cp_steps,
                                        self.dt, gap))


class McLaws:
    """C3, C4, C5, C7 and C9 at their gate replica counts plus the cluster
    density oracle: replica-vectorised kernels and the C9 dcor tests."""

    name = "mc-laws"
    oracle_starts, oracle_t, oracle_replicas = 512, 0.01, 1000

    def __init__(self, seed: int, out_dir: Path):
        from coalflow import counterexample, verify
        from coalflow.motions import DiffusionSpec
        from coalflow.rng import RngStream
        self.verify = verify
        self.counterexample = counterexample
        self.DiffusionSpec = DiffusionSpec
        self.RngStream = RngStream
        self.seed = seed
        self.endpoints = Capture("coalflow.kernels.endpoint_sample")
        # Monte Carlo paths per round: C3 + 2 x C4 + C5 + C7 + oracle
        self.items = (100_000 + 2 * 100_000 + 200 + 100_000
                      + self.oracle_replicas)

    def round(self):
        v, D, R, seed = self.verify, self.DiffusionSpec, self.RngStream, self.seed
        self.endpoints.calls.clear()
        out = {}
        out["C3"] = v.test_no_meet_law(0.0, 1.0, 1.0, 100_000, R(seed, (3,)),
                                       tol=0.01)
        out["C4_arratia"] = v.test_meeting_bound(
            D.arratia(), 0.0, 0.1, -10.0, 10.0, 1.0, 100_000, R(seed, (4, 0)))
        out["C4_ou"] = v.test_meeting_bound(
            D.ornstein_uhlenbeck(1.0, 1.0), 0.0, 0.1, -10.0, 10.0, 1.0,
            100_000, R(seed, (4, 1)))
        out["C5"], _ = v.test_cluster_count(
            D.arratia(), (0.0, 1.0), 0.0, 1.0, 512, 200, R(seed, (5,)))
        out["C7"] = v.test_ou_moments(1.0, math.sqrt(2.0), 1.0, 1.0, 100_000,
                                      R(seed, (7,)))
        out["C7_sample"] = self.endpoints.calls[-1][1]
        out["C9"] = self.counterexample.verify_appendix(
            10_000, R(seed, (9,)), corr_replicas=100_000)
        # fixed stream, not seeded: the check fails on every run (a known
        # undercount in kernels.cluster_count_sample, see CHANGES.md)
        out["oracle"] = v.test_cluster_density_oracle(
            self.oracle_starts, self.oracle_t, self.oracle_replicas,
            R(7, (6,)))
        return out, {}

    def gate_lines(self, out):
        rs = [out[k] for k in ("C3", "C4_arratia", "C4_ou", "C5", "C7",
                               "oracle")] + list(out["C9"])
        return [f"{r.name} stat={r.statistic:.6g} ref={r.reference:.6g} "
                f"gate={'PASS' if r.passed else 'FAIL'}" for r in rs]

    def check(self, out):
        arr = 1.0 + 1.0 / math.sqrt(math.pi)          # C5: 1 + m(1) - m(0)
        meet_arr = 0.1 / math.sqrt(math.pi)            # C4: (y - x)/sqrt(pi t)
        # OU(1, 1): m(y) = int_0^y exp(u^2) du, so |m(0.1) - m(0)|
        meet_ou = sum(math.exp((0.1 * (i + 0.5) / 1000) ** 2)
                      for i in range(1000)) * 0.1 / 1000
        return (checks.no_meet_law(out["C3"], 0.0, 1.0, 1.0, 0.01)
                + checks.under_bound("C4_arratia", out["C4_arratia"], meet_arr)
                + checks.under_bound("C4_ou", out["C4_ou"], meet_ou)
                + checks.under_bound("C5_cluster_count", out["C5"], arr)
                + checks.ou_moments(out["C7_sample"], 1.0, math.sqrt(2.0),
                                    1.0, 1.0)
                + checks.counterexample(out["C9"])
                + checks.density_oracle(out["oracle"], self.oracle_starts,
                                        self.oracle_t))

    known_failures = ("cluster_density_oracle",)


class HarrisExport:
    """`coalflow simulate` of a Harris skeleton with a row at every step,
    then two `coalflow export` passes over the saved snapshot."""

    name = "harris-export"
    dt, t1, stride = 1e-3, 0.4, 10
    n_triples, n_x = 24, 40
    stratum, s_offset = 12, 100      # r in [12i, 12i + 12), s 100 steps on

    def __init__(self, seed: int, out_dir: Path):
        import numpy as np
        self.out = out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        self.sim_dir = out_dir / "sim"
        self.snapshot = self.sim_dir / "skeleton.cfsk"
        self.config = out_dir / "config.json"
        self.config.write_text(json.dumps({
            "seed": seed, "model": {"kind": "harris", "gamma": 1.0},
            "skeleton": {"window": [0.0, 2.0], "dx": 1.0 / 32, "t0": 0.0,
                         "t1": self.t1, "dt": self.dt, "row_period": None,
                         "observe": "all"},
            "bundles": [], "export_stride": self.stride}))
        # triples r < s < t with r and s drawn one per stratum of steps:
        # 48 distinct start steps whose lazy rebuilds (cost linear in the
        # step) add up to nearly the same work at every seed; t on the
        # stride grid
        gen = np.random.default_rng([seed, 20])
        k_end = round(self.t1 / self.dt)
        self.triples = []
        for i in range(self.n_triples):
            r = self.stratum * i + int(gen.integers(self.stratum))
            s = self.stratum * i + self.s_offset + int(gen.integers(self.stratum))
            t = self.stride * int(gen.integers(s // self.stride + 1,
                                               k_end // self.stride + 1))
            xs = np.sort(gen.uniform(0.0, 2.0, self.n_x)).tolist()
            # the top trajectory is a Brownian motion from 2; 8 is > 9
            # standard deviations above it by t1
            above = 8.0 + float(gen.random())
            self.triples.append((r, s, t, xs, above))
        # pass 1: f(r, x; s) and f(r, x; t), plus one row above the window
        self.q1, self.want1 = [], []
        for i, (r, s, t, xs, above) in enumerate(self.triples):
            for k, g in ((s, (i, "s")), (t, (i, "t"))):
                self.q1 += [(self._time(r), x, self._time(k), g) for x in xs]
                self.want1 += [None] * len(xs)
            self.q1.append((self._time(r), above, self._time(s), (i, "above")))
            self.want1.append("above_range")
        self.q1_path = out_dir / "queries1.csv"
        self._write_queries(self.q1_path, self.q1)
        self.tracer = None                      # set by the traced mode

    def _time(self, k: int) -> float:
        return round(k * self.dt, 9)

    @staticmethod
    def _write_queries(path, queries):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "x", "t"])
            for s, x, t, _ in queries:
                w.writerow([repr(s), repr(x), repr(t)])

    @staticmethod
    def _read_rows(path):
        with open(path) as fh:
            return [(float(r["value"]) if r["value"] else None,
                     int(r["trajectory_id"]) if r["trajectory_id"] else None,
                     r["status"]) for r in csv.DictReader(fh)]

    def _cli(self, tag: str, args):
        """Run one CLI command to completion; returns its wall time."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "coalflow.cli", *args]
        else:
            spans = self.out / f"spans_{tag}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans),
                   *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"coalflow {args[0]} exited "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
        if self.tracer is not None:
            with open(spans) as fh:
                self.tracer.merge(json.load(fh), f"cli.process.{tag}", t0,
                                  t0 + wall)
        return wall

    def round(self):
        shutil.rmtree(self.sim_dir, ignore_errors=True)
        sim = self._cli("simulate", ["simulate", "--config", str(self.config),
                                     "--out", str(self.sim_dir)])
        out1 = self.out / "evals1.csv"
        exp1 = self._cli("export1", ["export", "--snapshot", str(self.snapshot),
                                     "--queries", str(self.q1_path),
                                     "--out", str(out1)])
        rows1 = self._read_rows(out1)
        # pass 2: f(s, f(r, x; s); t) must reproduce f(r, x; t) exactly
        q2, want2 = [], []
        at = {}
        for q, row in zip(self.q1, rows1):
            at[(q[3], q[1])] = row[0]
        for i, (r, s, t, xs, _) in enumerate(self.triples):
            ys = [(at.get(((i, "s"), x)), at.get(((i, "t"), x))) for x in xs]
            ys = sorted((y, v) for y, v in ys if y is not None)
            q2 += [(self._time(s), y, self._time(t), (i, "compose"))
                   for y, _ in ys]
            want2 += [v for _, v in ys]
        q2_path = self.out / "queries2.csv"
        self._write_queries(q2_path, q2)
        out2 = self.out / "evals2.csv"
        exp2 = self._cli("export2", ["export", "--snapshot", str(self.snapshot),
                                     "--queries", str(q2_path),
                                     "--out", str(out2)])
        rows2 = self._read_rows(out2)
        outputs = (rows1, q2, want2, rows2)
        return outputs, {"simulate_s": sim, "export_s": exp1 + exp2,
                         "export_rows": len(self.q1) + len(q2)}

    def gate_lines(self, outputs):
        rows1, q2, _, rows2 = outputs
        return [f"export pass 1: {len(rows1)} rows, pass 2: {len(rows2)} rows"]

    def trajectories(self):
        traj = {}
        with open(self.sim_dir / "trajectories.csv") as fh:
            for r in csv.DictReader(fh):
                traj.setdefault(round(float(r["time"]) / self.dt), set()).add(
                    (int(r["trajectory"]), float(r["position"])))
        return traj

    def check(self, outputs):
        rows1, q2, want2, rows2 = outputs
        traj = self.trajectories()
        return (checks.export_rows("export_pass1", self.q1, rows1, self.want1,
                                   traj, self.stride, self.dt)
                + checks.export_rows("export_pass2_F1", q2, rows2, want2,
                                     traj, self.stride, self.dt))


WORKLOADS = {w.name: w for w in (ShiftLaw, StoppedLaw, McLaws, HarrisExport)}
