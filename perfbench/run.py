"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
timed phase repeats whole rounds of the workload until S seconds of rounds
have been measured.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics, tracing off;
* ``--trace 1``: per-layer metrics.  Rounds alternate between untraced and
  traced, so the same run gives the tracing overhead; metrics are per
  traced round.

Exit status 0 when every check passed (the known failures a workload
names are counted in ``failed`` but keep ``correct`` true), 1 when another
check failed, 2 when the program cannot be imported from ./src.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the machine has two cores and other load, and the
# Harris Cholesky is the only BLAS-heavy call
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, HarrisExport  # noqa: E402

SETUP_PROBES = 2
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "items_per_s": "1/s"}
IMPORT_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print its set-up seconds, exit")
    return p.parse_args(argv)


def program_importable() -> bool:
    """The checkout's own src/coalflow, not an installed copy."""
    try:
        import coalflow
    except ImportError:
        return False
    return Path(coalflow.__file__).resolve().parent == SRC / "coalflow"


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def probe(cmd) -> float:
    """Last stdout line of a child, as a number."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                         text=True).stdout
    return float(out.strip().splitlines()[-1])


def setup_probes(args) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return [probe(cmd) for _ in range(SETUP_PROBES)]


def fixed_size_calls(seed: int, absent: list) -> dict:
    """Step kernels at fixed sizes on inputs made from the seed: median
    microseconds per call over blocks of calls."""
    import numpy as np
    from coalflow import motions
    gen = np.random.default_rng([seed, 30])
    noise = np.random.Generator(np.random.Philox(seed))

    def us_per_call(call, block, budget):
        times = []
        while sum(times) < budget or len(times) < 5:
            t0 = time.perf_counter()
            for _ in range(block):
                call()
            times.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(times) / block

    def kernel(name):
        fn = getattr(motions, name, None)
        if fn is None:
            absent.append(f"coalflow.motions.{name}")
        return fn

    out = {}
    step = kernel("propose_diffusion_step")
    if step is not None:
        spec = motions.DiffusionSpec.arratia()
        for n in (2, 64, 512):
            pos = np.sort(gen.uniform(0.0, n / 32.0, n))
            out[f"motions.diffusion_step_us.n{n}"] = us_per_call(
                lambda: step(spec, pos, 0.0, 1e-3, noise), 50, 0.15)
    collapse = kernel("collapse_proposals")
    if collapse is not None:
        prop = np.sort(gen.uniform(0.0, 2.0, 64))
        flags = gen.random(63) < 0.1
        out["motions.collapse_us.n64"] = us_per_call(
            lambda: collapse(prop, flags), 50, 0.15)
    harris = kernel("propose_harris_step")
    if harris is not None:
        spec = motions.HarrisSpec(gamma=1.0)
        for n in (64, 256, 512):
            # lattice-like spacing keeps the covariance well conditioned
            pos = (np.arange(n) + gen.uniform(0.0, 0.5, n)) / 32.0
            out[f"motions.harris_step_us.n{n}"] = us_per_call(
                lambda: harris(spec, pos, 1e-3, noise), 2, 0.3)
    return out


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds until `seconds` of round time are measured.  With a
    tracer, rounds alternate untraced / traced (at least one of each)."""
    rounds = []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(layers.TARGETS)
            wl.tracer = tracer
        t0 = time.perf_counter()
        try:
            outputs, phases = wl.round()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                wl.tracer = None
        rounds.append((traced, wall, phases, wl.check(outputs)))
        if len(rounds) == 1:
            for line in wl.gate_lines(outputs):
                print(f"  gate: {line}")
        detail = "".join(f", {k} {v:.3f}" for k, v in phases.items()
                         if k.endswith("_s"))
        print(f"  round {len(rounds)}{' traced' if traced else ''}: "
              f"{wall:.3f} s{detail}", flush=True)
        measured = sum(r[1] for r in rounds)
        if measured >= seconds and (tracer is None or len(rounds) >= 2):
            return rounds


def items_per_s(wl, wall: float, phases: dict) -> float:
    """The workload's unit of work per second: export query rows per second
    of export wall time on harris-export, items per round time elsewhere."""
    if "export_rows" in phases:
        return phases["export_rows"] / phases["export_s"]
    return wl.items / wall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_importable():
        print(f"error: cannot import coalflow from {SRC}", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / args.workload
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, out_dir / "probe")
        print(time.perf_counter() - T_START)
        return 0
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = time.perf_counter() - T_START
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"set-up {setup_s:.3f} s", flush=True)

    tracer = Tracer() if args.trace else None
    rounds = run_rounds(wl, args.seconds, tracer)
    rss = peak_rss_mb(children=isinstance(wl, HarrisExport))
    ops = [op for r in rounds for op in r[3]]
    if hasattr(wl, "check_once"):
        ops += wl.check_once()
    known = getattr(wl, "known_failures", ())
    bad = [name for name, ok in ops if not ok]
    unexpected = [name for name in bad if name not in known]
    for name in sorted(set(bad)):
        tag = "known failure" if name in known else "FAILED"
        print(f"  check {tag}: {name} ({bad.count(name)}x)")

    untraced = [r for r in rounds if not r[0]]
    if args.trace:
        metrics, absent = traced_metrics(args, wl, rounds, tracer)
        if absent:
            print(f"  absent per-layer metrics: {', '.join(absent)}")
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir.parent / f"spans_{args.workload}.json")
    else:
        values = {
            "setup_s": statistics.median([setup_s] + setup_probes(args)),
            "wall_s": statistics.median(r[1] for r in untraced),
            "peak_rss_mb": rss,
            "items_per_s": statistics.median(
                items_per_s(wl, r[1], r[2]) for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(bad), "metrics": metrics}))
    return 1 if unexpected else 0


def traced_metrics(args, wl, rounds, tracer):
    traced = [r for r in rounds if r[0]]
    untraced = [r for r in rounds if not r[0]]
    absent = list(tracer.absent)
    extra = fixed_size_calls(args.seed, absent)
    extra["cli.import_s"] = statistics.median(
        probe([sys.executable, str(HERE / "cli_child.py"), "--import-only"])
        for _ in range(IMPORT_PROBES))
    snapshot = getattr(wl, "snapshot", None)
    extra["skeleton.snapshot_mb"] = (snapshot.stat().st_size / 2**20
                                     if snapshot is not None else 0.0)
    for phase in ("simulate_s", "export_s"):
        extra[f"cli.{phase}"] = statistics.median(
            r[2].get(phase, 0.0) for r in untraced)
    wall_u = statistics.median(r[1] for r in untraced)
    wall_t = statistics.median(r[1] for r in traced)
    extra.update({"trace.untraced_wall_s": wall_u,
                  "trace.traced_wall_s": wall_t,
                  "trace.overhead_s": wall_t - wall_u})
    values = layers.per_layer_metrics(tracer.aggregate(), tracer.counters,
                                      len(traced), extra)
    return layers.report(values, absent)


if __name__ == "__main__":
    sys.exit(main())
