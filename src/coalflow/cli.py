"""Command-line entry point: simulate / verify / export.

All artifacts are wall-clock-free and byte-deterministic under
(config, seed); the run manifest carries timestamps and artifact checksums.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import KNOWN_BUNDLES, RunConfig
from .errors import (AboveRange, CoalflowError, ConfigError, OffGridTime,
                     OutOfHorizon)
from .flows import EvalQuery, evaluate_with_id, skeleton_flow_element
from .reports import write_bundle, write_replica_csv
from .rng import RngStream
from .skeleton import SkeletonFlow, build_skeleton


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, cfg: RunConfig) -> Path:
    """List every artifact in the output directory with its checksum."""
    artifacts = []
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            artifacts.append({
                "path": str(p.relative_to(out_dir)),
                "sha256": _sha256(p),
                "bytes": p.stat().st_size,
            })
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "artifacts": artifacts,
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_simulate(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    scfg = cfg.skeleton_config()
    rng = RngStream(cfg.seed, (0,))
    skel = build_skeleton(scfg, rng)
    skel.save(out / "skeleton.cfsk")

    rows = []
    plot_rows = []
    for k in range(0, skel.n_steps + 1, cfg.export_stride):
        ids, pos, _ = skel.clusters_at_index(k)
        t = float(skel.times[k])
        for i, p in zip(ids.tolist(), pos.tolist()):
            rows.append((t, i, p))
        gaps = np.diff(pos) if pos.size > 1 else np.zeros(0)
        plot_rows.append((t, int(pos.size),
                          float(pos.min()) if pos.size else float("nan"),
                          float(pos.max()) if pos.size else float("nan"),
                          float(gaps.mean()) if gaps.size else float("nan")))
    write_replica_csv(out / "trajectories.csv",
                      ["time", "trajectory", "position"], rows)
    write_replica_csv(out / "plotdata.csv",
                      ["time", "n_clusters", "lowest", "highest", "mean_gap"],
                      plot_rows)
    write_manifest(out, cfg)
    print(f"simulate: {skel.n_traj} trajectories, {skel.n_steps} steps -> {out}")
    return 0


def cmd_verify(cfg: RunConfig, bundles=None) -> int:
    # bundles pulls in scipy; simulate and export never need it
    from .bundles import run_bundle
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    names = list(bundles or cfg.bundles)
    all_ok = True
    for name in names:
        rng = RngStream(cfg.seed, (_bundle_path_index(name),))
        reports, extras = run_bundle(name, cfg, rng)
        write_bundle(out / f"report_{name}.json", name, cfg.seed,
                     cfg.config_hash(), reports)
        for rel, writer in extras:
            writer(out / rel)
        ok = all(r.ok for r in reports)
        all_ok &= ok
        for r in reports:
            print(f"[{name}] {'PASS' if r.ok else 'FAIL'} {r.name} "
                  f"statistic={r.statistic:.6g} reference={r.reference:.6g} "
                  f"mc_std_error={r.mc_std_error:.6g} replicas={r.replicas}")
    write_manifest(out, cfg)
    print(f"verify: {'all green' if all_ok else 'FAILURES PRESENT'} -> {out}")
    return 0 if all_ok else 1


def _bundle_path_index(name: str) -> int:
    return 1000 + sorted(KNOWN_BUNDLES).index(name)


def _read_queries(path: str) -> list:
    """Raw (s, x, t) text of each query row; a file without all three
    columns, or that is not UTF-8 text or not CSV, is a ConfigError."""
    with open(path, newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            missing = {"s", "x", "t"} - set(reader.fieldnames or ())
            if missing:
                raise ConfigError(f"{path}: no column(s) {sorted(missing)}")
            return [(r["s"], r["x"], r["t"]) for r in reader]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{path}: not a UTF-8 CSV file: {exc}") from None


def _parse_query(fields):
    """(s, x, t) as floats, or None for a row that is not a valid query:
    a missing or non-numeric field, a non-finite value, or s > t."""
    try:
        s, x, t = (float(v) for v in fields)
    except (TypeError, ValueError):
        return None
    if not all(map(math.isfinite, (s, x, t))) or s > t:
        return None
    return s, x, t


def cmd_export(snapshot: str, queries: str, out_path: str) -> int:
    skel = SkeletonFlow.load(snapshot)
    f = skeleton_flow_element(skel)
    rows = _read_queries(queries)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "t", "value", "trajectory_id", "status"])
        for fields in rows:
            q = _parse_query(fields)
            if q is None:
                w.writerow([*fields, "", "", "invalid_query"])
                continue
            s, x, t = q
            try:
                v, tid = evaluate_with_id(f, EvalQuery(s, x, t))
                w.writerow([repr(s), repr(x), repr(t), repr(float(v)), tid, "ok"])
            except AboveRange:
                w.writerow([repr(s), repr(x), repr(t), "", "", "above_range"])
            except OutOfHorizon:
                w.writerow([repr(s), repr(x), repr(t), "", "", "out_of_horizon"])
            except OffGridTime:
                w.writerow([repr(s), repr(x), repr(t), "", "", "off_grid_time"])
    print(f"export: {len(rows)} queries -> {out_path}")
    return 0


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        cfg = RunConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coalflow",
        description="Coalescing stochastic flow simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="build and persist a skeleton flow")
    p_ver = sub.add_parser("verify", help="run verification bundles")
    for p in (p_sim, p_ver):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
    p_ver.add_argument("--bundle", action="append", default=None,
                       choices=sorted(KNOWN_BUNDLES),
                       help="bundle to run (repeatable; default: config)")

    p_exp = sub.add_parser("export", help="evaluate queries on a snapshot")
    p_exp.add_argument("--snapshot", required=True)
    p_exp.add_argument("--queries", required=True,
                       help="CSV with header s,x,t")
    p_exp.add_argument("--out", required=True, help="output CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_load_config(args))
        if args.command == "verify":
            return cmd_verify(_load_config(args), bundles=args.bundle)
        if args.command == "export":
            return cmd_export(args.snapshot, args.queries, args.out)
    except (CoalflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
