import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coalflow.cli import main
from coalflow.config import RunConfig
from coalflow.errors import ConfigError
from coalflow.skeleton import SkeletonFlow


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 42,
        "out": str(tmp_path / "out"),
        "model": {"kind": "arratia"},
        "skeleton": {"window": [0.0, 1.0], "dx": 0.0625, "t0": 0.0,
                     "t1": 0.3, "dt": 1e-3, "row_period": 0.05,
                     "observe": "all"},
        "bundles": ["counterexample"],
        "scale": 0.2,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_tree(root: Path, skip=("manifest.json",)):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in skip}


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"bundles": ["nope"]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"coffee": True})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"kind": "unknown"}})


@pytest.mark.parametrize("skeleton", [
    {"window": [0, float("inf")]}, {"window": [0]}, {"window": 1},
    {"t1": float("inf")}, {"t0": float("nan")}, {"dx": "a"},
    {"row_period": 0}, {"row_period": -0.05}, {"observe": "everything"},
    {"observe": [0.00037]}, {"start_times": [0.1, "x"]},
    {"row_perod": 0.05},
    # grids above the cap, refused before any array is made
    {"window": [0, 1e9], "dx": 1e-9}, {"dt": 1e-12}, {"row_period": 1e-12},
    {"window": [0, 1e3], "dx": 1e-3, "row_period": 1e-3},
    # a bool is not a number; a simulated skeleton answers every step
    {"dx": True}, {"observe": [0.1]}])
def test_bad_skeleton_config_exits_2(tmp_path, capsys, skeleton):
    base = json.loads(write_config(tmp_path).read_text())["skeleton"]
    cfg_path = write_config(tmp_path, skeleton={**base, **skeleton})
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    {"model": {"kind": "ou"}}, {"model": {"kind": "harris", "gamma": -1}},
    {"model": 5}, {"skeleton": 5}, {"scale": "a"}, {"scale": float("inf")},
    {"seed": "x"}, {"bundles": 5}, {"replicas": 5}, {"export_stride": "a"},
    {"replicas": {"stopped": "a"}}, {"replicas": {"stopped": 1e400}},
    {"replicas": {"stopped": 0}}, {"replicas": {"stopped": True}},
    # a key no check reads, and counts above the cap
    {"replicas": {"stoped": 5}}, {"replicas": {"stopped": 1e300}},
    {"scale": 1e200},
    # a bool is not a number, and a stride is at least 1
    {"seed": True}, {"scale": True}, {"export_stride": True},
    {"export_stride": 0}, {"export_stride": -3},
    {"model": {"kind": "ou", "rate": True, "sigma": 1}}])
def test_bad_run_config_exits_2(tmp_path, capsys, overrides):
    cfg_path = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ["{not json", "5", "[]", '"cfg"', "null",
                                  "\udcff"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_config_file_not_a_json_object_exits_2(tmp_path, capsys, command,
                                               text):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_simulate_deterministic_and_manifested(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    out = Path(json.loads(cfg_path.read_text())["out"])
    first = read_tree(out)
    assert "skeleton.cfsk" in first and "trajectories.csv" in first \
        and "plotdata.csv" in first
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    second = read_tree(out)
    assert first == second  # byte-identical artifact set
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {a["path"] for a in manifest["artifacts"]}
    on_disk = set(read_tree(out))
    assert listed == on_disk  # manifest completeness


def test_simulate_seed_changes_artifacts(tmp_path):
    cfg_path = write_config(tmp_path)
    main(["simulate", "--config", str(cfg_path)])
    out = Path(json.loads(cfg_path.read_text())["out"])
    first = read_tree(out)
    main(["simulate", "--config", str(cfg_path), "--seed", "43"])
    assert read_tree(out)["trajectories.csv"] != first["trajectories.csv"]


def test_verify_reports_and_exit_code(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = main(["verify", "--config", str(cfg_path)])
    assert rc == 0
    out = Path(json.loads(cfg_path.read_text())["out"])
    bundle = json.loads((out / "report_counterexample.json").read_text())
    assert bundle["all_pass"] is True
    assert bundle["config_hash"]
    assert (out / "counterexample_verdict.txt").exists()


def test_verify_byte_identical_reports(tmp_path):
    cfg_path = write_config(tmp_path, bundles=["counterexample", "rng"])
    main(["verify", "--config", str(cfg_path)])
    out = Path(json.loads(cfg_path.read_text())["out"])
    first = read_tree(out)
    main(["verify", "--config", str(cfg_path)])
    assert read_tree(out) == first


def test_export_contract(tmp_path):
    cfg_path = write_config(tmp_path)
    main(["simulate", "--config", str(cfg_path)])
    out = Path(json.loads(cfg_path.read_text())["out"])
    queries = tmp_path / "queries.csv"
    queries.write_text("s,x,t\n0.1,0.5,0.2\n0.1,0.5,0.1\n0.1,99.0,0.2\n")
    dest = tmp_path / "evals.csv"
    assert main(["export", "--snapshot", str(out / "skeleton.cfsk"),
                 "--queries", str(queries), "--out", str(dest)]) == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "s,x,t,value,trajectory_id,status"
    assert len(lines) == 4
    assert lines[2].split(",")[3] == "0.5"  # value at (s,x,s) is x
    assert lines[3].endswith("above_range")
    # empty query file: header only
    queries.write_text("s,x,t\n")
    main(["export", "--snapshot", str(out / "skeleton.cfsk"),
          "--queries", str(queries), "--out", str(dest)])
    assert dest.read_text().strip() == "s,x,t,value,trajectory_id,status"


def test_simulate_single_start_single_trajectory(tmp_path):
    cfg_path = write_config(
        tmp_path,
        skeleton={"window": [0.0, 0.0], "dx": 1.0, "t0": 0.0, "t1": 0.2,
                  "dt": 1e-3, "start_times": [0.0], "observe": "all"})
    main(["simulate", "--config", str(cfg_path)])
    out = Path(json.loads(cfg_path.read_text())["out"])
    lines = (out / "trajectories.csv").read_text().strip().splitlines()[1:]
    ids = {ln.split(",")[1] for ln in lines}
    assert ids == {"0"}


def test_cli_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "coalflow.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "verify" in proc.stdout


def test_cli_import_leaves_scipy_out():
    code = ("import sys, coalflow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_unknown_bundle_exits_2():
    from coalflow.bundles import BUNDLES
    from coalflow.config import KNOWN_BUNDLES
    assert sorted(BUNDLES) == sorted(KNOWN_BUNDLES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bundle", "nosuch"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("snap")
    cfg_path = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    return tmp_path / "out" / "skeleton.cfsk"


def export_rows(snapshot, tmp_path, text):
    queries = tmp_path / "queries.csv"
    queries.write_text(text)
    dest = tmp_path / "evals.csv"
    rc = main(["export", "--snapshot", str(snapshot), "--queries",
               str(queries), "--out", str(dest)])
    return rc, dest.read_text().strip().splitlines()[1:] if rc == 0 else None


@pytest.mark.parametrize("row", ["nan,0.5,0.2", "0.1,nan,0.2",
                                 "0.2,0.5,0.1", "0.1,inf,0.2",
                                 "0.1,abc,0.2", "0.1,0.5"])
def test_export_invalid_row_gets_status(snapshot, tmp_path, row):
    rc, lines = export_rows(snapshot, tmp_path,
                            f"s,x,t\n0.1,0.5,0.2\n{row}\n0.1,0.5,0.2\n")
    assert rc == 0 and len(lines) == 3
    assert lines[1].endswith(",,,invalid_query")
    assert lines[0] == lines[2] and lines[0].endswith(",ok")


def test_export_missing_column_or_file_exits_2(snapshot, tmp_path):
    rc, _ = export_rows(snapshot, tmp_path, "s,x\n0.1,0.5\n")
    assert rc == 2
    assert main(["export", "--snapshot", str(snapshot), "--queries",
                 str(tmp_path / "nosuch.csv"), "--out",
                 str(tmp_path / "evals.csv")]) == 2


@pytest.mark.parametrize("cut", ["tail", "header"])
def test_export_truncated_snapshot_exits_2(snapshot, tmp_path, cut):
    data = snapshot.read_bytes()
    short = tmp_path / "short.cfsk"
    short.write_bytes(data[:-5] if cut == "tail" else data[:40])
    with pytest.raises(ConfigError):
        SkeletonFlow.load(short)
    queries = tmp_path / "queries.csv"
    queries.write_text("s,x,t\n0.1,0.5,0.2\n")
    assert main(["export", "--snapshot", str(short), "--queries",
                 str(queries), "--out", str(tmp_path / "evals.csv")]) == 2


def _damaged(skel, damage):
    """skel with one invariant of a built skeleton broken in its tables."""
    parent, lens = skel.parent.copy(), np.diff(skel.offsets)
    i, j = np.flatnonzero(skel.merge_step >= 0)[-2:]
    if damage == "two-cycle":
        parent[i], parent[j] = j, i
    elif damage == "parent-out-of-range":
        parent[j] = skel.n_traj + 5
    else:                     # lengths that still sum to the flat array's
        a, b = np.flatnonzero(lens)[:2]
        lens[a] += 1
        lens[b] -= 1
    return SkeletonFlow(skel.config, skel.seed, skel.rng_path, skel.u0,
                        skel.act, parent, skel.merge_step, skel.flat,
                        np.concatenate(([0], np.cumsum(lens))))


@pytest.mark.parametrize("damage", ["two-cycle", "parent-out-of-range",
                                    "bad-lens"])
def test_export_inconsistent_snapshot_exits_2(snapshot, tmp_path, damage):
    bad = _damaged(SkeletonFlow.load(snapshot), damage).save(
        tmp_path / "bad.cfsk")
    with pytest.raises(ConfigError):
        SkeletonFlow.load(bad)
    queries = tmp_path / "queries.csv"
    queries.write_text("s,x,t\n0.1,0.5,0.2\n")
    assert main(["export", "--snapshot", str(bad), "--queries",
                 str(queries), "--out", str(tmp_path / "evals.csv")]) == 2


def test_corrupt_snapshot_header_is_config_error(snapshot, tmp_path):
    data = bytearray(snapshot.read_bytes())
    data[20] = 0xFF                      # inside the JSON header
    bad = tmp_path / "bad.cfsk"
    bad.write_bytes(bytes(data))
    with pytest.raises(ConfigError):
        SkeletonFlow.load(bad)
    assert SkeletonFlow.load(snapshot).n_traj > 0
