"""Which program names the traced mode wraps, and the per-layer metrics
computed from the spans.

Layers are the package's modules.  Each wrapped name is the one the calling
module looks the function up under, so a function imported into ``verify``
is wrapped there and not where it is defined.
"""

from __future__ import annotations

BUILD = "skeleton.build_skeleton"
LAZY_HIT = "skeleton.clusters_at_index.hit"
LAZY_MISS = "skeleton.clusters_at_index.miss"


def _skeleton_counts(counters, args, skel) -> None:
    """Work counts of a finished build: particle steps (sum of history
    lengths) and starters not merged at injection."""
    try:
        hist, act, merge_step = skel.hist, skel.act, skel.merge_step
    except AttributeError:
        return
    n = len(hist)
    collided = sum(1 for i in range(n)
                   if len(hist[i]) == 0 and merge_step[i] == act[i])
    counters["particle_steps"] += sum(len(h) for h in hist)
    counters["starters"] += n
    counters["fresh_starters"] += n - collided


def _lazy_kind(args) -> str:
    """A clusters_at_index call is a hit when the step was recorded at build
    time or rebuilt earlier; otherwise it reconstructs the cluster set."""
    skel, k = args[0], args[1]
    try:
        hit = k in skel.snapshots or k in skel._lazy_cache
    except AttributeError:
        return "skeleton.clusters_at_index"
    return LAZY_HIT if hit else LAZY_MISS


_SHARED = [
    ("coalflow.skeleton.propose_diffusion_step",
     "motions.propose_diffusion_step", None),
    ("coalflow.skeleton.propose_harris_step", "motions.propose_harris_step",
     None),
    ("coalflow.skeleton.collapse_proposals", "motions.collapse_proposals",
     None),
    ("coalflow.skeleton.SkeletonFlow.clusters_at_index", _lazy_kind, None),
]

# wrapped in the benchmark process (shift-law, stopped-law, mc-laws)
TARGETS = _SHARED + [
    ("coalflow.verify.build_skeleton", BUILD, _skeleton_counts),
    ("coalflow.kernels.collapse_proposals", "motions.collapse_proposals",
     None),
    ("coalflow.verify.step_system", "motions.step_system", None),
    ("coalflow.verify.evaluate", "flows.evaluate", None),
    ("coalflow.kernels.pair_event_probability",
     "kernels.pair_event_probability", None),
    ("coalflow.kernels.pair_stopped_paths", "kernels.pair_stopped_paths",
     None),
    ("coalflow.kernels.endpoint_sample", "kernels.endpoint_sample", None),
    ("coalflow.kernels.cluster_count_sample", "kernels.cluster_count_sample",
     None),
    ("coalflow.verify.test_shift_invariance", "verify.test_shift_invariance",
     None),
    ("coalflow.verify.shift_invariance_samples",
     "verify.shift_invariance_samples", None),
    ("coalflow.verify.test_stopped_equivalence",
     "verify.test_stopped_equivalence", None),
    ("coalflow.verify.test_no_meet_law", "verify.test_no_meet_law", None),
    ("coalflow.verify.test_meeting_bound", "verify.test_meeting_bound", None),
    ("coalflow.verify.test_cluster_count", "verify.test_cluster_count", None),
    ("coalflow.verify.test_cluster_density_oracle",
     "verify.test_cluster_density_oracle", None),
    ("coalflow.verify.test_ou_moments", "verify.test_ou_moments", None),
    ("coalflow.verify.energy_two_sample", "stats.energy_two_sample", None),
    ("coalflow.verify.ks_two_sample", "stats.ks_two_sample", None),
    ("coalflow.verify.ks_against_normal", "stats.ks_against_normal", None),
    ("coalflow.counterexample.distance_correlation_test",
     "stats.distance_correlation_test", None),
    ("coalflow.counterexample.ks_against_uniform", "stats.ks_against_uniform",
     None),
    ("coalflow.counterexample.verify_appendix",
     "counterexample.verify_appendix", None),
]

# wrapped inside each traced `coalflow` CLI child
CLI_TARGETS = _SHARED + [
    ("coalflow.cli.cmd_simulate", "cli.cmd_simulate", None),
    ("coalflow.cli.cmd_export", "cli.cmd_export", None),
    ("coalflow.cli.build_skeleton", BUILD, _skeleton_counts),
    ("coalflow.skeleton.SkeletonFlow.save", "skeleton.save", None),
    ("coalflow.skeleton.SkeletonFlow.load", "skeleton.load", None),
    ("coalflow.cli.evaluate_with_id", "flows.evaluate", None),
]

# name -> (unit, wrapped targets it needs); order is the printed order
PER_LAYER = {
    "motions.diffusion_step_us.n2": ("us/call", ["coalflow.motions.propose_diffusion_step"]),
    "motions.diffusion_step_us.n64": ("us/call", ["coalflow.motions.propose_diffusion_step"]),
    "motions.diffusion_step_us.n512": ("us/call", ["coalflow.motions.propose_diffusion_step"]),
    "motions.collapse_us.n64": ("us/call", ["coalflow.motions.collapse_proposals"]),
    "motions.harris_step_us.n64": ("us/call", ["coalflow.motions.propose_harris_step"]),
    "motions.harris_step_us.n256": ("us/call", ["coalflow.motions.propose_harris_step"]),
    "motions.harris_step_us.n512": ("us/call", ["coalflow.motions.propose_harris_step"]),
    "motions.step_system_calls": ("count", ["coalflow.verify.step_system"]),
    "motions.step_system_us": ("us/call", ["coalflow.verify.step_system"]),
    "skeleton.build_ms": ("ms/call", ["coalflow.verify.build_skeleton", "coalflow.cli.build_skeleton"]),
    "skeleton.build_calls": ("count", ["coalflow.verify.build_skeleton", "coalflow.cli.build_skeleton"]),
    "skeleton.step_kernel_share": ("ratio", ["coalflow.verify.build_skeleton", "coalflow.cli.build_skeleton",
                                             "coalflow.skeleton.propose_diffusion_step",
                                             "coalflow.skeleton.propose_harris_step",
                                             "coalflow.skeleton.collapse_proposals"]),
    "skeleton.particle_steps": ("count", ["coalflow.verify.build_skeleton", "coalflow.cli.build_skeleton"]),
    "skeleton.fresh_starter_ratio": ("ratio", ["coalflow.verify.build_skeleton", "coalflow.cli.build_skeleton"]),
    "skeleton.save_s": ("s", ["coalflow.skeleton.SkeletonFlow.save"]),
    "skeleton.snapshot_mb": ("MB", []),
    "skeleton.load_s": ("s", ["coalflow.skeleton.SkeletonFlow.load"]),
    "skeleton.lazy_clusters_ms": ("ms/call", ["coalflow.skeleton.SkeletonFlow.clusters_at_index"]),
    "skeleton.lazy_clusters_calls": ("count", ["coalflow.skeleton.SkeletonFlow.clusters_at_index"]),
    "skeleton.cluster_cache_hit_ratio": ("ratio", ["coalflow.skeleton.SkeletonFlow.clusters_at_index"]),
    "flows.evaluate_us": ("us/call", ["coalflow.verify.evaluate", "coalflow.cli.evaluate_with_id"]),
    "flows.evaluate_calls": ("count", ["coalflow.verify.evaluate", "coalflow.cli.evaluate_with_id"]),
    "kernels.pair_event_s": ("s", ["coalflow.kernels.pair_event_probability"]),
    "kernels.endpoint_s": ("s", ["coalflow.kernels.endpoint_sample"]),
    "kernels.cluster_count_s": ("s", ["coalflow.kernels.cluster_count_sample"]),
    "kernels.pair_stopped_s": ("s", ["coalflow.kernels.pair_stopped_paths"]),
    "verify.shift_self_s": ("s", ["coalflow.verify.test_shift_invariance",
                                  "coalflow.verify.shift_invariance_samples"]),
    "verify.stopped_self_s": ("s", ["coalflow.verify.test_stopped_equivalence"]),
    "stats.energy_s": ("s", ["coalflow.verify.energy_two_sample"]),
    "stats.dcor_s": ("s", ["coalflow.counterexample.distance_correlation_test"]),
    "stats.ks_s": ("s", ["coalflow.verify.ks_two_sample", "coalflow.verify.ks_against_normal",
                         "coalflow.counterexample.ks_against_uniform"]),
    "counterexample.self_s": ("s", ["coalflow.counterexample.verify_appendix"]),
    "cli.import_s": ("s", []),
    "cli.simulate_self_s": ("s", ["coalflow.cli.cmd_simulate"]),
    "cli.export_self_s": ("s", ["coalflow.cli.cmd_export"]),
    "cli.simulate_s": ("s", []),
    "cli.export_s": ("s", []),
    "trace.untraced_wall_s": ("s", []),
    "trace.traced_wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(agg: dict, counters, rounds: int, extra: dict) -> dict:
    """Per-layer values for one traced round on average.

    agg: span name -> [calls, total s, self s] over all traced rounds;
    extra: values measured outside the spans (fixed-size kernel calls,
    import probes, phase walls).  A layer the workload does not use reads
    0 (0 calls, 0 s)."""
    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    r = max(rounds, 1)
    build_total = total(BUILD)
    lazy_calls = calls(LAZY_HIT, LAZY_MISS)
    out = dict(extra)
    out.update({
        "motions.step_system_calls": calls("motions.step_system") / r,
        "motions.step_system_us": 1e6 * _ratio(total("motions.step_system"),
                                               calls("motions.step_system")),
        "skeleton.build_ms": 1e3 * _ratio(build_total, calls(BUILD)),
        "skeleton.build_calls": calls(BUILD) / r,
        "skeleton.step_kernel_share": _ratio(build_total - self_(BUILD),
                                             build_total),
        "skeleton.particle_steps": counters.get("particle_steps", 0) / r,
        "skeleton.fresh_starter_ratio": _ratio(
            counters.get("fresh_starters", 0), counters.get("starters", 0)),
        "skeleton.save_s": total("skeleton.save") / r,
        "skeleton.load_s": total("skeleton.load") / r,
        "skeleton.lazy_clusters_ms": 1e3 * _ratio(total(LAZY_MISS),
                                                  calls(LAZY_MISS)),
        "skeleton.lazy_clusters_calls": calls(LAZY_MISS) / r,
        "skeleton.cluster_cache_hit_ratio": _ratio(calls(LAZY_HIT),
                                                   lazy_calls),
        "flows.evaluate_us": 1e6 * _ratio(self_("flows.evaluate"),
                                          calls("flows.evaluate")),
        "flows.evaluate_calls": calls("flows.evaluate") / r,
        "kernels.pair_event_s": total("kernels.pair_event_probability") / r,
        "kernels.endpoint_s": total("kernels.endpoint_sample") / r,
        "kernels.cluster_count_s": total("kernels.cluster_count_sample") / r,
        "kernels.pair_stopped_s": total("kernels.pair_stopped_paths") / r,
        "verify.shift_self_s": self_("verify.test_shift_invariance",
                                     "verify.shift_invariance_samples") / r,
        "verify.stopped_self_s": self_("verify.test_stopped_equivalence") / r,
        "stats.energy_s": total("stats.energy_two_sample") / r,
        "stats.dcor_s": total("stats.distance_correlation_test") / r,
        "stats.ks_s": total("stats.ks_two_sample", "stats.ks_against_normal",
                            "stats.ks_against_uniform") / r,
        "counterexample.self_s": self_("counterexample.verify_appendix") / r,
        "cli.simulate_self_s": self_("cli.cmd_simulate") / r,
        "cli.export_self_s": self_("cli.cmd_export") / r,
    })
    return out


def report(values: dict, absent_targets) -> tuple:
    """(metrics dict for the result line, names of absent metrics).  A
    metric is absent when a name it needs could not be wrapped or measured
    in this program."""
    absent_targets = set(absent_targets)
    metrics, absent = {}, []
    for name, (unit, needs) in PER_LAYER.items():
        if name not in values or any(t in absent_targets for t in needs):
            absent.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, absent
