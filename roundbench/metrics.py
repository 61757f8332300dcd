"""Metric table and summary statistics of the round-cost benchmark.

The roundbench binary (main.cpp) prints raw samples; this module turns them into
the named metrics BENCHMARK.json declares. Each per-layer entry also names
the end-to-end metric it should move and the workload that shows it (the
BENCHMARK.json schema has no field for that).
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),  # process CPU seconds, like the other timings
    "round_cpu_p50_s": ("cpu_s", "lower"),
    "round_cpu_tail_s": ("cpu_s", "lower"),
    "samples_per_cpu_s": ("1/cpu_s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "final_accuracy": ("ratio", "higher"),
    "virtual_s_per_round": ("virtual_s", "lower"),
    "upload_mb_per_round": ("MB", "lower"),
    "update_delivered_share": ("ratio", "higher"),
}

# name -> (unit, better, end-to-end metric it should move, workload showing it)
PER_LAYER = {
    "sim.build_fleet_cpu_s": ("cpu_s", "lower", "setup_s", "tree32k"),
    "sim.roster_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s", "tree32k"),
    "sim.cohort_devices": ("count", "lower", "round_cpu_p50_s", "all"),
    "sim.virtual_s_to_target": ("virtual_s", "lower",
                                "none (paper's time-to-accuracy; too "
                                "seed-dependent to bound)", "all"),
    "core.identify_cpu_s": ("cpu_s", "lower", "setup_s", "tree32k"),
    "core.target_cpu_s": ("cpu_s", "lower", "setup_s", "tree32k"),
    "core.select_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s",
                          "tree32k, longtail256_int8_lossy"),
    "core.bookkeeping_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s",
                               "longtail256_int8_lossy"),
    "core.trained_neuron_share": ("ratio", "higher",
                                  "virtual_s_per_round, final_accuracy", "all"),
    "fl.replica_build_cpu_s": ("cpu_s", "lower",
                               "round_cpu_p50_s, peak_rss_mb", "tree32k"),
    "fl.train_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s, samples_per_cpu_s",
                       "paper_alexnet6"),
    "fl.train_wall_s": ("s", "lower", "none (wall clock)", "all"),
    "fl.train_idle_share": ("ratio", "lower", "none (thread-pool use)", "all"),
    "fl.samples": ("count", "higher", "samples_per_cpu_s", "all"),
    "net.deliver_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s",
                          "longtail256_int8_lossy, tree32k"),
    "codec.raw_mb": ("MB", "lower", "upload_mb_per_round",
                     "longtail256_int8_lossy"),
    "codec.wire_mb": ("MB", "lower", "upload_mb_per_round",
                      "longtail256_int8_lossy"),
    "net.frames_sent": ("count", "lower",
                        "update_delivered_share, virtual_s_per_round",
                        "longtail256_int8_lossy"),
    "net.retransmits": ("count", "lower",
                        "update_delivered_share, virtual_s_per_round",
                        "longtail256_int8_lossy"),
    "net.frames_lost": ("count", "lower",
                        "update_delivered_share, virtual_s_per_round",
                        "longtail256_int8_lossy"),
    "net.deadline_misses": ("count", "lower",
                            "update_delivered_share, virtual_s_per_round",
                            "longtail256_int8_lossy"),
    "agg.aggregate_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s", "tree32k"),
    "agg.edge_fold_s": ("s", "lower", "round_cpu_p50_s", "tree32k"),
    "agg.regional_fold_s": ("s", "lower", "round_cpu_p50_s", "tree32k"),
    "agg.root_fold_s": ("s", "lower", "round_cpu_p50_s", "tree32k"),
    "agg.frames_folded": ("count", "lower", "round_cpu_p50_s", "tree32k"),
    "agg.merge_frame_mb": ("MB", "lower", "round_cpu_p50_s", "tree32k"),
    "fl.evaluate_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s",
                          "paper_alexnet6"),
    "fl.live_replica_mb": ("MB", "lower", "peak_rss_mb", "tree32k"),
    "obs.journal_mb_per_round": ("MB", "lower",
                                 "round_cpu_p50_s, peak_rss_mb",
                                 "longtail256_int8_lossy"),
    "fl.checkpoint_save_cpu_s": ("cpu_s", "lower", "none (traced run only)",
                                 "all"),
    "fl.checkpoint_mb": ("MB", "lower", "none (traced run only)", "all"),
    "fl.resume_cpu_s": ("cpu_s", "lower", "none (traced run only)", "all"),
    "round.traced_cpu_s": ("cpu_s", "lower", "round_cpu_p50_s", "all"),
    "round.unattributed_share": ("ratio", "lower", "none (trace coverage)",
                                 "all"),
    "trace.overhead_share": ("ratio", "lower", "none (trace cost)", "all"),
}

# Percentiles the tail may be reported at, highest first.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail(samples):
    """The highest grid percentile with at least TAIL_BEYOND samples above it.

    Nearest-rank percentile: the value at rank ceil(q * n / 100). Returns
    (percentile, value, samples beyond it). With fewer than 20 samples no
    grid percentile qualifies and the median is returned with its (short)
    count, so the caller can report it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_GRID:
        rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2.0 - 1e-9))
    return 50.0, ordered[rank - 1], n - rank


def end_to_end(result):
    """End-to-end metric values (name -> number) of a timed run."""
    rounds = result["round_cpu_s"]
    _, tail_value, _ = tail(rounds)
    return {
        "setup_s": statistics.median(result["setup_cpu_s"]),
        "round_cpu_p50_s": statistics.median(rounds),
        "round_cpu_tail_s": tail_value,
        "samples_per_cpu_s": result["timed_samples"] / result["timed_cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "final_accuracy": result["final_accuracy"],
        "virtual_s_per_round": result["virtual_s_per_round"],
        "upload_mb_per_round": result["upload_mb_per_round"],
        "update_delivered_share": result["update_delivered_share"],
    }


def timed_detail(result):
    """What the timed run's metrics rest on: sample counts and the tail."""
    q, _, beyond = tail(result["round_cpu_s"])
    return {
        "timed_rounds": len(result["round_cpu_s"]),
        "warmup_rounds_excluded": result["warmup_rounds_excluded"],
        "passes": result["passes"],
        "setups": len(result["setup_cpu_s"]),
        "round_cpu_tail_percentile": q,
        "round_cpu_tail_samples_beyond": beyond,
        "virtual_s_to_target": result["virtual_s_to_target"],
        "target_accuracy": result["target_accuracy"],
        "updates_attempted": result["updates_attempted"],
        "updates_delivered": result["updates_delivered"],
        "input_digest": result["input_digest"],
    }


def per_layer(result):
    """Per-layer metric values (name -> number) of a traced run."""
    layers = result["layers"]
    return {name: layers[name] for name in PER_LAYER}


def metrics_block(values, table):
    """{name: {"value", "unit"}} in table order; None marks a missing value."""
    out = {}
    for name, spec in table.items():
        value = values.get(name)
        out[name] = {"value": value, "unit": spec[0]}
    return out
