"""The benchmark's workloads: experiment configs and their worker counts.

Pass ``p`` of a run with seed ``s`` runs the workload's config with
``master_seed = 1000 * s + p``, so runs with different seeds never share a
trial.  This module imports nothing from numpy or heavyroots, so a worker can
time the import of heavyroots on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_PASSES = 1000  # pass index stays below the master-seed stride


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    spec: dict  # experiment config as accepted by config_from_dict, without seed


# Each workload stresses a different part of the shared trial pipeline; see
# layers.json for which per-layer metric should move which end-to-end metric.
WORKLOADS = {
    w.name: w
    for w in (
        # tier-1 criterion-7 config: one dense 500-root block per trial,
        # single-threaded baseline
        Workload(
            "cauchy_n500_w1",
            1,
            {
                "kind": "stable_compare",
                "degrees": [500],
                "trials": 4,
                "distribution": {"variant": "cauchy"},
                "delta": 1.0,
                "alpha": 1.0,
            },
        ),
        # millisecond trials with log-magnitudes up to ~1e300: fixed per-trial
        # Python costs (hull, Fraction frames, conversions, matcher, futures)
        # dominate, and 2 workers contend for the interpreter lock
        Workload(
            "dlog_small_matching_w2",
            2,
            {
                "kind": "matching",
                "degrees": [20, 50],
                "trials": 100,
                "distribution": {
                    "variant": "double_log_slow_tail",
                    "beta": 1.0,
                    "cap": 690.0,
                },
                "epsilon": 0.5,
            },
        ),
        # large dense blocks where numpy releases the interpreter lock, so 2
        # workers pay; peak memory is set by the (n+1) x m temporaries.  The
        # largest degree is 500, not 1000: at n = 1000 the per-trial time has
        # a heavy tail (coefficient of variation ~0.67, single trials 5x the
        # median), so a run of a few dozen such trials cannot give a
        # throughput steady from seed to seed; at n = 500 (variation ~0.58)
        # a run holds about four times as many trials.
        Workload(
            "slowtail_large_w2",
            2,
            {
                "kind": "annulus",
                "degrees": [200, 500],
                "trials": 8,
                "distribution": {"variant": "slow_tail_magnitude"},
                "delta": 1.0,
            },
        ),
    )
}


def master_seed(seed: int, pass_index: int) -> int:
    if not 0 <= pass_index < MAX_PASSES:
        raise ValueError("pass index out of range")
    return MAX_PASSES * seed + pass_index


def config_dict(workload: Workload, mseed: int) -> dict:
    return {**workload.spec, "master_seed": mseed}


def trials_per_pass(workload: Workload) -> int:
    return len(workload.spec["degrees"]) * workload.spec["trials"]
