"""Write the reference records in bench/refs/ from the current source tree.

Run at the commit whose outputs are the reference, from the checkout root:

    PYTHONPATH=src python3 bench/make_refs.py

For each workload it runs the first REF_PASSES passes of seed REF_SEED on one
worker and saves every trial's checked fields and roots.  Passes of other
seeds, and later passes of this one, are verified by a 1-worker rerun instead
(core.verify); the pass counts only bound the size of the committed files.
"""

from __future__ import annotations

import sys

import core
from heavyroots import experiments
from workloads import WORKLOADS, master_seed

REF_SEED = 0
REF_PASSES = {
    "cauchy_n500_w1": 8,
    "dlog_small_matching_w2": 4,
    "slowtail_large_w2": 2,
}


def main() -> int:
    for name, workload in WORKLOADS.items():
        trials = []
        for p in range(REF_PASSES[name]):
            mseed = master_seed(REF_SEED, p)
            summary, records = core.run_pass(experiments, workload, mseed, 1)
            trials.extend(core.to_pass_result(workload, mseed, summary, records).trials)
        bad = [t.key for t in trials if not t.converged]
        if bad:
            print(f"{name}: non-converged reference trials {bad}", file=sys.stderr)
            return 1
        core.save_refs(core.refs_path(name), trials)
        print(f"{name}: {len(trials)} trials -> {core.refs_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
