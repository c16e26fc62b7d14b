"""Self-test of the benchmark's output checks; exits 0 when every case holds.

Run from the checkout root:

    PYTHONPATH=src python3 bench/selftest.py

Cases:

- clean: pass 0 of the reference seed verifies with no failures on every
  workload, against the committed references; a pass of a seed without
  references verifies through the 1-worker rerun with no failures;
- a reference root moved by 1e-11 relative passes, and one moved by 1e-7
  relative fails exactly one trial;
- a trial forced to report ``converged = False`` fails exactly one trial,
  with references and through the rerun;
- a rerun whose roots differ in one trial fails exactly that trial.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import core
from heavyroots import experiments
from make_refs import REF_SEED
from worker import Runner
from workloads import WORKLOADS, master_seed

NO_REF_SEED = 987  # no committed reference covers this seed


def _pass(name: str, seed: int) -> Runner:
    runner = Runner(experiments, WORKLOADS[name], ".bench_out/selftest")
    runner.one(master_seed(seed, 0))
    return runner


def _refs(name: str) -> dict:
    return core.load_refs(core.refs_path(name))


def _check(label: str, got: int, want: int, reasons: list[str], results: list) -> None:
    ok = got == want
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} failed trial(s), expected {want}")
    if not ok:
        for why in reasons:
            print(f"     {why}")


class ForceOneNonConverged:
    """Patch the solver so that exactly one call reports converged = False."""

    def __enter__(self):
        self.solve = experiments.aberth_solve
        lock = threading.Lock()
        done = []

        def patched(p, *args, **kwargs):
            rs = self.solve(p, *args, **kwargs)
            with lock:
                first = not done
                done.append(True)
            return dataclasses.replace(rs, converged=False) if first else rs

        experiments.aberth_solve = patched
        return self

    def __exit__(self, *exc):
        experiments.aberth_solve = self.solve


def main() -> int:
    results: list[bool] = []

    for name in WORKLOADS:
        r = _pass(name, REF_SEED)
        refs = _refs(name)
        covered = all(t.key in refs for t in r.passes[0].trials)
        results.append(covered)
        if not covered:
            print(f"FAIL {name}: pass 0 of seed {REF_SEED} is not in the references")
        failed, why, _ = core.verify(r.passes, refs, r.rerun_1_worker)
        _check(f"{name} clean, against references", failed, 0, why, results)

    name = "dlog_small_matching_w2"
    refs = _refs(name)
    r = _pass(name, REF_SEED)
    failed, why, _ = core.verify(r.passes, {}, r.rerun_1_worker)
    _check(f"{name} clean, through the 1-worker rerun", failed, 0, why, results)

    key = r.passes[0].trials[3].key
    for shift, want in ((1e-11, 0), (1e-7, 1)):
        ref = refs[key]
        ph = ref.ph.copy()
        ph[0] += shift  # |e^(i shift) - 1| = shift relative
        moved = {**refs, key: dataclasses.replace(ref, ph=ph)}
        failed, why, _ = core.verify(r.passes, moved, r.rerun_1_worker)
        _check(f"{name} with one reference root moved by {shift:g}", failed, want, why, results)

    with ForceOneNonConverged():
        forced = _pass(name, REF_SEED)
    failed, why, _ = core.verify(forced.passes, refs, forced.rerun_1_worker)
    _check(f"{name} with one forced non-converged trial", failed, 1, why, results)

    with ForceOneNonConverged():
        forced = _pass(name, NO_REF_SEED)
    failed, why, _ = core.verify(forced.passes, refs, forced.rerun_1_worker)
    _check(
        f"{name} with one forced non-converged trial, no references",
        failed,
        1,
        why,
        results,
    )

    clean = _pass(name, NO_REF_SEED)
    target = clean.passes[0].trials[5].key

    def drifting_rerun(mseed):
        again = clean.rerun_1_worker(mseed)
        for i, t in enumerate(again.trials):
            if t.key == target:
                again.trials[i] = dataclasses.replace(t, digest=b"changed")
        return again

    failed, why, _ = core.verify(clean.passes, refs, drifting_rerun)
    _check(f"{name} with a rerun that differs in one trial", failed, 1, why, results)

    print("self-test passed" if all(results) else "self-test FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
