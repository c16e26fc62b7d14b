"""Pass execution and output verification for the heavyroots benchmark.

A *pass* is one call of ``heavyroots.experiments.run_experiment`` on a
workload's config (see workloads.py).  Every trial is checked after the timed
work:

- it must have converged;
- if the reference file holds its (master_seed, n, trial), the fields
  ``converged``, ``degenerate``, ``tau``, ``annulus_count``,
  ``sector_counts`` and ``match_holds`` must equal the reference exactly and
  every root must lie within 1e-9 relative of a distinct reference root;
- otherwise the pass is rerun on 1 worker and every trial record and the
  summary must be byte-identical to the measured pass.  Reruns stop once
  they have taken a set share of the run's time (the first such pass is
  always rerun); the trials of later passes are checked for convergence
  only, and the report says how many trials each check covered.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from workloads import Workload, config_dict, trials_per_pass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
ROOT_TOL = 1e-9
_SECTORS = 8


# ---------------------------------------------------------------- records


@dataclass
class Trial:
    """The checked fields of one TrialRecord plus a digest of all its fields."""

    key: tuple[int, int, int]  # (master_seed, n, trial)
    converged: bool
    degenerate: bool
    tau: int
    annulus_count: int | None
    sector_counts: tuple[int, ...]
    match_holds: bool | None
    lm: np.ndarray
    ph: np.ndarray
    digest: bytes


def _root_arrays(roots) -> tuple[np.ndarray, np.ndarray]:
    lm = np.array([-math.inf if z.zero else z.logmag for z in roots], dtype=np.float64)
    ph = np.array([0.0 if z.zero else z.phase for z in roots], dtype=np.float64)
    return lm, ph


def compact_trial(mseed: int, record) -> Trial:
    lm, ph = _root_arrays(record.roots)
    h = hashlib.sha256()
    for f in dataclasses.fields(record):
        if f.name != "roots":
            h.update(f"{f.name}={getattr(record, f.name)!r};".encode())
    h.update(lm.tobytes())
    h.update(ph.tobytes())
    return Trial(
        key=(mseed, record.n, record.trial),
        converged=bool(record.converged),
        degenerate=bool(record.degenerate),
        tau=int(record.tau),
        annulus_count=record.annulus_count,
        sector_counts=tuple(record.sector_counts),
        match_holds=record.match_holds,
        lm=lm,
        ph=ph,
        digest=h.digest(),
    )


def summary_digest(summary: dict) -> bytes:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).digest()


@dataclass
class PassResult:
    """One measured pass: its trials, or the error that stopped it."""

    mseed: int
    expected_trials: int
    trials: list[Trial] | None
    summary: bytes | None
    error: str | None = None


def run_pass(experiments, workload: Workload, mseed: int, workers: int):
    """Run one pass; returns (summary, records) from run_experiment."""
    config = experiments.config_from_dict(config_dict(workload, mseed))
    return experiments.run_experiment(config, workers=workers)


def to_pass_result(workload: Workload, mseed: int, summary, records) -> PassResult:
    return PassResult(
        mseed,
        trials_per_pass(workload),
        [compact_trial(mseed, r) for r in records],
        summary_digest(summary),
    )


def failed_pass(workload: Workload, mseed: int, error: str) -> PassResult:
    return PassResult(mseed, trials_per_pass(workload), None, None, error)


# ---------------------------------------------------------------- references


def refs_path(workload_name: str) -> str:
    return os.path.join(REFS_DIR, f"{workload_name}.npz")


def save_refs(path: str, trials: list[Trial]) -> None:
    for t in trials:
        if len(t.sector_counts) != _SECTORS:
            raise ValueError("sector histogram must have 8 bins")
    sizes = np.array([t.lm.size for t in trials], dtype=np.int64)
    np.savez_compressed(
        path,
        key=np.array([t.key for t in trials], dtype=np.int64),
        converged=np.array([t.converged for t in trials]),
        degenerate=np.array([t.degenerate for t in trials]),
        tau=np.array([t.tau for t in trials], dtype=np.int64),
        annulus_count=np.array(
            [-1 if t.annulus_count is None else t.annulus_count for t in trials],
            dtype=np.int64,
        ),
        sector_counts=np.array([t.sector_counts for t in trials], dtype=np.int64),
        match_holds=np.array(
            [-1 if t.match_holds is None else int(t.match_holds) for t in trials],
            dtype=np.int8,
        ),
        offsets=np.concatenate([[0], np.cumsum(sizes)]),
        lm=np.concatenate([t.lm for t in trials]),
        ph=np.concatenate([t.ph for t in trials]),
    )


def load_refs(path: str) -> dict[tuple[int, int, int], Trial]:
    if not os.path.exists(path):
        return {}
    with np.load(path, allow_pickle=False) as z:
        d = {k: z[k] for k in z.files}
    out = {}
    off = d["offsets"]
    for i, key in enumerate(d["key"].tolist()):
        a, b = int(off[i]), int(off[i + 1])
        ac = int(d["annulus_count"][i])
        mh = int(d["match_holds"][i])
        out[tuple(key)] = Trial(
            key=tuple(key),
            converged=bool(d["converged"][i]),
            degenerate=bool(d["degenerate"][i]),
            tau=int(d["tau"][i]),
            annulus_count=None if ac < 0 else ac,
            sector_counts=tuple(int(x) for x in d["sector_counts"][i]),
            match_holds=None if mh < 0 else bool(mh),
            lm=d["lm"][a:b],
            ph=d["ph"][a:b],
            digest=b"",
        )
    return out


# ---------------------------------------------------------------- checks


def roots_match(lm, ph, rlm, rph, tol: float = ROOT_TOL) -> bool:
    """Each root within tol of a distinct reference root, by |z/w - 1|."""
    if lm.shape != rlm.shape:
        return False
    if np.array_equal(lm, rlm) and np.array_equal(ph, rph):
        return True
    dlm = lm[:, None] - rlm[None, :]
    dph = ph[:, None] - rph[None, :]
    with np.errstate(all="ignore"):
        em1 = np.expm1(dlm)
        # z/w - 1 = e^(dlm + i dph) - 1, written without cancellation
        re = em1 * np.cos(dph) - 2.0 * np.sin(0.5 * dph) ** 2
        im = (1.0 + em1) * np.sin(dph)
        d = np.hypot(re, im)
    both_zero = np.isneginf(lm)[:, None] & np.isneginf(rlm)[None, :]
    d = np.where(both_zero, 0.0, d)
    d = np.where(np.isnan(d), np.inf, d)
    nearest = np.argmin(d, axis=1)
    worst = float(d[np.arange(lm.size), nearest].max())
    return worst <= tol and np.unique(nearest).size == lm.size


def compare_to_ref(t: Trial, ref: Trial) -> str | None:
    for name in (
        "converged",
        "degenerate",
        "tau",
        "annulus_count",
        "sector_counts",
        "match_holds",
    ):
        if getattr(t, name) != getattr(ref, name):
            return f"{name} {getattr(t, name)!r} != reference {getattr(ref, name)!r}"
    if not roots_match(t.lm, t.ph, ref.lm, ref.ph):
        return f"roots differ from reference by more than {ROOT_TOL:g} relative"
    return None


def verify(
    passes: list[PassResult], refs: dict, rerun, rerun_budget_s: float = math.inf
) -> tuple[int, list[str], dict]:
    """Count failed trials over all passes.

    ``rerun(mseed)`` reruns a pass on 1 worker and returns its PassResult.  It
    is called, in pass order, for passes whose trials are not all in
    ``refs``, until the reruns have taken ``rerun_budget_s`` seconds; the
    first such pass is always rerun.  Trials of passes left over are checked
    for convergence only.  Returns (failed, reasons, how many trials each
    check covered).
    """
    failed = 0
    reasons: list[str] = []
    checked = {"reference": 0, "rerun": 0, "converged_only": 0}
    rerun_s = 0.0
    rerun_any = False

    def fail(key, why):
        nonlocal failed
        failed += 1
        if len(reasons) < 20:
            reasons.append(f"trial {key}: {why}")

    for p in passes:
        if p.trials is None:
            failed += p.expected_trials
            reasons.append(f"pass master_seed={p.mseed} raised: {p.error}")
            continue
        bad: dict = {}
        for t in p.trials:
            if not t.converged:
                bad[t.key] = "did not converge"
        if len(p.trials) != p.expected_trials:
            failed += abs(p.expected_trials - len(p.trials))
            reasons.append(f"pass master_seed={p.mseed} returned {len(p.trials)} trials")
        if p.trials and all(t.key in refs for t in p.trials):
            checked["reference"] += len(p.trials)
            for t in p.trials:
                why = compare_to_ref(t, refs[t.key])
                if why:
                    bad.setdefault(t.key, why)
        elif not rerun_any or rerun_s < rerun_budget_s:
            rerun_any = True
            checked["rerun"] += len(p.trials)
            t0 = time.perf_counter()
            again = rerun(p.mseed)
            rerun_s += time.perf_counter() - t0
            other = {t.key: t.digest for t in again.trials or []}
            differ = [t.key for t in p.trials if other.get(t.key) != t.digest]
            for key in differ:
                bad.setdefault(key, "1-worker rerun differs")
            # the summary is a function of the records, so a summary that
            # differs while every record matches implicates the whole pass
            if not differ and again.summary != p.summary:
                for t in p.trials:
                    bad.setdefault(t.key, "1-worker rerun summary differs")
        else:
            checked["converged_only"] += len(p.trials)
        for key, why in bad.items():
            fail(key, why)
    return failed, reasons, checked
