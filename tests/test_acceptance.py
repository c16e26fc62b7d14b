"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every test prints `[criterion k] PASS/FAIL ...` directly to the terminal
(bypassing capture) before asserting, so a full run always shows the
scorecard.  Expensive Monte Carlo runs are shared through module-scoped
fixtures; their wall-clock budgets are asserted where a bound applies.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from oracles import best_root_matching, cubic_roots, quadratic_roots
from xnum_props import run_invariant_suite
from heavyroots.experiments import (
    ExperimentConfig,
    run_experiment,
)
from heavyroots.localization import (
    check_product_criterion,
    pellet_certify,
    threshold_logmag,
)
from heavyroots.roots import aberth_solve, polynomial
from heavyroots.sampler import CoefficientDistribution
from heavyroots.xnum import XReal, xcomplex, xlogsumexp
from heavyroots.xvec import as_arrays, from_arrays

_EMPTY_RATE_FLOOR = 0.9
_MATCH_RATE_FLOOR = 0.8
_STABLE_TARGET = 0.16395
_STABLE_TOLERANCE = 0.05


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _random_xcomplex(rng, span):
    return xcomplex(
        float(rng.uniform(-span, span)), float(rng.uniform(-math.pi, math.pi))
    )


def _dist(variant, beta=1.0, cap=690.0, phase="uniform_phase"):
    return CoefficientDistribution(
        variant=variant, beta=beta, cap=cap, phase_model=phase
    )


def _timed_run(config):
    start = time.monotonic()
    summary, records = run_experiment(config)
    return summary, records, time.monotonic() - start


def _per_degree(summary):
    return {e["n"]: e for e in summary["per_degree"]}


def _nondecreasing_within_2se(entries, rate_key, se_key):
    ordered = sorted(entries, key=lambda e: e["n"])
    for lo, hi in zip(ordered, ordered[1:]):
        slack = 2.0 * math.hypot(lo[se_key] or 0.0, hi[se_key] or 0.0)
        if hi[rate_key] < lo[rate_key] - slack:
            return False
    return True


@pytest.fixture(scope="module")
def annulus_run():
    config = ExperimentConfig(
        kind="annulus",
        degrees=(50, 100, 200),
        trials=200,
        distribution=_dist("slow_tail_magnitude"),
        master_seed=2718,
        delta=1.0,
    )
    return _timed_run(config)


@pytest.fixture(scope="module")
def matching_run():
    config = ExperimentConfig(
        kind="matching",
        degrees=(20, 50),
        trials=200,
        distribution=_dist("double_log_slow_tail", beta=1.0, cap=690.0),
        master_seed=99,
        epsilon=0.5,
    )
    return _timed_run(config)


@pytest.fixture(scope="module")
def stable_run():
    config = ExperimentConfig(
        kind="stable_compare",
        degrees=(500,),
        trials=400,
        distribution=_dist("cauchy"),
        master_seed=11,
        delta=1.0,
        alpha=1.0,
    )
    return _timed_run(config)


@pytest.fixture(scope="module")
def sector_run():
    config = ExperimentConfig(
        kind="sector_uniformity",
        degrees=(100,),
        trials=100,
        distribution=_dist("complex_gaussian"),
        master_seed=8,
    )
    return _timed_run(config)


def test_criterion_01_solver_matches_closed_forms(capsys):
    rng = np.random.default_rng(160_493)
    start = time.monotonic()
    worst = 0.0
    for i in range(1000):
        degree = 2 if i % 2 == 0 else 3
        coeffs = [_random_xcomplex(rng, 100.0) for _ in range(degree + 1)]
        oracle = (
            quadratic_roots(*coeffs) if degree == 2 else cubic_roots(*coeffs)
        )
        rs = aberth_solve(polynomial(*as_arrays(coeffs)))
        assert rs.converged
        worst = max(worst, best_root_matching(from_arrays(rs.lm, rs.ph), oracle))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        capsys, 1, "closed-form agreement",
        ok, f"worst relative error {worst:.3e} over 1000 instances "
        f"(bound 1e-8), {elapsed:.1f}s (bound 10s)",
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_certified_annuli_are_sound(capsys):
    rng = np.random.default_rng(271_828)
    certified = 0
    attempts = 0
    while certified < 1000 and attempts < 8000:
        attempts += 1
        n = int(rng.integers(3, 13))
        lms = rng.uniform(-30.0, 30.0, n + 1)
        k = int(rng.integers(1, n))
        lms[k] += rng.uniform(20.0, 120.0)
        phases = rng.uniform(-math.pi, math.pi, n + 1)
        p = polynomial(
            *as_arrays([xcomplex(float(l), float(ph)) for l, ph in zip(lms, phases)])
        )
        cert = pellet_certify(p, k)
        if cert is None:
            continue
        certified += 1
        rs = aberth_solve(p)
        assert rs.converged
        inside = int(np.count_nonzero(rs.lm < cert.r_logmag))
        outside = int(np.count_nonzero(rs.lm > cert.R_logmag))
        between = n - inside - outside
        if not (inside == k and outside == n - k and between == 0):
            _report(
                capsys, 2, "certified annulus soundness", False,
                f"violation at instance {attempts}: counts ({inside}, {outside})"
                f" vs ({k}, {n - k})",
            )
            raise AssertionError("certificate count violation")
    ok = certified == 1000
    _report(
        capsys, 2, "certified annulus soundness", ok,
        f"{certified} certified instances, all counts exact, 0 violations",
    )
    assert certified == 1000


def test_criterion_03_sufficient_condition_implies_bound(capsys):
    rng = np.random.default_rng(55_660)
    fired = 0
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        eps = float(rng.uniform(0.05, 0.95))
        a = np.array([rng.uniform(-3.0, 3.0) for _ in range(n + 1)])
        a[k] = rng.uniform(0.0, 2.2 * threshold_logmag(n, eps))
        if not check_product_criterion(a, k, eps):
            continue
        fired += 1
        terms = [XReal(1, float(v)) for j, v in enumerate(a) if j != k]
        lhs = xlogsumexp(terms + [XReal(1, 0.0)])
        rhs = (
            math.log1p(-eps / n)
            + (n - k) * math.log(eps / (n + eps))
            + float(a[k]) / (n - k)
        )
        if lhs.logmag > rhs:
            violations += 1
    ok = violations == 0 and fired > 0
    _report(
        capsys, 3, "sufficient condition implies additive bound", ok,
        f"{fired} of 10000 vectors fired, {violations} violations",
    )
    assert violations == 0
    assert fired > 0


def test_criterion_04_certified_trials_always_match(capsys, matching_run):
    _, records, _ = matching_run
    certified = [
        r
        for r in records
        if r.converged
        and not r.degenerate
        and r.product_dominates
        and r.threshold_met
    ]
    violations = [r for r in certified if not r.match_holds]
    ok = not violations
    _report(
        capsys, 4, "certificate implies enumerability", ok,
        f"{len(certified)} certified trials of {len(records)}, "
        f"{len(violations)} violations",
    )
    assert not violations


def test_criterion_05_empty_annulus_rate_grows(capsys, annulus_run):
    summary, _, elapsed = annulus_run
    entries = _per_degree(summary)
    rate_200 = entries[200]["empty_annulus_rate"]
    monotone = _nondecreasing_within_2se(
        list(entries.values()), "empty_annulus_rate", "empty_annulus_se"
    )
    ok = rate_200 >= _EMPTY_RATE_FLOOR and monotone and elapsed < 300.0
    rates = {n: round(entries[n]["empty_annulus_rate"], 4) for n in sorted(entries)}
    _report(
        capsys, 5, "slow-tail empty annulus", ok,
        f"rates {rates} (floor {_EMPTY_RATE_FLOOR} at n=200), "
        f"monotone within 2 SE: {monotone}, {elapsed:.0f}s (bound 300s)",
    )
    assert rate_200 >= _EMPTY_RATE_FLOOR
    assert monotone
    assert elapsed < 300.0


def test_criterion_06_match_rate_grows(capsys, matching_run):
    summary, _, elapsed = matching_run
    entries = _per_degree(summary)
    rate_50 = entries[50]["match_rate"]
    monotone = _nondecreasing_within_2se(
        list(entries.values()), "match_rate", "match_se"
    )
    degen = {n: entries[n]["degenerate_tau"] for n in sorted(entries)}
    ok = rate_50 >= _MATCH_RATE_FLOOR and monotone and elapsed < 600.0
    rates = {n: round(entries[n]["match_rate"], 4) for n in sorted(entries)}
    _report(
        capsys, 6, "double-log enumeration rate", ok,
        f"rates {rates} (floor {_MATCH_RATE_FLOOR} at n=50), monotone within "
        f"2 SE: {monotone}, degenerate exclusions {degen}, "
        f"{elapsed:.0f}s (bound 600s)",
    )
    assert rate_50 >= _MATCH_RATE_FLOOR
    assert monotone
    assert elapsed < 600.0


def test_criterion_07_stable_limit_cross_check(capsys, stable_run):
    summary, _, elapsed = stable_run
    entry = _per_degree(summary)[500]
    mean_over_n = entry["mean_annulus_count_over_n"]
    deviation = abs(mean_over_n - _STABLE_TARGET)
    ok = deviation <= _STABLE_TOLERANCE and elapsed < 900.0
    _report(
        capsys, 7, "heavy-tail annulus mean", ok,
        f"mean count/n {mean_over_n:.5f} vs {_STABLE_TARGET} "
        f"(|dev| {deviation:.5f} <= {_STABLE_TOLERANCE}), "
        f"{elapsed:.0f}s (bound 900s)",
    )
    assert deviation <= _STABLE_TOLERANCE
    assert elapsed < 900.0


def test_criterion_08_sector_uniformity(capsys, sector_run):
    summary, _, _ = sector_run
    entry = _per_degree(summary)[100]
    freqs = entry["sector_frequencies"]
    se = entry["sector_se"]
    worst = max(abs(f - 0.125) for f in freqs)
    ok = worst <= 3.0 * se
    _report(
        capsys, 8, "sector uniformity", ok,
        f"worst |freq - 1/8| = {worst:.5f} vs 3 SE = {3.0 * se:.5f}",
    )
    assert worst <= 3.0 * se


def test_criterion_09_thread_count_determinism(capsys):
    config = ExperimentConfig(
        kind="matching",
        degrees=(15, 30),
        trials=40,
        distribution=_dist("double_log_slow_tail"),
        master_seed=123,
        epsilon=0.5,
        delta=1.0,
    )
    one, _ = run_experiment(config, workers=1)
    eight, _ = run_experiment(config, workers=8)
    bytes_one = json.dumps(one, sort_keys=True, indent=2).encode()
    bytes_eight = json.dumps(eight, sort_keys=True, indent=2).encode()
    ok = bytes_one == bytes_eight
    _report(
        capsys, 9, "thread-count determinism", ok,
        f"1-thread and 8-thread summaries byte-identical: {ok} "
        f"({len(bytes_one)} bytes)",
    )
    assert ok


def test_criterion_10_scalar_invariant_suite(capsys):
    results = run_invariant_suite(100_000, seed=20_260_819)
    total = sum(results.values())
    ok = total == 0
    _report(
        capsys, 10, "log-polar scalar invariants", ok,
        f"violations {results} over 100000 cases each",
    )
    assert total == 0
