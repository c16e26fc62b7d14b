"""Unit tests for the heavy-tailed coefficient sampler."""

import math

import numpy as np
import pytest

from heavyroots.sampler import (
    PHASE_MODELS,
    VARIANTS,
    CoefficientDistribution,
    derive_seed,
    magnitudes_from_uniforms,
    max_over_sum_statistic,
    sample_coefficients,
    tail_probability,
)
from heavyroots.xvec import logsumexp_vec


def _dist(variant, **kw):
    return CoefficientDistribution(variant=variant, **kw)


def _open_uniforms(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) * 2.0**-53


# --- distribution validation -------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        _dist("no_such_variant")
    with pytest.raises(ValueError):
        _dist("slow_tail_magnitude", beta=0.0)
    with pytest.raises(ValueError):
        _dist("double_log_slow_tail", cap=701.0)
    with pytest.raises(ValueError):
        _dist("double_log_slow_tail", cap=0.0)
    with pytest.raises(ValueError):
        _dist("unit_modulus", phase_model="no_such_model")
    assert set(PHASE_MODELS) >= {"uniform_phase", "real_rademacher", "fixed_positive"}
    assert set(VARIANTS) >= {"slow_tail_magnitude", "double_log_slow_tail"}


def test_sample_rejects_degenerate_degree():
    with pytest.raises(ValueError):
        sample_coefficients(_dist("unit_modulus"), 0, 1)


# --- inverse-transform recipes, forced uniforms -------------------------------


def test_point_mass_vector_ties_break_to_minimum_index():
    c = sample_coefficients(
        _dist("unit_modulus", phase_model="fixed_positive"), 4, seed=9
    )
    assert c.degree == 4
    assert c.lm.size == 5
    assert c.lm.tolist() == [0.0] * 5 and c.ph.tolist() == [0.0] * 5
    assert c.tau == 0
    assert c.clamp_count == 0


def test_slow_tail_forced_uniform_hits_closed_form():
    lm, clamps = magnitudes_from_uniforms(
        _dist("slow_tail_magnitude", beta=1.0), np.array([math.exp(-10.0)])
    )
    assert clamps == 0
    assert lm[0] == pytest.approx(math.exp(10.0), rel=1e-12)  # ~22026.466
    lm2, _ = magnitudes_from_uniforms(
        _dist("slow_tail_magnitude", beta=2.0), np.array([math.exp(-10.0)])
    )
    assert lm2[0] == pytest.approx(math.exp(5.0), rel=1e-12)


def test_double_log_clamps_at_cap_and_counts():
    dist = _dist("double_log_slow_tail", beta=1.0, cap=690.0)
    lm, clamps = magnitudes_from_uniforms(dist, np.array([1.0 / 695.0]))
    assert clamps == 1
    assert lm[0] == math.expm1(690.0)
    lm2, clamps2 = magnitudes_from_uniforms(dist, np.array([0.01]))
    assert clamps2 == 0
    assert lm2[0] == pytest.approx(math.expm1(100.0), rel=1e-12)


def test_gaussian_and_cauchy_recipes():
    lm, _ = magnitudes_from_uniforms(
        _dist("complex_gaussian"), np.array([math.exp(-2.0)])
    )
    assert lm[0] == pytest.approx(math.log(2.0), rel=1e-12)  # |xi| = sqrt(-2 ln v)
    lm, _ = magnitudes_from_uniforms(_dist("cauchy"), np.array([0.5]))
    assert lm[0] == pytest.approx(0.0, abs=1e-15)  # tan(pi/4) = 1


def test_sampled_coefficients_are_never_zero():
    for variant in VARIANTS:
        c = sample_coefficients(_dist(variant), 30, seed=123)
        assert np.all(c.lm > -math.inf)
        assert c.tau == max(range(31), key=lambda j: (c.lm[j], -j))


def test_phase_models():
    c = sample_coefficients(_dist("unit_modulus"), 200, seed=5)
    assert np.all((-math.pi < c.ph) & (c.ph <= math.pi))
    assert len(set(c.ph.tolist())) > 100  # continuous phases
    c = sample_coefficients(
        _dist("unit_modulus", phase_model="real_rademacher"), 200, seed=5
    )
    assert set(c.ph.tolist()) == {0.0, math.pi}


# --- analytic tails ------------------------------------------------------------


def test_tail_slow_tail_at_e_to_the_e():
    dist = _dist("slow_tail_magnitude", beta=1.0)
    assert tail_probability(dist, math.e) == pytest.approx(
        1.0 / math.e, rel=1e-15
    )


def test_tail_at_zero_is_one_for_every_variant():
    for variant in VARIANTS:
        assert tail_probability(_dist(variant), -math.inf) == 1.0


def test_tail_unit_modulus_is_a_step():
    dist = _dist("unit_modulus")
    assert tail_probability(dist, math.log(2.0)) == 0.0
    assert tail_probability(dist, math.log(0.5)) == 1.0


def test_tail_double_log_support_edges():
    dist = _dist("double_log_slow_tail", beta=1.0, cap=690.0)
    assert tail_probability(dist, math.e - 1.0) == 1.0
    assert tail_probability(dist, math.expm1(690.0)) == 0.0
    mid = tail_probability(dist, math.expm1(10.0))
    assert mid == pytest.approx(0.1, rel=1e-9)


def test_tail_rejects_nan_log_threshold():
    # log t is a float, so no negative threshold can be passed; NaN is the
    # one invalid value left
    with pytest.raises(ValueError):
        tail_probability(_dist("cauchy"), math.nan)


# --- max-over-sum statistic -----------------------------------------------------


def test_max_over_sum_two_units():
    assert max_over_sum_statistic(np.array([0.0, 0.0])) == pytest.approx(
        0.5, rel=1e-15
    )


def test_max_over_sum_dominated():
    out = max_over_sum_statistic(np.array([1000.0, 0.0, 0.0]))
    assert out == 1.0


def test_max_over_sum_ignores_zero_entries():
    assert max_over_sum_statistic(np.array([-math.inf, math.log(5.0)])) == 1.0


def test_max_over_sum_rejects_empty():
    with pytest.raises(ValueError):
        max_over_sum_statistic(np.array([]))


# --- seed derivation and determinism ---------------------------------------------


def test_derive_seed_is_64_bit_and_order_sensitive():
    a = derive_seed(1, 2, 3)
    b = derive_seed(1, 3, 2)
    assert a != b
    assert 0 <= a < 1 << 64
    assert derive_seed(1, 2, 3) == a


def test_sampling_is_bitwise_deterministic():
    dist = _dist("double_log_slow_tail", beta=1.0, cap=690.0)
    c1 = sample_coefficients(dist, 40, seed=777)
    c2 = sample_coefficients(dist, 40, seed=777)
    assert c1.lm.tobytes() == c2.lm.tobytes()
    assert c1.ph.tobytes() == c2.ph.tobytes()
    assert (c1.tau, c1.seed, c1.clamp_count) == (c2.tau, c2.seed, c2.clamp_count)
    c3 = sample_coefficients(dist, 40, seed=778)
    assert c3.lm.tobytes() != c1.lm.tobytes()
    # stages of a trial share these arrays, so none may write to them
    assert not c1.lm.flags.writeable and not c1.ph.flags.writeable
    with pytest.raises(ValueError):
        c1.lm[0] = 0.0


# --- empirical tail against the analytic tail -------------------------------------


def test_empirical_tail_matches_analytic_within_3_se():
    dist = _dist("slow_tail_magnitude", beta=2.0)
    draws = 100_000
    c = sample_coefficients(dist, draws - 1, seed=2024)
    lm = c.lm
    for log_t in (2.0, 4.0, 8.0):
        p = tail_probability(dist, log_t)
        se = math.sqrt(p * (1.0 - p) / draws)
        emp = float(np.mean(lm > log_t))
        assert abs(emp - p) <= 3.0 * se


# --- max term versus sum across the tail-weight regimes ---------------------------


def _ratio_medians(variant, beta, sizes, reps, base_seed):
    dist = _dist(variant, beta=beta)
    medians = []
    for n in sizes:
        ratios = []
        for rep in range(reps):
            u = _open_uniforms(derive_seed(base_seed, n, rep), n)
            lm, _ = magnitudes_from_uniforms(dist, u)
            ratios.append(math.exp(lm.max() - float(logsumexp_vec(lm))))
        medians.append(float(np.median(ratios)))
    return medians


def test_max_dominates_sum_for_slowly_varying_magnitudes():
    # The median saturates to exactly 1.0 once the largest draw exceeds the
    # runner-up by more than float resolution, so growth is non-strict on the
    # large sizes; a smaller size shows the strict climb.
    medians = _ratio_medians(
        "slow_tail_magnitude", 1.0, (10, 100, 1000, 10000), 500, 31
    )
    assert medians[0] < medians[1]
    assert medians[1] <= medians[2] <= medians[3]
    assert medians[3] >= 0.99


def test_max_over_sum_statistic_agrees_with_vector_path():
    u = _open_uniforms(99, 64)
    lm, _ = magnitudes_from_uniforms(_dist("slow_tail_magnitude", beta=1.0), u)
    scalar = max_over_sum_statistic(lm)
    vector = math.exp(lm.max() - float(logsumexp_vec(lm)))
    assert scalar == pytest.approx(vector, rel=1e-12)


def test_excess_sum_grows_when_log_magnitude_has_infinite_mean():
    dist = _dist("double_log_slow_tail", beta=1.0, cap=690.0)
    medians = []
    for n in (100, 1000):
        excesses = []
        for rep in range(200):
            u = _open_uniforms(derive_seed(57, n, rep), n)
            lm, _ = magnitudes_from_uniforms(dist, u)
            a = np.logaddexp(0.0, lm)  # log(1 + |xi|) per draw
            excesses.append(float((a.sum() - a.max()) / n))
        medians.append(float(np.median(excesses)))
    assert medians[1] > medians[0]
