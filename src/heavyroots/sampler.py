"""Coefficient samplers with analytically known, extremely heavy tails.

Every variant is an inverse transform of uniforms from a counter-based
generator (Philox), so a coefficient vector is a pure function of
(distribution, degree, seed) and parallel runs cannot perturb each other.

Variants, by tail of the modulus |xi|:

  slow_tail_magnitude(beta):  log|xi| = V^(-1/beta), V uniform(0,1), so
      P{|xi| > t} = (log t)^(-beta) for t > e  -- a slowly varying tail.
  double_log_slow_tail(beta, cap):  X = V^(-1/beta) clamped at cap,
      log|xi| = e^X - 1, so log(1 + |xi|) has the slowly varying tail
      P{log(1+|xi|) > u} = (log(1+u))^(-beta) -- one log deeper than
      slow_tail_magnitude.  The cap keeps logmag = e^X - 1 inside the finite
      float range; clamp events are counted per vector.  An uncapped draw
      whose double log is itself slowly varying would saturate any finite
      exponent ceiling c <= 700 on ~(log c)^(-beta) of draws (15% at beta=1),
      tying many coefficients at the ceiling, so this recipe is the heaviest
      tail the representation can carry faithfully.
  complex_gaussian:  modulus is Rayleigh, R = sqrt(-2 log V).
  cauchy:  modulus of a standard Cauchy, |C| = tan(pi V / 2).
  unit_modulus:  |xi| = 1 exactly.

Phase models: uniform_phase (default), real_rademacher ({0, pi} equiprobable,
giving real coefficients for the real variants), fixed_positive (phase 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .xnum import EXP_MAX, XReal, xcmp, xlogsumexp
from .xvec import freeze, wrap_phase_vec

MASK64 = (1 << 64) - 1

VARIANTS = (
    "slow_tail_magnitude",
    "double_log_slow_tail",
    "complex_gaussian",
    "cauchy",
    "unit_modulus",
)
PHASE_MODELS = ("uniform_phase", "real_rademacher", "fixed_positive")


@dataclass(frozen=True, slots=True)
class CoefficientDistribution:
    variant: str
    beta: float = 1.0
    cap: float = 690.0
    phase_model: str = "uniform_phase"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.phase_model not in PHASE_MODELS:
            raise ValueError(f"unknown phase model {self.phase_model!r}")
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not (0.0 < self.cap <= 700.0):
            raise ValueError("cap must be in (0, 700] to keep logmag finite")


@dataclass(frozen=True, slots=True, eq=False)
class CoefficientVector:
    """n+1 coefficients as read-only (logmag, phase) arrays, lowest power
    first, with the argmax index tau (minimal on ties), the seed that
    produced them, and how many draws hit the cap."""

    lm: np.ndarray
    ph: np.ndarray
    tau: int
    seed: int
    clamp_count: int

    def __post_init__(self) -> None:
        freeze(self.lm, self.ph)

    @property
    def degree(self) -> int:
        return self.lm.size - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Mix trial/degree indices into a 64-bit stream key, order-sensitively."""
    s = master_seed & MASK64
    for ix in indices:
        s = _splitmix64(s ^ _splitmix64(ix & MASK64))
    return s


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniforms on the open interval (0, 1), never exactly 0 or 1."""
    return (rng.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) * 2.0**-53


def magnitudes_from_uniforms(
    dist: CoefficientDistribution, v: np.ndarray
) -> tuple[np.ndarray, int]:
    """Map open-interval uniforms to coefficient log-magnitudes.

    Returns (logmag array, clamp count).  Pure, so forced uniforms exercise
    the exact inverse-transform recipes.
    """
    if dist.variant == "slow_tail_magnitude":
        return v ** (-1.0 / dist.beta), 0
    if dist.variant == "double_log_slow_tail":
        x = v ** (-1.0 / dist.beta)
        clamped = x > dist.cap
        x = np.where(clamped, dist.cap, x)
        return np.expm1(x), int(np.count_nonzero(clamped))
    if dist.variant == "complex_gaussian":
        return 0.5 * np.log(-2.0 * np.log(v)), 0
    if dist.variant == "cauchy":
        return np.log(np.tan((np.pi / 2.0) * v)), 0
    # unit_modulus
    return np.zeros_like(v), 0


def _phases(dist: CoefficientDistribution, rng: np.random.Generator, m: int) -> np.ndarray:
    if dist.phase_model == "uniform_phase":
        return wrap_phase_vec((2.0 * np.pi) * _open_uniform(rng, m))
    if dist.phase_model == "real_rademacher":
        return np.pi * rng.integers(0, 2, size=m).astype(np.float64)
    return np.zeros(m)


def argmax_index(lm: np.ndarray) -> int:
    """Index of the largest log-modulus, the first one on ties."""
    return int(np.argmax(lm))


def sample_coefficients(
    dist: CoefficientDistribution, n: int, seed: int
) -> CoefficientVector:
    """Draw n+1 i.i.d. coefficients; bitwise-reproducible from (dist, n, seed)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    rng = _generator(seed)
    v = _open_uniform(rng, n + 1)
    lm, clamps = magnitudes_from_uniforms(dist, v)
    ph = _phases(dist, rng, n + 1)
    return CoefficientVector(lm, ph, argmax_index(lm), seed & MASK64, clamps)


def tail_probability(dist: CoefficientDistribution, t: XReal) -> float:
    """Exact analytic P{|xi| > t} for the variant."""
    if t.sign < 0:
        raise ValueError("threshold must be nonnegative")
    if t.sign == 0:
        return 1.0  # no variant has an atom at zero
    lt = t.logmag  # log t
    if dist.variant == "slow_tail_magnitude":
        if lt <= 1.0:
            return 1.0
        return lt ** (-dist.beta)
    if dist.variant == "double_log_slow_tail":
        if lt <= math.e - 1.0:
            return 1.0
        s = math.log1p(lt)
        if s >= dist.cap:
            return 0.0
        return s ** (-dist.beta)
    if dist.variant == "complex_gaussian":
        two_lt = 2.0 * lt
        if two_lt > EXP_MAX:
            return 0.0
        return math.exp(-0.5 * math.exp(two_lt))
    if dist.variant == "cauchy":
        return (2.0 / math.pi) * math.atan(math.exp(-lt))
    # unit_modulus
    return 1.0 if lt < 0.0 else 0.0


def max_over_sum_statistic(samples: list[XReal]) -> float:
    """exp(logmag(max) - logmag(sum)) for nonnegative samples, in (0, 1]."""
    if not samples:
        raise ValueError("empty sample list")
    best = samples[0]
    for s in samples[1:]:
        if xcmp(s, best) > 0:
            best = s
    if best.sign == 0:
        raise ValueError("all samples are zero")
    total = xlogsumexp(samples)
    return math.exp(best.logmag - total.logmag)
