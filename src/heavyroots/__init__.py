"""Log-polar arithmetic, root solving, and Monte Carlo experiments for
polynomials whose random coefficients span hundreds of orders of magnitude.

The package root re-exports the names README documents; everything else is
reached through its module (xnum, xvec, sampler, roots, localization,
matcher, experiments, cli).
"""

from .sampler import CoefficientDistribution, sample_coefficients
from .roots import aberth_solve, aberth_solve_many, polynomial, predicted_roots, trim
from .localization import evaluate_certificate_events, pellet_certify
from .matcher import match_roots
from .experiments import ExperimentConfig, emit_outputs, load_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "CoefficientDistribution",
    "sample_coefficients",
    "aberth_solve",
    "aberth_solve_many",
    "polynomial",
    "predicted_roots",
    "trim",
    "evaluate_certificate_events",
    "pellet_certify",
    "match_roots",
    "ExperimentConfig",
    "emit_outputs",
    "load_config",
    "run_experiment",
]
