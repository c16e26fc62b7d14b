"""Deterministic Monte Carlo harness over random heavy-tailed polynomials.

Four experiment kinds share one trial pipeline (sample, solve, count, match):

- ``annulus``: frequency of an empty annulus of log-width 2*delta/n around
  the unit circle, plus the max-dominates event rate.
- ``matching``: frequency of the enumeration event (all roots within relative
  error eps/n of the predicted two-circle system), plus certificate rates.
- ``stable_compare``: mean annulus count over n against the closed-form limit
  value for alpha-stable coefficient sums.
- ``sector_uniformity``: root phase frequencies over 8 equal sectors.

Trials run in chunks of consecutive trial indices of one degree, at most
max(1, _CHUNK_ROOTS // n) per chunk, one chunk per worker-thread task.  The
chunk, not the trial, is the unit of work: a chunk samples its polynomials
and computes their certificate events, then solves them all in one
``aberth_solve_many`` call, which frames every block of every polynomial in
one pass and runs the small blocks as one stacked iteration, and matches all
its trials in one ``match_roots_many`` call, which builds their distance
matrices as one array; most trials are settled by their nearest-neighbour
pairing, with no augmenting path.  numpy's per-call cost is thus paid once
per chunk or per step rather than once per trial or block.  Coefficients
and roots stay (logmag, phase) arrays through all of it; the record is the
one place roots become XComplex values, for serialization.

Every trial is a pure function of (config, degree, trial index): per-trial
seeds come from a counter-based derivation, and which trials share a chunk
depends only on the degree and the trial index, never on the worker count.
Each block keeps its own stop rule, and a stacked step is arithmetic on
fixed inputs in a fixed order, so results are byte-identical no matter how
many worker threads execute the schedule.  Outputs are a canonical JSON
summary, a CSV of per-trial records, and an SVG scatter of one representative
trial in log-polar coordinates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .localization import (
    CertificateEvents,
    count_annulus,
    evaluate_certificate_events,
)
from .matcher import MatchResult, match_roots_many
from .roots import (  # noqa: F401 -- bench/selftest.py patches aberth_solve here
    PredictedRoots,
    RootSet,
    aberth_solve,
    aberth_solve_many,
    polynomial,
    predicted_roots,
)
from .sampler import (
    CoefficientDistribution,
    CoefficientVector,
    derive_seed,
    sample_coefficients,
)
from .xnum import XComplex
from .xvec import from_arrays

KINDS = ("annulus", "matching", "stable_compare", "sector_uniformity")

_SECTORS = 8
# A chunk of trials of degree n holds max(1, _CHUNK_ROOTS // n) of them, so a
# chunk's stacked iteration carries about this many roots.  A larger chunk
# pays numpy's per-call cost over more roots but raises each worker thread's
# peak memory: against 128, 256 roots run small-degree trials about 1.3x as
# fast for 0.5 MiB more peak memory on 2 workers, 512 about 1.6x as fast for
# 1.5 MiB more.
_CHUNK_ROOTS = 256


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    kind: str
    degrees: tuple[int, ...]
    trials: int
    distribution: CoefficientDistribution
    master_seed: int
    epsilon: float = 0.5
    delta: float | None = None
    alpha: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.degrees or any(n < 1 for n in self.degrees):
            raise ValueError("degrees must be a nonempty list of positive integers")
        if len(set(self.degrees)) != len(self.degrees):
            raise ValueError("degrees must not repeat")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0, 1)")
        if self.delta is not None and not (0.0 < self.delta < math.inf):
            raise ValueError("delta must be positive and finite")
        if self.kind in ("annulus", "stable_compare") and self.delta is None:
            raise ValueError(f"{self.kind} requires delta")
        if self.kind == "stable_compare":
            if self.alpha is None or not (0.0 < self.alpha <= 2.0):
                raise ValueError("stable_compare requires alpha in (0, 2]")
        if self.kind == "matching" and any(n < 2 for n in self.degrees):
            raise ValueError("matching requires degrees of at least 2")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Everything measured on one sampled polynomial; pure in (config, n, trial)."""

    n: int
    trial: int
    seed: int
    tau: int
    clamp_count: int
    converged: bool
    degenerate: bool
    annulus_count: int | None
    sector_counts: tuple[int, ...]
    max_dominates: bool | None
    product_dominates: bool
    threshold_met: bool
    matching_bound_holds: bool
    match_holds: bool | None
    worst_rel_error: float | None
    roots: tuple[XComplex, ...]
    predicted_inner_logmag: float | None
    predicted_outer_logmag: float | None


def stable_formula(alpha: float, delta: float) -> float:
    """Limit of the mean annulus count over n: (1+e^-x)/(1-e^-x) - 2/x, x = alpha*delta."""
    x = alpha * delta
    if not (x > 0.0):
        raise ValueError("alpha * delta must be positive")
    e = math.exp(-x)
    return (1.0 + e) / (1.0 - e) - 2.0 / x


def sector_histogram(rs: RootSet) -> tuple[int, ...]:
    """Counts over the partition of (-pi, pi] into 8 equal sectors.

    Sectors are right-closed, ((k-4)pi/4, (k-3)pi/4], so a phase exactly on a
    boundary belongs to the sector it closes; a 1e-9 snap keeps phases that
    are within float noise of a boundary in that same sector.  Roots of unity
    aligned with the boundaries therefore bin deterministically, one per
    sector.
    """
    t = (rs.ph + math.pi) / (2.0 * math.pi / _SECTORS)
    idx = np.clip(np.ceil(t - 1e-9) - 1, 0, _SECTORS - 1).astype(np.int64)
    return tuple(np.bincount(idx, minlength=_SECTORS).tolist())


def _record(
    config: ExperimentConfig,
    t: int,
    c: CoefficientVector,
    events: CertificateEvents,
    rs: RootSet,
    predicted: PredictedRoots | None,
    match: MatchResult | None,
) -> TrialRecord:
    n = c.degree
    annulus = None
    if config.delta is not None:
        half = config.delta / n
        annulus = count_annulus(rs, -half, half)
    return TrialRecord(
        n=n,
        trial=t,
        seed=c.seed,
        tau=c.tau,
        clamp_count=c.clamp_count,
        converged=rs.converged,
        degenerate=events.degenerate,
        annulus_count=annulus,
        sector_counts=sector_histogram(rs),
        max_dominates=events.max_dominates,
        product_dominates=events.product_dominates,
        threshold_met=events.threshold_met,
        matching_bound_holds=events.matching_bound_holds,
        match_holds=None if match is None else match.holds,
        worst_rel_error=None if match is None else match.worst_relative_error,
        roots=tuple(from_arrays(rs.lm, rs.ph)),
        predicted_inner_logmag=None if predicted is None else predicted.inner_radius,
        predicted_outer_logmag=None if predicted is None else predicted.outer_radius,
    )


def _run_chunk(config: ExperimentConfig, n: int, trials: range) -> list[TrialRecord]:
    """Records of consecutive trials of degree n, solved and matched in one
    batch each."""
    vecs = [
        sample_coefficients(
            config.distribution, n, derive_seed(config.master_seed, n, t)
        )
        for t in trials
    ]
    events = [
        evaluate_certificate_events(c, config.epsilon, config.delta) for c in vecs
    ]
    solved = aberth_solve_many([polynomial(c.lm, c.ph) for c in vecs])
    predicted = [
        None if ev.degenerate else predicted_roots(c) for c, ev in zip(vecs, events)
    ]
    matches = [None] * len(vecs)
    if config.kind == "matching":
        matches = match_roots_many(solved, predicted, config.epsilon, n)
    return [
        _record(config, *row)
        for row in zip(trials, vecs, events, solved, predicted, matches)
    ]


def _binomial_se(p: float, count: int) -> float:
    return math.sqrt(p * (1.0 - p) / count)


def _rate(flags: list[bool]) -> tuple[float | None, float | None]:
    if not flags:
        return None, None
    p = sum(flags) / len(flags)
    return p, _binomial_se(p, len(flags))


def summarize(config: ExperimentConfig, records: list[TrialRecord]) -> dict:
    """Aggregate per-degree estimates; a pure, ordered reduction of records.

    Every rate counts converged trials only, the certificate and
    max-dominates rates included, although both are computed from the
    coefficients alone: the rates of one degree then rest on the same trials
    and can be compared trial for trial.  The certificate and match rates
    also leave out degenerate trials.  Trials that did not converge are
    counted under ``nonconverged``.
    """
    per_degree = []
    for n in sorted(config.degrees):
        rows = sorted(
            (r for r in records if r.n == n), key=lambda r: r.trial
        )
        conv = [r for r in rows if r.converged]
        eligible = [r for r in conv if not r.degenerate]

        empty_rate, empty_se = (None, None)
        mean_over_n = None
        if config.delta is not None and conv:
            empty_rate, empty_se = _rate([r.annulus_count == 0 for r in conv])
            mean_over_n = sum(r.annulus_count for r in conv) / (len(conv) * n)

        max_rate, max_se = (None, None)
        if config.delta is not None:
            max_rate, max_se = _rate([bool(r.max_dominates) for r in conv])

        cert_rate, cert_se = _rate(
            [r.product_dominates and r.threshold_met for r in eligible]
        )
        match_rate, match_se = (None, None)
        if config.kind == "matching":
            match_rate, match_se = _rate([bool(r.match_holds) for r in eligible])

        sector_freq = None
        sector_se = None
        if conv:
            totals = [0] * _SECTORS
            for r in conv:
                for i, s in enumerate(r.sector_counts):
                    totals[i] += s
            grand = len(conv) * n
            sector_freq = [t / grand for t in totals]
            sector_se = _binomial_se(1.0 / _SECTORS, grand)

        entry = {
            "n": n,
            "trials": len(rows),
            "converged": len(conv),
            "nonconverged": len(rows) - len(conv),
            "degenerate_tau": sum(r.degenerate for r in rows),
            "mean_clamp_count": (
                sum(r.clamp_count for r in rows) / len(rows) if rows else None
            ),
            "empty_annulus_rate": empty_rate,
            "empty_annulus_se": empty_se,
            "mean_annulus_count_over_n": mean_over_n,
            "max_dominates_rate": max_rate,
            "max_dominates_se": max_se,
            "certificate_rate": cert_rate,
            "certificate_se": cert_se,
            "match_rate": match_rate,
            "match_se": match_se,
            "sector_frequencies": sector_freq,
            "sector_se": sector_se,
        }
        if config.kind == "stable_compare" and mean_over_n is not None:
            entry["formula_deviation"] = abs(
                mean_over_n - stable_formula(config.alpha, config.delta)
            )
        per_degree.append(entry)

    summary = {
        "config": config_to_dict(config, include_output=False),
        "per_degree": per_degree,
    }
    if config.kind == "stable_compare":
        summary["stable_formula_value"] = stable_formula(config.alpha, config.delta)
    return summary


def _chunks(config: ExperimentConfig):
    """(n, trials) per chunk: max(1, _CHUNK_ROOTS // n) consecutive trials."""
    for n in config.degrees:
        size = max(1, _CHUNK_ROOTS // n)
        for t in range(0, config.trials, size):
            yield n, range(t, min(t + size, config.trials))


def run_experiment(
    config: ExperimentConfig, workers: int = 1
) -> tuple[dict, list[TrialRecord]]:
    """Execute all trials (optionally in worker threads) and aggregate.

    Every chunk of every degree is submitted before the first result is
    read, so no worker idles at the boundary between degrees.  The summary
    depends only on the config: chunks are fixed by (degree, trial index),
    and records are reduced in (degree, trial) order.
    """
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [
            pool.submit(_run_chunk, config, n, trials)
            for n, trials in _chunks(config)
        ]
        records = [r for f in futures for r in f.result()]
    return summarize(config, records), records


def distribution_to_dict(dist: CoefficientDistribution) -> dict:
    return {
        "variant": dist.variant,
        "beta": dist.beta,
        "cap": dist.cap,
        "phase_model": dist.phase_model,
    }


def distribution_from_dict(d: dict) -> CoefficientDistribution:
    return CoefficientDistribution(
        variant=d["variant"],
        beta=_number(d.get("beta", 1.0), "beta"),
        cap=_number(d.get("cap", 690.0), "cap"),
        phase_model=d.get("phase_model", "uniform_phase"),
    )


def config_to_dict(config: ExperimentConfig, include_output: bool = True) -> dict:
    d = {
        "kind": config.kind,
        "degrees": list(config.degrees),
        "trials": config.trials,
        "distribution": distribution_to_dict(config.distribution),
        "master_seed": config.master_seed,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "alpha": config.alpha,
    }
    if include_output:
        d["output_path"] = config.output_path
    return d


def _integer(value, name: str) -> int:
    """value as an int if it is an int or a float with an integral value;
    anything else, a bool included, is rejected rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    """value as a float if it is an int or a float; anything else, a bool or
    a numeric string included, is rejected rather than converted."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    return ExperimentConfig(
        kind=d["kind"],
        degrees=tuple(_integer(n, "degrees") for n in d["degrees"]),
        trials=_integer(d["trials"], "trials"),
        distribution=distribution_from_dict(d["distribution"]),
        master_seed=_integer(d["master_seed"], "master_seed"),
        epsilon=_number(d.get("epsilon", 0.5), "epsilon"),
        delta=None if d.get("delta") is None else _number(d["delta"], "delta"),
        alpha=None if d.get("alpha") is None else _number(d["alpha"], "alpha"),
        output_path=d.get("output_path"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            return config_from_dict(json.load(f))
    except OSError as e:
        raise OSError(f"reading config {path}: {e}") from e


def root_to_dict(z: XComplex) -> dict:
    """Serialized form: 17-significant-digit decimal strings, exact to reload."""
    return {
        "zero": z.zero,
        "logmag": format(z.logmag, ".17g"),
        "phase": format(z.phase, ".17g"),
    }


def representative_record(records: list[TrialRecord]) -> TrialRecord | None:
    """Trial to plot: largest degree first, earliest trial, best status."""
    ordered = sorted(records, key=lambda r: (-r.n, r.trial))
    for r in ordered:
        if r.converged and not r.degenerate:
            return r
    for r in ordered:
        if r.converged:
            return r
    return ordered[0] if ordered else None


def _representative_json(r: TrialRecord) -> str:
    payload = {
        "n": r.n,
        "trial": r.trial,
        "roots": [root_to_dict(z) for z in r.roots],
        "predicted_inner_logmag": r.predicted_inner_logmag,
        "predicted_outer_logmag": r.predicted_outer_logmag,
    }
    return json.dumps(payload, sort_keys=True)


_CSV_FIELDS = (
    ["n", "trial", "seed", "tau", "clamp_count", "converged", "degenerate",
     "annulus_count"]
    + [f"s{i}" for i in range(_SECTORS)]
    + ["max_dominates", "product_dominates", "threshold_met",
       "matching_bound_holds", "match_holds", "worst_rel_error", "roots_json"]
)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records: list[TrialRecord]) -> str:
    rep = representative_record(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in records:
        row = [
            _cell(r.n), _cell(r.trial), _cell(r.seed), _cell(r.tau),
            _cell(r.clamp_count), _cell(r.converged), _cell(r.degenerate),
            _cell(r.annulus_count),
        ]
        row.extend(_cell(s) for s in r.sector_counts)
        row.extend(
            [
                _cell(r.max_dominates), _cell(r.product_dominates),
                _cell(r.threshold_met), _cell(r.matching_bound_holds),
                _cell(r.match_holds), _cell(r.worst_rel_error),
                _representative_json(r) if r is rep else "",
            ]
        )
        writer.writerow(row)
    return buf.getvalue()


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_roots_svg(
    n: int | None,
    roots: list[dict],
    inner_logmag: float | None,
    outer_logmag: float | None,
    title: str,
) -> str:
    """Scatter of one trial's roots: x = phase, y = logmag/n, lines at the
    predicted radii.  Hand-rolled SVG so output bytes are deterministic."""
    width, height = 640.0, 480.0
    ml, mr, mt, mb = 60.0, 20.0, 40.0, 45.0
    pw, ph_ = width - ml - mr, height - mt - mb

    ys = []
    pts = []
    if n:
        for z in roots:
            if z.get("zero"):
                continue
            y = float(z["logmag"]) / n
            ys.append(y)
            pts.append((float(z["phase"]), y))
    lines = []
    if n and inner_logmag is not None:
        lines.append(("inner", inner_logmag / n))
    if n and outer_logmag is not None:
        lines.append(("outer", outer_logmag / n))
    ys.extend(y for _, y in lines)
    if ys:
        ylo, yhi = min(ys), max(ys)
        if yhi - ylo < 1e-12:
            ylo, yhi = ylo - 1.0, yhi + 1.0
        pad = 0.1 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad
    else:
        ylo, yhi = -1.0, 1.0

    def sx(phase: float) -> float:
        return ml + (phase + math.pi) / (2.0 * math.pi) * pw

    def sy(y: float) -> float:
        return mt + (yhi - y) / (yhi - ylo) * ph_

    def f(v: float) -> str:
        return format(v, ".2f")

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect x="0" y="0" width="{int(width)}" height="{int(height)}" fill="white"/>',
        f'<text x="{f(width / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_svg_escape(title)}</text>',
        f'<rect x="{f(ml)}" y="{f(mt)}" width="{f(pw)}" height="{f(ph_)}" '
        f'fill="none" stroke="black"/>',
    ]
    for label, xv in (("-pi", -math.pi), ("0", 0.0), ("pi", math.pi)):
        x = sx(xv)
        out.append(
            f'<line x1="{f(x)}" y1="{f(mt + ph_)}" x2="{f(x)}" '
            f'y2="{f(mt + ph_ + 5)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{f(x)}" y="{f(mt + ph_ + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    out.append(
        f'<text x="{f(ml + pw / 2)}" y="{f(height - 8)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">phase</text>'
    )
    for frac in (0.0, 0.5, 1.0):
        yv = ylo + frac * (yhi - ylo)
        y = sy(yv)
        out.append(
            f'<line x1="{f(ml - 5)}" y1="{f(y)}" x2="{f(ml)}" y2="{f(y)}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{f(ml - 8)}" y="{f(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{format(yv, ".3g")}</text>'
        )
    out.append(
        f'<text x="15" y="{f(mt + ph_ / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 15 {f(mt + ph_ / 2)})">logmag / n</text>'
    )
    for label, yv in lines:
        y = sy(yv)
        out.append(
            f'<line class="refline" x1="{f(ml)}" y1="{f(y)}" x2="{f(ml + pw)}" '
            f'y2="{f(y)}" stroke="crimson" stroke-dasharray="6,4"/>'
        )
        out.append(
            f'<text x="{f(ml + pw - 4)}" y="{f(y - 5)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="crimson">{label}</text>'
        )
    for phase, y in pts:
        out.append(
            f'<circle cx="{f(sx(phase))}" cy="{f(sy(y))}" r="2.5" '
            f'fill="steelblue" fill-opacity="0.7"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_outputs(summary: dict, records: list[TrialRecord], outdir: str) -> dict:
    """Write summary.json, records.csv, and roots.svg; returns their paths."""
    kind = summary.get("config", {}).get("kind", "experiment")
    rep = representative_record(records)
    if rep is not None:
        title = f"{kind}: representative trial (n={rep.n}, trial={rep.trial})"
        svg = render_roots_svg(
            rep.n,
            [root_to_dict(z) for z in rep.roots],
            rep.predicted_inner_logmag,
            rep.predicted_outer_logmag,
            title,
        )
    else:
        svg = render_roots_svg(None, [], None, None, f"{kind}: no trials")

    paths = {
        "summary": os.path.join(outdir, "summary.json"),
        "records": os.path.join(outdir, "records.csv"),
        "plot": os.path.join(outdir, "roots.svg"),
    }
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(paths["summary"], "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
        with open(paths["records"], "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(records))
        with open(paths["plot"], "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as e:
        raise OSError(f"writing experiment outputs under {outdir}: {e}") from e
    return paths
