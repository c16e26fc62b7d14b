"""Command-line interface: sample, solve, certify, experiment, plot.

All subcommands exchange data as JSON (coefficients, roots, certificates) or
CSV (trial records).  Failures print a machine-readable error record to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .localization import evaluate_certificate_events, pellet_certify
from .experiments import (
    emit_outputs,
    load_config,
    render_roots_svg,
    root_to_dict,
    run_experiment,
)
from .roots import Polynomial, aberth_solve, trim
from .sampler import (
    PHASE_MODELS,
    VARIANTS,
    CoefficientDistribution,
    CoefficientVector,
    argmax_index,
    sample_coefficients,
)
from .xnum import XComplex, XZERO, xcomplex
from .xvec import as_arrays, from_arrays


def _to_dicts(lm, ph) -> list[dict]:
    return [root_to_dict(z) for z in from_arrays(lm, ph)]


def _coeff_from_dict(d: dict) -> XComplex:
    if d.get("zero"):
        return XZERO
    return xcomplex(float(d["logmag"]), float(d["phase"]))


def _read_coefficient_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise OSError(f"reading {path}: {e}") from e


def _write_json(path: str, payload: dict):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as e:
        raise OSError(f"writing {path}: {e}") from e


def _read_polynomial(path: str) -> tuple[dict, Polynomial, int]:
    """The file's JSON, its trimmed polynomial and zero-root multiplicity."""
    data = _read_coefficient_file(path)
    coeffs = [_coeff_from_dict(d) for d in data["coefficients"]]
    p, zero_mult, _ = trim(*as_arrays(coeffs))
    return data, p, zero_mult


def _cmd_sample(args) -> int:
    dist = CoefficientDistribution(
        variant=args.dist,
        beta=args.beta,
        cap=args.cap,
        phase_model=args.phase_model,
    )
    c = sample_coefficients(dist, args.n, args.seed)
    _write_json(
        args.output,
        {
            "degree": c.degree,
            "seed": c.seed,
            "tau": c.tau,
            "clamp_count": c.clamp_count,
            "coefficients": _to_dicts(c.lm, c.ph),
        },
    )
    return 0


def _cmd_solve(args) -> int:
    _, p, zero_mult = _read_polynomial(args.input)
    rs = aberth_solve(p, tol=args.tol, max_iter=args.max_iter)
    _write_json(
        args.output,
        {
            "degree": p.degree,
            "zero_root_multiplicity": zero_mult,
            "converged": rs.converged,
            "roots": _to_dicts(rs.lm, rs.ph),
            "residuals": rs.residuals.tolist(),
        },
    )
    return 0


def _cmd_certify(args) -> int:
    data, p, _ = _read_polynomial(args.input)
    tau = argmax_index(p.lm)
    cv = CoefficientVector(
        lm=p.lm,
        ph=p.ph,
        tau=tau,
        seed=int(data.get("seed", 0)),
        clamp_count=int(data.get("clamp_count", 0)),
    )
    events = evaluate_certificate_events(cv, args.eps, args.delta)
    cert = None
    if 1 <= tau <= p.degree - 1:
        cert = pellet_certify(p, tau)
    payload = {
        "pellet": None
        if cert is None
        else {"k": cert.k, "r_logmag": cert.r_logmag, "R_logmag": cert.R_logmag},
        "events": {
            "tau": tau,
            "degenerate": events.degenerate,
            "product_dominates": events.product_dominates,
            "threshold_met": events.threshold_met,
            "matching_bound_holds": events.matching_bound_holds,
            "max_dominates": events.max_dominates,
            "epsilon": events.epsilon,
            "delta": events.delta,
        },
    }
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    outdir = args.output or config.output_path
    if not outdir:
        raise ValueError("no output directory: pass -o or set output_path in config")
    summary, records = run_experiment(config, workers=args.workers)
    paths = emit_outputs(summary, records, outdir)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _cmd_plot(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as e:
        raise OSError(f"reading {args.input}: {e}") from e
    payload = None
    for row in rows:
        if row.get("roots_json"):
            payload = json.loads(row["roots_json"])
            break
    if payload is None:
        svg = render_roots_svg(None, [], None, None, "no plottable trial")
    else:
        title = f"replotted trial (n={payload['n']}, trial={payload['trial']})"
        svg = render_roots_svg(
            payload["n"],
            payload["roots"],
            payload.get("predicted_inner_logmag"),
            payload.get("predicted_outer_logmag"),
            title,
        )
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as e:
        raise OSError(f"writing {args.output}: {e}") from e
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavyroots",
        description="Log-polar root solving and Monte Carlo experiments "
        "for polynomials with heavy-tailed random coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one random coefficient vector")
    p.add_argument("--dist", required=True, choices=VARIANTS)
    p.add_argument("--n", required=True, type=int, help="polynomial degree")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--cap", type=float, default=690.0)
    p.add_argument("--phase-model", choices=PHASE_MODELS, default="uniform_phase")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("solve", help="find all roots of a coefficient file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="annulus certificate and dominance events")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=None, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("plot", help="re-render the SVG from a records CSV")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # surface a machine-readable record, exit nonzero
        record = {"error": type(e).__name__, "message": str(e)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
