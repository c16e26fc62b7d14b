"""heavyroots benchmark: Monte Carlo throughput, set-up time and memory per
workload, with verified outputs and a per-layer trace.

Run from the root of a source checkout (no install or build step):

    python3 bench/run.py --workload cauchy_n500_w1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 0 --seconds 30 --out bench/baseline.json

With ``--workload`` it runs that workload once and prints a readable report
followed, as the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a run
with span wrappers installed (see spans.py).  Without ``--workload`` it runs
every workload at both trace settings and, with ``--out``, saves the results.

Each measured run happens in a fresh worker process (worker.py), so its peak
memory is that of this workload alone.  ``setup_s`` is the median, over
several further fresh processes, of the time to import heavyroots and build
the workload config.  ``trials_per_s`` and ``setup_s`` are given in seconds
of a host running at a reference speed: each time is divided by the slowdown
of a fixed probe timed next to it (probe.py), because the CPU speed of a
shared virtual machine drifts by tens of percent over minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7  # fresh processes timed for setup_s
RUN_LIMIT_S = 170.0  # one run, all processes included, must end within 180 s

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "verified_trial_fraction": "fraction",
}


class BenchError(RuntimeError):
    pass


def _source_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heavyroots", "__init__.py")):
        raise BenchError(
            "run from the root of a heavyroots checkout: src/heavyroots is missing"
        )
    return root


def _worker(root: str, args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded the time limit: {args}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {args}")
    return json.loads(lines[-1])


def run_workload(root: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: returns the contract result plus the worker's details."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    w = _worker(root, [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    attempted, failed = w["attempted"], w["failed"]
    if trace == 0:
        # started after the measured worker, so bytecode caches are warm
        setups = [
            _worker(root, [*base, "--setup-only"], deadline)
            for _ in range(SETUP_SAMPLES)
        ]
        values = {
            "trials_per_s": w["trials_per_s"],
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "peak_rss_mb": w["peak_rss_mb"],
            "verified_trial_fraction": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        w["setup_samples_s"] = [x["setup_s"] for x in setups]
        w["setup_wall_median_s"] = statistics.median(x["setup_wall_s"] for x in setups)
    else:
        metrics = w["metrics"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": w,
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name: str, seed: int, trace: int, r: dict) -> None:
    d = r["detail"]
    print(f"== {name}  seed={seed}  trace={trace}  passes={d['passes']}")
    for k, m in r["metrics"].items():
        print(f"  {k:36s} {_fmt(m['value']):>14s}  {m['unit']}")
    frac = r["failed"] / r["attempted"]
    print(
        f"  {'failed_trial_fraction':36s} {_fmt(frac):>14s}  fraction"
        f"  ({r['failed']} of {r['attempted']} trials)"
    )
    c = d["checked"]
    print(
        f"  trials checked against references {c['reference']}, by 1-worker "
        f"rerun {c['rerun']}, for convergence only {c['converged_only']}"
    )
    if trace == 0:
        print(f"  setup samples (s): {', '.join(_fmt(s) for s in d['setup_samples_s'])}")
        print(
            f"  wall clock, before dividing by the host slowdown: trials_per_s "
            f"{_fmt(d['trials_per_wall_s'])}, setup_s {_fmt(d['setup_wall_median_s'])}; "
            f"median host slowdown {_fmt(d['host_slowdown_median'])}"
        )
    else:
        print("  CPU self time per layer (ms per trial):")
        for layer, v in sorted(d["layer_cpu_ms_per_trial"].items()):
            print(f"    {layer:34s} {_fmt(v):>14s}")
        print(
            f"  traced wall {_fmt(d['traced_wall_s'])} s, untraced wall "
            f"{_fmt(d['untraced_wall_s'])} s, {d['spans']} spans in {d['trace_file']}"
        )
    for why in d["reasons"]:
        print(f"  FAILED {why}")


def _exit_on_sigterm(signum, _frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running worker before the exception propagates
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with no --workload: save all results as JSON")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    try:
        root = _source_root()
        if args.workload:
            r = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
            report(args.workload, args.seed, args.trace, r)
            print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        results = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                r = run_workload(root, name, args.seed, args.seconds, trace)
                report(name, args.seed, trace, r)
                results.setdefault(name, {})[f"trace{trace}"] = r
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    out = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": results,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    correct = all(r["correct"] for w in results.values() for r in w.values())
    print(json.dumps({"correct": correct, "workloads": sorted(results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
