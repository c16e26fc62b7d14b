"""One run of one workload in a fresh process; prints one JSON object.

Started by run.py with ``src`` on PYTHONPATH:

    python3 bench/worker.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

``--setup-only`` times the import of heavyroots and the building of the
workload config, then exits.  Otherwise the worker runs one small untimed
pass, then passes until their time inside ``run_experiment`` reaches
``--seconds``, writes each pass's outputs with ``emit_outputs``, and then
verifies every trial (core.verify).  Times reported as ``trials_per_s`` and
``setup_s`` are divided by the host slowdown measured next to them (see
probe.py); the plain wall-clock figures are reported beside them.  With ``--trace 1`` the passes run for
half of ``--seconds`` with span wrappers installed, and each is also run
untraced to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback

from workloads import MAX_PASSES, WORKLOADS, config_dict, master_seed

# Reruns that verify seeds without references may take this share of
# --seconds, which keeps one run to about 40 s.
RERUN_SHARE = 0.1
OUT_DIR = ".bench_out"  # emitted outputs and span files, under the checkout
EMIT_DIR = os.path.join(OUT_DIR, "emit")


def _no_span(_name):
    return contextlib.nullcontext()


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Runner:
    """Runs passes of one workload and keeps what verification needs."""

    def __init__(self, experiments, workload, out_dir, tracer=None):
        import core  # imports numpy, so only after set-up has been timed

        self.core = core
        self.experiments = experiments
        self.workload = workload
        self.out_dir = out_dir
        self.tracer = tracer
        self.passes = []
        self.run_wall = 0.0  # seconds inside run_experiment
        self.emit_wall = 0.0
        self.out_bytes = []
        self.slowdowns = []  # host slowdown probed around each timed pass

    def one(self, mseed: int) -> None:
        core = self.core
        tr = self.tracer
        root_span = tr.root_span if tr else _no_span
        span = tr.span if tr else _no_span
        t0 = time.perf_counter()
        try:
            with root_span("experiments.pass"):
                summary, records = core.run_pass(
                    self.experiments, self.workload, mseed, self.workload.workers
                )
        except Exception:  # a raising trial aborts its pass; count it and go on
            self.run_wall += time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.passes.append(
                core.failed_pass(self.workload, mseed, traceback.format_exc(limit=1))
            )
            return
        self.run_wall += time.perf_counter() - t0

        t1 = time.perf_counter()
        with span("experiments.emit"):
            paths = self.experiments.emit_outputs(summary, records, self.out_dir)
        self.emit_wall += time.perf_counter() - t1
        self.out_bytes.append(sum(os.path.getsize(p) for p in paths.values()))
        self.passes.append(core.to_pass_result(self.workload, mseed, summary, records))

    def warm_up(self, seed: int) -> None:
        """One untimed small pass, so first-call costs (lazy imports, the
        allocator growing its heap) fall outside every timed window."""
        workers = self.workload.workers
        spec = {**config_dict(self.workload, master_seed(seed, 0)), "trials": workers}
        config = self.experiments.config_from_dict(spec)
        self.experiments.run_experiment(config, workers=workers)

    def timed(self, seed: int, seconds: float) -> float:
        """Run passes until ``seconds`` inside run_experiment; returns that
        time with each pass divided by the host slowdown probed around it."""
        import probe

        slow = [probe.slowdown(self.workload.workers)]
        adjusted = 0.0
        p = 0
        while self.run_wall < seconds and p < MAX_PASSES:
            before = self.run_wall
            self.one(master_seed(seed, p))
            slow.append(probe.slowdown(self.workload.workers))
            adjusted += (self.run_wall - before) / ((slow[-2] + slow[-1]) / 2)
            p += 1
        self.slowdowns = slow
        return adjusted

    @property
    def wall(self) -> float:
        return self.run_wall + self.emit_wall

    @property
    def completed(self) -> int:
        return sum(len(p.trials) for p in self.passes if p.trials is not None)

    @property
    def attempted(self) -> int:
        return sum(p.expected_trials for p in self.passes)

    def rerun_1_worker(self, mseed: int):
        summary, records = self.core.run_pass(self.experiments, self.workload, mseed, 1)
        return self.core.to_pass_result(self.workload, mseed, summary, records)


def _verify(runner: Runner, budget_s: float, rerun=None):
    core = runner.core
    refs = core.load_refs(core.refs_path(runner.workload.name))
    return core.verify(runner.passes, refs, rerun or runner.rerun_1_worker, budget_s)


def _time_hull(roots, polynomials) -> tuple[float, list[int]]:
    """Seconds spent in newton_polygon_radii over the given polynomials, and
    the segment count of each; run single-threaded after the traced passes."""
    hull = roots.newton_polygon_radii
    t0 = time.perf_counter()
    segs = [len(hull(p)) for p in polynomials]
    return time.perf_counter() - t0, segs


def _trace_metrics(runner: Runner, replay: Runner, tracer, hull, main_thread: int) -> dict:
    import spans

    wall_self, cpu_self, dur, calls, pool_cpu = spans.layer_totals(
        tracer.spans, main_thread
    )
    trials = max(runner.completed, 1)
    npasses = max(len(runner.passes), 1)
    hull_s, segs = hull

    def per_trial_ms(*names):
        return 1e3 * sum(cpu_self[n] for n in names) / trials

    trial_wall = dur["experiments.trial"]
    match_calls = calls["matcher.match"]
    metrics = {
        "roots.solve_ms_per_trial": (per_trial_ms("roots.solve"), "ms"),
        "roots.solve_share": (
            wall_self["roots.solve"] / trial_wall if trial_wall > 0 else 0.0,
            "ratio",
        ),
        "roots.hull_ms_per_trial": (1e3 * hull_s / max(len(segs), 1), "ms"),
        "roots.hull_segments_mean": (statistics.fmean(segs) if segs else 0.0, "count"),
        "roots.predict_ms_per_trial": (per_trial_ms("roots.predict"), "ms"),
        "sampler.ms_per_trial": (per_trial_ms("sampler.sample"), "ms"),
        "localization.events_ms_per_trial": (
            per_trial_ms("localization.events"),
            "ms",
        ),
        "xvec.convert_ms_per_trial": (per_trial_ms("xvec.convert"), "ms"),
        "matcher.ms_per_trial": (
            per_trial_ms("matcher.match", "matcher.bottleneck"),
            "ms",
        ),
        "matcher.bottleneck_fallback_ratio": (
            calls["matcher.bottleneck"] / match_calls if match_calls else 0.0,
            "ratio",
        ),
        "matcher.match_calls": (match_calls, "count"),
        "experiments.trial_self_ms_per_trial": (
            per_trial_ms("experiments.trial"),
            "ms",
        ),
        "experiments.busy_ratio": (
            pool_cpu / (runner.run_wall * runner.workload.workers),
            "ratio",
        ),
        "experiments.summarize_ms": (1e3 * dur["experiments.summarize"] / npasses, "ms"),
        "experiments.emit_ms": (1e3 * dur["experiments.emit"] / npasses, "ms"),
        "experiments.output_bytes": (
            statistics.fmean(runner.out_bytes) if runner.out_bytes else 0.0,
            "bytes",
        ),
        "experiments.trials_traced": (runner.completed, "count"),
        "trace.wall_ratio": (runner.wall / replay.wall, "ratio"),
        "trace.self_time_coverage": (sum(wall_self.values()) / replay.wall, "ratio"),
    }
    layers: dict[str, float] = {}
    for name, v in cpu_self.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + 1e3 * v / trials
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layer_cpu_ms_per_trial": layers,
        "traced_wall_s": runner.wall,
        "untraced_wall_s": replay.wall,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    from heavyroots import experiments

    experiments.config_from_dict(config_dict(workload, master_seed(args.seed, 0)))
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        import probe

        slow = probe.slowdown()
        print(json.dumps({"setup_s": setup_s / slow, "setup_wall_s": setup_s}))
        return 0

    os.makedirs(EMIT_DIR, exist_ok=True)
    result = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s}

    if args.trace == 0:
        runner = Runner(experiments, workload, EMIT_DIR)
        runner.warm_up(args.seed)
        adjusted_s = runner.timed(args.seed, args.seconds)
        # peak so far: the passes only, before references or reruns load
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["trials_per_s"] = runner.completed / adjusted_s
        result["trials_per_wall_s"] = runner.completed / runner.run_wall
        result["host_slowdown_median"] = statistics.median(runner.slowdowns)
        failed, reasons, checked = _verify(runner, RERUN_SHARE * args.seconds)
    else:
        import spans
        from heavyroots import matcher, roots, sampler

        modules = {
            "experiments": experiments,
            "roots": roots,
            "sampler": sampler,
            "matcher": matcher,
        }
        tracer = spans.Tracer()
        runner = Runner(experiments, workload, EMIT_DIR, tracer)
        replay = Runner(experiments, workload, EMIT_DIR)
        runner.warm_up(args.seed)
        # Per-layer metrics have no bound, so traced passes fill half the
        # window and untraced replays of the same passes the other half.
        # Each pass is replayed right next to its traced run, in alternating
        # order, so a drift in machine speed reaches both sides alike.
        p = 0
        while runner.run_wall < args.seconds / 2 and p < MAX_PASSES:
            mseed = master_seed(args.seed, p)
            if p % 2:
                replay.one(mseed)
            with tracer.installed(modules):
                runner.one(mseed)
            if not p % 2:
                replay.one(mseed)
            p += 1
        hull = _time_hull(roots, tracer.polynomials)
        tracer.polynomials.clear()
        result.update(
            _trace_metrics(runner, replay, tracer, hull, threading.get_ident())
        )
        trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
        tracer.write(trace_path)
        result["trace_file"] = trace_path
        # on 1 worker the untraced replay is already the 1-worker rerun
        by_seed = {p.mseed: p for p in replay.passes}
        rerun = by_seed.__getitem__ if workload.workers == 1 else None
        failed, reasons, checked = _verify(runner, RERUN_SHARE * args.seconds, rerun)

    result.update(
        attempted=runner.attempted,
        completed=runner.completed,
        failed=failed,
        reasons=reasons,
        checked=checked,
        run_wall_s=runner.run_wall,
        passes=len(runner.passes),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
