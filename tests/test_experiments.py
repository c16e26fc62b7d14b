"""Monte Carlo harness: determinism, aggregation, persistence, CLI."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from heavyroots.cli import main as cli_main
from heavyroots.experiments import (
    _CHUNK_ROOTS,
    ExperimentConfig,
    _chunks,
    TrialRecord,
    config_from_dict,
    config_to_dict,
    distribution_from_dict,
    emit_outputs,
    load_config,
    records_to_csv,
    render_roots_svg,
    representative_record,
    root_to_dict,
    run_experiment,
    sector_histogram,
    stable_formula,
    summarize,
)
from heavyroots.matcher import match_roots
from heavyroots.roots import RootSet, aberth_solve, polynomial, predicted_roots
from heavyroots.sampler import CoefficientDistribution, CoefficientVector
from heavyroots.xnum import XMINUS_ONE, XONE, XZERO, XComplex, xcomplex
from heavyroots.xvec import as_arrays


def _rootset(roots):
    lm, ph = as_arrays(roots)
    return RootSet(lm, ph, np.zeros(lm.size), True)


def _dist(variant="slow_tail_magnitude", beta=1.0, cap=690.0, phase="uniform_phase"):
    return CoefficientDistribution(
        variant=variant, beta=beta, cap=cap, phase_model=phase
    )


def _config(**kw):
    base = dict(
        kind="annulus",
        degrees=(10,),
        trials=8,
        distribution=_dist(),
        master_seed=7,
        delta=1.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- closed-form comparison value ----------------------------------------------------


def test_stable_formula_plug_in():
    e = math.exp(-1.0)
    assert stable_formula(1.0, 1.0) == pytest.approx(
        (1.0 + e) / (1.0 - e) - 2.0, rel=1e-14
    )
    assert stable_formula(1.0, 1.0) == pytest.approx(0.16395, abs=5e-6)


def test_stable_formula_limits():
    assert stable_formula(2.0, 1e6) == pytest.approx(1.0, abs=1e-5)
    assert stable_formula(1.0, 1e-4) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(ValueError):
        stable_formula(1.0, 0.0)


# --- sector binning -------------------------------------------------------------------


def test_sector_histogram_eighth_roots_of_unity():
    rs = aberth_solve(polynomial(*as_arrays([XMINUS_ONE] + [XZERO] * 7 + [XONE])))
    assert sector_histogram(rs) == (1,) * 8


def test_sector_histogram_boundary_phases_exact():
    phases = [-math.pi + k * math.pi / 4.0 for k in range(1, 9)]
    rs = _rootset([xcomplex(0.0, p) for p in phases])
    assert sector_histogram(rs) == (1,) * 8


def test_sector_histogram_interior_phases():
    rs = _rootset([xcomplex(0.0, -3.0), xcomplex(0.0, 0.1), xcomplex(0.0, 0.2)])
    h = sector_histogram(rs)
    assert h[0] == 1 and h[4] == 2 and sum(h) == 3
    assert all(type(k) is int for k in h)


# --- config plumbing ------------------------------------------------------------------


def test_config_round_trip():
    cfg = _config(kind="matching", degrees=(5, 10), epsilon=0.25, delta=None,
                  distribution=_dist("double_log_slow_tail"))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_to_dict_can_drop_output_path():
    cfg = _config(output_path="/tmp/somewhere")
    d = config_to_dict(cfg, include_output=False)
    assert "output_path" not in d
    assert config_to_dict(cfg)["output_path"] == "/tmp/somewhere"


def test_config_validation():
    with pytest.raises(ValueError):
        _config(kind="nonsense")
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(degrees=())
    with pytest.raises(ValueError):
        _config(delta=None)  # annulus requires delta
    with pytest.raises(ValueError):
        _config(delta=-1.0)
    with pytest.raises(ValueError):
        _config(epsilon=1.0)
    with pytest.raises(ValueError):
        _config(kind="stable_compare", alpha=None)
    with pytest.raises(ValueError):
        _config(kind="stable_compare", alpha=2.5, delta=1.0)
    with pytest.raises(ValueError):
        _config(kind="matching", degrees=(1, 5), delta=None)
    with pytest.raises(ValueError):
        distribution_from_dict({"variant": "no_such_tail"})


def _experiment_error(tmp_path, capsys, d) -> dict:
    """The error record of the experiment command on config d, which must
    fail as config_from_dict does, before any output directory exists."""
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(ValueError) as direct:
        config_from_dict(json.loads(cfgfile.read_text(encoding="utf-8")))
    rc = cli_main(["experiment", "-c", str(cfgfile), "-o", str(tmp_path / "out")])
    assert rc == 1
    assert not (tmp_path / "out").exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": str(direct.value)}
    return err


def test_config_rejects_repeated_degrees(tmp_path, capsys):
    # a repeated degree would run its trials twice and report the doubled
    # count in one summary row
    d = config_to_dict(_config(degrees=(20, 50), trials=5))
    d["degrees"] = [20, 20]
    err = _experiment_error(tmp_path, capsys, d)
    assert "repeat" in err["message"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("degrees", [5.9]),
        ("degrees", [20, True]),
        ("trials", 2.5),
        ("trials", True),
        ("master_seed", 1.7),
        ("master_seed", "3"),
    ],
)
def test_config_rejects_non_integral_counts(tmp_path, capsys, key, value):
    # int() would run degrees [5.9] as n = 5, trials 2.5 as 2 and seed 1.7
    # as 1, and the summary would record them as if asked for
    d = config_to_dict(_config(degrees=(20, 50), trials=5))
    d[key] = value
    err = _experiment_error(tmp_path, capsys, d)
    assert key in err["message"] and "integer" in err["message"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("epsilon", "0.25"),
        ("epsilon", True),
        ("delta", "1.5"),
        ("delta", False),
        ("alpha", True),
        ("alpha", "2"),
        ("beta", "2"),
        ("beta", True),
        ("cap", True),
        ("cap", "100"),
    ],
)
def test_config_rejects_non_numeric_parameters(tmp_path, capsys, key, value):
    # float() would run alpha true as 1.0 and delta "1.5" as 1.5, and a true
    # cap as double-log with a 1-nat cap, and the summary would record them
    # as if asked for
    d = config_to_dict(_config(degrees=(20, 50), trials=5))
    if key in ("beta", "cap"):
        d["distribution"][key] = value
    else:
        d[key] = value
    err = _experiment_error(tmp_path, capsys, d)
    assert key in err["message"] and "number" in err["message"]


def test_config_accepts_integers_for_real_parameters():
    d = config_to_dict(_config(degrees=(20,), trials=2))
    d.update(delta=2, alpha=2)
    d["distribution"].update(beta=2, cap=100)
    cfg = config_from_dict(d)
    got = (cfg.delta, cfg.alpha, cfg.distribution.beta, cfg.distribution.cap)
    assert got == (2.0, 2.0, 2.0, 100.0)
    assert all(type(v) is float for v in got)


def test_config_accepts_integral_floats():
    d = config_to_dict(_config(degrees=(20, 50), trials=5))
    d.update(degrees=[20.0, 50], trials=5.0, master_seed=7.0)
    cfg = config_from_dict(d)
    assert cfg.degrees == (20, 50) and cfg.trials == 5 and cfg.master_seed == 7
    assert all(type(v) is int for v in (*cfg.degrees, cfg.trials, cfg.master_seed))


@pytest.mark.parametrize("field", ["delta", "beta"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_delta_and_beta(tmp_path, capsys, field, value):
    # JSON reads Infinity and NaN; an infinite delta or beta used to pass
    # validation, run every trial and fail only when writing summary.json
    d = config_to_dict(_config(degrees=(20,), trials=2))
    if field == "beta":
        d["distribution"]["beta"] = value
    else:
        d["delta"] = value
    err = _experiment_error(tmp_path, capsys, d)
    assert field in err["message"]


def test_load_config(tmp_path):
    cfg = _config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert load_config(str(path)) == cfg
    with pytest.raises(OSError):
        load_config(str(tmp_path / "missing.json"))


# --- experiment runs ------------------------------------------------------------------


def test_unit_modulus_roots_never_leave_the_annulus():
    # all-ones coefficients put every root on the unit circle, so the
    # band of logmag within [-delta/n, delta/n] is never empty
    cfg = _config(
        degrees=(7,),
        trials=6,
        distribution=_dist("unit_modulus", phase="fixed_positive"),
    )
    summary, records = run_experiment(cfg)
    entry = summary["per_degree"][0]
    assert entry["converged"] == 6
    assert entry["empty_annulus_rate"] == 0.0
    assert entry["mean_annulus_count_over_n"] == 1.0
    assert all(r.annulus_count == 7 for r in records)


def test_matching_run_overwhelming_middle_coefficient():
    # (1, e^{e^20}, 1): the prediction is deterministic and essentially exact
    lm, ph = as_arrays([XONE, xcomplex(math.exp(20.0), 0.0), XONE])
    c = CoefficientVector(lm, ph, 1, 0, 0)
    rs = aberth_solve(polynomial(c.lm, c.ph))
    pred = predicted_roots(c)
    for eps in (1e-6, 0.5):
        res = match_roots(rs, pred, eps, 2)
        assert res.holds, eps


def test_gaussian_coefficients_do_not_match_predictions():
    cfg = _config(
        kind="matching",
        degrees=(50,),
        trials=20,
        delta=None,
        distribution=_dist("complex_gaussian"),
        master_seed=303,
    )
    summary, _ = run_experiment(cfg)
    entry = summary["per_degree"][0]
    assert entry["match_rate"] is not None and entry["match_rate"] <= 0.1


def test_certificate_chain_consistency_inequality():
    cfg = _config(
        kind="matching",
        degrees=(20,),
        trials=60,
        delta=None,
        distribution=_dist("double_log_slow_tail"),
        master_seed=99,
    )
    summary, _ = run_experiment(cfg)
    for entry in summary["per_degree"]:
        if entry["certificate_rate"] is None or entry["match_rate"] is None:
            continue
        slack = (entry["degenerate_tau"] + entry["nonconverged"]) / entry["trials"]
        assert entry["certificate_rate"] <= entry["match_rate"] + slack


def test_records_hold_plain_python_values():
    # records.csv tests isinstance(v, bool) and json rejects numpy integers,
    # so a numpy scalar in a record would change or break the outputs
    cfg = _config(
        kind="matching",
        degrees=(12,),
        trials=6,
        distribution=_dist("double_log_slow_tail"),
        master_seed=21,
    )
    _, records = run_experiment(cfg)
    assert any(r.match_holds is not None for r in records)
    for r in records:
        for f in dataclasses.fields(r):
            v = getattr(r, f.name)
            if isinstance(v, tuple):
                assert all(type(x) in (int, XComplex) for x in v), f.name
            else:
                assert type(v) in (int, float, bool, type(None)), f.name


def test_worker_count_never_changes_results():
    # three full chunks and a partial one at n=10, so several chunks of each
    # degree run concurrently
    cfg = _config(degrees=(10, 15), trials=3 * (_CHUNK_ROOTS // 10) + 1, master_seed=41)
    assert all(sum(m == n for m, _ in _chunks(cfg)) >= 4 for n in cfg.degrees)
    s1, r1 = run_experiment(cfg, workers=1)
    s4, r4 = run_experiment(cfg, workers=4)
    assert json.dumps(s1, sort_keys=True) == json.dumps(s4, sort_keys=True)
    assert records_to_csv(r1) == records_to_csv(r4)


def test_rerun_is_byte_identical(tmp_path):
    cfg = _config(degrees=(8,), trials=10, master_seed=5)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        summary, records = run_experiment(cfg)
        emit_outputs(summary, records, str(out))
    for name in ("summary.json", "records.csv", "roots.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_chunk_boundaries_never_change_outputs(tmp_path):
    # a chunk of degree n holds _CHUNK_ROOTS // n trials (at least one), so
    # with two more trials than a full chunk at n=20, both n=20 and n=50 split
    # into full chunks and a partial last one; n=300 takes one trial per chunk
    cfg = _config(
        kind="matching",
        degrees=(20, 50, 300),
        trials=_CHUNK_ROOTS // 20 + 2,
        delta=None,
        distribution=_dist("double_log_slow_tail"),
        master_seed=17,
    )
    expected = {}
    for n in cfg.degrees:
        size = max(1, _CHUNK_ROOTS // n)
        full, rest = divmod(cfg.trials, size)
        expected[n] = [size] * full + [rest] * (rest > 0)
    for n in (20, 50):
        assert len(expected[n]) >= 2 and 0 < expected[n][-1] < expected[n][0]
    assert expected[300] == [1] * cfg.trials
    sizes: dict[int, list[int]] = {}
    for n, trials in _chunks(cfg):
        sizes.setdefault(n, []).append(len(trials))
    assert sizes == expected
    outputs = []
    for workers in (1, 2, 3):
        summary, records = run_experiment(cfg, workers=workers)
        assert [(r.n, r.trial) for r in records] == [
            (n, t) for n in cfg.degrees for t in range(cfg.trials)
        ]
        out = tmp_path / f"w{workers}"
        emit_outputs(summary, records, str(out))
        outputs.append(
            [(out / name).read_bytes() for name in ("summary.json", "records.csv")]
        )
    assert outputs[0] == outputs[1] == outputs[2]


def test_sector_frequencies_sum_to_one():
    cfg = _config(kind="sector_uniformity", degrees=(16,), trials=10, delta=None,
                  distribution=_dist("complex_gaussian"), master_seed=11)
    summary, _ = run_experiment(cfg)
    freq = summary["per_degree"][0]["sector_frequencies"]
    assert sum(freq) == pytest.approx(1.0, abs=1e-12)


# --- records, representative trial, SVG ------------------------------------------------


def _record(n, trial, converged=True, degenerate=False):
    return TrialRecord(
        n=n,
        trial=trial,
        seed=trial,
        tau=1,
        clamp_count=0,
        converged=converged,
        degenerate=degenerate,
        annulus_count=0,
        sector_counts=(0,) * 8,
        max_dominates=None,
        product_dominates=False,
        threshold_met=False,
        matching_bound_holds=False,
        match_holds=None,
        worst_rel_error=None,
        roots=(xcomplex(0.0, 0.5),),
        predicted_inner_logmag=-1.0,
        predicted_outer_logmag=1.0,
    )


def test_representative_record_preference_order():
    assert representative_record([]) is None
    records = [
        _record(10, 0, converged=True, degenerate=True),
        _record(10, 1),
        _record(10, 2),
        _record(5, 0),
    ]
    rep = representative_record(records)
    assert (rep.n, rep.trial) == (10, 1)
    only_bad = [
        _record(10, 0, converged=False),
        _record(5, 0, converged=True, degenerate=True),
    ]
    assert representative_record(only_bad).n == 5


def test_records_csv_single_roots_json_row():
    # exactly one row carries the representative trial's roots, and that
    # JSON cell must parse back to the serialized root values
    import csv as _csv
    import io

    records = [_record(10, t) for t in range(4)]
    csv_text = records_to_csv(records)
    assert len(csv_text.strip().split("\n")) == 5
    rows = list(_csv.DictReader(io.StringIO(csv_text)))
    cells = [r["roots_json"] for r in rows if r["roots_json"]]
    assert len(cells) == 1
    decoded = json.loads(cells[0])
    assert decoded["n"] == 10 and decoded["trial"] == 0
    assert decoded["roots"][0]["phase"] == format(0.5, ".17g")


def test_root_serialization_round_trips_exactly():
    z = xcomplex(-123.45678901234567, 2.718281828459045)
    d = root_to_dict(z)
    assert float(d["logmag"]) == z.logmag
    assert float(d["phase"]) == z.phase


def test_svg_has_two_reference_lines_and_labels():
    cfg = _config(
        kind="matching",
        degrees=(12,),
        trials=6,
        delta=None,
        distribution=_dist("double_log_slow_tail"),
        master_seed=21,
    )
    summary, records = run_experiment(cfg)
    rep = representative_record(records)
    svg = render_roots_svg(
        rep.n,
        [root_to_dict(z) for z in rep.roots],
        rep.predicted_inner_logmag,
        rep.predicted_outer_logmag,
        "matching: representative trial",
    )
    assert svg.count('class="refline"') == 2
    assert "phase" in svg and "logmag / n" in svg
    assert svg.count("<circle") == rep.n


def test_emit_outputs_zero_records(tmp_path):
    cfg = _config()
    paths = emit_outputs(summarize(cfg, []), [], str(tmp_path / "empty"))
    summary = json.loads((tmp_path / "empty" / "summary.json").read_text())
    assert summary["per_degree"][0]["trials"] == 0
    csv_text = (tmp_path / "empty" / "records.csv").read_text()
    assert csv_text.count("\n") == 1  # header only
    svg = (tmp_path / "empty" / "roots.svg").read_text()
    assert svg.startswith("<svg") and 'class="refline"' not in svg
    assert set(paths) == {"summary", "records", "plot"}


def test_emit_outputs_bad_directory():
    cfg = _config(degrees=(4,), trials=1)
    summary, records = run_experiment(cfg)
    with pytest.raises(OSError):
        emit_outputs(summary, records, "/proc/definitely/not/writable")


# --- CLI ------------------------------------------------------------------------------


def test_cli_sample_solve_certify_plot(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    roots = tmp_path / "roots.json"
    assert (
        cli_main(
            [
                "sample",
                "--dist",
                "double_log_slow_tail",
                "--n",
                "6",
                "--seed",
                "42",
                "-o",
                str(coeffs),
            ]
        )
        == 0
    )
    data = json.loads(coeffs.read_text())
    assert data["degree"] == 6 and len(data["coefficients"]) == 7

    assert cli_main(["solve", "-i", str(coeffs), "-o", str(roots)]) == 0
    rdata = json.loads(roots.read_text())
    assert rdata["converged"] and len(rdata["roots"]) == 6

    assert cli_main(["certify", "-i", str(coeffs), "--eps", "0.5", "--delta", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "events" in payload and payload["events"]["delta"] == 1.0

    cfgfile = tmp_path / "config.json"
    outdir = tmp_path / "run"
    cfg = _config(degrees=(6,), trials=4, master_seed=3)
    cfgfile.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert cli_main(["experiment", "-c", str(cfgfile), "-o", str(outdir), "--workers", "2"]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert set(emitted) == {"summary", "records", "plot"}

    replot = tmp_path / "replot.svg"
    assert cli_main(["plot", "-i", str(outdir / "records.csv"), "-o", str(replot)]) == 0
    assert replot.read_text().startswith("<svg")


def test_cli_certify_takes_the_lower_tied_index_as_tau(tmp_path, capsys):
    # a zero interior coefficient below two tied maxima at powers 2 and 3
    def coeff(logmag, phase):
        return {"zero": False, "logmag": str(logmag), "phase": str(phase)}

    path = tmp_path / "tied.json"
    coeffs = [coeff(0, 0), {"zero": True}, coeff(5, 1), coeff(5, -1), coeff(0, 2)]
    path.write_text(json.dumps({"coefficients": coeffs}), encoding="utf-8")
    assert cli_main(["certify", "-i", str(path), "--delta", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"]["tau"] == 2
    assert payload["events"]["degenerate"] is False
    assert payload["pellet"]["k"] == 2


def test_cli_solve_reports_no_roots_at_degree_zero(tmp_path):
    # zero, c, zero trims to the constant c after one zero root
    path = tmp_path / "constant.json"
    const = {"zero": False, "logmag": "2.5", "phase": "1"}
    coeffs = [{"zero": True}, const, {"zero": True}]
    path.write_text(json.dumps({"coefficients": coeffs}), encoding="utf-8")
    out = tmp_path / "roots.json"
    assert cli_main(["solve", "-i", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "degree": 0,
        "zero_root_multiplicity": 1,
        "converged": True,
        "roots": [],
        "residuals": [],
    }


def test_cli_failure_prints_error_record(tmp_path, capsys):
    rc = cli_main(["solve", "-i", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OSError" and "nope.json" in err["message"]


def test_cli_experiment_requires_output(tmp_path, capsys):
    cfgfile = tmp_path / "config.json"
    cfg = _config(degrees=(4,), trials=1)
    cfgfile.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert cli_main(["experiment", "-c", str(cfgfile)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
