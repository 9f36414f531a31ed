"""Experiment drivers: scans, fits, result containers, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from flagint import experiments
from flagint import (
    ConfigIncompleteError,
    CounterexampleRegion,
    DecayFit,
    ExponentConfig,
    FitWindowError,
    GapRegion,
    PreconditionError,
    ScanResult,
    UsageError,
    Window,
    counterexample_growth,
    dilation_scan,
    fit_loglog,
    frontier_map,
    hls_iteration_check,
    indicator_box,
    lq_mass,
    make_signum_atom,
    piecewise_constant,
    shell_decay_profile,
    smooth_bump,
)

F = Fraction
JOBS = min(4, os.cpu_count() or 1)


def _scan_cfg():
    return ExponentConfig(
        n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), p=F(1), q=F(2)
    )


def _payload():
    return indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))


def _window():
    return Window(n=1, m=1, box=((2.0, 4.0), (-4.0, 4.0)))


# ---------------------------------------------------------------------------
# result container


def test_csv_text_formatting():
    sr = ScanResult(
        experiment="demo",
        columns=("a", "b", "c", "d"),
        rows=[
            {"a": None, "b": True, "c": F(9, 10), "d": 0.1},
            {"a": 1, "b": False, "c": "x", "d": np.float64(0.25)},
        ],
    )
    assert sr.to_csv_text() == "a,b,c,d\r\n,true,9/10,0.1\r\n1,false,x,0.25\r\n"


def test_csv_missing_keys_render_empty():
    sr = ScanResult(experiment="demo", columns=("a", "b"), rows=[{"a": 2}])
    assert sr.to_csv_text() == "a,b\r\n2,\r\n"


def test_json_text_shape_and_pinned_timestamp():
    sr = ScanResult(
        experiment="demo",
        columns=("a",),
        rows=[{"a": 1}],
        metadata={"ratio": F(1, 2), "flag": np.bool_(True)},
        wall_time_s=1.25,
    )
    text = sr.to_json_text(written_at="2026-01-01T00:00:00+00:00")
    assert text == sr.to_json_text(written_at="2026-01-01T00:00:00+00:00")
    doc = json.loads(text)
    assert set(doc) == {"experiment", "columns", "row_count", "metadata", "timestamp"}
    assert doc["row_count"] == 1
    assert doc["metadata"] == {"ratio": "1/2", "flag": True}
    assert doc["timestamp"] == {
        "written_at": "2026-01-01T00:00:00+00:00",
        "wall_time_s": 1.25,
    }


# ---------------------------------------------------------------------------
# fits


def test_fit_loglog_recovers_exact_power():
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    ys = [3.0 * x ** -2.0 for x in xs]
    fit = fit_loglog(xs, ys)
    assert math.isclose(fit.slope, -2.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, math.log2(3.0), rel_tol=0, abs_tol=1e-12)
    assert fit.residual < 1e-12
    assert fit.window == (1, 4)


def test_fit_loglog_transient_handling():
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    ys = [100.0, 4.0, 1.0, 0.25, 0.0625]  # first point off the line
    dropped = fit_loglog(xs, ys)
    assert math.isclose(dropped.slope, -2.0, abs_tol=1e-12)
    kept = fit_loglog(xs, ys, drop_first=False)
    assert kept.residual > 1.0


def test_fit_loglog_window_too_small():
    with pytest.raises(FitWindowError):
        fit_loglog([1.0, 2.0, 4.0, 8.0], [1.0, 1.0, 1.0, 1.0])  # 3 after drop
    fit_loglog([1.0, 2.0, 4.0, 8.0], [1.0, 1.0, 1.0, 1.0], drop_first=False)


def test_fit_loglog_rejects_nonpositive_data():
    with pytest.raises(ValueError):
        fit_loglog([1.0, 2.0, 4.0, 8.0, 16.0], [1.0, -1.0, 1.0, 1.0, 1.0])


def test_decay_fit_window_validation():
    with pytest.raises(FitWindowError):
        DecayFit(slope=1.0, intercept=0.0, residual=0.0, window=(0, 2))


# ---------------------------------------------------------------------------
# dilation scan


def test_dilation_scan_structure(grid_spec):
    result = dilation_scan(
        _scan_cfg(), _payload(), [0.25, 0.5, 2.0, 4.0], [2.0], grid_spec,
        window=_window(), jobs=JOBS,
    )
    assert result.experiment == "dilate"
    assert [(r["delta"], r["lambda"], r["case"]) for r in result.rows] == [
        (1.0, 1.0, "baseline"),
        (0.25, 1.0, "delta"),
        (0.5, 1.0, "delta"),
        (2.0, 1.0, "delta"),
        (4.0, 1.0, "delta"),
        (1.0, 2.0, "lambda"),
    ]
    assert all(r["label"] == "dilation" for r in result.rows)
    assert result.metadata["unresolved_rows"] == 0

    # balanced p=1, q=2 config: the predicted delta slope vanishes and the
    # exact scaling identity pins the measured secant to it
    assert result.metadata["predicted_delta_slope"] == 0.0
    assert abs(result.metadata["delta_secant"]) < 1e-10
    assert abs(result.metadata["delta_fit"]["slope"]) < 1e-10

    lower = result.metadata["predicted_lambda_slope_lower"]
    assert math.isclose(lower, -0.2, abs_tol=1e-12)
    secants = result.metadata["lambda_secants"]
    assert set(secants) == {"2.0"}
    assert secants["2.0"] >= lower


def test_dilation_scan_requires_p_and_q(grid_spec):
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    with pytest.raises(ConfigIncompleteError):
        dilation_scan(cfg, _payload(), [2.0], [], grid_spec)


def test_dilation_scan_rejects_signed_payload(grid_spec):
    signed = piecewise_constant(
        1, 1,
        [
            (((-1.0, 0.0), (-1.0, 1.0)), -1.0),
            (((0.0, 1.0), (-1.0, 1.0)), 1.0),
        ],
    )
    with pytest.raises(PreconditionError):
        dilation_scan(_scan_cfg(), signed, [2.0], [], grid_spec)


# ---------------------------------------------------------------------------
# counterexample growth


def test_growth_scan_critical_defaults(grid_spec):
    result = counterexample_growth(
        1, 1, F(2), F(2), [10.0, 100.0], grid_spec, jobs=JOBS
    )
    assert result.metadata["case"] == "critical"
    assert result.metadata["config"]["alpha"] == "1/2"
    assert result.metadata["config"]["beta"] == "1/2"
    # largest decade is padded to five geometric sample points
    labels = [r["label"] for r in result.rows]
    assert labels.count("growth") == 2
    assert labels.count("decade-fill") == 3
    assert result.rows[0]["R"] == 10.0 and result.rows[-1]["R"] == 100.0
    assert result.metadata["increasing"] is True
    assert len(result.metadata["increments"]) == 4
    assert result.metadata["decade_fit"] is not None
    assert result.metadata["last_increment_fraction"] > 0.0


def test_growth_scan_explicit_exponents_are_noncritical(grid_spec):
    result = counterexample_growth(
        1, 1, F(2), F(2), [10.0, 20.0, 40.0, 80.0], grid_spec,
        alpha=F(9, 10), beta=F(3, 10), jobs=JOBS,
    )
    assert result.metadata["case"] == "noncritical"
    assert all(r["case"] == "noncritical" for r in result.rows)


def test_m2_critical_counterexample_grows_on_the_grid(grid_spec):
    # n = 1, m = 2 on the critical line (beta = m(q-1)/q, alpha = n beta/m)
    # over the box [2,4] x [-R,R]^2
    cfg = ExponentConfig(n=1, m=2, alpha=F(1, 2), beta=F(1), rho=F(2), q=F(2))
    payload = make_signum_atom(1, 2).payload
    (v10, e10), (v100, e100) = [
        lq_mass(cfg, payload, CounterexampleRegion(n=1, m=2, R=r), 2, grid_spec)
        for r in (10.0, 100.0)
    ]
    assert v100 - v10 > e10 + e100


def test_growth_scan_rejects_bad_radii(grid_spec):
    with pytest.raises(PreconditionError):
        counterexample_growth(1, 1, F(2), F(2), [0.0, 10.0], grid_spec)


def test_growth_scan_refuses_radii_too_far_for_the_inner_plans(grid_spec):
    # at R = 1e150 the outer nodes lie so far from the atom that their
    # offsets lose its width; every R from 1e150 on used to read the same F
    with pytest.raises(UsageError, match="too far"):
        counterexample_growth(1, 1, F(2), F(2), [10.0, 1e150], grid_spec)


# ---------------------------------------------------------------------------
# shell decay profile


def test_shell_profile_requires_formula_two(grid_spec):
    critical = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(2), q=F(2))
    with pytest.raises(PreconditionError):
        shell_decay_profile(critical, make_signum_atom(1, 1), 4, 4, grid_spec)


def test_shell_profile_small_scan(grid_spec):
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    result = shell_decay_profile(
        cfg, make_signum_atom(1, 1), k_max=2, l_max=1, spec=grid_spec, jobs=JOBS
    )
    assert result.experiment == "shells"
    shell_rows = [r for r in result.rows if r["label"] == "shell"]
    gap_rows = [r for r in result.rows if r["label"] == "gap"]
    assert len(shell_rows) == 6 and len(gap_rows) == 1
    assert gap_rows[0]["k"] is None and gap_rows[0]["case"] == ""
    cases = {(r["k"], r["l"]): r["case"] for r in shell_rows}
    assert cases[(0, 0)] == "Case1"
    assert cases[(1, 1)] == "Case2"
    assert cases[(1, 0)] == "Case3"
    assert cases[(0, 1)] == "Case4"
    meta = result.metadata
    assert set(meta["aggregated_mass_by_k"]) == {"0", "1", "2"}
    assert meta["total_shell_mass"] > 0.0
    # only 3 k-levels: too few for a burn-in-3 fit, reported not raised
    assert meta["k_fit"] is None
    assert "burn-in" in meta["k_fit_error"]


def test_shell_profile_hands_the_gap_first_and_writes_it_last(grid_spec, monkeypatch):
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    atom = make_signum_atom(1, 1)
    serial = shell_decay_profile(cfg, atom, k_max=2, l_max=1, spec=grid_spec, jobs=1)
    pooled = shell_decay_profile(cfg, atom, k_max=2, l_max=1, spec=grid_spec, jobs=2)
    assert pooled.rows == serial.rows
    assert pooled.to_csv_text() == serial.to_csv_text()
    assert [(r["k"], r["l"], r["label"]) for r in serial.rows] == (
        [(k, l, "shell") for k in range(3) for l in range(2)] + [(None, None, "gap")]
    )

    # the costliest task goes to the pool ahead of the shells
    handed = []
    run_rows = experiments._run_rows

    def recording(worker, tasks, jobs):
        handed.extend(task[2] for task in tasks)
        return run_rows(worker, tasks, jobs)

    monkeypatch.setattr(experiments, "_run_rows", recording)
    recorded = shell_decay_profile(cfg, atom, k_max=2, l_max=1, spec=grid_spec, jobs=1)
    assert len(handed) == 7 and isinstance(handed[0], GapRegion)
    assert not any(isinstance(r, GapRegion) for r in handed[1:])
    assert recorded.rows == serial.rows


def test_importing_the_package_loads_no_pool():
    # the pool's module is imported when a scan starts a pool, so the
    # package and its CLI load without it; --jobs 2 above gives the rows of
    # --jobs 1 through it
    import flagint

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(flagint.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, flagint, flagint.cli; print('concurrent.futures.process' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src_dir}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# frontier map


def test_frontier_map_small_grid(grid_spec):
    result = frontier_map(
        1, 1, F(2), F(2), [F(1, 2), F(9, 10)], [F(1, 2), F(3, 10)],
        grid_spec, jobs=JOBS,
    )
    assert len(result.rows) == 4
    by_cell = {(r["alpha"], r["beta"]): r for r in result.rows}
    # anti-diagonal cells sit on the homogeneity line and use growth
    assert by_cell[(F(1, 2), F(1, 2))]["case"] == "growth"
    assert by_cell[(F(1, 2), F(1, 2))]["label"] == "THEOREM-UNBOUNDED|EMPIRICAL-UNBOUNDED"
    assert by_cell[(F(9, 10), F(3, 10))]["case"] == "growth"
    assert by_cell[(F(9, 10), F(3, 10))]["label"] == "THEOREM-BOUNDED|EMPIRICAL-BOUNDED"
    # off-line cells use the dilation slope, here +/-0.4 exactly
    for cell, slope in [((F(1, 2), F(3, 10)), -0.4), ((F(9, 10), F(1, 2)), 0.4)]:
        row = by_cell[cell]
        assert row["case"] == "delta-slope"
        assert row["label"] == "THEOREM-UNBOUNDED|EMPIRICAL-UNBOUNDED"
        assert math.isclose(row["value"], slope, abs_tol=1e-9)
    confusion = result.metadata["confusion"]
    assert confusion == {
        "bounded|bounded": 1,
        "bounded|unbounded": 0,
        "unbounded|bounded": 0,
        "unbounded|unbounded": 3,
        "unresolved": 0,
    }
    assert result.metadata["off_diagonal"] == 0
    # hidden bookkeeping keys must not leak into the rows
    assert all(not k.startswith("_") for r in result.rows for k in r)


# ---------------------------------------------------------------------------
# domination check


def test_hls_iteration_check_passes(grid_spec):
    cfg = _scan_cfg()
    result = hls_iteration_check(cfg, _payload(), grid_spec)
    (row,) = result.rows
    assert row["label"] == "DOMINATED"
    assert row["left"] <= row["right"] + row["left_err"] + row["right_err"]
    assert row["a"] == F(1, 2) and row["b"] == F(1, 2)
    assert math.isclose(row["value"], row["right"] - row["left"], rel_tol=1e-15)
    doc = result.metadata["report"]
    assert doc["a"] == "1/2" and doc["ok"] is True


def test_hls_pool_rows_match_the_in_process_rows(grid_spec):
    # the flag-kernel and dominating-kernel norms are two tasks of one pool
    serial, pooled = (hls_iteration_check(_scan_cfg(), _payload(), grid_spec, jobs=jobs)
                      for jobs in (1, 2))
    assert serial.to_csv_text() == pooled.to_csv_text()
    assert serial.metadata == pooled.metadata


def test_hls_rejects_unsuitable_inputs(grid_spec):
    bad = ExponentConfig(n=1, m=1, alpha=F(3, 10), beta=F(9, 10), rho=F(2),
                         p=F(1), q=F(2))
    with pytest.raises(PreconditionError):
        hls_iteration_check(bad, _payload(), grid_spec)
    signed = piecewise_constant(
        1, 1,
        [
            (((-1.0, 0.0), (-1.0, 1.0)), -1.0),
            (((0.0, 1.0), (-1.0, 1.0)), 1.0),
        ],
    )
    with pytest.raises(PreconditionError):
        hls_iteration_check(_scan_cfg(), signed, grid_spec)


# ---------------------------------------------------------------------------
# determinism


def test_scans_are_deterministic(grid_spec):
    first = counterexample_growth(1, 1, F(2), F(2), [10.0, 100.0], grid_spec)
    second = counterexample_growth(1, 1, F(2), F(2), [10.0, 100.0], grid_spec)
    assert first.to_csv_text() == second.to_csv_text()
    a = json.loads(first.to_json_text(written_at="x"))
    b = json.loads(second.to_json_text(written_at="x"))
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


# ---------------------------------------------------------------------------
# worker pool size


@pytest.mark.parametrize(
    "jobs, tasks, cpus, expected",
    [
        (10_000, 64, 2, 2),   # a huge --jobs never exceeds the cores
        (10_000, 3, 64, 3),   # nor the rows
        (2, 64, 2, 2),
        (1, 64, 8, 1),
        (4, 1, 8, 1),
        (4, 0, 8, 1),         # no rows: one in-process worker, no pool
        (4, 10, None, 1),     # core count unknown: run serially
    ],
)
def test_pool_size_clamps_jobs(jobs, tasks, cpus, expected):
    # the pure clamp only; no pool is started
    assert experiments._pool_size(jobs, tasks, cpus) == expected
