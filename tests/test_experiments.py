"""Experiment drivers: scans, fits, result containers, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from flagint import experiments
from flagint import (
    AccuracyError,
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


def _python(script: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter with this checkout's package."""
    import flagint

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(flagint.__file__)))
    return subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src_dir},
        capture_output=True, text=True, timeout=timeout,
    )


# the modules a pool could bring in; a pooled scan imports only `select`
# and `signal`, and only once it forks
_POOL_MODULES = ("concurrent.futures", "multiprocessing", "select", "signal")


def test_importing_the_package_loads_no_pool(tmp_path):
    # nor numpy: the package, --help, a bad flag, an unknown config key and
    # a spec the CLI refuses all return before the engine loads; a run loads it
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps({"samples": 100}))
    boundary = [["shells", "--help"], ["shells", "--k-max", "x"],
                ["shells", "--config", str(cfg)], ["shells", "--points-per-axis", "100"]]
    loaded = f"print([m for m in {_POOL_MODULES + ('numpy',)!r} if m in sys.modules])\n"
    proc = _python(
        "import contextlib, io, sys, flagint, flagint.cli\n"
        + loaded
        + f"for argv in {boundary!r}:\n"
        "    with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "        flagint.cli.main(argv)\n"
        "    " + loaded
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    flagint.cli.main(['apply', '--x', '3', '--y', '3', '--out', {str(tmp_path)!r}])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 5 + ["True"]
    assert (tmp_path / "apply-0.csv").exists()

    # a pooled scan forks its workers itself: no executor module is loaded
    proc = _python(
        "import os, sys, flagint.cli\n"
        "os.cpu_count = lambda: 2\n"
        "flagint.cli.main(['shells', '--k-max', '1', '--l-max', '1', '--jobs', '2',\n"
        f"                  '--out', {str(tmp_path)!r}])\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'select')\n"
        "       if m in sys.modules])\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['select']"
    assert (tmp_path / "shells-0.csv").exists()


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


def test_pool_size_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert experiments._pool_size(4, 10, 8) == 1


# ---------------------------------------------------------------------------
# the forked workers of _run_rows


@pytest.fixture
def two_cores(monkeypatch):
    # two workers on any host, so the pooled path is the one under test
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _where(task):
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
    return task, os.getpid(), fds


def test_pool_tasks_run_in_forked_workers(two_cores):
    out = experiments._run_rows(_where, list(range(8)), 2)
    assert [task for task, _, _ in out] == list(range(8))
    pids = {pid for _, pid, _ in out}
    assert 1 <= len(pids) <= 2 and os.getpid() not in pids
    # the second worker closed the first one's pipe ends, so both hold as many
    assert len({fds for _, _, fds in out}) == 1
    # replies larger than a pipe's buffer arrive whole
    assert experiments._run_rows(bytes, [300_000, 5, 200_000], 2) == [
        bytes(300_000), bytes(5), bytes(200_000)]
    _assert_all_reaped()


def _failing(task):
    index, failing, directory = task
    (directory / str(index)).touch()
    if len(failing) > 1 and index == failing[0]:
        time.sleep(0.2)  # the lower failure comes back last
    if index in failing:
        raise AccuracyError(f"task {index} missed its target", value=index, err=index / 8)
    return index


@pytest.mark.parametrize("failing", [(5,), (2, 3)])
def test_pool_raises_the_failure_that_runs_in_process_raises(two_cores, tmp_path, failing):
    raised = []
    for jobs in (1, 2):
        ran = tmp_path / str(jobs)
        ran.mkdir()
        tasks = [(i, failing, ran) for i in range(10)]
        with pytest.raises(AccuracyError) as info:
            experiments._run_rows(_failing, tasks, jobs)
        raised.append(info.value)
        _assert_all_reaped()
    serial, pooled = raised
    assert type(pooled) is type(serial)
    assert (str(pooled), pooled.value, pooled.err) == (str(serial), serial.value, serial.err)
    assert str(serial) == f"task {failing[0]} missed its target"
    assert "AccuracyError" in pooled.__notes__[-1] and "in pool worker" in pooled.__notes__[-1]
    if len(failing) > 1:
        # nothing is sent after task 3 fails, while task 2 is still running
        assert sorted(int(p.name) for p in (tmp_path / "2").iterdir()) == [0, 1, 2, 3]


def test_pool_reports_a_dead_worker_and_kills_on_interrupt():
    # in a fresh interpreter, with a timeout: a hung dispatcher fails the test
    proc = _python(
        "import os, signal, sys, time\n"
        "from flagint import experiments\n"
        "os.cpu_count = lambda: 2\n"
        "def reaped():\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        return True\n"
        "    return False\n"
        "def die(task):\n"
        "    if task == 3:\n"
        "        os._exit(7)\n"
        "    return task\n"
        "try:\n"
        "    experiments._run_rows(die, list(range(10)), 2)\n"
        "except RuntimeError as exc:\n"
        "    print(exc, reaped())\n"
        "def interrupt(task):\n"
        "    if task == 0:\n"
        "        os.kill(os.getppid(), signal.SIGINT)\n"
        "    time.sleep(60)\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    experiments._run_rows(interrupt, list(range(4)), 2)\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted', reaped(), time.perf_counter() - start < 30)\n"
        "print(os.getpid())\n",
        timeout=50,
    )
    assert proc.returncode == 0, proc.stderr
    died, interrupted, parent = proc.stdout.splitlines()
    match = re.fullmatch(r"pool worker (\d+) exited with status 7 during task 3 True", died)
    assert match and match.group(1) != parent
    assert interrupted == "interrupted True True"


def test_buffered_stdout_is_written_once_around_a_pool():
    # stdout is a pipe here, so the line is still in the buffer at the fork;
    # the workers leave without flushing it
    proc = _python(
        "import os\n"
        "from flagint import experiments\n"
        "os.cpu_count = lambda: 2\n"
        "print('before the pool')\n"
        "print(experiments._run_rows(abs, [-1, -2, -3], 2))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["before the pool", "[1, 2, 3]"]


# ---------------------------------------------------------------------------
# pool tasks


def _scan_runs(spec):
    """Each scan by name, as a function of jobs, at a size that runs in seconds."""
    frontier_grid = ([F(1, 2), F(9, 10)], [F(3, 10), F(1, 2)])
    return {
        # a p-norm target the bump's rule cannot meet: every row is UNRESOLVED
        "dilate": lambda jobs: dilation_scan(
            _scan_cfg(), smooth_bump(1, 1), [1.0, 2.0], [2.0],
            replace(spec, target_rel_error=1e-6), jobs=jobs),
        "counterexample": lambda jobs: counterexample_growth(
            1, 1, F(2), F(2), [10.0, 100.0], spec, jobs=jobs),
        # two cells on the homogeneity line, two off it
        "frontier": lambda jobs: frontier_map(1, 1, F(2), F(2), *frontier_grid, spec,
                                              jobs=jobs),
        "shells": lambda jobs: shell_decay_profile(
            ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2)),
            make_signum_atom(1, 1), k_max=1, l_max=1, spec=spec, jobs=jobs),
        "hls": lambda jobs: hls_iteration_check(_scan_cfg(), _payload(), spec, jobs=jobs),
    }


# shells has its own test above, which also checks the order of its tasks
@pytest.mark.parametrize("name", ["dilate", "counterexample", "frontier", "hls"])
def test_pool_rows_match_the_in_process_rows(grid_spec, name):
    serial, pooled = (_scan_runs(grid_spec)[name](jobs) for jobs in (1, 2))
    assert serial.to_csv_text() == pooled.to_csv_text()
    assert serial.metadata == pooled.metadata
    # only the CLI times a run
    assert serial.wall_time_s == pooled.wall_time_s == 0.0
    if name == "dilate":
        assert serial.metadata["unresolved_rows"] == len(serial.rows) == 3
        assert {r["label"] for r in serial.rows} == {"UNRESOLVED"}
    if name == "frontier":
        assert sorted(r["case"] for r in serial.rows) == ["delta-slope"] * 2 + ["growth"] * 2


def test_every_scan_hands_the_pool_mass_tasks(grid_spec, monkeypatch):
    handed = []
    run_rows = experiments._run_rows

    def recording(worker, tasks, jobs):
        handed.append(worker)
        return run_rows(worker, tasks, jobs)

    monkeypatch.setattr(experiments, "_run_rows", recording)
    for name, scan in _scan_runs(grid_spec).items():
        handed.clear()
        scan(1)
        assert handed == [experiments._mass], name
