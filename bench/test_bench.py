"""Smoke tests for the benchmark, on tiny inputs.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import record_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from child import run_queries  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# a pool scan of 7 rows that takes about a second
TINY_SHELLS = ["shells", "--k-max", "2", "--l-max", "1", "--inner-cutoff", "-6"]
TINY_HLS = run.Workload("tiny-hls", ("hls", "--inner-cutoff", "-8"), key=("label",))


def test_cap_jobs_never_exceeds_the_cores():
    assert run.cap_jobs(10_000, 2) == 2
    assert run.cap_jobs(2, 64) == 2
    assert run.cap_jobs(0, 8) == 1
    assert run.cap_jobs(4, None) == 1


def test_workloads_pass_no_more_jobs_than_cores(tmp_path):
    for wl in run.WORKLOADS.values():
        argv = wl.cli_argv(tmp_path)
        if "--jobs" in argv:
            assert int(argv[argv.index("--jobs") + 1]) <= (os.cpu_count() or 1)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def _traced_cli(argv, out):
    import flagint.cli

    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.cli.main(argv + ["--out", str(out)])
    assert tracer.missing == []
    return tracing.layer_metrics(tracer.spans)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import flagint.experiments
    import flagint.quadrature

    before = (flagint.experiments.lq_mass, flagint.experiments._run_rows,
              flagint.quadrature.TestFunction.evaluate)
    _traced_cli(TINY_SHELLS + ["--jobs", "2"], tmp_path)
    assert tracing.leftover_wrappers() == []
    after = (flagint.experiments.lq_mass, flagint.experiments._run_rows,
             flagint.quadrature.TestFunction.evaluate)
    assert all(a is b for a, b in zip(before, after))

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert tracing.leftover_wrappers() != []
            raise RuntimeError("fails inside the traced run")
    assert tracing.leftover_wrappers() == []


def test_counts_do_not_depend_on_scheduling(tmp_path):
    runs = [_traced_cli(TINY_SHELLS + ["--jobs", jobs], tmp_path / jobs)
            for jobs in ("1", "2", "2")]
    for name in ("quadrature.payload.nodes", "quadrature.payload.calls",
                 "domain.boxes", "experiments.rows"):
        assert runs[0][name] == runs[1][name] == runs[2][name] > 0, name
    # the scan's 6 shell rows ran as pool rows; the gap row is serial
    assert runs[1]["experiments.row_busy_s"] > 0
    assert runs[1]["experiments.serial_tail_s"] > 0


def test_apply_client_matches_the_reference():
    pool = run.load_reference()["apply_pool"]
    picks = [next(i for i, p in enumerate(pool) if p["class"] == cls)
             for cls in run.POINT_CLASSES]
    tracer = tracing.Tracer()
    with tracer.installed():
        results, latencies = run_queries([(pool[i]["x"], pool[i]["y"]) for i in picks])
    for i, (value, err) in zip(picks, results):
        assert abs(value - pool[i]["value"]) <= err
    assert len(latencies) == 3
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.apply.calls"] == 3
    assert metrics["kernel.calls"] == 0


def test_p50_takes_each_request_at_its_fastest_send():
    def iteration(latencies_s):
        return run.Iteration(run.Proc(0, sum(latencies_s), 40.0), len(latencies_s), 0,
                             [1e-4], latencies_s)

    its = [iteration([0.010, 0.030, 0.050]), iteration([0.020, 0.020, 0.090])]
    metrics = run.end_to_end([0.3], its)
    assert metrics["latency_p50_ms"] == pytest.approx(20.0)  # of 10, 20, 50
    assert metrics["latency_p95_ms"] > 50.0                  # over all six sends


def test_apply_queries_come_from_the_seed():
    pool = run.load_reference()["apply_pool"]
    picks = run.apply_queries(7, pool)
    assert picks == run.apply_queries(7, pool)
    assert picks != run.apply_queries(8, pool)
    assert len(set(picks)) == run.APPLY_QUERIES
    counts = {cls: sum(pool[i]["class"] == cls for i in picks) for cls in run.POINT_CLASSES}
    assert set(counts.values()) == {run.APPLY_QUERIES // 3}


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_reports_every_metric(trace):
    reference = {"rows": {TINY_HLS.name: record_reference.cli_rows(TINY_HLS)}}
    result = run.run_workload(TINY_HLS, 0, 0.0, trace, reference)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2 ** trace
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
