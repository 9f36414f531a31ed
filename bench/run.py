"""Benchmark for flagint: two workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all   # every workload, one table

Run from the repository root; the program is imported from `src`. Each
iteration of a workload is a fresh process: `python -m flagint.cli ...` for
the CLI workloads, or the apply-points client in `bench/child.py`. A run
repeats iterations while the next one is expected to end within `--seconds`
(the first always runs) and reports medians; `end_to_end` says how the
latency percentiles are taken.

With `--trace 0` a run reports the end-to-end metrics. With `--trace 1` it
alternates an untraced and a traced iteration and reports the per-layer
metrics (see `tracing.py`) plus `trace_overhead_frac`. Every iteration's
rows are checked against `bench/reference.json`, recorded at seed 0.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). The lines before it print every metric by
name with its unit, and failed_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

SETUP_REPS = 10       # set-up probes per run, half before and half after the
                      # iterations; setup_s is their median
DEADLINE_S = 165.0    # per workload: no iteration starts that could end after this
APPLY_QUERIES = 300   # apply-points queries per iteration, a third per class
POINT_CLASSES = ("exterior", "near-line", "interior")


def cap_jobs(requested: int, cpu_count: Optional[int]) -> int:
    """The --jobs to pass: never more workers than the machine has cores."""
    return max(1, min(requested, cpu_count or 1))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...] = ()  # CLI arguments; empty for the library client
    jobs: Optional[int] = None  # --jobs before capping; None passes none
    key: Tuple[str, ...] = ()   # CSV columns that identify a row

    def cli_argv(self, out_dir: Path) -> List[str]:
        argv = [*self.argv, "--out", str(out_dir)]
        if self.jobs is not None:
            argv += ["--jobs", str(cap_jobs(self.jobs, os.cpu_count()))]
        return argv


# Why each workload is in the set is recorded in BENCHMARK.json. The CLI
# workloads have fixed inputs; the seed picks apply-points' query points.
# Two candidates are left out. `hls --method monte-carlo --samples 4096`: on a
# 2-vCPU machine its wall time spread 0.09-0.25 (IQR/median) over ten runs,
# against a largest allowed bound of 0.25. `dilate --deltas 1,2 --lams 1`:
# each of its iterations takes 13 s, and with three workloads the time for
# all runs allowed only about 32 s per run, too short to steady apply-points
# on a host whose speed swings by 20% within a minute. Every layer it
# measures is also measured by shells-atom (lq_mass, the pool) or by
# apply-points (the grid inner pass on the smooth bump).
WORKLOADS = {w.name: w for w in (
    Workload("shells-atom", ("shells",), jobs=2, key=("k", "l", "label")),
    Workload("apply-points"),
)}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    status: int
    wall_s: float
    peak_rss_mb: float


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a process group and wait, at most 2 s, until it is gone."""
    _kill_group(pgid)
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(argv: List[str], log_dir: Path, timeout: float) -> Proc:
    """Run argv to completion in its own process group; time it from spawn.

    Peak RSS comes from wait4, so it covers the process and every child it
    waited for (the pool workers).
    """
    env = dict(os.environ)
    env.pop("FLAGINT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
    timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
        _reap_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under OUT for one process's logs and outputs."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _stderr_tail(log_dir: Path) -> str:
    text = (log_dir / "stderr").read_text(encoding="utf-8", errors="replace")
    return text[-2000:]


def _read_report(wl: Workload, work: Path) -> Dict:
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    if report.get("missing"):
        print(f"{wl.name}: not traced: {', '.join(report['missing'])}", file=sys.stderr)
    return report


# ---------------------------------------------------------------------------
# iterations


@dataclass
class Iteration:
    proc: Proc
    attempted: int
    failed: int
    err_rel: List[float]
    latencies_s: List[float]
    artifact_bytes: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _score(results) -> Tuple[int, List[float]]:
    """Failures and err/|value| over (value and err, or None; reference row) pairs.

    A row fails if it is missing, unresolved, has no reference, or moved from
    its reference value by more than its own err.
    """
    failed, err_rel = 0, []
    for got, ref in results:
        if got is None or ref is None:
            failed += 1
            continue
        value, err = got
        failed += not (math.isfinite(value) and math.isfinite(err)
                       and abs(value - ref["value"]) <= err)
        err_rel.append(err / abs(value))
    return failed, err_rel


def _cli_iteration(wl: Workload, seed: int, traced: bool, reference: Dict,
                   work: Path, timeout: float) -> Iteration:
    out_dir = work / "out"
    argv = wl.cli_argv(out_dir)
    if traced:
        cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(work / "report.json"),
               "--", *argv]
    else:
        cmd = [sys.executable, "-m", "flagint.cli", *argv]
    proc = run_process(cmd, work, timeout)

    ref_rows = {tuple(r[k] for k in wl.key): r for r in reference["rows"][wl.name]}
    csv_path = out_dir / f"{wl.argv[0]}-0.csv"
    rows = {}
    if proc.status == 0 and csv_path.is_file():
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = {tuple(r[k] for k in wl.key): r for r in csv.DictReader(fh)}
    else:
        print(f"{wl.name}: exit {proc.status}\n{_stderr_tail(work)}", file=sys.stderr)
    def parsed(row):
        if row is None or row["label"] == "UNRESOLVED":
            return None
        return float(row["value"]), float(row["err"])

    keys = set(ref_rows) | set(rows)
    failed, err_rel = _score([(parsed(rows.get(k)), ref_rows.get(k)) for k in keys])
    it = Iteration(proc, len(keys), failed, err_rel, [proc.wall_s],
                   artifact_bytes=sum(p.stat().st_size for p in out_dir.glob("*")))
    if traced and proc.status == 0:
        report = _read_report(wl, work)
        it.layers, it.spans = report["metrics"], report["spans"]
    return it


def apply_queries(seed: int, pool: List[Dict]) -> List[int]:
    """Pool indices for one seed: a third of the queries from each class, shuffled."""
    rng = random.Random(seed)
    picks = []
    for cls in POINT_CLASSES:
        members = [i for i, p in enumerate(pool) if p["class"] == cls]
        picks += rng.sample(members, APPLY_QUERIES // len(POINT_CLASSES))
    rng.shuffle(picks)
    return picks


def _apply_iteration(wl: Workload, seed: int, traced: bool, reference: Dict,
                     work: Path, timeout: float) -> Iteration:
    pool = reference["apply_pool"]
    picks = apply_queries(seed, pool)
    queries = work / "queries.json"
    queries.write_text(json.dumps([[pool[i]["x"], pool[i]["y"]] for i in picks]))
    cmd = [sys.executable, str(BENCH / "child.py"), "apply", str(queries),
           str(work / "report.json")] + (["--trace"] if traced else [])
    proc = run_process(cmd, work, timeout)
    if proc.status != 0:
        print(f"{wl.name}: exit {proc.status}\n{_stderr_tail(work)}", file=sys.stderr)
        return Iteration(proc, len(picks), len(picks), [], [])
    report = _read_report(wl, work)
    failed, err_rel = _score(zip(report["results"], (pool[i] for i in picks)))
    return Iteration(proc, len(picks), failed, err_rel, report["latency_s"],
                     layers=report.get("metrics", {}), spans=report.get("spans", []))


def run_iteration(wl: Workload, seed: int, traced: bool, reference: Dict,
                  timeout: float) -> Iteration:
    with work_dir(wl.name) as work:
        step = _cli_iteration if wl.argv else _apply_iteration
        return step(wl, seed, traced, reference, work, timeout)


def setup_probe(wl: Workload, timeout: float) -> float:
    """Fresh interpreter to flagint.cli imported and the workload's arguments parsed."""
    with work_dir("setup") as work:
        argv = list(wl.argv) if wl.argv else ["apply"]
        proc = run_process([sys.executable, "-m", "flagint.cli", *argv, "--help"],
                           work, timeout)
        if proc.status != 0:
            raise RuntimeError(f"set-up probe failed:\n{_stderr_tail(work)}")
        return proc.wall_s


# ---------------------------------------------------------------------------
# metrics


def _p95(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def end_to_end(setup: List[float], its: List[Iteration]) -> Dict[str, float]:
    """Every request is one CLI invocation, or one apply-points query.

    Every iteration sends the same requests in the same order. p50 is taken
    over the distinct requests, each at its fastest send in the run; p95 is
    taken over every send, so it keeps the tail a client sees. On a shared
    host whose speed swings by a third for seconds at a time, the p50 of all
    sends falls between the slow and the fast sends and moves with the share
    of the run the host was slow; a request's fastest send does not.
    """
    fastest = [min(sends) * 1e3 for sends in zip(*(it.latencies_s for it in its))]
    sends = [s * 1e3 for it in its for s in it.latencies_s]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(it.proc.wall_s for it in its),
        "latency_p50_ms": statistics.median(fastest),
        "latency_p95_ms": _p95(sends),
        "peak_rss_mb": max(it.proc.peak_rss_mb for it in its),
        "err_rel_max": max(r for it in its for r in it.err_rel),
    }


def per_layer(untraced: List[Iteration], traced: List[Iteration]) -> Dict[str, float]:
    # median_low reports a value one iteration measured, so counts stay whole
    out = {name: statistics.median_low(it.layers[name] for it in traced)
           for name in traced[0].layers}
    out["cli.artifact_bytes"] = statistics.median_low(it.artifact_bytes for it in untraced)
    plain = statistics.median(it.proc.wall_s for it in untraced)
    with_trace = statistics.median(it.proc.wall_s for it in traced)
    out["trace_overhead_frac"] = (with_trace - plain) / plain
    return out


# ---------------------------------------------------------------------------
# runs


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def load_spec() -> Dict:
    """BENCHMARK.json: the metric names and units a run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 reference: Dict) -> Dict:
    deadline = time.perf_counter() + DEADLINE_S

    def left() -> float:
        return deadline - time.perf_counter()

    def probes(count: int) -> List[float]:
        return [] if trace else [setup_probe(wl, left()) for _ in range(count)]

    setup_probe(wl, left())  # untimed: compiles bytecode, warms the file cache
    setup = probes(SETUP_REPS // 2)
    untraced: List[Iteration] = []
    traced: List[Iteration] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_iteration(wl, seed, False, reference, left()))
        if trace:
            traced.append(run_iteration(wl, seed, True, reference, left()))
        took = time.perf_counter() - t0
        # the next iteration is expected to take as long as this one
        if time.perf_counter() - start + took > seconds or 1.5 * took > left():
            break
    setup += probes(SETUP_REPS - SETUP_REPS // 2)

    its = untraced + traced
    failed = sum(it.failed for it in its)
    ok = failed == 0 and all(it.proc.status == 0 for it in its)
    result = {"correct": ok, "attempted": sum(it.attempted for it in its),
              "failed": failed, "iterations": len(untraced), "metrics": {}}
    if ok:
        if trace:
            values = per_layer(untraced, traced)
            _write_trace(wl, seed, traced[-1])
        else:
            values = end_to_end(setup, untraced)
        result["metrics"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in load_spec()["per_layer" if trace else "end_to_end"]
        }
    return result


def _write_trace(wl: Workload, seed: int, it: Iteration) -> None:
    path = OUT / f"trace-{wl.name}-{seed}.json"
    fields = ["group", "work_kind", "work", "start", "end", "parent"]
    path.write_text(json.dumps({"fields": fields, "spans": it.spans}))


def _print_table(name: str, result: Dict) -> None:
    frac = result["failed"] / result["attempted"]
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={frac:g} "
          f"iterations={result['iterations']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the child's process group is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "flagint" / "cli.py").is_file():
        print(f"no flagint sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    reference = load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), reference)
        _print_table(name, results[name])

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
