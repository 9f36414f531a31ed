"""Record bench/reference.json: the rows every benchmark iteration is checked against.

    python3 bench/record_reference.py

Runs each CLI workload once at seed 0 and keeps its rows (key columns,
value, err). For apply-points it draws a fixed pool of query points, a
third in each class, and keeps each point's value and err; a run's seed
picks its queries from this pool. Re-record only when a change to the
program is meant to move values, and say so where the change is described.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import random
import sys

import run

POOL_SEED = 0
POOL_PER_CLASS = 300


def _point(cls: str, rng: random.Random):
    """A query point of one class; the payload is supported on [-1, 1]^2."""
    if cls == "exterior":
        while True:
            x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            if max(abs(x), abs(y)) > 1.0:
                return x, y
    if cls == "near-line":
        return rng.uniform(-0.01, 0.01), rng.uniform(-1.0, 1.0)
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 1.0), rng.uniform(-1.0, 1.0)


def pool_points():
    rng = random.Random(POOL_SEED)
    return [(cls, *_point(cls, rng)) for cls in run.POINT_CLASSES
            for _ in range(POOL_PER_CLASS)]


def cli_rows(wl: run.Workload):
    with run.work_dir("record") as work:
        proc = run.run_process(
            [sys.executable, "-m", "flagint.cli", *wl.cli_argv(work / "out")],
            work, timeout=600.0)
        if proc.status != 0:
            raise SystemExit(f"{wl.name} exited {proc.status}")
        with open(work / "out" / f"{wl.argv[0]}-0.csv", encoding="utf-8", newline="") as fh:
            return [
                {**{k: r[k] for k in wl.key}, "value": float(r["value"]),
                 "err": float(r["err"])}
                for r in csv.DictReader(fh)
            ]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy

    from child import run_queries

    points = pool_points()
    results, _ = run_queries([(x, y) for _, x, y in points])
    if any(r is None for r in results):
        raise SystemExit("a pool point did not resolve")
    reference = {
        "recorded": {
            "seed": 0,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
        },
        "rows": {wl.name: cli_rows(wl) for wl in run.WORKLOADS.values() if wl.argv},
        "apply_pool": [
            {"class": cls, "x": x, "y": y, "value": value, "err": err}
            for (cls, x, y), (value, err) in zip(points, results)
        ],
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
