"""One benchmark iteration in its own process; run.py starts it.

    python bench/child.py cli REPORT -- ARGV...      traced `flagint.cli.main(ARGV)`
    python bench/child.py apply QUERIES REPORT [--trace]

`cli` is the traced form of a CLI workload (the untraced form is plain
`python -m flagint.cli`). `apply` is the apply-points client: it sends the
queries in QUERIES to `apply_operator` one after another and records each
result and its latency. REPORT receives a JSON object; with tracing it
holds the per-layer metrics and the spans. `src` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from tracing import Tracer, layer_metrics

# apply-points: a smooth bump and alpha = beta = 1/2, resolved to 2^-40
APPLY_ALPHA = Fraction(1, 2)
APPLY_BETA = Fraction(1, 2)
APPLY_INNER_CUTOFF = -40


def run_queries(points):
    """Closed loop over `points`; returns ([value, err] or None per query, latencies)."""
    import flagint

    cfg = flagint.ExponentConfig(n=1, m=1, alpha=APPLY_ALPHA, beta=APPLY_BETA,
                                 rho=Fraction(2))
    payload = flagint.smooth_bump(1, 1, (0.0, 0.0), 1.0, 1.0)
    spec = flagint.QuadratureSpec(inner_cutoff=APPLY_INNER_CUTOFF)
    results, latencies = [], []
    for x, y in points:
        t0 = time.perf_counter()
        try:
            value, err = flagint.apply_operator(cfg, payload, flagint.point_pair([x], [y]), spec)
            results.append([value, err])
        except flagint.AccuracyError:
            results.append(None)
        latencies.append(time.perf_counter() - t0)
    return results, latencies


def _traced(fn, *args):
    tracer = Tracer()
    with tracer.installed():
        out = fn(*args)
    report = {"metrics": layer_metrics(tracer.spans), "spans": tracer.spans,
              "missing": tracer.missing}
    return out, report


def main(argv) -> int:
    mode = argv[0]
    if mode == "cli":
        import flagint.cli

        report_path, cli_argv = argv[1], argv[3:]
        status, report = _traced(lambda: flagint.cli.main(cli_argv))
        report["status"] = status
    elif mode == "apply":
        queries_path, report_path = argv[1], argv[2]
        with open(queries_path, encoding="utf-8") as fh:
            points = json.load(fh)
        if "--trace" in argv[3:]:
            (results, latencies), report = _traced(run_queries, points)
        else:
            (results, latencies), report = run_queries(points), {}
        report.update(results=results, latency_s=latencies)
        status = 0
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
