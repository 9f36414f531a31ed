"""Time the stages of one grid apply query, for one point of each class.

    PYTHONPATH=src python3 tools/pass_cost.py [--repeat N]

Takes the first exterior, near-line and interior point of the apply pool in
`bench/reference.json` (read, never written) and the settings of the
benchmark's apply-points client: the bump of radius 1 at the origin,
alpha = beta = 1/2, rho = 2, inner cutoff -40. Each of N rounds times every
stage below once, in turn, so that drift in the machine's speed reaches
them alike. For each point it prints each stage's median, in microseconds:

- `_axis_breaks`: the cells of both axes, each call with a cleared cache, as
  a query at a new point builds them;
- `_inner_runs`: the runs of both orders, with the cells cached;
- `_blocks`: the blocks of both orders;
- `_block_values`: every block of both orders;
- `apply`: the whole `apply_operator` call, with a cleared cache;
- `glue`: what `apply` spends outside the four stages above.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference.json"
CLASSES = ("exterior", "near-line", "interior")


def _stages(x: float, y: float, repeat: int) -> dict:
    import flagint
    from flagint import quadrature
    from flagint.kernel import flag_kernel

    cfg = flagint.ExponentConfig(n=1, m=1, alpha=Fraction(1, 2), beta=Fraction(1, 2),
                                 rho=Fraction(2))
    f = flagint.smooth_bump(1, 1, (0.0, 0.0), 1.0, 1.0)
    spec = flagint.QuadratureSpec(inner_cutoff=-40)
    kernel, pt, outer = flag_kernel(cfg), flagint.point_pair([x], [y]), [[x], [y]]
    g = spec.points_per_axis
    clear = quadrature._axis_breaks.cache_clear

    def breaks():
        for i, z in enumerate((x, y)):
            quadrature._axis_breaks(*f.support[i], z, quadrature._resolved(f, spec, i),
                                    *quadrature._payload_grading(f, i))

    def inner_runs():
        return quadrature._inner_runs(f, outer, spec, (g, g - 1))

    def blocks():
        return [list(itertools.product(*quadrature._blocks(axes))) for axes in runs]

    def block_values():
        for per_order in per_block:
            for block in per_order:
                quadrature._block_values(kernel, f.payload_table, block)

    def apply():
        try:
            flagint.apply_operator(cfg, f, pt, spec)
        except flagint.AccuracyError:
            pass

    runs = inner_runs()[0]
    per_block = blocks()
    # per stage, its set-up and its timed call
    stages = {"_axis_breaks": (clear, breaks), "_inner_runs": (breaks, inner_runs),
              "_blocks": (None, blocks), "_block_values": (None, block_values),
              "apply": (clear, apply)}
    times = {name: [] for name in stages}
    for _ in range(repeat):
        for name, (setup, call) in stages.items():
            if setup is not None:
                setup()
            t0 = time.perf_counter()
            call()
            times[name].append(1e6 * (time.perf_counter() - t0))
    times["glue"] = [t[-1] - sum(t[:-1]) for t in zip(*times.values())]
    return {name: statistics.median(t) for name, t in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=2000, help="timed rounds")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    pool = json.loads(REFERENCE.read_text(encoding="utf-8"))["apply_pool"]
    for cls in CLASSES:
        q = next(q for q in pool if q["class"] == cls)
        times = _stages(q["x"], q["y"], args.repeat)
        print(f"{cls:9} (x={q['x']:.4g}, y={q['y']:.4g}) "
              + " ".join(f"{name}={us:.1f}" for name, us in times.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
