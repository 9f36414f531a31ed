"""Fingerprint the program's outputs, to show that a change leaves every bit alone.

    PYTHONPATH=src python3 tools/fingerprint.py > after.txt

Run it once in a checkout of the parent commit and once in the change, each
with that checkout's `src` on PYTHONPATH, and `diff` the two outputs: an
empty diff means every case below gave the same bytes.

Cases: the nine criterion-10 reruns of `tests/test_acceptance.py`, fourteen
larger CLI runs, `--help` of the program and of every subcommand, and the
900-point apply pool of `bench/reference.json` (read, never written), one
line for payloads moved by translate, dilate and scale_values, one for the
inner axis plans, and one for the breakpoints of random axes.
Each CLI case prints one line: the case name, the exit status, and the SHA-256 of the
CSV bytes, of the JSON sidecar without its `timestamp` block (with the output
directory masked), and of stdout. The apply-pool line also counts the
queries whose value and err equal the reference bit for bit, and gives the
largest |value - reference value| / reference err and |err - reference err|
/ reference err over the pool, so that a change of algorithm shows its size.
The payload line hashes the support, sup_bound() and the bytes of evaluate
on a fixed grid, for a bump and a random (2, 1) atom after each move. The
plans line hashes the offsets, weights and core flags of the bump's inner
plans of orders 4 and 3, at an interior centre, a support-edge centre and an
outside centre, each at cutoffs -20, -40 and -56. The breaks line hashes the
cuts and breaks of `_axis_breaks` over 2,000 seeded random axes: centres
inside, on the ends of and up to two sides outside the interval, finest cells
down to 2^-300 of the side, payload edges including -0.0, and wide cells cut
everywhere, within part of the interval or not at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference.json"

# the argv lists of criterion 10 (tests/test_acceptance.py, _RERUN_CASES)
_CRITERION_10 = (
    ("check", ["check", "--alpha", "9/10", "--beta", "3/10", "--q", "2"]),
    ("kernel", ["kernel", "--x", "2", "--y", "3"]),
    ("apply", ["apply", "--x", "10", "--y", "0"]),
    ("atom-validate", ["atom-validate"]),
    ("shells", ["shells", "--k-max", "2", "--l-max", "1", "--jobs", "1"]),
    ("dilate", ["dilate", "--payload", "indicator", "--deltas", "0.5,2",
                "--lams", "2", "--jobs", "1"]),
    ("counterexample", ["counterexample", "--radii", "10,20", "--jobs", "1"]),
    ("frontier", ["frontier", "--alphas", "1/2", "--betas", "3/10", "--jobs", "1"]),
    ("hls", ["hls"]),
)

_LARGER = (
    ("shells-default", ["shells", "--jobs", "2"]),
    ("apply-interior", ["apply", "--x", "0.5", "--y", "0.25"]),
    ("dilate-bump", ["dilate", "--deltas", "1,2", "--lams", "1", "--jobs", "2"]),
    # a p-norm target the bump's rule cannot meet: UNRESOLVED rows, exit status 1
    ("dilate-unresolved", ["dilate", "--deltas", "1,2", "--lams", "1,2",
                           "--target-rel-error", "1e-6", "--jobs", "2"]),
    ("frontier-2x2", ["frontier", "--alphas", "1/2,9/10", "--betas", "3/10,1/2",
                      "--jobs", "2"]),
    ("hls-bump", ["hls", "--payload", "bump"]),
    # the two q-norms of hls in the main process; at the default --jobs they are pool rows
    ("hls-jobs1", ["hls", "--jobs", "1"]),
    # a resolved bump query whose u core is excluded, and an n = 2 query
    ("apply-bump-core", ["apply", "--x", "0.5", "--y", "0.25", "--inner-cutoff", "-40",
                         "--payload", "bump"]),
    ("apply-n2", ["apply", "--n", "2", "--x", "0.5,0.25", "--y", "0.3"]),
    # the counterexample at m = 2: one box [2,4] x [-R,R]^2 per radius
    ("counterexample-m2-grid", ["counterexample", "--m", "2", "--radii", "10,100",
                                "--jobs", "2"]),
    # piecewise-constant payloads of one cell and of four cells
    ("shells-indicator", ["shells", "--payload", "indicator", "--jobs", "2"]),
    # a payload whose outer plans split wide cells, on every shell and the gap
    ("shells-bump", ["shells", "--payload", "bump", "--jobs", "2"]),
    ("apply-random-atom", ["apply", "--payload", "random-atom", "--x", "2", "--y", "3"]),
    # an indicator box given as a --box string, at a point inside it
    ("apply-box", ["apply", "--box", "0.25:1, -0.5:0.75", "--x", "0.5", "--y", "0.25",
                   "--inner-cutoff", "-40"]),
)

# the apply-points client of the benchmark (bench/child.py)
_APPLY_ALPHA = Fraction(1, 2)
_APPLY_BETA = Fraction(1, 2)
_APPLY_INNER_CUTOFF = -40


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv, out_dir=None):
    """(exit status, stdout) of one in-process CLI run."""
    from flagint import cli

    if out_dir is not None:
        argv = argv + ["--out", str(out_dir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # --help exits through argparse
            status = exc.code
    return status, stdout.getvalue().encode()


def _cli_line(name, argv, tmp):
    out = Path(tmp) / name
    status, stdout = _run_cli(argv, out)
    (csv_path,) = out.glob("*.csv")
    (json_path,) = out.glob("*.json")
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    doc.pop("timestamp")
    doc["metadata"]["run_config"]["out"] = "<out>"
    sidecar = json.dumps(doc, sort_keys=True).encode()
    return (f"{name} status={status} csv={_sha(csv_path.read_bytes())} "
            f"json={_sha(sidecar)} stdout={_sha(stdout)}")


def _help_line(name, argv):
    status, stdout = _run_cli(argv)
    return f"{name} status={status} stdout={_sha(stdout)}"


def _apply_pool_line():
    import flagint

    pool = json.loads(REFERENCE.read_text(encoding="utf-8"))["apply_pool"]
    cfg = flagint.ExponentConfig(n=1, m=1, alpha=_APPLY_ALPHA, beta=_APPLY_BETA,
                                 rho=Fraction(2))
    payload = flagint.smooth_bump(1, 1, (0.0, 0.0), 1.0, 1.0)
    spec = flagint.QuadratureSpec(inner_cutoff=_APPLY_INNER_CUTOFF)
    results = []
    equal = 0
    moved = [0.0, 0.0]  # largest |delta value| / err and |delta err| / err
    for q in pool:
        try:
            value, err = flagint.apply_operator(
                cfg, payload, flagint.point_pair([q["x"]], [q["y"]]), spec)
        except flagint.AccuracyError:
            value = err = None
        results.append([value, err])
        equal += [value, err] == [q["value"], q["err"]]
        if None not in (value, q["value"]):
            moved = [max(moved[0], abs(value - q["value"]) / q["err"]),
                     max(moved[1], abs(err - q["err"]) / q["err"])]
    digest = _sha(json.dumps(results).encode())
    return (f"apply-pool equal={equal}/{len(pool)} dvalue/err={moved[0]:.3g} "
            f"derr/err={moved[1]:.3g} results={digest}")


def _payload_line():
    import numpy as np

    import flagint

    axis = np.linspace(-3.0, 3.0, 25)
    points = np.stack([c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij")],
                      axis=1)
    digest = hashlib.sha256()
    for f in (flagint.smooth_bump(2, 1, (0.25, -0.5, 0.0), (1.0, 0.75, 1.5), -1.75),
              flagint.make_random_atom(flagint.Cube(2, 1, 1), seed=3).payload):
        for step in (lambda g: g.translate((0.5, -0.25, 0.125)),
                     lambda g: g.dilate(1.5, 2.0, 2.0),
                     lambda g: g.scale_values(-3.0)):
            f = step(f)
            digest.update(repr((f.support, f.sup_bound())).encode())
            digest.update(f.evaluate(points).tobytes())
    return f"payload-moves support+sup+values={digest.hexdigest()}"


def _plans_line():
    import flagint
    from flagint import quadrature

    f = flagint.smooth_bump(1, 1, (0.0, 0.0), 1.0, 1.0)
    digest = hashlib.sha256()
    for cutoff in (-20, -40, -56):
        for center in (0.3, 1.0, 2.5):
            for g in (4, 3):
                # the plan of each axis as an inner pass grades it: toward the
                # centre, finest cell 2^cutoff times the side, cells at most
                # side / min_cells_hint wide within the support
                for i, (lo, hi) in enumerate(f.support):
                    plan = quadrature._axis_plan(
                        lo, hi, center, 2.0 ** cutoff * (hi - lo), f.breakpoints(i), g,
                        (hi - lo) / f.min_cells_hint, f.support[i])
                    for arr in (plan.offsets, plan.weights, plan.core):
                        digest.update(arr.tobytes())
    return f"plans offsets+weights+core={digest.hexdigest()}"


def _breaks_line():
    import numpy as np

    from flagint import quadrature

    rng = np.random.default_rng(23)
    digest = hashlib.sha256()
    for case in range(2000):
        lo, hi = sorted(float(z) for z in rng.uniform(-4.0, 4.0, 2))
        if case % 5 == 0:
            lo, hi = -0.0, abs(hi) + 0.5
        side = hi - lo
        center = {0: lo, 1: hi, 2: 0.5 * (lo + hi)}.get(
            case % 7, float(rng.uniform(lo - 2.0 * side, hi + 2.0 * side)))
        finest = side * 2.0 ** -float(rng.integers(1, 301))
        extra = tuple(float(e) for e in rng.choice(
            [lo, hi, center, 0.0, -0.0, *rng.uniform(lo, hi, 3)], size=int(rng.integers(0, 6))))
        max_cell = [None, 0.0, side / 8, side / 3][case % 4]
        within = [None, (lo, hi), (lo + 0.25 * side, hi)][case % 3]
        for arr in quadrature._axis_breaks(lo, hi, center, finest, extra, max_cell, within):
            digest.update(arr.tobytes())
    return f"breaks cuts+breaks={digest.hexdigest()}"


def main() -> int:
    from flagint import cli

    # argparse wraps help text to the terminal width
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _CRITERION_10 + _LARGER:
            print(_cli_line(name, argv, tmp), flush=True)
    print(_help_line("help", ["--help"]))
    for sub in cli.EXPERIMENTS:
        print(_help_line(f"help-{sub}", [sub, "--help"]))
    print(_apply_pool_line())
    print(_payload_line())
    print(_plans_line())
    print(_breaks_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
