"""Command-line front end: parse configs, dispatch experiments, write artifacts.

Every flag has a config-file equivalent (JSON, same key names with
underscores); precedence is built-in defaults, then the config file, then
the FLAGINT_SEED environment variable (seed only), then explicit flags.
Each run writes {experiment}-{seed}.csv and a JSON metadata sidecar into
the output directory and prints a one-line summary. Exit codes: 0 pass,
1 usage or accuracy error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import AccuracyError, FlagIntError, UsageError
from .exponents import (
    ExponentConfig,
    as_rational,
    check_formula_one,
    check_formula_two,
    derive_ab,
)
from .spec import QuadratureSpec

# the engine (numpy and all) is imported by the runners that use it, so that
# --help and every refusal of a flag, config file or spec return before it loads
if TYPE_CHECKING:
    from .experiments import ScanResult
    from .quadrature import TestFunction

# the flags every experiment takes, after --config, as (config key, argparse
# options); each flag is --key with underscores as dashes
_COMMON_FLAGS: Tuple = (
    ("out", {"help": "output directory (default .)"}),
    ("jobs", {"type": int, "help": "worker processes (default: all cores)"}),
    ("n", {"type": int, "help": "x-factor dimension"}),
    ("m", {"type": int, "help": "y-factor dimension"}),
    ("alpha", {"help": "exact rational like 9/10"}),
    ("beta", {"help": "exact rational like 3/10"}),
    ("rho", {"help": "scaling exponent, rational >= 1"}),
    ("p", {"help": "source exponent, rational >= 1"}),
    ("q", {"help": "target exponent, rational > 1"}),
    ("points_per_axis", {"type": int}),
    ("seed", {"type": int}),
    ("target_rel_error", {"type": float}),
    ("inner_cutoff", {"type": int}),
)

# argparse options of the flags that several experiments share
_XY = (("x", {"help": "comma-separated coordinates"}),
       ("y", {"help": "comma-separated coordinates"}))
_RADIUS = ("radius", {"type": float})
_BOX = ("box", {"help": "per-axis lo:hi pairs, comma separated"})
_L = ("L", {"type": int})
_ATOM_SEED = ("atom_seed", {"type": int})

# experiment -> (subcommand help, its own flags as (config key, argparse options));
# each flag is --key with underscores as dashes
_EXPERIMENT_FLAGS: Dict[str, Tuple[str, Tuple]] = {
    "check": ("evaluate the exponent conditions", ()),
    "kernel": ("evaluate the kernel at a point", _XY),
    "apply": ("apply the operator at a point", (
        *_XY, ("payload", {"choices": ("indicator", "bump", "signum", "random-atom")}),
        _RADIUS, _BOX, _L, _ATOM_SEED,
    )),
    "atom-validate": ("validate an atom", (
        ("atom", {"choices": ("signum", "random")}), _L, _ATOM_SEED,
        ("atom_json", {"help": "load atom from JSON file"}),
        ("normalization", {"choices": ("strict", "relaxed")}),
    )),
    "shells": ("shell-by-shell mass profile", (
        ("k_max", {"type": int}), ("l_max", {"type": int}), ("burn_in", {"type": int}),
        ("payload", {"choices": ("signum", "indicator", "bump")}), _L, _RADIUS,
    )),
    "dilate": ("dilation scaling scan", (
        ("deltas", {"help": "comma-separated dilation factors"}),
        ("lams", {"help": "comma-separated y-only factors"}),
        ("payload", {"choices": ("bump", "indicator")}), _RADIUS, _BOX,
    )),
    "counterexample": ("truncated mass growth scan", (
        ("radii", {"help": "comma-separated truncation radii"}),
    )),
    "frontier": ("theorem-vs-measurement map", (
        ("alphas", {"help": "comma-separated rationals"}),
        ("betas", {"help": "comma-separated rationals"}),
    )),
    "hls": ("product-kernel domination check", (
        ("payload", {"choices": ("indicator", "bump")}), _RADIUS, _BOX,
    )),
}

EXPERIMENTS = tuple(_EXPERIMENT_FLAGS)

# alpha, beta, p and q have no common default: they stay out of the merged
# config unless an experiment, the config file or a flag sets them
_COMMON_DEFAULTS = {
    "n": 1,
    "m": 1,
    "rho": "2",
    "out": ".",
    "jobs": None,
    "seed": 0,
    **{f.name: f.default for f in dataclasses.fields(QuadratureSpec)},
}

_EXPERIMENT_DEFAULTS: Dict[str, Dict] = {
    "check": {},
    "kernel": {"alpha": "1/2", "beta": "1/2"},
    "apply": {"alpha": "1/2", "beta": "1/2", "payload": "indicator"},
    "atom-validate": {"atom": "signum", "L": 1, "atom_seed": 0},
    "shells": {
        "alpha": "9/10", "beta": "3/10", "q": "2",
        "k_max": 8, "l_max": 6, "burn_in": 3, "payload": "signum", "L": 0,
        "radius": 0.5,
    },
    "dilate": {
        "alpha": "9/10", "beta": "3/10", "p": "1", "q": "2",
        "deltas": "0.25,0.5,1,2,4", "lams": "1,2,4", "payload": "bump",
        "radius": 1.0,
    },
    "counterexample": {"q": "2", "radii": "10,100,1000,10000"},
    "frontier": {
        "q": "2",
        "alphas": "1/10,3/10,1/2,7/10,9/10",
        "betas": "3/10,2/5,1/2,3/5,7/10",
    },
    "hls": {
        "alpha": "9/10", "beta": "3/10", "p": "1", "q": "2",
        "payload": "indicator", "radius": 1.0,
    },
}

# the exponents, read as exact rationals
_RATIONALS = ("alpha", "beta", "rho", "p", "q")

_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "check": ("alpha", "beta"),
    "kernel": ("x", "y", "alpha", "beta"),
    "apply": ("x", "y", "alpha", "beta"),
    "shells": ("alpha", "beta", "q"),
    "dilate": ("alpha", "beta", "p", "q"),
    "counterexample": ("q",),
    "frontier": ("q",),
    "hls": ("alpha", "beta", "p", "q"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # so usage problems map to exit code 1 as documented
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flagint", description=__doc__)
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, (help_text, flags) in _EXPERIMENT_FLAGS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON config file")
        for key, options in _COMMON_FLAGS + flags:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, **options)
    return parser


# ---------------------------------------------------------------------------
# config merging


def _config_number(key: str, value, kind: type):
    """A number flag's config value, a number or a numeric string, read with
    the flag's type; an int flag takes integral values only (int(4.9) is 4)."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            typed = kind(value)
            if kind is float or not isinstance(value, float) or typed == value:
                return typed
        if kind is int:
            raise UsageError(f"config key {key!r} must be an integer, got {json.dumps(value)}")
    raise UsageError(f"config key {key!r} must be a number, got {json.dumps(value)}")


def _load_config_file(path: str, experiment: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    flags = _COMMON_FLAGS + _EXPERIMENT_FLAGS[experiment][1]
    types = {key: opts.get("type") for key, opts in flags}
    choices = {key: opts["choices"] for key, opts in flags if "choices" in opts}
    defaults = {**_COMMON_DEFAULTS, **_EXPERIMENT_DEFAULTS[experiment]}
    for key, value in data.items():
        if key not in types and key != "experiment":
            raise UsageError(
                f"unknown config key {key!r} for experiment {experiment!r}"
            )
        # null only where it is the built-in default, so that it means the
        # same as no key
        if value is None and defaults.get(key) is None:
            continue
        if value is None and key in _RATIONALS:
            raise UsageError(f"config key {key!r} must be a rational, got null")
        # a number flag's value is read with the flag's type
        if types.get(key) in (int, float):
            data[key] = _config_number(key, value, types[key])
        if key in choices and value not in choices[key]:
            raise UsageError(
                f"config key {key!r} must be one of {', '.join(choices[key])}, "
                f"got {json.dumps(value)}"
            )
        if key in ("out", "atom_json") and not isinstance(value, str):
            raise UsageError(f"{key!r} must be a path string, got {json.dumps(value)}")
    declared = data.get("experiment")
    if declared is not None and declared != experiment:
        raise UsageError(
            f"config file declares experiment {declared!r}, command line says {experiment!r}"
        )
    return {k: v for k, v in data.items() if k != "experiment"}


def _merge_config(args: argparse.Namespace) -> Dict:
    experiment = args.experiment
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_EXPERIMENT_DEFAULTS[experiment])

    if args.config:
        merged.update(_load_config_file(args.config, experiment))

    env_seed = os.environ.get("FLAGINT_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"FLAGINT_SEED must be an integer, got {env_seed!r}") from exc

    # the namespace holds the subcommand's flags, besides experiment and config
    for key, value in vars(args).items():
        if key not in ("experiment", "config") and value is not None:
            merged[key] = value

    for key in _REQUIRED.get(experiment, ()):
        if merged.get(key) is None:
            raise UsageError(f"missing required field {key!r} for {experiment!r}")
    if not 0 <= merged["seed"] < 2 ** 64:
        raise UsageError("seed must be a 64-bit unsigned integer")
    # each rational is typed once; alpha, beta, p and q may be unset, rho has a default
    for key in _RATIONALS:
        if merged.get(key) is not None:
            merged[key] = as_rational(merged[key], key)
    for key in ("alphas", "betas"):
        if key in merged:
            merged[key] = _rational_list(merged[key], key)
    merged["experiment"] = experiment
    return merged


def _list_tokens(value, name: str) -> list:
    """The items of a comma string or a JSON array; neither may be empty."""
    if value is None:
        raise UsageError(f"missing list field {name!r}")
    if isinstance(value, str):
        tokens = [t.strip() for t in value.split(",") if t.strip()]
    elif isinstance(value, (list, tuple)):
        tokens = list(value)
    else:
        raise UsageError(f"{name!r} must be a comma string or a JSON array")
    if not tokens:
        raise UsageError(f"{name!r} is empty")
    return tokens


def _float_list(value, name: str) -> List[float]:
    tokens = _list_tokens(value, name)
    try:
        return [float(Fraction(str(t))) for t in tokens]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"bad value in {name!r}: {exc}") from exc


def _rational_list(value, name: str) -> List[Fraction]:
    return [as_rational(t, name) for t in _list_tokens(value, name)]


def _box_pair(pair) -> Tuple[float, float]:
    """(lo, hi) from a list of two numbers or numeric strings; true and false are no numbers."""
    if not isinstance(pair, (list, tuple)) or any(isinstance(c, bool) for c in pair):
        raise TypeError(f"not a pair of numbers: {pair!r}")
    lo, hi = pair
    return float(lo), float(hi)


def _parse_box(value, dim: int, name: str = "box"):
    """Per-axis (lo, hi) from "lo:hi" pairs, comma separated, or a JSON array of pairs."""
    if value is None:
        return tuple((-1.0, 1.0) for _ in range(dim))
    if isinstance(value, str):
        pairs = [t.split(":") for t in value.split(",") if t.strip()]
    elif isinstance(value, (list, tuple)):
        pairs = value
    else:
        raise UsageError(f"{name!r} must be a comma string or a JSON array")
    try:
        box = tuple(_box_pair(pair) for pair in pairs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {name}: expected lo:hi pairs, got {value!r}") from exc
    if len(box) != dim:
        raise UsageError(f"{name!r} needs {dim} axes, got {len(box)}")
    return box


def _exponent_config(merged: Dict) -> ExponentConfig:
    return ExponentConfig(**{f.name: merged.get(f.name) for f in dataclasses.fields(ExponentConfig)})


def _quadrature_spec(merged: Dict) -> QuadratureSpec:
    try:
        return QuadratureSpec(**{f.name: merged[f.name] for f in dataclasses.fields(QuadratureSpec)})
    except ValueError as exc:
        # a setting the spec refuses is a bad flag or config value
        raise UsageError(str(exc)) from exc


def _jobs(merged: Dict) -> int:
    jobs = merged.get("jobs")
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    return jobs


# ---------------------------------------------------------------------------
# payload helpers


def _payload_for(merged: Dict, n: int, m: int) -> TestFunction:
    from .atoms import make_random_atom, signum_atom_at_scale
    from .domain import Cube
    from .quadrature import indicator_box, smooth_bump

    # apply's L, radius and atom_seed are null unless given
    given = {"L": 0, "radius": 1.0, "atom_seed": 0,
             **{key: value for key, value in merged.items() if value is not None}}
    kind = merged["payload"]
    if kind == "indicator":
        box = _parse_box(merged.get("box"), n + m)
        return indicator_box(n, m, box)
    if kind == "bump":
        return smooth_bump(n, m, radius=given["radius"])
    if kind == "signum":
        return signum_atom_at_scale(n, m, given["L"]).payload
    if kind == "random-atom":
        return make_random_atom(Cube(n=n, m=m, L=given["L"]), given["atom_seed"]).payload
    raise UsageError(f"unknown payload kind {kind!r}")


# ---------------------------------------------------------------------------
# per-experiment runners; each returns (result, summary, status)


def _run_check(merged: Dict, spec: QuadratureSpec):
    cfg = _exponent_config(merged)
    rows = []
    for formula, needs, check in (
        ("formula-one", (cfg.p, cfg.q), check_formula_one),
        ("formula-two", (cfg.q,), check_formula_two),
    ):
        if None not in needs:
            ok = check(cfg)
            rows.append({
                "formula": formula, "value": ok, "err": None,
                "label": "SATISFIED" if ok else "VIOLATED", "case": "",
            })
    if not rows:
        raise UsageError("check needs q (and optionally p)")
    summary = "; ".join(f"{r['formula']}: {r['label']}" for r in rows)
    metadata = {"summary": summary}
    if cfg.alpha * cfg.m >= cfg.beta * cfg.n:
        ab = derive_ab(cfg)
        metadata["derived"] = {"a": str(ab.a), "b": str(ab.b)}
    result = _rows_result("check", rows, **metadata)
    return result, summary, 0 if all(r["value"] for r in rows) else 2


def _point_query(merged: Dict, cfg: ExponentConfig):
    """The point --x, --y, and the row cells that echo it."""
    from .kernel import point_pair

    x = _float_list(merged.get("x"), "x")
    y = _float_list(merged.get("y"), "y")
    if len(x) != cfg.n or len(y) != cfg.m:
        raise UsageError(f"need {cfg.n} x-coordinates and {cfg.m} y-coordinates")
    cells = {"x": ";".join(repr(v) for v in x), "y": ";".join(repr(v) for v in y)}
    return point_pair(x, y), cells


def _rows_result(experiment: str, rows: List[Dict], **metadata) -> ScanResult:
    """The result of rows that share their keys."""
    from .experiments import ScanResult

    return ScanResult(experiment=experiment, columns=tuple(rows[0]), rows=rows,
                      metadata=metadata)


def _run_kernel(merged: Dict, spec: QuadratureSpec):
    from .kernel import FlagKernel, kernel_eval

    cfg = _exponent_config(merged)
    pt, cells = _point_query(merged, cfg)
    value = kernel_eval(FlagKernel(cfg), pt)
    row = {**cells, "value": value, "err": 0.0, "label": "kernel", "case": ""}
    return _rows_result("kernel", [row]), f"kernel value {value!r}", 0


def _run_apply(merged: Dict, spec: QuadratureSpec):
    from .quadrature import apply_operator

    cfg = _exponent_config(merged)
    pt, cells = _point_query(merged, cfg)
    f = _payload_for(merged, cfg.n, cfg.m)
    status = 0
    try:
        value, err = apply_operator(cfg, f, pt, spec)
        label, case = "apply", ""
    except AccuracyError as exc:
        value, err, label, case = exc.value, exc.err, "UNRESOLVED", "accuracy-error"
        status = 1
    row = {**cells, "value": float(value), "err": float(err), "label": label, "case": case}
    result = _rows_result("apply", [row])
    summary = f"operator value {value!r} +/- {err!r}" + (
        " UNRESOLVED" if status else ""
    )
    return result, summary, status


def _run_atom_validate(merged: Dict, spec: QuadratureSpec):
    from .atoms import atom_from_json, make_random_atom, signum_atom_at_scale, validate_atom
    from .domain import Cube

    n, m = merged["n"], merged["m"]
    path = merged.get("atom_json")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                atom = atom_from_json(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read atom file: {exc}") from exc
    elif merged["atom"] == "signum":
        atom = signum_atom_at_scale(n, m, merged["L"])
    else:
        atom = make_random_atom(Cube(n=n, m=m, L=merged["L"]), merged["atom_seed"])
    report = validate_atom(atom, normalization=merged.get("normalization"))
    rows = [
        {"property": name, "value": getattr(report, name), "err": None,
         "label": "atom-validate", "case": report.normalization}
        for name in ("support_ok", "bound_ok", "mean_ok", "mean", "sup")
    ]
    result = _rows_result("atom-validate", rows, report=dataclasses.asdict(report))
    verdict = "VALID" if report.ok else "INVALID"
    summary = (
        f"atom {verdict} (support {report.support_ok}, bound {report.bound_ok}, "
        f"mean {report.mean_ok})"
    )
    return result, summary, 0 if report.ok else 2


def _run_shells(merged: Dict, spec: QuadratureSpec):
    from .atoms import noncancelling_counterpart, signum_atom_at_scale
    from .experiments import shell_decay_profile
    from .quadrature import smooth_bump

    cfg = _exponent_config(merged)
    L = merged["L"]
    kind = merged["payload"]
    if kind == "signum":
        subject = signum_atom_at_scale(cfg.n, cfg.m, L)
    elif kind == "indicator":
        subject = noncancelling_counterpart(signum_atom_at_scale(cfg.n, cfg.m, L))
    elif kind == "bump":
        subject = smooth_bump(cfg.n, cfg.m, radius=merged["radius"])
    else:
        raise UsageError(f"unknown payload kind {kind!r}")
    result = shell_decay_profile(
        cfg, subject, merged["k_max"], merged["l_max"], spec,
        burn_in=merged["burn_in"], jobs=_jobs(merged),
    )
    fit = result.metadata.get("k_fit")
    tail = result.metadata.get("tail_fraction")
    target = -float(cfg.q) + 0.5
    ok = (
        fit is not None and fit["slope"] <= target
        and tail is not None and tail < 0.01
    )
    if fit is None:
        slope_txt = "unavailable (k window too small for a fit)"
    else:
        slope_txt = repr(fit["slope"])
    summary = (
        f"shells: k-slope {slope_txt} (target <= {target!r}), "
        f"tail {tail!r} ({'PASS' if ok else 'FAIL'})"
    )
    return result, summary, 0 if ok else 2


def _run_dilate(merged: Dict, spec: QuadratureSpec):
    from .experiments import dilation_scan

    cfg = _exponent_config(merged)
    f = _payload_for(merged, cfg.n, cfg.m)
    deltas = _float_list(merged["deltas"], "deltas")
    lams = _float_list(merged["lams"], "lams")
    result = dilation_scan(cfg, f, deltas, lams, spec, jobs=_jobs(merged))
    meta = result.metadata
    ok = meta["unresolved_rows"] == 0
    secant = meta["delta_secant"]
    if secant is not None:
        ok = ok and abs(secant - meta["predicted_delta_slope"]) <= 0.05
    for value in meta["lambda_secants"].values():
        ok = ok and value >= meta["predicted_lambda_slope_lower"] - 0.05
    status = 1 if meta["unresolved_rows"] else (0 if ok else 2)
    summary = (
        f"dilate: delta secant {secant!r} vs predicted "
        f"{meta['predicted_delta_slope']!r} ({'PASS' if status == 0 else 'FAIL'})"
    )
    return result, summary, status


def _run_counterexample(merged: Dict, spec: QuadratureSpec):
    from .experiments import counterexample_growth

    result = counterexample_growth(
        merged["n"], merged["m"], merged["rho"], merged["q"],
        _float_list(merged["radii"], "radii"), spec,
        alpha=merged.get("alpha"), beta=merged.get("beta"),
        jobs=_jobs(merged),
    )
    meta = result.metadata
    if meta["case"] == "critical":
        ok = meta["increasing"] and meta["decade_fit_ok"] is not False
        what = f"increasing {meta['increasing']}, decade fit ok {meta['decade_fit_ok']}"
    else:
        frac = meta["last_increment_fraction"]
        ok = frac is not None and frac < 0.05
        what = f"last-decade increment fraction {frac!r}"
    summary = f"counterexample ({meta['case']}): {what} ({'PASS' if ok else 'FAIL'})"
    return result, summary, 0 if ok else 2


def _run_frontier(merged: Dict, spec: QuadratureSpec):
    from .experiments import frontier_map

    result = frontier_map(
        merged["n"], merged["m"], merged["rho"], merged["q"],
        merged["alphas"], merged["betas"], spec, jobs=_jobs(merged),
    )
    meta = result.metadata
    accuracy_failures = sum(1 for r in result.rows if r["case"] == "accuracy-error")
    if accuracy_failures:
        status = 1
    elif meta["off_diagonal"] > 0:
        status = 2
    else:
        status = 0
    summary = f"frontier: {meta['summary']} ({'PASS' if status == 0 else 'FAIL'})"
    return result, summary, status


def _run_hls(merged: Dict, spec: QuadratureSpec):
    from .experiments import hls_iteration_check

    cfg = _exponent_config(merged)
    f = _payload_for(merged, cfg.n, cfg.m)
    result = hls_iteration_check(cfg, f, spec, jobs=_jobs(merged))
    row = result.rows[0]
    ok = row["label"] == "DOMINATED"
    summary = f"hls: left {row['left']!r} <= right {row['right']!r} ({'PASS' if ok else 'FAIL'})"
    return result, summary, 0 if ok else 2


_RUNNERS = {
    "check": _run_check,
    "kernel": _run_kernel,
    "apply": _run_apply,
    "atom-validate": _run_atom_validate,
    "shells": _run_shells,
    "dilate": _run_dilate,
    "counterexample": _run_counterexample,
    "frontier": _run_frontier,
    "hls": _run_hls,
}


def _write_artifacts(result: ScanResult, merged: Dict) -> Tuple[str, str]:
    out_dir = merged["out"] or "."  # an empty path is the working directory
    os.makedirs(out_dir, exist_ok=True)
    result.metadata["run_config"] = dict(sorted(merged.items()))
    base = os.path.join(out_dir, f"{result.experiment}-{merged['seed']}")
    csv_path = base + ".csv"
    json_path = base + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.to_csv_text())
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(result.to_json_text())
    return csv_path, json_path


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # no name holds the parser, so a run does not keep it alive
        args = _build_parser().parse_args(argv)
        merged = _merge_config(args)
        spec = _quadrature_spec(merged)
        runner = _RUNNERS[merged["experiment"]]
        t0 = time.perf_counter()
        result, summary, status = runner(merged, spec)
        result.wall_time_s = time.perf_counter() - t0
        csv_path, json_path = _write_artifacts(result, merged)
        print(summary)
        print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 1
    except (FlagIntError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
