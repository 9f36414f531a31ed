"""Numerical experiments: dilation scans, divergence growth, shell decay,
the boundedness frontier, and the product-kernel domination check.

Every experiment returns a ScanResult whose rows are a pure function of
(config, quadrature spec, seed); wall-clock timing lives outside the rows
so emitted CSV bytes are stable run to run. Rows are independent work
items and can be computed in parallel; results are keyed by parameter
tuple, so aggregation never depends on scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .atoms import Atom
from .domain import (
    CounterexampleRegion,
    GapRegion,
    Window,
    centered_window,
    shell_case,
    shell_family,
)
from .errors import (
    AccuracyError,
    ConfigIncompleteError,
    FitWindowError,
    PreconditionError,
)
from .exponents import (
    ExponentConfig,
    as_rational,
    check_formula_one,
    check_formula_two,
    derive_ab,
)
from .quadrature import (
    QuadratureSpec,
    TestFunction,
    indicator_box,
    lp_norm,
    lq_mass,
    lq_mass_dominating,
)

# Empirical classification thresholds for the frontier scan.
DELTA_SLOPE_TOL = 0.05
GROWTH_RATIO_UNBOUNDED = 0.85
GROWTH_RATIO_BOUNDED = 0.80

DEFAULT_GROWTH_RADII = (10.0, 100.0, 1000.0, 10000.0)


# ---------------------------------------------------------------------------
# result containers


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        # repr(float(...)) strips numpy scalar wrappers from the csv text
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class ScanResult:
    """Rows plus metadata for one experiment run.

    Rows are deterministic given (config, spec, seed). Timing is kept on
    the side and only ever written into the JSON timestamp field.
    """

    experiment: str
    columns: Tuple[str, ...]
    rows: List[Dict] = field(default_factory=list)
    metadata: Dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, dialect="excel")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(row.get(c)) for c in self.columns])
        return buf.getvalue()

    def to_json_text(self, written_at: Optional[str] = None) -> str:
        if written_at is None:
            written_at = datetime.now(timezone.utc).isoformat()
        doc = {
            "experiment": self.experiment,
            "columns": list(self.columns),
            "row_count": len(self.rows),
            "metadata": _jsonable(self.metadata),
            "timestamp": {
                "written_at": written_at,
                "wall_time_s": self.wall_time_s,
            },
        }
        return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through scan data.

    For shell profiles the slope is d log2(mass) / dk; for growth scans it
    is dF / d ln R. residual is the largest absolute deviation over the
    fitted window, and window holds the (first, last) row indices used.
    """

    slope: float
    intercept: float
    residual: float
    window: Tuple[int, int]

    def __post_init__(self) -> None:
        first, last = self.window
        if last - first + 1 < 4:
            raise FitWindowError(
                f"fit window [{first}, {last}] has fewer than 4 points"
            )

    def as_dict(self) -> Dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "window": list(self.window),
        }


def _least_squares(xs: Sequence[float], ys: Sequence[float],
                   window: Tuple[int, int]) -> DecayFit:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    residual=residual, window=window)


def fit_loglog(xs: Sequence[float], ys: Sequence[float],
               drop_first: bool = True) -> DecayFit:
    """Fit log2(y) against log2(x), dropping the first (transient) point."""
    if any(v <= 0 for v in xs) or any(v <= 0 for v in ys):
        raise ValueError("log-log fit needs positive data")
    start = 1 if drop_first else 0
    if len(xs) - start < 4:
        raise FitWindowError("log-log fit needs at least 4 points after the transient")
    lx = [math.log2(v) for v in xs[start:]]
    ly = [math.log2(v) for v in ys[start:]]
    return _least_squares(lx, ly, (start, len(xs) - 1))


# ---------------------------------------------------------------------------
# parallel row execution


def _pool_size(jobs: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes for a scan: no more than its rows or the cores.

    A fork pool starts all of its workers at the first submit, so an
    unclamped --jobs would fork that many processes.
    """
    return max(1, min(jobs, tasks, cpus or 1))


def _run_rows(worker, tasks: Sequence, jobs: int) -> List:
    workers = _pool_size(jobs, len(tasks), os.cpu_count())
    if workers == 1:
        return [worker(t) for t in tasks]
    # imported here: most runs start no pool, and the import takes 10-20 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _cfg_dict(cfg: ExponentConfig) -> Dict:
    return {
        "n": cfg.n,
        "m": cfg.m,
        "alpha": str(cfg.alpha),
        "beta": str(cfg.beta),
        "rho": str(cfg.rho),
        "p": None if cfg.p is None else str(cfg.p),
        "q": None if cfg.q is None else str(cfg.q),
    }


def _spec_dict(spec: QuadratureSpec) -> Dict:
    return asdict(spec)


def _norm_from_mass(mass: float, err: float, q: float) -> Tuple[float, float]:
    mass = max(mass, 0.0)
    norm = mass ** (1.0 / q)
    return norm, (mass + err) ** (1.0 / q) - norm


def _default_window(cfg: ExponentConfig, f: TestFunction) -> Window:
    """The centered window twice as wide as supp f in each factor."""
    x_half = 2.0 * max(max(abs(lo), abs(hi)) for lo, hi in f.support[: cfg.n])
    y_half = 2.0 * max(max(abs(lo), abs(hi)) for lo, hi in f.support[cfg.n:])
    return centered_window(cfg.n, cfg.m, x_half, y_half)


def _dilated_norms(
    cfg: ExponentConfig, f: TestFunction, window: Window, delta: float, lam: float,
    p: Union[Fraction, float], spec: QuadratureSpec,
) -> Tuple[float, float, float]:
    """(|I f_dl|_q over the dilated window, its error, |f_dl|_p)."""
    rho = float(cfg.rho)
    fd = f.dilate(delta, lam, rho)
    wd = window.dilated(delta, lam, rho)
    mass, mass_err = lq_mass(cfg, fd, wd, cfg.q, spec)
    qnorm, qnorm_err = _norm_from_mass(mass, mass_err, float(cfg.q))
    return qnorm, qnorm_err, lp_norm(fd, p, spec)


# ---------------------------------------------------------------------------
# dilation scan


def _dilation_row(task) -> Dict:
    cfg, f, window, delta, lam, spec = task
    if lam == 1.0 and delta == 1.0:
        case = "baseline"
    elif lam == 1.0:
        case = "delta"
    elif delta == 1.0:
        case = "lambda"
    else:
        case = "mixed"
    try:
        qnorm, qnorm_err, pnorm = _dilated_norms(cfg, f, window, delta, lam, cfg.p, spec)
    except AccuracyError as exc:
        return {
            "delta": delta, "lambda": lam, "qnorm": None, "qnorm_err": None,
            "pnorm": None, "value": exc.value, "err": exc.err,
            "label": "UNRESOLVED", "case": case,
        }
    ratio = qnorm / pnorm
    ratio_err = qnorm_err / pnorm
    return {
        "delta": delta,
        "lambda": lam,
        "qnorm": qnorm,
        "qnorm_err": qnorm_err,
        "pnorm": pnorm,
        "value": ratio,
        "err": ratio_err,
        "label": "dilation",
        "case": case,
    }


def dilation_scan(
    cfg: ExponentConfig,
    f: TestFunction,
    deltas: Sequence[float],
    lams: Sequence[float],
    spec: QuadratureSpec,
    window: Optional[Window] = None,
    jobs: int = 1,
) -> ScanResult:
    """Measure r(delta, lambda) = |I f_dl|_q(window) / |f_dl|_p along both axes.

    Each delta is scanned at lambda = 1 and each lambda at delta = 1; the
    window is carried along with the dilation, so the ratio obeys the exact
    scaling identity: the log-log delta slope equals
    (alpha + rho beta) + (n + rho m)(1/q - 1/p), zero under the balance
    condition. For lambda > 1 and f >= 0 the ratio is bounded below by
    lambda^{beta + m/q - m/p} times the baseline.
    """
    if cfg.p is None or cfg.q is None:
        raise ConfigIncompleteError("dilation_scan needs both p and q")
    if not f.is_nonnegative():
        raise PreconditionError("dilation_scan takes a nonnegative test function")
    if window is None:
        window = _default_window(cfg, f)

    t0 = time.perf_counter()
    pairs = []
    for d in deltas:
        if (float(d), 1.0) not in pairs:
            pairs.append((float(d), 1.0))
    for l in lams:
        if (1.0, float(l)) not in pairs:
            pairs.append((1.0, float(l)))
    if (1.0, 1.0) not in pairs:
        pairs.insert(0, (1.0, 1.0))
    tasks = [(cfg, f, window, d, l, spec) for d, l in pairs]
    rows = _run_rows(_dilation_row, tasks, jobs)

    by_pair = {(r["delta"], r["lambda"]): r for r in rows}
    base = by_pair[(1.0, 1.0)]
    predicted_delta_slope = float(
        cfg.alpha + cfg.rho * cfg.beta
        + (cfg.n + cfg.rho * cfg.m) * (Fraction(1) / cfg.q - Fraction(1) / cfg.p)
    )
    predicted_lambda_lower = float(
        cfg.beta + Fraction(cfg.m) / cfg.q - Fraction(cfg.m) / cfg.p
    )

    delta_rows = sorted(
        (r for r in rows if r["lambda"] == 1.0 and r["label"] == "dilation"),
        key=lambda r: r["delta"],
    )
    delta_fit = None
    delta_secant = None
    if len(delta_rows) >= 2:
        lo_r, hi_r = delta_rows[0], delta_rows[-1]
        if lo_r["delta"] != hi_r["delta"] and lo_r["value"] > 0 and hi_r["value"] > 0:
            delta_secant = (
                math.log2(hi_r["value"]) - math.log2(lo_r["value"])
            ) / (math.log2(hi_r["delta"]) - math.log2(lo_r["delta"]))
    try:
        delta_fit = fit_loglog(
            [r["delta"] for r in delta_rows], [r["value"] for r in delta_rows]
        ).as_dict()
    except (FitWindowError, ValueError):
        pass

    lambda_secants = {}
    base_ok = base["label"] == "dilation" and base["value"] > 0
    for r in rows:
        if (
            r["delta"] == 1.0 and r["lambda"] > 1.0 and base_ok
            and r["label"] == "dilation" and r["value"] > 0
        ):
            lambda_secants[repr(r["lambda"])] = (
                math.log2(r["value"]) - math.log2(base["value"])
            ) / math.log2(r["lambda"])
    unresolved = sum(1 for r in rows if r["label"] == "UNRESOLVED")

    summary = (
        f"delta secant {delta_secant!r} (predicted {predicted_delta_slope!r}); "
        f"lambda lower bound {predicted_lambda_lower!r}"
    )
    metadata = {
        "config": _cfg_dict(cfg),
        "spec": _spec_dict(spec),
        "seed": spec.seed,
        "window": list(window.box),
        "predicted_delta_slope": predicted_delta_slope,
        "predicted_lambda_slope_lower": predicted_lambda_lower,
        "delta_fit": delta_fit,
        "delta_secant": delta_secant,
        "lambda_secants": lambda_secants,
        "unresolved_rows": unresolved,
        "summary": summary,
    }
    return ScanResult(
        experiment="dilate",
        columns=(
            "delta", "lambda", "qnorm", "qnorm_err", "pnorm", "value", "err",
            "label", "case",
        ),
        rows=rows,
        metadata=metadata,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# counterexample growth


def _growth_row(task) -> Dict:
    cfg, payload, radius, q, spec, case, label = task
    region = CounterexampleRegion(n=cfg.n, m=cfg.m, R=radius)
    mass, err = lq_mass(cfg, payload, region, q, spec)
    return {
        "R": radius,
        "value": mass,
        "err": err,
        "label": label,
        "case": case,
    }


def counterexample_growth(
    n: int,
    m: int,
    rho: Union[Fraction, str, float],
    q: Union[Fraction, str, float],
    radii: Sequence[float],
    spec: QuadratureSpec,
    alpha: Optional[Union[Fraction, str, float]] = None,
    beta: Optional[Union[Fraction, str, float]] = None,
    jobs: int = 1,
) -> ScanResult:
    """Truncated mass F(R) of the signum atom's image over [2,4]^n x [-R,R]^m.

    With alpha, beta omitted the scan sits on the critical line where both
    balance conditions hold but strictness fails (beta = m - m/q, alpha =
    n beta / m) and F should grow like log R; with an explicit strict
    configuration F should stabilize. The largest decade gets a log fit;
    geometric fill points are added when it holds fewer than 5 samples.
    """
    from .atoms import make_signum_atom

    rho_r = as_rational(rho, "rho")
    q_r = as_rational(q, "q")
    if beta is None:
        beta_r = Fraction(m) * (q_r - 1) / q_r
    else:
        beta_r = as_rational(beta, "beta")
    if alpha is None:
        alpha_r = Fraction(n) * beta_r / Fraction(m)
    else:
        alpha_r = as_rational(alpha, "alpha")
    cfg = ExponentConfig(n=n, m=m, alpha=alpha_r, beta=beta_r, rho=rho_r, q=q_r)
    critical = (
        alpha_r * m == beta_r * n and beta_r == Fraction(m) * (q_r - 1) / q_r
    )
    case = "critical" if critical else "noncritical"

    user_radii = sorted(float(r) for r in radii)
    if not user_radii or user_radii[0] <= 0:
        raise PreconditionError("radii must be positive")
    r_max = user_radii[-1]
    decade_lo = r_max / 10.0
    decade = [r for r in user_radii if r >= decade_lo * (1 - 1e-12)]
    fill: List[float] = []
    if len(decade) < 5:
        for j in range(5):
            r = r_max * 10.0 ** (-1.0 + j / 4.0)
            if not any(abs(r - s) <= 1e-9 * r for s in user_radii + fill):
                fill.append(r)
    all_radii = sorted(set(user_radii) | set(fill))

    payload = make_signum_atom(n, m).payload
    t0 = time.perf_counter()
    tasks = [
        (
            cfg, payload, r, q_r, spec, case,
            "growth" if r in user_radii else "decade-fill",
        )
        for r in all_radii
    ]
    rows = _run_rows(_growth_row, tasks, jobs)

    values = [r["value"] for r in rows]
    increasing = all(b > a for a, b in zip(values[:-1], values[1:]))
    increments = [
        {"r_lo": rows[i]["R"], "r_hi": rows[i + 1]["R"],
         "delta_f": values[i + 1] - values[i]}
        for i in range(len(rows) - 1)
    ]

    decade_idx = [i for i, r in enumerate(rows) if r["R"] >= decade_lo * (1 - 1e-12)]
    fit = None
    fit_ok = None
    if len(decade_idx) >= 4:
        xs = [math.log(rows[i]["R"]) for i in decade_idx]
        ys = [rows[i]["value"] for i in decade_idx]
        fit = _least_squares(xs, ys, (decade_idx[0], decade_idx[-1]))
        span = max(ys) - min(ys)
        fit_ok = bool(span > 0 and fit.residual < 0.1 * span)

    user_rows = [r for r in rows if r["label"] == "growth"]
    last_fraction = None
    if len(user_rows) >= 2 and user_rows[-1]["value"] > 0:
        last_fraction = (
            user_rows[-1]["value"] - user_rows[-2]["value"]
        ) / user_rows[-1]["value"]

    summary = (
        f"F increasing: {increasing}; decade fit slope "
        f"{None if fit is None else fit.slope!r}; fit residual ok: {fit_ok}"
    )
    metadata = {
        "config": _cfg_dict(cfg),
        "spec": _spec_dict(spec),
        "seed": spec.seed,
        "case": case,
        "increasing": increasing,
        "increments": increments,
        "decade_fit": None if fit is None else fit.as_dict(),
        "decade_fit_ok": fit_ok,
        "last_increment_fraction": last_fraction,
        "summary": summary,
    }
    return ScanResult(
        experiment="counterexample",
        columns=("R", "value", "err", "label", "case"),
        rows=rows,
        metadata=metadata,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# shell decay profile


def _region_row(task) -> Dict:
    cfg, payload, region, q, spec = task
    mass, err = lq_mass(cfg, payload, region, q, spec)
    if isinstance(region, GapRegion):
        return {"k": None, "l": None, "value": mass, "err": err,
                "label": "gap", "case": ""}
    return {"k": region.k, "l": region.l, "value": mass, "err": err,
            "label": "shell", "case": shell_case(region, cfg).label}


def _k_fit(mass_by_k: Dict[int, float], burn_in: int) -> DecayFit:
    """log2(mass) regressed on k over the levels k >= burn_in with positive mass."""
    ks = [k for k in sorted(mass_by_k) if k >= burn_in and mass_by_k[k] > 0.0]
    if len(ks) < 4:
        raise FitWindowError(f"only {len(ks)} usable k-levels beyond burn-in {burn_in}")
    return _least_squares(
        [float(k) for k in ks], [math.log2(mass_by_k[k]) for k in ks], (ks[0], ks[-1])
    )


def shell_decay_profile(
    cfg: ExponentConfig,
    atom: Union[Atom, TestFunction],
    k_max: int,
    l_max: int,
    spec: QuadratureSpec,
    burn_in: int = 3,
    jobs: int = 1,
) -> ScanResult:
    """Mass of |I a|^q over each dyadic shell Q_kl, with decay fits.

    Shells are indexed 0..k_max by 0..l_max at the atom's scale L; the
    residual sliver between the box (-2^L, 2^L)^{n+m} and the cube is
    reported as a separate gap row. The headline fit aggregates each k over
    all l and regresses log2(mass) on k for k >= burn_in.
    """
    if not check_formula_two(cfg):
        raise PreconditionError("shell_decay_profile needs a Formula-Two configuration")
    if isinstance(atom, Atom):
        payload = atom.payload
        L = atom.L
    else:
        payload = atom
        side = max(hi - lo for lo, hi in payload.support)
        L = max(0, math.ceil(math.log2(side)))
    if payload.n != cfg.n or payload.m != cfg.m:
        raise ValueError("payload dimensions must match the configuration")

    t0 = time.perf_counter()
    # the gap row is handed to the pool first and written last, and the
    # (0,0) cube, the costliest task, second: the gap is the next costliest,
    # so the two workers start on the two largest tasks
    regions = [GapRegion(cfg.n, cfg.m, L)] + shell_family(cfg.n, cfg.m, L, k_max, l_max)
    gap, *rows = _run_rows(_region_row, [(cfg, payload, r, cfg.q, spec) for r in regions],
                           jobs)
    rows.append(gap)

    agg: Dict[int, float] = {}
    for r in rows:
        if r["label"] == "shell":
            agg[r["k"]] = agg.get(r["k"], 0.0) + r["value"]
    ks = sorted(agg)
    masses = [agg[k] for k in ks]

    fit = None
    fit_error = None
    try:
        fit = _k_fit(agg, burn_in)
    except FitWindowError as exc:
        fit_error = str(exc)

    per_l_fits: Dict[str, Dict] = {}
    for l in range(l_max + 1):
        series = {r["k"]: r["value"] for r in rows if r["label"] == "shell" and r["l"] == l}
        try:
            per_l_fits[str(l)] = _k_fit(series, burn_in).as_dict()
        except FitWindowError:
            pass

    # interior-shell aggregate (k > 0 paired with l > 0 only), fitted the
    # same way; this is the regime where payload cancellation matters
    agg_case2: Dict[int, float] = {}
    for r in rows:
        if r["label"] == "shell" and r["k"] is not None and r["k"] > 0 and r["l"] > 0:
            agg_case2[r["k"]] = agg_case2.get(r["k"], 0.0) + r["value"]
    case2_fit = None
    try:
        case2_fit = _k_fit(agg_case2, burn_in).as_dict()
    except FitWindowError:
        pass

    total = math.fsum(masses)
    tail_fraction = None
    if total > 0 and len(ks) >= 3:
        tail_fraction = math.fsum(agg[k] for k in ks[-2:]) / total

    q_float = float(cfg.q)
    summary = (
        f"aggregated k-slope {None if fit is None else fit.slope!r} "
        f"(decay target <= {-q_float + 0.5!r}); tail fraction {tail_fraction!r}"
    )
    metadata = {
        "config": _cfg_dict(cfg),
        "spec": _spec_dict(spec),
        "seed": spec.seed,
        "L": L,
        "burn_in": burn_in,
        "aggregated_mass_by_k": {str(k): agg[k] for k in ks},
        "k_fit": None if fit is None else fit.as_dict(),
        "k_fit_error": fit_error,
        "case2_fit": case2_fit,
        "per_l_fits": per_l_fits,
        "total_shell_mass": total,
        "tail_fraction": tail_fraction,
        "summary": summary,
    }
    return ScanResult(
        experiment="shells",
        columns=("k", "l", "value", "err", "label", "case"),
        rows=rows,
        metadata=metadata,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# frontier map


def _frontier_cell(task) -> Dict:
    n, m, rho, q, alpha, beta, spec = task
    cfg = ExponentConfig(n=n, m=m, alpha=alpha, beta=beta, rho=rho, q=q)
    theorem = "THEOREM-BOUNDED" if check_formula_two(cfg) else "THEOREM-UNBOUNDED"
    ratio_ok = cfg.homogeneity_ratio == 1 - Fraction(1) / q

    if not ratio_ok:
        # off the homogeneity line: the dilation slope is the witness
        f = indicator_box(n, m, tuple((-1.0, 1.0) for _ in range(n + m)))
        window = Window(
            n=n, m=m,
            box=tuple((2.0, 4.0) for _ in range(n)) + tuple((-4.0, 4.0) for _ in range(m)),
        )
        points = []
        try:
            for delta in (0.5, 2.0):
                qnorm, qnorm_err, pnorm = _dilated_norms(cfg, f, window, delta, 1.0, 1, spec)
                points.append((delta, qnorm / pnorm, qnorm_err / pnorm))
        except AccuracyError as exc:
            return {
                "alpha": alpha, "beta": beta, "value": exc.value, "err": exc.err,
                "label": f"{theorem}|UNRESOLVED", "case": "accuracy-error",
            }
        (d1, r1, e1), (d2, r2, e2) = points
        dlog = math.log2(d2) - math.log2(d1)
        slope = (math.log2(r2) - math.log2(r1)) / dlog
        slope_err = (e1 / r1 + e2 / r2) / (math.log(2.0) * dlog)
        empirical = (
            "EMPIRICAL-UNBOUNDED" if abs(slope) > DELTA_SLOPE_TOL else "UNRESOLVED"
        )
        return {
            "alpha": alpha, "beta": beta, "value": slope, "err": slope_err,
            "label": f"{theorem}|{empirical}", "case": "delta-slope",
        }

    # on the homogeneity line: growth of truncated masses is the witness
    from .atoms import make_signum_atom

    payload = make_signum_atom(n, m).payload
    masses = []
    for radius in DEFAULT_GROWTH_RADII:
        region = CounterexampleRegion(n=n, m=m, R=radius)
        masses.append(lq_mass(cfg, payload, region, q, spec))
    incs = [
        (masses[i + 1][0] - masses[i][0], masses[i + 1][1] + masses[i][1])
        for i in range(len(masses) - 1)
    ]
    inc_prev, err_prev = incs[-2]
    inc_last, err_last = incs[-1]
    if inc_prev <= 0:
        value = 0.0
        err = 0.0
    else:
        value = inc_last / inc_prev
        err = (err_last + err_prev * abs(value)) / inc_prev
    if value >= GROWTH_RATIO_UNBOUNDED:
        empirical = "EMPIRICAL-UNBOUNDED"
    elif value <= GROWTH_RATIO_BOUNDED:
        empirical = "EMPIRICAL-BOUNDED"
    else:
        empirical = "UNRESOLVED"
    return {
        "alpha": alpha, "beta": beta, "value": value, "err": err,
        "label": f"{theorem}|{empirical}", "case": "growth",
    }


def frontier_map(
    n: int,
    m: int,
    rho: Union[Fraction, str, float],
    q: Union[Fraction, str, float],
    alphas: Sequence[Union[Fraction, str, float]],
    betas: Sequence[Union[Fraction, str, float]],
    spec: QuadratureSpec,
    jobs: int = 1,
) -> ScanResult:
    """Theorem vs measurement over an (alpha, beta) grid at fixed rho, q.

    Each cell gets a THEOREM label from the exponent conditions and an
    EMPIRICAL label from measurement: off the homogeneity line the scaling
    slope of the q/p norm ratio is the witness (p = 1); on the line, the
    growth pattern of truncated counterexample masses. The confusion
    matrix of the two labels must be diagonal up to unresolved cells.
    """
    rho_r = as_rational(rho, "rho")
    q_r = as_rational(q, "q")
    alpha_rs = [as_rational(a, "alpha") for a in alphas]
    beta_rs = [as_rational(b, "beta") for b in betas]

    t0 = time.perf_counter()
    tasks = [
        (n, m, rho_r, q_r, a, b, spec) for a in alpha_rs for b in beta_rs
    ]
    rows = _run_rows(_frontier_cell, tasks, jobs)

    confusion = {
        "bounded|bounded": 0,
        "bounded|unbounded": 0,
        "unbounded|bounded": 0,
        "unbounded|unbounded": 0,
        "unresolved": 0,
    }
    for r in rows:
        theorem, empirical = r["label"].split("|")
        if empirical == "UNRESOLVED":
            confusion["unresolved"] += 1
            continue
        key = (
            ("bounded" if theorem == "THEOREM-BOUNDED" else "unbounded")
            + "|"
            + ("bounded" if empirical == "EMPIRICAL-BOUNDED" else "unbounded")
        )
        confusion[key] += 1

    off_diagonal = confusion["bounded|unbounded"] + confusion["unbounded|bounded"]
    resolved = sum(v for k, v in confusion.items() if k != "unresolved")
    summary = (
        f"{resolved} resolved cells, {confusion['unresolved']} unresolved, "
        f"{off_diagonal} off-diagonal"
    )
    metadata = {
        "config": {
            "n": n, "m": m, "rho": str(rho_r), "q": str(q_r),
            "alphas": [str(a) for a in alpha_rs],
            "betas": [str(b) for b in beta_rs],
        },
        "spec": _spec_dict(spec),
        "seed": spec.seed,
        "confusion": confusion,
        "off_diagonal": off_diagonal,
        "thresholds": {
            "delta_slope_tol": DELTA_SLOPE_TOL,
            "growth_ratio_unbounded": GROWTH_RATIO_UNBOUNDED,
            "growth_ratio_bounded": GROWTH_RATIO_BOUNDED,
        },
        "summary": summary,
    }
    return ScanResult(
        experiment="frontier",
        columns=("alpha", "beta", "value", "err", "label", "case"),
        rows=rows,
        metadata=metadata,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# product-kernel domination


def _hls_side(task) -> Tuple[float, float]:
    """|I f|_q^q over the window: flag kernel, or the product kernel of the pair ab."""
    cfg, ab, f, window, spec = task
    if ab is None:
        return lq_mass(cfg, f, window, cfg.q, spec)
    return lq_mass_dominating(cfg, ab, f, window, cfg.q, spec)


def hls_iteration_check(
    cfg: ExponentConfig,
    f: TestFunction,
    spec: QuadratureSpec,
    window: Optional[Window] = None,
    jobs: int = 1,
) -> ScanResult:
    """Check that the flag kernel's image is dominated by the product kernel's.

    The flag kernel is bounded pointwise by |x|^{a-n}|y|^{b-m} with (a, b)
    the derived pair, so for f >= 0 the q-norms over any window are ordered.
    Both numbers are reported with their quadrature errors, in one row whose
    value is right - left.
    """
    if not check_formula_one(cfg):
        raise PreconditionError("hls_iteration_check needs a Formula-One configuration")
    if cfg.n + cfg.m > 3:
        raise PreconditionError("hls_iteration_check supports n+m <= 3")
    if not f.is_nonnegative():
        raise PreconditionError("domination needs a nonnegative test function")
    ab = derive_ab(cfg)
    if window is None:
        window = _default_window(cfg, f)
    t0 = time.perf_counter()
    masses = _run_rows(_hls_side, [(cfg, None, f, window, spec), (cfg, ab, f, window, spec)],
                       jobs)
    (left, left_err), (right, right_err) = (_norm_from_mass(*m, float(cfg.q)) for m in masses)
    ok = left <= right + left_err + right_err
    row = {
        "left": left, "left_err": left_err, "right": right, "right_err": right_err,
        "a": ab.a, "b": ab.b, "value": right - left, "err": left_err + right_err,
        "label": "DOMINATED" if ok else "VIOLATION", "case": "",
    }
    report = {k: row[k] for k in ("left", "left_err", "right", "right_err")}
    report.update(a=str(ab.a), b=str(ab.b), ok=ok, gap=right - left)
    return ScanResult(
        experiment="hls",
        columns=tuple(row),
        rows=[row],
        metadata={"seed": spec.seed, "report": report},
        wall_time_s=time.perf_counter() - t0,
    )
