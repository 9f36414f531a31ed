"""Numerical experiments: dilation scans, divergence growth, shell decay,
the boundedness frontier, and the product-kernel domination check.

Every experiment returns a ScanResult whose rows are a pure function of
(config, quadrature spec), so emitted CSV bytes are stable run to run. A
scan's metadata opens with its config and spec (`_scan_result`). No scan
times itself: the CLI times the whole run, and a library call leaves
`wall_time_s` at 0.0.
Every pool task is one mass, `_mass`: a scan builds its tasks, the pool
returns their (mass, err) pairs in task order, and the scan does its
arithmetic on them, so aggregation never depends on scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .atoms import Atom, make_signum_atom
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

    Rows are deterministic given (config, spec). wall_time_s, which the CLI
    sets, is only ever written into the JSON timestamp field.
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


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> DecayFit:
    """Fit log2(y) against log2(x), dropping the first (transient) point."""
    if any(v <= 0 for v in xs) or any(v <= 0 for v in ys):
        raise ValueError("log-log fit needs positive data")
    if len(xs) < 5:
        raise FitWindowError("log-log fit needs at least 4 points after the transient")
    lx = [math.log2(v) for v in xs[1:]]
    ly = [math.log2(v) for v in ys[1:]]
    return _least_squares(lx, ly, (1, len(xs) - 1))


# ---------------------------------------------------------------------------
# parallel row execution


def _pool_size(jobs: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes for a scan: no more than its rows or the cores.

    `_run_rows` forks every worker before it sends the first task, so an
    unclamped --jobs would fork that many processes. Without `os.fork`
    every scan runs in-process.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, tasks, cpus or 1))


def _serve(worker, tasks: Sequence, orders, replies) -> None:
    """A forked worker: run `tasks[i]` for each 4-byte index i read, until EOF.

    Each reply is one pickle of (ok, value or exception); an exception
    carries the worker's traceback as a note, since pickling drops it.
    """
    while len(index := orders.read(4)) == 4:
        try:
            reply = pickle.dumps((True, worker(tasks[int.from_bytes(index, "little")])))
        except Exception as exc:
            import traceback

            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             f"in pool worker {os.getpid()}:\n{traceback.format_exc()}"]
            reply = pickle.dumps((False, exc))
        replies.write(reply)
        replies.flush()


def _run_rows(worker, tasks: Sequence, jobs: int) -> List:
    """`[worker(t) for t in tasks]`, on up to `jobs` forked processes.

    The workers inherit `tasks` and read task indices from a pipe, one task
    outstanding per worker, sent in task order; the replies come back on a
    second pipe. After a failed task no more are sent, the replies in flight
    are collected and the failure of the lowest index is raised, as in
    process. A worker that dies mid-task raises a RuntimeError naming it.
    Every child is reaped before this returns or raises. A forked child
    holds only the calling thread, so no other thread of the caller may
    hold a lock the workers need.
    """
    workers = _pool_size(jobs, len(tasks), os.cpu_count())
    if workers == 1:
        return [worker(t) for t in tasks]
    import select
    import signal

    results: List = [None] * len(tasks)
    ends: List[int] = []  # pipe ends this process holds
    children: Dict[int, Tuple[int, int]] = {}  # reply fd -> (pid, order fd)
    busy: Dict[int, int] = {}  # reply fd -> index of the task in flight
    poller = select.poll()
    failed: Optional[Tuple[int, BaseException]] = None
    done = False
    try:
        for _ in range(workers):
            ends += os.pipe()
            ends += os.pipe()
            order_r, order_w, reply_r, reply_w = ends[-4:]
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # the ends of earlier workers too, or they never see EOF
                    for fd in ends:
                        if fd not in (order_r, reply_w):
                            os.close(fd)
                    _serve(worker, tasks, open(order_r, "rb"), open(reply_w, "wb"))
                    status = 0
                finally:
                    # no unwinding into the caller, no flush of its buffers
                    os._exit(status)
            children[reply_r] = (pid, order_w)
            for fd in (order_r, reply_w):
                os.close(fd)
                ends.remove(fd)
        replies = {fd: open(fd, "rb", closefd=False) for fd in children}
        idle = list(children)
        sent = 0
        while True:
            while idle and failed is None and sent < len(tasks):
                reply_fd = idle.pop()
                os.write(children[reply_fd][1], sent.to_bytes(4, "little"))
                busy[reply_fd] = sent
                poller.register(reply_fd, select.POLLIN)
                sent += 1
            if not busy:
                break
            for reply_fd, _ in poller.poll():
                index = busy.pop(reply_fd)
                poller.unregister(reply_fd)
                try:
                    ok, value = pickle.load(replies[reply_fd])
                except (EOFError, pickle.UnpicklingError):
                    pid = children.pop(reply_fd)[0]
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise RuntimeError(
                        f"pool worker {pid} exited with status {code} during task {index}"
                    ) from None
                if ok:
                    results[index] = value
                elif failed is None or index < failed[0]:
                    failed = (index, value)
                idle.append(reply_fd)
        done = True
    finally:
        for fd in ends:
            os.close(fd)
        for pid, _ in children.values():
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failed is not None:
        raise failed[1]
    return results


def _cfg_dict(cfg: ExponentConfig) -> Dict:
    return _jsonable(asdict(cfg))


def _scan_result(experiment: str, columns: Tuple[str, ...], rows: List[Dict], config: Dict,
                 spec: QuadratureSpec, **metadata) -> ScanResult:
    """A scan's result, its metadata opening with the config and the spec."""
    return ScanResult(experiment=experiment, columns=columns, rows=rows, metadata={
        "config": config, "spec": asdict(spec), **metadata})


def _norm_from_mass(mass: float, err: float, q: float) -> Tuple[float, float]:
    mass = max(mass, 0.0)
    norm = mass ** (1.0 / q)
    return norm, (mass + err) ** (1.0 / q) - norm


def _default_window(cfg: ExponentConfig, f: TestFunction) -> Window:
    """The centered window twice as wide as supp f in each factor."""
    x_half = 2.0 * max(max(abs(lo), abs(hi)) for lo, hi in f.support[: cfg.n])
    y_half = 2.0 * max(max(abs(lo), abs(hi)) for lo, hi in f.support[cfg.n:])
    return centered_window(cfg.n, cfg.m, x_half, y_half)


def _mass(task) -> Tuple[float, float]:
    """The one pool task of every scan: (mass, err) of |I f|^q over a region.

    task is (cfg, f, region, spec, ab), and q is cfg.q; with ab set the
    product kernel of the pair ab takes the place of the flag kernel.
    """
    cfg, f, region, spec, ab = task
    if ab is None:
        return lq_mass(cfg, f, region, cfg.q, spec)
    return lq_mass_dominating(cfg, ab, f, region, cfg.q, spec)


def _dilated(cfg: ExponentConfig, f: TestFunction, window: Window, delta: float, lam: float,
             spec: QuadratureSpec) -> Tuple[TestFunction, Tuple]:
    """f_dl, and the mass task of |I f_dl|^q over the window dilated with it."""
    rho = float(cfg.rho)
    fd = f.dilate(delta, lam, rho)
    return fd, (cfg, fd, window.dilated(delta, lam, rho), spec, None)


# ---------------------------------------------------------------------------
# dilation scan


def _dilation_row(cfg: ExponentConfig, fd: TestFunction, mass: Tuple[float, float],
                  delta: float, lam: float, spec: QuadratureSpec) -> Dict:
    """The row of r = |I f_dl|_q / |f_dl|_p from the mass of f_dl = fd."""
    # every pair is (delta, 1) or (1, lambda)
    if lam == 1.0 and delta == 1.0:
        case = "baseline"
    elif lam == 1.0:
        case = "delta"
    else:
        case = "lambda"
    try:
        pnorm = lp_norm(fd, cfg.p, spec)
    except AccuracyError as exc:
        return {
            "delta": delta, "lambda": lam, "qnorm": None, "qnorm_err": None,
            "pnorm": None, "value": exc.value, "err": exc.err,
            "label": "UNRESOLVED", "case": case,
        }
    qnorm, qnorm_err = _norm_from_mass(*mass, float(cfg.q))
    return {
        "delta": delta, "lambda": lam, "qnorm": qnorm, "qnorm_err": qnorm_err,
        "pnorm": pnorm, "value": qnorm / pnorm, "err": qnorm_err / pnorm,
        "label": "dilation", "case": case,
    }


def dilation_scan(
    cfg: ExponentConfig,
    f: TestFunction,
    deltas: Sequence[float],
    lams: Sequence[float],
    spec: QuadratureSpec,
    jobs: int = 1,
) -> ScanResult:
    """Measure r(delta, lambda) = |I f_dl|_q(window) / |f_dl|_p along both axes.

    The window is the centered box twice as wide as supp f. Each delta is
    scanned at lambda = 1 and each lambda at delta = 1; the window is
    carried along with the dilation, so the ratio obeys the exact scaling
    identity: the log-log delta slope equals
    (alpha + rho beta) + (n + rho m)(1/q - 1/p), zero under the balance
    condition. For lambda > 1 and f >= 0 the ratio is bounded below by
    lambda^{beta + m/q - m/p} times the baseline.
    """
    if cfg.p is None or cfg.q is None:
        raise ConfigIncompleteError("dilation_scan needs both p and q")
    if not f.is_nonnegative():
        raise PreconditionError("dilation_scan takes a nonnegative test function")
    window = _default_window(cfg, f)

    pairs = list(dict.fromkeys([(float(d), 1.0) for d in deltas]
                               + [(1.0, float(l)) for l in lams]))
    if (1.0, 1.0) not in pairs:
        pairs.insert(0, (1.0, 1.0))
    fds, tasks = zip(*(_dilated(cfg, f, window, d, l, spec) for d, l in pairs))
    masses = _run_rows(_mass, tasks, jobs)
    rows = [_dilation_row(cfg, fd, mass, d, l, spec)
            for fd, mass, (d, l) in zip(fds, masses, pairs)]

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
    return _scan_result(
        "dilate",
        ("delta", "lambda", "qnorm", "qnorm_err", "pnorm", "value", "err", "label", "case"),
        rows, _cfg_dict(cfg), spec,
        window=list(window.box),
        predicted_delta_slope=predicted_delta_slope,
        predicted_lambda_slope_lower=predicted_lambda_lower,
        delta_fit=delta_fit,
        delta_secant=delta_secant,
        lambda_secants=lambda_secants,
        unresolved_rows=unresolved,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# counterexample growth


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
    tasks = [(cfg, payload, CounterexampleRegion(n=n, m=m, R=r), spec, None) for r in all_radii]
    rows = [
        {"R": r, "value": mass, "err": err,
         "label": "growth" if r in user_radii else "decade-fill", "case": case}
        for r, (mass, err) in zip(all_radii, _run_rows(_mass, tasks, jobs))
    ]

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
    return _scan_result(
        "counterexample", ("R", "value", "err", "label", "case"), rows, _cfg_dict(cfg), spec,
        case=case,
        increasing=increasing,
        increments=increments,
        decade_fit=None if fit is None else fit.as_dict(),
        decade_fit_ok=fit_ok,
        last_increment_fraction=last_fraction,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# shell decay profile


def _region_row(region, mass: float, err: float) -> Dict:
    if isinstance(region, GapRegion):
        return {"k": None, "l": None, "value": mass, "err": err,
                "label": "gap", "case": ""}
    return {"k": region.k, "l": region.l, "value": mass, "err": err,
            "label": "shell", "case": shell_case(region)}


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

    # the gap row is handed to the pool first and written last, and the
    # (0,0) cube, the costliest task, second: the gap is the next costliest,
    # so the two workers start on the two largest tasks
    regions = [GapRegion(cfg.n, cfg.m, L)] + shell_family(cfg.n, cfg.m, L, k_max, l_max)
    masses = _run_rows(_mass, [(cfg, payload, r, spec, None) for r in regions], jobs)
    gap, *rows = (_region_row(r, *mass) for r, mass in zip(regions, masses))
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
    return _scan_result(
        "shells", ("k", "l", "value", "err", "label", "case"), rows, _cfg_dict(cfg), spec,
        L=L,
        burn_in=burn_in,
        aggregated_mass_by_k={str(k): agg[k] for k in ks},
        k_fit=None if fit is None else fit.as_dict(),
        k_fit_error=fit_error,
        case2_fit=case2_fit,
        per_l_fits=per_l_fits,
        total_shell_mass=total,
        tail_fraction=tail_fraction,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# frontier map


def _frontier_cell(cfg: ExponentConfig, fds: Optional[Sequence[TestFunction]],
                   masses: Sequence[Tuple[float, float]], spec: QuadratureSpec) -> Dict:
    """A cell's row from its masses: off the homogeneity line, of the indicators
    fds dilated by delta 0.5 and 2; on it (fds None), at DEFAULT_GROWTH_RADII."""
    alpha, beta = cfg.alpha, cfg.beta
    theorem = "THEOREM-BOUNDED" if check_formula_two(cfg) else "THEOREM-UNBOUNDED"

    if fds is not None:
        # off the homogeneity line: the dilation slope is the witness
        points = [_dilation_row(cfg, fd, mass, delta, 1.0, spec)
                  for fd, mass, delta in zip(fds, masses, (0.5, 2.0))]
        for r in points:
            if r["label"] == "UNRESOLVED":
                return {
                    "alpha": alpha, "beta": beta, "value": r["value"], "err": r["err"],
                    "label": f"{theorem}|UNRESOLVED", "case": "accuracy-error",
                }
        (d1, r1, e1), (d2, r2, e2) = ((r["delta"], r["value"], r["err"]) for r in points)
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
    incs = [
        (masses[i + 1][0] - masses[i][0], masses[i + 1][1] + masses[i][1])
        for i in range(len(masses) - 1)
    ]
    inc_prev, err_prev = incs[-2]
    inc_last, err_last = incs[-1]
    if inc_prev <= 0:
        value = err = 0.0
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

    cfgs = [ExponentConfig(n=n, m=m, alpha=a, beta=b, rho=rho_r, q=q_r)
            for a in alpha_rs for b in beta_rs]
    payload = make_signum_atom(n, m).payload
    f = indicator_box(n, m, tuple((-1.0, 1.0) for _ in range(n + m)))
    window = Window(n=n, m=m, box=tuple((2.0, 4.0) for _ in range(n))
                    + tuple((-4.0, 4.0) for _ in range(m)))
    # every cell's tasks go to one pool call; cells holds (cfg, fds) as _frontier_cell takes them
    cells = []
    tasks = []
    for cfg in cfgs:
        if cfg.homogeneity_ratio == 1 - Fraction(1) / q_r:
            cells.append((cfg, None))
            tasks += [(cfg, payload, CounterexampleRegion(n=n, m=m, R=r), spec, None)
                      for r in DEFAULT_GROWTH_RADII]
        else:
            # the slope's source exponent; p = 1 < q, so the config is valid
            cfg = replace(cfg, p=Fraction(1))
            fds, cell_tasks = zip(*(_dilated(cfg, f, window, d, 1.0, spec) for d in (0.5, 2.0)))
            cells.append((cfg, fds))
            tasks += cell_tasks
    masses = iter(_run_rows(_mass, tasks, jobs))
    rows = [
        _frontier_cell(cfg, fds, [next(masses) for _ in fds or DEFAULT_GROWTH_RADII], spec)
        for cfg, fds in cells
    ]

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
    config = {
        "n": n, "m": m, "rho": str(rho_r), "q": str(q_r),
        "alphas": [str(a) for a in alpha_rs],
        "betas": [str(b) for b in beta_rs],
    }
    return _scan_result(
        "frontier", ("alpha", "beta", "value", "err", "label", "case"), rows, config, spec,
        confusion=confusion,
        off_diagonal=off_diagonal,
        thresholds={
            "delta_slope_tol": DELTA_SLOPE_TOL,
            "growth_ratio_unbounded": GROWTH_RATIO_UNBOUNDED,
            "growth_ratio_bounded": GROWTH_RATIO_BOUNDED,
        },
        summary=summary,
    )


# ---------------------------------------------------------------------------
# product-kernel domination


def hls_iteration_check(
    cfg: ExponentConfig,
    f: TestFunction,
    spec: QuadratureSpec,
    jobs: int = 1,
) -> ScanResult:
    """Check that the flag kernel's image is dominated by the product kernel's.

    The flag kernel is bounded pointwise by |x|^{a-n}|y|^{b-m} with (a, b)
    the derived pair, so for f >= 0 the q-norms over any window are ordered;
    they are taken over the default window, twice as wide as supp f.
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
    window = _default_window(cfg, f)
    # the flag kernel, then the product kernel of the pair ab
    masses = _run_rows(_mass, [(cfg, f, window, spec, k) for k in (None, ab)], jobs)
    (left, left_err), (right, right_err) = (_norm_from_mass(*m, float(cfg.q)) for m in masses)
    ok = left <= right + left_err + right_err
    row = {
        "left": left, "left_err": left_err, "right": right, "right_err": right_err,
        "a": ab.a, "b": ab.b, "value": right - left, "err": left_err + right_err,
        "label": "DOMINATED" if ok else "VIOLATION", "case": "",
    }
    report = {k: row[k] for k in ("left", "left_err", "right", "right_err")}
    report.update(a=str(ab.a), b=str(ab.b), ok=ok, gap=right - left)
    return ScanResult(experiment="hls", columns=tuple(row), rows=[row],
                      metadata={"report": report})
