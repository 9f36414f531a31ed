"""Spans around calls into flagint's modules, recorded from outside the package.

A Tracer replaces the public names of each module (and the methods of its
region, payload and kernel classes) with wrappers that record a span:
group, start, end, parent span and an optional work count. Nothing under
src/ changes; `installed()` puts every original back when it exits.

Pool workers are forked (the default start method on Linux before Python
3.14) with the wrappers in place, but a forked worker records into its own
copy of the tracer. The wrapper around
`flagint.experiments._run_rows` therefore hands the pool a `_RowTask` that
runs one row under a fresh span list and returns that list with the row,
and the parent adopts those spans under its own pool span. Row tasks run
in the parent (jobs 1) take the same path, so counts do not depend on
scheduling.

A call into a group from inside the same group is not recorded again, so
`calls` counts entries into a layer and `busy_s` never counts time twice.
Busy times are summed over processes: with a pool they can exceed wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

# (group, work kind, work amount, start, end, parent index)
Span = Tuple[str, str, int, float, float, int]

_MARK = "__bench_traced__"

_ROWS = "experiments.rows"


def _size(result) -> int:
    return len(result)


def _points(result) -> int:
    # kernel entry points return one value per point, or a bare float
    return getattr(result, "size", 1)


def _rows(result) -> int:
    # a ScanResult carries its rows; hls_iteration_check returns one report
    rows = getattr(result, "rows", None)
    return 1 if rows is None else len(rows)


# (module, name, group, work kind, work function); work kind "" records none
_FUNCTIONS = [
    *[("flagint.exponents", name, "exponents", "", None) for name in (
        "as_rational", "check_formula_one", "check_formula_two", "derive_ab",
        "strict_consequences", "heisenberg_map")],
    *[("flagint.kernel", name, "kernel", "kernel.points", _points) for name in (
        "kernel_eval", "dominating_kernel_eval", "product_kernel_points")],
    *[("flagint.atoms", name, "atoms", "", None) for name in (
        "validate_atom", "signum_atom_at_scale", "make_signum_atom",
        "make_random_atom", "noncancelling_counterpart", "atom_to_json",
        "atom_from_json")],
    ("flagint.quadrature", "lq_mass", "quadrature.lq_mass", "", None),
    ("flagint.quadrature", "lq_mass_dominating", "quadrature.lq_mass", "", None),
    ("flagint.quadrature", "lp_norm", "quadrature.lp_norm", "", None),
    ("flagint.quadrature", "apply_operator", "quadrature.apply", "", None),
    *[("flagint.experiments", name, "experiments.scan", _ROWS, _rows) for name in (
        "dilation_scan", "counterexample_growth", "shell_decay_profile",
        "frontier_map", "hls_iteration_check")],
    ("flagint.cli", "main", "cli.main", "", None),
]

# (module, class, method, group, work kind, work function)
_METHODS = [
    ("flagint.kernel", "FlagKernel", "eval_points", "kernel", "kernel.points", _points),
    ("flagint.kernel", "FlagKernel", "eval_norms", "kernel", "kernel.points", _points),
    ("flagint.quadrature", "TestFunction", "evaluate", "quadrature.payload",
     "quadrature.payload.nodes", _size),
    *[("flagint.domain", cls, "signed_boxes", "domain", "domain.boxes", _size)
      for cls in ("Cube", "Shell", "Window", "GapRegion", "CounterexampleRegion")],
    *[("flagint.domain", cls, "sample", "domain", "domain.samples", _size)
      for cls in ("Cube", "Shell", "Window", "GapRegion", "CounterexampleRegion")],
]

_MODULES = (
    "flagint.exponents", "flagint.kernel", "flagint.domain", "flagint.quadrature",
    "flagint.atoms", "flagint.experiments", "flagint.cli", "flagint",
)

_ENGINE = ("quadrature.lq_mass", "quadrature.lp_norm", "quadrature.apply")

# the installed tracer; pool workers reach it through their copy of this module
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open: Set[str] = set()  # groups with a span in progress
        self._patches: List[Tuple[object, str, object, bool]] = []
        self.missing: List[str] = []

    # -- recording ---------------------------------------------------------

    def call(self, group: str, kind: str, work: Optional[Callable], fn, args,
             kwargs, amount: int = 0):
        if group in self._open:
            return fn(*args, **kwargs)
        self._open.add(group)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((group, kind, 0, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if work is not None:
                amount = work(result)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._open.discard(group)
            self.spans[idx] = (group, kind, amount, t0, t1, parent)

    def adopt(self, spans: List[Span], parent: int) -> None:
        """Append spans recorded elsewhere; their roots hang under `parent`."""
        offset = len(self.spans)
        for group, kind, amount, t0, t1, p in spans:
            self.spans.append(
                (group, kind, amount, t0, t1, parent if p < 0 else p + offset)
            )

    def _pool(self, original, worker, tasks, jobs):
        pool_span = self._stack[-1]
        out = original(_RowTask(worker), tasks, jobs)
        for _, spans in out:
            self.adopt(spans, pool_span)
        return [row for row, _ in out]

    # -- installing --------------------------------------------------------

    def _wrap(self, fn, group, kind, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(group, kind, work, fn, args, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def _install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for mod_name, name, group, kind, work in _FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{name}")
                continue
            wrapper = self._wrap(original, group, kind, work)
            # every module that imported the name holds its own reference
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, name, group, kind, work in _METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            original = None if cls is None else vars(cls).get(name)
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{name}")
                continue
            self._patch(cls, name, self._wrap(original, group, kind, work))
        experiments = importlib.import_module("flagint.experiments")
        original_rows = getattr(experiments, "_run_rows", None)
        if original_rows is None:
            self.missing.append("flagint.experiments._run_rows")
            return
        tracer = self

        @functools.wraps(original_rows)
        def run_rows(worker, tasks, jobs):
            return tracer.call("experiments.pool", "experiments.jobs", None,
                               tracer._pool, (original_rows, worker, tasks, jobs),
                               {}, amount=jobs)

        setattr(run_rows, _MARK, True)
        self._patch(experiments, "_run_rows", run_rows)

    def _uninstall(self) -> None:
        for owner, name, value, had in reversed(self._patches):
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        _ACTIVE = self
        try:
            self._install()
            yield self
        finally:
            self._uninstall()
            _ACTIVE = None


class _RowTask:
    """Pool callable: runs one row under a fresh span list and returns both."""

    def __init__(self, worker) -> None:
        self.worker = worker

    def __call__(self, task):
        tracer = _ACTIVE
        if tracer is None:
            raise RuntimeError("pool workers must be forked from the traced process")
        saved = tracer.spans, tracer._stack, tracer._open
        tracer.spans, tracer._stack, tracer._open = [], [], set()
        try:
            row = tracer.call("experiments.row", "", None, self.worker, (task,), {})
            return row, tracer.spans
        finally:
            tracer.spans, tracer._stack, tracer._open = saved


def leftover_wrappers() -> List[str]:
    """Names in flagint that still hold a tracing wrapper."""
    found = []
    for mod in map(importlib.import_module, _MODULES):
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and busy times from one traced run's spans."""
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    work: Dict[str, int] = defaultdict(int)
    jobs = 0
    engine_children = 0.0  # payload and domain time inside engine calls
    serial_tail = 0.0
    first_scan = last_scan = None
    main_span = None
    # per span: (inside an engine call, inside a scan, inside a row task)
    flags: List[Tuple[bool, bool, bool]] = []
    for group, kind, amount, t0, t1, parent in spans:
        up = flags[parent] if parent >= 0 else (False, False, False)
        pgroup = spans[parent][0] if parent >= 0 else ""
        in_engine = up[0] or pgroup in _ENGINE
        in_scan = up[1] or pgroup == "experiments.scan"
        in_row = up[2] or pgroup == "experiments.row"
        flags.append((in_engine, in_scan, in_row))
        dt = t1 - t0
        calls[group] += 1
        busy[group] += dt
        if kind:
            work[kind] += amount
        if group == "experiments.pool":
            jobs = max(jobs, amount)
        elif group == "experiments.scan":
            first_scan = t0 if first_scan is None else min(first_scan, t0)
            last_scan = t1 if last_scan is None else max(last_scan, t1)
        elif group == "cli.main" and main_span is None:
            main_span = (t0, t1)
        if in_engine and group in ("quadrature.payload", "domain"):
            engine_children += dt
        if group in _ENGINE and in_scan and not in_row:
            serial_tail += dt

    engine_busy = sum(busy[g] for g in _ENGINE)
    nodes = work["quadrature.payload.nodes"]
    payload_calls = calls["quadrature.payload"]
    scan_s = busy["experiments.scan"]
    row_busy = busy["experiments.row"]
    parse_s = write_s = 0.0
    if main_span is not None:
        parse_s = (first_scan if first_scan is not None else main_span[1]) - main_span[0]
        write_s = main_span[1] - (last_scan if last_scan is not None else main_span[1])
    return {
        "cli.parse_s": parse_s,
        "cli.write_s": write_s,
        "exponents.calls": calls["exponents"],
        "exponents.busy_s": busy["exponents"],
        "kernel.calls": calls["kernel"],
        "kernel.points": work["kernel.points"],
        "kernel.busy_s": busy["kernel"],
        "domain.boxes": work["domain.boxes"],
        "domain.samples": work["domain.samples"],
        "domain.busy_s": busy["domain"],
        "atoms.calls": calls["atoms"],
        "atoms.busy_s": busy["atoms"],
        "quadrature.lq_mass.calls": calls["quadrature.lq_mass"],
        "quadrature.lq_mass.busy_s": busy["quadrature.lq_mass"],
        "quadrature.lp_norm.calls": calls["quadrature.lp_norm"],
        "quadrature.lp_norm.busy_s": busy["quadrature.lp_norm"],
        "quadrature.apply.calls": calls["quadrature.apply"],
        "quadrature.apply.busy_s": busy["quadrature.apply"],
        "quadrature.payload.calls": payload_calls,
        "quadrature.payload.nodes": nodes,
        "quadrature.payload.busy_s": busy["quadrature.payload"],
        "quadrature.nodes_per_payload_call": nodes / payload_calls if payload_calls else 0.0,
        "quadrature.ns_per_node": 1e9 * engine_busy / nodes if nodes else 0.0,
        "quadrature.engine_self_s": engine_busy - engine_children,
        "experiments.rows": work[_ROWS],
        "experiments.scan_s": scan_s,
        "experiments.row_busy_s": row_busy,
        "experiments.parallel_efficiency": (
            row_busy / (jobs * scan_s) if jobs and scan_s else 0.0
        ),
        "experiments.serial_tail_s": serial_tail,
    }
