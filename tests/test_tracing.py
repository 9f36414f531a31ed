"""The benchmark's tracer still finds every name it wraps.

bench/tracing.py wraps functions and methods of the package by name to
time each layer; a renamed or deleted name leaves that layer unmeasured.
These tests let the unit suite catch that, not only the benchmark's own
smoke tests (`PYTHONPATH=src python -m pytest -q bench`).
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import flagint
from flagint import (
    ExponentConfig,
    QuadratureSpec,
    Shell,
    make_signum_atom,
    point_pair,
    smooth_bump,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("flagint_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_wraps():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.missing == []
    assert tracing.leftover_wrappers() == []


def test_engine_calls_no_public_kernel_evaluator():
    # the engine evaluates the kernel through flagint.kernel.Kernel only;
    # the call goes through the module so that it reaches the wrapper
    tracing = _tracing()
    cfg = ExponentConfig(n=1, m=1, alpha=Fraction(1, 2), beta=Fraction(1, 2), rho=Fraction(2))
    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.apply_operator(cfg, smooth_bump(1, 1), point_pair(2.0, 0.5), QuadratureSpec())
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.apply.calls"] == 1
    assert metrics["kernel.calls"] == 0


@pytest.mark.parametrize("x, y", [(2.0, 0.5), (0.01, 0.3), (0.3, 0.2)])
def test_payload_nodes_count_both_inner_orders_of_apply(x, y):
    # exterior, near-line and interior: a grid pass takes the payload per
    # axis (TestFunction.axis_factor), which the tracer does not wrap, so a
    # query reports no payload call and no payload node at either inner
    # order, and with them no time per node
    tracing = _tracing()
    cfg = ExponentConfig(n=1, m=1, alpha=Fraction(1, 2), beta=Fraction(1, 2), rho=Fraction(2))
    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.apply_operator(cfg, smooth_bump(1, 1), point_pair(x, y),
                               QuadratureSpec(inner_cutoff=-40))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.apply.calls"] == 1
    assert metrics["quadrature.payload.nodes"] == 0
    assert metrics["quadrature.payload.calls"] == 0
    assert metrics["quadrature.ns_per_node"] == 0.0


def test_payload_nodes_count_every_inner_tensor_of_lq_mass(grid_spec):
    # the grid passes of lq_mass take the payload per axis too, and so does
    # lp_norm on its outer rule, so the tracer counts no payload node there
    tracing = _tracing()
    cfg = ExponentConfig(n=1, m=1, alpha=Fraction(1, 2), beta=Fraction(1, 2), rho=Fraction(2))
    f = make_signum_atom(1, 1).payload
    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.lq_mass(cfg, f, Shell(n=1, m=1, k=1, l=0, L=1), 2, grid_spec)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.lq_mass.calls"] == 1
    assert metrics["quadrature.payload.nodes"] == metrics["quadrature.payload.calls"] == 0

    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.lp_norm(f, 2, grid_spec)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.lp_norm.calls"] == 1
    assert metrics["quadrature.payload.nodes"] == metrics["quadrature.payload.calls"] == 0
