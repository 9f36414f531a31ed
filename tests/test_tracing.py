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
    quadrature,
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
def test_payload_nodes_count_both_inner_orders_of_apply(inner_tensor_sizes, x, y):
    # exterior, near-line and interior: one query evaluates the payload on
    # its whole inner tensor at orders g and g-1, one call each
    tracing = _tracing()
    cfg = ExponentConfig(n=1, m=1, alpha=Fraction(1, 2), beta=Fraction(1, 2), rho=Fraction(2))
    f = smooth_bump(1, 1)
    spec = QuadratureSpec(inner_cutoff=-40)
    g = spec.points_per_axis
    nodes = sum(int(inner_tensor_sizes(f, [[x], [y]], spec, order).item())
                for order in (g, g - 1))
    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.apply_operator(cfg, f, point_pair(x, y), spec)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.apply.calls"] == 1
    assert metrics["quadrature.payload.nodes"] == nodes
    assert metrics["quadrature.payload.calls"] == 2


def test_payload_nodes_count_every_inner_tensor_of_lq_mass(grid_spec, inner_tensor_sizes):
    # batching outer nodes changes how many payload calls there are, not the
    # nodes they evaluate: the g-order outer rule at inner orders g and g-1,
    # and the (g-1)-order outer rule at inner order g
    tracing = _tracing()
    cfg = ExponentConfig(n=1, m=1, alpha=Fraction(1, 2), beta=Fraction(1, 2), rho=Fraction(2))
    f = make_signum_atom(1, 1).payload
    shell = Shell(n=1, m=1, k=1, l=0, L=1)
    g = grid_spec.points_per_axis
    nodes = passes = 0
    for box, _ in shell.signed_boxes():
        for outer_order, inner_order in ((g, g), (g, g - 1), (g - 1, g)):
            outer = [p.nodes for p in quadrature._outer_plans(box, f, outer_order)]
            sizes = inner_tensor_sizes(f, outer, grid_spec, inner_order)
            nodes += int(sizes.sum())
            passes += sizes.size
    tracer = tracing.Tracer()
    with tracer.installed():
        flagint.lq_mass(cfg, f, shell, 2, grid_spec)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["quadrature.lq_mass.calls"] == 1
    assert metrics["quadrature.payload.nodes"] == nodes
    assert metrics["quadrature.payload.calls"] < passes
