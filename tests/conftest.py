import functools
import os

import numpy as np
import pytest

from flagint import QuadratureSpec, quadrature

# Worker count for the parallel experiment drivers; capped so the suite
# behaves the same on small CI boxes and big workstations.
JOBS = min(4, os.cpu_count() or 1)


def pytest_configure(config):
    # the acceptance battery appends one [PASS]/[FAIL] line per criterion
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid_spec():
    return QuadratureSpec(
        method="grid",
        points_per_axis=4,
        seed=0,
        inner_cutoff=-20,
        target_rel_error=1e-3,
    )


@pytest.fixture(scope="session")
def mc_spec():
    return QuadratureSpec(
        method="monte-carlo",
        samples=20000,
        seed=0,
        inner_cutoff=-20,
        target_rel_error=1e-3,
    )


def _columns(f, i, plan):
    # the nodes of one axis plan with distinct (core flag, payload slot,
    # distance from the outer coordinate): nodes that share all three are
    # one column of the inner tensor
    slots = f.axis_factor(i, plan.nodes)[1] % f.payload_table.shape[i]
    return len(set(zip(plan.core.tolist(), slots.tolist(), plan.offsets.tolist())))


def _inner_tensor_sizes(f, outer_axes, spec, g):
    # inner tensor columns of each outer node, from the axis plans the grid
    # pass requests: graded toward the outer coordinate, finest cell
    # 2^inner_cutoff times the support side
    lengths = []
    for i, xs in enumerate(outer_axes):
        lo, hi = f.support[i]
        side = hi - lo
        max_cell = side / f.min_cells_hint if f.min_cells_hint > 1 else None
        lengths.append(np.array([
            _columns(f, i, quadrature._axis_plan(lo, hi, float(x), 2.0 ** spec.inner_cutoff * side,
                                                 f.breakpoints(i), g, max_cell))
            for x in xs
        ], dtype=np.int64))
    return functools.reduce(np.multiply.outer, lengths)


@pytest.fixture(scope="session")
def inner_tensor_sizes():
    return _inner_tensor_sizes
