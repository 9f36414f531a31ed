"""The integration engine's settings, in a module that imports no numpy.

The CLI builds and checks a QuadratureSpec before it loads the engine, so
that a setting the spec refuses costs no numpy import.
"""

from __future__ import annotations

from dataclasses import dataclass

# Largest Gauss-Legendre order a spec may ask for. leggauss(g) forms a g x g
# matrix before any other check (a 32 MB peak at g = 2000); the orders in use
# are 4 to 12.
MAX_POINTS_PER_AXIS = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the integration engine.

    inner_cutoff is a dyadic exponent: the smallest resolved distance from
    the singular coordinate is 2^inner_cutoff times the support side of the
    axis, and everything inside it is bounded analytically. The grading is
    built in offsets from the point, so that distance holds far below the
    spacing of floats near the point. A grid pass whose kernel overflows
    at the nodes nearest the point (their squared distance underflows
    below about 2^-537) raises UsageError.

    The grid is deterministic. A run's seed is no engine setting: the CLI
    names the output files from it.
    """

    points_per_axis: int = 4
    inner_cutoff: int = -20
    target_rel_error: float = 1e-3

    def __post_init__(self) -> None:
        if not (4 <= self.points_per_axis <= MAX_POINTS_PER_AXIS):
            raise ValueError(f"points_per_axis must lie in [4, {MAX_POINTS_PER_AXIS}]")
        if not (-1060 <= self.inner_cutoff <= -1):
            raise ValueError("inner_cutoff must be a negative dyadic exponent >= -1060")
        if not self.target_rel_error > 0:
            raise ValueError("target_rel_error must be positive")
