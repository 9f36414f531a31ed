"""Quadrature for the singular convolution and the norms built on it.

Strategy: every integral is taken over explicit boxes, subdivided per axis
into dyadic cells graded toward the singular coordinate (u toward x, v
toward y), each cell handled by a tensor Gauss-Legendre rule. The
innermost cells around u = x (where the kernel is a pure power) are
excluded from the numeric sum and bounded analytically; that bound goes
into the reported error estimate, never into the value. Nothing here
integrates over an unbounded region.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import AccuracyError, PreconditionError, UsageError
from .exponents import DerivedExponents, ExponentConfig, as_rational
from .kernel import Kernel, PointPair, flag_kernel, product_kernel, riesz_kernel
# the spec and its cap live in a numpy-free module, so that the CLI can
# refuse a bad spec before the engine loads; both stay importable from here
from .spec import MAX_POINTS_PER_AXIS, QuadratureSpec

Bounds = Tuple[Tuple[float, float], ...]

# Tensor-grid quadrature is allowed only up to this total dimension; beyond
# it the cost is exponential, and such a payload is refused.
MAX_GRID_DIMENSION = 4

# Hard cap on the inner tensor columns of one outer node (its nodes, mirrored
# ones folded), to fail loudly instead of swapping.
MAX_GRID_NODES = 12_000_000

# Inner tensor columns evaluated together when a pass batches outer nodes.
_BLOCK_NODES = 2 ** 14

_RELATIVE_FLOOR = 1e-300

# Axis plans kept by _axis_plan: those of the outer rules. Breakpoint sets kept
# by _axis_breaks: also one per axis and centre of each inner pass. Both recur
# across lq_mass calls whose boxes share a factor interval, as consecutive
# dyadic shells do, so each holds a few boxes' sets.
_AXIS_PLAN_CACHE = 256


def _axis_views(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-axis 1-d arrays reshaped to broadcast over their tensor product."""
    views = []
    for i, a in enumerate(arrays):
        shape = [1] * len(arrays)
        shape[i] = -1
        views.append(a.reshape(shape))
    return views


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A bounded, compactly supported payload for the operator.

    A payload is a list of cells (box, value) with disjoint interiors. With
    a center and a radius per axis its one cell, the support, is multiplied
    by the profile exp(1 - 1/(1 - w^2)), w = (z - center) / radius, on every
    axis: the smooth bump, its amplitude in the cell. support is the
    bounding box over all n+m axes (m = 0 is allowed for one-variable
    work); every cell lies within it.
    """

    n: int
    m: int
    support: Bounds
    cells: Tuple[Tuple[Bounds, float], ...]
    center: Tuple[float, ...] = ()
    radius: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        if len(self.support) != self.dim:
            raise ValueError("support must have n+m axis intervals")
        for lo, hi in self.support:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("support intervals must be finite and nonempty")
        for box, value in self.cells:
            if not math.isfinite(value):
                raise ValueError(f"cell values must be finite, got {value}")
            if not all(lo < hi for lo, hi in box):
                raise ValueError("cell intervals must be nonempty")
            if not all(s_lo <= lo and hi <= s_hi
                       for (lo, hi), (s_lo, s_hi) in zip(box, self.support)):
                raise ValueError("every cell must lie within the support")
        if (self.center or self.radius) and (
            len(self.center) != self.dim or len(self.radius) != self.dim
            or len(self.cells) != 1 or self.cells[0][0] != self.support
        ):
            raise ValueError("profile needs center, radius per axis, one cell that is the support")

    @property
    def dim(self) -> int:
        return self.n + self.m

    @property
    def min_cells_hint(self) -> int:
        """Cells per axis that a plan over the support has at least: a profile has no edges."""
        return 8 if self.radius else 1

    def sup_bound(self) -> float:
        return max((abs(v) for _, v in self.cells), default=0.0)

    def is_nonnegative(self) -> bool:
        return all(v >= 0.0 for _, v in self.cells)

    @cached_property
    def _breaks(self) -> Tuple[Tuple[float, ...], ...]:
        # per axis: the support bounds and every cell edge, sorted
        return tuple(tuple(sorted({lo, hi}.union(*(box[i] for box, _ in self.cells))))
                     for i, (lo, hi) in enumerate(self.support))

    def breakpoints(self, axis: int) -> Tuple[float, ...]:
        return self._breaks[axis]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Payload values at points (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have {self.dim} columns")
        coords = [pts[:, i] for i in range(self.dim)]
        values = self.payload_table[tuple(self._slots(i, z) for i, z in enumerate(coords))]
        if not self.radius:
            return values
        # exp(sum of steps) times the cell where the profile is positive, +0.0 elsewhere
        within, steps = zip(*(self._profile_step(i, z) for i, z in enumerate(coords)))
        total = np.zeros(len(pts))
        for inside, step in zip(within, steps):
            total[inside] += step
        res = np.exp(total) * values
        res[~reduce(np.logical_and, within)] = 0.0
        return res

    def axis_factor(self, axis: int, nodes: np.ndarray) -> Tuple[Union[np.ndarray, float],
                                                                  np.ndarray]:
        """Per node of one axis, its factor of the payload and its slot in payload_table.

        On a tensor of per-axis nodes the payload is the product of the
        nodes' factors times payload_table at their slots. Without a profile
        the factor is 1 and the slot is the node's slot of the cell table.
        With one the factor is exp(step), 0 outside, and every slot is 0:
        the one cell is the support, and slot 0 holds its value.
        """
        z = np.asarray(nodes, dtype=float)
        if not self.radius:
            return 1.0, self._slots(axis, z)
        inside, step = self._profile_step(axis, z)
        factor = np.zeros(z.shape)
        factor[inside] = np.exp(step)
        return factor, np.zeros(z.shape, dtype=np.intp)

    @cached_property
    def payload_table(self) -> np.ndarray:
        """The payload's values per tuple of axis slots (see axis_factor)."""
        return self._cell_table[1]

    def _profile_step(self, axis: int, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Whether each coordinate lies inside the profile on this axis, and the exponent steps.

        The steps are those of the coordinates inside, in their order; there
        1 - w^2 >= 2^-53, so no division fails.
        """
        w = (z - self.center[axis]) / self.radius[axis]
        w2 = w * w
        inside = w2 < 1.0
        return inside, 1.0 - 1.0 / (1.0 - w2[inside])

    @cached_property
    def _cell_table(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Per axis the edges a node's slot is searched in, and the value of every slot.

        An axis with breakpoints b_0 < ... < b_K has K + 2 slots: slot j < K
        holds the nodes in [b_j, b_{j+1}), slot K the nodes at the support
        top b_K, and the last slot the rest (below, above, NaN). The table
        holds the cell rule at one node of each slot, b_j or NaN; every node
        of a slot meets the same cell edges, so it gets the same value.
        """
        edges = [np.array(b + (np.nextafter(b[-1], np.inf),)) for b in self._breaks]
        nodes = _axis_views([np.array(b + (np.nan,)) for b in self._breaks])
        # half-open cells, closed against the support top; overlapping cells add
        table = np.zeros(tuple(len(b) + 1 for b in self._breaks))
        for box, value in self.cells:
            mask = True
            for z, (lo, hi), (_, top) in zip(nodes, box, self.support):
                upper = (z < hi) | ((hi == top) & (z <= hi))
                mask = mask & (z >= lo) & upper
            table[mask] += value
        return edges, table

    def _slots(self, axis: int, z: np.ndarray) -> np.ndarray:
        # nodes below the first edge wrap to the last slot, with those above and NaN
        edges = self._cell_table[0][axis]
        return (np.searchsorted(edges, z, side="right") - 1) % len(edges)

    def dilate(self, delta: float, lam: float = 1.0, rho: float = 1.0) -> "TestFunction":
        """The payload u -> f(u/delta, v/(delta^rho lam)); values unchanged."""
        sx = float(delta)
        sy = float(delta) ** float(rho) * float(lam)
        if not (sx > 0 and sy > 0):
            raise ValueError("dilation factors must be positive")
        factors = [sx] * self.n + [sy] * self.m

        def moved(box: Bounds) -> Bounds:
            return tuple((lo * factors[i], hi * factors[i]) for i, (lo, hi) in enumerate(box))
        return replace(self, support=moved(self.support),
                       cells=tuple((moved(box), v) for box, v in self.cells),
                       center=tuple(c * factors[i] for i, c in enumerate(self.center)),
                       radius=tuple(r * factors[i] for i, r in enumerate(self.radius)))


def indicator_box(n: int, m: int, box: Bounds, value: float = 1.0) -> TestFunction:
    """value on the closed box, 0 elsewhere: a payload of one cell."""
    return piecewise_constant(n, m, [(box, value)])


def smooth_bump(
    n: int,
    m: int,
    center: Optional[Sequence[float]] = None,
    radius: Optional[Sequence[float]] = None,
    amplitude: float = 1.0,
) -> TestFunction:
    dim = n + m
    c = tuple(float(v) for v in (center if center is not None else [0.0] * dim))
    if radius is None:
        radius = [1.0] * dim
    elif isinstance(radius, (int, float)):
        radius = [float(radius)] * dim
    r = tuple(float(v) for v in radius)
    if any(v <= 0 for v in r):
        raise ValueError("bump radii must be positive")
    support = tuple((c[i] - r[i], c[i] + r[i]) for i in range(dim))
    return TestFunction(n=n, m=m, support=support, cells=((support, float(amplitude)),),
                        center=c, radius=r)


def _boxes_overlap(a: Bounds, b: Bounds) -> bool:
    return all(lo1 < hi2 and lo2 < hi1 for (lo1, hi1), (lo2, hi2) in zip(a, b))


def piecewise_constant(n: int, m: int, cells: Sequence[Tuple[Bounds, float]]) -> TestFunction:
    norm_cells = tuple((tuple(tuple(iv) for iv in box), float(v)) for box, v in cells)
    if not norm_cells:
        raise ValueError("need at least one cell")
    dim = n + m
    for box, _ in norm_cells:
        if len(box) != dim:
            raise ValueError("every cell box must have n+m axis intervals")
    for i, (box_i, _) in enumerate(norm_cells):
        for box_j, _ in norm_cells[i + 1:]:
            if _boxes_overlap(box_i, box_j):
                raise ValueError("payload cells must have disjoint interiors")
    support = tuple(
        (min(box[i][0] for box, _ in norm_cells), max(box[i][1] for box, _ in norm_cells))
        for i in range(dim)
    )
    return TestFunction(n=n, m=m, support=support, cells=norm_cells)


# share of the relative target that sufficient_inner_cutoff gives the core bound
_CUTOFF_MARGIN = 0.25


def sufficient_inner_cutoff(alpha: float, dim: int, target_rel_error: float) -> int:
    """A cutoff exponent whose analytic core bound sits below the target.

    Sized so dim 2^dim (2^e)^alpha / alpha <= _CUTOFF_MARGIN * target_rel_error,
    i.e. assuming the integral and payload are O(1); callers with very
    small or large values should pass an adjusted target.
    """
    a = float(alpha)
    if not 0 < a:
        raise ValueError("alpha must be positive")
    rhs = _CUTOFF_MARGIN * target_rel_error * a / (dim * 2.0 ** dim)
    e = min(-4, math.floor(math.log2(rhs) / a))
    if e < -1060:
        raise UsageError(
            f"alpha={alpha} needs cutoff 2^{e}, below float range; use a looser target"
        )
    return e


# ---------------------------------------------------------------------------
# graded partitions and axis plans


@lru_cache(maxsize=64)
def _gauss_rules(orders: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes and the weights of the Gauss rules of the orders, each joined in one array.

    The arrays are cached and shared, so they are read-only.
    """
    rules = tuple(np.concatenate(rule)
                  for rule in zip(*map(np.polynomial.legendre.leggauss, orders)))
    for arr in rules:
        arr.flags.writeable = False
    return rules


@dataclass(frozen=True)
class _AxisPlan:
    """The Gauss nodes of one axis, graded toward a center.

    Mirrored nodes, on the two sides of the center, have the same distance
    from it to the bit. Where there are such nodes the plan lists its nodes
    by distance, so nodes of the same distance are neighbours.
    """

    breaks: np.ndarray    # cell boundaries, sorted
    offsets: np.ndarray   # per node, its exact distance |node - center|
    nodes: np.ndarray     # per node, center plus its signed offset, rounded
    weights: np.ndarray
    core: np.ndarray      # per-node: node lies in a cell touching the center
    has_core: bool        # some node does


@lru_cache(maxsize=_AXIS_PLAN_CACHE)
def _axis_breaks(
    lo: float,
    hi: float,
    center: float,
    finest: float,
    extra: Sequence[float],
    max_cell: Optional[float],
    split_within: Optional[Tuple[float, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The cell boundaries of an axis plan as offsets from center, and as coordinates.

    The cuts of [lo, hi] are the radii finest * 2^k (from the distance when
    center lies outside), exact as offsets, so the cells on the two sides
    of the center mirror each other bit for bit. A payload edge in extra is
    merged in unless it lies within rounding of a radius point or an end.
    Each cell inside split_within wider than max_cell is then cut into
    equal parts counted from its end nearer the center. The few dozen cuts
    are built in Python floats; the arrays are read-only, as they are
    shared, and the orders g and g-1 share them. Raises UsageError when the
    offsets of lo and hi lose more than 2^-20 of the width to rounding, as
    they can from about 2^32 widths away.
    """
    if not (lo < hi and finest > 0.0):
        raise ValueError("need lo < hi and finest > 0")
    a, b = lo - center, hi - center
    # written so that a width or a center that is not finite is refused too
    if not abs((b - a) - (hi - lo)) <= 2.0 ** -20 * (hi - lo):
        raise UsageError(
            f"the point {center!r} is too far from [{lo!r}, {hi!r}]: its offsets "
            "from the point lose more than 2^-20 of the interval's width to rounding"
        )
    dist, dmax = max(a, -b, 0.0), max(-a, b)
    r = finest if dist <= finest else dist
    radii = []
    while r < dmax:
        radii.append(r)
        r *= 2.0  # doubling a float is exact
    # the radii inside (-b, -a) are cuts below the center, those inside (a, b) above it
    below = radii[bisect.bisect_right(radii, -b):bisect.bisect_left(radii, -a)]
    above = radii[bisect.bisect_right(radii, a):bisect.bisect_left(radii, b)]
    fixed = [a] + [-s for s in reversed(below)] + ([0.0] if a < 0.0 < b else []) + above + [b]
    cuts = list(fixed)
    tol = 1e-15 * max(abs(lo), abs(hi), abs(center))
    for t in {e - center for e in extra}:
        # fixed[k - 1] < t <= fixed[k], both ends of the interval among the cuts
        k = bisect.bisect_left(fixed, t)
        if 0 < k < len(fixed) and min(t - fixed[k - 1], fixed[k] - t) > tol:
            bisect.insort(cuts, t)
    if max_cell is not None and max_cell > 0:
        w0, w1 = (z - center for z in split_within or (-math.inf, math.inf))
        split = cuts[:1]
        for x0, x1 in zip(cuts, cuts[1:]):
            if x1 - x0 > max_cell and w0 < x1 and x0 < w1:
                # x0 + step * j for j = 1, ..., count - 1, and below the
                # center the same points as x1 - step * (count - j)
                count = math.ceil((x1 - x0) / max_cell)
                step = (x1 - x0) / count
                split += [x1 - step * (count - j) if x1 <= 0.0 else x0 + step * j
                          for j in range(1, count)]
            split.append(x1)
        cuts = split
    cuts = np.array(cuts)
    breaks = center + cuts
    for arr in (cuts, breaks):
        arr.flags.writeable = False
    return cuts, breaks


def _cell_nodes(a: np.ndarray, b: np.ndarray, center, finest, ref_nodes: np.ndarray,
                ref_weights: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The Gauss nodes of the cells [a, b], given as offsets from center.

    Returns per cell and reference node the node's distance |node - center|,
    its weight and its coordinate, and per cell whether it is a core cell:
    it lies within finest of the center. center broadcasts against the
    (cell, node) arrays and finest against the cells.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    # the distances from |mid|, so that mirrored cells give them the same bits
    dist = np.abs(mid)[:, None] + half[:, None] * ref_nodes
    nodes = center + np.copysign(dist, mid[:, None])
    core = np.maximum(np.maximum(a, -b), 0.0) < finest * (1.0 - 1e-12)
    return dist, half[:, None] * ref_weights, nodes, core


@lru_cache(maxsize=_AXIS_PLAN_CACHE)
def _axis_plan(
    lo: float,
    hi: float,
    center: float,
    finest: float,
    extra: Sequence[float],
    g: int,
    max_cell: Optional[float] = None,
    split_within: Optional[Tuple[float, float]] = None,
) -> _AxisPlan:
    cuts, breaks = _axis_breaks(lo, hi, center, finest, extra, max_cell, split_within)
    dist, weights, nodes, cell_core = _cell_nodes(cuts[:-1], cuts[1:], center, finest,
                                                  *_gauss_rules((g,)))
    offsets, weights, nodes, core = (dist.ravel(), weights.ravel(), nodes.ravel(),
                                     np.repeat(cell_core, g))
    if cuts[0] < 0.0 < cuts[-1]:
        # cells on both sides: the nodes by distance, so mirrored ones are neighbours
        order = np.argsort(offsets, kind="stable")
        offsets, weights, nodes, core = (arr[order] for arr in (offsets, weights, nodes, core))
    # plans are cached and shared, so no caller may write into them
    for arr in (offsets, nodes, weights, core):
        arr.flags.writeable = False
    return _AxisPlan(breaks=breaks, offsets=offsets, nodes=nodes, weights=weights, core=core,
                     has_core=bool(cell_core.any()))


# ---------------------------------------------------------------------------
# analytic bounds for the excluded core and kernel tails


def _power_mass_bound(dim: int, power: float, radius: float) -> float:
    """Bound for the integral of |z|^{power-dim} over the box |z|_inf <= radius.

    Uses |z|_2 >= |z|_inf and the exact max-norm shell volume; exact for
    dim = 1, within a dimensional constant otherwise. Needs power > 0.
    """
    if radius <= 0.0:
        return 0.0
    return dim * 2.0 ** dim * radius ** power / power


def _box_tail_bound(box: Bounds, point: np.ndarray, power: float, dim: int) -> float:
    """Bound for the integral of |p - z|^{power-dim} over the box (power > 0)."""
    far = max(max(abs(p - lo), abs(p - hi)) for p, (lo, hi) in zip(point, box))
    bound = _power_mass_bound(dim, power, far)
    dist = max(max(lo - p, p - hi, 0.0) for p, (lo, hi) in zip(point, box))
    if dist > 0.0:
        bound = min(bound, math.prod(hi - lo for lo, hi in box) * dist ** (power - dim))
    return bound


# ---------------------------------------------------------------------------
# the convolution engine


def _payload_grading(f: TestFunction, i: int) -> Tuple:
    """The extra, max_cell and split_within of every plan on axis i, which the payload fixes.

    Its edges are breakpoints, and cells in its support are at most side /
    min_cells_hint wide.
    """
    lo, hi = f.support[i]
    return f.breakpoints(i), (hi - lo) / f.min_cells_hint if f.min_cells_hint > 1 else None, \
        (lo, hi)


def _resolved(f: TestFunction, spec: QuadratureSpec, i: int) -> float:
    """The smallest resolved distance from the singular coordinate on axis i."""
    lo, hi = f.support[i]
    return 2.0 ** spec.inner_cutoff * (hi - lo)


def _tensor_weights(weights: Sequence[np.ndarray]) -> np.ndarray:
    """The weights of a tensor rule."""
    return reduce(np.multiply.outer, weights)


def _core_groups(kernel: Kernel) -> Tuple[Tuple[range, bool, float], ...]:
    """The u axes and the v axes, each with whether it may exclude a core and its power.

    Only a kernel singular on v = 0 excludes a v core.
    """
    n, m = kernel.n, kernel.m
    return ((range(0, n), True, kernel.u_power),
            (range(n, n + m), kernel.v_singular, kernel.v_power))


def _core_flags(kernel: Kernel, has_core: Sequence) -> List:
    """Per group, whether its core is excluded: every axis of it has core cells.

    has_core[i] says whether the plan of axis i has core cells, as an array
    that broadcasts over a tensor of outer nodes.
    """
    return [
        singular and reduce(np.logical_and, [has_core[i] for i in axes], True)
        for axes, singular, _ in _core_groups(kernel)
    ]


@dataclass(eq=False)
class _Run:
    """Consecutive outer coordinates of one axis, with their inner plans joined.

    Within one outer coordinate the nodes with the same distance from it,
    payload slot and core flag are one column: the kernel takes the same
    value on them. The columns split into groups: runs of consecutive
    columns with the same outer coordinate, payload slot and core flag.
    """

    outer: range          # the outer indices
    offsets: np.ndarray   # per column, the distance of its nodes from the outer coordinate
    scale: np.ndarray     # per column, the sum of its nodes' weights times payload factors
    starts: np.ndarray    # per group, its first column
    slots: np.ndarray     # per group, its payload slot
    core: np.ndarray      # per group, whether its nodes are core nodes
    owners: np.ndarray    # per outer coordinate, its first group
    widths: List[int]     # per outer coordinate, its number of columns

    def part(self, a: int, b: int) -> "_Run":
        """The run of the outer coordinates a, ..., b-1 of this one, which starts at 0."""
        if (a, b) == (0, len(self.outer)):
            return self
        g0, g1 = np.append(self.owners, len(self.starts))[[a, b]]
        c0, c1 = sum(self.widths[:a]), sum(self.widths[:b])
        return _Run(outer=range(a, b), offsets=self.offsets[c0:c1], scale=self.scale[c0:c1],
                    starts=self.starts[g0:g1] - c0, slots=self.slots[g0:g1],
                    core=self.core[g0:g1], owners=self.owners[a:b] - g0,
                    widths=self.widths[a:b])


def _split_runs(lengths: Sequence[int], cap: float) -> List[Tuple[int, int]]:
    """Consecutive index ranges whose lengths sum to at most cap.

    An index whose length alone exceeds cap is a range by itself.
    """
    runs = []
    start = total = 0
    for j, size in enumerate(lengths):
        if j > start and total + size > cap:
            runs.append((start, j))
            start, total = j, 0
        total += size
    runs.append((start, len(lengths)))
    return runs


def _inner_runs(f: TestFunction, outer_axes: Sequence[Sequence[float]], spec: QuadratureSpec,
                orders: Sequence[int]) -> Tuple[List[List[_Run]], List[np.ndarray]]:
    """Per order, the run of each axis over all its outer coordinates, mirrored nodes folded.

    Also returns per axis whether the plan at each outer coordinate has core
    cells. The plans of every order, axis and outer coordinate are built at
    once: each outer coordinate's cells come from _axis_breaks and take the
    Gauss nodes of every order in one array. A plan's nodes are sorted as
    _axis_plan sorts them, by distance where it has cells on both sides of
    the outer coordinate and cell by cell otherwise, then stably by payload
    slot. So the nodes of a column are neighbours, and each column and each
    group sums its nodes in the order of a run of that plan alone.
    """
    cuts, centers, finests, bounds = [], [], [], [0]
    for i, xs in enumerate(outer_axes):
        finest, grading = _resolved(f, spec, i), _payload_grading(f, i)
        cuts += [_axis_breaks(*f.support[i], float(x), finest, *grading)[0] for x in xs]
        centers += [float(x) for x in xs]
        finests += [finest] * len(xs)
        bounds.append(len(cuts))
    plans, counts = len(cuts), [len(c) - 1 for c in cuts]
    rows = list(itertools.accumulate([0] + counts))  # per plan its first cell, then the end
    cell_plan = np.repeat(np.arange(plans, dtype=np.int32), counts)
    dist, weights, nodes, cell_core = _cell_nodes(
        np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts]),
        np.repeat(centers, counts)[:, None], np.repeat(finests, counts),
        *_gauss_rules(tuple(orders)))
    has_core = np.logical_or.reduceat(cell_core, rows[:-1])
    # the sort key: plan (order, then axis and outer coordinate), then payload slot
    size = max(f.payload_table.shape)
    key = np.repeat(np.arange(len(orders), dtype=np.int32) * np.int32(plans), orders)
    key = (key + cell_plan[:, None]) * np.int32(size)
    for i in range(len(outer_axes)):
        axis = slice(rows[bounds[i]], rows[bounds[i + 1]])
        factor, slots = f.axis_factor(i, nodes[axis])
        key[axis] += slots
        weights[axis] *= factor
    # within a plan by distance where it has cells on both sides, else cell by
    # cell: lexsort is stable, so nodes of one key and distance keep that order
    two_sided = np.array([c[0] < 0.0 < c[-1] for c in cuts])[cell_plan, None]
    order = np.lexsort((np.where(two_sided, dist, 0.0).ravel(), key.ravel()))
    del nodes
    core = cell_core[order // key.shape[1]]
    key, dist, terms = key.ravel()[order], dist.ravel()[order], weights.ravel()[order]
    del weights, order
    # a group starts where the key or the core flag changes, a column also
    # where the distance does
    group = np.concatenate([[True], (key[1:] != key[:-1]) | (core[1:] != core[:-1])])
    columns = np.flatnonzero(group | np.append(False, dist[1:] != dist[:-1]))
    starts = np.flatnonzero(group[columns])
    firsts = columns[starts]
    offsets, scale = dist[columns], np.add.reduceat(terms, columns)
    slots, core = key[firsts] % size, core[firsts]
    # per plan its first column and its first group, then the ends
    cols = np.searchsorted(key[columns], np.arange(len(orders) * plans + 1) * size)
    owners = np.searchsorted(starts, cols)
    widths, cols, firsts = np.diff(cols).tolist(), cols.tolist(), owners.tolist()

    def run(p0: int, p1: int) -> _Run:
        c0, c1, g0, g1 = cols[p0], cols[p1], firsts[p0], firsts[p1]
        return _Run(outer=range(p1 - p0), offsets=offsets[c0:c1], scale=scale[c0:c1],
                    starts=starts[g0:g1] - c0, slots=slots[g0:g1], core=core[g0:g1],
                    owners=owners[p0:p1] - g0, widths=widths[p0:p1])

    axes = list(zip(bounds, bounds[1:]))
    return ([[run(k * plans + a, k * plans + b) for a, b in axes] for k in range(len(orders))],
            [has_core[a:b] for a, b in axes])


def _blocks(runs: Sequence[_Run]) -> List[List[_Run]]:
    """Per axis, the parts of its run whose tensor products are the blocks of one pass.

    Axes take their parts from the fewest columns up, each an equal share of
    what is left of _BLOCK_NODES, so a short axis is one part and leaves the
    rest to the long ones. A block's tensor fits the budget unless one outer
    node's tensor alone does not; such a node is never split, and runs of
    one outer node each are the one block as they are. Raises UsageError
    when an outer node's tensor has more than MAX_GRID_NODES columns.
    """
    if math.prod(max(r.widths) for r in runs) > MAX_GRID_NODES:
        sizes = reduce(np.multiply.outer, [np.array(r.widths, dtype=np.int64) for r in runs])
        raise UsageError(
            f"grid tensor would need {int(sizes.flat[np.argmax(sizes > MAX_GRID_NODES)])} "
            "nodes; use a coarser cutoff"
        )
    if all(len(r.outer) == 1 for r in runs):
        return [[r] for r in runs]
    order = sorted(range(len(runs)), key=lambda i: len(runs[i].offsets))
    left = float(_BLOCK_NODES)
    out: List[List[_Run]] = [[] for _ in runs]
    for k, i in enumerate(order):
        widths = runs[i].widths
        cap = max(max(widths), left ** (1.0 / (len(order) - k)))
        out[i] = [runs[i].part(a, b) for a, b in _split_runs(widths, cap)]
        left /= max(len(r.offsets) for r in out[i])
    return out


def _block_values(kernel: Kernel, table: np.ndarray, block: Sequence[_Run]) -> np.ndarray:
    """The inner values of a block's outer nodes, in the shape of their tensor.

    Only the kernel couples the axes; weights and payload factors are per
    axis. So the kernel tensor over the runs' columns, the one array of the
    block's full size, is contracted axis by axis, the last first:
    multiplied by the axis's scale and summed over each group. Its factor of
    |u| alone is applied with the scale of the last u axis, once the v axes
    are summed. The groups of an excluded core are then set to 0 by
    selection (the kernel may overflow there), each group is multiplied by
    the payload table at its slots, and the groups of each outer node are
    summed, again axis by axis. Every sum runs over the columns or groups of
    one outer node, so the values do not depend on the blocking.
    """
    scales = _axis_views([r.scale for r in block])
    cores = _axis_views([r.core for r in block])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u, t = kernel.split_offsets(_axis_views([r.offsets for r in block]))
        for i in reversed(range(len(block))):
            t *= u * scales[i] if i == kernel.n - 1 else scales[i]
            t = np.add.reduceat(t, block[i].starts, axis=i)
        for axes, singular, _ in _core_groups(kernel):
            if singular:
                np.copyto(t, 0.0, where=reduce(np.logical_and, [cores[i] for i in axes]))
        t *= table[tuple(_axis_views([r.slots for r in block]))]
    for i, r in enumerate(block):
        t = np.add.reduceat(t, r.owners, axis=i)
    return t


def _require_grid_dimension(f: TestFunction) -> None:
    if f.dim > MAX_GRID_DIMENSION:
        raise UsageError(f"grid quadrature supports n+m <= {MAX_GRID_DIMENSION}, got {f.dim}")


def _grid_conv_values(
    kernel: Kernel,
    f: TestFunction,
    outer_axes: Sequence[Sequence[float]],
    spec: QuadratureSpec,
    orders: Sequence[int],
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """The inner grid values of each order at every node of an outer tensor.

    outer_axes holds one array of outer coordinates per axis. Returns the
    values of each order and, per node, whether its u core and its v core
    were excluded, each in the shape of the outer tensor.

    The inner plan of axis i depends only on outer coordinate i, so the
    inner tensors of a block of outer nodes are the blocks of one tensor
    over their joined plans, contracted at once (_block_values); a pass over
    one outer node is a block of one.
    """
    _require_grid_dimension(f)
    runs, has_core = _inner_runs(f, outer_axes, spec, orders)
    shape = tuple(len(xs) for xs in outer_axes)
    core_u, core_v = (np.zeros(shape, dtype=bool) | c
                      for c in _core_flags(kernel, _axis_views(has_core)))
    out = []
    for axes in runs:
        values = np.empty(shape)
        for block in itertools.product(*_blocks(axes)):
            values[tuple(slice(r.outer.start, r.outer.stop) for r in block)] = _block_values(
                kernel, f.payload_table, block)
        if not np.isfinite(values).all():
            raise UsageError(
                f"the kernel overflows on the grid at inner_cutoff 2^{spec.inner_cutoff}; "
                "use a coarser cutoff"
            )
        out.append(values)
    return out, core_u, core_v


def _grid_inner(
    kernel: Kernel,
    f: TestFunction,
    outer_axes: Sequence[Sequence[float]],
    spec: QuadratureSpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inner value, its err and its core part, each in the shape of the outer tensor.

    err is the rule disagreement plus the core part, the analytic bound of
    the excluded cores. One rule bounds the core of either group: the
    power mass of its own factor over the core's box, times sup |f|, times
    the tail of the other group's factor over the payload's box on the
    other axes (1 when there are none).
    """
    g = spec.points_per_axis
    (hi, lo), *excluded = _grid_conv_values(kernel, f, outer_axes, spec, (g, g - 1))
    core = np.zeros(hi.shape)
    groups = _core_groups(kernel)
    for (own, _, power), (other, _, other_power), flags in zip(groups, groups[::-1], excluded):
        # a group with no excluded node adds nothing; the riesz kernel's v group has no axes
        if not flags.any():
            continue
        eps = max(_resolved(f, spec, i) for i in own)
        mass = _power_mass_bound(len(own), power, eps) * f.sup_bound()
        box = [f.support[i] for i in other]
        for node in zip(*np.nonzero(flags)):
            # the tail takes the point's numpy coordinates, and with them numpy's power
            pt = [outer_axes[i][node[i]] for i in other]
            core[node] += mass * (_box_tail_bound(box, pt, other_power, len(other))
                                  if other else 1.0)
    return hi, np.abs(hi - lo) + core, core


def _apply_kernel(
    kernel: Kernel,
    f: TestFunction,
    pt: np.ndarray,
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    value, err, core_err = (a.item() for a in _grid_inner(kernel, f, [[x] for x in pt], spec))
    # no core excluded means core_err == 0.0, which never exceeds the target
    if core_err > spec.target_rel_error * max(abs(value), _RELATIVE_FLOOR):
        raise AccuracyError(
            f"inner_cutoff 2^{spec.inner_cutoff} too coarse: analytic core bound "
            f"{core_err:.3e} exceeds target {spec.target_rel_error} relative to "
            f"value {value:.6e}",
            value=value,
            err=err,
        )
    # err is a numpy scalar when the core bound used the point's numpy
    # coordinates; float() keeps its bits
    return float(value), float(err)


def _require_dims(f: TestFunction, kernel: Kernel) -> None:
    if f.n != kernel.n or f.m != kernel.m:
        raise ValueError(
            f"test function has dims ({f.n},{f.m}), config needs ({kernel.n},{kernel.m})"
        )


# ---------------------------------------------------------------------------
# public operations


def apply_operator(
    cfg: ExponentConfig, f: TestFunction, pt: PointPair, spec: QuadratureSpec
) -> Tuple[float, float]:
    """The convolution If(x, y) with an a-posteriori error estimate.

    Raises AccuracyError when the point sits inside supp f and the analytic
    bound for the unresolved core exceeds target_rel_error relative to the
    computed value (the error carries the best estimate).
    """
    kernel = flag_kernel(cfg)
    _require_dims(f, kernel)
    return _apply_kernel(kernel, f, pt.coords(), spec)


def apply_riesz_1d(
    alpha: Union[float, Fraction, str], f: TestFunction, x: float, spec: QuadratureSpec
) -> float:
    """One-variable fractional integral: the integral of f(u)|x-u|^{alpha-1} du."""
    a = as_rational(alpha, "alpha")
    if not (0 < a < 1):
        raise PreconditionError("apply_riesz_1d needs 0 < alpha < 1")
    if f.n != 1 or f.m != 0:
        raise ValueError("apply_riesz_1d takes a one-variable test function (n=1, m=0)")
    value, _ = _apply_kernel(riesz_kernel(float(a)), f, np.array([float(x)]), spec)
    return value


def _outer_plan(f: TestFunction, i: int, span: Tuple[float, float], g: int) -> _AxisPlan:
    """The plan of span on axis i, graded toward the support's centre."""
    lo, hi = f.support[i]
    extra, max_cell, within = _payload_grading(f, i)
    return _axis_plan(*span, 0.5 * (lo + hi), 0.5 * (hi - lo), extra, g, max_cell, within)


def _outer_plans(box: Bounds, f: TestFunction, g: int) -> List[_AxisPlan]:
    """Per axis, the plan of the box side."""
    return [_outer_plan(f, i, span, g) for i, span in enumerate(box)]


def _as_product(boxes: Sequence[Bounds]) -> Optional[List[List[Tuple[float, float]]]]:
    """Per axis, the intervals whose product in C order is the box list, or None."""
    axes = [list(dict.fromkeys(box[i] for box in boxes)) for i in range(len(boxes[0]))]
    return axes if list(itertools.product(*axes)) == list(boxes) else None


def _box_products(boxes: Sequence[Bounds]) -> List[List[List[Tuple[float, float]]]]:
    """The box list cut into consecutive products, each as long as it can be.

    A shell's boxes are one product; a list that is no product at all is
    cut into products of one box.
    """
    # intervals are compared as dict keys, so a box given as lists is read as tuples
    boxes = [tuple(map(tuple, box)) for box in boxes]
    out = []
    start = 0
    while start < len(boxes):
        # one box is always a product, so the search stops at start + 1
        for end in range(len(boxes), start, -1):
            axes = _as_product(boxes[start:end])
            if axes is not None:
                break
        out.append(axes)
        start = end
    return out


def _power_gap(v: float, e: float, q: float) -> float:
    # error of |v|^q when v is known to +-e
    return (abs(v) + e) ** q - abs(v) ** q


def _joined_rule(intervals: Sequence[Sequence[Tuple[float, float]]], f: TestFunction,
                 g: int) -> Tuple[List[np.ndarray], np.ndarray, List[Tuple[slice, ...]]]:
    """The outer rule over a product of per-axis interval lists, as one tensor.

    Returns per axis the joined nodes of its intervals' plans, the weight
    tensor, and each box's part of the tensor, in C order over the boxes.
    """
    plans = [[_outer_plan(f, i, span, g) for span in axis] for i, axis in enumerate(intervals)]
    parts = []
    for axis in plans:
        ends = np.cumsum([0] + [len(p.nodes) for p in axis]).tolist()
        parts.append([slice(a, b) for a, b in zip(ends[:-1], ends[1:])])
    weights = _tensor_weights([np.concatenate([p.weights for p in axis]) for axis in plans])
    return ([np.concatenate([p.nodes for p in axis]) for axis in plans], weights,
            list(itertools.product(*parts)))


def _lq_mass(
    kernel: Kernel,
    f: TestFunction,
    region,
    q: Union[float, Fraction, str],
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """Each product of the region's boxes takes one inner pass per order.

    An inner value does not depend on the outer nodes it is computed with,
    so each box reads its own part of the product's tensors in C order, and
    its three sums are those of a pass over that box alone. The dimension is
    checked first, before the outer rule's weight tensor is formed.
    """
    _require_dims(f, kernel)
    q = float(as_rational(q, "q"))
    if not q > 1:
        raise PreconditionError("lq_mass needs q > 1")
    _require_grid_dimension(f)
    g = spec.points_per_axis
    boxes = region.signed_boxes()
    masses = []
    for intervals in _box_products([box for box, _ in boxes]):
        nodes_hi, w_hi, parts_hi = _joined_rule(intervals, f, g)
        values, errs, _ = _grid_inner(kernel, f, nodes_hi, spec)
        # the lower outer rule needs only the inner g-order value
        nodes_lo, w_lo, parts_lo = _joined_rule(intervals, f, g - 1)
        (values_lo,), _, _ = _grid_conv_values(kernel, f, nodes_lo, spec, (g,))
        for hi, lo in zip(parts_hi, parts_lo):
            w = w_hi[hi].ravel()
            v = values[hi].ravel().tolist()
            v_hi = math.fsum(wk * abs(vk) ** q for wk, vk in zip(w, v))
            prop = math.fsum(wk * _power_gap(vk, ek, q)
                             for wk, vk, ek in zip(w, v, errs[hi].ravel().tolist()))
            v_lo = math.fsum(wk * abs(vk) ** q
                             for wk, vk in zip(w_lo[lo].ravel(), values_lo[lo].ravel().tolist()))
            masses.append((v_hi, abs(v_hi - v_lo), prop))
    value = math.fsum(sign * v_hi for (_, sign), (v_hi, _, _) in zip(boxes, masses))
    err = math.fsum(rule for _, rule, _ in masses) + math.fsum(prop for _, _, prop in masses)
    return value, err


def lq_mass(
    cfg: ExponentConfig,
    f: TestFunction,
    region,
    q: Union[float, Fraction, str],
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """Integral of |If|^q over a bounded region, with composed error estimate.

    region is anything exposing signed_boxes(): shells, cubes, windows, the
    counterexample region. Signed integrands enter through their modulus,
    never signed powers.
    """
    return _lq_mass(flag_kernel(cfg), f, region, q, spec)


def lq_mass_dominating(
    cfg: ExponentConfig,
    ab: DerivedExponents,
    f: TestFunction,
    region,
    q: Union[float, Fraction, str],
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """lq_mass with the dominating product kernel in place of the flag kernel."""
    return _lq_mass(product_kernel(cfg, ab), f, region, q, spec)


def lp_norm(
    f: TestFunction, p: Union[float, Fraction, str], spec: QuadratureSpec
) -> float:
    """The p-norm of the test function over its support, from the grid outer rule.

    On a tensor of per-axis nodes |f|^p is |payload_table|^p at the nodes'
    slots times the product of their factors' |.|^p (see axis_factor). So
    each axis sums its weighted factors per slot, and |payload_table|^p is
    contracted with those sums one axis at a time: no tensor of the rule's
    nodes is formed, whatever the dimension.
    """
    pf = float(as_rational(p, "p"))
    if not pf >= 1:
        raise PreconditionError("lp_norm needs p >= 1")

    def _mass(g: int) -> float:
        mass = np.abs(f.payload_table) ** pf
        for i, plan in enumerate(_outer_plans(f.support, f, g)):
            factor, slots = f.axis_factor(i, plan.nodes)
            per_slot = np.bincount(slots, weights=plan.weights * np.abs(factor) ** pf,
                                   minlength=mass.shape[0])
            mass = np.tensordot(per_slot, mass, axes=1)
        return float(mass)

    hi = _mass(spec.points_per_axis)
    lo = _mass(spec.points_per_axis - 1)
    if abs(hi - lo) > spec.target_rel_error * max(abs(hi), _RELATIVE_FLOOR):
        raise AccuracyError(
            f"p-norm rule disagreement {abs(hi - lo):.3e} exceeds the relative target",
            value=hi ** (1.0 / pf),
            err=abs(hi - lo),
        )
    return hi ** (1.0 / pf)
