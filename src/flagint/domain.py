"""Cubes, dyadic shells, and the experiment regions.

A region is its list of boxes with disjoint interiors, each of sign +1:
`signed_boxes()` is that list, and the grid integrates it box by box. So
every region measures its factors with the max norm |.|_inf: a max-norm
annulus is a union of boxes, a Euclidean one is not.

No engine path draws points. `sample(rng, count)` (uniform points in the
boxes) stays only because the benchmark's tracer (bench/tracing.py) wraps it
by name on every region.

The kernel keeps its Euclidean factor norms, and the max-norm regions
answer the same questions. The truncation {|y|_inf <= R} sits between the
balls B_R and B_{sqrt(m) R}, so the truncated mass F_inf(R) lies between
F_2(R) and F_2(sqrt(m) R) and has the same log-slope in R. For factor
dimensions <= 4 (sqrt(dim) <= 2), a Euclidean dyadic shell meets at most
two max-norm dyadic shells and the other way round, so shell masses decay
with the same exponents. On a 1-d factor the two norms agree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import RegionError

Bounds = Tuple[Tuple[float, float], ...]
SignedBox = Tuple[Bounds, float]


def _max_norm_annulus(dim: int, lo: float, hi: float) -> List[Bounds]:
    """{lo <= |z|_inf < hi} in R^dim as boxes with disjoint interiors.

    lo = 0 gives the one box (-hi, hi)^dim. Otherwise the first axis i with
    |z_i| >= lo picks one of 2*dim slabs: the axes before it lie in
    (-lo, lo), axis i in (-hi, -lo) or (lo, hi), the axes after it in
    (-hi, hi). At dim = 1 this is (-hi, -lo), (lo, hi).
    """
    if lo == 0.0:
        return [((-hi, hi),) * dim]
    return [
        ((-lo, lo),) * i + (side,) + ((-hi, hi),) * (dim - 1 - i)
        for i in range(dim)
        for side in ((-hi, -lo), (lo, hi))
    ]


def _sample_boxes(boxes: List[SignedBox], rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Uniform points in the union of positive boxes with disjoint interiors.

    Each point picks a box with probability proportional to its volume (no
    draw for a single box), then lies uniformly in it.
    """
    lo = np.array([[a for a, _ in box] for box, _ in boxes])
    width = np.array([[b - a for a, b in box] for box, _ in boxes])
    pick = 0
    if len(boxes) > 1:
        vol = np.prod(width, axis=1)
        pick = rng.choice(len(boxes), size=count, p=vol / vol.sum())
    # axis by axis, as count draws per axis
    return lo[pick] + width[pick] * rng.random((lo.shape[1], count)).T


def _check_dyadic(*exponents: int) -> None:
    """Refuse a region whose edges or volumes 2^e leave the normal float range."""
    lo, hi = sys.float_info.min_exp - 1, sys.float_info.max_exp - 1
    for e in exponents:
        if not lo <= e <= hi:
            raise ValueError(f"2^{e} is outside the normal float range 2^{lo}..2^{hi}")


@dataclass(frozen=True)
class Cube:
    """The max-norm cube Q of side 2^L centered at the origin in R^{n+m}."""

    n: int
    m: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be >= 1")
        # the half side, the side, the volume and the relaxed sup bound
        dim = self.n + self.m
        _check_dyadic(self.L - 1, self.L, dim * self.L, dim * (1 - self.L))

    @property
    def side(self) -> float:
        return 2.0 ** self.L

    @property
    def half_side(self) -> float:
        return 2.0 ** (self.L - 1)

    def bounds(self) -> Bounds:
        h = self.half_side
        return tuple((-h, h) for _ in range(self.n + self.m))

    def volume(self) -> float:
        # exact: the side is 2^L and _check_dyadic keeps 2^((n+m)L) normal
        return self.side ** (self.n + self.m)

    def signed_boxes(self) -> List[SignedBox]:
        return [(self.bounds(), 1.0)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_boxes(self.signed_boxes(), rng, count)


@dataclass(frozen=True)
class Shell:
    """Dyadic shell Q_{kl}: 2^{L+k-1} <= |x|_inf < 2^{L+k}, 2^{L+l-1} <= |y|_inf < 2^{L+l}.

    Index 0 drops the lower bound on its factor: Q_{k0} has |y|_inf < 2^L
    and Q_{0l} has |x|_inf < 2^L. The pair (0,0) denotes the central cube Q
    itself. The boxes are the product of the two factors' annulus boxes, x
    boxes outer; at n = m = 1 they are the four (or two) quadrant boxes.
    """

    n: int
    m: int
    k: int
    l: int
    L: int

    def __post_init__(self) -> None:
        Cube(self.n, self.m, self.L)
        if self.k < 0 or self.l < 0:
            raise RegionError("shell indices must be >= 0")
        # the sides 2^(L+k+1), 2^(L+l+1) of the outer box, and its volume
        ex, ey = self.L + self.k + 1, self.L + self.l + 1
        _check_dyadic(ex, ey, self.n * ex + self.m * ey)

    @property
    def is_cube(self) -> bool:
        return self.k == 0 and self.l == 0

    def x_range(self) -> Tuple[float, float]:
        hi = 2.0 ** (self.L + self.k)
        lo = 0.0 if self.k == 0 else 2.0 ** (self.L + self.k - 1)
        return lo, hi

    def y_range(self) -> Tuple[float, float]:
        hi = 2.0 ** (self.L + self.l)
        lo = 0.0 if self.l == 0 else 2.0 ** (self.L + self.l - 1)
        return lo, hi

    def signed_boxes(self) -> List[SignedBox]:
        if self.is_cube:
            return Cube(self.n, self.m, self.L).signed_boxes()
        return [(bx + by, 1.0)
                for bx in _max_norm_annulus(self.n, *self.x_range())
                for by in _max_norm_annulus(self.m, *self.y_range())]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_boxes(self.signed_boxes(), rng, count)


def shell_case(s: Shell) -> str:
    """Classify a shell: Case1 (k=l=0), Case2 (k,l>0), Case3 (k>0,l=0), Case4 (k=0,l>0)."""
    if s.k == 0 and s.l == 0:
        return "Case1"
    if s.k > 0 and s.l > 0:
        return "Case2"
    return "Case3" if s.k > 0 else "Case4"


def shell_family(n: int, m: int, L: int, k_max: int, l_max: int) -> List[Shell]:
    """All shells with 0 <= k <= k_max and 0 <= l <= l_max.

    The (0,0) entry (the cube Q) is included so profiles can report its
    mass alongside the true annular shells.
    """
    shells = []
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            shells.append(Shell(n=n, m=m, k=k, l=l, L=L))
    return shells


@dataclass(frozen=True)
class Window:
    """A plain coordinate box used as a truncation window for norms."""

    n: int
    m: int
    box: Bounds

    def __post_init__(self) -> None:
        if len(self.box) != self.n + self.m:
            raise ValueError("window box must have n+m axis intervals")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("window intervals must be nonempty")

    def signed_boxes(self) -> List[SignedBox]:
        return [(self.box, 1.0)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_boxes(self.signed_boxes(), rng, count)

    def dilated(self, delta: float, lam: float, rho: float) -> "Window":
        """Image under (x, y) -> (delta x, delta^rho lam y)."""
        sx = float(delta)
        sy = float(delta) ** float(rho) * float(lam)
        new = tuple(
            (lo * (sx if i < self.n else sy), hi * (sx if i < self.n else sy))
            for i, (lo, hi) in enumerate(self.box)
        )
        return Window(n=self.n, m=self.m, box=new)


def centered_window(n: int, m: int, x_half: float, y_half: float) -> Window:
    box = tuple((-x_half, x_half) for _ in range(n)) + tuple(
        (-y_half, y_half) for _ in range(m)
    )
    return Window(n=n, m=m, box=box)


@dataclass(frozen=True)
class CounterexampleRegion:
    """The box [2,4]^n x {|y|_inf <= R}, where the critical-line blowup is measured."""

    n: int
    m: int
    R: float

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be >= 1")
        if not self.R > 0:
            raise RegionError("truncation radius R must be positive")

    def x_bounds(self) -> Bounds:
        return tuple((2.0, 4.0) for _ in range(self.n))

    def signed_boxes(self) -> List[SignedBox]:
        return [(self.x_bounds() + ((-self.R, self.R),) * self.m, 1.0)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_boxes(self.signed_boxes(), rng, count)


@dataclass(frozen=True)
class GapRegion:
    """Residual between the box (-2^L, 2^L)^{n+m} and the cube Q.

    The shells tile the complement of that box; Q is the middle of it.
    Decay experiments report this sliver's mass separately so the shell
    totals stay auditable. It is the max-norm annulus
    2^(L-1) < |z|_inf < 2^L, integrated as 2(n+m) disjoint boxes of sign +1.
    """

    n: int
    m: int
    L: int

    def __post_init__(self) -> None:
        Shell(self.n, self.m, 0, 0, self.L)  # the cube, and the box (-2^L, 2^L)^(n+m)

    def signed_boxes(self) -> List[SignedBox]:
        h = Cube(self.n, self.m, self.L).half_side
        return [(box, 1.0) for box in _max_norm_annulus(self.n + self.m, h, 2.0 * h)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_boxes(self.signed_boxes(), rng, count)
