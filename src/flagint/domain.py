"""Cubes, dyadic shells, and the experiment regions.

All region types share a tiny informal interface used by the quadrature
module: `contains(points)` (vectorized membership), `volume()`,
`signed_boxes()` (an exact signed-box decomposition when one exists in
coordinates, for grid integration), and `sample(rng, count)` (uniform
points, for Monte Carlo). Factor norms are Euclidean throughout; the
central cube Q alone is a max-norm cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .errors import RegionError
from .exponents import ExponentConfig
from .kernel import PointPair, _factor_norms

Bounds = Tuple[Tuple[float, float], ...]
SignedBox = Tuple[Bounds, float]

# Aspect guard: the closed-form gap volume below assumes the max-norm cube
# of side 2^L sits inside the product of Euclidean balls of radius 2^L,
# which holds exactly when sqrt(dim) <= 2 on each factor.
_GAP_VOLUME_MAX_DIM = 4


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the Euclidean ball of the given radius in R^dim."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius ** dim


def _sample_annulus(rng: np.random.Generator, count: int, dim: int,
                    lo: float, hi: float) -> np.ndarray:
    """Uniform points in {lo <= |z| < hi} in R^dim (lo may be 0)."""
    u = rng.random(count)
    radii = (lo ** dim + u * (hi ** dim - lo ** dim)) ** (1.0 / dim)
    if dim == 1:
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        return (radii * signs)[:, None]
    direc = rng.standard_normal((count, dim))
    norms = np.sqrt(np.sum(direc * direc, axis=1))
    norms[norms == 0.0] = 1.0
    return direc * (radii / norms)[:, None]


def _max_norm_annulus(dim: int, lo: float, hi: float) -> List[Bounds]:
    """{lo <= |z|_inf < hi} in R^dim as 2*dim boxes with disjoint interiors.

    The first axis i with |z_i| >= lo picks the slab: the axes before it lie
    in (-lo, lo), axis i in (-hi, -lo) or (lo, hi), the axes after it in
    (-hi, hi). At dim = 1 this is (-hi, -lo), (lo, hi).
    """
    return [
        ((-lo, lo),) * i + (side,) + ((-hi, hi),) * (dim - 1 - i)
        for i in range(dim)
        for side in ((-hi, -lo), (lo, hi))
    ]


@dataclass(frozen=True)
class Cube:
    """The max-norm cube Q of side 2^L centered at the origin in R^{n+m}."""

    n: int
    m: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be >= 1")

    @property
    def side(self) -> float:
        return 2.0 ** self.L

    @property
    def half_side(self) -> float:
        return 2.0 ** (self.L - 1)

    def bounds(self) -> Bounds:
        h = self.half_side
        return tuple((-h, h) for _ in range(self.n + self.m))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.max(np.abs(pts), axis=1) <= self.half_side

    def volume(self) -> float:
        return self.side ** (self.n + self.m)

    def signed_boxes(self) -> List[SignedBox]:
        return [(self.bounds(), 1.0)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        h = self.half_side
        return rng.uniform(-h, h, size=(count, self.n + self.m))


@dataclass(frozen=True)
class Shell:
    """Dyadic shell Q_{kl}: 2^{L+k-1} <= |x| < 2^{L+k}, 2^{L+l-1} <= |y| < 2^{L+l}.

    Index 0 drops the lower bound on its factor: Q_{k0} has |y| < 2^L and
    Q_{0l} has |x| < 2^L. The pair (0,0) denotes the central cube Q itself.
    """

    n: int
    m: int
    k: int
    l: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be >= 1")
        if self.k < 0 or self.l < 0:
            raise RegionError("shell indices must be >= 0")

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

    def contains(self, points: np.ndarray) -> np.ndarray:
        if self.is_cube:
            return Cube(self.n, self.m, self.L).contains(points)
        xn, yn = _factor_norms(points, self.n)
        x_lo, x_hi = self.x_range()
        y_lo, y_hi = self.y_range()
        return (xn >= x_lo) & (xn < x_hi) & (yn >= y_lo) & (yn < y_hi)

    def volume(self) -> float:
        if self.is_cube:
            return Cube(self.n, self.m, self.L).volume()
        x_lo, x_hi = self.x_range()
        y_lo, y_hi = self.y_range()
        vx = ball_volume(self.n, x_hi) - ball_volume(self.n, x_lo)
        vy = ball_volume(self.m, y_hi) - ball_volume(self.m, y_lo)
        return vx * vy

    def _factor_intervals(self, lo: float, hi: float) -> List[Tuple[float, float]]:
        if lo == 0.0:
            return [(-hi, hi)]
        return [(-hi, -lo), (lo, hi)]

    def signed_boxes(self) -> List[SignedBox]:
        if self.is_cube:
            return Cube(self.n, self.m, self.L).signed_boxes()
        if self.n != 1 or self.m != 1:
            raise RegionError(
                "shells have box decompositions only for 1-d factors; use monte-carlo"
            )
        boxes: List[SignedBox] = []
        for xi in self._factor_intervals(*self.x_range()):
            for yi in self._factor_intervals(*self.y_range()):
                boxes.append(((xi, yi), 1.0))
        return boxes

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.is_cube:
            return Cube(self.n, self.m, self.L).sample(rng, count)
        xs = _sample_annulus(rng, count, self.n, *self.x_range())
        ys = _sample_annulus(rng, count, self.m, *self.y_range())
        return np.hstack([xs, ys])


def shell_contains(s: Shell, pt: PointPair) -> bool:
    """Membership of a single point pair in the shell (cube for (0,0))."""
    if pt.x.size != s.n or pt.y.size != s.m:
        raise ValueError(
            f"point has dims ({pt.x.size},{pt.y.size}), shell needs ({s.n},{s.m})"
        )
    return bool(s.contains(pt.coords()[None, :])[0])


@dataclass(frozen=True)
class ShellCase:
    """Case label for a shell plus the branch predicates the estimates split on."""

    label: str
    flags: Dict[str, bool] = field(default_factory=dict)


def shell_case(s: Shell, cfg: ExponentConfig) -> ShellCase:
    """Classify a shell: Case1 (k=l=0), Case2 (k,l>0), Case3 (k>0,l=0), Case4 (k=0,l>0).

    The flags record, exactly over the rationals, the inequalities the
    per-case estimates branch on.
    """
    rho = cfg.rho
    k, l, L = Fraction(s.k), Fraction(s.l), Fraction(s.L)
    flags = {
        "rho(k+L)>=l+L": rho * (k + L) >= l + L,
        "k+L>=0": k + L >= 0,
        "l>=k": l >= k,
        "l>=(rho-1)L": l >= (rho - 1) * L,
    }
    if s.k == 0 and s.l == 0:
        label = "Case1"
    elif s.k > 0 and s.l > 0:
        label = "Case2"
    elif s.k > 0:
        label = "Case3"
    else:
        label = "Case4"
    return ShellCase(label=label, flags=flags)


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

    def bounds(self) -> Bounds:
        return self.box

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.ones(pts.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.box):
            ok &= (pts[:, i] >= lo) & (pts[:, i] <= hi)
        return ok

    def volume(self) -> float:
        out = 1.0
        for lo, hi in self.box:
            out *= hi - lo
        return out

    def signed_boxes(self) -> List[SignedBox]:
        return [(self.box, 1.0)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        cols = [rng.uniform(lo, hi, size=count) for lo, hi in self.box]
        return np.stack(cols, axis=1)

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
    """The region [2,4]^n x {|y| <= R} where the critical-line blowup is measured."""

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

    def contains(self, points: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(points, dtype=float))[:, : self.n]
        ok = np.all((xs >= 2.0) & (xs <= 4.0), axis=1)
        return ok & (_factor_norms(points, self.n)[1] <= self.R)

    def volume(self) -> float:
        return 2.0 ** self.n * ball_volume(self.m, self.R)

    def signed_boxes(self) -> List[SignedBox]:
        if self.m != 1:
            raise RegionError(
                "the y-ball is a box only for m = 1; use monte-carlo for m >= 2"
            )
        return [(self.x_bounds() + ((-self.R, self.R),), 1.0)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        xs = rng.uniform(2.0, 4.0, size=(count, self.n))
        ys = _sample_annulus(rng, count, self.m, 0.0, self.R)
        return np.hstack([xs, ys])


@dataclass(frozen=True)
class GapRegion:
    """Residual between the Euclidean-ball product {|x|,|y| < 2^L} and the cube Q.

    The shells tile the complement of the ball product; Q is a max-norm cube
    inside it. Decay experiments report this sliver's mass separately so the
    shell totals stay auditable. At n = m = 1 it is the max-norm annulus
    2^(L-1) <= |z|_inf < 2^L, integrated as four disjoint boxes of sign +1.
    """

    n: int
    m: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be >= 1")
        if self.n > _GAP_VOLUME_MAX_DIM or self.m > _GAP_VOLUME_MAX_DIM:
            raise RegionError("gap region supported only for factor dims <= 4")

    def contains(self, points: np.ndarray) -> np.ndarray:
        r = 2.0 ** self.L
        xn, yn = _factor_norms(points, self.n)
        in_balls = (xn < r) & (yn < r)
        return in_balls & ~Cube(self.n, self.m, self.L).contains(points)

    def volume(self) -> float:
        r = 2.0 ** self.L
        return ball_volume(self.n, r) * ball_volume(self.m, r) - Cube(
            self.n, self.m, self.L
        ).volume()

    def signed_boxes(self) -> List[SignedBox]:
        if self.n != 1 or self.m != 1:
            raise RegionError(
                "gap region has a box decomposition only for n = m = 1; use monte-carlo"
            )
        h = Cube(1, 1, self.L).half_side
        return [(box, 1.0) for box in _max_norm_annulus(2, h, 2.0 * h)]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((0, self.n + self.m))
        guard = 0
        while out.shape[0] < count:
            xs = _sample_annulus(rng, count, self.n, 0.0, 2.0 ** self.L)
            ys = _sample_annulus(rng, count, self.m, 0.0, 2.0 ** self.L)
            pts = np.hstack([xs, ys])
            keep = pts[self.contains(pts)]
            out = np.vstack([out, keep])
            guard += 1
            if guard > 1000:
                raise RegionError("gap-region rejection sampling failed to converge")
        return out[:count]
