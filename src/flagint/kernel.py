"""Pointwise evaluation of the flag kernel and the product kernel that dominates it.

The kernel |x|^{-(n-alpha)} (|x|^rho + |y|)^{-(m-beta)} is smooth away
from x = 0 and merely kinked on y = 0, so everything here is plain
vectorized float arithmetic; the only care needed is near the singular
set, where evaluation is refused instead of returning inf. Kernel holds the
one formula for the flag kernel, the product kernel that dominates it and
the one-variable Riesz kernel; the quadrature engine and the pointwise
functions here all evaluate through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import SingularityError
from .exponents import DerivedExponents, ExponentConfig

# |x| below this (after any scaling) counts as sitting on the singular set.
SINGULARITY_FLOOR = 1e-300

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True, eq=False)
class PointPair:
    """A point (x, y) in R^n x R^m, stored as two float vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))

    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])


def point_pair(x: ArrayLike, y: ArrayLike) -> PointPair:
    return PointPair(x, y)


@dataclass(frozen=True)
class Kernel:
    """One convolution kernel, as the quadrature engine evaluates it.

    kind is flag |u|^{alpha-n} (|u|^rho + |v|)^{beta-m}, product
    |u|^{a-n} |v|^{b-m} (which dominates the flag kernel), or riesz
    |u|^{alpha-1} in one variable (m = 0). u_power and v_power are the
    radial integrability exponents of the two factors.
    """

    kind: str            # flag | product | riesz
    n: int
    m: int
    u_power: float
    v_power: float = 0.0
    rho: float = 1.0

    @property
    def v_singular(self) -> bool:
        """Whether the kernel blows up on v = 0 (only the product kernel does)."""
        return self.kind == "product"

    def of_norms(self, sn: np.ndarray, tn: np.ndarray) -> np.ndarray:
        """Flag or product kernel value from the factor norms |u| and |v|; both broadcast."""
        su = sn ** (self.u_power - self.n)
        if self.kind == "flag":
            return su * (sn ** self.rho + tn) ** (self.v_power - self.m)
        return su * tn ** (self.v_power - self.m)

    def split_offsets(self, diffs: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel at offsets pt - z (one broadcastable array per axis) as (u, rest).

        The kernel is their product, up to rounding. u = |u|^(u_power - n)
        varies along the u axes only; rest is the remainder, a new array
        over the whole tensor (1 for the riesz kernel, which has no other).
        """
        out = np.empty(np.broadcast(*diffs).shape)
        sn = _norm(diffs[: self.n])
        if self.kind == "riesz":
            out.fill(1.0)
        elif self.kind == "flag":
            # |v| copied across the tensor, then |u|^rho added in place: the
            # same bits as one broadcast add, and faster
            np.copyto(out, _norm(diffs[self.n:]))
            out += sn ** self.rho
            out **= self.v_power - self.m
        else:
            np.copyto(out, _norm(diffs[self.n:]) ** (self.v_power - self.m))
        return sn ** (self.u_power - self.n), out


def _norm(diffs: Sequence[np.ndarray]) -> np.ndarray:
    """Euclidean norm of broadcastable per-axis differences.

    Squares are added left to right, the order np.sum(s * s, axis=1) takes
    on an (N, k) array, so both forms give the same bits.
    """
    sq = diffs[0] * diffs[0]
    for d in diffs[1:]:
        sq = sq + d * d
    return np.sqrt(sq)


def _factor_norms(points: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """|x| and |y| for the rows of an (N, n+m) coordinate array, or of one point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _norm(list(pts[:, :n].T)), _norm(list(pts[:, n:].T))


def flag_kernel(cfg: ExponentConfig) -> Kernel:
    return Kernel(
        kind="flag", n=cfg.n, m=cfg.m, u_power=float(cfg.alpha),
        v_power=float(cfg.beta), rho=float(cfg.rho),
    )


def product_kernel(cfg: ExponentConfig, ab: DerivedExponents) -> Kernel:
    return Kernel(kind="product", n=cfg.n, m=cfg.m, u_power=float(ab.a), v_power=float(ab.b))


def riesz_kernel(alpha: float) -> Kernel:
    return Kernel(kind="riesz", n=1, m=0, u_power=float(alpha))


@dataclass(frozen=True)
class FlagKernel:
    """Evaluator for the flag kernel attached to one exponent configuration."""

    cfg: ExponentConfig

    @property
    def n(self) -> int:
        return self.cfg.n

    @property
    def m(self) -> int:
        return self.cfg.m

    @property
    def scaling_exponent(self) -> float:
        """Exponent of the non-isotropic homogeneity: -(n-alpha) - rho(m-beta)."""
        cfg = self.cfg
        return -(cfg.n - float(cfg.alpha)) - float(cfg.rho) * (cfg.m - float(cfg.beta))

    def eval_norms(self, x_norm: np.ndarray, y_norm: np.ndarray) -> np.ndarray:
        """Kernel value from the two factor norms; both arrays broadcast."""
        xn = np.asarray(x_norm, dtype=float)
        yn = np.asarray(y_norm, dtype=float)
        if np.any(xn < SINGULARITY_FLOOR):
            raise SingularityError("flag kernel evaluated at x = 0")
        return flag_kernel(self.cfg).of_norms(xn, yn)

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Kernel at rows of an (N, n+m) coordinate array."""
        return self.eval_norms(*_factor_norms(points, self.n))

    def _check_dims(self, pt: PointPair) -> None:
        if pt.x.size != self.n or pt.y.size != self.m:
            raise ValueError(
                f"point has dims ({pt.x.size},{pt.y.size}), kernel needs ({self.n},{self.m})"
            )


def kernel_eval(k: FlagKernel, pt: PointPair) -> float:
    """|x|^{-(n-alpha)} (|x|^rho + |y|)^{-(m-beta)} with Euclidean factor norms."""
    k._check_dims(pt)
    return float(k.eval_points(pt.coords()[None, :])[0])


def dominating_kernel_eval(k: FlagKernel, ab: DerivedExponents, pt: PointPair) -> float:
    """The product kernel |x|^{-(n-a)} |y|^{-(m-b)} that dominates the flag kernel."""
    k._check_dims(pt)
    return float(product_kernel_points(k, ab, pt.coords()[None, :])[0])


def product_kernel_points(k: FlagKernel, ab: DerivedExponents, points: np.ndarray) -> np.ndarray:
    """Vectorized product-kernel values at rows of an (N, n+m) array."""
    xn, yn = _factor_norms(points, k.n)
    if np.any(xn < SINGULARITY_FLOOR) or np.any(yn < SINGULARITY_FLOOR):
        raise SingularityError("product kernel evaluated on a singular axis")
    return product_kernel(k.cfg, ab).of_norms(xn, yn)

