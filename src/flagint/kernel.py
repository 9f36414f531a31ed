"""Pointwise evaluation of the flag kernel and its bound diagnostics.

The kernel |x|^{-(n-alpha)} (|x|^rho + |y|)^{-(m-beta)} is smooth away
from x = 0 and merely kinked on y = 0, so everything here is plain
vectorized float arithmetic; the only care needed is near the singular
set, where evaluation is refused instead of returning inf. Kernel holds the
one formula for the flag kernel, the product kernel that dominates it and
the one-variable Riesz kernel; the quadrature engine and the pointwise
functions here all evaluate through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import AccuracyError, SingularityError
from .exponents import DerivedExponents, ExponentConfig

# |x| below this (after any scaling) counts as sitting on the singular set.
SINGULARITY_FLOOR = 1e-300

# Richardson consistency: |grad(h)| and |grad(h/2)| must agree this well.
FD_AGREEMENT_RTOL = 1e-4

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True, eq=False)
class PointPair:
    """A point (x, y) in R^n x R^m, stored as two float vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))

    @property
    def x_norm(self) -> float:
        return float(np.linalg.norm(self.x))

    @property
    def y_norm(self) -> float:
        return float(np.linalg.norm(self.y))

    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])


def point_pair(x: ArrayLike, y: ArrayLike) -> PointPair:
    return PointPair(np.atleast_1d(np.asarray(x, dtype=float)),
                     np.atleast_1d(np.asarray(y, dtype=float)))


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

    def of_norms(self, sn: np.ndarray, tn: Optional[np.ndarray] = None) -> np.ndarray:
        """Kernel value from the factor norms |u| and |v|; both broadcast."""
        su = sn ** (self.u_power - self.n)
        if self.kind == "riesz":
            return su
        if self.kind == "flag":
            return su * (sn ** self.rho + tn) ** (self.v_power - self.m)
        return su * tn ** (self.v_power - self.m)

    def split_offsets(self, diffs: Sequence[np.ndarray], *,
                      out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel at offsets pt - z (one broadcastable array per axis) as (u, rest).

        The kernel is their product, up to rounding. u = |u|^(u_power - n)
        varies along the u axes only; rest is the remainder, formed in out
        over the whole tensor (1 for the riesz kernel, which has no other).
        """
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

    def values(self, pt: np.ndarray, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Kernel at pt - z, with z given as one (N,) coordinate column per axis."""
        diffs = [pt[i] - coords[i] for i in range(self.n + self.m)]
        return self.of_norms(_norm(diffs[: self.n]), _norm(diffs[self.n:]) if self.m else None)


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

    def eval(self, pt: PointPair) -> float:
        self._check_dims(pt)
        return float(self.eval_points(pt.coords()[None, :])[0])

    def _check_dims(self, pt: PointPair) -> None:
        if pt.x.size != self.n or pt.y.size != self.m:
            raise ValueError(
                f"point has dims ({pt.x.size},{pt.y.size}), kernel needs ({self.n},{self.m})"
            )


def kernel_eval(k: FlagKernel, pt: PointPair) -> float:
    """|x|^{-(n-alpha)} (|x|^rho + |y|)^{-(m-beta)} with Euclidean factor norms."""
    return k.eval(pt)


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


def _fd_gradient(k: FlagKernel, pt: PointPair, step: float) -> np.ndarray:
    """Central finite-difference gradient of Omega at pt, one entry per coordinate."""
    dim = k.n + k.m
    base = pt.coords()
    shifted = np.repeat(base[None, :], 2 * dim, axis=0)
    for i in range(dim):
        shifted[2 * i, i] += step
        shifted[2 * i + 1, i] -= step
    vals = k.eval_points(shifted)
    return (vals[0::2] - vals[1::2]) / (2.0 * step)


def _bound_factor(k: FlagKernel, pt: PointPair) -> float:
    xn = pt.x_norm
    yn = pt.y_norm
    return max(1.0 / xn, 1.0 / (xn ** float(k.cfg.rho) + yn))


def gradient_bound_ratio(k: FlagKernel, pt: PointPair, h: Optional[float] = None) -> float:
    """Finite-difference check of the gradient bound.

    Returns |grad Omega| / ( Omega(pt) * max{1/|x|, 1/(|x|^rho + |y|)} ), the
    quantity the derivative estimates bound by a constant. The gradient is a
    central difference with step h (default 1e-5 * max(|x|, 1)); h and h/2
    must agree to FD_AGREEMENT_RTOL or the evaluation is rejected.
    """
    k._check_dims(pt)
    xn = pt.x_norm
    if h is None:
        h = 1e-5 * max(xn, 1.0)
    if h <= 0:
        raise AccuracyError("finite-difference step must be positive")
    if not xn > 2 * h:
        raise AccuracyError(f"step h={h} too large relative to |x|={xn}")
    omega = k.eval(pt)
    scale = omega * _bound_factor(k, pt)
    g_h = float(np.linalg.norm(_fd_gradient(k, pt, h)))
    g_h2 = float(np.linalg.norm(_fd_gradient(k, pt, h / 2.0)))
    # Agreement is measured against the natural gradient scale so that an
    # exactly-zero difference (symmetry at y=0) still passes.
    disagreement = abs(g_h - g_h2)
    if disagreement > FD_AGREEMENT_RTOL * max(abs(g_h2), 1e-12 * scale):
        raise AccuracyError(
            f"finite differences with h and h/2 disagree ({g_h} vs {g_h2}); "
            "the point is too close to the kink or singular set for this step"
        )
    return g_h2 / scale


def gradient_bound_ratios_split(
    k: FlagKernel, pt: PointPair, h: Optional[float] = None
) -> Tuple[float, float]:
    """Sharper per-factor variant of gradient_bound_ratio.

    Returns (ratio_x, ratio_y) where ratio_x uses the factor
    max{1/|x|, |x|^{rho-1}/(|x|^rho+|y|)} and ratio_y uses 1/(|x|^rho+|y|).
    For rho > 1 and |x| < 1 these differ from the coarse combined factor.
    """
    k._check_dims(pt)
    xn = pt.x_norm
    yn = pt.y_norm
    if h is None:
        h = 1e-5 * max(xn, 1.0)
    if not xn > 2 * h:
        raise AccuracyError(f"step h={h} too large relative to |x|={xn}")
    omega = k.eval(pt)
    rho = float(k.cfg.rho)
    denom_mix = xn ** rho + yn
    # the step-h/2 stencil; it divides by 2 * (h/2), which is h exactly
    grads = _fd_gradient(k, pt, h / 2.0)
    gx = float(np.linalg.norm(grads[: k.n]))
    gy = float(np.linalg.norm(grads[k.n:]))
    factor_x = max(1.0 / xn, xn ** (rho - 1.0) / denom_mix)
    ratio_x = gx / (omega * factor_x)
    ratio_y = gy / (omega / denom_mix)
    return ratio_x, ratio_y


def gradient_oracle_norm(k: FlagKernel, pt: PointPair) -> float:
    """Closed-form |grad Omega| away from x=0 and y=0 (test oracle).

    d/dx_i = Omega * [ (alpha-n) x_i/|x|^2 + (beta-m) rho |x|^{rho-2} x_i / (|x|^rho+|y|) ]
    d/dy_j = Omega * (beta-m) y_j / ( |y| (|x|^rho+|y|) )
    """
    k._check_dims(pt)
    cfg = k.cfg
    xn = pt.x_norm
    yn = pt.y_norm
    omega = k.eval(pt)
    rho = float(cfg.rho)
    an = float(cfg.alpha) - cfg.n
    bm = float(cfg.beta) - cfg.m
    mix = xn ** rho + yn
    gx = omega * (an / xn ** 2 + bm * rho * xn ** (rho - 2.0) / mix) * pt.x
    if yn < SINGULARITY_FLOOR:
        gy = np.zeros_like(pt.y)
    else:
        gy = omega * bm * pt.y / (yn * mix)
    return float(math.hypot(np.linalg.norm(gx), np.linalg.norm(gy)))
