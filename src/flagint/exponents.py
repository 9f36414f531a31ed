"""Exact arithmetic over the exponent tuple (n, m, alpha, beta, rho, p, q).

Region membership is decided in rational arithmetic throughout: the
region boundaries are equalities between rationals, and float
comparisons would misclassify configurations sitting exactly on them.
Floats are accepted at the boundary only when their shortest decimal
form denotes a rational with a small denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import (
    ConfigIncompleteError,
    ExponentRangeError,
    PreconditionError,
    RegionError,
)

RationalLike = Union[Fraction, int, str, float]

# Decimal inputs must denote an exact rational with a denominator no larger
# than this; anything finer is rejected rather than silently approximated.
MAX_DECIMAL_DENOMINATOR = 10**6


def as_rational(value: RationalLike, name: str = "value") -> Fraction:
    """Coerce a user-facing number to an exact Fraction.

    Accepts Fractions, ints, strings like "9/10" or "0.3", and floats
    whose repr is a short decimal. Decimal forms (string or float) are
    rejected when their exact value needs a denominator beyond
    MAX_DECIMAL_DENOMINATOR, since that almost always means the caller
    fed us a rounded float instead of the rational they had in mind.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ExponentRangeError(f"{name} must be a number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ExponentRangeError(f"{name} must be finite, got {value!r}")
        value = repr(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            rat = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExponentRangeError(f"{name}={text!r} is not a rational") from exc
        if "/" not in text and rat.denominator > MAX_DECIMAL_DENOMINATOR:
            raise ExponentRangeError(
                f"{name}={text!r} has no exact rational form with denominator "
                f"<= {MAX_DECIMAL_DENOMINATOR}; write it as a fraction p/q"
            )
        return rat
    raise ExponentRangeError(
        f"{name} must be rational-like, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ExponentConfig:
    """The tuple (n, m, alpha, beta, rho) with optional Lebesgue exponents.

    Standing hypotheses: 0 < alpha < n, 0 < beta < m, rho >= 1, and
    1 <= p < q < infinity whenever both p and q are present.
    """

    n: int
    m: int
    alpha: Fraction
    beta: Fraction
    rho: Fraction
    p: Optional[Fraction] = None
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ExponentRangeError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ExponentRangeError(f"m must be a positive integer, got {self.m!r}")
        for field in ("alpha", "beta", "rho", "p", "q"):
            raw = getattr(self, field)
            if raw is None:
                continue
            object.__setattr__(self, field, as_rational(raw, field))
        if not (0 < self.alpha < self.n):
            raise ExponentRangeError(f"alpha must lie in (0, n)=(0,{self.n}), got {self.alpha}")
        if not (0 < self.beta < self.m):
            raise ExponentRangeError(f"beta must lie in (0, m)=(0,{self.m}), got {self.beta}")
        if self.rho < 1:
            raise ExponentRangeError(f"rho must be >= 1, got {self.rho}")
        if self.p is not None and self.p < 1:
            raise ExponentRangeError(f"p must be >= 1, got {self.p}")
        if self.q is not None and self.q <= 1:
            raise ExponentRangeError(f"q must be > 1, got {self.q}")
        if self.p is not None and self.q is not None and not (self.p < self.q):
            raise ExponentRangeError(f"need p < q, got p={self.p}, q={self.q}")

    @property
    def homogeneity_ratio(self) -> Fraction:
        """(alpha + rho*beta)/(n + rho*m), the scaling weight of the kernel."""
        return (self.alpha + self.rho * self.beta) / (self.n + self.rho * self.m)

    @property
    def alpha_over_n(self) -> Fraction:
        return self.alpha / self.n

    @property
    def beta_over_m(self) -> Fraction:
        return self.beta / self.m

    def with_p_from_q(self) -> "ExponentConfig":
        """Fill in p from q via the homogeneity equation 1/p - 1/q = ratio."""
        if self.q is None:
            raise ConfigIncompleteError("q is required to derive p")
        inv_p = self.homogeneity_ratio + 1 / self.q
        if inv_p > 1 or inv_p <= 0:
            raise RegionError(
                f"derived 1/p = {inv_p} is outside (0, 1]; no admissible p exists"
            )
        return replace(self, p=1 / inv_p)


@dataclass(frozen=True)
class DerivedExponents:
    """The intermediate pair (a, b) splitting the flag kernel into a product.

    Invariants (exact): a/n = b/m, a + rho*b = alpha + rho*beta,
    0 < a <= alpha and beta <= b < m.
    """

    a: Fraction
    b: Fraction


def check_formula_one(cfg: ExponentConfig) -> bool:
    """Membership test for the L^p -> L^q boundedness region.

    True iff alpha/n >= beta/m and (alpha+rho*beta)/(n+rho*m) = 1/p - 1/q,
    both decided exactly.
    """
    if cfg.p is None or cfg.q is None:
        raise ConfigIncompleteError("check_formula_one needs both p and q")
    if cfg.alpha_over_n < cfg.beta_over_m:
        return False
    return cfg.homogeneity_ratio == 1 / cfg.p - 1 / cfg.q


def check_formula_two(cfg: ExponentConfig) -> bool:
    """Membership test for the H^1 -> L^q boundedness region.

    True iff alpha/n > beta/m strictly and (alpha+rho*beta)/(n+rho*m) = 1 - 1/q.
    The boundary alpha/n = beta/m is rejected here although the L^p region
    accepts it; the counterexample construction lives exactly on it.
    """
    if cfg.q is None:
        raise ConfigIncompleteError("check_formula_two needs q")
    if not (cfg.alpha_over_n > cfg.beta_over_m):
        return False
    return cfg.homogeneity_ratio == 1 - 1 / cfg.q


def derive_ab(cfg: ExponentConfig) -> DerivedExponents:
    """Solve a/n = b/m, a + rho*b = alpha + rho*beta for (a, b), exactly.

    Requires alpha/n >= beta/m; otherwise a <= alpha fails and the
    product-kernel domination breaks down.
    """
    if cfg.alpha_over_n < cfg.beta_over_m:
        raise RegionError(
            f"derive_ab needs alpha/n >= beta/m, got {cfg.alpha_over_n} < {cfg.beta_over_m}"
        )
    total = cfg.alpha + cfg.rho * cfg.beta
    a = total / (1 + cfg.rho * Fraction(cfg.m, cfg.n))
    b = total / (Fraction(cfg.n, cfg.m) + cfg.rho)
    derived = DerivedExponents(a=a, b=b)
    # The defining system must hold exactly; a failure here is a bug.
    assert a * cfg.m == b * cfg.n
    assert a + cfg.rho * b == total
    assert 0 < a <= cfg.alpha and cfg.beta <= b < cfg.m
    return derived


def strict_consequences(cfg: ExponentConfig) -> Tuple[bool, bool]:
    """Report the two strict inequalities implied by the H^1 region.

    Returns (alpha/n > 1 - 1/q, beta/m < 1 - 1/q). Both are true for
    every config passing check_formula_two: the homogeneity ratio is a
    weighted mean of alpha/n and beta/m, so it sits strictly between them.
    """
    if cfg.q is None:
        raise ConfigIncompleteError("strict_consequences needs q")
    if not check_formula_two(cfg):
        raise PreconditionError(
            "strict_consequences requires a configuration satisfying the H^1 region"
        )
    threshold = 1 - 1 / cfg.q
    return (cfg.alpha_over_n > threshold, cfg.beta_over_m < threshold)


def heisenberg_map(d: int, a: RationalLike, b: RationalLike) -> ExponentConfig:
    """Exponent dictionary from the Heisenberg-group operator.

    A (2a, b) fractional power pair on H^d corresponds to the Euclidean
    configuration n=2d, m=1, alpha=2a, beta=b, rho=2.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ExponentRangeError(f"d must be a positive integer, got {d!r}")
    a = as_rational(a, "a")
    b = as_rational(b, "b")
    if not (0 < a < d):
        raise ExponentRangeError(f"a must lie in (0, d)=(0,{d}), got {a}")
    if not (0 < b < 1):
        raise ExponentRangeError(f"b must lie in (0, 1), got {b}")
    return ExponentConfig(n=2 * d, m=1, alpha=2 * a, beta=b, rho=Fraction(2))
