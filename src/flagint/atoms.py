"""Cancellative atoms: construction, validation, serialization.

An atom is a mean-zero, sup-bounded payload attached to a cube Q. Two
normalizations appear in practice and an Atom records which one it uses:
"strict" asks for support in (1/2)Q with sup <= 1/vol(Q); "relaxed" allows
support in Q itself with sup <= 2^{n+m}/vol(Q). Payloads are piecewise
constant so means are exact rational sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .domain import Cube
from .quadrature import TestFunction, indicator_box, piecewise_constant

NORMALIZATIONS = ("strict", "relaxed")

# fp slop for geometric containment and sup-bound equality cases
_EDGE_RTOL = 1e-12


@dataclass(frozen=True)
class Atom:
    cube: Cube
    payload: TestFunction
    normalization: str = "strict"

    def __post_init__(self) -> None:
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.payload.n != self.cube.n or self.payload.m != self.cube.m:
            raise ValueError("payload dimensions must match the cube")
        if self.payload.radius:
            raise ValueError("atom payloads must be piecewise constant")

    @property
    def L(self) -> int:
        return self.cube.L

    @property
    def n(self) -> int:
        return self.cube.n

    @property
    def m(self) -> int:
        return self.cube.m


@dataclass(frozen=True)
class AtomReport:
    support_ok: bool
    bound_ok: bool
    mean_ok: bool
    mean: Fraction
    sup: float
    normalization: str

    @property
    def ok(self) -> bool:
        return self.support_ok and self.bound_ok and self.mean_ok


def _exact_mean_mass(payload: TestFunction) -> Fraction:
    """Signed integral of a piecewise-constant payload, exact over Q."""
    total = Fraction(0)
    for box, value in payload.cells:
        vol = Fraction(1)
        for lo, hi in box:
            vol *= Fraction(hi) - Fraction(lo)
        total += Fraction(value) * vol
    return total


def _support_within(payload: TestFunction, half: float, slop: float) -> bool:
    return all(lo >= -half - slop and hi <= half + slop for lo, hi in payload.support)


def validate_atom(a: Atom, normalization: Optional[str] = None) -> AtomReport:
    """Check the three atom conditions; the report carries any failures.

    normalization overrides the atom's recorded convention: "strict" means
    support in (1/2)Q and sup <= 1/vol(Q); "relaxed" means support in Q and
    sup <= 2^{n+m}/vol(Q). The mean is summed exactly over the rationals
    and compared against 1e-10 * vol(Q) * sup.
    """
    mode = normalization if normalization is not None else a.normalization
    if mode not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {mode!r}")
    cube = a.cube
    vol_q = cube.volume()
    slop = _EDGE_RTOL * cube.side
    if mode == "strict":
        support_ok = _support_within(a.payload, cube.half_side / 2.0, slop)
        sup_limit = 1.0 / vol_q
    else:
        support_ok = _support_within(a.payload, cube.half_side, slop)
        sup_limit = 2.0 ** (cube.n + cube.m) / vol_q
    sup = a.payload.sup_bound()
    bound_ok = sup <= sup_limit * (1.0 + _EDGE_RTOL)
    mean = _exact_mean_mass(a.payload)
    mean_ok = abs(mean) <= Fraction(1, 10 ** 10) * Fraction(vol_q) * Fraction(max(sup, 0.0))
    return AtomReport(
        support_ok=support_ok,
        bound_ok=bound_ok,
        mean_ok=mean_ok,
        mean=mean,
        sup=sup,
        normalization=mode,
    )


def signum_atom_at_scale(n: int, m: int, L: int) -> Atom:
    """sgn(x_1) at amplitude 2^{n+m}/vol(Q), supported on the whole cube Q.

    The amplitude sits exactly at the relaxed sup bound, so the atom
    validates at equality for every scale; at L = 1 it is the plain
    sgn(x_1) on [-1,1]^{n+m}.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    cube = Cube(n=n, m=m, L=L)
    h = cube.half_side
    value = 2.0 ** (n + m) / cube.volume()
    rest = tuple((-h, h) for _ in range(n + m - 1))
    cells = (
        (((-h, 0.0),) + rest, -value),
        (((0.0, h),) + rest, value),
    )
    payload = piecewise_constant(n, m, cells)
    return Atom(cube=cube, payload=payload, normalization="relaxed")


def make_signum_atom(n: int, m: int) -> Atom:
    """The counterexample atom sgn(x_1) chi on Q_o = [-1,1]^{n+m}."""
    return signum_atom_at_scale(n, m, L=1)


def make_random_atom(cube: Cube, seed: int) -> Atom:
    """A strict atom with random values on the 2x...x2 split of (1/2)Q.

    Values are drawn uniformly, mean-subtracted (twice, so the residual is
    at the last-bit level), and rescaled onto the 1/vol(Q) sup bound when
    they exceed it; rescaling preserves the zero mean exactly.
    """
    dim = cube.n + cube.m
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    raw = rng.uniform(-1.0, 1.0, size=2 ** dim)
    for _ in range(2):
        raw = raw - math.fsum(raw) / raw.size
    sup = float(np.max(np.abs(raw)))
    limit = 1.0 / cube.volume()
    if sup > limit > 0.0:
        raw = raw * (limit / sup)
    quarter = cube.half_side / 2.0
    cells = []
    for idx in range(2 ** dim):
        box = []
        for axis in range(dim):
            if (idx >> axis) & 1:
                box.append((0.0, quarter))
            else:
                box.append((-quarter, 0.0))
        cells.append((tuple(box), float(raw[idx])))
    payload = piecewise_constant(cube.n, cube.m, tuple(cells))
    return Atom(cube=cube, payload=payload, normalization="strict")


def noncancelling_counterpart(a: Atom) -> TestFunction:
    """Indicator bump with the atom's sup on the atom's support box.

    The negative control for cancellation experiments: same size, same
    sup-norm, no sign changes, so it is not an atom.
    """
    return indicator_box(a.n, a.m, a.payload.support, value=a.payload.sup_bound())


def atom_to_json(a: Atom) -> str:
    """Serialize as {n, m, L, cells: [{box, value}]}; floats round-trip exactly."""
    cells = [
        {"box": [list(iv) for iv in box], "value": value} for box, value in a.payload.cells
    ]
    doc = {"n": a.n, "m": a.m, "L": a.L, "cells": cells}
    return json.dumps(doc)


def atom_from_json(text: str) -> Atom:
    """Rebuild an atom; the normalization is inferred from its geometry."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"atom JSON must be an object, not {type(doc).__name__}")
    for key in ("n", "m", "L", "cells"):
        if key not in doc:
            raise ValueError(f"atom JSON has no key {key!r}")
        if key != "cells" and type(doc[key]) is not int:
            raise ValueError(f"atom JSON {key!r} must be an integer, not {json.dumps(doc[key])}")
    n, m, L = doc["n"], doc["m"], doc["L"]
    try:
        cells = tuple(
            (tuple(tuple(iv) for iv in cell["box"]), float(cell["value"]))
            for cell in doc["cells"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError("atom JSON cells must be objects with a box and a value") from exc
    payload = piecewise_constant(n, m, cells)
    cube = Cube(n=n, m=m, L=L)
    strict = validate_atom(Atom(cube=cube, payload=payload, normalization="strict"))
    normalization = "strict" if strict.support_ok and strict.bound_ok else "relaxed"
    return Atom(cube=cube, payload=payload, normalization=normalization)
