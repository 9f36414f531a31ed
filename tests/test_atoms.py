"""Atom construction, the three validity conditions, and serialization."""

import math
from fractions import Fraction

import pytest

from flagint import (
    Atom,
    Cube,
    atom_from_json,
    atom_to_json,
    indicator_box,
    make_random_atom,
    make_signum_atom,
    noncancelling_counterpart,
    signum_atom_at_scale,
    smooth_bump,
    validate_atom,
)


def test_signum_atom_is_plain_sgn():
    a = make_signum_atom(1, 1)
    assert a.L == 1 and a.normalization == "relaxed"
    # at L=1 the lenient sup bound 2^{n+m}/vol(Q) is exactly 1
    assert a.payload.sup_bound() == 1.0
    assert a.payload.evaluate([[0.5, 0.0]])[0] == 1.0
    assert a.payload.evaluate([[-0.5, 0.0]])[0] == -1.0
    report = validate_atom(a)
    assert report.ok
    assert report.support_ok and report.bound_ok and report.mean_ok
    assert report.mean == Fraction(0)
    assert report.sup == 1.0
    assert report.normalization == "relaxed"


def test_signum_atom_fails_strict_mode():
    a = make_signum_atom(1, 1)
    report = validate_atom(a, normalization="strict")
    assert not report.support_ok  # fills Q, not (1/2)Q
    assert not report.bound_ok    # sup 1 > 1/vol(Q) = 1/4
    assert report.mean_ok
    assert not report.ok


def test_signum_amplitude_tracks_scale():
    a = signum_atom_at_scale(1, 1, L=0)
    assert a.payload.sup_bound() == 4.0
    assert validate_atom(a).ok


def test_random_atom_is_valid_and_deterministic():
    cube = Cube(n=1, m=1, L=0)
    a = make_random_atom(cube, seed=7)
    assert a.normalization == "strict"
    report = validate_atom(a)
    assert report.ok
    assert report.sup <= 1.0 / cube.volume() * (1.0 + 1e-12)
    assert make_random_atom(cube, seed=7) == a
    assert make_random_atom(cube, seed=8) != a


def test_random_atom_supported_in_half_cube():
    a = make_random_atom(Cube(n=2, m=1, L=2), seed=11)
    quarter = 2.0 ** (2 - 1) / 2.0
    for lo, hi in a.payload.support:
        assert lo >= -quarter and hi <= quarter
    assert validate_atom(a).ok


def test_biased_payload_fails_the_mean_condition():
    cube = Cube(n=1, m=1, L=0)
    payload = indicator_box(1, 1, ((-0.25, 0.25), (-0.25, 0.25)), value=1.0)
    a = Atom(cube=cube, payload=payload)
    report = validate_atom(a)
    assert report.support_ok and report.bound_ok
    assert not report.mean_ok
    assert report.mean == Fraction(1, 4)
    assert not report.ok


def test_noncancelling_counterpart_shares_geometry():
    a = make_signum_atom(1, 1)
    g = noncancelling_counterpart(a)
    assert g.support == a.payload.support
    assert g.sup_bound() == a.payload.sup_bound()
    assert g.is_nonnegative()
    # same size and sup but a full positive mean: not an atom; its L1 mass
    # is the sum of |v| (hi - lo) over its cells, the sup times [-1, 1]^2
    mass = 0.0
    for box, v in g.cells:
        mass += abs(v) * math.prod(hi - lo for lo, hi in box)
    assert mass == 4.0


def test_json_round_trip_is_exact():
    a = make_random_atom(Cube(n=1, m=1, L=2), seed=3)
    b = atom_from_json(atom_to_json(a))
    assert b == a  # floats survive the round trip bit for bit
    s = make_signum_atom(1, 1)
    t = atom_from_json(atom_to_json(s))
    assert t.normalization == "relaxed"
    assert t.payload.cells == s.payload.cells


def test_atom_constructor_rejections():
    cube = Cube(n=1, m=1, L=0)
    payload = make_random_atom(cube, seed=0).payload
    with pytest.raises(ValueError):
        Atom(cube=cube, payload=payload, normalization="lenient")
    with pytest.raises(ValueError):
        Atom(cube=cube, payload=smooth_bump(1, 1, radius=0.25))
    with pytest.raises(ValueError):
        Atom(cube=Cube(n=2, m=1, L=0), payload=payload)


def test_validate_rejects_unknown_normalization():
    a = make_signum_atom(1, 1)
    with pytest.raises(ValueError):
        validate_atom(a, normalization="loose")
