"""Shell geometry, case classification, windows, and special regions.

A region is its list of boxes, so the references here are closed forms: the
region's max-norm ranges, which every box must lie within, and its volume,
which the boxes must add up to.
"""

import math

import numpy as np
import pytest

from flagint import (
    CounterexampleRegion,
    Cube,
    GapRegion,
    RegionError,
    Shell,
    Window,
    centered_window,
    shell_case,
    shell_family,
)


def _boxes(region):
    return [box for box, _ in region.signed_boxes()]


def _boxes_volume(region):
    return math.fsum(math.prod(hi - lo for lo, hi in box) for box in _boxes(region))


def _in_a_closed_box(pts, boxes):
    # per point, whether some box of the list holds it, edges included
    lo = np.array([[a for a, _ in box] for box in boxes])
    hi = np.array([[b for _, b in box] for box in boxes])
    return np.any(np.all((pts[:, None, :] >= lo) & (pts[:, None, :] <= hi), axis=2), axis=1)


def _max_norm_range(intervals):
    # the least and the largest |z|_inf over the closed box of these intervals
    least = [0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)) for lo, hi in intervals]
    return max(least), max(max(abs(lo), abs(hi)) for lo, hi in intervals)


# ---------------------------------------------------------------------------
# cubes and volumes


def test_cube_side_and_volume():
    q = Cube(n=1, m=1, L=0)
    assert q.side == 1.0 and q.half_side == 0.5
    assert q.volume() == 1.0
    qo = Cube(n=1, m=1, L=1)
    assert qo.side == 2.0
    assert qo.volume() == 4.0


def test_dyadic_scales_stay_in_the_normal_float_range():
    # at n = m = 1 the cube's volume 2^(2L) and its relaxed sup bound
    # 2^(2(1-L)) keep L in [-510, 511]; the gap's outer box (-2^L, 2^L)^2,
    # of volume 2^(2(L+1)), keeps L <= 510
    assert Cube(1, 1, 511).volume() == 2.0 ** 1022
    assert Cube(1, 1, -510).volume() == 2.0 ** -1020
    assert _boxes_volume(GapRegion(1, 1, 510)) == 3.0 * 2.0 ** 1020
    for make, L in ((Cube, 512), (Cube, -511), (Cube, 5000), (Cube, -5000),
                    (GapRegion, 511), (GapRegion, -511)):
        with pytest.raises(ValueError, match="normal float range"):
            make(1, 1, L)
    # a shell's outer box has sides 2^(L+k+1) and 2^(L+l+1)
    assert _boxes_volume(Shell(1, 1, 1021, 0, 0)) == 2.0 ** 1022
    for n, k, l, L in ((1, 1022, 0, 0), (1, 0, 1022, 0), (2, 600, 0, 0), (1, 0, 0, 5000)):
        with pytest.raises(ValueError, match="normal float range"):
            Shell(n, 1, k, l, L)


# ---------------------------------------------------------------------------
# shell boxes


def test_index_zero_drops_lower_bound():
    s = Shell(n=1, m=1, k=0, l=2, L=0)
    assert s.x_range() == (0.0, 1.0)
    assert s.y_range() == (2.0, 4.0)
    # the x factor of every box is the whole interval (-1, 1), through 0
    assert {box[0] for box in _boxes(s)} == {(-1.0, 1.0)}
    assert Shell(n=1, m=1, k=1, l=1, L=0).x_range() == (1.0, 2.0)
    assert Shell(n=1, m=1, k=2, l=1, L=0).x_range() == (2.0, 4.0)


def test_zero_zero_is_the_max_norm_cube():
    s = Shell(n=1, m=1, k=0, l=0, L=0)
    assert s.is_cube
    assert s.signed_boxes() == Cube(n=1, m=1, L=0).signed_boxes() == [
        (((-0.5, 0.5), (-0.5, 0.5)), 1.0)]


def test_shell_rejects_negative_indices():
    with pytest.raises(RegionError):
        Shell(n=1, m=1, k=-1, l=0, L=0)


def test_shell_volume_matches_boxes():
    s = Shell(n=1, m=1, k=1, l=1, L=0)
    boxes = s.signed_boxes()
    assert len(boxes) == 4 and all(sign == 1.0 for _, sign in boxes)
    # on each factor, {1 <= |z| < 2} has length 4 - 2
    assert _boxes_volume(s) == (4.0 - 2.0) * (4.0 - 2.0)


def test_shell_samples_land_inside():
    rng = np.random.default_rng(3)
    s = Shell(n=2, m=1, k=2, l=1, L=0)
    pts = s.sample(rng, 500)
    assert np.all(_in_a_closed_box(pts, _boxes(s)))
    xn, yn = np.max(np.abs(pts[:, :2]), axis=1), np.abs(pts[:, 2])
    assert np.all((2.0 <= xn) & (xn <= 4.0) & (1.0 <= yn) & (yn <= 2.0))


# ---------------------------------------------------------------------------
# case classification


def test_case_labels():
    assert shell_case(Shell(1, 1, 0, 0, 0)) == "Case1"
    assert shell_case(Shell(1, 1, 3, 2, 0)) == "Case2"
    assert shell_case(Shell(1, 1, 2, 0, 0)) == "Case3"
    assert shell_case(Shell(1, 1, 0, 5, 1)) == "Case4"


def test_shell_family_enumeration():
    fam = shell_family(1, 1, L=0, k_max=3, l_max=2)
    assert len(fam) == 12
    assert fam[0].is_cube
    assert {(s.k, s.l) for s in fam} == {(k, l) for k in range(4) for l in range(3)}


# ---------------------------------------------------------------------------
# windows


def test_window_basics():
    w = centered_window(1, 1, 2.0, 3.0)
    assert w.box == ((-2.0, 2.0), (-3.0, 3.0))
    assert _boxes_volume(w) == 24.0
    assert list(_in_a_closed_box(np.array([[1.0, -2.5], [2.5, 0.0]]), _boxes(w))) == [
        True, False]


def test_window_dilation_is_anisotropic():
    w = centered_window(1, 1, 2.0, 2.0)
    d = w.dilated(2.0, 1.0, 2.0)
    assert d.box == ((-4.0, 4.0), (-8.0, 8.0))
    dl = w.dilated(1.0, 3.0, 2.0)
    assert dl.box == ((-2.0, 2.0), (-6.0, 6.0))


def test_window_rejects_empty_interval():
    with pytest.raises(ValueError):
        Window(n=1, m=1, box=((0.0, 0.0), (-1.0, 1.0)))


# ---------------------------------------------------------------------------
# counterexample and gap regions


def test_counterexample_region_geometry():
    r = CounterexampleRegion(n=1, m=1, R=5.0)
    assert r.x_bounds() == ((2.0, 4.0),)
    assert _boxes_volume(r) == 2.0 * 10.0
    pts = np.array([[3.0, -4.9], [1.9, 0.0], [3.0, 5.1]])
    assert list(_in_a_closed_box(pts, _boxes(r))) == [True, False, False]
    assert r.signed_boxes() == [(((2.0, 4.0), (-5.0, 5.0)), 1.0)]


def test_counterexample_region_m2_is_one_box():
    r = CounterexampleRegion(n=1, m=2, R=5.0)
    assert r.signed_boxes() == [(((2.0, 4.0), (-5.0, 5.0), (-5.0, 5.0)), 1.0)]
    assert _boxes_volume(r) == 2.0 * 10.0 * 10.0
    # the y corner lies outside the Euclidean ball of radius R
    pts = np.array([[3.0, 4.9, -4.9], [3.0, 0.0, 5.1]])
    assert list(_in_a_closed_box(pts, _boxes(r))) == [True, False]
    rng = np.random.default_rng(5)
    pts = r.sample(rng, 300)
    assert np.all(_in_a_closed_box(pts, _boxes(r)))


def test_counterexample_region_requires_positive_radius():
    with pytest.raises(RegionError):
        CounterexampleRegion(n=1, m=1, R=0.0)


def test_gap_region_is_ball_product_minus_cube():
    # the "ball product" of the factor max norms is the box (-1, 1)^2
    g = GapRegion(n=1, m=1, L=0)
    # [-1,1]^2 minus the side-1 cube
    assert _boxes_volume(g) == 4.0 - 1.0
    pts = np.array([[0.75, 0.75], [0.25, 0.25], [1.25, 0.0]])
    assert list(_in_a_closed_box(pts, _boxes(g))) == [True, False, False]


def _interiors_meet(a, b):
    return all(max(lo, c) < min(hi, d) for (lo, hi), (c, d) in zip(a, b))


@pytest.mark.parametrize("L", [-1, 0, 2])
def test_gap_region_is_four_disjoint_positive_boxes(L):
    g = GapRegion(n=1, m=1, L=L)
    r, h = 2.0 ** L, 2.0 ** (L - 1)
    signed = g.signed_boxes()
    assert len(signed) == 4 and all(s == 1.0 for _, s in signed)
    boxes = [box for box, _ in signed]
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert not _interiors_meet(a, b)
    # the slabs tile (-r, r)^2 minus Q
    total = math.fsum((x1 - x0) * (y1 - y0) for (x0, x1), (y0, y1) in boxes)
    assert total == (2.0 * r) ** 2 - (2.0 * h) ** 2
    q = Cube(n=1, m=1, L=L).bounds()
    for box in boxes:
        least, largest = _max_norm_range(box)
        assert h <= least and largest <= r
        assert not _interiors_meet(box, q)


def test_gap_region_samples_inside():
    g = GapRegion(n=1, m=1, L=2)
    rng = np.random.default_rng(9)
    pts = g.sample(rng, 200)
    assert pts.shape == (200, 2)
    assert np.all(_in_a_closed_box(pts, _boxes(g)))
    z = np.max(np.abs(pts), axis=1)
    assert np.all((2.0 <= z) & (z <= 4.0))


# ---------------------------------------------------------------------------
# every region is a list of positive max-norm boxes


def _annulus_volume(dim, lo, hi):
    # {lo <= |z|_inf < hi} in R^dim
    return (2.0 * hi) ** dim - (2.0 * lo) ** dim


def _within(norms, bounds):
    return bounds[0] <= norms[0] and norms[1] <= bounds[1]


def _regions_with_volumes(n, m):
    """Each region, its volume, and whether a box lies in its closed-form set.

    The sets are closed: {lo <= |x|_inf <= hi, ...} for a shell, whose ranges
    its x_range() and y_range() give, 2^(L-1) <= |z|_inf <= 2^L for a gap, and
    [2, 4]^n x {|y|_inf <= R} for the counterexample region.
    """
    out = []
    for k, l in ((1, 0), (0, 2), (2, 3)):
        s = Shell(n=n, m=m, k=k, l=l, L=0)
        out.append((s, _annulus_volume(n, *s.x_range()) * _annulus_volume(m, *s.y_range()),
                    lambda box, s=s: (_within(_max_norm_range(box[:n]), s.x_range())
                                      and _within(_max_norm_range(box[n:]), s.y_range()))))
    for L in (-1, 0, 2):
        out.append((GapRegion(n=n, m=m, L=L),
                    _annulus_volume(n + m, 2.0 ** (L - 1), 2.0 ** L),
                    lambda box, L=L: _within(_max_norm_range(box), (2.0 ** (L - 1), 2.0 ** L))))
    out.append((CounterexampleRegion(n=n, m=m, R=10.0), 2.0 ** n * 20.0 ** m,
                lambda box: (all(2.0 <= lo and hi <= 4.0 for lo, hi in box[:n])
                             and _max_norm_range(box[n:])[1] <= 10.0)))
    return out


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
def test_regions_are_disjoint_positive_max_norm_boxes(n, m):
    rng = np.random.default_rng(17)
    for region, closed_form, holds in _regions_with_volumes(n, m):
        signed = region.signed_boxes()
        assert all(sign == 1.0 for _, sign in signed), region
        boxes = [box for box, _ in signed]
        assert all(len(box) == n + m for box in boxes)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert not _interiors_meet(a, b), region
        assert all(holds(box) for box in boxes), region
        assert _boxes_volume(region) == closed_form, region
        pts = region.sample(rng, 400)
        assert pts.shape == (400, n + m)
        assert np.all(_in_a_closed_box(pts, boxes)), region


def test_samples_pick_each_box_in_proportion_to_its_volume():
    # the slabs of this gap have volumes 16, 8 and 4 (times h^3), in pairs
    g = GapRegion(n=2, m=1, L=1)
    boxes = [box for box, _ in g.signed_boxes()]
    vols = np.array([math.prod(hi - lo for lo, hi in box) for box in boxes])
    count = 20000
    pts = g.sample(np.random.default_rng(23), count)
    lo = np.array([[a for a, _ in box] for box in boxes])
    hi = np.array([[b for _, b in box] for box in boxes])
    inside = np.all((pts[:, None, :] > lo) & (pts[:, None, :] < hi), axis=2)
    assert np.all(inside.sum(axis=1) == 1)
    p = vols / vols.sum()
    sigma = np.sqrt(count * p * (1.0 - p))
    assert np.all(np.abs(inside.sum(axis=0) - count * p) <= 5.0 * sigma)


def test_one_dimensional_factor_lists_are_pinned():
    assert Shell(n=1, m=1, k=1, l=0, L=0).signed_boxes() == [
        (((-2.0, -1.0), (-1.0, 1.0)), 1.0),
        (((1.0, 2.0), (-1.0, 1.0)), 1.0),
    ]
    assert Shell(n=1, m=1, k=0, l=2, L=0).signed_boxes() == [
        (((-1.0, 1.0), (-4.0, -2.0)), 1.0),
        (((-1.0, 1.0), (2.0, 4.0)), 1.0),
    ]
    assert Shell(n=1, m=1, k=2, l=3, L=0).signed_boxes() == [
        (((-4.0, -2.0), (-8.0, -4.0)), 1.0),
        (((-4.0, -2.0), (4.0, 8.0)), 1.0),
        (((2.0, 4.0), (-8.0, -4.0)), 1.0),
        (((2.0, 4.0), (4.0, 8.0)), 1.0),
    ]
    assert Shell(n=1, m=1, k=0, l=0, L=0).signed_boxes() == [
        (((-0.5, 0.5), (-0.5, 0.5)), 1.0),
    ]
    assert GapRegion(n=1, m=1, L=0).signed_boxes() == [
        (((-1.0, -0.5), (-1.0, 1.0)), 1.0),
        (((0.5, 1.0), (-1.0, 1.0)), 1.0),
        (((-0.5, 0.5), (-1.0, -0.5)), 1.0),
        (((-0.5, 0.5), (0.5, 1.0)), 1.0),
    ]
    assert CounterexampleRegion(n=1, m=1, R=10.0).signed_boxes() == [
        (((2.0, 4.0), (-10.0, 10.0)), 1.0),
    ]
