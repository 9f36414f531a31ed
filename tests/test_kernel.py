"""Pointwise kernel values, homogeneity, domination, one formula with the engine."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flagint import (
    ExponentConfig,
    FlagKernel,
    SingularityError,
    derive_ab,
    dominating_kernel_eval,
    kernel_eval,
    point_pair,
    product_kernel_points,
)
from flagint.kernel import flag_kernel, product_kernel

F = Fraction


def _kernel(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(2)):
    return FlagKernel(ExponentConfig(n=n, m=m, alpha=alpha, beta=beta, rho=rho))


# ---------------------------------------------------------------------------
# frozen point values


def test_unit_point_value():
    k = _kernel()
    assert kernel_eval(k, point_pair(1.0, 0.0)) == 1.0


def test_hand_computed_value():
    # 2^{-1/2} * (4 + 3)^{-1/2} = 14^{-1/2}
    k = _kernel()
    value = kernel_eval(k, point_pair(2.0, 3.0))
    assert math.isclose(value, 14.0 ** -0.5, rel_tol=1e-14)


def test_higher_dimensional_norms_are_euclidean():
    k = _kernel(n=2, m=2, alpha=F(3, 2), beta=F(1, 2), rho=F(2))
    pt = point_pair([3.0, 4.0], [0.0, 7.0])
    # |x| = 5, |y| = 7: 5^{3/2-2} * (25+7)^{1/2-2}
    expected = 5.0 ** -0.5 * 32.0 ** -1.5
    assert math.isclose(kernel_eval(k, pt), expected, rel_tol=1e-14)


def test_singularity_raises():
    k = _kernel()
    with pytest.raises(SingularityError):
        kernel_eval(k, point_pair(0.0, 1.0))
    with pytest.raises(SingularityError):
        kernel_eval(k, point_pair(1e-305, 1.0))


def test_dimension_mismatch():
    k = _kernel()
    with pytest.raises(ValueError):
        kernel_eval(k, point_pair([1.0, 2.0], 1.0))


# ---------------------------------------------------------------------------
# homogeneity and order properties


def test_homogeneity_over_seeded_samples():
    rng = np.random.default_rng(7)
    for alpha, beta, rho in [(F(1, 2), F(1, 2), F(2)),
                             (F(9, 10), F(3, 10), F(2)),
                             (F(1, 4), F(3, 4), F(3, 2))]:
        k = _kernel(alpha=alpha, beta=beta, rho=rho)
        xn = rng.uniform(0.05, 8.0, size=2000)
        yn = rng.uniform(0.0, 8.0, size=2000)
        delta = 2.0 ** rng.uniform(-6, 6, size=2000)
        lhs = k.eval_norms(delta * xn, delta ** float(rho) * yn)
        # K(delta x, delta^rho y) = delta^{-(n - alpha) - rho (m - beta)} K(x, y), n = m = 1
        exponent = -(1 - float(alpha)) - float(rho) * (1 - float(beta))
        rhs = delta ** exponent * k.eval_norms(xn, yn)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12


def test_monotone_in_each_norm():
    k = _kernel(alpha=F(9, 10), beta=F(3, 10))
    rng = np.random.default_rng(11)
    xn = rng.uniform(0.1, 4.0, size=500)
    yn = rng.uniform(0.0, 4.0, size=500)
    base = k.eval_norms(xn, yn)
    assert np.all(k.eval_norms(xn * 1.5, yn) <= base)
    assert np.all(k.eval_norms(xn, yn + 0.5) <= base)


def test_anisotropy_lower_bound_in_y():
    # scaling |y| by lam >= 1 loses at most lam^{beta-m}
    k = _kernel(alpha=F(1, 2), beta=F(3, 10))
    rng = np.random.default_rng(13)
    xn = rng.uniform(0.1, 4.0, size=500)
    yn = rng.uniform(0.0, 4.0, size=500)
    for lam in (2.0, 8.0):
        lhs = k.eval_norms(xn, lam * yn)
        rhs = lam ** (float(k.cfg.beta) - k.m) * k.eval_norms(xn, yn)
        assert np.all(lhs >= rhs * (1.0 - 1e-12))


def test_domination_by_product_kernel():
    rng = np.random.default_rng(17)
    for n, m, alpha, beta, rho in [(1, 1, F(9, 10), F(3, 10), F(2)),
                                   (2, 1, F(1), F(1, 4), F(2)),
                                   (1, 2, F(1, 2), F(1, 2), F(3, 2))]:
        cfg = ExponentConfig(n=n, m=m, alpha=alpha, beta=beta, rho=rho)
        k = FlagKernel(cfg)
        ab = derive_ab(cfg)
        pts = rng.uniform(-4.0, 4.0, size=(2000, n + m))
        keep = (np.abs(pts[:, :n]).max(axis=1) > 1e-3) & (
            np.abs(pts[:, n:]).max(axis=1) > 1e-3
        )
        pts = pts[keep]
        flag = k.eval_points(pts)
        prod = product_kernel_points(k, ab, pts)
        assert np.all(flag <= prod * (1.0 + 1e-12))


def test_dominating_kernel_point_example():
    # n=m=1, rho=1, alpha=beta=1/2 gives a=b=1/2; at (1,1) the product
    # kernel is 1 while the flag kernel is 2^{-1/2}
    cfg = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1))
    k = FlagKernel(cfg)
    ab = derive_ab(cfg)
    assert ab.a == F(1, 2) and ab.b == F(1, 2)
    pt = point_pair(1.0, 1.0)
    assert dominating_kernel_eval(k, ab, pt) == 1.0
    assert math.isclose(kernel_eval(k, pt), 2.0 ** -0.5, rel_tol=1e-14)


def test_dominating_kernel_singular_on_y_axis():
    cfg = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1))
    k = FlagKernel(cfg)
    ab = derive_ab(cfg)
    with pytest.raises(SingularityError):
        dominating_kernel_eval(k, ab, point_pair(1.0, 0.0))


# ---------------------------------------------------------------------------
# one formula: the public evaluators give the engine kernel's bits


_DIMS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def _engine_config(n, m):
    return ExponentConfig(n=n, m=m, alpha=F(n, 2), beta=F(m, 3), rho=F(3, 2))


@pytest.mark.parametrize("n, m", _DIMS)
def test_public_evaluators_match_the_engine_kernel(n, m):
    cfg = _engine_config(n, m)
    k = FlagKernel(cfg)
    ab = derive_ab(cfg)
    rng = np.random.default_rng(29 + 3 * n + m)
    pts = rng.uniform(-3.0, 3.0, size=(300, n + m))
    # the engine takes the kernel at offsets pt - z as the product of its
    # split_offsets factors: with pt = 0 and z = -row the offsets are the row
    diffs = [pts[:, i] for i in range(n + m)]
    flag = np.multiply(*flag_kernel(cfg).split_offsets(diffs))
    prod = np.multiply(*product_kernel(cfg, ab).split_offsets(diffs))

    assert np.array_equal(k.eval_points(pts), flag)
    assert np.array_equal(product_kernel_points(k, ab, pts), prod)
    xn = np.sqrt(np.sum(pts[:, :n] * pts[:, :n], axis=1))
    yn = np.sqrt(np.sum(pts[:, n:] * pts[:, n:], axis=1))
    assert np.array_equal(k.eval_norms(xn, yn), flag)
    for row, want_flag, want_prod in zip(pts, flag, prod):
        pt = point_pair(row[:n], row[n:])
        assert kernel_eval(k, pt) == want_flag
        assert dominating_kernel_eval(k, ab, pt) == want_prod


@pytest.mark.parametrize("n, m", _DIMS)
def test_flag_kernel_keeps_the_bits_of_the_plain_formula(n, m):
    # of_norms forms the flag kernel in place; the plain expression, with its
    # temporaries, must give the same bits on a broadcast (u, v) tensor and
    # on 0-d norms, where numpy takes its scalar power instead of the array loop
    cfg = _engine_config(n, m)
    k = flag_kernel(cfg)
    rng = np.random.default_rng(41 + 3 * n + m)
    sn = rng.uniform(1e-3, 4.0, size=(60, 1))
    tn = rng.uniform(0.0, 4.0, size=(1, 50))
    su_power = float(cfg.alpha) - n
    mix_power = float(cfg.beta) - m
    rho = float(cfg.rho)

    def plain(s, t):
        return s ** su_power * (s ** rho + t) ** mix_power

    got = k.of_norms(sn, tn)
    assert got.shape == (60, 50)
    assert got.tobytes() == plain(sn, tn).tobytes()
    for s, t in zip(sn.ravel(), rng.uniform(0.0, 4.0, size=60)):
        s0, t0 = np.asarray(s), np.asarray(t)
        want = plain(s0, t0)
        got0 = k.of_norms(s0, t0)
        assert type(got0) is type(want)
        assert got0.tobytes() == want.tobytes()
        assert FlagKernel(cfg).eval_norms(s0, t0).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, m", _DIMS)
def test_public_evaluators_refuse_the_singular_set(n, m):
    cfg = _engine_config(n, m)
    k = FlagKernel(cfg)
    ab = derive_ab(cfg)
    on_x_axis = np.array([[0.0] * n + [1.5] * m])   # x = 0: both kernels blow up
    on_y_axis = np.array([[1.5] * n + [0.0] * m])   # y = 0: only the product kernel
    with pytest.raises(SingularityError):
        k.eval_points(on_x_axis)
    with pytest.raises(SingularityError):
        k.eval_norms(np.zeros(3), np.ones(3))
    with pytest.raises(SingularityError):
        kernel_eval(k, point_pair(on_x_axis[0, :n], on_x_axis[0, n:]))
    for pts in (on_x_axis, on_y_axis):
        with pytest.raises(SingularityError):
            product_kernel_points(k, ab, pts)
        with pytest.raises(SingularityError):
            dominating_kernel_eval(k, ab, point_pair(pts[0, :n], pts[0, n:]))
    assert k.eval_points(on_y_axis)[0] == np.multiply(*flag_kernel(cfg).split_offsets(
        [on_y_axis[:, i] for i in range(n + m)]))[0]

