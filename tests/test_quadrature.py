"""Integration engine: convolution values, norms, scaling identities."""

import dataclasses
import functools
import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from flagint import quadrature
from flagint.kernel import flag_kernel, product_kernel, riesz_kernel
from flagint import (
    AccuracyError,
    CounterexampleRegion,
    Cube,
    ExponentConfig,
    FlagKernel,
    GapRegion,
    PreconditionError,
    QuadratureSpec,
    Shell,
    UsageError,
    Window,
    apply_operator,
    apply_riesz_1d,
    centered_window,
    derive_ab,
    heisenberg_map,
    indicator_box,
    kernel_eval,
    lp_norm,
    lq_mass,
    lq_mass_dominating,
    make_random_atom,
    make_signum_atom,
    noncancelling_counterpart,
    piecewise_constant,
    point_pair,
    signum_atom_at_scale,
    smooth_bump,
    sufficient_inner_cutoff,
)

F = Fraction


def _cfg(alpha=F(1, 2), beta=F(1, 2), rho=F(2)):
    return ExponentConfig(n=1, m=1, alpha=alpha, beta=beta, rho=rho)


def _sgn_payload():
    # sgn(u) on [-1,1]^2, amplitude 1
    return piecewise_constant(
        1, 1,
        [
            (((-1.0, 0.0), (-1.0, 1.0)), -1.0),
            (((0.0, 1.0), (-1.0, 1.0)), 1.0),
        ],
    )


# ---------------------------------------------------------------------------
# one-variable fractional integral


def test_riesz_exterior_point(grid_spec):
    f = indicator_box(1, 0, ((0.0, 1.0),))
    got = apply_riesz_1d(F(1, 2), f, 2.0, grid_spec)
    assert math.isclose(got, 2.0 * (math.sqrt(2.0) - 1.0), rel_tol=1e-4)


def test_riesz_interior_point_with_sized_cutoff(grid_spec):
    cutoff = sufficient_inner_cutoff(0.5, 1, grid_spec.target_rel_error)
    spec = dataclasses.replace(grid_spec, inner_cutoff=cutoff)
    f = indicator_box(1, 0, ((0.0, 1.0),))
    got = apply_riesz_1d(F(1, 2), f, 0.5, spec)
    assert math.isclose(got, 2.0 * math.sqrt(2.0), rel_tol=1e-3)


def test_riesz_interior_default_cutoff_rejected(grid_spec):
    # at 2^-20 the analytic core bound exceeds a 1e-3 relative target
    f = indicator_box(1, 0, ((0.0, 1.0),))
    with pytest.raises(AccuracyError) as exc:
        apply_riesz_1d(F(1, 2), f, 0.5, grid_spec)
    assert isinstance(exc.value.value, float) and math.isfinite(exc.value.value)
    assert isinstance(exc.value.err, float) and exc.value.err > 0.0


@pytest.mark.parametrize("x", [1e4, 1e8, 1e12, 3e15])
def test_riesz_far_points_match_the_closed_form(grid_spec, x):
    # (x+1)^a - (x-1)^a over a, written so that it does not cancel
    f = indicator_box(1, 0, ((-1.0, 1.0),))
    a = 0.5
    want = x ** a * (math.expm1(a * math.log1p(1 / x)) - math.expm1(a * math.log1p(-1 / x))) / a
    got = apply_riesz_1d(F(1, 2), f, x, grid_spec)
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_a_point_whose_offsets_lose_the_support_width_is_refused(grid_spec):
    # from 1e20 the offsets -1 - x and 1 - x round to one float; the grid
    # read 0 +- 0 there. A point that is not finite is refused by the same check
    for x in (1e20, math.inf, math.nan):
        with pytest.raises(UsageError, match="too far"):
            apply_operator(_cfg(), smooth_bump(1, 1), point_pair([x], [0.0]), grid_spec)
    with pytest.raises(UsageError, match="too far"):
        apply_riesz_1d(F(1, 2), indicator_box(1, 0, ((-1.0, 1.0),)), 1e16, grid_spec)


def test_riesz_zero_payload(grid_spec):
    f = indicator_box(1, 0, ((0.0, 1.0),), value=0.0)
    assert apply_riesz_1d(F(1, 2), f, 2.0, grid_spec) == 0.0


def test_riesz_rejects_alpha_out_of_range(grid_spec):
    f = indicator_box(1, 0, ((0.0, 1.0),))
    with pytest.raises(PreconditionError):
        apply_riesz_1d("3/2", f, 2.0, grid_spec)


def test_riesz_rejects_pair_payload(grid_spec):
    f = indicator_box(1, 1, ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        apply_riesz_1d(F(1, 2), f, 2.0, grid_spec)


# ---------------------------------------------------------------------------
# pair convolution


def test_apply_exterior_sandwich(grid_spec):
    # at (10, 0) the integrand over [-1,1]^2 is pinched between the kernel
    # at the farthest and nearest corners
    cfg = _cfg()
    k = FlagKernel(cfg)
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    value, err = apply_operator(cfg, f, point_pair(10.0, 0.0), grid_spec)
    lo = 4.0 * kernel_eval(k, point_pair(11.0, 1.0))
    hi = 4.0 * kernel_eval(k, point_pair(9.0, 0.0))
    assert lo - err <= value <= hi + err
    assert err < 1e-3 * value


def test_apply_linearity_is_exact_on_grid(grid_spec):
    # doubling the payload doubles every node value; powers of two commute
    # with rounding, so the results match bit for bit
    cfg = _cfg()
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    pt = point_pair(10.0, 0.0)
    v1, e1 = apply_operator(cfg, f, pt, grid_spec)
    v2, e2 = apply_operator(cfg, f.scale_values(2.0), pt, grid_spec)
    assert v2 == 2.0 * v1
    assert e2 == 2.0 * e1


def test_apply_translation_covariance(grid_spec):
    cfg = _cfg(alpha=F(9, 10), beta=F(3, 10))
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    shift = (0.5, 0.25)
    pt = point_pair(10.0, 0.0)
    moved = point_pair(10.5, 0.25)
    v0, _ = apply_operator(cfg, f, pt, grid_spec)
    v1, _ = apply_operator(cfg, f.translate(shift), moved, grid_spec)
    assert math.isclose(v0, v1, rel_tol=1e-12)


def test_apply_rejects_dim_mismatch(grid_spec):
    cfg = ExponentConfig(n=2, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(2))
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        apply_operator(cfg, f, point_pair([10.0, 0.0], 0.0), grid_spec)


def test_halving_cutoff_shifts_less_than_reported_error():
    # interior point: refining the analytic core must stay inside the
    # previous error bar
    cfg = _cfg(alpha=F(9, 10), beta=F(3, 10))
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    pt = point_pair(0.5, 0.25)
    spec_a = QuadratureSpec(inner_cutoff=-60)
    spec_b = QuadratureSpec(inner_cutoff=-61)
    va, ea = apply_operator(cfg, f, pt, spec_a)
    vb, eb = apply_operator(cfg, f, pt, spec_b)
    assert abs(va - vb) <= ea + eb


# ---------------------------------------------------------------------------
# scaling identities for the q-mass


def _scan_setup():
    cfg = ExponentConfig(
        n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), p=F(1), q=F(2)
    )
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    window = Window(n=1, m=1, box=((2.0, 4.0), (-4.0, 4.0)))
    return cfg, f, window


def test_lq_mass_dilation_identity(grid_spec):
    # payload and window dilated together scale the mass by exactly
    # delta^(q(alpha+rho beta) + n + rho m); dyadic delta keeps the
    # quadrature plans affine images of each other
    cfg, f, window = _scan_setup()
    base, _ = lq_mass(cfg, f, window, 2, grid_spec)
    delta = 2.0
    scaled, _ = lq_mass(
        cfg,
        f.dilate(delta, 1.0, 2.0),
        window.dilated(delta, 1.0, 2.0),
        2,
        grid_spec,
    )
    predicted = delta ** (2.0 * (0.9 + 2.0 * 0.3) + 1.0 + 2.0) * base
    assert math.isclose(scaled, predicted, rel_tol=1e-12)


@pytest.mark.parametrize("delta", [1.0 / 3.0, 3.0])
def test_lq_mass_dilation_holds_within_err_off_the_dyadic_scales(grid_spec, delta):
    # a delta that is not a power of two does not scale the nodes exactly,
    # so the two masses come from different rules and the identity holds to
    # within the errors they report. The inner rules are graded in offsets
    # from each outer node, so the kernel sees no rounding of x - u near the
    # point, and the masses agree to rounding as well, as at a dyadic delta
    cfg, _, window = _scan_setup()
    f = smooth_bump(1, 1)
    base, base_err = lq_mass(cfg, f, window, 2, grid_spec)
    scaled, err = lq_mass(
        cfg, f.dilate(delta, 1.0, 2.0), window.dilated(delta, 1.0, 2.0), 2, grid_spec
    )
    factor = delta ** (2.0 * (0.9 + 2.0 * 0.3) + 1.0 + 2.0)
    assert abs(scaled - factor * base) <= err + factor * base_err
    assert math.isclose(scaled, factor * base, rel_tol=1e-12)


def test_lq_mass_lambda_lower_bound(grid_spec):
    # for f >= 0 and lam >= 1 the anisotropy of the kernel forces
    # mass(lam) >= lam^(q beta + m) * mass
    cfg, f, window = _scan_setup()
    base, base_err = lq_mass(cfg, f, window, 2, grid_spec)
    lam = 4.0
    scaled, err = lq_mass(
        cfg, f.dilate(1.0, lam, 2.0), window.dilated(1.0, lam, 2.0), 2, grid_spec
    )
    bound = lam ** (2.0 * 0.3 + 1.0) * (base - base_err)
    assert scaled + err >= bound


def test_lq_mass_requires_q_above_one(grid_spec):
    cfg, f, window = _scan_setup()
    with pytest.raises(PreconditionError):
        lq_mass(cfg, f, window, 1, grid_spec)


# ---------------------------------------------------------------------------
# payload norms


def test_lp_norm_indicator(grid_spec):
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    assert math.isclose(lp_norm(f, 2, grid_spec), 2.0, rel_tol=1e-12)
    assert f.exact_lp_mass(2.0) == 4.0


def test_lp_norm_signed_cells(grid_spec):
    f = _sgn_payload()
    assert math.isclose(lp_norm(f, 3, grid_spec), 4.0 ** (1.0 / 3.0), rel_tol=1e-12)
    assert f.exact_lp_mass(3.0) == 4.0
    assert not f.is_nonnegative()


def test_lp_norm_bump_matches_gauss_oracle(grid_spec):
    # separable profile: the 2-d L1 mass is the square of the 1-d integral
    nodes, weights = np.polynomial.legendre.leggauss(200)
    one_d = float(np.sum(weights * np.exp(1.0 - 1.0 / (1.0 - nodes ** 2))))
    f = smooth_bump(1, 1, radius=1.0)
    got = lp_norm(f, 1, grid_spec)
    assert math.isclose(got, one_d ** 2, rel_tol=1e-3)


def test_lp_norm_requires_p_at_least_one(grid_spec):
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(PreconditionError):
        lp_norm(f, "1/2", grid_spec)


# ---------------------------------------------------------------------------
# payload construction


def test_smooth_bump_scalar_radius_broadcasts():
    assert smooth_bump(1, 1, radius=0.5) == smooth_bump(1, 1, radius=[0.5, 0.5])


def test_smooth_bump_peak_and_support():
    f = smooth_bump(1, 1, radius=1.0, amplitude=3.0)
    assert f.evaluate(np.array([[0.0, 0.0]]))[0] == 3.0
    assert f.evaluate(np.array([[1.0, 0.0]]))[0] == 0.0
    assert f.support == ((-1.0, 1.0), (-1.0, 1.0))
    assert f.min_cells_hint == 8


def test_bump_built_directly_gets_the_rule_of_smooth_bump():
    # the cell cap follows from the profile, not from the constructor
    made = smooth_bump(1, 1, (0.0, 0.0), 1.0, 1.0)
    direct = quadrature.TestFunction(
        n=1, m=1, support=((-1.0, 1.0), (-1.0, 1.0)),
        cells=((((-1.0, 1.0), (-1.0, 1.0)), 1.0),), center=(0.0, 0.0), radius=(1.0, 1.0),
    )
    assert direct == made
    assert (direct.min_cells_hint, _sgn_payload().min_cells_hint) == (8, 1)
    cfg = _cfg()
    spec = QuadratureSpec(inner_cutoff=-40)
    for x, y in ((2.0, 1.5), (0.3, 0.01), (0.5, 0.25)):
        pt = point_pair(x, y)
        assert apply_operator(cfg, direct, pt, spec) == apply_operator(cfg, made, pt, spec)


def test_piecewise_constant_rejects_overlap():
    with pytest.raises(ValueError):
        piecewise_constant(
            1, 1,
            [
                (((-1.0, 0.5), (-1.0, 1.0)), 1.0),
                (((0.0, 1.0), (-1.0, 1.0)), 2.0),
            ],
        )


def test_payloads_refuse_cell_values_that_are_not_finite():
    box = ((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError, match="cell values must be finite, got inf"):
        smooth_bump(1, 1, amplitude=float("inf"))
    with pytest.raises(ValueError, match="cell values must be finite, got nan"):
        piecewise_constant(1, 1, [(box, float("nan"))])
    with pytest.raises(ValueError, match="cell values must be finite, got -inf"):
        quadrature.TestFunction(n=1, m=1, support=box, cells=((box, -math.inf),))


def test_dilate_tracks_both_axes():
    f = indicator_box(1, 1, ((-1.0, 1.0), (-1.0, 1.0)))
    g = f.dilate(2.0, 3.0, 2.0)
    assert g.support == ((-2.0, 2.0), (-12.0, 12.0))


# ---------------------------------------------------------------------------
# spec validation and cutoff sizing


@pytest.mark.parametrize(
    "kwargs",
    [
        {"points_per_axis": 3},
        {"inner_cutoff": 0},
        {"inner_cutoff": -2000},
        {"target_rel_error": 0.0},
        # leggauss(g) forms a g x g matrix, so the order is capped
        {"points_per_axis": quadrature.MAX_POINTS_PER_AXIS + 1},
    ],
)
def test_quadrature_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_sufficient_inner_cutoff_matches_formula():
    for alpha, dim, target in [(0.5, 1, 1e-3), (0.9, 2, 1e-3), (0.3, 2, 1e-4)]:
        rhs = 0.25 * target * alpha / (dim * 2.0 ** dim)
        expected = min(-4, math.floor(math.log2(rhs) / alpha))
        assert sufficient_inner_cutoff(alpha, dim, target) == expected
    assert sufficient_inner_cutoff(0.5, 1, 1e-3) == -28


def test_sufficient_inner_cutoff_bound_holds():
    for alpha, dim, target in [(0.5, 1, 1e-3), (0.9, 2, 1e-3)]:
        e = sufficient_inner_cutoff(alpha, dim, target)
        core = dim * 2.0 ** dim * (2.0 ** e) ** alpha / alpha
        assert core <= target


# ---------------------------------------------------------------------------
# the factored grid pass against a brute-force reference


def _reference_kernel(desc, diffs):
    # the kernel at offsets (N, dim) node by node, from the formulas of the paper
    s = diffs[:, : desc.n]
    sn = np.sqrt(np.sum(s * s, axis=1))
    if desc.kind == "riesz":
        return sn ** (desc.u_power - desc.n)
    t = diffs[:, desc.n:]
    tn = np.sqrt(np.sum(t * t, axis=1))
    if desc.kind == "flag":
        return sn ** (desc.u_power - desc.n) * (sn ** desc.rho + tn) ** (desc.v_power - desc.m)
    return sn ** (desc.u_power - desc.n) * tn ** (desc.v_power - desc.m)


def _reference_payload(f, points):
    # the bump as the product of its per-axis factors, a formula of its own;
    # a payload without a profile from its points form
    if not f.radius:
        return f.evaluate(points)
    w2 = ((points - np.array(f.center)) / np.array(f.radius)) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        factors = np.where(w2 < 1.0, np.exp(1.0 - 1.0 / (1.0 - w2)), 0.0)
    ((_, amplitude),) = f.cells
    return amplitude * np.prod(factors, axis=1)


def _tensor_points(axes):
    # the nodes of a tensor of per-axis nodes as points (N, dim), in C order
    return np.stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")], axis=1)


def _inner_plans(f, outer_axes, spec, g):
    # per axis, the g-order plan at each outer coordinate of that axis, built
    # on its own by _axis_plan and graded as an inner pass grades it
    plans = []
    for i, xs in enumerate(outer_axes):
        finest, (extra, max_cell, within) = (quadrature._resolved(f, spec, i),
                                             quadrature._payload_grading(f, i))
        plans.append([quadrature._axis_plan(*f.support[i], float(x), finest, extra, g,
                                            max_cell, within) for x in xs])
    return plans


def _conv_values(desc, f, outer, spec, g):
    # the pass of one order: its values, and its u and v core flags
    (values,), core_u, core_v = quadrature._grid_conv_values(desc, f, outer, spec, (g,))
    return values, core_u, core_v


def _reference_grid_value(desc, f, pt, spec, g):
    # every tensor node as an explicit point, the kernel at its offset from pt
    # as the plans give it (exact, unlike pt - node); excluded cores masked
    # node by node. Returns the value, the live points and the sum of |terms|.
    plans = [axis[0] for axis in _inner_plans(f, [[x] for x in pt], spec, g)]
    points = _tensor_points([p.nodes for p in plans])
    offsets = _tensor_points([p.offsets for p in plans])
    core = _tensor_points([p.core for p in plans])
    weights = functools.reduce(np.multiply.outer, [p.weights for p in plans]).ravel()
    keep = np.ones(len(points), dtype=bool)
    groups = [range(desc.n)] + ([range(desc.n, f.dim)] if desc.v_singular else [])
    for axes in groups:
        if all(plans[i].core.any() for i in axes):
            keep &= ~np.all(core[:, list(axes)], axis=1)
    fvals = _reference_payload(f, points)
    idx = np.flatnonzero(keep & (fvals != 0.0))
    if idx.size == 0:
        return 0.0, points[idx], 0.0
    terms = weights[idx] * fvals[idx] * _reference_kernel(desc, offsets[idx])
    return float(np.sum(terms)), points[idx], float(np.sum(np.abs(terms)))


# The engine contracts the inner tensor axis by axis, and the reference sums
# its terms at once, so the two differ by rounding. On each side a term takes
# at most 16 roundings of eps/2 (kernel, weights, payload factors, table),
# and on the engine's one more per axis where a column adds its mirrored
# nodes' scales; the bump's per-axis factors are the same bits on both. Each
# sum of the engine is x0 plus numpy's pairwise sum: depth at most 28 over
# an axis group of at most 512 nodes, and 10 over one node's groups of an
# axis. The reference's one pairwise sum has depth at most 36 over at most
# 2^17 terms. At n + m <= 3 that is (2 * 16 + 3 + 3 * (28 + 10) + 36) / 2
# < 93 eps times the sum of |terms| at most.
_ROUNDING = 128 * np.finfo(float).eps

_BLOCK_NODES = quadrature._BLOCK_NODES


def _assert_within_rounding(got, want, scale):
    assert abs(got - want) <= _ROUNDING * scale, (got, want, scale)


def _passes_under_budgets(desc, f, outer, spec, g, monkeypatch):
    # the pass at block budgets of 4 nodes (every outer node a block of its
    # own), the default, and twice the largest inner tensor
    plans = _inner_plans(f, outer, spec, g)
    largest = max(math.prod(len(p.nodes) for p in node) for node in itertools.product(*plans))
    passes = []
    for budget in (4, _BLOCK_NODES, 2 * largest):
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
        passes.append(_conv_values(desc, f, outer, spec, g))
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", _BLOCK_NODES)
    return passes


def _one_node_value(desc, f, pt, spec, g, monkeypatch):
    # the pass over one outer node, the same bits at every budget
    got = [values.item() for values, _, _ in
           _passes_under_budgets(desc, f, [[x] for x in pt], spec, g, monkeypatch)]
    assert got == [got[0]] * len(got), got
    return got[0]


def _payloads(n, m):
    dim = n + m
    cube = tuple((-1.0, 1.0) for _ in range(dim))
    half = tuple(((-1.0, 0.0),) + cube[1:])
    other = tuple(((0.0, 1.0),) + cube[1:])
    return {
        "indicator-box": indicator_box(n, m, cube, value=1.5),
        "smooth-bump": smooth_bump(n, m, radius=[1.0] + [0.75] * (dim - 1)),
        "atom": make_signum_atom(n, m).payload,
        "custom-sampled": piecewise_constant(n, m, [(half, -0.5), (other, 2.0)]),
    }


def _kernels(n, m):
    cfg = ExponentConfig(n=n, m=m, alpha=F(n, 2), beta=F(m, 4), rho=F(2))
    return {
        "flag": flag_kernel(cfg),
        "product": product_kernel(cfg, derive_ab(cfg)),
    }


_POINTS = {  # one u and one v coordinate, repeated over the axes
    "exterior": (3.0, 0.5),
    "near-line": (0.01, 0.3),
    "interior": (0.4, 0.2),
}


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("where", sorted(_POINTS))
@pytest.mark.parametrize("payload", ["indicator-box", "smooth-bump", "atom", "custom-sampled"])
def test_grid_pass_matches_pointwise_reference(n, m, where, payload, monkeypatch):
    # n+m = 3 needs a coarse cutoff to keep the reference tensor small
    spec = QuadratureSpec(inner_cutoff=-20 if n + m == 2 else -6)
    f = _payloads(n, m)[payload]
    x, y = _POINTS[where]
    pt = np.array([x] * n + [y] * m)
    for kind, desc in _kernels(n, m).items():
        for g in (spec.points_per_axis, spec.points_per_axis - 1):
            got = _one_node_value(desc, f, pt, spec, g, monkeypatch)
            want, _, scale = _reference_grid_value(desc, f, pt, spec, g)
            _assert_within_rounding(got, want, scale)


@pytest.mark.parametrize("x", [2.0, 0.01, 0.5])
def test_grid_pass_matches_reference_for_riesz(x, monkeypatch):
    spec = QuadratureSpec(inner_cutoff=-12)
    desc = riesz_kernel(0.5)
    for f in (indicator_box(1, 0, ((0.0, 1.0),)), smooth_bump(1, 0, [0.5], 0.5),
              piecewise_constant(1, 0, [(((0.0, 0.25),), 1.0), (((0.25, 1.0),), -3.0)])):
        pt = np.array([x])
        want, _, scale = _reference_grid_value(desc, f, pt, spec, 4)
        _assert_within_rounding(_one_node_value(desc, f, pt, spec, 4, monkeypatch), want, scale)


@pytest.mark.parametrize("payload", ["indicator-box", "smooth-bump", "atom", "custom-sampled"])
def test_evaluate_tensor_form_matches_points_form(payload):
    # the tensor of per-axis nodes as points in C order; nodes on cell edges
    # and on the support boundary test the half-open cells
    f = _payloads(1, 2)[payload]
    axes = [np.array([-1.0, -0.5, 0.0, 0.3, 1.0, 1.2]),
            np.array([-1.1, -1.0, 0.0, 0.999, 1.0]),
            np.array([-0.75, 0.25, 1.0])]
    points = _tensor_points(axes)
    tensor = f.evaluate(points)
    assert tensor.shape == (6 * 5 * 3,)
    # an independent statement of each payload on [-1, 1]^3
    inside = np.all(np.abs(points) <= 1.0, axis=1)
    if payload == "smooth-bump":
        w2 = (points / np.array([1.0, 0.75, 0.75])) ** 2
        with np.errstate(divide="ignore"):
            bump = np.prod(np.where(w2 < 1.0, np.exp(1.0 - 1.0 / (1.0 - w2)), 0.0), axis=1)
        assert np.allclose(tensor, bump, rtol=1e-14, atol=0.0)
    else:
        lower, upper = {"indicator-box": (1.5, 1.5), "atom": (-1.0, 1.0),
                        "custom-sampled": (-0.5, 2.0)}[payload]
        level = np.where(points[:, 0] < 0.0, lower, upper)
        assert np.array_equal(tensor, np.where(inside, level, 0.0))
    assert np.count_nonzero(tensor) > 0
    with pytest.raises(ValueError):
        f.evaluate(points[:, :2])


@pytest.mark.parametrize("amplitude", [2.5, -1.75, 0.0])
def test_bump_tensor_keeps_the_bits_of_the_where_form(amplitude):
    # the bump is zeroed in place outside; the np.where form must give the
    # same bits, +0.0 (never -0.0) outside the support included, on the
    # points of a tensor of per-axis nodes in C order
    f = smooth_bump(1, 2, center=[0.25, 0.0, -0.5], radius=[1.0, 0.75, 0.5],
                    amplitude=amplitude)
    axes = [np.linspace(-1.5, 2.0, 29), np.linspace(-1.0, 1.0, 17),
            np.array([-1.2, -1.0, -0.5, -0.1, 0.0, 0.1])]
    inside = True
    arg = 0.0
    for z, c, r in zip(quadrature._axis_views(axes), f.center, f.radius):
        w = (z - c) / r
        w2 = w * w
        inside = inside & (w2 < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = arg + np.where(w2 < 1.0, 1.0 - 1.0 / (1.0 - w2), 0.0)
    want = np.where(inside, amplitude * np.exp(arg), 0.0).ravel()
    got = f.evaluate(_tensor_points(axes))
    assert 0 < np.count_nonzero(inside) < inside.size
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[~inside.ravel()]).any()


def test_bump_axis_factor_keeps_the_bits_of_the_where_form():
    # the factor is formed on the nodes inside the profile only, with no
    # division by zero on the way; on the support ends, just inside them
    # (where exp underflows to 0.0), outside them and between them it has
    # the bits of the full-size where form, on both axes
    f = smooth_bump(1, 1, center=[0.25, -0.5], radius=[0.75, 1.5])
    for i, (c, r) in enumerate(zip(f.center, f.radius)):
        lo, hi = f.support[i]
        near = [c + s * r * (1.0 - t) for s in (-1.0, 1.0) for t in (2.0 ** -30, 1e-4)]
        z = np.array([lo, hi, *near, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                      lo - r, hi + r, *np.linspace(lo, hi, 41)])
        w = (z - c) / r
        w2 = w * w
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(w2 < 1.0, 1.0 - 1.0 / (1.0 - w2), 0.0)
        want = np.where(w2 < 1.0, np.exp(step), 0.0)
        with np.errstate(divide="raise", invalid="raise"):
            factor, slots = f.axis_factor(i, z)
        assert factor.tobytes() == want.tobytes(), i
        assert not slots.any()
        # the ends lie outside; just inside them the factor underflows to 0.0
        assert (w2[:2] == 1.0).all() and (w2[2:6] < 1.0).all()
        assert (factor[:10] == 0.0).all() and (factor[10:] > 0.0).any()


def _mask_loop_values(f, coords):
    # the cell rule as one full-size mask per cell: half-open cells, closed
    # against the support top, 0 outside the support and at NaN
    out = np.zeros(np.broadcast_shapes(*(z.shape for z in coords)))
    for box, value in f.cells:
        mask = True
        for z, (lo, hi), (_, top) in zip(coords, box, f.support):
            upper = (z < hi) | ((hi == top) & (z <= hi))
            mask = mask & (z >= lo) & upper
        out[mask] += value
    return out


_CELL_PAYLOADS = {
    "signum": make_signum_atom(1, 1).payload,
    **{f"random-atom-{n}{m}": make_random_atom(Cube(n, m, 0), seed=5).payload
       for n, m in ((1, 1), (2, 1), (2, 2))},
    # one cell inside a support declared wider on both ends of both axes
    "wide-indicator": quadrature.TestFunction(
        n=1, m=1, support=((-2.0, 2.0), (-1.0, 3.0)),
        cells=((((-1.0, 0.5), (0.0, 1.0)), 1.5),),
    ),
}


@pytest.mark.parametrize("payload", sorted(_CELL_PAYLOADS))
def test_cell_payload_gather_keeps_the_bits_of_the_mask_loop(payload):
    f = _CELL_PAYLOADS[payload]
    axes = []
    for i, (lo, hi) in enumerate(f.support):
        b = np.array(f.breakpoints(i))
        # every breakpoint, its neighbours, the cells' midpoints, the support
        # top and a hair on each side of it, beyond both ends, and NaN
        axes.append(np.concatenate([
            b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), 0.5 * (b[:-1] + b[1:]),
            [hi, lo - 0.5, hi + 0.5, np.nan],
        ]))
    views = quadrature._axis_views(axes)
    points = _tensor_points(axes)
    want = _mask_loop_values(f, views).ravel()
    assert _mask_loop_values(f, [points[:, i] for i in range(f.dim)]).tobytes() == want.tobytes()
    assert 0 < np.count_nonzero(want) < want.size

    assert f.evaluate(points).tobytes() == want.tobytes()


def test_cells_must_lie_within_the_support():
    with pytest.raises(ValueError, match="within the support"):
        quadrature.TestFunction(
            n=1, m=1, support=((-1.0, 1.0), (-1.0, 1.0)),
            cells=((((0.0, 1.5), (-1.0, 1.0)), 1.0),),
        )


_SQUARE = ((-1.0, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize("fields", [
    # a profile over two cells
    {"cells": ((((-1.0, 0.0), (-1.0, 1.0)), 1.0), (((0.0, 1.0), (-1.0, 1.0)), 1.0)),
     "center": (0.0, 0.0), "radius": (1.0, 1.0)},
    # a profile whose one cell is not its support
    {"cells": ((((-0.5, 0.5), (-1.0, 1.0)), 1.0),), "center": (0.0, 0.0), "radius": (1.0, 1.0)},
    # a center without a radius
    {"cells": ((_SQUARE, 1.0),), "center": (0.0, 0.0)},
], ids=["two-cells", "cell-not-support", "center-no-radius"])
def test_a_profile_needs_one_cell_that_is_its_support(fields):
    with pytest.raises(ValueError, match="one cell that is the support"):
        quadrature.TestFunction(n=1, m=1, support=_SQUARE, **fields)


def _loop_graded_breakpoints(lo, hi, center, finest, extra=()):
    # the breakpoints as offsets from center, a set grown point by point,
    # doubling the radius; a payload edge within 1e-15 times the largest of
    # |lo|, |hi| and |center| of a radius point or an end is not added
    a, b = lo - center, hi - center
    pts = {a, b}
    dist = max(a, -b, 0.0)
    dmax = max(-a, b)
    r = finest if dist <= finest else dist
    while r < dmax:
        for s in (-r, r):
            if a < s < b:
                pts.add(s)
        r *= 2.0
    if a < 0.0 < b:
        pts.add(0.0)
    fixed = sorted(pts)
    tol = 1e-15 * max(abs(lo), abs(hi), abs(center))
    for e in extra:
        t = e - center
        if a < t < b and all(abs(t - p) > tol for p in fixed):
            pts.add(t)
    return np.array(sorted(pts), dtype=float)


def _loop_split_wide_cells(breaks, max_cell, within=None):
    # every cell wider than max_cell cut into equal parts, one cell at a
    # time, counting the steps from the cell's end nearer the offset 0
    if max_cell is None or max_cell <= 0:
        return breaks
    cuts = breaks.tolist()
    pts = cuts[:1]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if within is not None and (b <= within[0] or a >= within[1]):
            pts.append(b)
            continue
        parts = int(math.ceil((b - a) / max_cell))
        if parts > 1:
            step = (b - a) / parts
            if b <= 0.0:
                pts.extend(b - step * (parts - j) for j in range(1, parts))
            else:
                pts.extend(a + step * j for j in range(1, parts))
        pts.append(b)
    return np.array(pts, dtype=float)


def test_breakpoints_keep_the_bits_of_the_loop_form():
    # random intervals and centres inside, outside and on the ends; payload
    # edges on the ends, on the centre, repeated and as -0.0; cells cut
    # everywhere, within part of the interval, or not at all
    rng = np.random.default_rng(23)
    for case in range(2000):
        lo, hi = sorted(rng.uniform(-4.0, 4.0, 2))
        if case % 5 == 0:
            lo, hi = -0.0, abs(hi) + 0.5
        center = {0: lo, 1: hi, 2: 0.5 * (lo + hi)}.get(case % 7, rng.uniform(-6.0, 6.0))
        finest = (hi - lo) * 2.0 ** -float(rng.integers(1, 301))
        extra = tuple(rng.choice([lo, hi, center, 0.0, -0.0, *rng.uniform(lo, hi, 3)],
                                 size=int(rng.integers(0, 6))))
        max_cell = [None, 0.0, (hi - lo) / 8, (hi - lo) / 3][case % 4]
        within = [None, (lo, hi), (lo + 0.25 * (hi - lo), hi)][case % 3]
        got, _ = quadrature._axis_breaks(lo, hi, center, finest, extra, max_cell, within)
        within = None if within is None else (within[0] - center, within[1] - center)
        want = _loop_split_wide_cells(_loop_graded_breakpoints(lo, hi, center, finest, extra),
                                      max_cell, within)
        assert got.tobytes() == want.tobytes(), case
    # the payload edge -0.0 lies on the radius point 0.25 below the center
    # 0.25, and the center is the offset +0.0
    got, _ = quadrature._axis_breaks(-1.0, 1.0, 0.25, 0.25, (-0.0,), None, None)
    assert got.tobytes() == _loop_graded_breakpoints(-1.0, 1.0, 0.25, 0.25, (-0.0,)).tobytes()
    assert got.tolist() == [-1.25, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]
    assert not np.signbit(got[got == 0.0]).any()
    # 0.55 - 0.3 is 0.25 plus an ulp of 0.55: the edge lies on the radius
    # point 0.25, and the points on either side of it stay
    got, _ = quadrature._axis_breaks(-1.0, 1.0, 0.3, 2.0 ** -40, (0.55,), None, None)
    assert 0.55 - 0.3 != 0.25 and 0.55 - 0.3 not in got.tolist()
    assert {0.125, 0.25, 0.5}.issubset(got.tolist())
    # two payload edges within rounding of each other both stay: each is
    # checked against the radius points and the ends only
    pair = (0.2, math.nextafter(0.2, 1.0))
    got, _ = quadrature._axis_breaks(-1.0, 1.0, 0.3, 2.0 ** -40, pair, None, None)
    assert got.tobytes() == _loop_graded_breakpoints(-1.0, 1.0, 0.3, 2.0 ** -40, pair).tobytes()
    assert {e - 0.3 for e in pair}.issubset(got.tolist())


def test_axis_plans_are_cached_and_read_only():
    args = (-1.0, 1.0, 0.25, 2.0 ** -20, (-1.0, 0.0, 1.0), 4, 0.25)
    plan = quadrature._axis_plan(*args)
    assert quadrature._axis_plan(*args) is plan
    for arr in (plan.breaks, plan.nodes, plan.weights, plan.core):
        assert not arr.flags.writeable
    assert plan.has_core is bool(plan.core.any()) is True
    assert quadrature._axis_plan(-1.0, 1.0, 3.0, *args[3:]).has_core is False
    with pytest.raises(ValueError):
        plan.nodes[0] = 0.0

    # orders g and g-1 share one breakpoint build: the second is a cache hit
    quadrature._axis_plan.cache_clear()
    quadrature._axis_breaks.cache_clear()
    hi = quadrature._axis_plan(*args)
    before = quadrature._axis_breaks.cache_info()
    lo = quadrature._axis_plan(*args[:5], 3, *args[6:])
    after = quadrature._axis_breaks.cache_info()
    assert lo.breaks is hi.breaks
    assert not lo.breaks.flags.writeable
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    cells = len(hi.breaks) - 1
    assert (len(hi.nodes), len(lo.nodes)) == (4 * cells, 3 * cells)


@pytest.mark.parametrize("cutoff", [-40, -56, -200])
@pytest.mark.parametrize("center", [0.5, 0.3, 1.0])
def test_core_cells_are_exact_at_deep_cutoffs(cutoff, center):
    # graded in offsets from the point, the core cells are [-finest, 0] and
    # [0, finest] at any cutoff, with the support edge 1.0 keeping only the
    # first; in coordinates x +- r rounds to ulp(x) once finest is below it
    f = smooth_bump(1, 1)
    spec = QuadratureSpec(inner_cutoff=cutoff)
    g = spec.points_per_axis
    finest = 2.0 ** cutoff * 2.0
    nodes, _ = quadrature._leggauss(g)
    # a core cell's Gauss nodes, as distances from the point
    want = np.sort(0.5 * finest + 0.5 * finest * nodes)
    for plans in _inner_plans(f, [[center], [center]], spec, g):
        (plan,) = plans
        got = plan.offsets[plan.core]
        sides = 1 if center == 1.0 else 2
        assert plan.has_core and got.size == sides * g, (cutoff, center, got)
        assert got.tobytes() == np.repeat(want, sides).tobytes(), (cutoff, center)
        # and every other node lies further out than the core
        assert plan.offsets[~plan.core].min() > finest


def test_deeper_cutoffs_resolve_the_bump_within_the_core_bound():
    # from -56 to -80 the value moves by no more than the core bound at -56,
    # and -56 agrees with -40 within the summed err
    kernel = flag_kernel(_cfg())
    f = smooth_bump(1, 1)
    outer = [[0.5], [0.25]]
    inner = {c: [a.item() for a in quadrature._grid_inner(
        kernel, f, outer, QuadratureSpec(inner_cutoff=c))] for c in (-40, -56, -80)}
    (v40, e40, _), (v56, e56, core56), (v80, _, _) = inner[-40], inner[-56], inner[-80]
    assert abs(v56 - v40) <= e40 + e56
    assert 0.0 < core56 and abs(v80 - v56) <= core56


@pytest.mark.parametrize("n, m, cutoff, refused", [
    (0, 0, -500, None),
    (0, 0, -1060, "overflows"),
    (1, 1, -500, None),
    (1, 1, -600, "overflows"),
    (1, 1, -1060, "would need"),
    (1, 2, -1060, "would need"),
    (2, 1, -1060, "would need"),
])
def test_deep_cutoffs_give_finite_values_or_refuse(n, m, cutoff, refused):
    # the non-core nodes nearest the point lie about 2^cutoff from it; below
    # about 2^-537 their squared distance underflows and the kernel is inf
    # there, which the grid refuses rather than return inf or nan (n = 0:
    # the riesz kernel in one variable)
    spec = QuadratureSpec(inner_cutoff=cutoff)
    if n == 0:
        def run():
            return apply_riesz_1d(F(1, 2), smooth_bump(1, 0), 0.3, spec), 0.0
    else:
        cfg = ExponentConfig(n=n, m=m, alpha=F(n, 2), beta=F(m, 2), rho=F(2))
        pt = point_pair([0.3] * n, [0.3] * m)

        def run():
            return apply_operator(cfg, smooth_bump(n, m), pt, spec)
    if refused is None:
        value, err = run()
        assert value > 0.0 and math.isfinite(value) and math.isfinite(err)
    else:
        with pytest.raises(UsageError, match=refused):
            run()


def _mirrored_cells(cuts):
    # the cells [a, b] above the point whose mirror [-b, -a] is a cell too
    cells = set(zip(cuts[:-1].tolist(), cuts[1:].tolist()))
    return [(a, b) for a, b in cells if a >= 0.0 and (-b, -a) in cells]


@pytest.mark.parametrize("g", [3, 4, 5])
def test_mirrored_nodes_have_the_same_distance_to_the_bit(g):
    # random intervals, centres inside, outside and on an end, payload
    # edges, and cells cut within all or part of the interval: wherever a
    # cell's mirror is a cell too, each of its nodes has a node of the mirror
    # at the same distance, bit for bit, and no other nodes share a distance
    rng = np.random.default_rng(29 + g)
    paired = 0
    for case in range(200):
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
        center = {0: lo, 1: hi}.get(case % 6, rng.uniform(lo - 1.0, hi + 1.0))
        finest = (hi - lo) * 2.0 ** -float(rng.integers(1, 70))
        extra = tuple(sorted(rng.uniform(lo, hi, int(rng.integers(0, 4))))) + (lo, hi)
        max_cell = [None, (hi - lo) / 8, (hi - lo) / 3][case % 3]
        within = [(lo, hi), (0.5 * (lo + hi), hi)][case % 2]
        args = (lo, hi, center, finest, extra, g, max_cell, within)
        cuts, _ = quadrature._axis_breaks(*args[:5], max_cell, within)
        plan = quadrature._axis_plan(*args)
        mirrored = _mirrored_cells(cuts)
        values, counts = np.unique(plan.offsets, return_counts=True)
        shared = values[counts > 1]
        assert counts.max(initial=1) <= 2, case
        assert len(shared) == g * len(mirrored), case
        assert all(any(a < d < b for a, b in mirrored) for d in shared.tolist()), case
        paired += len(mirrored)
        # each cell is cut from its end nearer the center, so symmetric cuts stay symmetric
        side = np.sort(rng.uniform(0.0, 3.0, 5))
        split, _ = quadrature._axis_breaks(-3.5, 3.5, 0.0, finest, tuple(side) + tuple(-side),
                                           (hi - lo) / 7, (-3.5, 3.5))
        assert np.array_equal(split, -split[::-1]), case
    assert paired > 1000


def test_interior_apply_forms_at_most_176_columns_per_axis():
    # at (0.5, 0.25) each inner plan has 328 nodes at order 4, which fold to
    # 172 and 168 columns; at order 3, 246 nodes fold to 129 and 126
    f = smooth_bump(1, 1)
    spec = QuadratureSpec(inner_cutoff=-40)
    plans = _inner_plans(f, [[0.5], [0.25]], spec, 4)
    assert [len(p.nodes) for (p,) in plans] == [328, 328]
    assert [len(p.nodes) for (p,) in _inner_plans(f, [[0.5], [0.25]], spec, 3)] == [246, 246]
    runs, _ = quadrature._inner_runs(f, [[0.5], [0.25]], spec, (4, 3))
    assert [[len(r.offsets) for r in axes] for axes in runs] == [[172, 168], [129, 126]]


# ---------------------------------------------------------------------------
# one build for all the plans of a pass


def _reference_fold(f, i, plan):
    # the plan's nodes stably by payload slot; then, one node at a time,
    # neighbours with the same slot, core flag and distance summed into one
    # column: per column its (slot, core flag, distance) and its scale
    factor, slots = f.axis_factor(i, plan.nodes)
    terms = plan.weights * factor
    columns = []
    for j in np.argsort(slots, kind="stable").tolist():
        key = (int(slots[j]), bool(plan.core[j]), float(plan.offsets[j]))
        if columns and columns[-1][0] == key:
            columns[-1][1].append(float(terms[j]))
        else:
            columns.append((key, [float(terms[j])]))
    return [(key, functools.reduce(lambda a, b: a + b, parts)) for key, parts in columns]


def _run_columns(run, k):
    # the columns of outer coordinate k in a run, in the form of _reference_fold
    part = run.part(k, k + 1)
    ends = np.append(part.starts, len(part.offsets)).tolist()
    return [((int(part.slots[q]), bool(part.core[q]), float(part.offsets[c])),
             float(part.scale[c]))
            for q in range(len(part.starts)) for c in range(ends[q], ends[q + 1])]


# (n, m) and the outer coordinates of each axis: inside the support (plans
# with cells on both sides), above and below it (cells on one side), and on
# a payload edge (the signum atom's u = 0, the supports' ends)
_FUSED_CASES = {
    "inside": (1, 1, [[0.4], [0.2]]),
    "above": (1, 1, [[3.0], [1.5]]),
    "below": (1, 1, [[-2.5], [-1.75]]),
    "edge": (1, 1, [[0.0], [-1.0]]),
    "4x4": (1, 1, [[-2.5, 0.0, 0.4, 3.0], [-1.75, -1.0, 0.2, 1.5]]),
    "n2m1": (2, 1, [[-2.5, 0.4], [0.0, 1.0], [0.2, 1.5]]),
}


@pytest.mark.parametrize("payload", ["smooth-bump", "atom"])
@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_runs_fold_each_plan_as_it_folds_alone(case, payload):
    # every (order, axis, outer coordinate) of one build has the columns of
    # the plan _axis_plan builds on its own, folded node by node, bit for bit
    n, m, outer = _FUSED_CASES[case]
    f = _payloads(n, m)[payload]
    spec = QuadratureSpec(inner_cutoff=-20 if n + m == 2 else -6)
    g = spec.points_per_axis
    runs, has_core = quadrature._inner_runs(f, outer, spec, (g, g - 1))
    for order, axes in zip((g, g - 1), runs):
        for i, (run, plans) in enumerate(zip(axes, _inner_plans(f, outer, spec, order))):
            assert run.outer == range(len(plans))
            assert has_core[i].tolist() == [p.has_core for p in plans]
            for k, plan in enumerate(plans):
                assert _run_columns(run, k) == _reference_fold(f, i, plan), (order, i, k)


@pytest.mark.parametrize("payload", ["smooth-bump", "atom"])
@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_pass_gives_each_order_the_bits_of_a_pass_of_its_own(case, payload):
    n, m, outer = _FUSED_CASES[case]
    f = _payloads(n, m)[payload]
    spec = QuadratureSpec(inner_cutoff=-20 if n + m == 2 else -6)
    g = spec.points_per_axis
    for kind, desc in _kernels(n, m).items():
        both, core_u, core_v = quadrature._grid_conv_values(desc, f, outer, spec, (g, g - 1))
        assert both[0].shape == tuple(len(xs) for xs in outer)
        for order, values in zip((g, g - 1), both):
            alone, alone_u, alone_v = _conv_values(desc, f, outer, spec, order)
            assert values.tobytes() == alone.tobytes(), (kind, order)
            assert np.array_equal(core_u, alone_u) and np.array_equal(core_v, alone_v), kind


# ---------------------------------------------------------------------------
# the batched grid pass: many outer nodes per call


def _reference_core_flags(desc, f, pt, spec, g):
    # whether the pass at pt alone excludes its u core and its v core
    plans = [axis[0] for axis in _inner_plans(f, [[x] for x in pt], spec, g)]
    u = all(plans[i].core.any() for i in range(desc.n))
    v = desc.v_singular and all(plans[i].core.any() for i in range(desc.n, f.dim))
    return u, v


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("payload", ["indicator-box", "smooth-bump", "atom", "custom-sampled"])
def test_batched_grid_pass_matches_pointwise_reference(n, m, payload, monkeypatch):
    # one batch mixes exterior, near-line and interior coordinates on every axis
    spec = QuadratureSpec(inner_cutoff=-20 if n + m == 2 else -6)
    f = _payloads(n, m)[payload]
    us = np.array([x for x, _ in _POINTS.values()])
    vs = np.array([y for _, y in _POINTS.values()])
    # two classes per axis for n+m = 3, rotated so that the batch mixes all three
    picks = 3 if n + m == 2 else 2
    outer = [np.roll(us if i < n else vs, i)[:picks] for i in range(n + m)]
    nodes = [np.array(pt) for pt in itertools.product(*outer)]
    for kind, desc in _kernels(n, m).items():
        for g in (spec.points_per_axis, spec.points_per_axis - 1):
            refs = [_reference_grid_value(desc, f, pt, spec, g) for pt in nodes]
            flags = [_reference_core_flags(desc, f, pt, spec, g) for pt in nodes]
            alone = [_one_node_value(desc, f, pt, spec, g, monkeypatch) for pt in nodes]
            for (want, _, scale), got in zip(refs, alone):
                _assert_within_rounding(got, want, scale)
            plans = _inner_plans(f, outer, spec, g)
            largest = max(math.prod(len(p.nodes) for p in node)
                          for node in itertools.product(*plans))
            for budget in (4, 2 * largest):
                monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
                runs = quadrature._blocks(quadrature._inner_runs(f, outer, spec, (g,))[0][0])
                if budget == 4:  # every outer node is a block by itself
                    assert [len(axis) for axis in runs] == [picks] * (n + m)
                else:  # some block holds several outer nodes
                    assert any(len(r.outer) > 1 for axis in runs for r in axis)
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", _BLOCK_NODES)
            # at every budget each outer node has the bits of its pass alone
            for values, core_u, core_v in _passes_under_budgets(desc, f, outer, spec, g,
                                                                monkeypatch):
                assert values.shape == (picks,) * (n + m)
                assert values.ravel().tolist() == alone, (kind, g)
                assert list(zip(core_u.ravel().tolist(), core_v.ravel().tolist())) == flags


def test_grid_pass_keeps_a_block_with_one_live_node(monkeypatch):
    # seen from (6, 6) the support [-2, 2] is one graded cell per axis, cut
    # into 8 cells of width 1/2 as for every bump; the bump of radius 0.1
    # around (0.25, 0.25) holds only the centre node of the cell [0, 1/2]
    # at order 3, so the pass has one block with one live node
    f = quadrature.TestFunction(
        n=1, m=1, support=((-2.0, 2.0), (-2.0, 2.0)),
        cells=((((-2.0, 2.0), (-2.0, 2.0)), 1.0),), center=(0.25, 0.25), radius=(0.1, 0.1),
    )
    spec = QuadratureSpec()
    pt = np.array([6.0, 6.0])
    for kind, desc in _kernels(1, 1).items():
        got = _one_node_value(desc, f, pt, spec, 3, monkeypatch)
        want, live, scale = _reference_grid_value(desc, f, pt, spec, 3)
        assert len(live) == 1, kind
        assert got != 0.0, kind
        _assert_within_rounding(got, want, scale)


def test_one_node_pass_with_a_payload_that_underflows_to_zero_matches_the_reference(
        monkeypatch):
    # the cell [-1, -0.99] that the grading toward u = 0.01 leaves at the
    # support edge holds order-4 nodes where the bump's u factor is
    # subnormal, so the payload underflows to 0 on some nodes: the reference
    # drops those terms, while the pass keeps the factor of each axis and
    # sums them. At order 3 the payload stays positive. Either way the pass
    # matches the reference, to rounding.
    f = smooth_bump(1, 1)
    spec = QuadratureSpec(inner_cutoff=-40)
    pt = np.array([0.01, 0.3])
    zeros = {}
    for g in (4, 3):
        plans = [axis[0] for axis in _inner_plans(f, [[x] for x in pt], spec, g)]
        for i, plan in enumerate(plans):
            # every node lies inside the bump, where each axis factor is positive
            factor, slots = f.axis_factor(i, plan.nodes)
            assert np.all(np.abs(plan.nodes) < 1.0) and np.all(factor > 0.0)
            assert not slots.any()
        zeros[g] = np.count_nonzero(f.evaluate(_tensor_points([p.nodes for p in plans])) == 0.0)
        for kind, desc in _kernels(1, 1).items():
            want, _, scale = _reference_grid_value(desc, f, pt, spec, g)
            _assert_within_rounding(_one_node_value(desc, f, pt, spec, g, monkeypatch),
                                    want, scale)
    assert zeros[4] > 0 and zeros[3] == 0, zeros


def test_apply_queries_in_two_threads_match_their_serial_values():
    cfg = _cfg()
    f = smooth_bump(1, 1)
    spec = QuadratureSpec(inner_cutoff=-40)
    points = [point_pair(0.5, 0.25), point_pair(-0.3, 0.6)]
    want = [apply_operator(cfg, f, pt, spec) for pt in points]
    start = threading.Barrier(len(points))
    got = [[] for _ in points]

    def run(i):
        start.wait()
        for _ in range(50):
            got[i].append(apply_operator(cfg, f, points[i], spec))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, values in enumerate(got):
        assert values == [want[i]] * 50, i


# lp_norm contracts the outer rule axis by axis, and the reference sums its
# terms at once, so the two differ by rounding; both form the bump as the
# product of its per-axis factors, which are the same bits on both sides.
# Counted in roundings of eps/2 at n + m = d and p <= 5: a reference term
# takes d - 1 for its weight and d for the bump, which the power amplifies
# p-fold, and 2 more (p d + d + 1; d + 1 for cells, whose values are exact);
# an engine term takes 2 per axis for its weighted factor |f_i|^p w_i, 1 for
# |table|^p and d for the products of the contraction (3 d + 1). numpy's
# pairwise sum of at most 2^20 reference terms has depth at most 31. Per axis
# the engine sums at most 32 bump nodes into one slot (31), or at most 8
# cell nodes into at most 4 slots (7 + 3). At d <= 4 that is at most
# (25 + 13 + 31 + 4 * 31) / 2 = 97 eps times the sum of |terms|. Against
# exact_lp_mass of a 32-cell atom at d = 5 (d + 1 per cell, 31 for its sum)
# it is (16 + 5 * 10 + 6 + 31) / 2 = 52 eps.
_LP_ROUNDING = 128 * np.finfo(float).eps

_LP_PAYLOADS = {
    "smooth-bump": _payloads(1, 1)["smooth-bump"],
    "atom": _payloads(1, 1)["atom"],
    **{f"{name}-{n}{m}": _payloads(n, m)[name]
       for n, m in ((2, 1), (2, 2)) for name in ("smooth-bump", "atom", "custom-sampled")},
    "random-atom-22": make_random_atom(Cube(2, 2, 0), seed=5).payload,
}


@pytest.mark.parametrize("payload", sorted(_LP_PAYLOADS))
def test_lp_norm_grid_mass_matches_point_tensor_reference(payload):
    # the outer rule over the support as explicit points, evaluated point by point
    f = _LP_PAYLOADS[payload]
    eps = np.finfo(float).eps
    g = QuadratureSpec().points_per_axis
    for p in (1, F(5, 4), 2, 5):
        (hi, hi_scale), (lo, lo_scale) = (
            _reference_lp_mass(f, float(p), order) for order in (g, g - 1))
        got, want = lp_norm(f, p, QuadratureSpec(target_rel_error=1.0)), hi ** (1.0 / p)
        # the p-th root does not grow a relative error, and rounds once more
        assert abs(got - want) <= (_LP_ROUNDING * hi_scale / hi + eps) * want, (p, got, want)
        # the lower order shows in the disagreement an exact target rejects;
        # a cell payload's two orders are exact, and may agree to the last bit
        try:
            lp_norm(f, p, QuadratureSpec(target_rel_error=1e-300))
            err = 0.0
        except AccuracyError as exc:
            err = exc.err
        assert abs(err - abs(hi - lo)) <= _LP_ROUNDING * (hi_scale + lo_scale), (p, err)
        if f.radius:
            assert err > 0.0


def _outer_rule(box, f, g):
    plans = quadrature._outer_plans(box, f, g)
    weights = functools.reduce(np.multiply.outer, [p.weights for p in plans]).ravel()
    return _tensor_points([p.nodes for p in plans]), weights


def _reference_lp_mass(f, p, g):
    # the weighted sum of |f|^p over the outer rule's points, and its sum of |terms|
    points, weights = _outer_rule(f.support, f, g)
    terms = weights * np.abs(_reference_payload(f, points)) ** p
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def test_lp_norm_in_five_dimensions_forms_no_tensor():
    # n + m = 5, past every grid pass: the bump's mass is separable, |A|^p
    # times the product of r_i I(p), I(p) the 1-d integral of the profile's
    # p-th power; a random atom's mass is its closed form
    nodes, weights = np.polynomial.legendre.leggauss(200)
    spec = QuadratureSpec()
    eps = np.finfo(float).eps
    radius = [0.5, 1.0, 1.5, 2.0, 0.75]
    bump = smooth_bump(4, 1, center=[0.25, 0.0, -1.0, 0.5, 0.0], radius=radius,
                       amplitude=-1.75)
    atom = make_random_atom(Cube(4, 1, 0), seed=5).payload
    tracemalloc.start()
    try:
        for p in (1, 2):
            one_d = float(np.sum(weights * np.exp(p * (1.0 - 1.0 / (1.0 - nodes ** 2)))))
            want = 1.75 ** p * math.prod(radius) * one_d ** 5
            assert abs(lp_norm(bump, p, spec) ** p - want) <= spec.target_rel_error * want
        for p in (1, F(5, 4), 2, 5):
            want = atom.exact_lp_mass(float(p))
            # the p-th power of the root adds p + 1 roundings
            got = lp_norm(atom, p, spec) ** float(p)
            assert abs(got - want) <= (_LP_ROUNDING + (float(p) + 1) * eps) * want, (p, got)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the outer tensor has 32^5 nodes, 256 MiB of float64
    assert peak < 2 ** 20, peak


def _reference_lq_mass(desc, f, region, q, spec, inner):
    # the grid q-mass composed one outer node at a time: the g-order outer
    # rule at inner orders g and g-1, the (g-1)-order outer rule at inner
    # order g; err is the outer rule disagreement plus the propagated inner
    # err. inner(pt, g) gives an inner value and how far from it the
    # engine's may lie; the last two results bound how far that moves the
    # value and the err. (a + d)^q - a^q bounds |(a +- d)^q - a^q| for a, d
    # >= 0, so a shift of |v| by b moves w |v|^q by at most w gap(v, b), and
    # gap(v, e) by at most gap(|v| + e, b + be) + gap(v, b) when e moves by be.
    g = spec.points_per_axis
    gap = quadrature._power_gap
    box_terms, rule_terms, prop_terms, value_slack, err_slack = [], [], [], [], []
    for box, sign in region.signed_boxes():
        pts_hi, w_hi = _outer_rule(box, f, g)
        rows = []
        for pt in pts_hi:
            (v_hi, b_hi), (v_lo, b_lo) = inner(pt, g), inner(pt, g - 1)
            core_err = quadrature._core_error(
                desc, f, pt, spec, *_reference_core_flags(desc, f, pt, spec, g)
            )
            rows.append((v_hi, b_hi, abs(v_hi - v_lo) + core_err, b_hi + b_lo))
        mass_hi = math.fsum(w * abs(v) ** q for w, (v, _, _, _) in zip(w_hi, rows))
        prop = math.fsum(w * gap(v, e, q) for w, (v, _, e, _) in zip(w_hi, rows))
        pts_lo, w_lo = _outer_rule(box, f, g - 1)
        lows = [inner(pt, g) for pt in pts_lo]
        mass_lo = math.fsum(w * abs(v) ** q for w, (v, _) in zip(w_lo, lows))
        slack_hi = math.fsum(w * gap(v, b, q) for w, (v, b, _, _) in zip(w_hi, rows))
        slack_lo = math.fsum(w * gap(v, b, q) for w, (v, b) in zip(w_lo, lows))
        slack_prop = math.fsum(w * (gap(abs(v) + e, b + be, q) + gap(v, b, q))
                               for w, (v, b, e, be) in zip(w_hi, rows))
        box_terms.append(sign * mass_hi)
        rule_terms.append(abs(mass_hi - mass_lo))
        prop_terms.append(prop)
        value_slack.append(slack_hi)
        err_slack.append(slack_hi + slack_lo + slack_prop)
    return (math.fsum(box_terms), math.fsum(rule_terms) + math.fsum(prop_terms),
            math.fsum(value_slack), math.fsum(err_slack))


def _check_lq_mass(got, desc, f, region, q, spec, monkeypatch):
    # got(): the engine's (value, err). It matches the pointwise reference
    # to the rounding of every inner value, plus 8 eps for the roundings of
    # the composition, and at block budgets 4, default and twice the largest
    # inner tensor it has the bits of a composition of one-node passes.
    def pointwise(pt, g):
        value, _, scale = _reference_grid_value(desc, f, pt, spec, g)
        return value, _ROUNDING * scale

    def alone(pt, g):
        return _conv_values(desc, f, [[x] for x in pt], spec, g)[0].item(), 0.0

    value, err = got()
    want, want_err, value_slack, err_slack = _reference_lq_mass(desc, f, region, q, spec,
                                                               pointwise)
    eps = np.finfo(float).eps
    assert abs(value - want) <= value_slack + 8 * eps * abs(want), (value, want)
    assert abs(err - want_err) <= err_slack + 8 * eps * want_err, (err, want_err)
    assert (value, err) == _reference_lq_mass(desc, f, region, q, spec, alone)[:2]
    largest = 0
    g = spec.points_per_axis
    for box, _ in region.signed_boxes():
        for outer_order, inner_order in ((g, g), (g, g - 1), (g - 1, g)):
            outer = [p.nodes for p in quadrature._outer_plans(box, f, outer_order)]
            plans = _inner_plans(f, outer, spec, inner_order)
            largest = max(largest, max(math.prod(len(p.nodes) for p in node)
                                       for node in itertools.product(*plans)))
    for budget in (4, 2 * largest):
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
        assert got() == (value, err), budget


def test_lq_mass_matches_per_node_reference_on_a_shell(grid_spec, monkeypatch):
    cfg = _cfg()
    f = make_signum_atom(1, 1).payload
    shell = Shell(n=1, m=1, k=1, l=0, L=1)
    _check_lq_mass(lambda: lq_mass(cfg, f, shell, F(3, 2), grid_spec),
                   flag_kernel(cfg), f, shell, 1.5, grid_spec, monkeypatch)


def test_lq_mass_matches_per_node_reference_on_a_window(grid_spec, monkeypatch):
    cfg = _cfg()
    f = smooth_bump(1, 1)
    window = Window(n=1, m=1, box=((0.75, 1.5), (0.25, 1.0)))
    _check_lq_mass(lambda: lq_mass(cfg, f, window, 2, grid_spec),
                   flag_kernel(cfg), f, window, 2.0, grid_spec, monkeypatch)
    ab = derive_ab(cfg)
    _check_lq_mass(lambda: lq_mass_dominating(cfg, ab, f, window, 2, grid_spec),
                   product_kernel(cfg, ab), f, window, 2.0, grid_spec, monkeypatch)


# ---------------------------------------------------------------------------
# one grid pass per product of a region's boxes


@dataclasses.dataclass(frozen=True)
class _Boxes:
    """A region given by its signed boxes alone."""

    boxes: tuple

    def signed_boxes(self):
        return list(self.boxes)


def _per_box_lq_mass(kernel, f, region, q, spec):
    # the grid q-mass with passes of its own for every box, in region order
    g = spec.points_per_axis
    box_terms, rule_terms, prop_terms = [], [], []
    for box, sign in region.signed_boxes():
        plans_hi = quadrature._outer_plans(box, f, g)
        w_hi = quadrature._tensor_weights([p.weights for p in plans_hi]).ravel()
        values, errs, _ = quadrature._grid_inner(kernel, f, [p.nodes for p in plans_hi], spec)
        inner = list(zip(values.ravel().tolist(), errs.ravel().tolist()))
        v_hi = math.fsum(w * abs(v) ** q for w, (v, _) in zip(w_hi, inner))
        prop = math.fsum(w * quadrature._power_gap(v, e, q) for w, (v, e) in zip(w_hi, inner))
        plans_lo = quadrature._outer_plans(box, f, g - 1)
        w_lo = quadrature._tensor_weights([p.weights for p in plans_lo]).ravel()
        values_lo = _conv_values(kernel, f, [p.nodes for p in plans_lo], spec, g)[0]
        v_lo = math.fsum(w * abs(v) ** q for w, v in zip(w_lo, values_lo.ravel().tolist()))
        box_terms.append(sign * v_hi)
        rule_terms.append(abs(v_hi - v_lo))
        prop_terms.append(prop)
    return math.fsum(box_terms), math.fsum(rule_terms) + math.fsum(prop_terms)


# a 2 x 2 product listed out of C order, with signs that tell the boxes apart
_A, _B, _C, _D = (-1.0, -0.25), (0.5, 2.0), (-0.5, 0.5), (1.0, 3.0)
_SCRAMBLED = _Boxes((((_A, _C), 1.0), ((_B, _D), -1.0), ((_A, _D), 1.0), ((_B, _C), -1.0)))


def test_box_products_cut_a_list_into_consecutive_products():
    shell = Shell(n=1, m=1, k=2, l=3, L=0)
    assert quadrature._box_products([b for b, _ in shell.signed_boxes()]) == [
        [[(-4.0, -2.0), (2.0, 4.0)], [(-8.0, -4.0), (4.0, 8.0)]]]
    gap = GapRegion(n=1, m=1, L=0)
    assert quadrature._box_products([b for b, _ in gap.signed_boxes()]) == [
        [[(-1.0, -0.5), (0.5, 1.0)], [(-1.0, 1.0)]],
        [[(-0.5, 0.5)], [(-1.0, -0.5), (0.5, 1.0)]]]
    assert quadrature._box_products([b for b, _ in _SCRAMBLED.boxes]) == [
        [[_A], [_C]], [[_B, _A], [_D]], [[_B], [_C]]]
    assert quadrature._box_products([[[0, 1], [2, 3]]]) == [[[(0, 1)], [(2, 3)]]]


@pytest.mark.parametrize("region", [
    Shell(n=1, m=1, k=0, l=0, L=0),
    Shell(n=1, m=1, k=3, l=0, L=0),
    Shell(n=1, m=1, k=0, l=2, L=0),
    Shell(n=1, m=1, k=2, l=3, L=0),
    Window(n=1, m=1, box=((0.75, 1.5), (-0.25, 1.0))),
    CounterexampleRegion(n=1, m=1, R=3.0),
    GapRegion(n=1, m=1, L=0),
    _SCRAMBLED,
], ids=["shell-00", "shell-30", "shell-02", "shell-23", "window", "counterexample", "gap",
        "scrambled"])
def test_lq_mass_grid_keeps_the_bits_of_a_pass_per_box(region, grid_spec):
    kernel = flag_kernel(_cfg(F(9, 10), F(3, 10)))
    f = signum_atom_at_scale(1, 1, 0).payload
    want = _per_box_lq_mass(kernel, f, region, 2.0, grid_spec)
    assert quadrature._lq_mass(kernel, f, region, 2.0, grid_spec) == want


@pytest.mark.parametrize("payload", ["signum", "indicator", "bump"])
def test_gap_mass_is_the_outer_box_less_the_cube(payload, grid_spec):
    # the annulus slabs take the nodes and weights of the outer box that
    # the cube does not, so the gap moves only by rounding, and its err
    # no longer carries the rule disagreement of two large masses (the
    # gap as outer box less cube had the sum of their errs, to rounding)
    cfg = _cfg(F(9, 10), F(3, 10))
    atom = signum_atom_at_scale(1, 1, 0)
    f = {"signum": atom.payload, "indicator": noncancelling_counterpart(atom),
         "bump": smooth_bump(1, 1, (0.0, 0.0), 0.5, 1.0)}[payload]
    outer = Window(n=1, m=1, box=((-1.0, 1.0), (-1.0, 1.0)))
    gap, gap_err = lq_mass(cfg, f, GapRegion(n=1, m=1, L=0), 2, grid_spec)
    outer_mass, outer_err = lq_mass(cfg, f, outer, 2, grid_spec)
    cube_mass, cube_err = lq_mass(cfg, f, Cube(n=1, m=1, L=0), 2, grid_spec)
    old = math.fsum([outer_mass, -cube_mass])
    assert abs(gap - old) <= gap_err + outer_err + cube_err
    assert abs(gap - old) <= math.ulp(outer_mass) + math.ulp(cube_mass) + 2 * math.ulp(gap)
    assert gap_err < outer_err + cube_err


def _cap_message(nodes):
    return f"grid tensor would need {nodes} nodes; use a coarser cutoff"


def test_max_grid_nodes_caps_each_outer_node(grid_spec, inner_tensor_sizes, monkeypatch):
    cfg = _cfg()
    f = make_signum_atom(1, 1).payload
    g = grid_spec.points_per_axis
    size = int(inner_tensor_sizes(f, [[0.4], [0.2]], grid_spec, g).item())
    monkeypatch.setattr(quadrature, "MAX_GRID_NODES", size - 1)
    with pytest.raises(UsageError) as exc:
        apply_operator(cfg, f, point_pair(0.4, 0.2), grid_spec)
    assert str(exc.value) == _cap_message(size)

    # below the largest tensors of the first box's upper outer rule, the
    # first outer node over the cap in C order is named; the cap is the
    # highest one at which that node's size differs from the last one's
    window = Window(n=1, m=1, box=((0.5, 2.0), (-1.5, 1.0)))
    ((box, _),) = window.signed_boxes()
    outer = [p.nodes for p in quadrature._outer_plans(box, f, g)]
    sizes = inner_tensor_sizes(f, outer, grid_spec, g).ravel()
    cap = next(int(c) for c in np.unique(sizes)[::-1]
               if sizes[sizes > c].size and sizes[sizes > c][0] != sizes[sizes > c][-1])
    monkeypatch.setattr(quadrature, "MAX_GRID_NODES", cap)
    with pytest.raises(UsageError) as exc:
        lq_mass(cfg, f, window, 2, grid_spec)
    assert str(exc.value) == _cap_message(int(sizes[sizes > cap][0]))


def test_blocks_keep_one_coordinate_runs_and_refuse_first(monkeypatch):
    # runs of one outer coordinate each are the pass's one block as they
    # are, but only once the tensor of that node is known to fit the cap
    f = smooth_bump(1, 1)
    runs = quadrature._inner_runs(f, [[0.4], [0.2]], QuadratureSpec(inner_cutoff=-40), (4,))[0][0]
    blocks = quadrature._blocks(runs)
    assert [len(parts) for parts in blocks] == [1, 1]
    assert all(parts[0] is run for parts, run in zip(blocks, runs))
    size = math.prod(len(r.offsets) for r in runs)
    monkeypatch.setattr(quadrature, "MAX_GRID_NODES", size - 1)
    with pytest.raises(UsageError) as exc:
        quadrature._blocks(runs)
    assert str(exc.value) == _cap_message(size)
    monkeypatch.setattr(quadrature, "MAX_GRID_NODES", size)
    assert [parts[0] for parts in quadrature._blocks(runs)] == runs


def test_max_grid_nodes_does_not_cap_a_batch(grid_spec, inner_tensor_sizes, monkeypatch):
    # every outer node fits the cap although the blocks batching them do not
    cfg = _cfg()
    f = make_signum_atom(1, 1).payload
    shell = Shell(n=1, m=1, k=2, l=0, L=1)
    g = grid_spec.points_per_axis
    largest = 0
    batched = 0
    for box, _ in shell.signed_boxes():
        for order, inner in ((g, g), (g, g - 1), (g - 1, g)):
            outer = [p.nodes for p in quadrature._outer_plans(box, f, order)]
            largest = max(largest, int(inner_tensor_sizes(f, outer, grid_spec, inner).max()))
            runs = quadrature._blocks(quadrature._inner_runs(f, outer, grid_spec, (inner,))[0][0])
            batched = max(batched, max(
                math.prod(len(r.offsets) for r in block) for block in itertools.product(*runs)
            ))
    assert batched > largest
    want = lq_mass(cfg, f, shell, 2, grid_spec)
    monkeypatch.setattr(quadrature, "MAX_GRID_NODES", largest)
    assert lq_mass(cfg, f, shell, 2, grid_spec) == want


@pytest.mark.parametrize("entry", ["apply_operator", "lq_mass"])
def test_grid_refuses_more_than_max_grid_dimension_before_forming_a_rule(entry):
    # heisenberg_map(2, ...) has n + m = 5; over the bump's default window
    # (twice its support) the outer rule would have 40 nodes per axis, a
    # weight tensor of 40^5 float64 (819 MB), so the refusal comes first
    cfg = heisenberg_map(2, F(1, 2), F(1, 2))
    f = smooth_bump(cfg.n, cfg.m)
    window = centered_window(cfg.n, cfg.m, 2.0, 2.0)
    spec = QuadratureSpec()
    assert f.dim > quadrature.MAX_GRID_DIMENSION
    assert [len(p.nodes) for p in quadrature._outer_plans(window.box, f, 4)] == [40] * 5
    run = {"apply_operator": lambda: apply_operator(cfg, f, point_pair([0.5] * 4, 0.25), spec),
           "lq_mass": lambda: lq_mass(cfg, f, window, 2, spec)}[entry]
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=rf"n\+m <= {quadrature.MAX_GRID_DIMENSION}, got 5$"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
