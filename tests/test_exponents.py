"""Exact rational arithmetic for the exponent conditions.

The region tests are equalities between rationals, so the oracle used
here is written independently with cross-multiplied comparisons: it never
divides, which keeps it structurally different from the library code it
checks.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from flagint import (
    ConfigIncompleteError,
    ExponentConfig,
    ExponentRangeError,
    PreconditionError,
    RegionError,
    as_rational,
    check_formula_one,
    check_formula_two,
    derive_ab,
    heisenberg_map,
    strict_consequences,
)

F = Fraction


# ---------------------------------------------------------------------------
# independent oracle: same mathematics, different arithmetic route


def oracle_formula_one(n, m, alpha, beta, rho, p, q):
    if alpha * m < beta * n:
        return False
    # (alpha + rho*beta) / (n + rho*m) == 1/p - 1/q, cross-multiplied
    lhs = (alpha + rho * beta) * p * q
    rhs = (q - p) * (n + rho * m)
    return lhs == rhs


def oracle_formula_two(n, m, alpha, beta, rho, q):
    if not alpha * m > beta * n:
        return False
    lhs = (alpha + rho * beta) * q
    rhs = (q - 1) * (n + rho * m)
    return lhs == rhs


def oracle_ab(n, m, alpha, beta, rho):
    total = alpha + rho * beta
    return n * total / (n + rho * m), m * total / (n + rho * m)


# ---------------------------------------------------------------------------
# as_rational coercion rules


def test_as_rational_accepts_fraction_int_string():
    assert as_rational(F(9, 10)) == F(9, 10)
    assert as_rational(2) == F(2)
    assert as_rational("9/10") == F(9, 10)
    assert as_rational("0.3") == F(3, 10)
    assert as_rational(" 7/5 ") == F(7, 5)


def test_as_rational_accepts_short_decimal_floats():
    assert as_rational(0.5) == F(1, 2)
    assert as_rational(0.3) == F(3, 10)
    assert as_rational(1.25) == F(5, 4)


def test_as_rational_rejects_long_decimals():
    with pytest.raises(ExponentRangeError):
        as_rational(1.0 / 3.0)
    with pytest.raises(ExponentRangeError):
        as_rational("0.3333333333333333")


def test_as_rational_rejects_junk():
    with pytest.raises(ExponentRangeError):
        as_rational("abc")
    with pytest.raises(ExponentRangeError):
        as_rational(float("inf"))
    with pytest.raises(ExponentRangeError):
        as_rational(float("nan"))
    with pytest.raises(ExponentRangeError):
        as_rational(True)
    with pytest.raises(ExponentRangeError):
        as_rational([1, 2])


def test_division_fractions_are_exempt_from_denominator_bound():
    big = f"1/{10 ** 9}"
    assert as_rational(big) == F(1, 10 ** 9)


# ---------------------------------------------------------------------------
# config validation


def test_config_ranges():
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=0, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1))
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=1, m=1, alpha=F(3, 2), beta=F(1, 2), rho=F(1))
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1), rho=F(1))
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1, 2))
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1), p=F(2), q=F(2))
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1), q=F(1))
    with pytest.raises(ExponentRangeError):
        ExponentConfig(n=True, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(1))


def test_config_coerces_rational_like_fields():
    cfg = ExponentConfig(n=1, m=1, alpha="9/10", beta=0.3, rho=2, q="2")
    assert cfg.alpha == F(9, 10)
    assert cfg.beta == F(3, 10)
    assert cfg.rho == F(2)
    assert cfg.q == F(2)


def test_with_p_from_q_and_back():
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    filled = cfg.with_p_from_q()
    assert filled.p == F(1)
    assert check_formula_one(filled)


def test_with_p_from_q_rejects_inadmissible():
    # ratio 1/2 plus 1/q = 2 would need 1/p = 5/2 > 1
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2))
    with pytest.raises(ConfigIncompleteError):
        cfg.with_p_from_q()
    low_q = ExponentConfig(
        n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(3, 2)
    )
    with pytest.raises(RegionError):
        low_q.with_p_from_q()


# ---------------------------------------------------------------------------
# worked formula examples


def test_formula_one_heisenberg_example():
    # d=1, a=1/2, b=1/4 mapped to n=2, m=1, alpha=1, beta=1/4, rho=2; the
    # balance ratio is 3/8, satisfied e.g. by p=8/5, q=4.
    cfg = ExponentConfig(n=2, m=1, alpha=F(1), beta=F(1, 4), rho=F(2),
                         p=F(8, 5), q=F(4))
    assert cfg.homogeneity_ratio == F(3, 8)
    assert check_formula_one(cfg)


def test_formula_one_symmetric_case():
    # n=m=1, rho=1, alpha=beta: ratio is alpha itself
    cfg = ExponentConfig(n=1, m=1, alpha=F(1, 3), beta=F(1, 3), rho=F(1),
                         p=F(1), q=F(3, 2))
    assert check_formula_one(cfg)


def test_formula_one_reversed_ratio_is_false():
    for p, q in [(F(1), F(2)), (F(8, 5), F(4)), (F(2), F(16))]:
        cfg = ExponentConfig(n=2, m=1, alpha=F(1, 2), beta=F(3, 4), rho=F(2),
                             p=p, q=q)
        assert not check_formula_one(cfg)


def test_formula_one_needs_both_exponents():
    cfg = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 4), rho=F(1), q=F(2))
    with pytest.raises(ConfigIncompleteError):
        check_formula_one(cfg)


def test_formula_two_examples():
    good = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    assert check_formula_two(good)
    critical = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(2), q=F(2))
    assert not check_formula_two(critical)
    off_line = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 4), rho=F(1), q=F(2))
    assert off_line.homogeneity_ratio == F(3, 8) != 1 - F(1, 2)
    assert not check_formula_two(off_line)


def test_formula_two_needs_q():
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2))
    with pytest.raises(ConfigIncompleteError):
        check_formula_two(cfg)


def test_formula_two_implies_formula_one_at_p_one():
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2),
                         p=F(1), q=F(2))
    assert check_formula_two(cfg)
    assert check_formula_one(cfg)
    assert cfg.alpha_over_n > cfg.beta_over_m


def test_scaling_alpha_beta_flips_formula_two():
    base = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    assert check_formula_two(base)
    for t in (F(1, 2), F(11, 10)):
        scaled = ExponentConfig(n=1, m=1, alpha=t * base.alpha,
                                beta=t * base.beta, rho=F(2), q=F(2))
        assert not check_formula_two(scaled)


# ---------------------------------------------------------------------------
# derived pair (a, b)


def test_derive_ab_hand_examples():
    ab = derive_ab(ExponentConfig(n=2, m=1, alpha=F(1), beta=F(1, 4), rho=F(2)))
    assert ab.a == F(3, 4) and ab.b == F(3, 8)

    ab = derive_ab(ExponentConfig(n=1, m=1, alpha=F(4, 5), beta=F(1, 5), rho=F(3)))
    assert ab.a == F(7, 20) and ab.b == F(7, 20)

    sym = derive_ab(ExponentConfig(n=3, m=3, alpha=F(2, 3), beta=F(2, 3), rho=F(1)))
    assert sym.a == F(2, 3) and sym.b == F(2, 3)


def test_derive_ab_defining_equations():
    cfg = ExponentConfig(n=2, m=3, alpha=F(7, 4), beta=F(1, 3), rho=F(5, 2))
    ab = derive_ab(cfg)
    assert ab.a * cfg.m == ab.b * cfg.n
    assert ab.a + cfg.rho * ab.b == cfg.alpha + cfg.rho * cfg.beta
    assert F(0) < ab.a <= cfg.alpha
    assert cfg.beta <= ab.b < cfg.m
    # a/n equals the homogeneity ratio itself
    assert ab.a == cfg.n * cfg.homogeneity_ratio


def test_derive_ab_rejects_reversed_ratio():
    with pytest.raises(RegionError):
        derive_ab(ExponentConfig(n=2, m=1, alpha=F(1, 2), beta=F(3, 4), rho=F(2)))


def test_strict_consequences():
    cfg = ExponentConfig(n=1, m=1, alpha=F(9, 10), beta=F(3, 10), rho=F(2), q=F(2))
    assert strict_consequences(cfg) == (True, True)
    critical = ExponentConfig(n=1, m=1, alpha=F(1, 2), beta=F(1, 2), rho=F(2), q=F(2))
    with pytest.raises(PreconditionError):
        strict_consequences(critical)


def test_heisenberg_map():
    cfg = heisenberg_map(1, F(1, 2), F(1, 4))
    assert (cfg.n, cfg.m) == (2, 1)
    assert cfg.alpha == F(1) and cfg.beta == F(1, 4) and cfg.rho == F(2)

    with pytest.raises(ExponentRangeError):
        heisenberg_map(1, F(1), F(1, 4))
    with pytest.raises(ExponentRangeError):
        heisenberg_map(1, F(1, 2), F(1))
    with pytest.raises(ExponentRangeError):
        heisenberg_map(0, F(1, 2), F(1, 4))

    # a = d*b boundary: formula one holds with equality in the first clause
    bdry = heisenberg_map(3, F(1), F(1, 3))
    assert bdry.alpha_over_n == bdry.beta_over_m == F(1, 3)
    balanced = ExponentConfig(
        n=bdry.n, m=bdry.m, alpha=bdry.alpha, beta=bdry.beta, rho=bdry.rho,
        p=F(3, 2), q=F(3),
    )
    assert check_formula_one(balanced)
    assert not check_formula_two(
        ExponentConfig(n=bdry.n, m=bdry.m, alpha=bdry.alpha, beta=bdry.beta,
                       rho=bdry.rho, q=F(3))
    )


# ---------------------------------------------------------------------------
# 500 seeded configurations against the oracle


def _random_config(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    alpha = F(int(rng.integers(1, 10 * n)), 10)
    beta = F(int(rng.integers(1, 10 * m)), 10)
    rho = 1 + F(int(rng.integers(0, 13)), 6)
    return n, m, alpha, beta, rho


def test_seeded_configs_match_oracle():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    balanced_hits = 0
    for trial in range(500):
        n, m, alpha, beta, rho = _random_config(rng)
        if trial % 2 == 0:
            # random p < q; rarely on the balance line
            p = 1 + F(int(rng.integers(0, 12)), 12)
            q = p + F(int(rng.integers(1, 12)), 12)
        else:
            # solve for q at p = 1 when admissible, to exercise the
            # exact-equality branch a float comparison would miss
            p = F(1)
            ratio = (alpha + rho * beta) / (n + rho * m)
            inv_q = 1 - ratio
            if 0 < inv_q < 1:
                q = 1 / inv_q
                balanced_hits += 1
            else:
                q = F(5)
        cfg = ExponentConfig(n=n, m=m, alpha=alpha, beta=beta, rho=rho, p=p, q=q)
        assert check_formula_one(cfg) == oracle_formula_one(n, m, alpha, beta, rho, p, q)
        assert check_formula_two(cfg) == oracle_formula_two(n, m, alpha, beta, rho, q)
        if alpha * m >= beta * n:
            ab = derive_ab(cfg)
            oa, ob = oracle_ab(n, m, alpha, beta, rho)
            assert ab.a == oa and ab.b == ob
            assert ab.a * m == ab.b * n
            assert ab.a + rho * ab.b == alpha + rho * beta
    elapsed = time.perf_counter() - start
    assert balanced_hits > 100, "the equality branch must actually be exercised"
    assert elapsed < 1.0, f"500 configs took {elapsed:.3f}s"


def test_checks_are_deterministic():
    cfg = ExponentConfig(n=2, m=1, alpha=F(1), beta=F(1, 4), rho=F(2),
                         p=F(8, 5), q=F(4))
    first = (check_formula_one(cfg), check_formula_two(cfg), derive_ab(cfg))
    for _ in range(10):
        assert (check_formula_one(cfg), check_formula_two(cfg), derive_ab(cfg)) == first
