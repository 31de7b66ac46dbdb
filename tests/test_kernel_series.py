"""Kernel series: the tests' reference derivative tables of h at the base
point, and the E(s) series they are built from.

The derivative table of the kernel h at a = b = -R holds every
d_a^m d_b^n h there (its jet); kernel_derivative_basis gives it per unit
moment.
The exponential and the 1/(a + b) of the definition of h enter it only
through E(s) = (1 - e^{-s})/s and its derivatives at s = -2R, summed from
an entire series.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from levbounds.polyalg import MollifierShape, MomentTable, X, expand_mollifier, moments

from kernel_reference import (_expm1_ratio_derivatives, cauchy_derivatives, division_form,
                              kernel_derivative_basis, kernel_matrix, kernel_numeric)

F = Fraction

P1 = expand_mollifier(MollifierShape.of(["-0.158", "0.25"]))
P2 = expand_mollifier(MollifierShape.of(["0.492", "0.075"]))


def ratio(s):
    """E(s) = (1 - e^{-s})/s by its definition, for s != 0, real or complex."""
    return -np.expm1(-s) / s


def random_pair_moments(rng) -> MomentTable:
    pa = expand_mollifier(MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)]))
    pb = expand_mollifier(MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)]))
    return moments(pa, pb)


class TestRingOps:
    def test_distributive(self):
        # h is linear in its moment table, the premise of the unit-moment
        # basis; the scalar kernel shares no code with the basis
        rng = np.random.default_rng(23)
        for _ in range(20):
            mt1, mt2 = random_pair_moments(rng), random_pair_moments(rng)
            total = MomentTable.of(mt1.m_dd + mt2.m_dd, mt1.m_dp + mt2.m_dp,
                                   mt1.m_pd + mt2.m_pd, mt1.m_pp + mt2.m_pp)
            theta = float(rng.uniform(0.3, 1.0))
            a, b = (float(x) for x in rng.uniform(-2.0, -0.1, 2))
            lhs = kernel_numeric(total, theta, a, b)
            rhs = kernel_numeric(mt1, theta, a, b) + kernel_numeric(mt2, theta, a, b)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestExp:
    def test_exp_of_zero(self):
        # E^(d)(0) = (-1)^d / (d + 1)
        derivs = _expm1_ratio_derivatives(0.0, 6)
        expected = [(-1.0) ** d / (d + 1) for d in range(7)]
        assert derivs == pytest.approx(expected, rel=1e-15)

    def test_exp_minus_a_minus_b_series(self):
        # s E(s) = 1 - e^{-s}, differentiated d + 1 times:
        # s E^(d+1)(s) + (d+1) E^(d)(s) = (-1)^d e^{-s}
        for s0 in (-1.234, 0.0, 0.5):
            derivs = _expm1_ratio_derivatives(s0, 7)
            for d in range(7):
                lhs = s0 * derivs[d + 1] + (d + 1) * derivs[d]
                assert lhs == pytest.approx((-1.0) ** d * math.exp(-s0), rel=1e-14)

    def test_exp_at_shifted_base_value(self):
        # base a = b = -0.617, so s = -1.234
        value = _expm1_ratio_derivatives(-1.234, 2)[0]
        assert value == pytest.approx(math.expm1(1.234) / 1.234, rel=1e-15)

    def test_exp_matches_finite_differences(self):
        # the definition's derivatives by Cauchy integrals
        base = (-0.617, -0.617)
        derivs = _expm1_ratio_derivatives(-1.234, 2)
        func = lambda a, b: ratio(a + b)
        cauchy = cauchy_derivatives(func, base, 2)
        for m, n in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            assert derivs[m + n] == pytest.approx(cauchy[m, n], rel=1e-13)

    def test_exp_homomorphism(self):
        # e^{-(s+t)} = e^{-s} e^{-t}, i.e. (s+t) E(s+t) = s E(s) + e^{-s} t E(t)
        rng = np.random.default_rng(24)
        for _ in range(20):
            s, t = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
            e_sum = _expm1_ratio_derivatives(s + t, 0)[0]
            e_s = _expm1_ratio_derivatives(s, 0)[0]
            e_t = _expm1_ratio_derivatives(t, 0)[0]
            lhs = (s + t) * e_sum
            rhs = s * e_s + math.exp(-s) * t * e_t
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestRecip:
    def test_recip_a_plus_b_at_one_one(self):
        # a = b = 1 (R = -1): s = 2, where the series alternates; the m_dd
        # unit kernel is E(a + b) / theta
        jet = kernel_derivative_basis(1.0, -1.0, 1)[0]
        e2 = math.exp(-2.0)
        assert jet[0, 0] == pytest.approx((1.0 - e2) / 2.0, rel=1e-14)
        assert jet[1, 0] == pytest.approx((3.0 * e2 - 1.0) / 4.0, rel=1e-14)
        assert jet[1, 1] == pytest.approx((1.0 - 5.0 * e2) / 4.0, rel=1e-14)

    def test_recip_matches_finite_differences_at_negative_base(self):
        # the division form, differentiated by Cauchy integrals
        base = (-0.617, -0.617)
        mt = moments(P1, P2)
        jet = kernel_matrix(mt, 1.0, 0.617, 2)
        func = lambda a, b: division_form(mt, 1.0, a, b)
        assert jet[0, 0] == pytest.approx(func(*base), rel=1e-13)
        cauchy = cauchy_derivatives(func, base, 2)
        assert jet == pytest.approx(cauchy, rel=1e-12)

    def test_recip_on_singular_line_is_the_limit(self):
        # on a + b = 0 the scalar kernel takes the limit of the division
        # form, which mpmath evaluates 1e-25 off the line; for the pair
        # (x, x) at theta = 1 the limit at (1/2, -1/2) is 23/12
        mt = moments(X, X)
        with mp.workdps(50):
            a = mp.mpf("0.5")
            b = -a + mp.mpf("1e-25")
            g = lambda x, y: 1 + (x + y) / 2 + x * y / 3
            limit = float((g(b, a) - mp.exp(-a - b) * g(-a, -b)) / (a + b))
        assert limit == pytest.approx(23.0 / 12.0, rel=1e-15)
        assert kernel_numeric(mt, 1.0, 0.5, -0.5) == pytest.approx(limit, rel=1e-15)


class TestExtract:
    def test_value_extraction(self):
        mt = moments(P1, P2)
        jet = kernel_matrix(mt, 0.8, 0.617, 3)
        assert jet[0, 0] == pytest.approx(kernel_numeric(mt, 0.8, -0.617, -0.617),
                                          rel=1e-13)

    def test_ab_mixed(self):
        # the m_pp unit kernel is theta a b E(a + b): at the origin its
        # d_a d_b is theta E(0) = theta and its d_a vanishes
        jet = kernel_derivative_basis(0.7, 0.0, 2)[3]
        assert jet[1, 1] == pytest.approx(0.7, rel=1e-15)
        assert jet[1, 0] == 0.0 and jet[0, 0] == 0.0

    def test_exp_third_mixed(self):
        # d_a^2 d_b of the m_dd unit kernel E(a + b) at the origin is E'''(0)
        jet = kernel_derivative_basis(1.0, 0.0, 3)[0]
        assert jet[2, 1] == pytest.approx(-0.25, rel=1e-14)


class TestTruncationConsistency:
    def test_higher_order_truncates_to_lower(self):
        rng = np.random.default_rng(26)
        for k in (2, 4):
            theta = float(rng.uniform(0.3, 1.0))
            R = float(rng.uniform(0.1, 2.0))
            low = kernel_derivative_basis(theta, R, k)
            high = kernel_derivative_basis(theta, R, k + 2)[:, : k + 1, : k + 1]
            assert np.allclose(low, high, rtol=0, atol=1e-13)


class TestComposedExpressionDerivatives:
    def test_composite_vs_finite_differences(self):
        # the kernel composes g, the exponential and 1/(a + b); its
        # definition's derivatives by Cauchy integrals against the closed form
        mt = moments(P1, P2)
        theta, R = 0.8, 0.37
        jet = kernel_matrix(mt, theta, R, 2)
        func = lambda a, b: division_form(mt, theta, a, b)
        cauchy = cauchy_derivatives(func, (-R, -R), 2)
        assert jet == pytest.approx(cauchy, rel=1e-12)
