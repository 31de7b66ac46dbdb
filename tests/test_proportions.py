"""Bound constants and combiners: reference values, degeneracies, properties."""

import math
from fractions import Fraction

import numpy as np
import pytest

from levbounds.kernel import moments
from levbounds.polyalg import MollifierShape, TwistShape, expand_mollifier, expand_twist
from levbounds.proportions import (NonPositiveConstantError, SectionFiveParams,
                                   SectionFourParams, c1_value, c_value,
                                   full_report, grh_bounds, kappa_bound,
                                   nu_bound, twist_operator_coefficients,
                                   unconditional_bounds)
from levbounds.reference import section_five_reference, section_four_reference

from kernel_reference import kernel_matrix

X_SHAPE = MollifierShape.of([])


class TestCValue:
    def test_reference_constant(self):
        c = c_value(section_four_reference())
        assert c == pytest.approx(1.230108, rel=5e-4)
        # frozen engine value, exact-rational arbiter agrees to 1e-14
        assert c == pytest.approx(1.2301085737954217, rel=1e-12)

    def test_quoted_sign_variant_does_not_reproduce(self):
        # the commonly quoted -0.492 first shape coefficient yields a value
        # far from the reference constant; +0.492 is the reproducing shape
        params = SectionFourParams(
            p1_shape=MollifierShape.of(["-0.158", "0.25"]),
            p2_shape=MollifierShape.of(["-0.492", "0.075"]),
            theta=1.0, r=1.154, R=0.617)
        c_flipped = c_value(params)
        assert c_flipped == pytest.approx(1.5303158151789646, rel=1e-12)
        assert abs(c_flipped - 1.230108) / 1.230108 > 0.2

    def test_identity_mollifiers_suppressed_derivatives(self):
        params = SectionFourParams(X_SHAPE, X_SHAPE, 1.0, 1e9, 0.5)
        expected = 19 * math.e / 12 - 7.0 / 12.0
        assert c_value(params) == pytest.approx(expected, abs=1e-6)

    def test_cross_terms_invariant_under_transposed_kernels(self):
        # the two cross extractions are transpose-images of each other, so
        # their sum can be computed from either kernel of the mixed pair
        rng = np.random.default_rng(41)
        for _ in range(10):
            s1 = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            s2 = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 3)])
            theta = float(rng.uniform(0.5, 1.0))
            R = float(rng.uniform(0.3, 1.0))
            pa, pb = expand_mollifier(s1), expand_mollifier(s2)
            h21 = kernel_matrix(moments(pb, pa), theta, R, 2)
            h12 = kernel_matrix(moments(pa, pb), theta, R, 2)
            # at the symmetric base point the two cross extractions coincide
            assert h21[1, 0] == pytest.approx(h12[0, 1], rel=1e-12)
            assert h21[0, 1] == pytest.approx(h12[1, 0], rel=1e-12)

    def test_infinite_r_reduces_to_kernel_value(self):
        p4 = section_four_reference()
        params = SectionFourParams(p4.p1_shape, p4.p2_shape, p4.theta,
                                   float("inf"), p4.R)
        poly1 = expand_mollifier(p4.p1_shape)
        h11 = kernel_matrix(moments(poly1, poly1), p4.theta, p4.R, 2)
        assert c_value(params) == h11[0, 0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SectionFourParams(X_SHAPE, X_SHAPE, 1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            SectionFourParams(X_SHAPE, X_SHAPE, 1.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            SectionFourParams(X_SHAPE, X_SHAPE, 1.0, 1.0, 0.0)


class TestNuBound:
    def test_log_one(self):
        assert nu_bound(1.0, 0.617) == 0.0

    def test_reference_value(self):
        nu = nu_bound(1.230108, 0.617)
        assert nu == pytest.approx(0.16780, abs=1e-4)
        # quoted upstream rounding: printed 0.167835 vs recomputed
        assert abs(nu - 0.167835) < 5e-5

    def test_algebraic_identity(self):
        for R in (0.3, 0.617, 1.5):
            assert nu_bound(math.exp(2 * R), R) == pytest.approx(1.0, rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveConstantError):
            nu_bound(0.0, 0.5)
        with pytest.raises(NonPositiveConstantError):
            nu_bound(-1.0, 0.5)


class TestC1Value:
    def test_reference_constant(self):
        c1 = c1_value(section_five_reference())
        assert c1 == pytest.approx(1.047120, rel=5e-4)
        assert c1 == pytest.approx(1.0471158196303351, rel=1e-12)

    def test_delta_zero_degenerates_to_kernel_value(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 3)])
            q = TwistShape.of(float(rng.uniform(-1, 1)),
                              [float(x) for x in rng.uniform(-1, 1, 2)])
            theta = float(rng.uniform(0.4, 1.0))
            R = float(rng.uniform(0.2, 1.5))
            params = SectionFiveParams(shape, q, theta, R, 0.0)
            poly = expand_mollifier(shape)
            h = kernel_matrix(moments(poly, poly), theta, R, 2)
            assert c1_value(params) == pytest.approx(h[0, 0], rel=1e-12)

    def test_constant_twist_expands_operator_by_hand(self):
        p5 = section_five_reference()
        delta = 0.63
        params = SectionFiveParams(p5.p_shape, TwistShape.of(0), 1.0, p5.R, delta)
        poly = expand_mollifier(p5.p_shape)
        h = kernel_matrix(moments(poly, poly), 1.0, p5.R, 1)
        expected = (h[0, 0] + 2 * delta * h[1, 0] + 2 * delta * h[0, 1]
                    + 4 * delta * delta * h[1, 1])
        assert c1_value(params) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_in_delta(self):
        p5 = section_five_reference()

        def at(delta):
            return c1_value(SectionFiveParams(p5.p_shape, p5.q_shape, p5.theta,
                                              p5.R, delta))

        probes = [0.0, 0.5, 1.0]
        values = [at(d) for d in probes]
        # Lagrange quadratic through the three probes, evaluated at 0.3
        d = 0.3
        pred = sum(v * math.prod((d - probes[j]) / (probes[i] - probes[j])
                                 for j in range(3) if j != i)
                   for i, v in enumerate(values))
        assert at(d) == pytest.approx(pred, abs=1e-10)


def exact_twist_operator(q, delta):
    """(1-delta) + delta (1+2x) Q(-x) over powers of x, in exact rationals,
    for Q(x) = sum_k q[k] x^k."""
    q_reflected = [c * (-1) ** k for k, c in enumerate(q)]
    out = [Fraction(0)] * (len(q) + 1)
    for k, c in enumerate(q_reflected):
        out[k] += delta * c
        out[k + 1] += 2 * delta * c
    out[0] += 1 - delta
    return out


class TestTwistOperator:
    """twist_operator_coefficients is shared by the engine, the oracle and
    the test reference; this checks it against the operator itself."""

    def test_dyadic_twists_match_exactly(self):
        # dyadic rationals with short numerators: every float step is exact
        rng = np.random.default_rng(17)
        for degree in range(1, 6):
            for _ in range(4):
                q = [Fraction(1)] + [Fraction(int(n), 64)
                                     for n in rng.integers(-320, 321, degree)]
                delta = Fraction(int(rng.integers(0, 129)), 128)
                u = twist_operator_coefficients([float(c) for c in q], float(delta))
                assert list(u) == [float(c) for c in exact_twist_operator(q, delta)]

    def test_twist_shapes_match_to_rounding(self):
        rng = np.random.default_rng(23)
        for m in range(3):  # Q of degree 1, 3 and 5
            for _ in range(4):
                shape = TwistShape.of(float(rng.uniform(-1, 1)),
                                      [float(x) for x in rng.uniform(-5, 5, m)])
                q = list(expand_twist(shape).coeffs)
                assert len(q) == 2 * m + 2
                delta = Fraction(float(rng.uniform(0, 1.2)))
                u = twist_operator_coefficients([float(c) for c in q], float(delta))
                exact = exact_twist_operator(q, delta)
                scale = max(abs(float(c)) for c in exact)
                assert len(u) == len(exact)
                for got, want in zip(u, exact):
                    assert got == pytest.approx(float(want), rel=1e-15, abs=4e-16 * scale)


class TestKappaBound:
    def test_unit_constant(self):
        assert kappa_bound(1.0, 0.746) == 1.0

    def test_reference_value(self):
        assert kappa_bound(1.047120, 0.746) == pytest.approx(0.93828, abs=5e-4)

    def test_algebraic_identity(self):
        for R in (0.4, 0.746, 2.0):
            assert kappa_bound(math.exp(R), R) == pytest.approx(0.0, abs=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveConstantError):
            kappa_bound(-0.5, 0.746)


class TestCombiners:
    def test_reference_unconditional(self):
        d, s = unconditional_bounds(0.93828, 0.167835)
        assert d == pytest.approx(0.801305, abs=1e-6)
        assert s == pytest.approx(0.60261, abs=1e-5)

    def test_trivial_unconditional(self):
        assert unconditional_bounds(1.0, 0.0) == (1.0, 1.0)
        assert unconditional_bounds(0.0, 0.0) == (0.5, 0.0)

    def test_reference_grh(self):
        d, s = grh_bounds(0.167835)
        assert d == pytest.approx(0.832165, abs=1e-6)
        assert s == pytest.approx(0.66433, abs=1e-5)

    def test_trivial_grh(self):
        assert grh_bounds(0.0) == (1.0, 1.0)
        assert grh_bounds(0.5) == (0.5, 0.0)


class TestFullReport:
    def test_reference_parameters_meet_targets(self):
        report = full_report(section_four_reference(), section_five_reference())
        assert report.d_uncond >= 0.8013 - 1e-3
        assert report.s_uncond >= 0.60261 - 1e-3
        assert report.d_grh >= 0.83216 - 1e-3
        assert report.s_grh >= 0.66433 - 1e-3

    def test_internal_consistency(self):
        report = full_report(section_four_reference(), section_five_reference())
        assert abs(report.d_uncond - (0.5 + report.kappa / 2 - report.nu)) <= 1e-15
        assert abs(report.s_uncond - (report.kappa - 2 * report.nu)) <= 1e-15
        assert abs(report.d_grh - (1 - report.nu)) <= 1e-15
        assert abs(report.s_grh - (1 - 2 * report.nu)) <= 1e-15

    def test_consistency_under_parameter_change(self):
        p4 = section_four_reference()
        p5 = section_five_reference()
        for R in (0.4, 0.8, 1.1):
            changed = SectionFourParams(p4.p1_shape, p4.p2_shape, p4.theta, p4.r, R)
            report = full_report(changed, p5)
            assert report.nu == pytest.approx(nu_bound(report.c, R), abs=1e-15)
            assert abs(report.d_grh - (1 - report.nu)) <= 1e-15

    def test_finite_and_positive_on_parameter_neighborhood(self):
        p4 = section_four_reference()
        p5 = section_five_reference()
        rng = np.random.default_rng(43)
        for _ in range(60):
            scale = lambda xs: [float(x) * float(rng.uniform(0.5, 1.5)) for x in xs]
            s1 = MollifierShape.of(scale(p4.p1_shape.shape_coeffs))
            s2 = MollifierShape.of(scale(p4.p2_shape.shape_coeffs))
            sp = MollifierShape.of(scale(p5.p_shape.shape_coeffs))
            q = TwistShape.of(float(p5.q_shape.linear_coeff) * float(rng.uniform(0.5, 1.5)),
                              scale(p5.q_shape.sym_coeffs))
            theta = float(rng.uniform(0.8, 1.0))
            R4 = float(rng.uniform(0.3, 1.2))
            R5 = float(rng.uniform(0.3, 1.2))
            delta = float(rng.uniform(0.0, 1.2))
            c = c_value(SectionFourParams(s1, s2, theta, p4.r, R4))
            c1 = c1_value(SectionFiveParams(sp, q, theta, R5, delta))
            assert math.isfinite(c) and c > 0
            assert math.isfinite(c1) and c1 > 0
