"""Exact polynomial algebra: examples, constraint identities, properties."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levbounds.polyalg import (MAX_DEGREE, ConstraintViolationError, MollifierShape,
                               Poly, TwistShape, X, ZERO, basis_moments, expand_mollifier,
                               mollifier_basis, mollifier_shape_from_poly,
                               moments, poly_derivative,
                               poly_eval, poly_reflect, shape_moments, sym_basis_integral,
                               twist_shape_from_poly)
from levbounds.oracle import quad_integrate01

from kernel_reference import expand_twist

F = Fraction

# coefficient literals: binary64 values, exact zeros, decimal strings with
# large denominators, and magnitudes of 1e+-300
coefficients = st.one_of(
    st.floats(-4, 4), st.sampled_from([0, "0", 0.0]),
    st.builds(lambda n, k: f"{n}e-{k}", st.integers(-10**25, 10**25), st.integers(0, 60)),
    st.sampled_from([1e300, -1e300, 1e-300, "-1e-300", "1e300", 5e-324]))


def shape_coeffs(max_size: int):
    """Up to max_size coefficients, the last zero to two of them zeros."""
    return st.builds(lambda cs, zeros: cs + ["0"] * zeros,
                     st.lists(coefficients, max_size=max_size - 2), st.integers(0, 2))

REFERENCE_P1 = MollifierShape.of(["-0.158", "0.25"])
REFERENCE_Q = TwistShape.of("-0.673", ["0.369", "-4.635"])


def random_coeffs(rng, n):
    """n exact rationals, the last one nonzero so the degree is n."""
    cs = [F(int(rng.integers(-50, 51)), int(rng.integers(1, 20))) for _ in range(n)]
    if cs and cs[-1] == 0:
        cs[-1] = F(1)
    return cs


def random_poly(rng, max_deg=8):
    deg = rng.integers(0, max_deg + 1)
    coeffs = [F(int(rng.integers(-50, 51)), int(rng.integers(1, 20))) for _ in range(deg + 1)]
    return Poly.from_coeffs(coeffs)


class TestPolyBasics:
    def test_eval_square_at_half(self):
        p = Poly.from_coeffs([0, 0, 1])
        assert poly_eval(p, F(1, 2)) == F(1, 4)

    def test_eval_reference_p1_at_one(self):
        assert poly_eval(expand_mollifier(REFERENCE_P1), 1) == 1

    def test_eval_reference_twist_at_zero(self):
        assert poly_eval(expand_twist(REFERENCE_Q), 0) == 1

    def test_decimal_literals_exact(self):
        assert Poly.from_coeffs(["0.158"]).coeffs[0] == F(79, 500)

    def test_canonical_form_strips_trailing_zeros(self):
        assert Poly.from_coeffs([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly.from_coeffs([0, 0]).coeffs == ()

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            Poly.from_coeffs([0] * (MAX_DEGREE + 1) + [1])


class TestIntegerForm:
    def test_integer_numerators_over_one_denominator(self):
        p = Poly.from_coeffs(["0.5", "-0.25", 3])
        assert (p.nums, p.den) == ((2, -1, 12), 4)
        assert p.coeffs == (F(1, 2), F(-1, 4), F(3))
        assert ZERO == Poly((), 1) and X == Poly((0, 1))

    def test_of_canonicalises(self):
        assert Poly.of([4, -6, 0, 0], -8) == Poly((-2, 3), 4)
        assert Poly.of([0, 0], 7) == ZERO
        assert Poly.of([5], 1) == Poly((5,))

    @pytest.mark.parametrize("nums, den, named", [
        ((1, 2), 0, "denominator 0 is not positive"),
        ((1, 2), -3, "denominator -3 is not positive"),
        ((2, 4), 6, "share a factor"),
        ((1, 0), 3, "trailing zero numerator"),
        ((F(1, 2), 1), 3, "integer numerators over one integer denominator"),
        ((1.0,), 1, "integer numerators over one integer denominator"),
        ((1,), F(3), "integer numerators over one integer denominator"),
        ([0, 1], 1, "a tuple of integer numerators"),
    ])
    def test_constructor_rejects_each_bad_form_by_name(self, nums, den, named):
        with pytest.raises(ValueError, match=named):
            Poly(nums, den)

    def test_of_rejects_what_it_cannot_canonicalise(self):
        with pytest.raises(ValueError, match="denominator is zero"):
            Poly.of([1], 0)
        with pytest.raises(ValueError, match="integer numerators over one integer denominator"):
            Poly.of([F(1, 2)], 3)
        with pytest.raises(ValueError, match="integer numerators over one integer denominator"):
            Poly.of([1, 2.0], 3)

    def test_coeffs_is_read_only(self):
        with pytest.raises(AttributeError):
            X.coeffs = (F(1),)


class TestDerivative:
    def test_power_rule(self):
        assert poly_derivative(Poly.from_coeffs([0, 0, 0, 1])).coeffs == (F(0), F(0), F(3))

    def test_constant_to_zero(self):
        assert poly_derivative(Poly.from_coeffs([1])) == ZERO

    def test_reference_p1_expansion(self):
        p1 = expand_mollifier(REFERENCE_P1)
        assert p1.coeffs == (F(0), F("0.842"), F("0.408"), F("-0.25"))
        assert poly_derivative(p1).coeffs == (F("0.842"), F("0.816"), F("-0.75"))


class TestProductIntegral:
    """The exact integral over [0,1] of p q, read as the m_pp of moments."""

    def test_x_times_x(self):
        assert moments(X, X).m_pp == F(1, 3)

    def test_ones(self):
        one = Poly.from_coeffs([1])
        assert moments(one, one).m_pp == 1

    def test_mixed_powers(self):
        x2 = Poly.from_coeffs([0, 0, 1])
        x3 = Poly.from_coeffs([0, 0, 0, 1])
        assert moments(x2, x3).m_pp == F(1, 6)

    def test_symmetry_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            assert moments(p, q).m_pp == moments(q, p).m_pp

    def test_fundamental_theorem_property(self):
        one = Poly.from_coeffs([1])
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_poly(rng)
            lhs = moments(poly_derivative(p), one).m_pp
            assert lhs == poly_eval(p, 1) - poly_eval(p, 0)

    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p, q = random_poly(rng), random_poly(rng)
            exact = float(moments(p, q).m_pp)
            nodes = (max(p.degree, 0) + max(q.degree, 0)) // 2 + 1
            approx = quad_integrate01(p, q, nodes)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestShapeMoments:
    """A pair of shapes' moment table read from their integer rows and the
    basis tables G_k, against the moments of the expanded pair."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(shape_coeffs(8), shape_coeffs(8))
    @example([], ["-0.158", "0.25"])
    @example(["-0.158", "0.25", "0"], ["0.492", "0", "0"])
    @example(["1e300", "-1e-300"], [5e-324, "0.1234567890123456789012345678901234567"])
    def test_equal_to_the_moments_of_the_expanded_pair(self, a, b):
        sa, sb = MollifierShape.of(a), MollifierShape.of(b)
        pa, pb = expand_mollifier(sa), expand_mollifier(sb)
        assert shape_moments(sa, sb) == moments(pa, pb)
        assert shape_moments(sb, sa) == moments(pb, pa)
        assert shape_moments(sa, sa) == moments(pa, pa)

    @pytest.mark.parametrize("m", range(9))
    def test_basis_tables_are_the_moments_of_basis_pairs(self, m):
        # and each is the leading block of the next degree's table
        G, den = basis_moments(m)
        G_next, den_next = basis_moments(m + 1)
        basis, n = mollifier_basis(m), m + 1
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                mt = moments(bi, bj)
                exact = (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp)
                assert tuple(F(g[i * n + j], den) for g in G) == exact
                assert tuple(F(g[i * (n + 1) + j], den_next) for g in G_next) == exact

    def test_rows_are_formed_once_per_shape(self):
        shape = MollifierShape.of(["-0.158", "0.25"])
        assert shape.numerators == ((500, -79, 125), 500)
        assert shape.numerators is shape.numerators
        assert TwistShape.of("-0.673", ["0.369"]).numerators == ((1000, -673, 369), 1000)


class TestMollifierShape:
    def test_empty_shape_is_identity(self):
        assert expand_mollifier(MollifierShape.of([])) == X

    def test_reference_shape_expansion(self):
        p = expand_mollifier(REFERENCE_P1)
        assert p.coeffs == (F(0), F("0.842"), F("0.408"), F("-0.25"))

    def test_second_reference_shape(self):
        p = expand_mollifier(MollifierShape.of(["-0.482", "-0.392", "-0.262"]))
        assert poly_eval(p, 0) == 0 and poly_eval(p, 1) == 1
        assert p.degree == 4

    def test_endpoint_constraints_hold_for_random_shapes(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-2, 2, rng.integers(0, 5))])
            p = expand_mollifier(shape)
            assert poly_eval(p, 0) == 0
            assert poly_eval(p, 1) == 1

    def test_roundtrip_from_poly(self):
        p = expand_mollifier(REFERENCE_P1)
        assert mollifier_shape_from_poly(p) == REFERENCE_P1

    def test_roundtrip_of_random_shapes(self):
        rng = np.random.default_rng(16)
        for degree in range(7):
            for _ in range(10):
                shape = MollifierShape(tuple(random_coeffs(rng, degree)))
                assert mollifier_shape_from_poly(expand_mollifier(shape)) == shape

    def test_from_poly_rejects_bad_endpoint(self):
        with pytest.raises(ConstraintViolationError, match=r"P\(0\) = 0"):
            mollifier_shape_from_poly(Poly.from_coeffs([1, 1]))
        with pytest.raises(ConstraintViolationError, match=r"P\(1\) = 1"):
            mollifier_shape_from_poly(Poly.from_coeffs([0, 2]))


class TestTwistShape:
    def test_trivial_shape_is_one(self):
        assert expand_twist(TwistShape.of(0)) == Poly.from_coeffs([1])

    def test_linear_shape(self):
        assert expand_twist(TwistShape.of(1)) == Poly.from_coeffs([1, 1])

    def test_reference_twist_expansion(self):
        q = expand_twist(REFERENCE_Q)
        assert q.coeffs == (F(1), F("-0.673"), F("0.1845"), F("-1.668"),
                            F("2.3175"), F("-0.927"))

    def test_sym_basis_integral_matches_definition(self):
        # I_2(x) = x^3/3 - x^4/2 + x^5/5
        assert sym_basis_integral(2).coeffs == (F(0), F(0), F(0), F(1, 3), F(-1, 2), F(1, 5))

    def test_derivative_symmetry_identity_for_random_shapes(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            shape = TwistShape.of(float(rng.uniform(-2, 2)),
                                  [float(x) for x in rng.uniform(-2, 2, rng.integers(0, 4))])
            dq = poly_derivative(expand_twist(shape))
            assert (dq - poly_reflect(dq)) == ZERO

    def test_roundtrip_from_poly(self):
        q = expand_twist(REFERENCE_Q)
        assert twist_shape_from_poly(q) == REFERENCE_Q

    def test_roundtrip_of_random_shapes(self):
        rng = np.random.default_rng(17)
        for degree in range(7):
            for _ in range(10):
                linear, *sym = random_coeffs(rng, degree + 1)
                shape = TwistShape(linear, tuple(sym))
                assert twist_shape_from_poly(expand_twist(shape)) == shape

    def test_from_poly_rejects_symmetry_violation(self):
        with pytest.raises(ConstraintViolationError, match=r"Q'\(x\) = Q'\(1-x\)"):
            twist_shape_from_poly(Poly.from_coeffs([1, 0, 1]))

    def test_from_poly_rejects_bad_constant(self):
        with pytest.raises(ConstraintViolationError, match=r"Q\(0\) = 1"):
            twist_shape_from_poly(Poly.from_coeffs([2, 1]))
