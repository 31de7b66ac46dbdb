"""Moment tables and kernel derivatives: examples, exactness, singularity,
transpose; the node rows kept per point."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levbounds import kernel
from levbounds.kernel import MAX_BASE_R, MIN_BASE_R, node_rows
from levbounds.oracle import quad_integrate01
from levbounds.polyalg import MollifierShape, MomentTable, X, ZERO, expand_mollifier, moments
from levbounds.proportions import c1_core, c_core

from kernel_reference import (anchor_matrix, cauchy_derivatives, kernel_matrix, kernel_numeric,
                              moment_table, numerator, transpose)

F = Fraction

P1 = expand_mollifier(MollifierShape.of(["-0.158", "0.25"]))
P2 = expand_mollifier(MollifierShape.of(["0.492", "0.075"]))


def random_moment_table(rng) -> MomentTable:
    vals = [F(int(rng.integers(-40, 41)), int(rng.integers(1, 12))) for _ in range(4)]
    return moment_table(*vals)


class TestMoments:
    def test_x_pair(self):
        mt = moments(X, X)
        assert (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp) == (1, F(1, 2), F(1, 2), F(1, 3))

    def test_zero_polynomial(self):
        mt = moments(ZERO, P1)
        assert (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp) == (0, 0, 0, 0)

    def test_reference_pair_agrees_with_quadrature(self):
        mt = moments(P1, P2)
        from levbounds.polyalg import poly_derivative
        pairs = {
            "dd": (poly_derivative(P1), poly_derivative(P2), mt.m_dd),
            "dp": (poly_derivative(P1), P2, mt.m_dp),
            "pd": (P1, poly_derivative(P2), mt.m_pd),
            "pp": (P1, P2, mt.m_pp),
        }
        for name, (a, b, exact) in pairs.items():
            nodes = (max(a.degree, 0) + max(b.degree, 0)) // 2 + 1
            assert quad_integrate01(a, b, nodes) == pytest.approx(float(exact), rel=1e-12)

    def test_diagonal_moment_symmetry(self):
        mt = moments(P1, P1)
        assert mt.m_dp == mt.m_pd
        assert mt.m_pp >= 0 and mt.m_dd >= 0

    def test_cross_derivative_moments_sum_to_one(self):
        # integral of (P1 P2)' over [0,1] with P(0)=0, P(1)=1 endpoints
        mt = moments(P1, P2)
        assert mt.m_dp + mt.m_pd == 1


class TestMomentTableForm:
    """Integer numerators over one denominator, canonical like Poly."""

    def test_moments_are_canonical(self):
        for mt in (moments(P1, P2), moments(P2, P1), moments(X, X), moments(ZERO, P1)):
            assert mt.den > 0 and math.gcd(mt.den, *mt.nums) == 1
        assert moments(X, X) == MomentTable((6, 3, 3, 2), 6)
        assert moments(ZERO, P1) == MomentTable((0, 0, 0, 0), 1)

    def test_of_builds_the_canonical_table(self):
        assert moment_table(F(1, 2), F(1, 3), 0, 2) == MomentTable((3, 2, 0, 12), 6)
        assert moment_table(0, 0, 0, 0) == MomentTable((0, 0, 0, 0))
        mt = moments(P1, P2)
        assert moment_table(mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp) == mt
        assert transpose(mt) == moment_table(mt.m_dd, mt.m_pd, mt.m_dp, mt.m_pp)

    @pytest.mark.parametrize("nums, den", [((2, 4, 6, 8), 2), ((1, 0, 0, 0), -1),
                                           ((0, 0, 0, 0), 0), ((1, 0, 0), 1),
                                           ((1.0, 0, 0, 0), 1), ((1, 0, 0, 0), F(1)),
                                           ([1, 0, 0, 1], 3)])
    def test_constructor_takes_only_the_canonical_form(self, nums, den):
        with pytest.raises(ValueError):
            MomentTable(nums, den)


class TestKernelJet:
    """The kernel's derivatives at the base point (its jet there)."""

    def test_hand_evaluable_closed_form(self):
        # pair (x, x), theta=1, R=0.5: h(-1/2,-1/2) = 19 e / 12 - 7/12
        h = kernel_matrix(moments(X, X), 1.0, 0.5, 2)
        assert h[0, 0] == pytest.approx(19 * math.e / 12 - 7.0 / 12.0, rel=1e-14)

    def test_numerator_vanishes_on_singular_line(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            mt = random_moment_table(rng)
            a0 = float(rng.uniform(-2, 2))
            num = numerator(mt, float(rng.uniform(0.3, 1.0)), a0, -a0)
            assert abs(num) <= 1e-13

    def test_diagonal_kernel_symmetric(self):
        h = kernel_matrix(moments(P1, P1), 1.0, 0.617, 3)
        assert np.allclose(h, h.T, rtol=1e-12, atol=1e-12)

    def test_transpose_law(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            s1 = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            s2 = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 3)])
            pa, pb = expand_mollifier(s1), expand_mollifier(s2)
            theta = float(rng.uniform(0.3, 1.0))
            R = float(rng.uniform(0.1, 2.0))
            h_ab = kernel_matrix(moments(pa, pb), theta, R, 3)
            h_ba = kernel_matrix(moments(pb, pa), theta, R, 3)
            assert np.allclose(h_ab, h_ba.T, rtol=1e-12, atol=1e-12)

    def test_spec_invariants_validated(self):
        # the evaluators that take the kernel's derivatives check its domain
        for theta, R in ((0.0, 0.5), (1.1, 0.5), (1.0, 1e-7)):
            with pytest.raises(ValueError):
                c_core([], [], theta, 1.0, R)
            with pytest.raises(ValueError):
                c1_core([], [0.0], theta, R, 0.5)

    def test_oracle_agreement_over_random_draws(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            poly = expand_mollifier(shape)
            theta = float(rng.uniform(0.3, 1.0))
            R = float(rng.uniform(0.1, 2.0))
            mt = moments(poly, poly)
            h = kernel_matrix(mt, theta, R, 2)
            at = (-R, -R)
            scalar = lambda a, b: kernel_numeric(mt, theta, a, b)
            assert h[0, 0] == pytest.approx(scalar(*at), rel=1e-10)
            cauchy = cauchy_derivatives(scalar, at, 2)
            for m, n in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2)):
                assert h[m, n] == pytest.approx(cauchy[m, n], rel=1e-12)

    def test_stable_form_matches_division_form_away_from_line(self):
        # the closed form against the definition, differentiated by mpmath
        rng = np.random.default_rng(34)
        for _ in range(20):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            poly = expand_mollifier(shape)
            theta = float(rng.uniform(0.5, 1.0))
            R = float(rng.uniform(0.5, 1.5))
            mt = moments(poly, poly)
            assert kernel_matrix(mt, theta, R, 4) == pytest.approx(
                anchor_matrix(mt, theta, R, 4), rel=1e-13, abs=1e-14)

    def test_stable_form_survives_base_on_singular_line(self):
        # R = 0 puts the base point a = b = 0 on the line a + b = 0, where
        # the division form cannot evaluate at all
        mt = moments(X, X)
        h = kernel_matrix(mt, 1.0, 0.0, 3)
        assert np.all(np.isfinite(h))

        scalar = lambda a, b: kernel_numeric(mt, 1.0, a, b)
        assert h[0, 0] == pytest.approx(scalar(0.0, 0.0), rel=1e-13)
        cauchy = cauchy_derivatives(scalar, (0.0, 0.0), 3)
        assert h == pytest.approx(cauchy, rel=1e-13, abs=1e-14)


class TestNodeRowsCache:
    """node_rows hands one read-only object per point, the one a build
    there gives, bit for bit."""

    def test_one_point_is_one_object(self):
        assert node_rows(0.8, 0.746, 3, 2) is node_rows(0.8, 0.746, 3, 2)
        assert node_rows(0.8, 0.617, 2) is node_rows(0.8, 0.617, 2, None)
        assert node_rows(0.8, 0.617, 2) is not node_rows(0.8, 0.617, 2, 0)

    def test_number_types_are_one_entry_of_floats(self):
        kernel._node_rows.cache_clear()
        spellings = [(1, 2), (1.0, 2.0), (np.float64(1.0), np.float64(2.0)), (1, 2.0)]
        rows = [node_rows(theta, R, 3, 1) for theta, R in spellings]
        assert all(row is rows[0] for row in rows)
        assert kernel._node_rows.cache_info().currsize == 1
        assert type(rows[0].theta) is float and type(rows[0].rho) is float

    def test_tables_are_read_only(self):
        rows = node_rows(0.9, 1.3, 4, 3)
        for table in (rows.t, rows.wt, rows.wx):
            with pytest.raises(ValueError):
                table[0] = 0.0
            with pytest.raises(ValueError):
                table += 1.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(theta=st.floats(0.05, 1.0), R=st.floats(MIN_BASE_R, MAX_BASE_R),
           m=st.integers(0, 8), k=st.none() | st.integers(0, 7))
    def test_cached_rows_are_a_fresh_build(self, theta, R, m, k):
        cached = node_rows(theta, R, m, k)
        fresh = kernel._node_rows.__wrapped__(theta, R, m, k)
        assert fresh is not cached
        assert ((cached.theta, cached.R, cached.rho) == (fresh.theta, fresh.R, fresh.rho)
                == (theta, R, R * theta))
        for name in ("t", "wt", "wx"):
            a, b = getattr(cached, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # c's t-Gram, formed at c's points only (k None): three floats, each
        # bit for bit the fresh build's, and the sums of wt, wt (t - 1) and
        # wt (t - 1)^2, whose terms share a sign, so each is good to a few
        # ulps; c1's T is its twist's, so its points carry none
        if k is None:
            assert all(type(x) is float for x in cached.Tc)
            assert [x.hex() for x in cached.Tc] == [x.hex() for x in fresh.Tc]
            for x, p in zip(cached.Tc, range(3)):
                exact = math.fsum(w * (t - 1.0) ** p for w, t in zip(cached.wt, cached.t))
                assert abs(x - exact) <= 1e-13 * abs(exact)
        else:
            assert cached.Tc is None and fresh.Tc is None
        assert node_rows(theta, R, m, k) is cached

    def test_keeps_at_most_its_size(self):
        kernel._node_rows.cache_clear()
        kept = kernel._NODE_ROWS_KEPT
        first = node_rows(1.0, 0.5, 2)
        for i in range(kept + 8):
            node_rows(1.0, 1.0 + i / 64, 2)
        assert kernel._node_rows.cache_info().currsize == kept
        assert node_rows(1.0, 0.5, 2) is not first  # the oldest point was dropped
