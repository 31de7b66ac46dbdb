"""Numeric verification path: quadrature, Cauchy integrals, crosschecks."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from levbounds import kernel, oracle
from levbounds.kernel import NodeRows
from levbounds.oracle import crosscheck_report, fd_c1_value, fd_c_value, quad_integrate01
from levbounds.polyalg import (MollifierShape, MomentTable, Poly, TwistShape, X,
                               expand_mollifier, moments, poly_derivative, shape_moments)
from levbounds.proportions import (SectionFiveParams, SectionFourParams, c1_value, c_value,
                                   full_report)
from levbounds.reference import section_five_reference, section_four_reference

from kernel_reference import (cauchy_derivatives, division_form, expand_twist,
                              kernel_derivative_basis, kernel_matrix, kernel_numeric, mp_c,
                              mp_c1, readme_draws, transpose)
from test_polyalg import coefficients, shape_coeffs

# section-4 shapes whose cross moments m12.dp and m21.pd nearly cancel
CANCELLING = (["1.545", "1.483"], ["-0.921", "0.996"])
# seven q_sym entries: deg Q = 15, derivatives to order 16, the N = 80 grid
ORDER16_TWIST = TwistShape.of("-0.673", ["0.369", "-4.635", "0.1", "-0.2", "0.05", "0.3", "-0.1"])
# ten q_sym entries: derivatives to order 22, past 21!, where int64 wraps
ORDER22_TWIST = TwistShape.of("-0.673", ["0.369", "-4.635", "0.1", "-0.2", "0.05", "0.3", "-0.1",
                                         "0.2", "-0.3", "0.1"])
# the README's table of the oracle's relative error against 40 digits, by
# quantity (c, or c1 by its order) and by R <= 5 or 5 < R <= 300: the
# worst of kernel_reference.readme_draws at numpy seeds 9601 to 9604 and
# of the points pinned below
README_CELLS = {("c", False): 6e-14, ("c", True): 4e-12,
                ("c1 order <= 8", False): 8e-14, ("c1 order <= 8", True): 2e-10,
                ("c1 order 10-16", False): 3e-11, ("c1 order 10-16", True): 6e-8}
# the bound each pinned point is held to, by the same cells: tighter than
# README_CELLS where a draw whose terms cancel sets the cell, as in the
# last, set by a draw where u^T D u itself cancels 2.1e9-fold; at c1 order
# <= 8, R <= 5 it is looser (the pinned points read at most 6.2e-14 there)
PUBLISHED_BOUNDS = {("c", False): 3e-14, ("c", True): 5e-13,
                    ("c1 order <= 8", False): 2e-13, ("c1 order <= 8", True): 4e-12,
                    ("c1 order 10-16", False): 3e-11, ("c1 order 10-16", True): 1e-8}


def torus_grid(order: int, R) -> tuple[np.ndarray, np.ndarray]:
    """The grid cauchy_derivatives reads about (-R, -R); R = "rho" puts its
    node (0, 0) on a + b = 0."""
    nodes = oracle._torus(order)[0][1]
    R = abs(nodes[0]) if R == "rho" else R
    return -R + nodes[:, None], -R + nodes[None, :]


def exp_grid(order: int, R: float) -> np.ndarray:
    """The E grid the oracle's forms read about (-R, -R) at one order, as
    _cauchy_forms forms it on a call."""
    grids = []

    def recording(s, decay):
        grids.append(exp_ratio(s, decay))
        return grids[-1]

    exp_ratio = oracle._exp_ratio
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_exp_ratio", recording)
        oracle._cauchy_forms(np.ones((1, order + 1)), R)
    (E,) = grids
    return E


class TestQuadrature:
    def test_x_pair_two_nodes(self):
        assert quad_integrate01(X, X, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ones_single_node(self):
        one = Poly.from_coeffs([1])
        assert quad_integrate01(one, one, 1) == pytest.approx(1.0, abs=1e-15)

    def test_reference_pair_five_nodes(self):
        p4 = section_four_reference()
        p1 = expand_mollifier(p4.p1_shape)
        p2 = expand_mollifier(p4.p2_shape)
        mt = moments(p1, p2)
        assert quad_integrate01(p1, p2, 5) == pytest.approx(float(mt.m_pp), rel=1e-12)

    def test_insufficient_nodes_rejected(self):
        with pytest.raises(ValueError):
            quad_integrate01(X, X, 1)


class TestKernelNumeric:
    def test_hand_closed_form(self):
        mt = moments(X, X)
        expected = 19 * math.e / 12 - 7.0 / 12.0
        assert kernel_numeric(mt, 1.0, -0.5, -0.5) == pytest.approx(expected, abs=1e-9)

    def test_on_singular_line_matches_closed_form(self):
        # E(0) = 1 on the removable line: at a = b = 0 the value is the
        # closed form at R = 0, and across the line the kernel is continuous
        rng = np.random.default_rng(53)
        for _ in range(20):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            poly = expand_mollifier(shape)
            mt = moments(poly, poly)
            theta = float(rng.uniform(0.3, 1.0))
            assert kernel_numeric(mt, theta, 0.0, 0.0) == pytest.approx(
                kernel_matrix(mt, theta, 0.0, 0)[0, 0], rel=1e-13)
            a = float(rng.uniform(-2, 2))
            on_line = kernel_numeric(mt, theta, a, -a)
            for eps in (1e-6, 1e-12, 1e-300):
                mid = 0.5 * (kernel_numeric(mt, theta, a, -a + eps)
                             + kernel_numeric(mt, theta, a, -a - eps))
                assert on_line == pytest.approx(mid, rel=1e-10)

    def test_matches_straight_formula_away_from_line(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            poly = expand_mollifier(shape)
            mt = moments(poly, poly)
            theta = float(rng.uniform(0.3, 1.0))
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            if abs(a + b) < 0.05:
                continue
            mdd, mdp, mpd, mpp = (float(mt.m_dd), float(mt.m_dp),
                                  float(mt.m_pd), float(mt.m_pp))
            g = lambda x, y: mdd + x * theta * mpd + y * theta * mdp \
                + x * y * theta * theta * mpp
            straight = (g(b, a) - math.exp(-a - b) * g(-a, -b)) / (theta * (a + b))
            assert kernel_numeric(mt, theta, a, b) == pytest.approx(straight, rel=1e-12)

    def test_matches_closed_form_value(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            shape = MollifierShape.of([float(x) for x in rng.uniform(-1, 1, 2)])
            poly = expand_mollifier(shape)
            mt = moments(poly, poly)
            theta = float(rng.uniform(0.3, 1.0))
            R = float(rng.uniform(0.1, 2.0))
            floats = [float(mt.m_dd), float(mt.m_dp), float(mt.m_pd), float(mt.m_pp)]
            value = np.tensordot(floats, kernel_derivative_basis(theta, R, 0), 1)[0, 0]
            assert value == pytest.approx(kernel_numeric(mt, theta, -R, -R), rel=1e-10)


class TestGridNumerator:
    """The numerator of E(s): -expm1(-s) where |s| < 1 or the product is not
    finite, 1 - e^{-a} e^{-b} (kernel_numeric) or 1 - e^{2R} e^{-n_j} e^{-n_k}
    (the oracle's one E grid) elsewhere."""

    @pytest.mark.parametrize("order", [1, 6, 16])
    @pytest.mark.parametrize("R", [1e-6, "rho"])
    def test_near_entries_are_the_expm1_ratio_bit_for_bit(self, order, R):
        (_, nodes), _, sums, _ = oracle._torus(order)
        R = abs(nodes[0]) if R == "rho" else R
        s = sums - 2.0 * R
        near = np.abs(s) < 1
        assert near.any() and np.any(s == 0) == (R >= 1)
        expm1_ratio = np.divide(-np.expm1(-s), s, out=np.ones_like(s), where=s != 0)
        assert exp_grid(order, R)[near].tobytes() == expm1_ratio[near].tobytes()

    @pytest.mark.parametrize("order", [1, 6, 16])
    @pytest.mark.parametrize("R", [1e-6, "rho", 5.0, 100.0, 300.0])
    def test_grid_entries_match_E_at_40_digits(self, order, R):
        # E at s = -2R + n_j + n_k from the float nodes and R, at 40 digits:
        # every entry within 4 eps of the grid's largest (a few entries,
        # near the zeros of E at s = 2 pi i k, only so relative to the max)
        nodes = oracle._torus(order)[0][1]
        R = abs(nodes[0]) if R == "rho" else R
        E = exp_grid(order, R)
        to_mp = np.frompyfunc(lambda z: mp.mpc(z.real, z.imag), 1, 1)
        with mp.workdps(40):
            n = to_mp(nodes)
            s = (n[:, None] + n[None, :]) - 2 * mp.mpf(R)
            exact = np.frompyfunc(lambda x: (1 - mp.exp(-x)) / x if x != 0 else mp.mpf(1),
                                  1, 1)(s)
            error = np.array([float(abs(x - y)) for x, y in zip(exact.ravel(), E.ravel())])
        assert error.max() <= 4 * np.finfo(float).eps * np.abs(E).max()

    @pytest.mark.parametrize("order", [1, 6, 16])
    @pytest.mark.parametrize("R", [1e-6, "rho", 5.0, 100.0, 300.0])
    def test_entries_match_the_definition_at_40_digits(self, order, R):
        # the same rounded moments and nodes, the kernel's definition at 40
        # digits: every entry within 4 eps max|F|, the per-entry rounding
        # cauchy_derivatives assumes (the expm1 form read up to 250 eps max|F|
        # at R = 300)
        p5 = section_five_reference()
        poly = expand_mollifier(p5.p_shape)
        mt = moments(poly, poly)
        a, b = np.broadcast_arrays(*torus_grid(order, R))
        F = kernel_numeric(mt, p5.theta, a, b)
        off_line = a + b != 0  # division_form is undefined on the line
        to_mp = np.frompyfunc(lambda z: mp.mpc(z.real, z.imag), 1, 1)
        with mp.workdps(40):
            exact = division_form(mt, p5.theta, to_mp(a[off_line]), to_mp(b[off_line]))
            error = np.array([float(abs(x - y)) for x, y in zip(exact, F[off_line])])
        assert error.max() <= 4 * np.finfo(float).eps * np.abs(F).max()

    def test_off_grid_pair_stays_finite(self):
        # e^{-800} = 0 and e^{795} = inf: the product is nan, so expm1 takes it
        mt = moments(X, X)
        for a, b in ((800.0, -795.0), (-795.0, 800.0)):
            value = kernel_numeric(mt, 0.8, a, b)
            assert np.isfinite(value)
            assert value == pytest.approx(-33690.69715330427, rel=1e-12)


class TestFdPartial:
    """Single partial derivatives read off the cauchy_derivatives matrix."""

    def test_mixed_of_product(self):
        f = lambda a, b: a * b
        assert cauchy_derivatives(f, (0.0, 0.0), 1)[1, 1] == pytest.approx(1.0, abs=1e-14)

    def test_first_of_exponential(self):
        f = lambda a, b: np.exp(-a - b)
        assert cauchy_derivatives(f, (0.0, 0.0), 1)[1, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_kernel_mixed_matches_jet(self):
        p4 = section_four_reference()
        p1 = expand_mollifier(p4.p1_shape)
        p2 = expand_mollifier(p4.p2_shape)
        mt = moments(p1, p2)
        floats = [float(mt.m_dd), float(mt.m_dp), float(mt.m_pd), float(mt.m_pp)]
        h = np.tensordot(floats, kernel_derivative_basis(1.0, 0.617, 1), 1)
        f = lambda a, b: kernel_numeric(mt, 1.0, a, b)
        cauchy = cauchy_derivatives(f, (-0.617, -0.617), 1)[1, 1]
        assert h[1, 1] == pytest.approx(cauchy, rel=1e-13)


class TestCauchyDerivatives:
    def test_polynomial_exactness(self):
        # degree-(3,2) polynomial: every entry, the rows and columns past its
        # degree included, is d_a^m (a^3 + 2a) times d_b^n (b^2 - b)
        f = lambda a, b: (a ** 3 + 2 * a) * (b ** 2 - b)
        for order in (1, 3, 6):
            for a, b in ((0.4, -0.2), (0.0, 0.0), (-3.0, 2.5)):
                da = [a ** 3 + 2 * a, 3 * a ** 2 + 2, 6 * a, 6.0] + [0.0] * 3
                db = [b ** 2 - b, 2 * b - 1, 2.0] + [0.0] * 4
                want = np.outer(da[:order + 1], db[:order + 1])
                got = cauchy_derivatives(f, (a, b), order)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * np.abs(want).max())

    def test_sixteenth_order_of_exponential(self):
        # f = exp(-a-b): every mixed derivative is (-1)^(m+n) exp(-a-b)
        f = lambda a, b: np.exp(-a - b)
        for R in (0.0, 0.7, 5.0):
            m = np.arange(17)
            want = (-1.0) ** np.add.outer(m, m) * math.exp(2 * R)
            D = cauchy_derivatives(f, (-R, -R), 16)
            assert np.abs(D - want).max() <= 1e-9 * math.exp(2 * R)


class TestFdDerivatives:
    def test_reference_tables_match_closed_form(self):
        p4, p5 = section_four_reference(), section_five_reference()
        p1, p2 = expand_mollifier(p4.p1_shape), expand_mollifier(p4.p2_shape)
        p = expand_mollifier(p5.p_shape)
        for mt, params in ((moments(p1, p1), p4), (moments(p1, p2), p4),
                           (moments(p2, p2), p4), (moments(p, p), p5)):
            f = lambda a, b: kernel_numeric(mt, params.theta, a, b)
            D = cauchy_derivatives(f, (-params.R, -params.R), 2)
            assert D == pytest.approx(
                kernel_matrix(mt, params.theta, params.R, 2), rel=1e-12)

    @staticmethod
    def grids(monkeypatch, fd, params) -> list:
        """The shapes of s for which fd forms E."""
        grids = []

        def ratio(s, decay):
            grids.append(s.shape)
            return exp_ratio(s, decay)

        exp_ratio = oracle._exp_ratio
        monkeypatch.setattr(oracle, "_exp_ratio", ratio)
        fd(params)
        return grids

    def test_c1_evaluates_one_E_grid(self, monkeypatch):
        # one E grid of N = 4 order + 16 = 40 nodes per variable at the
        # reference order 6
        assert self.grids(monkeypatch, fd_c1_value, section_five_reference()) == [(40, 40)]

    def test_c_evaluates_one_E_grid(self, monkeypatch):
        # one N = 20 E grid for the centre value and the three derivative
        # forms, and no scalar centre
        assert self.grids(monkeypatch, fd_c_value, section_four_reference()) == [(20, 20)]

    def test_forms_are_each_tables_derivatives_contracted(self):
        # weights u, v against one E grid give u^T D v of each table, D its
        # closed-form derivative matrix, to rounding of the absolute sum
        p4 = section_four_reference()
        p1, p2 = expand_mollifier(p4.p1_shape), expand_mollifier(p4.p2_shape)
        tables = (transpose(moments(p1, p2)), moments(p1, p2), moments(p2, p2))
        rng = np.random.default_rng(37)
        for order, R in ((1, 0.617), (1, 1.0), (6, 0.746), (16, 5.0)):
            u, v = rng.uniform(-1, 1, (2, order + 1))
            forms = oracle._cauchy_forms(np.stack([u, v]), R)
            for mt in tables:
                K = kernel_matrix(mt, 1.0, R, order)
                form = oracle._form(mt, 1.0, R, forms[:2, 2:], u[0] * v[0])
                assert abs(form - u @ K @ v) <= 1e-14 * (np.abs(u) @ np.abs(K) @ np.abs(v))

    def test_moments_build_no_polynomial(self, monkeypatch):
        # one integer pass: no derivative Poly, nor any other
        p4 = section_four_reference()
        p1, p2 = expand_mollifier(p4.p1_shape), expand_mollifier(p4.p2_shape)
        built = []
        monkeypatch.setattr(Poly, "__post_init__", lambda self: built.append(self))
        mt = moments(p1, p2)
        assert built == []
        # the patch does see construction: the reference builds two derivatives
        assert mt.m_dd == moments(poly_derivative(p1), poly_derivative(p2)).m_pp
        assert len(built) == 2

    def test_oracle_builds_no_polynomial(self, monkeypatch):
        # with the per-degree tables built, fresh shapes of the same degrees
        # are read from their rows: neither value builds a Poly
        p4, p5 = TestFrozenOracleValues.DRAW
        fd_c_value(p4), fd_c1_value(p5)
        p4 = replace(p4, p1_shape=MollifierShape.of(["0.1", "-0.2"]),
                     p2_shape=MollifierShape.of(["0.3", "0.4"]))
        p5 = replace(p5, p_shape=MollifierShape.of(["0.1", "0.2", "0.3"]),
                     q_shape=TwistShape.of("0.5", ["0.6", "-0.7"]))
        built = []
        monkeypatch.setattr(Poly, "__post_init__", lambda self: built.append(self))
        fd_c_value(p4), fd_c1_value(p5)
        assert built == []
        # the patch does see construction: an expansion builds one
        expand_mollifier(p4.p1_shape)
        assert len(built) == 1


def expanded_weights(shape: TwistShape, delta: float) -> list[float]:
    """The operator weights of fd_c1_value formed from the expanded twist:
    u_j = (1-delta) [j=0] + delta (-1)^j (q_j - 2 q_{j-1}) over the
    canonical denominator of Q, one entry per j <= deg Q + 1."""
    twist, (num, den) = expand_twist(shape), Fraction(delta).as_integer_ratio()
    q, Dq = (0, *twist.nums, 0), twist.den
    return [(num * (-1) ** j * (q[j + 1] - 2 * q[j]) + (den - num) * Dq * (j == 0)) / (den * Dq)
            for j in range(len(q) - 1)]


class TestTwistWeights:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(coefficients, shape_coeffs(8),
           st.one_of(st.sampled_from([0.0, 1.0, -0.5, 1e-300, 5e-324]), st.floats(-2, 2)))
    @example("-0.673", [], 1.0)
    @example("-0.673", ["0.369", "-4.635", "0"], 0.0)
    @example("0", ["0", "0"], 5e-324)
    def test_equal_to_the_expanded_twist_route(self, linear, sym, delta):
        # each weight bit for bit, and as many of them: trailing zero q_sym
        # entries and delta = 0 keep the trimmed twist's order
        shape = TwistShape.of(linear, sym)
        assert oracle._twist_weights(shape, delta).tolist() == expanded_weights(shape, delta)


class TestOracleRecomputation:
    def test_c_at_reference(self):
        p4 = section_four_reference()
        assert fd_c_value(p4) == pytest.approx(c_value(p4), rel=1e-12)

    def test_c1_at_reference(self):
        p5 = section_five_reference()
        assert fd_c1_value(p5) == pytest.approx(c1_value(p5), rel=1e-12)

    def test_c1_at_small_R(self):
        # small R: the base point lies close to the removable singularity
        p = SectionFiveParams(
            MollifierShape.of(["-0.37", "0.2", "0.1"]),
            section_five_reference().q_shape, 0.45, 0.13, 1.19)
        assert fd_c1_value(p) == pytest.approx(c1_value(p), rel=1e-12)

    @pytest.mark.parametrize("R", [1e-6, 0.1, 0.746, 5.0])
    def test_c1_at_order_sixteen(self, R):
        p = replace(section_five_reference(), q_shape=ORDER16_TWIST, R=R)
        assert fd_c1_value(p) == pytest.approx(c1_value(p), rel=1e-9)

    def test_c1_at_order_twenty_two(self):
        # each torus weight's m! is rounded once from the integer: formed in
        # int64 it wrapped at 21!, and fd_c1_value read 1.0966 here against
        # 1.0471 with no error; now it is within 2.5e-11
        (_, nodes), W = oracle._torus(22)[:2]
        m = np.arange(23)
        scale = np.array([float(math.factorial(k)) for k in m]) / abs(nodes[0]) ** m / len(nodes)
        assert np.abs(W[:, 0]) == pytest.approx(scale, rel=1e-15)
        p = replace(section_five_reference(), q_shape=ORDER22_TWIST)
        assert abs(fd_c1_value(p) / mp_c1(p) - 1) <= 1e-10


class TestFrozenOracleValues:
    """fd_c_value and fd_c1_value to the bit: exact moments and weights,
    rounded once, make them independent of how the exact sums are formed,
    and each call reads one E grid, e^{-s} = e^{2R} e^{-n_j} e^{-n_k} where
    |s| >= 1, with the weights contracted before the moments enter."""

    # one criterion-6 draw (numpy default_rng(6)), its floats by repr
    DRAW = (SectionFourParams(MollifierShape.of([0.07632870294388638, -0.31345826037332314]),
                              MollifierShape.of([-0.2618655204092435, -0.2510064688242353]),
                              0.3362104623886426, 1.154, 1.7153635589366953),
            SectionFiveParams(MollifierShape.of([0.9748899803729332, 0.26551254521429213,
                                                 0.34864786100898715]),
                              TwistShape.of(-0.3400730892290833,
                                            [0.3598353223280446, -0.7540552502256199]),
                              0.3362104623886426, 0.1169020305173259, 1.174521074622356))

    def test_reference_point(self):
        assert repr(fd_c_value(section_four_reference())) == "1.2301085737954192"
        assert repr(fd_c1_value(section_five_reference())) == "1.047115819630335"

    def test_criterion_six_draw(self):
        p4, p5 = self.DRAW
        assert repr(fd_c_value(p4)) == "6.248115789063174"
        assert repr(fd_c1_value(p5)) == "3.8124126848650586"

    def test_order_sixteen_twist(self):
        # the N = 80 grid, the largest the oracle is checked on
        p = replace(section_five_reference(), q_shape=ORDER16_TWIST, R=5.0)
        assert repr(fd_c1_value(p)) == "66.10161809069214"
        assert repr(fd_c1_value(replace(p, R=100.0))) == "1.9553474032490363e+85"

    def test_largest_R(self):
        assert repr(fd_c_value(replace(section_four_reference(), R=300.0))) \
            == "2.0184048954967793e+260"
        assert repr(fd_c1_value(replace(section_five_reference(), R=300.0))) \
            == "2.9576131322259558e+259"

    @pytest.mark.parametrize("order, c, c1", [(1, "1.4558636583972966", "1.0681817616231173"),
                                              (6, "15.53400070705436", "2.522362986213443")])
    def test_grid_node_on_singular_line(self, order, c, c1):
        # R = (order!)^(1/order) puts the torus node (0, 0) of that order on a + b = 0
        R = math.factorial(order) ** (1.0 / order)
        assert repr(fd_c_value(replace(section_four_reference(), R=R))) == c
        assert repr(fd_c1_value(replace(section_five_reference(), R=R))) == c1

    def test_cancelling_cross_moments(self):
        p4 = replace(section_four_reference(), p1_shape=MollifierShape.of(CANCELLING[0]),
                     p2_shape=MollifierShape.of(CANCELLING[1]))
        assert repr(fd_c_value(p4)) == "7.159659632211355"

    def test_each_point_is_within_its_published_bound(self):
        # every point pinned above, against its 40-digit value
        p4, p5 = section_four_reference(), section_five_reference()
        points = [(fd_c_value, p4), (fd_c1_value, p5), (fd_c_value, self.DRAW[0]),
                  (fd_c1_value, self.DRAW[1]),
                  (fd_c1_value, replace(p5, q_shape=ORDER16_TWIST, R=5.0)),
                  (fd_c1_value, replace(p5, q_shape=ORDER16_TWIST, R=100.0)),
                  (fd_c_value, replace(p4, R=300.0)), (fd_c1_value, replace(p5, R=300.0)),
                  (fd_c_value, replace(p4, p1_shape=MollifierShape.of(CANCELLING[0]),
                                       p2_shape=MollifierShape.of(CANCELLING[1])))]
        for order in (1, 6):
            R = math.factorial(order) ** (1.0 / order)
            points += [(fd_c_value, replace(p4, R=R)), (fd_c1_value, replace(p5, R=R))]
        for fd, p in points:
            if fd is fd_c_value:
                quantity, exact = "c", mp_c(p)
            else:
                order = 2 * len(p.q_shape.sym_coeffs) + 2
                quantity = "c1 order <= 8" if order <= 8 else "c1 order 10-16"
                exact = mp_c1(p)
            bound = PUBLISHED_BOUNDS[quantity, p.R > 5]
            assert abs(fd(p) / exact - 1) <= bound, (quantity, p.R)

    @pytest.mark.parametrize("quantity, large_R", README_CELLS)
    def test_first_readme_draws_are_within_their_cell(self, quantity, large_R):
        # the first 8 draws of each cell of the README's table, at seed 9601
        fd, exact = (fd_c_value, mp_c) if quantity == "c" else (fd_c1_value, mp_c1)
        for p in readme_draws(quantity, large_R, 9601, count=8):
            assert abs(fd(p) / exact(p) - 1) <= README_CELLS[quantity, large_R], p


class TestCrosscheckReport:
    def test_reference_parameters_all_pass(self):
        report = crosscheck_report(section_four_reference(), section_five_reference())
        failing = [ch.name for ch in report.checks if not ch.passed]
        assert report.all_passed, failing
        assert len(report.checks) == 42
        assert max(ch.tolerance for ch in report.checks) <= 1e-9

    @staticmethod
    def failing_with(monkeypatch, target, name: str, perturbed) -> set[str]:
        """The checks that fail with target.name replaced by perturbed, given
        the original."""
        monkeypatch.setattr(target, name, perturbed(getattr(target, name)))
        p4, p5 = section_four_reference(), section_five_reference()
        return {ch.name for ch in crosscheck_report(p4, p5).checks if not ch.passed}

    @pytest.mark.parametrize("which, parts", [(0, ("AA", "AP", "PA")), (1, ("AP", "PA", "PP"))],
                             ids=["A", "theta P"])
    def test_node_row_checks_catch_a_perturbed_row(self, monkeypatch, which, parts):
        # the checks read the root factors [A u; theta P u] as a miss of c
        # or c1 forms them, NodeRows.factors of the shape's float row: a pair
        # of two shapes their products, a pair of one their x-Gram
        # (NodeRows.gram_of).  A u (row 0) or theta P u (row 1) off by 1e-10,
        # the other as formed, fails each sum it enters and nothing else
        def perturbed(factors):
            def formed(rows, u, delta=None):
                rows_of_u = factors(rows, u, delta)
                if delta is None:
                    rows_of_u[which] *= 1 + 1e-10
                return rows_of_u
            return formed

        p4, p5 = section_four_reference(), section_five_reference()
        names = [ch.name for ch in crosscheck_report(p4, p5).checks]
        assert sum(n.startswith("node rows[") for n in names) == 20
        assert self.failing_with(monkeypatch, NodeRows, "factors", perturbed) == {
            f"node rows[{pair}.{part}] vs exact moments"
            for pair in ("m11", "m21", "m12", "m22", "m55") for part in parts}

    def test_one_shape_pairs_read_the_x_gram(self, monkeypatch):
        # m11, m22 and m55 read the x-Gram of each shape's row as a miss of
        # c1 forms it, NodeRows.gram_of: its X00 off by 1e-10 fails their AA
        # checks and nothing else
        def perturbed(gram_of):
            def formed(rows, u, delta=None):
                g00, g01, g11 = gram_of(rows, u, delta)
                return (g00 * (1 + 1e-10) if delta is None else g00), g01, g11
            return formed

        assert self.failing_with(monkeypatch, NodeRows, "gram_of", perturbed) == {
            f"node rows[{pair}.AA] vs exact moments" for pair in ("m11", "m22", "m55")}

    def test_node_row_checks_catch_a_wrong_rho(self, monkeypatch):
        # rho = R theta on the exact side comes from the params' R, so node
        # rows whose rho is off by 1e-10 fail each sum A u enters
        failing = self.failing_with(monkeypatch, oracle, "node_rows", lambda node_rows: (
            lambda *args: (rows := node_rows(*args))._replace(rho=rows.rho * (1 + 1e-10))))
        assert failing == {f"node rows[{pair}.{part}] vs exact moments"
                           for pair in ("m11", "m21", "m12", "m22", "m55")
                           for part in ("AA", "AP", "PA")}

    def test_node_row_checks_catch_a_perturbed_value_row(self, monkeypatch):
        # P u formed off by 1e-10 fails every sum, A u's through rho P u
        def perturbed(basis_products):
            def products(n, u, twist=False):
                stacked = basis_products(n, u, twist)  # [D u; P u] of a mollifier
                if not twist:
                    stacked[1] *= 1 + 1e-10
                return stacked
            return products

        assert self.failing_with(monkeypatch, kernel, "basis_products", perturbed) == {
            f"node rows[{pair}.{part}] vs exact moments"
            for pair in ("m11", "m21", "m12", "m22", "m55") for part in ("AA", "AP", "PA", "PP")}

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_shape_keeps_only_its_rows(self, shared):
        # the row checks form what they read on the call, and the constants
        # are kept by their memos, so every shape the report reads holds its
        # two rows, exact and binary64, and nothing more, a mollifier read by
        # both c and c1 (shared) included; the binary64 row the checks form
        # is the object the report reads
        p4, p5 = section_four_reference(), section_five_reference()
        if shared:
            p5 = replace(p5, p_shape=p4.p1_shape)
        shapes = (p4.p1_shape, p4.p2_shape, p5.p_shape, p5.q_shape)

        def formed():  # what each shape holds beyond its fields
            return [set(vars(shape)) - set(shape.__dataclass_fields__) for shape in shapes]

        assert formed() == [set()] * 4
        assert crosscheck_report(p4, p5).all_passed
        rows = [vars(shape)["row"] for shape in shapes]
        full_report(p4, p5)
        assert all(vars(shape)["row"] is row for shape, row in zip(shapes, rows))
        assert formed() == [{"numerators", "row"}] * 4

    def test_cancelling_cross_moments_pass(self):
        # m12.dp and m21.pd nearly cancel here: against their own value the
        # quadrature's rounding read 7.8e-11, over the 1e-12 tolerance
        p4 = replace(section_four_reference(), p1_shape=MollifierShape.of(CANCELLING[0]),
                     p2_shape=MollifierShape.of(CANCELLING[1]))
        report = crosscheck_report(p4, section_five_reference())
        failing = [(ch.name, ch.rel_delta) for ch in report.checks if not ch.passed]
        assert report.all_passed and len(report.checks) == 42, failing

    def test_moment_checks_catch_a_perturbed_moment(self, monkeypatch):
        # the square moments m_pp of the diagonal pairs do not cancel, and
        # each off by 1e-10 still fails its check on the cancelling config
        p4 = replace(section_four_reference(), p1_shape=MollifierShape.of(CANCELLING[0]),
                     p2_shape=MollifierShape.of(CANCELLING[1]))

        def perturbed(a, b):
            mt = shape_moments(a, b)
            if a != b:
                return mt
            return MomentTable.of(mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp * (1 + Fraction(1, 10**10)))

        monkeypatch.setattr(oracle, "shape_moments", perturbed)
        failing = {ch.name for ch in crosscheck_report(p4, section_five_reference()).checks
                   if not ch.passed and ch.name.startswith("moment[")}
        assert failing == {f"moment[{pair}.pp] vs quadrature" for pair in ("m11", "m22", "m55")}

    def test_cauchy_checks_read_the_reports_own_tables(self, monkeypatch):
        # each pair's moments are formed once, 5 tables in all, and the two
        # Cauchy checks read fd_c_value and fd_c1_value bit for bit
        reference = section_four_reference(), section_five_reference()
        order16 = replace(reference[1], q_shape=ORDER16_TWIST, R=100.0)
        for p4, p5 in (reference, TestFrozenOracleValues.DRAW, (reference[0], order16)):
            calls = []

            def counting(a, b):
                calls.append((a, b))
                return shape_moments(a, b)

            monkeypatch.setattr(oracle, "shape_moments", counting)
            report = crosscheck_report(p4, p5)
            monkeypatch.undo()
            assert len(calls) <= 5
            numeric = {ch.name: ch.numeric for ch in report.checks}
            assert repr(numeric["c vs Cauchy integrals"]) == repr(fd_c_value(p4))
            assert repr(numeric["c1 vs Cauchy integrals"]) == repr(fd_c1_value(p5))

    def test_delta_zero_degeneracy_passes(self):
        p5 = section_five_reference()
        degenerate = SectionFiveParams(p5.p_shape, p5.q_shape, p5.theta, p5.R, 0.0)
        report = crosscheck_report(section_four_reference(), degenerate)
        assert report.all_passed

    @pytest.mark.parametrize("section", ["section4", "section5"])
    @pytest.mark.parametrize("R", [1e-6, 1e-3, 0.617, 1.0, 3.5, 5.0, 30.0, 100.0, 300.0])
    def test_passes_across_the_R_range(self, section, R):
        # the finite-difference oracle this route replaced failed c1 from
        # about R = 3.5 on (1.7e-3 at R = 5 against a 1e-4 tolerance)
        p4, p5 = section_four_reference(), section_five_reference()
        if section == "section4":
            report = crosscheck_report(replace(p4, R=R), p5)
        else:
            report = crosscheck_report(p4, replace(p5, R=R))
        failing = [(ch.name, ch.rel_delta) for ch in report.checks if not ch.passed]
        assert report.all_passed, failing

    @pytest.mark.parametrize("section, R", [("section5", 0.175), ("section5", 0.35),
                                            ("section4", 0.0025)])
    def test_stencil_on_singular_line_passes(self, section, R):
        # these R put nodes of the finite-difference stencils this route
        # replaced on a + b = 0; kept as inputs near the removable line
        p4, p5 = section_four_reference(), section_five_reference()
        if section == "section4":
            report = crosscheck_report(replace(p4, R=R), p5)
        else:
            report = crosscheck_report(p4, replace(p5, R=R))
        failing = [ch.name for ch in report.checks if not ch.passed]
        assert report.all_passed, failing

    @pytest.mark.parametrize("section, order", [("section4", 1), ("section5", 6)])
    def test_grid_node_on_singular_line_passes(self, section, order, monkeypatch):
        # R equal to the radius cauchy_derivatives picks for the order puts
        # the E grid's s = -2R + (n_0 + n_0) = 0 exactly on a + b = 0, where
        # the kernel takes its limit E(0) = 1
        R = math.factorial(order) ** (1.0 / order)
        sums = []

        def recording(s, decay):
            sums.append(s)
            return exp_ratio(s, decay)

        exp_ratio = oracle._exp_ratio
        monkeypatch.setattr(oracle, "_exp_ratio", recording)
        p4, p5 = section_four_reference(), section_five_reference()
        if section == "section4":
            report = crosscheck_report(replace(p4, R=R), p5)
        else:
            report = crosscheck_report(p4, replace(p5, R=R))
        failing = [ch.name for ch in report.checks if not ch.passed]
        assert report.all_passed, failing
        assert any(np.any(s == 0) for s in sums)

    def test_tiny_R_rejected(self):
        p4, p5 = section_four_reference(), section_five_reference()
        for R in (1e-7, 1e-10):
            with pytest.raises(ValueError):
                crosscheck_report(replace(p4, R=R), p5)
            with pytest.raises(ValueError):
                crosscheck_report(p4, replace(p5, R=R))

    def test_sensitivity_to_corruption(self):
        # a perturbed comparison value must register as a failure
        report = crosscheck_report(section_four_reference(), section_five_reference())
        check = report.checks[-1]
        corrupted = type(check)(check.name, check.exact * (1 + 1e-3),
                                check.numeric, abs(check.exact * (1 + 1e-3) - check.numeric)
                                / abs(check.numeric), check.tolerance)
        assert not corrupted.passed
