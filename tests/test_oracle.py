"""Numeric verification path: quadrature, finite differences, crosschecks."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from levbounds import oracle
from levbounds.kernel import kernel_derivative_basis, moments
from levbounds.oracle import (C1_STENCIL, C_STENCIL,
                              crosscheck_report, fd_c1_value, fd_c_value,
                              fd_derivatives, kernel_numeric, quad_integrate01,
                              stencil_weights)
from levbounds.polyalg import MollifierShape, Poly, X, expand_mollifier
from levbounds.proportions import SectionFiveParams, c1_value, c_value
from levbounds.reference import section_five_reference, section_four_reference

from kernel_reference import kernel_matrix


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


class TestFdPartial:
    """Single partial derivatives read off the fd_derivatives matrix."""

    def test_mixed_of_product(self):
        f = lambda a, b: a * b
        assert fd_derivatives(f, (0.0, 0.0), 1, *C_STENCIL)[1, 1] == pytest.approx(
            1.0, abs=1e-8)

    def test_first_of_exponential(self):
        f = lambda a, b: math.exp(-a - b)
        assert fd_derivatives(f, (0.0, 0.0), 1, *C_STENCIL)[1, 0] == pytest.approx(
            -1.0, abs=1e-8)

    def test_kernel_mixed_matches_jet(self):
        p4 = section_four_reference()
        p1 = expand_mollifier(p4.p1_shape)
        p2 = expand_mollifier(p4.p2_shape)
        mt = moments(p1, p2)
        floats = [float(mt.m_dd), float(mt.m_dp), float(mt.m_pd), float(mt.m_pp)]
        h = np.tensordot(floats, kernel_derivative_basis(1.0, 0.617, 1), 1)
        f = lambda a, b: kernel_numeric(mt, 1.0, a, b)
        fd = fd_derivatives(f, (-0.617, -0.617), 1, *C_STENCIL)[1, 1]
        assert h[1, 1] == pytest.approx(fd, rel=1e-6)

    def test_convergence_order(self):
        # observed order within +-0.5 of the compact stencil's: its width
        # minus m, rounded up to even, on a smooth function; the d^m stencil
        # is the widest row of stencil_weights(m, extra), so its width is
        # the table's
        f = lambda a, b: math.exp(a + 2 * b) * math.sin(a - b)
        at = (0.3, 0.1)
        exact = {
            (1, 0): math.exp(0.5) * (math.sin(0.2) + math.cos(0.2)),
            (0, 1): math.exp(0.5) * (2 * math.sin(0.2) - math.cos(0.2)),
        }
        for (m, n), truth in exact.items():
            for extra in (0, 2, 4):
                nominal = stencil_weights(m + n, extra).shape[1] - (m + n)
                nominal += nominal % 2
                errs = []
                for h in (1e-1, 5e-2):
                    est = fd_derivatives(f, at, 1, h, extra)[m, n]
                    errs.append(abs(est - truth))
                observed = math.log2(errs[0] / errs[1])
                assert abs(observed - nominal) <= 0.5


def exact_stencil(m, half):
    """Exact weights of d^m at 0 on the nodes -half .. half: m! times the
    x^m coefficient of each Lagrange basis polynomial, in integers."""
    nodes = range(-half, half + 1)
    weights = []
    for i in nodes:
        poly = [1]  # prod_{j != i} (x - j)
        for j in nodes:
            if j != i:
                poly = [lo - j * hi for lo, hi in zip([0] + poly, poly + [0])]
        denom = math.prod(i - j for j in nodes if j != i)
        weights.append(Fraction(math.factorial(m) * poly[m], denom))
    return weights


class TestStencilWeights:
    def test_table_matches_exact_weights(self):
        # row m is the compact symmetric (m + extra + 1)-point stencil, one
        # point wider when that count is even, centred in the widest row
        for extra in (0, 2, 4, 6, 8):
            exact = {m: exact_stencil(m, (m + extra + 1) // 2) for m in range(13)}
            for m, w in exact.items():  # the reference differentiates x^k exactly
                nodes = range(-(len(w) // 2), len(w) // 2 + 1)
                for k in range(len(w)):
                    assert sum(wi * i ** k for wi, i in zip(w, nodes)) == (
                        math.factorial(m) if k == m else 0)
            for order in range(13):
                table = stencil_weights(order, extra)
                half = (order + extra + 1) // 2
                assert table.shape == (order + 1, 2 * half + 1)
                assert not table.flags.writeable
                for m in range(order + 1):
                    pad = half - (len(exact[m]) - 1) // 2
                    want = [Fraction(0)] * pad + exact[m] + [Fraction(0)] * pad
                    for got, w in zip(table[m], want):
                        assert abs(Fraction(got) - w) <= Fraction(1e-15) * abs(w)


class TestHighOrderFd:
    def test_twelfth_order_mixed_of_known_function(self):
        # f = exp(-a-b): every mixed derivative is (+-1)^(m+n) exp(-a-b)
        f = lambda a, b: math.exp(-a - b)
        at = (-0.7, -0.7)
        truth = math.exp(1.4)
        est = fd_derivatives(f, at, 6, 0.3, 6)[6, 6]
        assert est == pytest.approx(truth, rel=1e-5)

    def test_polynomial_exactness(self):
        # degree-(3,2) polynomial: compact stencils reproduce derivatives
        f = lambda a, b: (a ** 3 + 2 * a) * (b ** 2 - b)
        assert fd_derivatives(f, (0.4, -0.2), 3, 0.2, 6)[3, 2] == pytest.approx(
            12.0, rel=1e-9)
        assert fd_derivatives(f, (0.0, 0.0), 1, 0.2, 6)[1, 1] == pytest.approx(
            -2.0, rel=1e-9)
        # every entry, the zero-padded lower-order rows included:
        # d_a^m (a^3 + 2a) times d_b^n (b^2 - b)
        a, b = 0.4, -0.2
        da = [a ** 3 + 2 * a, 3 * a ** 2 + 2, 6 * a, 6.0]
        db = [b ** 2 - b, 2 * b - 1, 2.0, 0.0]
        assert fd_derivatives(f, (a, b), 3, 0.2, 6) == pytest.approx(
            np.outer(da, db), rel=1e-9, abs=1e-9)


class TestFdDerivatives:
    def test_reference_tables_match_closed_form(self):
        # second derivatives in each variable take the wide c1 stencil; the
        # 5e-3 one is tuned for first derivatives
        p4, p5 = section_four_reference(), section_five_reference()
        p1, p2 = expand_mollifier(p4.p1_shape), expand_mollifier(p4.p2_shape)
        p = expand_mollifier(p5.p_shape)
        for mt, params in ((moments(p1, p1), p4), (moments(p1, p2), p4),
                           (moments(p2, p2), p4), (moments(p, p), p5)):
            f = lambda a, b: kernel_numeric(mt, params.theta, a, b)
            D = fd_derivatives(f, (-params.R, -params.R), 2, *C1_STENCIL)
            assert D == pytest.approx(
                kernel_matrix(mt, params.theta, params.R, 2), rel=1e-6)

    def test_c1_evaluates_one_grid(self, monkeypatch):
        # one 15 x 15 grid for derivatives up to order 6 in each variable;
        # a stencil per (j, l) pair took 7569 kernel calls
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel_numeric(*args)

        monkeypatch.setattr(oracle, "kernel_numeric", counting)
        fd_c1_value(section_five_reference())
        assert len(calls) <= 15 ** 2


class TestOracleRecomputation:
    def test_c_at_reference(self):
        p4 = section_four_reference()
        assert fd_c_value(p4) == pytest.approx(c_value(p4), rel=1e-5)

    def test_c1_at_reference(self):
        p5 = section_five_reference()
        assert fd_c1_value(p5) == pytest.approx(c1_value(p5), rel=1e-4)

    def test_c1_at_small_R(self):
        # small R: the base point lies close to the removable singularity
        p = SectionFiveParams(
            MollifierShape.of(["-0.37", "0.2", "0.1"]),
            section_five_reference().q_shape, 0.45, 0.13, 1.19)
        assert fd_c1_value(p) == pytest.approx(c1_value(p), rel=1e-4)


class TestCrosscheckReport:
    def test_reference_parameters_all_pass(self):
        report = crosscheck_report(section_four_reference(), section_five_reference())
        failing = [ch.name for ch in report.checks if not ch.passed]
        assert report.all_passed, failing
        assert len(report.checks) > 20

    def test_delta_zero_degeneracy_passes(self):
        p5 = section_five_reference()
        degenerate = SectionFiveParams(p5.p_shape, p5.q_shape, p5.theta, p5.R, 0.0)
        report = crosscheck_report(section_four_reference(), degenerate)
        assert report.all_passed

    @pytest.mark.parametrize("section, R", [("section5", 0.175), ("section5", 0.35),
                                            ("section4", 0.0025)])
    def test_stencil_on_singular_line_passes(self, section, R):
        # 2R a multiple of the step (0.35 for c1, 5e-3 for c) puts stencil
        # points on a + b = 0
        p4, p5 = section_four_reference(), section_five_reference()
        if section == "section4":
            report = crosscheck_report(replace(p4, R=R), p5)
        else:
            report = crosscheck_report(p4, replace(p5, R=R))
        failing = [ch.name for ch in report.checks if not ch.passed]
        assert report.all_passed, failing

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
