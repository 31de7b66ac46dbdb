"""The float evaluation core against its references.

The reference route keeps the moments exact: exact rational moments(),
rounded once into the tests' closed-form kernel derivatives, and the
extraction sums that define c and c1.  The core evaluates the same
quantities as sums of squares over cached node rows.  The closed-form
derivatives themselves are checked against an mpmath evaluation of the
definition of the kernel, which shares no code with them, and the core
against the same derivatives at 40 digits.
"""

import math
import os
from dataclasses import replace
from fractions import Fraction
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp

import levbounds
from levbounds import kernel, oracle
from levbounds.kernel import MIN_BASE_R, node_rows
from levbounds.optimizer import SearchSpec, _SOLVES
from levbounds.polyalg import (MollifierShape, MomentTable, Poly, TwistShape, expand_mollifier,
                               mollifier_basis, moments, poly_derivative, poly_eval,
                               twist_basis)
from levbounds.proportions import (SectionFiveParams, SectionFourParams, c1_core,
                                   c1_value, c_core, c_value, kappa_bound,
                                   nu_bound)
from levbounds.reference import section_five_reference, section_four_reference

from kernel_reference import (_expm1_ratio_derivatives, _mp_derivatives, add_naive,
                              anchor_matrix, derivative_naive, eval_naive, expand_twist,
                              kernel_derivative_basis, kernel_matrix, mp_c, mp_c1,
                              scale_naive, twist_operator_coefficients)
from search_helpers import state_at

AGREEMENT = 1e-13


def reference_c(p: SectionFourParams) -> float:
    """c by the exact route: exact moments, kernel derivatives, extraction sums."""
    poly1 = expand_mollifier(p.p1_shape)
    poly2 = expand_mollifier(p.p2_shape)

    def kern(pa, pb):
        return kernel_matrix(moments(pa, pb), p.theta, p.R, 1)

    inv_r = 1.0 / p.r
    return (kern(poly1, poly1)[0, 0]
            + inv_r * kern(poly2, poly1)[1, 0]
            + inv_r * kern(poly1, poly2)[0, 1]
            + inv_r * inv_r * kern(poly2, poly2)[1, 1])


def reference_c1(p: SectionFiveParams) -> float:
    """c1 by the exact route: the twist operator applied as extraction sums."""
    poly = expand_mollifier(p.p_shape)
    q_monomial = expand_twist(p.q_shape).float_coeffs()
    h = kernel_matrix(moments(poly, poly), p.theta, p.R, len(q_monomial))
    u = twist_operator_coefficients(q_monomial, p.delta)
    return sum(uj * ul * h[j, l] for j, uj in enumerate(u) for l, ul in enumerate(u))


def criterion_six_draws():
    """Acceptance criterion 6's 100 seeded draws, in its order."""
    rng = np.random.default_rng(20260810)
    for _ in range(100):
        s1 = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
        s2 = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
        sp = MollifierShape.of(list(rng.uniform(-1, 1, 3)))
        q = TwistShape.of(float(rng.uniform(-1, 1)), list(rng.uniform(-1, 1, 2)))
        theta = float(rng.uniform(0.3, 1.0))
        R4 = float(rng.uniform(0.1, 2.0))
        R5 = float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.0, 1.2))
        yield (SectionFourParams(s1, s2, theta, 1.154, R4),
               SectionFiveParams(sp, q, theta, R5, delta))


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def search_specs():
    p4 = section_four_reference()
    p5 = section_five_reference()
    nu = SearchSpec(target="minimize_nu", shape_degrees=(2, 2),
                    scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.2)}, theta=0.9,
                    initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
                    budget=10)
    kappa = SearchSpec(target="maximize_kappa", shape_degrees=(3, 2),
                       scalar_bounds={"R": (0.4, 1.2), "delta": (0.4, 1.2)},
                       theta=0.9,
                       initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369,
                                      -4.635, p5.R, p5.delta),
                       budget=10)
    return nu, kappa


class TestReferenceAgreement:
    def test_criterion_six_draws_agree_with_exact_route(self):
        worst_c = worst_c1 = 0.0
        for p4, p5 in criterion_six_draws():
            worst_c = max(worst_c, rel(c_value(p4), reference_c(p4)))
            worst_c1 = max(worst_c1, rel(c1_value(p5), reference_c1(p5)))
        assert worst_c <= AGREEMENT, worst_c
        assert worst_c1 <= AGREEMENT, worst_c1

    def test_reference_parameters(self):
        p4, p5 = section_four_reference(), section_five_reference()
        assert rel(c_value(p4), reference_c(p4)) <= AGREEMENT
        assert rel(c1_value(p5), reference_c1(p5)) <= AGREEMENT

    def test_objective_equals_params_route_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for spec in search_specs():
            solver = _SOLVES[spec.target](spec)
            x0 = np.array(spec.initial_point)
            for _ in range(5):
                v = x0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(x0)))
                params = spec.params_from_vector(v)
                if spec.target == "minimize_nu":
                    expected = nu_bound(c_value(params), params.R)
                else:
                    expected = -kappa_bound(c1_value(params), params.R)
                assert solver.evaluate(state_at(solver, v))[0] == expected

    def test_core_reads_any_float_layout(self):
        # slices of a vector and fresh lists give the same bits
        v = np.array([9.0, -0.158, 9.0, 0.25, 9.0, 0.492, 9.0, 0.075])
        assert (c_core(v[1::2][:2], v[1::2][2:], 1.0, 1.154, 0.617)
                == c_core([-0.158, 0.25], [0.492, 0.075], 1.0, 1.154, 0.617))


class TestKernelDerivativeBasis:
    @pytest.mark.parametrize("order", range(8))
    def test_matches_mpmath_anchor(self, order):
        rng = np.random.default_rng(100 + order)
        pa = expand_mollifier(MollifierShape.of(list(rng.uniform(-1, 1, 2))))
        pb = expand_mollifier(MollifierShape.of(list(rng.uniform(-1, 1, 3))))
        mt = moments(pa, pb)
        theta = float(rng.uniform(0.3, 1.0))
        R = float(rng.uniform(0.1, 2.0))
        assert kernel_matrix(mt, theta, R, order) == pytest.approx(
            anchor_matrix(mt, theta, R, order), rel=1e-13, abs=1e-14)

    def test_unit_moment_kernels(self):
        # each basis matrix is the kernel of a one-hot moment table; R = 0.05
        # puts the base point close to the removable singularity
        for theta, R in ((0.7, 0.9), (0.45, 0.05)):
            basis = kernel_derivative_basis(theta, R, 3)
            for k in range(4):
                unit = MomentTable(tuple(int(i == k) for i in range(4)))
                assert basis[k] == pytest.approx(anchor_matrix(unit, theta, R, 3),
                                                 rel=1e-13, abs=1e-14)

    def test_series_derivatives_against_integral_form(self):
        # E^(d)(s) = (-1)^d integral_0^1 t^d e^{-s t} dt
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(40)
        t = 0.5 * (x + 1.0)
        for s0 in (-4.0, -1.234, -1e-3, 0.0, 0.8):
            derivs = _expm1_ratio_derivatives(s0, 12)
            for d in range(13):
                integral = (-1) ** d * 0.5 * float(np.dot(w, t ** d * np.exp(-s0 * t)))
                assert derivs[d] == pytest.approx(integral, rel=1e-13)


class TestCachedData:
    def test_x_rows_reproduce_exact_moments(self):
        # the m + 3 x-nodes integrate every product of the basis exactly
        rng = np.random.default_rng(7)
        for m in (0, 1, 3):
            w, (D, P) = kernel._gauss(m + 3)[1], kernel._rows(m + 3, m, False)
            assert P.shape == D.shape == (m + 3, m + 1)
            for _ in range(5):
                c1, c2 = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
                u1, u2 = np.append(1.0, c1), np.append(1.0, c2)
                mt = moments(expand_mollifier(MollifierShape.of(list(c1))),
                             expand_mollifier(MollifierShape.of(list(c2))))
                for (a, b), exact in zip(((D, D), (D, P), (P, D), (P, P)),
                                         (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp)):
                    assert w @ ((a @ u1) * (b @ u2)) == pytest.approx(
                        float(exact), rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("n, m, twist", [(4, 1, False), (6, 3, False), (14, 2, True),
                                             (87, 2, True), (30, 7, True)])
    def test_rows_are_exact_values_rounded_once(self, n, m, twist):
        # every entry is the basis polynomial's exact value at the binary64
        # node, rounded once; here summed Fraction by Fraction.  The twist's
        # rows stack Psi then Psi', the mollifier's D = P' then P
        if twist:  # Psi_j = (1 - 2t) b_j - [j = 0]
            basis = [add_naive(add_naive(b.coeffs, scale_naive((0,) + b.coeffs, -2)),
                               (-1,) if j == 0 else ())
                     for j, b in enumerate(twist_basis(m))]
        else:
            basis = [b.coeffs for b in mollifier_basis(m)]
        x = [Fraction(float(t)) for t in kernel._gauss(n)[0]]
        P, D = kernel._rows(n, m, twist)[::1 if twist else -1]
        assert P.tolist() == [[float(eval_naive(b, t)) for b in basis] for t in x]
        assert D.tolist() == [[float(eval_naive(derivative_naive(b), t)) for b in basis]
                              for t in x]

    def test_mollifier_basis_is_affine_expansion(self):
        basis = mollifier_basis(2)
        shape = MollifierShape.of(["-0.158", "0.25"])
        assert (basis[0] + basis[1].scale(shape.shape_coeffs[0])
                + basis[2].scale(shape.shape_coeffs[1])) == expand_mollifier(shape)

    def test_twist_rows_expand_twist(self):
        # 1 + Psi v and Psi' v, v = delta w for the row w = (1, q) the
        # shape keeps, are U = (1 - delta) + delta (1 - 2t) Q(t) and U' at
        # the t-nodes, U exact and rounded once
        for q in (TwistShape.of("-0.673", ["0.369", "-4.635"]), TwistShape.of("0.5"),
                  TwistShape.of("0", ["1", "0", "-2"])):
            k, delta = len(q.sym_coeffs), Fraction(3, 4)
            rows = node_rows(1.0, 0.746, 1, k)
            psi, dpsi = kernel.basis_products(len(rows.t), float(delta) * kernel.shape_row(q),
                                              True)
            c = expand_twist(q).coeffs + (0,)
            U = Poly.from_coeffs([delta * (c[j] - 2 * (c[j - 1] if j else 0))
                                  + (1 - delta) * (j == 0) for j in range(len(c))])
            for got, poly in ((1.0 + psi, U), (dpsi, poly_derivative(U))):
                exact = [float(poly_eval(poly, Fraction(float(t)))) for t in rows.t]
                scale = max(map(abs, exact))
                assert got == pytest.approx(exact, rel=1e-15, abs=1e-15 * scale)

    def test_tables_are_read_only(self):
        rows = node_rows(1.0, 0.746, 3, 3)
        for table in (*kernel._rows(6, 3, False), *kernel._rows(len(rows.t), 3, True),
                      *kernel._gauss(len(rows.t)), *oracle._torus(6),
                      *oracle._legendre(5)):
            assert not table.flags.writeable
        for basis in (mollifier_basis(3), twist_basis(3)):
            assert isinstance(basis, tuple) and all(isinstance(b, Poly) for b in basis)
            with pytest.raises(AttributeError):
                basis[0].coeffs = ()

    def test_nothing_built_at_import(self):
        code = ("import levbounds\n"
                "from levbounds import kernel, oracle, polyalg, proportions\n"
                "for f in (kernel._gauss, kernel._rows, kernel._node_rows, "
                "proportions._c_memo, proportions._c1_memo, polyalg.mollifier_basis, polyalg.twist_basis, polyalg._integral_weights, "
                "polyalg.basis_moments, polyalg._basis_self_moments, oracle._torus, oracle._legendre, "
                "oracle._twist_columns):\n"
                "    assert f.cache_info().currsize == 0, f\n")
        src = os.path.dirname(os.path.dirname(levbounds.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


# optima that optimize returned at delta = 1 (theta = 1, R in [0.3, 1.5],
# zero-padded criterion-8 starts) on the earlier Leibniz-table core, whose
# c1 there was 3.8e-10 and 5.0e-7 low: (p_shape, q_linear, q_sym, R)
DELTA_ONE_OPTIMA = {
    (4, 3): (["-0.7700846284312355", "-0.8998779259026605", "0.08352587023719855",
              "-0.84943959775302"], "-0.2759379347878414",
             ["-9.86975322794689", "126.40873488930389", "-461.0478028086345"],
             1.0513435280539989),
    (5, 4): (["-0.7780118267208841", "-0.7469853362726127", "-0.5064414481627862",
              "0.04001035936887132", "-0.43676197084130725"], "-0.5142219945371983",
             ["11.867337246129816", "-295.5867249259549", "2318.8012932246775",
              "-5779.928707940161"], 1.050827767977905),
}


class TestSquareFormAccuracy:
    """c and c1 against the kernel's derivatives at 40 digits, with exact
    moments and exact operator weights (kernel_reference.mp_c, mp_c1)."""

    @pytest.mark.parametrize("degrees", sorted(DELTA_ONE_OPTIMA))
    def test_c1_at_the_delta_one_optima(self, degrees):
        p, q_linear, q_sym, R = DELTA_ONE_OPTIMA[degrees]
        params = SectionFiveParams(MollifierShape.of(p), TwistShape.of(q_linear, q_sym),
                                   1.0, R, 1.0)
        assert rel(c1_value(params), mp_c1(params)) <= 1e-11

    @pytest.mark.parametrize("R", [MIN_BASE_R, 0.7, 5.0, 30.0, 100.0, 300.0])
    def test_reference_shapes_across_the_R_range(self, R):
        # the t-node count grows with R; too few nodes at R = 300 miss by
        # 2e-4 (40 nodes), and numpy's unrefined nodes by 3e-13 (80)
        p4 = replace(section_four_reference(), R=R)
        p5 = replace(section_five_reference(), R=R)
        assert rel(c_value(p4), mp_c(p4)) <= 1e-12
        assert rel(c1_value(p5), mp_c1(p5)) <= 1e-12

    @pytest.mark.parametrize("n", [80, 100, 120, 150])
    def test_t_nodes_reach_the_rounding_floor_of_the_weight(self, n):
        # under e^{2Rt} a weight's relative error is the sum's: at R = 300
        # numpy's leggauss weights miss by 3e-13 (80 and 100 nodes) to 2e-12 (120)
        t, w = kernel._gauss(n)
        with mp.workdps(30):
            exact = float(mp.expm1(600) / 600)
        assert rel(float(w @ np.exp(600.0 * t)), exact) <= 1e-13

    def test_anchor_derivatives_match_the_definition(self):
        # the 40-digit Leibniz form against mpmath's differentiation of the
        # division form of h
        pa = expand_mollifier(MollifierShape.of(["-0.482", "-0.392", "-0.262"]))
        mt = moments(pa, pa)
        for theta, R in ((1.0, 0.746), (0.6, 3.0)):
            with mp.workdps(40):
                leibniz = np.array(_mp_derivatives(mt, theta, R, 3), dtype=float)
            assert leibniz == pytest.approx(anchor_matrix(mt, theta, R, 3),
                                            rel=1e-15, abs=1e-15)


BAD_SCALARS = [
    dict(theta=0.0), dict(theta=1.5), dict(theta=math.nan),
    dict(r=0.0), dict(r=-1.0), dict(r=math.nan), dict(r=math.inf),
    dict(R=0.0), dict(R=-0.5), dict(R=math.nan),
    dict(delta=math.nan), dict(delta=math.inf), dict(delta=-math.inf),
]


def delta_one_optimum(degrees) -> SectionFiveParams:
    p, q_linear, q_sym, R = DELTA_ONE_OPTIMA[degrees]
    return SectionFiveParams(MollifierShape.of(p), TwistShape.of(q_linear, q_sym), 1.0, R, 1.0)


class TestSelfcheckAtTheDeltaOneOptima:
    """selfcheck at the delta = 1 optima, where q reaches 5.8e3: c1 is
    within 4e-16 of mp_c1 there.  The Cauchy route contracts the operator
    weights on its grid before it rounds, and reads 2e-13 (4,3) and 3e-11
    (5,4) from mp_c1 (forming D first and then u^T D u cancelled, to 1.8e-9
    and 2.1e-7, against the check's 1e-9)."""

    @pytest.mark.parametrize("degrees", sorted(DELTA_ONE_OPTIMA))
    def test_every_other_check_passes(self, degrees):
        report = oracle.crosscheck_report(section_four_reference(), delta_one_optimum(degrees))
        assert len(report.checks) == 42
        failing = [(ch.name, ch.rel_delta) for ch in report.checks if not ch.passed]
        assert failing == []

    def test_c1_vs_cauchy_integrals_passes(self):
        for degrees in sorted(DELTA_ONE_OPTIMA):
            report = oracle.crosscheck_report(section_four_reference(),
                                              delta_one_optimum(degrees))
            check = next(ch for ch in report.checks if ch.name == "c1 vs Cauchy integrals")
            assert check.passed, (degrees, check.rel_delta)


class TestValidation:
    @pytest.mark.parametrize("bad", BAD_SCALARS, ids=lambda b: repr(b))
    def test_params_and_core_reject_alike(self, bad):
        shape = MollifierShape.of(["0.1"])
        q = TwistShape.of("-0.5", ["0.3"])
        s4 = dict(theta=1.0, r=1.0, R=0.6)
        s5 = dict(theta=1.0, R=0.6, delta=0.7)
        if set(bad) <= set(s4):
            s4.update(bad)
            with pytest.raises(ValueError):
                SectionFourParams(shape, shape, s4["theta"], s4["r"], s4["R"])
            with pytest.raises(ValueError):
                c_core([0.1], [0.1], s4["theta"], s4["r"], s4["R"])
        if set(bad) <= set(s5):
            s5.update(bad)
            with pytest.raises(ValueError):
                SectionFiveParams(shape, q, s5["theta"], s5["R"], s5["delta"])
            with pytest.raises(ValueError):
                c1_core([0.1], [-0.5, 0.3], s5["theta"], s5["R"], s5["delta"])
        if set(bad) == {"R"}:  # the bound coefficients name it too
            for bound in (nu_bound, kappa_bound):
                with pytest.raises(ValueError, match=rf"^R must be positive, got {bad['R']!r}$"):
                    bound(1.2, bad["R"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shape_rejected_alike(self, bad):
        with pytest.raises(ValueError):
            MollifierShape.of([bad])
        with pytest.raises(ValueError):
            c_core([0.1, bad], [0.1], 1.0, 1.0, 0.6)
        with pytest.raises(ValueError):
            c1_core([0.1], [-0.5, bad], 1.0, 0.6, 0.7)

    def test_coefficient_outside_binary64_named(self):
        # it once escaped c_value as a bare OverflowError ("integer division
        # result too large for a float"); the shape's float row names it
        huge = Fraction(10) ** 400
        p4, p5 = section_four_reference(), section_five_reference()
        cases = (
            (c_value, replace(p4, p2_shape=MollifierShape.of(["0.1", -huge])),
             r"MollifierShape\.shape_coeffs\[1\] = -1\.000000e\+400"),
            (c1_value, replace(p5, q_shape=TwistShape.of(huge, ["0.3"])),
             r"TwistShape\.linear_coeff = 1\.000000e\+400"),
            (c1_value, replace(p5, q_shape=TwistShape.of("-0.5", ["0.3", "0", huge / 3])),
             r"TwistShape\.sym_coeffs\[2\] = 3\.333333e\+399"),
        )
        for value, params, named in cases:
            with pytest.raises(ValueError, match=rf"^{named} is outside binary64$"):
                value(params)

    def test_twist_without_entries_rejected_by_name(self):
        # it once failed inside twist_matrix(-1) with an IndexError
        with pytest.raises(ValueError, match=r"^c1_core: the twist needs at least "
                                             r"q_linear, got no entries$"):
            c1_core([0.1], [], 1.0, 0.6, 0.7)

    def test_tiny_R_rejected_by_evaluation(self):
        # R below MIN_BASE_R is outside the scalar domain: the params refuse
        # it when built, and the core the search evaluates through refuses it
        shape = MollifierShape.of(["0.1"])
        with pytest.raises(ValueError, match="R must be >= 1e-06"):
            SectionFourParams(shape, shape, 1.0, 1.0, 1e-7)
        with pytest.raises(ValueError, match="R must be >= 1e-06"):
            SectionFiveParams(shape, TwistShape.of("-0.5"), 1.0, 1e-7, 0.7)
        with pytest.raises(ValueError, match="R must be >= 1e-06"):
            c_core([0.1], [0.1], 1.0, 1.0, 1e-7)
        with pytest.raises(ValueError, match="R must be >= 1e-06"):
            c1_core([0.1], [-0.5], 1.0, 1e-7, 0.7)

    @pytest.mark.parametrize("R", [400.0, math.inf])
    def test_huge_R_rejected_by_evaluation(self, R):
        # past R = 300 the oracle's Cauchy grid overflows binary64 (from
        # about 350), and the t-node rule is tested up to 300: R is refused
        # by name before any node row is built
        shape = MollifierShape.of(["0.1"])
        message = rf"^R must be <= 300\.0, got {R}$"
        with pytest.raises(ValueError, match=message):
            SectionFourParams(shape, shape, 1.0, 1.0, R)
        with pytest.raises(ValueError, match=message):
            SectionFiveParams(shape, TwistShape.of("-0.5"), 1.0, R, 0.7)
        with pytest.raises(ValueError, match=message):
            c_core([0.1], [0.1], 1.0, 1.0, R)
        with pytest.raises(ValueError, match=message):
            c1_core([0.1], [-0.5], 1.0, R, 0.7)
