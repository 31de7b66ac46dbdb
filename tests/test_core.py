"""The float evaluation core against its references.

The reference route keeps the moments exact: exact rational moments(),
rounded once into the closed-form kernel derivatives, and the extraction
sums that define c and c1.  The core evaluates the same quantities from
cached Gram matrices.  The closed-form derivatives themselves are checked
against an mpmath evaluation of the definition of the kernel, which shares
no code with them.
"""

import math
import os
from fractions import Fraction
import subprocess
import sys

import numpy as np
import pytest

import levbounds
from levbounds.kernel import (MomentTable, kernel_derivative_basis, moment_grams,
                              moments, _expm1_ratio_derivatives)
from levbounds.optimizer import SearchSpec, _SOLVES
from levbounds.polyalg import (MollifierShape, Poly, TwistShape, expand_mollifier,
                               expand_twist, mollifier_basis, twist_basis,
                               twist_matrix)
from levbounds.proportions import (SectionFiveParams, SectionFourParams, c1_core,
                                   c1_value, c_core, c_value, kappa_bound,
                                   nu_bound, twist_operator_coefficients)
from levbounds.reference import section_five_reference, section_four_reference

from kernel_reference import anchor_matrix, kernel_matrix

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
            objective = _SOLVES[spec.target](spec).objective
            x0 = np.array(spec.initial_point)
            for _ in range(5):
                v = x0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(x0)))
                params = spec.params_from_vector(v)
                if spec.target == "minimize_nu":
                    expected = nu_bound(c_value(params), params.R)
                else:
                    expected = -kappa_bound(c1_value(params), params.R)
                assert objective(v) == expected

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
                unit = MomentTable(*[Fraction(int(i == k)) for i in range(4)])
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
    def test_grams_reproduce_exact_moments(self):
        rng = np.random.default_rng(7)
        for m in (0, 1, 3):
            grams = moment_grams(m)
            assert grams.shape == (4, m + 1, m + 1) and not grams.flags.writeable
            for _ in range(5):
                c1, c2 = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
                u1, u2 = np.append(1.0, c1), np.append(1.0, c2)
                mt = moments(expand_mollifier(MollifierShape.of(list(c1))),
                             expand_mollifier(MollifierShape.of(list(c2))))
                for k, exact in enumerate((mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp)):
                    assert u1 @ grams[k] @ u2 == pytest.approx(float(exact),
                                                               rel=1e-13, abs=1e-14)

    def test_mollifier_basis_is_affine_expansion(self):
        basis = mollifier_basis(2)
        shape = MollifierShape.of(["-0.158", "0.25"])
        assert (basis[0] + basis[1].scale(shape.shape_coeffs[0])
                + basis[2].scale(shape.shape_coeffs[1])) == expand_mollifier(shape)

    def test_twist_matrix_expands_twist(self):
        for q in (TwistShape.of("-0.673", ["0.369", "-4.635"]), TwistShape.of("0.5"),
                  TwistShape.of("0", ["1", "0", "-2"])):
            coeffs = [float(q.linear_coeff)] + [float(c) for c in q.sym_coeffs]
            got = twist_matrix(len(q.sym_coeffs)) @ np.append(1.0, coeffs)
            exact = expand_twist(q).float_coeffs()
            exact += [0.0] * (len(got) - len(exact))
            assert got == pytest.approx(exact, rel=1e-15, abs=1e-15)
            assert not twist_matrix(len(q.sym_coeffs)).flags.writeable

    def test_tables_are_read_only(self):
        for table in (moment_grams(3), twist_matrix(3)):
            assert not table.flags.writeable
        for basis in (mollifier_basis(3), twist_basis(3)):
            assert isinstance(basis, tuple) and all(isinstance(b, Poly) for b in basis)
            with pytest.raises(AttributeError):
                basis[0].coeffs = ()

    def test_nothing_built_at_import(self):
        code = ("import levbounds\n"
                "from levbounds import kernel, polyalg\n"
                "for f in (kernel.moment_grams, polyalg.mollifier_basis, "
                "polyalg.twist_basis, polyalg.twist_matrix):\n"
                "    assert f.cache_info().currsize == 0, f\n")
        src = os.path.dirname(os.path.dirname(levbounds.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


BAD_SCALARS = [
    dict(theta=0.0), dict(theta=1.5), dict(theta=math.nan),
    dict(r=0.0), dict(r=-1.0), dict(r=math.nan),
    dict(R=0.0), dict(R=-0.5), dict(R=math.nan),
    dict(delta=math.nan), dict(delta=math.inf), dict(delta=-math.inf),
]


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shape_rejected_alike(self, bad):
        with pytest.raises(ValueError):
            MollifierShape.of([bad])
        with pytest.raises(ValueError):
            c_core([0.1, bad], [0.1], 1.0, 1.0, 0.6)
        with pytest.raises(ValueError):
            c1_core([0.1], [-0.5, bad], 1.0, 0.6, 0.7)

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
        # past R = 300 the kernel series overflows binary64 (c and c1 became
        # NaN from R = 354), and its term count, int(6R) + 36, grows with R:
        # R is refused by name before any kernel is built
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
