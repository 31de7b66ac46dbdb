"""Bound constants and combiners: reference values, degeneracies, properties."""

import itertools
import math
import warnings
from dataclasses import astuple, fields, replace
from fractions import Fraction

import numpy as np
import pytest

from levbounds import kernel
from levbounds.kernel import basis_products
from levbounds.polyalg import (MollifierShape, TwistShape, expand_mollifier, expand_twist,
                               moments)
from levbounds.proportions import (BoundReport, NonFiniteError, NonPositiveConstantError,
                                   SectionFiveParams, SectionFourParams, bounds_table,
                                   c1_core, c1_value, c_core, c_value, full_report,
                                   grh_bounds, kappa_bound, nu_bound, unconditional_bounds)
from levbounds.reference import (REFERENCE_CONSTANTS, section_five_reference,
                                 section_four_reference)

from kernel_reference import kernel_matrix, twist_operator_coefficients

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
        # as r grows the P2 terms vanish and c tends to h11; r = inf itself
        # is refused by name, as the CLI and SearchSpec refuse it, since it
        # would drop those terms silently
        p4 = section_four_reference()
        params = SectionFourParams(p4.p1_shape, p4.p2_shape, p4.theta, 1e300, p4.R)
        poly1 = expand_mollifier(p4.p1_shape)
        h11 = kernel_matrix(moments(poly1, poly1), p4.theta, p4.R, 2)
        # to rounding: the square form sums in another order than the kernel
        assert c_value(params) == pytest.approx(h11[0, 0], rel=1e-15)
        with pytest.raises(ValueError, match=r"^r must be finite, got inf$"):
            SectionFourParams(p4.p1_shape, p4.p2_shape, p4.theta, math.inf, p4.R)
        with pytest.raises(ValueError, match=r"^r must be finite, got inf$"):
            c_core([-0.158, 0.25], [0.492, 0.075], p4.theta, math.inf, p4.R)

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
    """twist_operator_coefficients is the test reference's operator
    weights; this checks it against the operator itself."""

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

    def test_report_is_the_bounds_table(self):
        p4, p5 = section_four_reference(), section_five_reference()
        report = full_report(p4, p5)
        table = bounds_table(report.c, p4.R, report.c1, p5.R)
        assert list(table) == list(REFERENCE_CONSTANTS)
        assert list(table) == [f.name for f in fields(BoundReport)][:8]
        assert table == {key: getattr(report, key) for key in table}

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

    @pytest.mark.parametrize("R", [None, 300.0])
    @pytest.mark.parametrize("coeff", ["1e50", "1e100", "1e200"])
    def test_an_overflowing_square_raises_without_a_warning(self, R, coeff):
        # a leading shape coefficient of coeff puts the root near coeff and
        # its square near coeff^2 e^{2R}: past binary64 at the reference R
        # (0.617, 0.746) for 1e200 only, and at R = 300 for all three.  Each
        # evaluation route then raises NonFiniteError; a finite square is
        # returned as it is; neither warns
        p4, p5 = section_four_reference(), section_five_reference()
        if R is not None:
            p4, p5 = replace(p4, R=R), replace(p5, R=R)
        p4 = replace(p4, p1_shape=MollifierShape.of([coeff, *p4.p1_shape.shape_coeffs[1:]]))
        p5 = replace(p5, p_shape=MollifierShape.of([coeff, *p5.p_shape.shape_coeffs[1:]]))
        floats = lambda xs: [float(x) for x in xs]
        routes = {
            "c": (lambda: c_value(p4), lambda: c_core(
                floats(p4.p1_shape.shape_coeffs), floats(p4.p2_shape.shape_coeffs),
                p4.theta, p4.r, p4.R)),
            "c1": (lambda: c1_value(p5), lambda: c1_core(
                floats(p5.p_shape.shape_coeffs),
                floats((p5.q_shape.linear_coeff, *p5.q_shape.sym_coeffs)),
                p5.theta, p5.R, p5.delta))}
        overflows = R is not None or coeff == "1e200"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, evaluations in routes.items():
                for evaluate in evaluations:
                    if overflows:
                        with pytest.raises(NonFiniteError, match=f"^{name} evaluated to inf$"):
                            evaluate()
                    else:
                        assert math.isfinite(evaluate())


class TestShapeProducts:
    """The float core reads each exact shape through its float row, kept on
    the shape, and what it forms from that row at a point is kept there
    too: a mollifier's factors and x-Gram, a twist's t-Gram."""

    def test_values_are_the_float_core_bit_for_bit(self):
        # c_value and c1_value read the shapes' kept rows and products;
        # c_core and c1_core, the search objective, form them from floats on
        # each call.
        # The search's re-evaluation of its best point relies on both
        # routes giving the same bits.
        rng = np.random.default_rng(2029)
        for _ in range(300):
            def shape(m):
                return MollifierShape.of(list(rng.uniform(-2.0, 2.0, m)))
            s1, s2, sp = (shape(int(rng.integers(1, 9))) for _ in range(3))
            q = TwistShape.of(float(rng.uniform(-2.0, 2.0)),
                              list(rng.uniform(-2.0, 2.0, int(rng.integers(0, 8)))))
            theta, r = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 3.0))
            R4, R5 = (float(np.exp(rng.uniform(np.log(1e-6), np.log(300.0)))) for _ in "45")
            delta = float(rng.uniform(-1.2, 1.2))
            floats = lambda xs: [float(x) for x in xs]
            p4 = SectionFourParams(s1, s2, theta, r, R4)
            p5 = SectionFiveParams(sp, q, theta, R5, delta)
            assert c_value(p4) == c_core(floats(s1.shape_coeffs), floats(s2.shape_coeffs),
                                         theta, r, R4)
            assert c1_value(p5) == c1_core(floats(sp.shape_coeffs),
                                           floats((q.linear_coeff, *q.sym_coeffs)),
                                           theta, R5, delta)

    def test_cache_is_transparent(self, monkeypatch):
        # over a 3^4 (r, R4, R5, delta) lattice on shared shapes, each
        # (shape, point) Gram is formed once, counted on its builder: on
        # NodeRows.gram_of the c1 mollifier's X at each (x-node count, rho,
        # theta) and the twist's T at each (t-node count, delta, R); on
        # kernel.c_gram c's X, kept on the first shape, at each (x-node
        # count, rho, theta, r) with the partner's row, 9 builds, one per
        # (r, R4); each c mollifier forms its factors once per point; every
        # basis product is one of these; every report is bit for bit the
        # one that fresh, equal shapes give
        p4, p5 = section_four_reference(), section_five_reference()
        shapes = (p4.p1_shape, p4.p2_shape, p5.p_shape, p5.q_shape)
        formed, grams, c_grams = [], [], []
        gram_of, c_gram = kernel.NodeRows.gram_of, kernel.c_gram

        def counting(n, u, twist=False):
            formed.append((n, tuple(u), twist))
            return basis_products(n, u, twist)

        def counting_grams(rows, u, delta=None):
            grams.append((len(rows.t) if delta is not None else len(rows.wx), tuple(u), delta,
                          rows.R if delta is not None else rows.rho))
            return gram_of(rows, u, delta)

        def counting_c_grams(rows, f1, f2, r):
            c_grams.append((len(rows.wx), rows.rho, rows.theta, r))
            return c_gram(rows, f1, f2, r)

        monkeypatch.setattr(kernel, "basis_products", counting)
        monkeypatch.setattr(kernel.NodeRows, "gram_of", counting_grams)
        monkeypatch.setattr(kernel, "c_gram", counting_c_grams)
        axes = [np.linspace(0.8, 1.6, 3), np.linspace(0.4, 0.9, 3), np.linspace(0.5, 12.0, 3),
                np.linspace(0.5, 1.0, 3)]
        points = [(replace(p4, r=float(r), R=float(R4)), replace(p5, R=float(R5), delta=float(d)))
                  for r, R4, R5, d in itertools.product(*axes)]
        reports = [full_report(a, b) for a, b in points]
        n4 = max(len(p4.p1_shape.shape_coeffs), len(p4.p2_shape.shape_coeffs)) + 3
        n5 = len(p5.p_shape.shape_coeffs) + 3  # one x count per mollifier: m + 3
        k = len(p5.q_shape.sym_coeffs)
        assert p4.theta == p5.theta == 1.0  # so rho = R
        assert [list(s.kept["factors"]) for s in shapes[:2]] == [
            [(n4, float(R4), 1.0) for R4 in axes[1]]] * 2
        partner = kernel.shape_row(p4.p2_shape).tobytes()
        c_points = [(n4, float(R4), 1.0, float(r)) for r in axes[0] for R4 in axes[1]]
        assert list(p4.p1_shape.kept["c_grams"]) == [(*at, partner) for at in c_points]
        assert c_grams == c_points  # each once, in lattice order
        assert list(p5.p_shape.kept["grams"]) == [(n5, float(R5), 1.0) for R5 in axes[2]]
        t_points = [(kernel.t_count(R5, 2 * k + 2), float(d), float(R5))
                    for R5 in axes[2] for d in axes[3]]
        assert list(p5.q_shape.kept["grams"]) == t_points
        row = kernel.shape_row
        assert sorted(grams, key=repr) == sorted(  # each once
            [(n5, tuple(row(p5.p_shape)), None, float(R5)) for R5 in axes[2]]
            + [(n, tuple(row(p5.q_shape)), d, R5) for n, d, R5 in t_points], key=repr)
        assert sorted(formed) == sorted(
            [(n, tuple(row(s)), False) for s in shapes[:2] for n, *_ in s.kept["factors"]]
            + [(n5, tuple(row(p5.p_shape)), False)] * 3
            + [(n, tuple(d * row(p5.q_shape)), True) for n, d, _ in t_points])
        monkeypatch.undo()

        def fresh(shape):
            return (TwistShape(shape.linear_coeff, shape.sym_coeffs)
                    if isinstance(shape, TwistShape) else MollifierShape(shape.shape_coeffs))

        for report, (a, b) in zip(reports, points):
            again = full_report(replace(a, p1_shape=fresh(a.p1_shape), p2_shape=fresh(a.p2_shape)),
                                replace(b, p_shape=fresh(b.p_shape), q_shape=fresh(b.q_shape)))
            assert ([x.hex() for x in astuple(report)[:8]]
                    == [x.hex() for x in astuple(again)[:8]])
        slots = (["row", "factors", "c_grams"], ["row", "factors"], ["row", "grams"],
                 ["row", "grams"])
        for shape, kept_slots in zip(shapes, slots):
            assert list(shape.kept) == kept_slots
            assert not shape.kept["row"].flags.writeable
            if "factors" in kept_slots:
                assert not any(f.flags.writeable for f in shape.kept["factors"].values())
            for slot in {"grams", "c_grams"}.intersection(kept_slots):
                assert all(type(g) is tuple and len(g) == 3 and all(type(x) is float for x in g)
                           for g in shape.kept[slot].values())
            assert shape == fresh(shape) and hash(shape) == hash(fresh(shape))
            assert repr(shape) == repr(fresh(shape))

    @pytest.mark.parametrize("twist", [False, True])
    def test_each_shape_keeps_a_bounded_number_of_points(self, twist):
        # read at _NODE_ROWS_KEPT + 8 points, a shape keeps, in each slot,
        # the last _NODE_ROWS_KEPT formed, the oldest dropped first, and a
        # dropped point forms again, bit for bit, what it first gave: a
        # mollifier's factors and x-Gram, and c's x-Gram with a partner,
        # read at _NODE_ROWS_KEPT + 8 values of r at one point; a twist's
        # t-Gram
        p4, p5, kept = section_four_reference(), section_five_reference(), kernel._NODE_ROWS_KEPT
        m, k = len(p5.p_shape.shape_coeffs), len(p5.q_shape.sym_coeffs)
        shape, partner = (p5.q_shape if twist else p5.p_shape), p4.p2_shape
        if twist:  # a twist's points move with delta and R, a mollifier's with R
            reads = [(kernel.node_rows(1.0, 0.746 + (i % 2) / 64, m, k), 0.5 + i / 128)
                     for i in range(kept + 8)]
            slots = {"grams": (reads, lambda rows, delta: kernel.kept_gram(rows, shape, delta))}
        else:
            reads = [(kernel.node_rows(1.0, 0.5 + i / 128, m, k), None) for i in range(kept + 8)]
            at = kernel.node_rows(1.0, 0.617, max(m, len(partner.shape_coeffs)))
            slots = {"factors": (reads, lambda rows, _: kernel.kept_factors(rows, shape)),
                     "grams": (reads, lambda rows, _: kernel.kept_gram(rows, shape)),
                     "c_grams": ([(at, 0.8 + i / 128) for i in range(kept + 8)],
                                 lambda rows, r: kernel.kept_c_gram(rows, shape, partner, r))}

        def keys(slot, reads):
            if slot == "c_grams":
                return [(len(rows.wx), rows.rho, rows.theta, r,
                         kernel.shape_row(partner).tobytes()) for rows, r in reads]
            return [(len(rows.t), delta, rows.R) if twist else (len(rows.wx), rows.rho, rows.theta)
                    for rows, delta in reads]

        def same(a, b):
            return (a.tobytes() == b.tobytes() if isinstance(a, np.ndarray)
                    else [x.hex() for x in a] == [x.hex() for x in b])

        for slot, (reads, read) in slots.items():
            first = [read(*point) for point in reads]
            assert list(shape.kept[slot]) == keys(slot, reads[8:])
            again = read(*reads[0])
            assert again is not first[0] and same(again, first[0])
            assert list(shape.kept[slot]) == keys(slot, reads[9:] + reads[:1])
            assert read(*reads[-1]) is first[-1]

    def test_a_kept_c_gram_is_read_for_its_own_pair_and_r_only(self, monkeypatch):
        # at one point and one r, c's x-Gram kept on the first shape is read
        # only for its own partner and r: a second partner, the pair swapped
        # and r one ulp down each form their own (counted on kernel.c_gram),
        # a partner equal by value but a distinct object reads the kept one,
        # and each c is bit for bit c_core on the same floats, before and
        # after the keep holds them all
        p4 = section_four_reference()
        s1, s2 = p4.p1_shape, p4.p2_shape
        other = MollifierShape.of(["0.3", "-0.2"])  # of s2's degree, so the same x-nodes
        down = math.nextafter(p4.r, 0.0)
        cases = {"pair": p4, "second partner": replace(p4, p2_shape=other),
                 "swapped": replace(p4, p1_shape=s2, p2_shape=s1),
                 "equal partner": replace(p4, p2_shape=MollifierShape(s2.shape_coeffs)),
                 "r one ulp down": replace(p4, r=down)}
        assert cases["equal partner"].p2_shape is not s2
        formed = []
        c_gram = kernel.c_gram

        def counting(rows, f1, f2, r):
            formed.append(r)
            return c_gram(rows, f1, f2, r)

        def core(p):
            floats = lambda s: [float(x) for x in s.shape_coeffs]
            return c_core(floats(p.p1_shape), floats(p.p2_shape), p.theta, p.r, p.R).hex()

        monkeypatch.setattr(kernel, "c_gram", counting)
        first = {name: c_value(p).hex() for name, p in cases.items()}
        assert len(formed) == 4 and formed.count(down) == 1
        again = {name: c_value(p).hex() for name, p in cases.items()}
        assert len(formed) == 4
        assert first == again == {name: core(p) for name, p in cases.items()}
        assert len(set(first.values())) == 4  # a false hit would show
        assert first["equal partner"] == first["pair"]
        assert len(s1.kept["c_grams"]) == 3 and len(s2.kept["c_grams"]) == 1

    def test_kept_factors_name_a_wrong_shape(self):
        p5 = section_five_reference()
        rows = kernel.node_rows(1.0, 0.746, 3, 2)
        with pytest.raises(TypeError, match="a MollifierShape takes no delta"):
            kernel.kept_gram(rows, p5.p_shape, 0.771)
        with pytest.raises(TypeError, match="a TwistShape needs a delta"):
            kernel.kept_gram(rows, p5.q_shape)
        with pytest.raises(TypeError, match="a TwistShape keeps no factors"):
            kernel.kept_factors(rows, p5.q_shape)

    def test_a_mollifier_keeps_two_points_that_share_rho(self, monkeypatch):
        # (theta, R) = (0.5, 1.0) and (1.0, 0.5) have rho = R theta = 0.5
        # exactly, but theta P u differs: each mollifier keeps both points,
        # the c mollifiers their factors and the c1 mollifier its x-Gram,
        # each Gram formed once (counted on its builder, NodeRows.gram_of),
        # and each constant is bit for bit the one fresh, equal shapes give
        p4, p5 = section_four_reference(), section_five_reference()
        points = [(0.5, 1.0), (1.0, 0.5)]
        formed = []
        gram_of = kernel.NodeRows.gram_of

        def counting(rows, u, delta=None):
            formed.append((rows.theta, rows.R, delta is not None))
            return gram_of(rows, u, delta)

        def constants(p4, p5, theta, R):
            return (c_value(replace(p4, theta=theta, R=R)).hex(),
                    c1_value(replace(p5, theta=theta, R=R)).hex())

        monkeypatch.setattr(kernel.NodeRows, "gram_of", counting)
        kept = [constants(p4, p5, *point) for point in points * 2]
        assert kept[:2] == kept[2:]
        assert sorted(formed) == [(0.5, 1.0, False), (0.5, 1.0, True),
                                  (1.0, 0.5, False), (1.0, 0.5, True)]
        monkeypatch.undo()
        for shape, slot in ((p4.p1_shape, "factors"), (p4.p2_shape, "factors"),
                            (p5.p_shape, "grams")):
            assert [key[1:] for key in shape.kept[slot]] == [(0.5, 0.5), (0.5, 1.0)]
        for point, values in zip(points, kept):
            assert values == constants(section_four_reference(), section_five_reference(),
                                       *point)

    def test_node_row_reuse_changes_no_bit(self):
        # over a 3^4 (r, R4, R5, delta) lattice at the reference shapes the
        # reports read 6 points' node rows, each built once and then reused,
        # and every field is bit for bit the one computed with the cache
        # cleared before the point
        p4, p5 = section_four_reference(), section_five_reference()
        axes = [np.linspace(0.8, 1.6, 3), np.linspace(0.4, 0.9, 3), np.linspace(0.5, 12.0, 3),
                np.linspace(0.5, 1.0, 3)]
        points = [(replace(p4, r=float(r), R=float(R4)), replace(p5, R=float(R5), delta=float(d)))
                  for r, R4, R5, d in itertools.product(*axes)]
        kernel._node_rows.cache_clear()
        reports = [full_report(a, b) for a, b in points]
        assert kernel._node_rows.cache_info().misses == 6
        for report, (a, b) in zip(reports, points):
            kernel._node_rows.cache_clear()
            again = full_report(a, b)
            assert ([x.hex() for x in astuple(report)[:8]]
                    == [x.hex() for x in astuple(again)[:8]])
