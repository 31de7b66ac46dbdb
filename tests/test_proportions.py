"""Bound constants and combiners: reference values, degeneracies, properties."""

import itertools
import math
import re
import sys
import threading
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from levbounds import kernel, proportions
from levbounds.polyalg import MollifierShape, TwistShape, expand_mollifier, moments
from levbounds.proportions import (BoundReport, ConstantBelowOneError, NonFiniteError,
                                   SectionFiveParams, SectionFourParams, bounds_table,
                                   c1_core, c1_value, c_core, c_value, full_report,
                                   grh_bounds, kappa_bound, nu_bound, unconditional_bounds)
from levbounds.reference import (REFERENCE_CONSTANTS, section_five_reference,
                                 section_four_reference)

from kernel_reference import expand_twist, kernel_matrix, twist_operator_coefficients

X_SHAPE = MollifierShape.of([])

# each constant's memo, read through its public cache_info
MEMOS = {c_value: proportions._c_memo, c1_value: proportions._c1_memo}


def clear_memos():
    for memo in MEMOS.values():
        memo.cache_clear()


def counts(cache):
    """(hits, misses, currsize) of an lru_cache."""
    info = cache.cache_info()
    return info.hits, info.misses, info.currsize


def core(value, p):
    """c_core or c1_core on the floats of the shapes and scalars of p."""
    floats = lambda xs: [float(x) for x in xs]
    if value is c_value:
        return c_core(floats(p.p1_shape.shape_coeffs), floats(p.p2_shape.shape_coeffs),
                      p.theta, p.r, p.R)
    q = p.q_shape
    return c1_core(floats(p.p_shape.shape_coeffs), floats((q.linear_coeff, *q.sym_coeffs)),
                   p.theta, p.R, p.delta)


def fresh(shape):
    """An equal shape built anew, which keeps nothing yet."""
    return (TwistShape(shape.linear_coeff, shape.sym_coeffs)
            if isinstance(shape, TwistShape) else MollifierShape(shape.shape_coeffs))


def lattice(p4, p5):
    """The report params over a 3^4 (r, R4, R5, delta) lattice at p4 and p5's shapes."""
    axes = [np.linspace(0.8, 1.6, 3), np.linspace(0.4, 0.9, 3), np.linspace(0.5, 12.0, 3),
            np.linspace(0.5, 1.0, 3)]
    return [(replace(p4, r=float(r), R=float(R4)), replace(p5, R=float(R5), delta=float(d)))
            for r, R4, R5, d in itertools.product(*axes)]


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


SCALARS = pytest.mark.parametrize("section, field", [
    ("four", "theta"), ("four", "r"), ("four", "R"), ("five", "theta"), ("five", "R"),
    ("five", "delta")])


class TestParamsScalars:
    """Each scalar of the params classes is a real number and not a bool:
    a constant's memo is keyed by its binary64 value."""

    @SCALARS
    def test_a_bool_or_a_non_real_scalar_is_refused_by_name(self, section, field):
        # theta = True once evaluated at theta = 1 and delta = False at 0;
        # r = "1" died comparing a str with an int, naming no field
        p = section_four_reference() if section == "four" else section_five_reference()
        for bad in (True, False, np.True_, "1", 1j, None):
            with pytest.raises(ValueError, match=rf"^{field} must be a finite number, "
                                                 rf"got {re.escape(repr(bad))}$"):
                replace(p, **{field: bad})
        value = c_value if section == "four" else c1_value
        for good in (Fraction(getattr(p, field)), np.float64(getattr(p, field))):
            assert value(replace(p, **{field: good})) == value(p)

    @SCALARS
    def test_a_scalar_of_one_binary64_value_keeps_one_entry(self, section, field):
        # theta = Fraction(1, 3) and 1/3, or delta = Fraction(7, 10) and 0.7,
        # once kept bit-identical constants in two entries: a Fraction, its
        # float and its numpy float are one key, the binary64 the core reads,
        # so the first read evaluates and the other two hit
        p = section_four_reference() if section == "four" else section_five_reference()
        value = c_value if section == "four" else c1_value
        clear_memos()
        exact = Fraction(1, 3) if field == "theta" else Fraction(7, 10)
        reads = [value(replace(p, **{field: x})) for x in (exact, float(exact), np.float64(exact))]
        assert counts(MEMOS[value]) == (2, 1, 1)
        assert len({x.hex() for x in reads}) == 1

    @SCALARS
    @pytest.mark.parametrize("huge, shown", [(10**400, "1.000000e+400"),
                                             (Fraction(10**400), "1.000000e+400"),
                                             (-10**400, "-1.000000e+400")],
                             ids=["int", "Fraction", "negative int"])
    def test_a_scalar_past_binary64_is_refused_by_name(self, section, field, huge, shown):
        # r and delta of 10**400 once escaped as a bare OverflowError from
        # math.isfinite, naming no field
        p = section_four_reference() if section == "four" else section_five_reference()
        with pytest.raises(ValueError, match=rf"^{field} = {re.escape(shown)} "
                                             r"is outside binary64$"):
            replace(p, **{field: huge})

    @pytest.mark.parametrize("section, field, message", [
        ("four", "theta", r"theta must lie in \(0, 1\], got 0\.0"),
        ("four", "r", r"r must be positive, got 0\.0"),
        ("five", "R", r"R must be >= 1e-06, got 0\.0")], ids=["theta", "r", "R"])
    def test_a_scalar_is_checked_as_the_core_reads_it(self, section, field, message):
        # a positive Fraction that rounds to 0.0 once built params whose
        # every evaluation failed on the float the core reads
        p = section_four_reference() if section == "four" else section_five_reference()
        with pytest.raises(ValueError, match=rf"^{message}$"):
            replace(p, **{field: Fraction(1, 10**400)})


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

    @pytest.mark.parametrize("c", [0.0, -1.0, 0.5, math.nextafter(1.0, 0.0)])
    def test_below_one_rejected(self, c):
        # c is 1 plus the integral of a square: c = 0.5 once gave nu < 0
        # and proportions above 1
        with pytest.raises(ConstantBelowOneError, match=rf"^c must be at least 1, got {c!r}$"):
            nu_bound(c, 0.5)


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

    @pytest.mark.parametrize("c1", [-0.5, 0.5, math.nextafter(1.0, 0.0)])
    def test_below_one_rejected(self, c1):
        # c1 = 0.5 once gave kappa = 1.99 and d_uncond = 1.343
        with pytest.raises(ConstantBelowOneError,
                           match=rf"^c1 must be at least 1, got {c1!r}$"):
            kappa_bound(c1, 0.746)


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
        assert list(table) == list(BoundReport._fields[:8])
        assert table == {key: getattr(report, key) for key in table}

    def test_a_report_is_an_immutable_record(self):
        # a report is one tuple: its fields are read by name, none is set,
        # and bounds_table keys its dict by the first eight names
        p4, p5 = section_four_reference(), section_five_reference()
        report = full_report(p4, p5)
        with pytest.raises(AttributeError):
            report.c = 2.0
        table = bounds_table(report.c, p4.R, report.c1, p5.R)
        assert list(table) == list(BoundReport._fields[:8])
        assert tuple(report) == (*table.values(), p4, p5)
        assert report == full_report(p4, p5) and hash(report) == hash(full_report(p4, p5))

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
    """The float core reads each exact shape through its binary64 row, the
    shape's cached row, and c_value and c1_value are memos of the core
    keyed by the binary64 point and the rows.  Read through the memos' cache_info and
    that of kernel._node_rows: a value is the core's, bit for bit, a hit
    evaluates nothing, a raise keeps nothing, a memo holds a bounded number
    of entries, and a different input is its own entry."""

    def test_values_are_the_float_core_bit_for_bit(self):
        # c_value and c1_value evaluate the shapes' rows on a miss;
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

    def test_a_report_evaluates_each_point_once(self):
        # over a 3^4 (r, R4, R5, delta) lattice on shared shapes, each
        # constant is evaluated once per point of its half, 9 times, and
        # read from its memo at the other 72 reports; every report is bit
        # for bit bounds_table of c_core and c1_core on the same floats; each
        # shared shape formed its binary64 row on the first report, and every
        # later report read that same object
        p4, p5 = section_four_reference(), section_five_reference()
        shapes = (p4.p1_shape, p4.p2_shape, p5.p_shape, p5.q_shape)
        points = lattice(p4, p5)
        clear_memos()
        reports = [full_report(*points[0])]
        rows = [shape.row for shape in shapes]
        reports += [full_report(a, b) for a, b in points[1:]]
        assert all(shape.row is row for shape, row in zip(shapes, rows))
        assert [counts(memo) for memo in MEMOS.values()] == [(72, 9, 9)] * 2
        for report, (a, b) in zip(reports, points):
            expected = bounds_table(core(c_value, a), a.R, core(c1_value, b), b.R)
            assert [type(x) for x in tuple(report)[:8]] == [float] * 8
            assert ([x.hex() for x in tuple(report)[:8]]
                    == [x.hex() for x in expected.values()])

    @pytest.mark.parametrize("shape, field", [
        (MollifierShape.of(["-0.482", "-0.392", "-0.262"]), "shape_coeffs"),
        (TwistShape.of("-0.673", ["0.369", "-4.635"]), "sym_coeffs")], ids=["mollifier", "twist"])
    def test_a_shape_forms_its_row_once(self, shape, field):
        # the row is the homogeneous row in binary64, formed on the first
        # read and then the same object, kept in the shape's own __dict__
        # by a descriptor that takes no lock, and shape_row is a read-only
        # view of it; it is not a field, so ==, hash and repr are those of a
        # shape that has formed none, and a shape built by
        # dataclasses.replace forms its own; an entry past binary64 is named
        # by its field and index, and a read that raises forms no row; four
        # threads racing to a fresh shape's first read of its row (more
        # than the cores, switching every microsecond) each read equal
        # bytes, and the shape keeps one of them
        entries = (shape.shape_coeffs if field == "shape_coeffs"
                   else (shape.linear_coeff, *shape.sym_coeffs))
        shape, unread = fresh(shape), fresh(shape)
        row = shape.row
        assert type(row) is bytes and shape.row is row and vars(shape)["row"] is row
        assert not hasattr(type(shape).row, "lock")
        assert row == np.array([1.0, *map(float, entries)]).tobytes()
        view = kernel.shape_row(shape)
        assert view.base is row and not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 2.0
        assert "row" not in vars(unread)
        assert shape == unread and hash(shape) == hash(unread) and repr(shape) == repr(unread)
        copy = replace(shape)
        assert "row" not in vars(copy) and copy.row == row and copy.row is not row

        def last(x):  # shape with the last entry of its last field replaced by x
            return replace(shape, **{field: (*getattr(shape, field)[:-1], x)})

        assert np.frombuffer(last(Fraction(1, 7)).row)[-1] == 1 / 7
        past, at = last(-Fraction(10) ** 400), len(getattr(shape, field)) - 1
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"^{type(shape).__name__}\.{field}\[{at}\] "
                                                 rf"= -1\.000000e\+400 is outside binary64$"):
                past.row
        assert "row" not in vars(past)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                racing, start, read = fresh(shape), threading.Barrier(4, timeout=10), []

                def first_read():
                    start.wait()
                    read.append(racing.row)

                threads = [threading.Thread(target=first_read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert read == [row] * 4 and any(racing.row is x for x in read)
        finally:
            sys.setswitchinterval(interval)

    def test_a_hit_evaluates_nothing(self):
        # the first pass over the lattice reads 6 points' node rows; a second
        # pass, on equal params and shapes built anew, hits each memo once
        # per report, and reads no node rows and misses no memo, so it
        # evaluates nothing; it gives the same bits
        p4, p5 = section_four_reference(), section_five_reference()
        points = lattice(p4, p5)
        anew = [(replace(a, p1_shape=fresh(a.p1_shape), p2_shape=fresh(a.p2_shape)),
                 replace(b, p_shape=fresh(b.p_shape), q_shape=fresh(b.q_shape)))
                for a, b in points]
        clear_memos()
        kernel._node_rows.cache_clear()
        first = [full_report(a, b) for a, b in points]
        assert counts(kernel._node_rows)[1:] == (6, 6)
        caches = (*MEMOS.values(), kernel._node_rows)
        before = [counts(cache) for cache in caches]
        again = [full_report(a, b) for a, b in anew]
        moved = [tuple(now - then for now, then in zip(counts(cache), was))
                 for cache, was in zip(caches, before)]
        assert moved == [(81, 0, 0), (81, 0, 0), (0, 0, 0)]  # (hits, misses, entries)
        assert ([[x.hex() for x in tuple(report)[:8]] for report in first]
                == [[x.hex() for x in tuple(report)[:8]] for report in again])

    @pytest.mark.parametrize("value", [c_value, c1_value], ids=["c", "c1"])
    def test_each_memo_keeps_a_bounded_number_of_points(self, value):
        # read at _NODE_ROWS_KEPT + 8 points, a memo keeps _NODE_ROWS_KEPT
        # entries in all, over every shape it reads: c at as many values of
        # r over two partners, c1 at as many (R, delta) over two twists.  A
        # dropped point evaluates again, bit for bit what it first gave,
        # while a kept point reads the same object
        p4, p5 = section_four_reference(), section_five_reference()
        kept, memo = proportions._NODE_ROWS_KEPT, MEMOS[value]
        if value is c_value:
            partners = (p4.p2_shape, MollifierShape.of(["0.3", "-0.2"]))
            reads = [replace(p4, r=0.8 + i / 128, p2_shape=partners[i % 2])
                     for i in range(kept + 8)]
        else:
            twists = (p5.q_shape, TwistShape.of("0.2", ["0.1", "-0.3"]))
            reads = [replace(p5, R=0.746 + (i % 3) / 64, delta=0.5 + i / 128,
                             q_shape=twists[i % 2]) for i in range(kept + 8)]
        clear_memos()
        first = [value(point) for point in reads]
        assert counts(memo) == (0, kept + 8, kept)
        again = value(reads[0])
        assert again is not first[0] and again.hex() == first[0].hex()
        assert counts(memo) == (0, kept + 9, kept)
        assert value(reads[-1]) is first[-1]
        assert counts(memo) == (1, kept + 9, kept)

    def test_a_kept_constant_is_read_at_its_own_inputs_only(self):
        # each memo is read only at its own point and rows: a second first
        # mollifier, partner, mollifier or twist, the pair swapped, r, R,
        # theta or delta one ulp down, and the points (theta, R) = (0.5, 1.0)
        # and (1.0, 0.5), which share rho, each evaluate and keep their own
        # entry; a partner or twist equal by value but a distinct object
        # reads the kept one.  Every value is bit for bit c_core or c1_core
        # on the same floats, on the first and the second read, and the
        # values differ, so a false hit would show.  At R = 9.5 each one-ulp
        # move shifts c and c1 by at least 2 ulps; at the reference R some
        # of them round to the same value
        p4, p5 = replace(section_four_reference(), R=9.5), replace(section_five_reference(), R=9.5)
        s1, s2, q = p4.p1_shape, p4.p2_shape, p5.q_shape
        down = lambda x: math.nextafter(x, 0.0)
        rho_points = {"theta 0.5, R 1": dict(theta=0.5, R=1.0),
                      "theta 1, R 0.5": dict(theta=1.0, R=0.5)}
        c_cases = {"pair": p4, "second partner": replace(p4, p2_shape=MollifierShape.of(
                       ["0.3", "-0.2"])),  # of s2's degree, so the same x-nodes
                   "second first mollifier": replace(p4, p1_shape=MollifierShape.of(
                       ["-0.1", "0.2"])),
                   "swapped": replace(p4, p1_shape=s2, p2_shape=s1),
                   "equal": replace(p4, p2_shape=MollifierShape(s2.shape_coeffs)),
                   "r one ulp down": replace(p4, r=down(p4.r)),
                   "R one ulp down": replace(p4, R=down(p4.R)),
                   "theta one ulp down": replace(p4, theta=down(p4.theta)),
                   **{name: replace(p4, **at) for name, at in rho_points.items()}}
        c1_cases = {"pair": p5, "second twist": replace(p5, q_shape=TwistShape.of(
                        "0.2", ["0.1", "-0.3"])),
                    "second mollifier": replace(p5, p_shape=MollifierShape.of(
                        ["-0.4", "-0.3", "-0.2"])),
                    "equal": replace(p5, q_shape=TwistShape(q.linear_coeff, q.sym_coeffs)),
                    "R one ulp down": replace(p5, R=down(p5.R)),
                    "theta one ulp down": replace(p5, theta=down(p5.theta)),
                    "delta one ulp down": replace(p5, delta=down(p5.delta)),
                    **{name: replace(p5, **at) for name, at in rho_points.items()}}
        assert c_cases["equal"].p2_shape is not s2 and c1_cases["equal"].q_shape is not q
        cases = {c_value: c_cases, c1_value: c1_cases}
        expected = {value: {name: core(value, p).hex() for name, p in cases[value].items()}
                    for value in cases}
        clear_memos()
        for value, named in cases.items():
            first = {name: value(p).hex() for name, p in named.items()}
            assert counts(MEMOS[value]) == (1, len(named) - 1, len(named) - 1)
            again = {name: value(p).hex() for name, p in named.items()}
            assert counts(MEMOS[value]) == (1 + len(named), len(named) - 1, len(named) - 1)
            assert first == again == expected[value]
            assert len(set(first.values())) == len(named) - 1  # a false hit would show
            assert first["equal"] == first["pair"]

    @pytest.mark.parametrize("section, field", [("four", "p1_shape"), ("four", "p2_shape"),
                                                ("five", "p_shape"), ("five", "q_shape")])
    def test_a_memo_is_keyed_by_value_not_by_object(self, section, field):
        # Fraction(1, 3) and Fraction(1/3) differ below binary64, so shapes
        # holding either have one float row: they read one entry, the second
        # a hit, bit for bit the core's
        third, near = Fraction(1, 3), Fraction(1 / 3)
        assert third != near and float(third) == float(near)
        if section == "four":
            p, value = section_four_reference(), c_value
            shapes = [MollifierShape.of([x, "0.25"]) for x in (third, near)]
        elif field == "p_shape":
            p, value = section_five_reference(), c1_value
            shapes = [MollifierShape.of([x, "-0.392", "-0.262"]) for x in (third, near)]
        else:
            p, value = section_five_reference(), c1_value
            shapes = [TwistShape.of(x, ["0.369", "-4.635"]) for x in (third, near)]
        a, b = (replace(p, **{field: shape}) for shape in shapes)
        assert a != b
        clear_memos()
        first, second = value(a), value(b)
        assert counts(MEMOS[value]) == (1, 1, 1)
        assert first is second and first.hex() == core(value, a).hex() == core(value, b).hex()

    def test_a_failed_evaluation_keeps_nothing(self):
        # a miss that raises leaves its memo's entries as they were, and the
        # same call raises the same error again, evaluating again: a square
        # past binary64 (NonFiniteError) from a partner or twist of 1e200.
        # A shape coefficient outside binary64 (ValueError) raises before
        # the memo is read.  The partner's or twist's row is read first, so
        # when both shapes hold one it is the partner's or twist's that is
        # named
        huge = Fraction(10) ** 400
        p4, p5 = section_four_reference(), section_five_reference()
        clear_memos()
        c_value(p4), c1_value(p5)  # each memo holds one entry
        big_p, big_q = MollifierShape.of(["0.1", huge]), TwistShape.of(-2 * huge, ["0.3"])
        out_p, out_q = (r"MollifierShape\.shape_coeffs\[1\] = 1\.000000e\+400",
                        r"TwistShape\.linear_coeff = -2\.000000e\+400")
        cases = [
            (c_value, replace(p4, p2_shape=MollifierShape.of(["1e200", "0.075"])),
             NonFiniteError, r"c evaluated to inf"),
            (c1_value, replace(p5, q_shape=TwistShape.of("1e200", ["0.369", "-4.635"])),
             NonFiniteError, r"c1 evaluated to inf"),
            (c_value, replace(p4, p2_shape=MollifierShape.of([-2 * huge, "0.075"])),
             ValueError, r"MollifierShape\.shape_coeffs\[0\] = -2\.000000e\+400"),
            (c_value, replace(p4, p1_shape=big_p), ValueError, out_p),
            (c_value, replace(p4, p1_shape=big_p, p2_shape=MollifierShape.of([-2 * huge])),
             ValueError, r"MollifierShape\.shape_coeffs\[0\] = -2\.000000e\+400"),
            (c1_value, replace(p5, q_shape=big_q), ValueError, out_q),
            (c1_value, replace(p5, p_shape=big_p), ValueError, out_p),
            (c1_value, replace(p5, p_shape=big_p, q_shape=big_q), ValueError, out_q)]
        for value, params, error, message in cases:
            hits, misses, size = counts(MEMOS[value])
            for i in (1, 2):
                with pytest.raises(error, match=f"^{message}( is outside binary64)?$"):
                    value(params)
                evaluated = i if error is NonFiniteError else 0
                assert counts(MEMOS[value]) == (hits, misses + evaluated, size)

    def test_node_row_reuse_changes_no_bit(self):
        # over a 3^4 (r, R4, R5, delta) lattice at the reference shapes the
        # reports read 6 points' node rows, each built once and then reused,
        # and every field is bit for bit the one computed with the node rows
        # and the memos cleared before the point
        p4, p5 = section_four_reference(), section_five_reference()
        points = lattice(p4, p5)
        clear_memos()
        kernel._node_rows.cache_clear()
        reports = [full_report(a, b) for a, b in points]
        assert kernel._node_rows.cache_info().misses == 6
        for report, (a, b) in zip(reports, points):
            clear_memos()
            kernel._node_rows.cache_clear()
            again = full_report(replace(a, p1_shape=fresh(a.p1_shape), p2_shape=fresh(a.p2_shape)),
                                replace(b, p_shape=fresh(b.p_shape)))
            assert kernel._node_rows.cache_info().misses == 2
            assert ([x.hex() for x in tuple(report)[:8]]
                    == [x.hex() for x in tuple(again)[:8]])
