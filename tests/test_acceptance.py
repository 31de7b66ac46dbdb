"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen (plain `pytest` captures them unless a test fails).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import levbounds as lb
from levbounds.optimizer import SearchSpec, optimize
from levbounds.oracle import fd_c1_value, fd_c_value
from levbounds.polyalg import (MollifierShape, MomentTable, TwistShape, ZERO,
                               expand_mollifier, moments, poly_derivative,
                               poly_eval, poly_reflect)
from levbounds.proportions import (SectionFiveParams, SectionFourParams, c1_value,
                                   c_value, grh_bounds, nu_bound,
                                   unconditional_bounds)
from levbounds.reference import (REFERENCE_CONSTANTS, REMARK_DELTA1_KAPPA,
                                 section_five_reference, section_four_reference)

from kernel_reference import expand_twist, kernel_matrix, kernel_numeric

F = pytest.approx


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def reference_report():
    return lb.full_report(section_four_reference(), section_five_reference())


def test_criterion_1_c_reproduction(reference_report):
    """c = 1.230108 within relative 5e-4 at the reference parameters."""
    c = reference_report.c
    ok = abs(c - 1.230108) <= 5e-4 * 1.230108
    # The reproducing p2 shape is (+0.492, 0.075).  The sign-flipped first
    # coefficient that is sometimes quoted gives a value nowhere near the
    # reference constant; freeze both facts so the correction stays visible.
    flipped = SectionFourParams(
        p1_shape=MollifierShape.of(["-0.158", "0.25"]),
        p2_shape=MollifierShape.of(["-0.492", "0.075"]),
        theta=1.0, r=1.154, R=0.617)
    c_flipped = c_value(flipped)
    assert c_flipped == F(1.5303158151789646, rel=1e-11)
    verdict(1, ok, f"c = {c:.7f} vs 1.230108 (rel {abs(c - 1.230108) / 1.230108:.1e}; "
                   f"sign-flipped variant gives {c_flipped:.7f})")


def test_criterion_2_nu_reproduction(reference_report):
    """nu in [0.1677, 0.1679]; both the recomputed and quoted values shown."""
    nu = nu_bound(reference_report.c, 0.617)
    lo, hi = 0.1677, 0.1679
    ok = lo <= nu <= hi
    gap = abs(nu - REFERENCE_CONSTANTS["nu"])
    verdict(2, ok, f"nu recomputed = {nu:.7f}, quoted reference = "
                   f"{REFERENCE_CONSTANTS['nu']:.6f} (rounding gap {gap:.1e}), "
                   f"band [{lo}, {hi}]")


def test_criterion_3_kappa_reproduction(reference_report):
    """kappa = 0.93828 within 5e-4 at the reference parameters."""
    kappa = reference_report.kappa
    ok = abs(kappa - 0.93828) <= 5e-4
    verdict(3, ok, f"kappa = {kappa:.7f} vs 0.93828 (delta {abs(kappa - 0.93828):.1e})")


def test_criterion_4_unconditional_proportions(reference_report):
    """unconditional (d, s) >= (0.8013, 0.60261) - 1e-3 component-wise."""
    d, s = unconditional_bounds(reference_report.kappa, reference_report.nu)
    ok = d >= 0.8013 - 1e-3 and s >= 0.60261 - 1e-3
    verdict(4, ok, f"d = {d:.6f} (>= 0.8003), s = {s:.6f} (>= 0.60161)")


def test_criterion_5_grh_proportions(reference_report):
    """GRH (d, s) >= (0.83216, 0.66433) - 1e-3 component-wise."""
    d, s = grh_bounds(reference_report.nu)
    ok = d >= 0.83216 - 1e-3 and s >= 0.66433 - 1e-3
    verdict(5, ok, f"d_grh = {d:.6f} (>= 0.83116), s_grh = {s:.6f} (>= 0.66333)")


def test_criterion_6_oracle_equivalence():
    """100 seeded draws: c and c1 against the Cauchy-integral oracle, within
    1e-5 and 1e-4."""
    rng = np.random.default_rng(20260810)
    t0 = time.time()
    worst_c = worst_c1 = 0.0
    for _ in range(100):
        s1 = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
        s2 = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
        sp = MollifierShape.of(list(rng.uniform(-1, 1, 3)))
        q = TwistShape.of(float(rng.uniform(-1, 1)), list(rng.uniform(-1, 1, 2)))
        theta = float(rng.uniform(0.3, 1.0))
        R4 = float(rng.uniform(0.1, 2.0))
        R5 = float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.0, 1.2))
        p4 = SectionFourParams(s1, s2, theta, 1.154, R4)
        p5 = SectionFiveParams(sp, q, theta, R5, delta)
        c = c_value(p4)
        c1 = c1_value(p5)
        worst_c = max(worst_c, abs(c - fd_c_value(p4)) / max(abs(c), 1e-12))
        worst_c1 = max(worst_c1, abs(c1 - fd_c1_value(p5)) / max(abs(c1), 1e-12))
    elapsed = time.time() - t0
    ok = worst_c <= 1e-5 and worst_c1 <= 1e-4 and elapsed < 60.0
    verdict(6, ok, f"worst c rel {worst_c:.2e} (<= 1e-5), worst c1 rel "
                   f"{worst_c1:.2e} (<= 1e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_7_structural_invariants():
    """Exact identities and the kernel's structural properties."""
    rng = np.random.default_rng(77)
    p4 = section_four_reference()
    p5 = section_five_reference()

    # exact moment symmetry for coinciding pairs
    poly1 = expand_mollifier(p4.p1_shape)
    mt_diag = moments(poly1, poly1)
    moment_sym = mt_diag.m_dp == mt_diag.m_pd

    # constraint identities, exact
    constraints = True
    for shape in (p4.p1_shape, p4.p2_shape, p5.p_shape):
        p = expand_mollifier(shape)
        constraints &= poly_eval(p, 0) == 0 and poly_eval(p, 1) == 1
    q = expand_twist(p5.q_shape)
    dq = poly_derivative(q)
    constraints &= poly_eval(q, 0) == 1 and (dq - poly_reflect(dq)) == ZERO

    # removable singularity: the library's scalar kernel on a + b = 0 is the
    # limit of its values off the line, read as the mean of its neighbours
    # 1e-8 to either side
    sing = 0.0
    for _ in range(50):
        mt = MomentTable.of(*(Fraction(float(x)) for x in rng.uniform(-3, 3, 4)))
        a0 = float(rng.uniform(-2, 2))
        th = float(rng.uniform(0.3, 1.0))
        on_line = kernel_numeric(mt, th, a0, -a0)
        mid = 0.5 * (kernel_numeric(mt, th, a0, -a0 + 1e-8)
                     + kernel_numeric(mt, th, a0, -a0 - 1e-8))
        sing = max(sing, abs(on_line - mid) / max(abs(on_line), 1e-12))

    # kernel transpose law
    transpose = 0.0
    for _ in range(20):
        sa = MollifierShape.of(list(rng.uniform(-1, 1, 2)))
        sb = MollifierShape.of(list(rng.uniform(-1, 1, 3)))
        pa, pb = expand_mollifier(sa), expand_mollifier(sb)
        theta = float(rng.uniform(0.3, 1.0))
        R = float(rng.uniform(0.2, 1.5))
        h_ab = kernel_matrix(moments(pa, pb), theta, R, 3)
        h_ba = kernel_matrix(moments(pb, pa), theta, R, 3)
        transpose = max(transpose, float(np.max(np.abs(h_ab - h_ba.T))))

    # delta = 0 degeneracy of c1
    degeneracy = 0.0
    for _ in range(20):
        sp = MollifierShape.of(list(rng.uniform(-1, 1, 3)))
        q_shape = TwistShape.of(float(rng.uniform(-1, 1)), list(rng.uniform(-1, 1, 2)))
        theta = float(rng.uniform(0.3, 1.0))
        R = float(rng.uniform(0.2, 1.5))
        params = SectionFiveParams(sp, q_shape, theta, R, 0.0)
        poly = expand_mollifier(sp)
        val = kernel_matrix(moments(poly, poly), theta, R, 2)[0, 0]
        degeneracy = max(degeneracy, abs(c1_value(params) - val) / max(abs(val), 1e-12))

    ok = (moment_sym and constraints and sing <= 1e-13 and transpose <= 1e-12
          and degeneracy <= 1e-12)
    verdict(7, ok, f"moment symmetry exact: {moment_sym}; constraints exact: "
                   f"{constraints}; singular-line residue {sing:.1e} (<= 1e-13); "
                   f"transpose {transpose:.1e} (<= 1e-12); delta=0 degeneracy "
                   f"{degeneracy:.1e} (<= 1e-12)")


def _nu_search_spec() -> SearchSpec:
    p4 = section_four_reference()
    return SearchSpec(
        target="minimize_nu", shape_degrees=(2, 2),
        scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.2)},
        theta=1.0,
        initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
        budget=2000)


def _kappa_search_spec() -> SearchSpec:
    p5 = section_five_reference()
    return SearchSpec(
        target="maximize_kappa", shape_degrees=(3, 2),
        scalar_bounds={"R": (0.4, 1.2), "delta": (0.4, 1.2)},
        theta=1.0,
        initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                       p5.R, p5.delta),
        budget=2000)


def test_criterion_8_optimizer_no_regression(reference_report):
    """Budget-2000 searches never regress from the start points and are
    bit-deterministic."""
    nu_seed = reference_report.nu
    kappa_seed = reference_report.kappa

    nu_a = optimize(_nu_search_spec())
    nu_b = optimize(_nu_search_spec())
    kappa_a = optimize(_kappa_search_spec())
    kappa_b = optimize(_kappa_search_spec())

    deterministic = (nu_a == nu_b and kappa_a == kappa_b)
    no_regress = (nu_a.best_objective <= nu_seed + 1e-15
                  and kappa_a.best_objective >= kappa_seed - 1e-15)
    ok = deterministic and no_regress
    verdict(8, ok, f"nu {nu_a.best_objective:.7f} <= seed {nu_seed:.7f}; kappa "
                   f"{kappa_a.best_objective:.7f} >= seed {kappa_seed:.7f}; "
                   f"deterministic: {deterministic}")


def test_criterion_9_delta_one_exploratory():
    """delta frozen at 1: best kappa recorded next to the 0.8429 remark value;
    nothing asserted against it (no polynomials are published for the case)."""
    p5 = section_five_reference()
    spec = SearchSpec(
        target="maximize_kappa", shape_degrees=(3, 2),
        scalar_bounds={"R": (0.4, 1.2), "delta": (1.0, 1.0)},
        theta=1.0,
        initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                       p5.R, 1.0),
        budget=1200)
    result = optimize(spec)
    ok = math.isfinite(result.best_objective)
    verdict(9, ok, f"delta=1 best kappa found = {result.best_objective:.5f} "
                   f"(recorded alongside remark value {REMARK_DELTA1_KAPPA}; "
                   f"non-gating)")
