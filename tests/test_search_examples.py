"""Search runs mirroring the documented reference-point examples."""

import math

import pytest

from levbounds.optimizer import SearchSpec, grid_scan, optimize
from levbounds.reference import section_five_reference, section_four_reference

from search_helpers import hold_shapes


def test_kappa_slice_seeded_at_reference_point():
    # shapes frozen, only (R, delta) free in [0.5, 1]^2: the reference point
    # is already within 5e-4 of the slice optimum, so the search result must
    # clear the published value minus that slack
    p5 = section_five_reference()
    spec = hold_shapes(SearchSpec(
        target="maximize_kappa", shape_degrees=(3, 2),
        scalar_bounds={"R": (0.5, 1.0), "delta": (0.5, 1.0)},
        theta=1.0,
        initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                       p5.R, p5.delta),
        budget=600))
    result = optimize(spec)
    assert result.best_objective >= 0.93828 - 5e-4


def test_nu_slice_seeded_at_reference_point():
    p4 = section_four_reference()
    spec = hold_shapes(SearchSpec(
        target="minimize_nu", shape_degrees=(2, 2),
        scalar_bounds={"r": (0.8, 1.6), "R": (0.4, 0.9)},
        theta=1.0,
        initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
        budget=600))
    result = optimize(spec)
    assert result.best_objective <= 0.16785


def test_one_dimensional_R_profile_recorded():
    # 1-D slice in R with everything else at reference values; the profile
    # minimum lands near the reference R (recorded, loose assertion only)
    p4 = section_four_reference()
    spec = hold_shapes(SearchSpec(
        target="minimize_nu", shape_degrees=(2, 2),
        scalar_bounds={"R": (0.4, 0.9)},
        theta=1.0,
        initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
        budget=100))
    scan = grid_scan(spec, resolution=26)
    best_R = scan.best_point[-1]
    print(f"1-D nu profile over R: best R = {best_R:.3f}, "
          f"nu = {scan.best_objective:.6f}")
    assert math.isfinite(scan.best_objective)
    assert 0.4 <= best_R <= 0.9


def test_grid_matches_optimize_within_lattice_spacing():
    # the two search paths agree on a 2-D slice around the reference point
    p5 = section_five_reference()
    bounds = {"R": (0.70, 0.80), "delta": (0.72, 0.82)}
    common = dict(
        target="maximize_kappa", shape_degrees=(3, 2), theta=1.0,
        initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                       0.746, 0.771),
        scalar_bounds=bounds)
    scan = grid_scan(hold_shapes(SearchSpec(budget=1, **common)), resolution=26)
    opt = optimize(hold_shapes(SearchSpec(budget=500, **common)))
    assert opt.best_objective == pytest.approx(scan.best_objective, abs=5e-4)
    assert opt.best_objective >= scan.best_objective - 1e-12
