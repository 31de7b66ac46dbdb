"""Search runs mirroring the documented reference-point examples."""

import math

import pytest

from levbounds.optimizer import optimize

from search_helpers import grid_scan, hold_shapes, kappa_spec, nu_spec


def test_kappa_slice_seeded_at_reference_point():
    # shapes frozen, only (R, delta) free in [0.5, 1]^2: the reference point
    # is already within 5e-4 of the slice optimum, so the search result must
    # clear the published value minus that slack
    assert optimize(hold_shapes(kappa_spec(budget=600))).best_objective >= 0.93828 - 5e-4


def test_nu_slice_seeded_at_reference_point():
    spec = hold_shapes(nu_spec(scalar_bounds={"r": (0.8, 1.6), "R": (0.4, 0.9)}, budget=600))
    assert optimize(spec).best_objective <= 0.16785


def test_one_dimensional_R_profile_recorded():
    # 1-D slice in R with everything else at reference values; the profile
    # minimum lands near the reference R (recorded, loose assertion only)
    scan = grid_scan(hold_shapes(nu_spec(scalar_bounds={"R": (0.4, 0.9)}, budget=100)),
                     resolution=26)
    best_R = scan.best_point[-1]
    print(f"1-D nu profile over R: best R = {best_R:.3f}, "
          f"nu = {scan.best_objective:.6f}")
    assert math.isfinite(scan.best_objective)
    assert 0.4 <= best_R <= 0.9


def test_grid_matches_optimize_within_lattice_spacing():
    # the two search paths agree on a 2-D slice around the reference point
    bounds = {"R": (0.70, 0.80), "delta": (0.72, 0.82)}
    scan = grid_scan(hold_shapes(kappa_spec(scalar_bounds=bounds, budget=1)), resolution=26)
    opt = optimize(hold_shapes(kappa_spec(scalar_bounds=bounds, budget=500)))
    assert opt.best_objective == pytest.approx(scan.best_objective, abs=5e-4)
    assert opt.best_objective >= scan.best_objective - 1e-12
