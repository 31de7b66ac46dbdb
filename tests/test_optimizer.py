"""Search behaviour: determinism, budget accounting, penalties, grid oracle."""

import pytest

from levbounds.optimizer import (DimensionTooHighError, EvaluationFailureError,
                                 SearchSpec, grid_scan, optimize, params_fields,
                                 search_start)
from levbounds.polyalg import MollifierShape, TwistShape
from levbounds.proportions import (NonFiniteError, SectionFiveParams, SectionFourParams,
                                   c1_value, c_value, kappa_bound, nu_bound)
from levbounds.reference import section_five_reference, section_four_reference


def nu_spec(**overrides) -> SearchSpec:
    p4 = section_four_reference()
    fields = dict(
        target="minimize_nu",
        shape_degrees=(2, 2),
        scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.0)},
        theta=1.0,
        initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
        budget=300,
        seed=7,
        restarts=1,
        vary_shapes=True,
    )
    fields.update(overrides)
    return SearchSpec(**fields)


def kappa_spec(**overrides) -> SearchSpec:
    p5 = section_five_reference()
    fields = dict(
        target="maximize_kappa",
        shape_degrees=(3, 2),
        scalar_bounds={"R": (0.5, 1.0), "delta": (0.5, 1.0)},
        theta=1.0,
        initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                       p5.R, p5.delta),
        budget=300,
        seed=7,
        restarts=1,
        vary_shapes=True,
    )
    fields.update(overrides)
    return SearchSpec(**fields)


def seed_objective(spec: SearchSpec) -> float:
    params = spec.params_from_vector(spec.initial_point)
    if spec.target == "minimize_nu":
        return nu_bound(c_value(params), params.R)
    return kappa_bound(c1_value(params), params.R)


class TestSpecValidation:
    def test_bad_target(self):
        with pytest.raises(ValueError):
            nu_spec(target="maximize_profit")

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            nu_spec(budget=0)

    def test_initial_point_out_of_bounds(self):
        with pytest.raises(ValueError):
            nu_spec(initial_point=(-0.158, 0.25, 0.492, 0.075, 5.0, 0.617))

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            nu_spec(initial_point=(1.0, 2.0))

    @pytest.mark.parametrize("make, name", [(nu_spec, "RR"), (nu_spec, "delta"),
                                            (kappa_spec, "r")])
    def test_bound_name_outside_vector_rejected(self, make, name):
        # a misspelt bound once left its scalar frozen without a word
        with pytest.raises(ValueError, match=rf"'{name}'.*allowed: .*\bR\b"):
            make(scalar_bounds={name: (0.5, 1.0)})

    def test_bound_on_shape_coefficient_accepted(self):
        spec = nu_spec(scalar_bounds={"p1_shape[0]": (-0.5, 0.5), "R": (0.3, 1.0)})
        assert "p1_shape[0]" in spec.vector_names()

    def test_negative_seed_rejected_by_name(self):
        # numpy once rejected it with a message naming no key
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
            nu_spec(seed=-3)

    @pytest.mark.parametrize("degrees", [(2,), (2, 2, 2), (-1, 2)])
    def test_shape_degrees_must_be_two_counts(self, degrees):
        with pytest.raises(ValueError, match="shape_degrees"):
            nu_spec(shape_degrees=degrees)


def layout_params(target, degrees):
    """Start params of the given shape degrees, with decimal coefficients."""
    decimals = ["-0.158", "0.25", "0.492", "0.075", "-0.482"]
    if target == "minimize_nu":
        return SectionFourParams(MollifierShape.of(decimals[:degrees[0]]),
                                 MollifierShape.of(decimals[1:1 + degrees[1]]),
                                 1.0, 1.154, 0.617)
    return SectionFiveParams(MollifierShape.of(decimals[:degrees[0]]),
                             TwistShape.of("-0.673", decimals[2:2 + degrees[1]]),
                             0.9, 0.746, 0.771)


class TestLayout:
    NAMES = {("minimize_nu", (0, 2)): ("p2_shape[0]", "p2_shape[1]", "r", "R"),
             ("minimize_nu", (3, 0)): ("p1_shape[0]", "p1_shape[1]", "p1_shape[2]", "r", "R"),
             ("maximize_kappa", (0, 2)): ("q_linear", "q_sym[0]", "q_sym[1]", "R", "delta"),
             ("maximize_kappa", (3, 0)): ("p_shape[0]", "p_shape[1]", "p_shape[2]",
                                          "q_linear", "R", "delta")}

    @pytest.mark.parametrize("target, degrees", list(NAMES))
    def test_start_vector_rebuilds_start_params(self, target, degrees):
        params = layout_params(target, degrees)
        shape_degrees, initial = search_start(params)
        assert shape_degrees == degrees
        spec = SearchSpec(target=target, shape_degrees=shape_degrees, scalar_bounds={},
                          theta=params.theta, initial_point=initial, budget=1)
        assert spec.vector_names() == self.NAMES[target, degrees]
        assert spec.params_from_vector(spec.initial_point) == params
        assert params_fields(spec.params_from_vector(initial)) == params_fields(params)

    @pytest.mark.parametrize("target, degrees", list(NAMES))
    def test_objective_evaluates_zero_length_shapes(self, target, degrees):
        params = layout_params(target, degrees)
        shape_degrees, initial = search_start(params)
        spec = SearchSpec(target=target, shape_degrees=shape_degrees, scalar_bounds={},
                          theta=params.theta, initial_point=initial, budget=1)
        assert optimize(spec).best_objective == seed_objective(spec)

    def test_free_entries(self):
        # shape entries, q_linear among them, follow vary_shapes; a scalar
        # is free only under bounds with lo < hi
        spec = kappa_spec(scalar_bounds={"R": (0.5, 1.0), "delta": (0.771, 0.771)})
        assert spec.free_indices() == (0, 1, 2, 3, 4, 5, 6)
        frozen = kappa_spec(vary_shapes=False,
                            scalar_bounds={"q_linear": (-1.0, 0.0), "R": (0.5, 1.0)})
        assert frozen.free_indices() == (6,)
        assert nu_spec(scalar_bounds={"r": (0.5, 2.0)}).free_indices() == (0, 1, 2, 3, 4)

    def test_fields_follow_the_config_section(self):
        section, fields = params_fields(layout_params("maximize_kappa", (3, 2)))
        assert section == "section5"
        assert fields == {"p_shape": [-0.158, 0.25, 0.492], "q_linear": -0.673,
                          "q_sym": [0.492, 0.075], "R": 0.746, "delta": 0.771}
        assert params_fields(section_four_reference())[0] == "section4"


class TestOptimize:
    def test_budget_one_returns_seed(self):
        spec = nu_spec(budget=1, restarts=0)
        result = optimize(spec)
        assert result.best_point == spec.initial_point
        assert result.evaluations_used == 1
        assert result.best_objective == pytest.approx(seed_objective(spec), abs=0)

    def test_determinism(self):
        spec = kappa_spec(budget=150, restarts=2, seed=123)
        a = optimize(spec)
        b = optimize(spec)
        assert a.best_point == b.best_point
        assert a.best_objective == b.best_objective
        assert a.trace == b.trace
        assert a.evaluations_used == b.evaluations_used

    def test_budget_cap_respected(self):
        spec = nu_spec(budget=77, restarts=3)
        assert optimize(spec).evaluations_used <= 77

    def test_no_regression_from_seed_nu(self):
        spec = nu_spec(budget=250, restarts=1)
        result = optimize(spec)
        assert result.best_objective <= seed_objective(spec)

    def test_no_regression_from_seed_kappa(self):
        spec = kappa_spec(budget=250, restarts=1)
        result = optimize(spec)
        assert result.best_objective >= seed_objective(spec)

    def test_trace_is_monotone(self):
        spec = kappa_spec(budget=250, restarts=1)
        result = optimize(spec)
        objectives = [v for _, v in result.trace]
        assert objectives == sorted(objectives)
        indices = [i for i, _ in result.trace]
        assert indices == sorted(indices)

    def test_best_objective_reevaluates(self):
        spec = kappa_spec(budget=200, restarts=1)
        result = optimize(spec)
        params = spec.params_from_vector(result.best_point)
        again = kappa_bound(c1_value(params), params.R)
        assert again == pytest.approx(result.best_objective, abs=1e-12)

    def test_best_point_feasible(self):
        spec = nu_spec(budget=250, restarts=2)
        result = optimize(spec)
        names = spec.vector_names()
        for name, value in zip(names, result.best_point):
            if name in spec.scalar_bounds:
                lo, hi = spec.scalar_bounds[name]
                assert lo <= value <= hi

    def test_frozen_scalars_stay_fixed(self):
        spec = kappa_spec(scalar_bounds={"R": (0.5, 1.0), "delta": (1.0, 1.0)},
                          initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369,
                                         -4.635, 0.746, 1.0),
                          budget=120, restarts=1)
        result = optimize(spec)
        assert result.best_point[-1] == 1.0

    def test_evaluation_failure_at_seed(self):
        # R pinned to an invalid value makes the objective raise immediately
        spec = kappa_spec(scalar_bounds={},
                          initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369,
                                         -4.635, -1.0, 0.771),
                          vary_shapes=False, budget=10, restarts=0)
        with pytest.raises(EvaluationFailureError):
            optimize(spec)

    def test_evaluation_failure_keeps_its_cause(self):
        # the cause was once dropped, and the error named no reason
        spec = nu_spec(initial_point=(1e200, 0.0, 0.492, 0.075, 1.154, 0.617),
                       budget=10)
        with pytest.raises(EvaluationFailureError) as info:
            optimize(spec)
        assert str(info.value) == ("objective failed at the initial point: "
                                   "c evaluated to inf")
        assert isinstance(info.value.__cause__, NonFiniteError)


class TestGridScan:
    def test_requires_frozen_shapes(self):
        with pytest.raises(DimensionTooHighError):
            grid_scan(kappa_spec(), resolution=3)

    def test_dimension_cap(self):
        spec = nu_spec(vary_shapes=False,
                       scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.0)})
        grid_scan(spec, resolution=2)  # two free scalars: fine
        # four would exceed the cap, but only r/R exist here; emulate via kappa
        spec5 = kappa_spec(vary_shapes=False,
                           scalar_bounds={"R": (0.5, 1.0), "delta": (0.5, 1.0)})
        grid_scan(spec5, resolution=2)

    def test_every_point_failing_keeps_the_first_cause(self):
        spec = nu_spec(vary_shapes=False, scalar_bounds={"r": (0.5, 2.0)},
                       initial_point=(1e200, 0.0, 0.492, 0.075, 1.154, 0.617))
        with pytest.raises(EvaluationFailureError,
                           match="every lattice point failed to evaluate: c evaluated "
                                 "to inf") as info:
            grid_scan(spec, resolution=3)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_resolution_one_corners_and_midpoint(self):
        spec = kappa_spec(vary_shapes=False)
        result = grid_scan(spec, resolution=1)
        assert result.evaluations_used == 9  # 3 x 3 lattice of lo/mid/hi

    def test_agrees_with_optimize_on_low_dimensional_slice(self):
        bounds = {"R": (0.65, 0.85), "delta": (0.65, 0.9)}
        scan = grid_scan(kappa_spec(vary_shapes=False, scalar_bounds=bounds),
                         resolution=21)
        opt = optimize(kappa_spec(vary_shapes=False, scalar_bounds=bounds,
                                  budget=400, restarts=2))
        assert opt.best_objective >= scan.best_objective - 5e-4

    def test_nu_slice_contains_reference_point(self):
        bounds = {"r": (1.0, 1.3), "R": (0.5, 0.75)}
        scan = grid_scan(nu_spec(vary_shapes=False, scalar_bounds=bounds),
                         resolution=15)
        seed_nu = seed_objective(nu_spec())
        assert scan.best_objective <= seed_nu + 5e-4
