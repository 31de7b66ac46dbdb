"""Search behaviour: determinism, budget accounting, exact solves, grid oracle."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levbounds import optimizer
from levbounds.optimizer import (MAX_CONDITION, TARGETS, DimensionTooHighError,
                                 EvaluationFailureError, IllPosedSolveError, SearchSpec,
                                 _NuSolve, grid_scan, optimize, params_fields,
                                 search_start)
from levbounds.polyalg import MollifierShape, TwistShape
from levbounds.proportions import (NonFiniteError, SectionFiveParams, SectionFourParams,
                                   c1_value, c_value, kappa_bound, nu_bound)
from levbounds.reference import section_five_reference, section_four_reference

from search_helpers import hold_shapes


def nu_spec(**overrides) -> SearchSpec:
    p4 = section_four_reference()
    fields = dict(
        target="minimize_nu",
        shape_degrees=(2, 2),
        scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.0)},
        theta=1.0,
        initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R),
        budget=300,
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

    @pytest.mark.parametrize("setting, value", [("budget", 2.5), ("budget", True),
                                                ("restarts", 1.5), ("seed", False)])
    def test_integer_settings_must_be_integers(self, setting, value):
        # budget=2.5 once ran 3 evaluations and budget=True ran 1
        with pytest.raises(ValueError, match=rf"^{setting} must be an integer, "
                                             rf"got {re.escape(repr(value))}$"):
            nu_spec(**{setting: value})

    def test_integer_settings_accept_numpy_integers(self):
        assert nu_spec(budget=np.int64(5), seed=np.int32(2)).budget == 5

    @pytest.mark.parametrize("degrees", [(2,), (2, 2, 2), (-1, 2), (2.0, 2)])
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
        # a shape entry, q_linear among them, is free unless held by [v, v];
        # a scalar is free only under bounds with lo < hi
        spec = kappa_spec(scalar_bounds={"R": (0.5, 1.0), "delta": (0.771, 0.771)})
        assert spec.free_indices() == (0, 1, 2, 3, 4, 5, 6)
        bounded = kappa_spec(scalar_bounds={"q_linear": (-1.0, 0.0), "R": (0.5, 1.0)})
        assert bounded.free_indices() == (0, 1, 2, 3, 4, 5, 6)
        assert hold_shapes(bounded).free_indices() == (6,)
        assert nu_spec(scalar_bounds={"r": (0.5, 2.0)}).free_indices() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("start, bounds, twist_free", [
        (0.771, (0.771, 0.771), True),   # held away from 0
        (0.0, (-0.5, 0.5), True),        # moves
        (0.0, (0.0, 0.0), False),        # held at 0
        (0.0, None, False),              # no bounds: stays at 0
    ])
    def test_twist_moves_only_with_delta_or_away_from_zero(self, start, bounds,
                                                           twist_free):
        point = kappa_spec().initial_point[:-1] + (start,)
        spec = kappa_spec(initial_point=point, scalar_bounds={
            "R": (0.5, 1.0), **({"delta": bounds} if bounds else {})})
        twist = {3, 4, 5}
        assert twist & set(spec.free_indices()) == (twist if twist_free else set())

    def test_fields_follow_the_config_section(self):
        section, fields = params_fields(layout_params("maximize_kappa", (3, 2)))
        assert section == "section5"
        assert fields == {"p_shape": [-0.158, 0.25, 0.492], "q_linear": -0.673,
                          "q_sym": [0.492, 0.075], "R": 0.746, "delta": 0.771}
        assert params_fields(section_four_reference())[0] == "section4"


class TestOptimize:
    def test_budget_one_returns_seed(self):
        spec = nu_spec(budget=1)
        result = optimize(spec)
        assert result.best_point == spec.initial_point
        assert result.evaluations_used == 1
        assert result.best_objective == pytest.approx(seed_objective(spec), abs=0)

    def test_determinism(self):
        spec = kappa_spec(budget=150)
        a = optimize(spec)
        b = optimize(spec)
        assert a.best_point == b.best_point
        assert a.best_objective == b.best_objective
        assert a.trace == b.trace
        assert a.evaluations_used == b.evaluations_used

    def test_budget_cap_respected(self):
        spec = nu_spec(budget=77)
        assert optimize(spec).evaluations_used <= 77

    def test_no_regression_from_seed_nu(self):
        spec = nu_spec(budget=250)
        result = optimize(spec)
        assert result.best_objective <= seed_objective(spec)

    def test_no_regression_from_seed_kappa(self):
        spec = kappa_spec(budget=250)
        result = optimize(spec)
        assert result.best_objective >= seed_objective(spec)

    def test_trace_is_monotone(self):
        spec = kappa_spec(budget=250)
        result = optimize(spec)
        objectives = [v for _, v in result.trace]
        assert objectives == sorted(objectives)
        indices = [i for i, _ in result.trace]
        assert indices == sorted(indices)

    def test_best_objective_reevaluates(self):
        spec = kappa_spec(budget=200)
        result = optimize(spec)
        params = spec.params_from_vector(result.best_point)
        again = kappa_bound(c1_value(params), params.R)
        assert again == pytest.approx(result.best_objective, abs=1e-12)

    def test_best_point_feasible(self):
        spec = nu_spec(budget=250)
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
                          budget=120)
        result = optimize(spec)
        assert result.best_point[-1] == 1.0

    def test_evaluation_failure_at_seed(self):
        # R pinned to an invalid value makes the objective raise immediately
        spec = hold_shapes(kappa_spec(scalar_bounds={},
                                      initial_point=(-0.482, -0.392, -0.262, -0.673,
                                                     0.369, -4.635, -1.0, 0.771),
                                      budget=10))
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
    def test_dimension_cap(self):
        spec = hold_shapes(nu_spec(scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.0)}))
        assert grid_scan(spec, resolution=2).evaluations_used == 4
        with pytest.raises(DimensionTooHighError,
                           match=r"^grid_scan supports at most 3 free entries, got 8$"):
            grid_scan(kappa_spec(), resolution=3)

    def test_lattices_exactly_the_free_entries(self):
        # a bounded shape entry is an axis like a scalar; held entries are not
        spec = hold_shapes(nu_spec(scalar_bounds={"R": (0.3, 1.0)}))
        spec = nu_spec(scalar_bounds={**spec.scalar_bounds, "p1_shape[0]": (-0.3, 0.0)})
        assert spec.free_indices() == (0, 5)
        result = grid_scan(spec, resolution=3)
        assert result.evaluations_used == 9
        assert result.best_point[0] in np.linspace(-0.3, 0.0, 3)
        assert result.best_point[1:5] == spec.initial_point[1:5]

    def test_free_entry_without_bounds_is_named(self):
        # grid_scan once refused any spec whose shapes were not frozen
        bounds = dict(hold_shapes(nu_spec(scalar_bounds={"R": (0.3, 1.0)})).scalar_bounds)
        del bounds["p1_shape[1]"], bounds["p2_shape[0]"]
        with pytest.raises(ValueError, match=r"^grid_scan needs bounds on every free "
                                             r"entry, got none on p1_shape\[1\], "
                                             r"p2_shape\[0\]$"):
            grid_scan(nu_spec(scalar_bounds=bounds), resolution=3)

    def test_every_point_failing_keeps_the_first_cause(self):
        spec = hold_shapes(nu_spec(scalar_bounds={"r": (0.5, 2.0)},
                                   initial_point=(1e200, 0.0, 0.492, 0.075, 1.154, 0.617)))
        with pytest.raises(EvaluationFailureError,
                           match="every lattice point failed to evaluate: c evaluated "
                                 "to inf") as info:
            grid_scan(spec, resolution=3)
        assert isinstance(info.value.__cause__, NonFiniteError)

    @pytest.mark.parametrize("resolution", [True, 2.5, 0])
    def test_resolution_must_be_a_positive_integer(self, resolution):
        # True once lattices 3 points per axis, and 2.5 raised numpy's TypeError
        spec = hold_shapes(nu_spec(scalar_bounds={"R": (0.3, 1.0)}))
        with pytest.raises(ValueError, match=rf"^resolution must be an integer >= 1, "
                                             rf"got {re.escape(repr(resolution))}$"):
            grid_scan(spec, resolution)

    def test_resolution_one_corners_and_midpoint(self):
        spec = hold_shapes(kappa_spec())
        result = grid_scan(spec, resolution=1)
        assert result.evaluations_used == 9  # 3 x 3 lattice of lo/mid/hi

    def test_agrees_with_optimize_on_low_dimensional_slice(self):
        bounds = {"R": (0.65, 0.85), "delta": (0.65, 0.9)}
        scan = grid_scan(hold_shapes(kappa_spec(scalar_bounds=bounds)), resolution=21)
        opt = optimize(hold_shapes(kappa_spec(scalar_bounds=bounds, budget=400)))
        assert opt.best_objective >= scan.best_objective - 5e-4

    def test_nu_slice_contains_reference_point(self):
        bounds = {"r": (1.0, 1.3), "R": (0.5, 0.75)}
        scan = grid_scan(hold_shapes(nu_spec(scalar_bounds=bounds)), resolution=15)
        seed_nu = seed_objective(nu_spec())
        assert scan.best_objective <= seed_nu + 5e-4


def criterion_eight_spec(target: str, **overrides) -> SearchSpec:
    """The budget-2000 search of acceptance criterion 8."""
    p4, p5 = section_four_reference(), section_five_reference()
    if target == "minimize_nu":
        fields = dict(target=target, shape_degrees=(2, 2),
                      scalar_bounds={"r": (0.5, 2.0), "R": (0.3, 1.2)},
                      initial_point=(-0.158, 0.25, 0.492, 0.075, p4.r, p4.R))
    else:
        fields = dict(target=target, shape_degrees=(3, 2),
                      scalar_bounds={"R": (0.4, 1.2), "delta": (0.4, 1.2)},
                      initial_point=(-0.482, -0.392, -0.262, -0.673, 0.369, -4.635,
                                     p5.R, p5.delta))
    fields.update(theta=1.0, budget=2000)
    fields.update(overrides)
    return SearchSpec(**fields)


def with_entry(spec: SearchSpec, name: str, value: float, **bounds) -> SearchSpec:
    """spec started with one entry set to value, and bounds replaced by name."""
    point = list(spec.initial_point)
    point[spec.vector_names().index(name)] = value
    merged = {k: v for k, v in {**spec.scalar_bounds, **bounds}.items() if v is not None}
    return replace(spec, initial_point=tuple(point), scalar_bounds=merged)


class TestExactSolves:
    def test_criterion_eight_searches_match_or_beat_nelder_mead(self):
        # the budget-2000 Nelder-Mead these replaced reached these values
        nu = optimize(criterion_eight_spec("minimize_nu"))
        kappa = optimize(criterion_eight_spec("maximize_kappa"))
        assert nu.best_objective <= 0.16782944817108
        assert kappa.best_objective >= 0.93833209946
        assert nu.failures == kappa.failures == ()
        assert nu.evaluations_used < 100 and kappa.evaluations_used < 100

    def test_criterion_eight_searches_take_few_steps(self):
        # golden section took 47 evaluations each and 666 kappa solves
        nu = optimize(criterion_eight_spec("minimize_nu"))
        kappa = optimize(criterion_eight_spec("maximize_kappa"))
        assert nu.evaluations_used <= 25 and kappa.evaluations_used <= 25
        assert kappa.inner_solves <= 400

    @pytest.mark.parametrize("target", TARGETS)
    def test_criterion_eight_optima_pin_no_bound(self, target):
        assert optimize(criterion_eight_spec(target)).pinned == ()

    def test_r_bound_that_cuts_the_optimum_is_reported_pinned(self):
        spec = with_entry(criterion_eight_spec("minimize_nu"), "r", 0.7, r=(0.5, 1.0))
        assert optimize(spec).pinned == (("r", 1.0),)

    @pytest.mark.parametrize("target", TARGETS)
    def test_golden_section_beats_every_point_of_an_R_grid(self, target):
        spec = criterion_eight_spec(target)
        found = optimize(spec).best_objective
        sign = 1.0 if target == "minimize_nu" else -1.0
        for R in np.linspace(*spec.scalar_bounds["R"], 181):
            at_R = optimize(with_entry(spec, "R", float(R), R=None)).best_objective
            assert sign * found <= sign * at_R + 1e-12

    @pytest.mark.parametrize("target, bounds", [("minimize_nu", (0.3, 0.5)),
                                                ("maximize_kappa", (0.4, 0.6))])
    def test_optimum_at_an_end_of_the_R_bounds_is_that_end(self, target, bounds):
        # both profiles are unimodal with their optimum above these bounds
        spec = with_entry(criterion_eight_spec(target), "R", bounds[0], R=bounds)
        result = optimize(spec)
        assert result.best_point[spec.vector_names().index("R")] == bounds[1]
        at_end = optimize(with_entry(spec, "R", bounds[1], R=None))
        assert result.best_objective == pytest.approx(at_end.best_objective, abs=1e-12)

    @pytest.mark.parametrize("hi", [1.0, 0.833])  # 1 / (1 / 0.833) != 0.833
    def test_r_bound_that_cuts_the_optimum_is_pinned(self, hi):
        spec = with_entry(criterion_eight_spec("minimize_nu"), "r", 0.7, r=(0.5, hi))
        result = optimize(spec)
        assert result.best_point[spec.vector_names().index("r")] == hi
        if hi == 1.0:
            assert result.best_objective <= 0.19083094  # Nelder-Mead: 0.19085870

    @pytest.mark.parametrize("target", TARGETS)
    def test_solve_at_a_frozen_R_converges(self, target):
        # one step from the start reaches what golden section found at its R
        spec = criterion_eight_spec(target)
        found = optimize(spec)
        R = found.best_point[spec.vector_names().index("R")]
        at_R = optimize(with_entry(spec, "R", R, R=None))
        assert at_R.evaluations_used == 2
        assert at_R.best_objective == pytest.approx(found.best_objective, abs=1e-12)

    def test_shape_bound_that_cuts_the_optimum_beats_a_scan_of_that_entry(self):
        spec = with_entry(criterion_eight_spec("minimize_nu"), "p1_shape[0]", 0.0,
                          **{"p1_shape[0]": (-0.1, 0.1)})
        result = optimize(spec)
        assert result.best_point[0] == -0.1
        for value in np.linspace(-0.1, 0.1, 21):
            value = float(value)
            fixed = with_entry(spec, "p1_shape[0]", value, **{"p1_shape[0]": (value, value)})
            scanned = optimize(fixed)
            assert scanned.best_point[0] == value
            assert result.best_objective <= scanned.best_objective + 1e-12

    def test_degenerate_shape_bound_takes_the_entry_out_of_the_block(self):
        # fixed like a scalar without bounds: a constant of the quadratic,
        # so the block loses a coordinate and its condition number drops
        # (about 240 here, 836 with the entry kept in the block)
        spec = with_entry(criterion_eight_spec("minimize_nu"), "p1_shape[0]", -0.1,
                          **{"p1_shape[0]": (-0.1, -0.1)})
        assert 0 not in spec.free_indices()
        assert _NuSolve(spec).blocks[0].size == 4
        result = optimize(spec)
        assert result.best_point[0] == -0.1
        assert dict(result.conditions)["mollifier"] < 500.0
        assert "p1_shape[0]" not in dict(result.pinned)

    def test_partly_fixed_twist_keeps_the_fixed_entry(self):
        # q_sym[0] fixed while delta moves: its solve entry is q_sym[0] delta
        spec = with_entry(criterion_eight_spec("maximize_kappa"), "q_sym[0]", 0.369,
                          **{"q_sym[0]": (0.369, 0.369)})
        result = optimize(spec)
        assert result.best_point[4] == 0.369
        assert result.best_point[-1] != spec.initial_point[-1]
        params = spec.params_from_vector(result.best_point)
        assert kappa_bound(c1_value(params), params.R) == result.best_objective
        assert result.best_objective > seed_objective(spec)

    def test_delta_frozen_at_one(self):
        spec = with_entry(criterion_eight_spec("maximize_kappa", budget=1200),
                          "delta", 1.0, delta=(1.0, 1.0))
        result = optimize(spec)
        assert result.best_point[-1] == 1.0
        assert result.best_objective >= 0.842956  # Nelder-Mead: 0.842915

    def test_delta_frozen_at_zero_keeps_the_start_twist(self):
        spec = with_entry(criterion_eight_spec("maximize_kappa"), "delta", 0.0, delta=None)
        result = optimize(spec)
        assert result.best_point[3:6] == spec.initial_point[3:6]
        assert [name for name, _ in result.conditions] == ["mollifier"]
        params = spec.params_from_vector(result.best_point)
        assert kappa_bound(c1_value(params), params.R) == result.best_objective
        assert result.best_objective > seed_objective(spec)

    def test_twist_held_at_delta_zero_is_neither_free_nor_pinned(self):
        # the twist was once listed free here, and q_sym[0], which stays at
        # its start on its lower bound, was reported pinned
        spec = with_entry(criterion_eight_spec("maximize_kappa"), "delta", 0.0,
                          delta=(0.0, 0.0), **{"q_sym[0]": (0.369, 1.0)})
        assert not {3, 4, 5} & set(spec.free_indices())
        result = optimize(spec)
        assert result.best_point[3:6] == spec.initial_point[3:6]
        assert result.pinned == (("R", 1.2),)

    @pytest.mark.parametrize("target", TARGETS)
    def test_seed_and_restarts_change_nothing(self, target):
        a = optimize(criterion_eight_spec(target, seed=0, restarts=0))
        b = optimize(criterion_eight_spec(target, seed=123, restarts=9))
        assert a == b

    @pytest.mark.parametrize("target", TARGETS)
    def test_accounting(self, target):
        result = optimize(criterion_eight_spec(target))
        assert result.inner_solves >= result.evaluations_used - 1
        names = ["mollifier"] + (["twist"] if target == "maximize_kappa" else [])
        assert [name for name, _ in result.conditions] == names
        assert all(1.0 <= cond < MAX_CONDITION for _, cond in result.conditions)


PROFILES = {"parabola": lambda k, m: lambda x: k * (x - m) ** 2,
            "cosh": lambda k, m: lambda x: k * math.cosh(x - m)}


def run_brent(profile: str, k: float, m: float, lo: float, hi: float,
              budget: int) -> list[float]:
    """The points _brent evaluates on the profile over [lo, hi], in order."""
    f, points = PROFILES[profile](k, m), []

    def step(x: float) -> float:
        points.append(x)
        return f(x)
    optimizer._brent(step, lo, hi, lambda: len(points) < budget)
    return points


# the minimizer at lo + at (hi - lo): at < 0 or at > 1 puts it outside
brent_cases = dict(profile=st.sampled_from(sorted(PROFILES)), k=st.floats(0.1, 10.0),
                   at=st.floats(-1.0, 2.0), lo=st.floats(1e-3, 1.0),
                   width=st.floats(0.5, 2.0))
brent_settings = settings(derandomize=True, database=None, deadline=None, max_examples=300)


class TestBrent:
    @brent_settings
    @given(**brent_cases)
    def test_finds_the_minimizer_clipped_to_the_bounds(self, profile, k, at, lo, width):
        # cosh(x - m) == cosh(0) in binary64 for |x - m| < 1.1e-8, so no
        # search locates it closer; widths >= 0.5 keep that under 1e-7 (hi - lo)
        hi = lo + width
        m = lo + at * width
        points = run_brent(profile, k, m, lo, hi, budget=1000)
        assert len(points) < 1000
        assert all(lo <= x <= hi for x in points)
        f = PROFILES[profile](k, m)
        best = min(points, key=f)
        target = min(max(m, lo), hi)
        assert abs(best - target) <= 1e-7 * (hi - lo)
        # nearer than this, cosh(x - m) ties in binary64 next to the end and the
        # best point can stay more than 2 tol + sqrt(eps) off it (seen up to
        # 2.2e-9 (hi - lo) in 20000 random draws); best is still within the
        # tolerance above
        if abs(m - target) > 1e-8 * (hi - lo):
            assert target in points

    def test_end_tried_when_the_bracket_closes_just_off_it(self):
        # the minimum 6e-8 below lo ties cosh in binary64 for the last points,
        # and the bracket once closed at lo + 2.6e-9 without evaluating lo
        lo = 0.015625
        points = run_brent("cosh", 1.0, lo - 6e-8, lo, lo + 1.0, budget=1000)
        assert lo in points

    @brent_settings
    @given(budget=st.integers(0, 60), **brent_cases)
    def test_never_evaluates_past_the_budget_or_the_bounds(self, budget, profile, k, at,
                                                          lo, width):
        hi = lo + width
        points = run_brent(profile, k, lo + at * width, lo, hi, budget)
        assert len(points) <= budget
        assert all(lo <= x <= hi for x in points)


def brute_force_box_minimum(Q, g, lo, hi) -> float:
    """min x'Qx/2 + g'x over the box [lo, hi]^n, from every face's minimizer."""
    n, best = len(g), math.inf
    for faces in itertools.product((lo, None, hi), repeat=n):
        fixed = [i for i in range(n) if faces[i] is not None]
        free = [i for i in range(n) if faces[i] is None]
        x = np.array([0.0 if f is None else f for f in faces])
        if free:
            x[free] = np.linalg.solve(Q[np.ix_(free, free)],
                                      -(g[free] + Q[np.ix_(free, fixed)] @ x[fixed]))
        if np.all((x >= lo - 1e-12) & (x <= hi + 1e-12)):
            best = min(best, 0.5 * x @ Q @ x + g @ x)
    return best


class TestActiveSet:
    def test_box_quadratics_match_a_brute_force_over_faces(self):
        rng = np.random.default_rng(11)
        n = 3
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.r_[-np.ones(n), -np.ones(n)]
        for _ in range(200):
            M = rng.normal(size=(n, n))
            Q = M @ M.T + 0.1 * np.eye(n)
            g = 3.0 * rng.normal(size=n)
            x, pinned = optimizer._minimize(np.linalg.inv(Q), g, A, b,
                                            rng.uniform(-1.0, 1.0, n), "test")
            assert np.all(A @ x >= b - 1e-12)
            assert 0.5 * x @ Q @ x + g @ x <= brute_force_box_minimum(Q, g, -1.0, 1.0) + 1e-12
            assert all(abs(A[i] @ x - b[i]) <= 1e-12 for i in pinned)


class TestIllPosedSolves:
    def block_and_state(self):
        spec = criterion_eight_spec("minimize_nu")
        block = _NuSolve(spec).blocks[0]
        return block, (block.coordinates(np.array(spec.initial_point)), ())

    def test_indefinite_block_fails_loudly(self):
        block, state = self.block_and_state()
        H = np.diag([1.0, 2.0, 3.0, -1.0, 1.0, 1.0])
        with pytest.raises(IllPosedSolveError,
                           match=r"^mollifier block at R = 0\.5 is not positive definite$"):
            block.solve(0.5, H, np.zeros(6), state)

    def test_ill_conditioned_block_fails_loudly(self):
        block, state = self.block_and_state()
        H = np.diag([1.0, 1.0, 1.0, 1e-14, 1.0, 1.0])
        with pytest.raises(IllPosedSolveError, match=r"condition number 1e\+14 > 1e\+12"):
            block.solve(0.5, H, np.zeros(6), state)

    def test_failed_steps_are_counted_and_never_returned(self, fail_solves_above):
        failed = fail_solves_above(0.8)
        result = optimize(criterion_eight_spec("minimize_nu"))
        assert 0 < len(failed) < result.evaluations_used - 1
        assert result.failures == (("IllPosedSolveError", len(failed)),)
        assert result.best_point[-1] <= 0.8

    def test_search_whose_steps_all_failed_raises(self, monkeypatch):
        # it once returned its start point, the failures only counted
        monkeypatch.setattr(optimizer, "MAX_CONDITION", 1.0)
        for target in TARGETS:
            with pytest.raises(EvaluationFailureError, match=r"^all \d+ search steps failed, "
                               r"the first with IllPosedSolveError: ") as info:
                optimize(criterion_eight_spec(target))
            assert isinstance(info.value.__cause__, IllPosedSolveError)


class TestSearchBounds:
    @pytest.mark.parametrize("bounds, message", [
        ({"R": (-1.0, 1.2), "r": (-2.0, 2.0)},
         r"^bounds for 'R' must be >= 1e-06, got \(-1\.0, 1\.2\)$"),
        ({"R": (0.0, 1.2)}, r"^bounds for 'R' must be >= 1e-06"),
        ({"r": (-2.0, 2.0)}, r"^bounds for 'r' must be > 0, got \(-2\.0, 2\.0\)$"),
        ({"r": (0.0, 2.0)}, r"^bounds for 'r' must be > 0"),
        ({"R": (0.3, 400.0)}, r"^bounds for 'R' must be <= 300\.0, got \(0\.3, 400\.0\)$"),
    ])
    def test_bounds_outside_the_domain_rejected(self, bounds, message):
        # they were once accepted and then scored as penalties
        with pytest.raises(ValueError, match=message):
            nu_spec(scalar_bounds=bounds)

    @pytest.mark.parametrize("name, bounds", [("q_sym[0]", (-math.inf, math.inf)),
                                              ("delta", (0.5, math.inf)),
                                              ("R", (math.nan, 1.0))])
    def test_non_finite_bounds_rejected_by_name(self, name, bounds):
        # with delta free, an infinite q_sym[0] bound once reached the
        # active-set solve, which warned of an invalid division
        with pytest.raises(ValueError, match=rf"^bounds for {re.escape(repr(name))} "
                                             rf"must be finite, got \("):
            kappa_spec(scalar_bounds={"R": (0.5, 1.0), "delta": (0.5, 1.0), name: bounds})
