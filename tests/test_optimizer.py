"""Search behaviour: determinism, budget accounting, exact solves, grid oracle."""

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levbounds import kernel, optimizer, proportions
from levbounds.optimizer import (MAX_CONDITION, TARGETS, EvaluationFailureError,
                                 IllPosedSolveError, SearchSpec, _NuSolve, optimize,
                                 params_fields, search_start)
from levbounds.polyalg import MollifierShape, TwistShape
from levbounds.proportions import (NonFiniteError, SectionFiveParams, SectionFourParams,
                                   c1_core, c1_value, c_core, c_value, kappa_bound,
                                   nu_bound)
from levbounds.reference import section_four_reference

from search_helpers import (DimensionTooHighError, grid_scan, hold_shapes, kappa_spec, nu_spec,
                            state_at)


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

    @pytest.mark.parametrize("degrees", [(2,), (2, 2, 2), (-1, 2), (2.0, 2), (True, 2),
                                         (2, False)])
    def test_shape_degrees_must_be_two_counts(self, degrees):
        with pytest.raises(ValueError, match="shape_degrees"):
            nu_spec(shape_degrees=degrees)

    @pytest.mark.parametrize("field, value, message", [
        ("theta", True, "theta must be a finite number, got True"),
        ("theta", math.nan, "theta must be a finite number, got nan"),
        ("r", True, "initial r must be a finite number, got True"),
        ("r", "1.154", "initial r must be a finite number, got '1.154'"),
        ("p1_shape[0]", math.nan, "initial p1_shape[0] must be a finite number, got nan"),
        ("R", math.inf, "initial R must be a finite number, got inf"),
        ("theta", 1.5, "initial point: theta must lie in (0, 1], got 1.5"),
        ("r", 0.0, "initial point: r must be positive, got 0.0"),
        ("R", 400.0, "initial point: R must be <= 300.0, got 400.0"),
        pytest.param("theta", 10**400, "theta = 1.000000e+400 is outside binary64",
                     id="theta-10**400"),
        ("theta", Fraction(10**400), "theta = 1.000000e+400 is outside binary64"),
        pytest.param("r", 10**400, "initial r = 1.000000e+400 is outside binary64",
                     id="r-10**400"),
        ("p1_shape[0]", Fraction(-10**400), "initial p1_shape[0] = -1.000000e+400 is outside "
                                            "binary64"),
    ])
    def test_start_point_checked_by_name(self, field, value, message):
        # each once built a spec: theta = True and a start r of True were
        # searched as 1.0, and the others failed only in optimize, at the
        # start; a value past binary64 raised a bare OverflowError
        spec = nu_spec(scalar_bounds={"R": (0.3, 1.0)})
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            if field == "theta":
                replace(spec, theta=value)
            else:
                with_entry(spec, field, value, R=None)

    @pytest.mark.parametrize("length", [5, 7])
    def test_params_from_vector_checks_the_length(self, length):
        # a 7-entry vector once dropped its extra entry, a 5-entry one
        # raised a bare IndexError
        with pytest.raises(ValueError, match=rf"^vector has {length} entries, expected 6 "
                                             r"\(\('p1_shape\[0\]', .*'R'\)\)$"):
            nu_spec().params_from_vector((0.1,) * length)


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

    @pytest.mark.parametrize("target, degrees", list(NAMES))
    def test_layout_is_kept_and_repeats(self, target, degrees):
        # the layout is formed once per spec: repeated calls agree with the
        # first and with a fresh spec's, and a caller that changes the dict
        # places() hands out changes nothing the spec reads
        params = layout_params(target, degrees)
        shape_degrees, initial = search_start(params)
        fields = dict(target=target, shape_degrees=shape_degrees, scalar_bounds={"R": (0.3, 1.2)},
                      theta=params.theta, initial_point=initial, budget=1)
        spec = SearchSpec(**fields)
        layout = spec.places(), spec.vector_names(), spec.free_indices()
        spec.places()["R"] = spec.places()["R"] + 1
        spec.places().clear()
        for _ in range(3):
            assert (spec.places(), spec.vector_names(), spec.free_indices()) == layout
        fresh = SearchSpec(**fields)
        assert (fresh.places(), fresh.vector_names(), fresh.free_indices()) == layout
        assert spec.params_from_vector(initial) == params

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
        # a start at R = -1 once failed only in optimize, at its first
        # evaluation; the spec now refuses it, and names R
        with pytest.raises(ValueError, match=r"^initial point: R must be >= 1e-06, "
                                             r"got -1\.0$"):
            kappa_spec(scalar_bounds={}, initial_point=(-0.482, -0.392, -0.262, -0.673,
                                                        0.369, -4.635, -1.0, 0.771))

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
    if target == "minimize_nu":
        return nu_spec(**{"scalar_bounds": {"r": (0.5, 2.0), "R": (0.3, 1.2)}, "budget": 2000,
                          **overrides})
    return kappa_spec(**{"scalar_bounds": {"R": (0.4, 1.2), "delta": (0.4, 1.2)},
                         "budget": 2000, **overrides})


def with_entry(spec: SearchSpec, name: str, value: float, **bounds) -> SearchSpec:
    """spec started with one entry set to value, and bounds replaced by name."""
    point = list(spec.initial_point)
    point[spec.vector_names().index(name)] = value
    merged = {k: v for k, v in {**spec.scalar_bounds, **bounds}.items() if v is not None}
    return replace(spec, initial_point=tuple(point), scalar_bounds=merged)


def criterion_nine_spec() -> SearchSpec:
    """The delta = 1 search of acceptance criterion 9."""
    return with_entry(criterion_eight_spec("maximize_kappa", budget=1200), "delta", 1.0,
                      delta=(1.0, 1.0))


class TestResultSlope:
    @pytest.mark.parametrize("spec", [criterion_eight_spec("minimize_nu"),
                                      criterion_eight_spec("maximize_kappa"),
                                      criterion_nine_spec()],
                             ids=["criterion-8 nu", "criterion-8 kappa", "criterion-9"])
    def test_best_step_slope_is_reused(self, monkeypatch, spec):
        # the best step was evaluated with its R slope, which the result
        # keeps: the slope at the best point, bit for bit, and no call to
        # evaluate beyond one per evaluation
        calls = []
        cls = optimizer._SOLVES[spec.target]
        evaluate = cls.evaluate

        def counting(self, state):
            calls.append(tuple(state[0]))
            return evaluate(self, state)

        monkeypatch.setattr(cls, "evaluate", counting)
        result = optimize(spec)
        solver = cls(spec)
        assert result.best_point != spec.initial_point and not result.failures
        best = state_at(solver, np.array(result.best_point))
        assert result.slope == solver.sign * evaluate(solver, best)[1]
        assert len(calls) == result.evaluations_used

    @pytest.mark.parametrize("spec", [criterion_eight_spec("minimize_nu"),
                                      criterion_eight_spec("maximize_kappa"),
                                      criterion_nine_spec()],
                             ids=["criterion-8 nu", "criterion-8 kappa", "criterion-9"])
    def test_node_row_reuse_changes_no_bit(self, monkeypatch, spec):
        # the search reads each R's node rows several times (each point the
        # core forms there, and read), from node_rows' cache: with every
        # point already kept, and with the cache cleared before every read,
        # the result is the same, bit for bit
        def keys(result):
            return (result.best_point, result.best_objective, result.slope, result.conditions,
                    result.inner_solves)

        optimize(spec)
        warm = optimize(spec)

        def cleared(node_rows):
            def rebuilt(*args):
                kernel._node_rows.cache_clear()
                return node_rows(*args)
            return rebuilt

        monkeypatch.setattr(proportions, "node_rows", cleared(proportions.node_rows))
        assert keys(optimize(spec)) == keys(warm)
        assert kernel._node_rows.cache_info().hits == 0

    @pytest.mark.parametrize("target", TARGETS)
    def test_start_slope_is_computed_once(self, monkeypatch, target):
        # the start is evaluated with its slope, like every step: when it
        # stays the best point, the result's slope is the one computed
        # there, once
        calls = []
        cls = optimizer._SOLVES[target]
        evaluate = cls.evaluate

        def counting(self, state):
            calls.append(tuple(state[0]))
            return evaluate(self, state)

        monkeypatch.setattr(cls, "evaluate", counting)
        spec = criterion_eight_spec(target, budget=1)
        result = optimize(spec)
        solver = cls(spec)
        assert calls == [spec.initial_point]
        start = state_at(solver, np.array(spec.initial_point))
        assert result.slope == solver.sign * evaluate(solver, start)[1]


class TestSolveTable:
    def test_one_solve_class_per_target(self):
        assert set(optimizer._SOLVES) == set(TARGETS)

    @pytest.mark.parametrize("target", TARGETS)
    def test_both_routes_report_the_start_bound_in_its_sign(self, target):
        # with every entry held, optimize and grid_scan evaluate the start
        # only, and each undoes the solve's sign on the bound and the trace
        spec = criterion_eight_spec(target, budget=1)
        held = {name: (x, x) for name, x in zip(spec.vector_names(), spec.initial_point)}
        spec = replace(spec, scalar_bounds=held)
        assert spec.free_indices() == ()
        bound = seed_objective(spec)
        for result in optimize(spec), grid_scan(spec, resolution=1):
            assert result.best_objective == bound
            assert result.trace == ((1, bound),)
            assert result.best_point == spec.initial_point


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
        # golden section took 47 evaluations each and 666 kappa solves, the
        # block alternation 262 kappa solves, and Brent's method 15
        # evaluations each; Newton needs no sweep here
        nu = optimize(criterion_eight_spec("minimize_nu"))
        kappa = optimize(criterion_eight_spec("maximize_kappa"))
        assert nu.evaluations_used <= 8 and kappa.evaluations_used <= 8
        assert kappa.inner_solves <= 15
        assert nu.fallbacks == kappa.fallbacks == 0

    @pytest.mark.parametrize("target", TARGETS)
    def test_criterion_eight_optima_pin_no_bound(self, target):
        # and are stationary in R: the slope there is about 1e-10
        result = optimize(criterion_eight_spec(target))
        assert result.pinned == ()
        assert abs(result.slope) <= 1e-6

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
        # the R slope points out of the bounds: the target improves past hi
        assert (-result.slope if target == "minimize_nu" else result.slope) > 1e-3
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
        assert _NuSolve(spec).map.N.shape[1] == 4
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

    @pytest.mark.parametrize("held, names", [("p_shape", ["twist"]), ("delta", ["mollifier"]),
                                             ("nu_shapes", [])],
                             ids=["p_shape", "delta", "nu_shapes"])
    def test_held_block_is_never_solved(self, held, names):
        # a block whose every entry is held has no coordinates: it is never
        # solved and has no condition number, so with one block moving each
        # step is one solve, without alternating, and with none it is none
        spec = criterion_eight_spec("minimize_nu" if held == "nu_shapes" else "maximize_kappa")
        if held == "p_shape":
            spec = replace(spec, scalar_bounds={**spec.scalar_bounds, **{
                f"p_shape[{j}]": (v, v) for j, v in enumerate(spec.initial_point[:3])}})
        elif held == "delta":
            spec = with_entry(spec, "delta", 0.0, delta=(0.0, 0.0))
        else:
            spec = with_entry(hold_shapes(spec), "r", spec.initial_point[4], r=None)
        result = optimize(spec)
        steps = result.evaluations_used - 1
        assert steps > 0 and result.failures == ()
        assert result.inner_solves == len(names) * steps
        assert [name for name, _ in result.conditions] == names

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


END_CUTS = {"minimize_nu": [(0.3, 0.5, 0.5), (0.9, 1.5, 0.9), (0.4, 0.6, 0.6),
                            (0.7, 0.72, 0.7)],
            "maximize_kappa": [(0.3, 0.5, 0.5), (0.9, 1.5, 0.9), (0.4, 0.6, 0.6),
                               (0.7, 0.72, 0.72)]}  # (lo, hi, the end that cuts)


def solved_profile(spec: SearchSpec):
    """The solve of spec and its solved state at a given R, each solve
    started from the start's state."""
    solver = optimizer._SOLVES[spec.target](spec)
    start = state_at(solver, np.array(spec.initial_point))
    return solver, lambda R: solver.solve(R, start)


class TestRSlope:
    @pytest.mark.parametrize("case", ["nu", "kappa", "nu, r on its bound",
                                      "kappa, delta on its bound"])
    def test_slope_matches_central_differences_of_the_solved_profile(self, case):
        # at a solved point the slope at fixed shapes is the slope of the
        # solved profile (the envelope theorem), active bound rows included;
        # Richardson's extrapolation of central differences measures it
        target = "minimize_nu" if case.startswith("nu") else "maximize_kappa"
        spec = criterion_eight_spec(target)
        if case == "nu, r on its bound":
            spec, held = with_entry(spec, "r", 0.7, r=(0.5, 1.0)), ("r", 1.0)
        elif case == "kappa, delta on its bound":
            spec, held = with_entry(spec, "delta", 0.6, delta=(0.4, 0.6)), ("delta", 0.6)
        else:
            held = None
        solver, at = solved_profile(spec)

        def difference(R, h):
            return (solver.evaluate(at(R + h))[0] - solver.evaluate(at(R - h))[0]) / (2.0 * h)

        # each R at least 0.05 from the profile's optimum, where the slope is
        # not small; at most 5.3e-7 off (kappa at 0.8: the solve's own
        # convergence, as a warm-started solve there moves the slope as much)
        for R in (0.42, 0.5, 0.8, 0.9, 1.0, 1.1):
            state = at(R)
            if held:
                assert state[0][spec.vector_names().index(held[0])] == held[1]
            h = 2e-3
            measured = (4.0 * difference(R, h / 2.0) - difference(R, h)) / 3.0
            assert solver.evaluate(state)[1] == pytest.approx(measured, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("target, lo, hi, end",
                             [(t, *cut) for t, cuts in END_CUTS.items() for cut in cuts])
    @pytest.mark.parametrize("start", ["lo", "mid", "hi"])
    def test_a_bound_that_cuts_the_optimum_is_reached_in_few_evaluations(
            self, target, lo, hi, end, start):
        # Brent's method took 31 to 38 evaluations on each of these; the
        # slope sends a step past a bound to that bound, where it stops
        R = {"lo": lo, "mid": 0.5 * (lo + hi), "hi": hi}[start]
        result = optimize(with_entry(criterion_eight_spec(target), "R", R, R=(lo, hi)))
        assert result.pinned == (("R", end),)
        assert result.evaluations_used <= 8


# (target, entry, start value, bounds with "b" at the bound that cuts the
# optimum, and that bound): each bound row kind, a scalar (r as 1/r, so
# both of its rows, and delta) and a shape entry, under or over its row
SHADOW_CASES = [("minimize_nu", "r", 0.7, (0.5, "b"), 1.0),
                ("minimize_nu", "r", 1.5, ("b", 2.0), 1.3),
                ("minimize_nu", "p1_shape[0]", -0.3, (-0.5, "b"), -0.2),
                ("minimize_nu", "p2_shape[1]", 0.4, ("b", 0.5), 0.3),
                ("maximize_kappa", "delta", 0.5, (0.4, "b"), 0.6),
                ("maximize_kappa", "p_shape[1]", 0.2, ("b", 0.5), 0.0)]


class TestShadowPrices:
    @pytest.mark.parametrize("target, name, start, bounds, bound", SHADOW_CASES)
    def test_price_matches_central_differences_of_the_solved_profile(
            self, target, name, start, bounds, bound):
        # the price of a pinned entry is d objective / d bound along the
        # profile solved at fixed R (the envelope theorem, as for the R
        # slope); Richardson's extrapolation of central differences
        # measures it
        def solved(at):
            spec = with_entry(criterion_eight_spec(target), name, start, **{
                name: tuple(at if b == "b" else b for b in bounds)})
            solver, profile = solved_profile(spec)
            return solver, profile(0.7)

        def difference(h):
            (a, sa), (b, sb) = solved(bound + h), solved(bound - h)
            return (a.sign * a.evaluate(sa)[0] - b.sign * b.evaluate(sb)[0]) / (2.0 * h)

        solver, state = solved(bound)
        assert state[0][solver.spec.vector_names().index(name)] == bound
        h = 2e-3
        measured = (4.0 * difference(h / 2.0) - difference(h)) / 3.0
        # at most 8.2e-7 off (kappa's p_shape[1]: the joint solve's own
        # convergence, as for the R slope)
        assert solver.read(state, {name: bound})[1] == {
            name: pytest.approx(measured, rel=1e-6, abs=0.0)}

    def test_search_prices_each_pinned_entry(self):
        # one price per pinned entry, by name, each a Python float; R's is
        # the R slope
        spec = with_entry(with_entry(criterion_eight_spec("minimize_nu"), "r", 0.7, r=(0.5, 1.0)),
                          "R", 0.45, R=(0.3, 0.5))
        result = optimize(spec)
        assert [name for name, _ in result.pinned] == ["R", "r"]
        prices = dict(result.shadow)
        assert list(prices) == ["R", "r"] and prices["R"] == result.slope
        solver = optimizer._SOLVES[spec.target](spec)
        v = np.array(result.best_point)
        assert prices["r"] == solver.read(state_at(solver, v), dict(result.pinned))[1]["r"] < 0.0
        # a shape entry under a free scale, 1/r
        shape = optimize(with_entry(criterion_eight_spec("minimize_nu"), "p2_shape[1]", 0.4,
                                    **{"p2_shape[1]": (0.3, 0.5)}))
        assert dict(shape.pinned) == {"p2_shape[1]": 0.3}
        assert dict(shape.shadow)["p2_shape[1]"] > 0.0
        assert all(type(p) is float for _, p in result.shadow + shape.shadow)
        assert optimize(criterion_eight_spec("minimize_nu")).shadow == ()

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_a_row_a_step_releases_has_no_price(self, r):
        # r on a bound away from its optimum of about 1.15: nu falls into
        # the bounds there, as a step from there leaves the bound, so r's
        # price is 0, and a search that stops there (budget 1) reads 0
        spec = with_entry(criterion_eight_spec("minimize_nu"), "r", r)
        solver, v = solved_profile(spec)[0], np.array(optimize(spec).best_point)
        assert solver.read(state_at(solver, np.r_[v[:4], r, v[5:]]), {"r": r})[1] == {"r": 0.0}
        assert optimize(replace(spec, budget=1)).shadow == (("r", 0.0),)


def drawn_points(target: str) -> list[np.ndarray]:
    """Six vectors about the criterion-8 start of target, the shapes moved
    and the scalars drawn inside their bounds; the same on every call."""
    rng, v0 = np.random.default_rng(8), np.array(criterion_eight_spec(target).initial_point)
    points = []
    for _ in range(6):
        if target == "maximize_kappa":
            v = v0 + np.r_[rng.normal(scale=0.3, size=6), 0.0, 0.0]
            v[6:] = rng.uniform(0.4, 1.2, size=2)  # R and delta
        else:
            v = v0 + np.r_[rng.normal(scale=0.3, size=4), 0.0, 0.0]
            v[4:] = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)  # r and R
        points.append(v)
    return points


def sweeps_spec() -> SearchSpec:
    """Degrees (9, 3) at delta = 1: the joint Hessian fails the condition
    gate, and per-block sweeps replace each joint step."""
    return SearchSpec(target="maximize_kappa", shape_degrees=(9, 3),
                      scalar_bounds={"R": (0.3, 1.5)}, theta=1.0, budget=2000,
                      initial_point=(-0.482, -0.392, -0.262, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                     -0.673, 0.369, -4.635, 0.0, 0.746, 1.0))


def zero_delta_spec() -> SearchSpec:
    """delta from -0.02 under bounds (-1, 1.2): its side-of-zero row pins it
    at 0, where the twist q = v / delta cannot be written."""
    return with_entry(criterion_eight_spec("maximize_kappa"), "delta", -0.02, delta=(-1.0, 1.2))


class TestEvaluate:
    @pytest.mark.parametrize("target", TARGETS)
    def test_slope_off_a_solved_point_is_the_R_partial_with_the_shapes_held(self, target):
        # at the start and at points no solve returned, the slope is
        # d objective / dR with every other entry held; Richardson's
        # extrapolation of central differences measures it
        spec = criterion_eight_spec(target)
        solver, R_at = optimizer._SOLVES[target](spec), spec.places()["R"]
        for v in [np.array(spec.initial_point)] + drawn_points(target):
            def objective(R):
                moved = v.copy()
                moved[R_at] = R
                return solver.evaluate(state_at(solver, moved))[0]

            def difference(h):
                return (objective(v[R_at] + h) - objective(v[R_at] - h)) / (2.0 * h)

            h = 2e-3
            measured = (4.0 * difference(h / 2.0) - difference(h)) / 3.0
            assert solver.evaluate(state_at(solver, v))[1] == pytest.approx(measured, rel=1e-6,
                                                                           abs=0.0)

    @pytest.mark.parametrize("spec, vector, matrix", [
        (criterion_eight_spec("minimize_nu"), 12, 8),
        (criterion_eight_spec("maximize_kappa"), 18, 8),
        (criterion_nine_spec(), 42, 14), (sweeps_spec(), 214, 20)],
        ids=["criterion-8 nu", "criterion-8 kappa", "criterion-9", "(9,3) sweeps"])
    def test_a_search_forms_each_points_factors_once(self, spec, vector, matrix, monkeypatch):
        # each point's factors are formed once, one vector row per block:
        # the start's, which its evaluation and the first solve, at the
        # start's R, both read; in each later solve the point it starts
        # from at its R; and every state a step returns (as
        # test_a_solve_forms_each_points_factors_once counts them), the last
        # of which the step's evaluation reads.  Each solve forms N's column
        # factors, one matrix row per block, and read forms the columns once
        # more from the best state's formation.  The first solve's entry and
        # the best point were once formed twice: 16, 22, 46 and 218 vector
        # rows
        formed, solves, steps = [], [], []
        basis_products, solve, step = (kernel.basis_products, optimizer._Solve.solve,
                                       optimizer._Solve.step)

        def counting(n, u, twist=False):
            formed.append(np.ndim(u))
            return basis_products(n, u, twist)

        def counted_solve(self, *args):
            solves.append(len(self.map.moving))
            return solve(self, *args)

        def counted_step(self, *args):
            steps.append(step(self, *args))
            return steps[-1]

        monkeypatch.setattr(kernel, "basis_products", counting)
        monkeypatch.setattr(optimizer, "basis_products", counting)
        monkeypatch.setattr(optimizer._Solve, "solve", counted_solve)
        monkeypatch.setattr(optimizer._Solve, "step", counted_step)
        optimize(spec)
        assert formed.count(1) == 2 * (len(solves) + len(steps)) == vector
        assert formed.count(2) == 2 * (len(solves) + 1) == matrix


class TestSolvedStates:
    @pytest.mark.parametrize("spec", [
        criterion_eight_spec("minimize_nu"), criterion_eight_spec("maximize_kappa"),
        criterion_nine_spec(), sweeps_spec(), zero_delta_spec()],
        ids=["criterion-8 nu", "criterion-8 kappa", "criterion-9", "(9,3) sweeps", "zero delta"])
    def test_a_solved_state_is_its_public_vector(self, spec, monkeypatch):
        # each state a solve returns comes with the core's formation at its
        # public vector: that vector, evaluated afresh, gives the state's
        # constant and objective bit for bit, and the search's best
        # objective is one of those.  With coordinates kept across steps
        # the solve once compared a c1 of its own, 2.358 with delta pinned
        # on 0, where its vector read 4.366
        cls = optimizer._SOLVES[spec.target]
        solve, returned = cls.solve, []

        def recorded(self, R, state):
            returned.append(solve(self, R, state))
            return returned[-1]

        monkeypatch.setattr(cls, "solve", recorded)
        result = optimize(spec)
        solver, objectives = cls(spec), set()
        for state in returned:
            v, _, formed = state
            assert np.isfinite(v).all()
            assert solver.form(v)[0] == formed[0]
            assert solver.evaluate(state_at(solver, v)) == solver.evaluate(state)
            objectives.add(solver.sign * solver.evaluate(state)[0])
        assert result.best_point != spec.initial_point and not result.failures
        assert result.best_objective in objectives


class TestFormations:
    @staticmethod
    def count_forms(cls, monkeypatch) -> tuple[list[str], list[str]]:
        """Install a counting form on cls; returns the list that names,
        per formation, the method that asked for it, and the list that names
        each call of solve, step or read that returned."""
        form, calls, done, inside = cls.form, [], [], ["optimize"]

        def counted_form(self, v):
            calls.append(inside[-1])
            return form(self, v)

        def within(name):
            method = getattr(cls, name)

            def counted(self, *args):
                inside.append(name)
                try:
                    out = method(self, *args)
                finally:
                    inside.pop()
                done.append(name)
                return out
            monkeypatch.setattr(cls, name, counted)

        monkeypatch.setattr(cls, "form", counted_form)
        for name in ("solve", "step", "read"):
            within(name)
        return calls, done

    @pytest.mark.parametrize("spec", [
        criterion_eight_spec("minimize_nu"), criterion_eight_spec("maximize_kappa"),
        criterion_nine_spec(), sweeps_spec(), zero_delta_spec()],
        ids=["criterion-8 nu", "criterion-8 kappa", "criterion-9", "(9,3) sweeps", "zero delta"])
    def test_a_search_forms_each_point_once(self, spec, monkeypatch):
        # one formation for the start, one for each solve whose R moves its
        # state's vector, and one for each step that returns (an ill-posed
        # one raises before it writes a vector); the first solve sits at the
        # start's R and forms none.  The first solve's entry and the best
        # point were once formed a second time
        cls, moved = optimizer._SOLVES[spec.target], []
        (calls, done), solve = self.count_forms(cls, monkeypatch), cls.solve

        def recorded(self, R, state):
            moved.append(bool(state[0][self.R_at] != R))
            return solve(self, R, state)

        monkeypatch.setattr(cls, "solve", recorded)
        result = optimize(spec)
        assert not result.failures and moved[0] is False
        assert len(calls) == 1 + sum(moved) + done.count("step")
        assert calls.count("step") == done.count("step")
        assert calls.count("solve") == sum(moved)

    @pytest.mark.parametrize("target", TARGETS)
    def test_read_forms_nothing(self, target, monkeypatch):
        # read models the best state from the formation its evaluation read
        calls, done = self.count_forms(optimizer._SOLVES[target], monkeypatch)
        result = optimize(criterion_eight_spec(target))
        assert done.count("read") == 1 and result.conditions
        assert "read" not in calls

    @pytest.mark.parametrize("target", TARGETS)
    def test_at_budget_one_the_start_is_formed_once(self, target, monkeypatch):
        # the start's one formation serves its evaluation and read
        cls = optimizer._SOLVES[target]
        (calls, _), states = self.count_forms(cls, monkeypatch), []
        for name in ("evaluate", "read"):
            def kept(self, state, *args, _method=getattr(cls, name)):
                states.append(state)
                return _method(self, state, *args)
            monkeypatch.setattr(cls, name, kept)
        result = optimize(criterion_eight_spec(target, budget=1))
        assert calls == ["optimize"]
        assert len(states) == 2 and states[0][2] is states[1][2]
        assert result.best_point == tuple(states[0][0]) and result.conditions


class TestNewtonSolve:
    @staticmethod
    def check_model(target, core):
        """At six drawn vectors the model built from the core's formation
        matches the central differences, in the map's coordinates, of the
        core's constant at the public vector the coordinates write; the
        constant is quadratic in each block, so every central difference is
        exact up to rounding, whatever the step."""
        spec = criterion_eight_spec(target)
        solver = optimizer._SOLVES[target](spec)
        for v in drawn_points(target):
            formed, x = solver.form(v), solver.map.coordinates(v)
            gradient, hessian = solver.model(solver.columns(formed[1]), formed)

            def constant(x):
                out = v.copy()
                solver.map.write(x, (), out)
                return core(out)

            assert formed[0] == core(v)
            assert constant(x) == pytest.approx(core(v), rel=1e-13)
            E = np.diag(1e-2 * (1.0 + np.abs(x)))
            fd_gradient = [(constant(x + e) - constant(x - e)) / (2.0 * e[i])
                           for i, e in enumerate(E)]
            fd_hessian = [[(constant(x + a + b) - constant(x + a - b) - constant(x - a + b)
                            + constant(x - a - b)) / (4.0 * a[i] * b[j])
                           for j, b in enumerate(E)] for i, a in enumerate(E)]
            np.testing.assert_allclose(fd_gradient, gradient, rtol=1e-6, atol=0.0)
            np.testing.assert_allclose(fd_hessian, hessian, rtol=1e-6, atol=0.0)

    def test_gradient_and_hessian_match_central_differences_of_c1(self):
        self.check_model("maximize_kappa", lambda v: c1_core(v[:3], v[3:6], 1.0, v[6], v[7]))

    def test_gradient_and_hessian_match_central_differences_of_c(self):
        self.check_model("minimize_nu", lambda v: c_core(v[:2], v[2:4], 1.0, v[4], v[5]))

    @pytest.mark.parametrize("spec", [
        criterion_eight_spec("minimize_nu"), criterion_eight_spec("maximize_kappa"),
        sweeps_spec()], ids=["criterion-8 nu", "criterion-8 kappa", "(9,3) sweeps"])
    def test_a_solve_forms_each_points_factors_once(self, spec, monkeypatch):
        # N's column factors are fixed at R: one solve(R) forms them once,
        # one basis product per block of a matrix row.  Each point's factors
        # are formed once, by the core at its public vector, each from one
        # vector row per block: the start state's, at the solve's own R, so
        # that the solve forms no entry point and the first step's model and
        # constant both read it, and those of every state a step
        # returns (a joint step's trial, read for its constant and, once
        # accepted, for the next step's model, each state of a sweep, and
        # the one state of a one-block solve), the last of which the
        # search's evaluation reads.  The criterion-8 kappa solve takes two
        # joint steps, the (9,3) one 11 sweeps in place of ill-posed joint
        # steps: 22 steps and 23 points
        solver = optimizer._SOLVES[spec.target](spec)
        formed, steps = [], []
        basis_products, step = kernel.basis_products, solver.step

        def counting(n, u, twist=False):
            formed.append(np.ndim(u))
            return basis_products(n, u, twist)

        def counted(*args):
            steps.append(step(*args))
            return steps[-1]

        monkeypatch.setattr(kernel, "basis_products", counting)
        monkeypatch.setattr(optimizer, "basis_products", counting)
        monkeypatch.setattr(solver, "step", counted)
        start = state_at(solver, np.array(spec.initial_point))
        solver.solve(start[0][solver.R_at], start)
        assert formed.count(2) == 2
        assert formed.count(1) == 2 * (1 + len(steps))
        assert (solver.fallbacks > 0) == (spec.shape_degrees == (9, 3))

    def test_pinned_delta_takes_no_fallback(self):
        # the steps minimize the model under the bound rows, so delta stays
        # pinned on its bound; a Newton step that ignored the rows left them
        # and fell back to a sweep of the blocks: 93 solves, 31 fallbacks
        spec = with_entry(criterion_eight_spec("maximize_kappa"), "delta", 0.6,
                          delta=(0.4, 0.6))
        result = optimize(spec)
        assert result.pinned == (("delta", 0.6),)
        assert result.fallbacks == 0 and result.failures == ()
        assert result.inner_solves <= 20
        # with delta frozen at 0.6 and q free, both blocks move and take
        # joint steps, which likewise need no sweep
        frozen = optimize(with_entry(spec, "delta", 0.6, delta=None))
        assert frozen.fallbacks == 0 and frozen.failures == ()

    def test_delta_pinned_on_zero_holds_the_twist(self):
        # delta's side-of-zero row pins it on 0, where q = v / delta cannot
        # move: the twist block is held from there on, so no joint step
        # predicts a move its vector cannot carry.  Every joint step was
        # once rejected for that: 22 solves and 7 fallbacks in 4 evaluations
        spec = zero_delta_spec()
        result = optimize(spec)
        assert result.fallbacks == 0 and result.failures == ()
        assert result.best_point[-1] == 0.0
        assert result.best_point[3:6] == spec.initial_point[3:6]
        assert result.inner_solves <= result.evaluations_used

    def test_pinned_delta_matches_a_frozen_delta(self):
        # at 0.74 both searches agree to about 2e-14; at 0.6 the objective's
        # rounding there moves either search by about 1e-12
        spec = with_entry(criterion_eight_spec("maximize_kappa"), "delta", 0.74,
                          delta=(0.4, 0.74))
        result = optimize(spec)
        assert result.pinned == (("delta", 0.74),)
        frozen = optimize(with_entry(spec, "delta", 0.74, delta=None))
        assert result.fallbacks == 0 and frozen.fallbacks == 0
        assert result.best_objective == pytest.approx(frozen.best_objective, abs=1e-12)

    def test_shape_bound_that_cuts_the_kappa_optimum_is_pinned(self):
        # q_sym[1] would move below -4.635; with its row active from the
        # first step no step falls back, where Newton steps off the rows
        # took 105 solves, 35 of them in fallbacks
        spec = criterion_eight_spec("maximize_kappa")
        spec = replace(spec, scalar_bounds={**spec.scalar_bounds, "q_sym[1]": (-4.7, -4.635)})
        result = optimize(spec)
        assert result.pinned == (("q_sym[1]", -4.635),)
        assert result.fallbacks == 0 and result.failures == ()
        assert result.inner_solves <= 15
        held = replace(spec, scalar_bounds={**spec.scalar_bounds, "q_sym[1]": (-4.635, -4.635)})
        assert result.best_objective == pytest.approx(optimize(held).best_objective, abs=1e-12)

    def test_a_block_step_keeps_the_other_blocks_pins(self):
        # in a sweep, the twist step leaves the mollifier's pinned row, so
        # p_shape[0] is still written exactly on its bound
        spec = criterion_eight_spec("maximize_kappa")
        spec = replace(spec, scalar_bounds={**spec.scalar_bounds, "p_shape[0]": (-0.6, -0.482)})
        solver = optimizer._KappaSolve(spec)

        def model(state):
            return solver.model(solver.columns(state[2][1]), state[2])

        start = state_at(solver, np.array(spec.initial_point))
        mollifier, _ = solver.step(model(start), start, "mollifier")
        assert [solver.map.pins[i] for i in mollifier[1]] == [(0, -0.482)]
        twist, _ = solver.step(model(mollifier), mollifier, "twist")
        assert twist[1] == mollifier[1]
        assert twist[0][0] == -0.482

    def test_every_step_ill_posed_still_fails_the_search(self):
        # degree (6, 5) at delta = 1: the joint Hessian fails the condition
        # gate, and the sweep in its place raises on the twist block
        spec = SearchSpec(target="maximize_kappa", shape_degrees=(6, 5),
                          scalar_bounds={"R": (0.3, 1.5)}, theta=1.0, budget=2000,
                          initial_point=(-0.482, -0.392, -0.262, 0.0, 0.0, 0.0,
                                         -0.673, 0.369, -4.635, 0.0, 0.0, 0.0, 0.746, 1.0))
        with pytest.raises(EvaluationFailureError, match=r"^all \d+ search steps failed, "
                           r"the first with IllPosedSolveError: twist block at R = ") as info:
            optimize(spec)
        assert isinstance(info.value.__cause__, IllPosedSolveError)

    def test_criterion_nine_needs_fewer_solves_than_the_alternation(self):
        # the block alternation took 144 solves; 0.8429568946914794 is kappa
        # at the 40-digit c1 of the returned point (the earlier Leibniz-table
        # core, off by about 3.5e-12 here, read 0.8429568946949437)
        spec = with_entry(criterion_eight_spec("maximize_kappa", budget=1200),
                          "delta", 1.0, delta=(1.0, 1.0))
        result = optimize(spec)
        assert result.best_objective == pytest.approx(0.8429568946914794, abs=1e-12)
        assert result.inner_solves < 144


PROFILES = {"parabola": lambda k, m: (lambda x: k * (x - m) ** 2, lambda x: 2.0 * k * (x - m)),
            "cosh": lambda k, m: (lambda x: k * math.cosh(x - m), lambda x: k * math.sinh(x - m))}


def run_search(profile: str, k: float, m: float, lo: float, hi: float, start: float,
               budget: int) -> list[float]:
    """The points _search evaluates on the profile over [lo, hi] from
    lo + start (hi - lo), in order."""
    (f, slope), points = PROFILES[profile](k, m), []

    def step(x: float) -> tuple[float, float]:
        points.append(x)
        return f(x), slope(x)
    optimizer._search(step, lo, hi, min(lo + start * (hi - lo), hi),
                      lambda: len(points) < budget)
    return points


# the minimizer at lo + at (hi - lo): at < 0 or at > 1 puts it outside
search_cases = dict(profile=st.sampled_from(sorted(PROFILES)), k=st.floats(0.1, 10.0),
                    at=st.floats(-1.0, 2.0), lo=st.floats(1e-3, 1.0),
                    width=st.floats(0.5, 2.0), start=st.floats(0.0, 1.0))
search_settings = settings(derandomize=True, database=None, deadline=None, max_examples=300)


class TestHermite:
    def test_a_quadratics_minimizer_is_reproduced(self):
        # (x - 0.3)^2 from its values and slopes at 0 and 1, in either order
        older, newer = (0.0, 0.09, -0.6), (1.0, 0.49, 1.4)
        assert optimizer._hermite(older, newer) == pytest.approx(0.3, rel=0.0, abs=1e-15)
        assert optimizer._hermite(newer, older) == pytest.approx(0.3, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("newer", [(1.0, 2.0 / 3.0, 1.0), (1.0, 0.0, -1.0)],
                             ids=["no real stationary point", "zero denominator"])
    def test_no_minimizer_is_none(self, newer):
        assert optimizer._hermite((0.0, 0.0, 1.0), newer) is None


class TestRSearch:
    @search_settings
    @given(**search_cases)
    def test_finds_the_minimizer_clipped_to_the_bounds(self, profile, k, at, lo, width,
                                                       start):
        # cosh(x - m) == cosh(0) in binary64 for |x - m| < 1.1e-8, so the best
        # value ties there; widths >= 0.5 keep that under 1e-7 (hi - lo)
        hi = lo + width
        m = lo + at * width
        points = run_search(profile, k, m, lo, hi, start, budget=1000)
        assert len(points) < 1000
        assert all(lo <= x <= hi for x in points)
        f = PROFILES[profile](k, m)[0]
        best = min(points, key=f)
        target = min(max(m, lo), hi)
        assert abs(best - target) <= 1e-7 * (hi - lo)
        # an end that is the minimizer is evaluated: the slope there points
        # out of the bounds, and a step past an end goes to it
        if abs(m - target) > 1e-8 * (hi - lo):
            assert target in points

    def test_end_tried_when_the_bracket_closes_just_off_it(self):
        # the minimum 6e-8 below lo ties cosh in binary64 next to lo, and
        # Brent's bracket once closed at lo + 2.6e-9 without evaluating lo;
        # the slope there still points out of the bounds
        lo = 0.015625
        points = run_search("cosh", 1.0, lo - 6e-8, lo, lo + 1.0, 0.5, budget=1000)
        assert lo in points

    @search_settings
    @given(budget=st.integers(0, 60), **search_cases)
    def test_never_evaluates_past_the_budget_or_the_bounds(self, budget, profile, k, at,
                                                          lo, width, start):
        hi = lo + width
        points = run_search(profile, k, lo + at * width, lo, hi, start, budget)
        assert len(points) <= budget
        assert all(lo <= x <= hi for x in points)


@st.composite
def map_specs(draw):
    """A search spec for the solve map: shape degrees 0-4 (q_sym 0-3), each
    shape entry free, held by [v, v] or boxed, r and delta each free or
    held, delta starting at 0, below it or above it, R always bounded."""
    target = draw(st.sampled_from(TARGETS))
    degrees = (draw(st.integers(0, 4)), draw(st.integers(0, 4 if target == "minimize_nu" else 3)))

    def signed(top):  # 0 or at least 1e-3 in size: no product s c underflows
        return st.just(0.0) | st.floats(1e-3, top) | st.floats(-top, -1e-3)

    scalar = {"r": st.floats(0.5, 2.0), "R": st.floats(0.3, 1.2), "delta": signed(1.5)}
    widths = st.sampled_from([0.0, 0.25, 1.0])
    size = sum(degrees) + (2 if target == "minimize_nu" else 3)  # (r, R) or (q_linear, R, delta)
    layout = SearchSpec(target=target, shape_degrees=degrees, scalar_bounds={}, theta=1.0,
                        initial_point=(1.0,) * size, budget=1)
    start, bounds = [], {}
    for name in layout.vector_names():
        if name in scalar:
            v = draw(scalar[name])
            if name == "R" or draw(st.booleans()):  # free: v inside, possibly on a bound
                lo, hi = v - draw(widths) * abs(v) / 2.0, v + draw(widths) * abs(v)
                bounds[name] = ((0.3, 1.2) if name == "R" else (lo, hi) if lo < hi
                                else (lo, v + 1.0))
            elif draw(st.booleans()):
                bounds[name] = (v, v)
        else:
            v = draw(signed(2.0))
            kind = draw(st.sampled_from(["free", "held", "boxed"]))
            if kind != "free":
                bounds[name] = (v, v) if kind == "held" else (v - draw(widths), v + draw(widths))
        start.append(v)
    return replace(layout, scalar_bounds=bounds, initial_point=tuple(start))


class TestMap:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(spec=map_specs())
    def test_the_map_at_the_start_state(self, spec):
        solver = optimizer._SOLVES[spec.target](spec)
        m, v0 = solver.map, np.array(spec.initial_point)
        x = m.coordinates(v0)
        y, at = m.N @ x, spec.places()
        # the start's coordinates round-trip to v0, bit for bit but for the
        # entries held as 1/r or as s c with s a free 1/r or delta: each
        # comes back through one quotient, within an ulp
        v = solver.vector(v0, x, ())
        quotients = set()
        for seg, s_col, moving in m.parts:
            if s_col is not None:
                quotients |= set(moving) | ({seg.scale} if seg.inverse else set())
        for i, (got, want) in enumerate(zip(v, v0)):
            assert got == want if i not in quotients else abs(got - want) <= np.spacing(abs(want))
        # each segment's slice of N x is s (1, c), as binary64 products, with
        # s 1, 1.0 / r or delta, in each entry that has a column (the others
        # read 0); a block whose entries are all held has no columns and no
        # conditions entry
        if spec.target == "minimize_nu":
            blocks = {"mollifier": [(None, at["p1_shape"]), (at["r"], at["p2_shape"])]}
        else:
            blocks = {"mollifier": [(None, at["p_shape"])],
                      "twist": [(at["delta"], slice(at["q_linear"], at["q_sym"].stop))]}
        expected, free = [], set(spec.free_indices())
        conditions = dict(solver.read(state_at(solver, v0), {})[0])
        for name, segments in blocks.items():
            entries = set()
            for scale, shape in segments:
                s = (1.0 if scale is None else 1.0 / v0[scale] if scale == at.get("r")
                     else v0[scale])
                expected.append(s * np.r_[1.0, v0[shape]])
                entries |= {scale, *range(shape.start, shape.stop)} - {None}
            cols = m.blocks[name][1]
            assert (not entries & free) == (cols.stop == cols.start) == (name not in conditions)
        mapped = np.any(m.N, axis=1)
        assert np.array_equal(y, np.where(mapped, np.concatenate(expected), 0.0))
        assert list(conditions) == list(m.moving)
        # every bound row holds, to the rounding of s c: an entry that starts
        # on its bound under a free r or delta reads s c - s bound, which
        # is the rounding of s c, or 0
        assert np.all(m.A @ x - m.b >= -np.finfo(float).eps * (np.abs(m.A) @ np.abs(x)))
        assert np.all(np.count_nonzero(m.N, axis=1) <= 1)
        # the blocks tile y, x and the rows in order
        for k, total in enumerate((len(y), len(x), len(m.b))):
            ends = [(part[k].start, part[k].stop) for part in m.blocks.values()]
            assert [a for a, _ in ends] == [0] + [b for _, b in ends[:-1]]
            assert ends[-1][1] == total


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
            x, pinned, lam = optimizer._minimize(np.linalg.inv(Q), g, A, b,
                                                 rng.uniform(-1.0, 1.0, n), "test")
            assert np.all(A @ x >= b - 1e-12)
            assert 0.5 * x @ Q @ x + g @ x <= brute_force_box_minimum(Q, g, -1.0, 1.0) + 1e-12
            assert all(abs(A[i] @ x - b[i]) <= 1e-12 for i in pinned)
            # the multipliers: Q x + g = A_pinned' lam, each of the right sign
            assert len(lam) == len(pinned) and np.all(lam >= -1e-12)
            np.testing.assert_allclose(Q @ x + g, A[list(pinned)].T @ lam, rtol=0.0, atol=1e-10)


class TestIllPosedSolves:
    def step_with_hessian(self, H):
        """One step of the nu solve at R = 0.5 on a model whose Hessian is H."""
        spec = criterion_eight_spec("minimize_nu")
        solver, v = _NuSolve(spec), np.array(spec.initial_point)
        v[solver.R_at] = 0.5
        return solver.step((np.zeros(len(H)), H), state_at(solver, v), "mollifier")

    def test_indefinite_block_fails_loudly(self):
        with pytest.raises(IllPosedSolveError,
                           match=r"^mollifier block at R = 0\.5 is not positive definite$"):
            self.step_with_hessian(np.diag([1.0, 2.0, -1.0, 1.0, 1.0]))

    def test_ill_conditioned_block_fails_loudly(self):
        with pytest.raises(IllPosedSolveError, match=r"condition number 1e\+14 > 1e\+12"):
            self.step_with_hessian(np.diag([1.0, 1.0, 1e-14, 1.0, 1.0]))

    def test_failed_steps_are_counted_and_never_returned(self, fail_solves_above):
        # the cut lies below the optimum (R = 0.6165), which the search would
        # otherwise reach without a step above 0.6; the start lies below it
        # too, since unsolved at R = 0.617 it beats every step below 0.6
        failed = fail_solves_above(0.6)
        result = optimize(with_entry(criterion_eight_spec("minimize_nu"), "R", 0.5))
        assert 0 < len(failed) < result.evaluations_used - 1
        assert result.failures == (("IllPosedSolveError", len(failed)),)
        assert result.best_point[-1] <= 0.6

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
        ({"R": (1.0, 0.5)}, r"^empty bounds for 'R': \(1\.0, 0\.5\)$"),
        ({"r": (0.5, 10**400)}, r"^upper bound for 'r' = 1\.000000e\+400 is outside binary64$"),
        ({"R": (Fraction(-10**400), 1.0)},
         r"^lower bound for 'R' = -1\.000000e\+400 is outside binary64$"),
    ])
    def test_bounds_outside_the_domain_rejected(self, bounds, message):
        # they were once accepted and then scored as penalties
        with pytest.raises(ValueError, match=message):
            nu_spec(scalar_bounds=bounds)

    @pytest.mark.parametrize("bounds", [(True, 2.0), (0.5, False), (0.5, "2.0")])
    def test_non_numeric_bounds_rejected_by_name(self, bounds):
        # (True, 2.0) once made a spec whose r lay in [1, 2]
        with pytest.raises(ValueError, match=rf"^bounds for 'r' must be numbers, "
                                             rf"got {re.escape(repr(bounds))}$"):
            nu_spec(scalar_bounds={"r": bounds, "R": (0.3, 1.0)})

    @pytest.mark.parametrize("name, bounds", [("q_sym[0]", (-math.inf, math.inf)),
                                              ("delta", (0.5, math.inf)),
                                              ("R", (math.nan, 1.0))])
    def test_non_finite_bounds_rejected_by_name(self, name, bounds):
        # with delta free, an infinite q_sym[0] bound once reached the
        # active-set solve, which warned of an invalid division
        with pytest.raises(ValueError, match=rf"^bounds for {re.escape(repr(name))} "
                                             rf"must be finite, got \("):
            kappa_spec(scalar_bounds={"R": (0.5, 1.0), "delta": (0.5, 1.0), name: bounds})
