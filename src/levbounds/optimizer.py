"""Derivative-free search over constrained shape coefficients and scalars.

Nelder-Mead over a flat parameter vector, restarted from seeded +-10%
perturbations of the initial point, with all restarts drawing from one
shared evaluation budget.  Structural constraints (P(0)=0, P(1)=1, Q(0)=1,
Q'(x)=Q'(1-x)) hold by construction through the shape bases, so only the
scalar bounds need enforcement; an out-of-bounds or failing point scores
worst-feasible-seen plus its distance to the feasible box, which keeps the
simplex machinery unmodified.

Freezing: shapes are frozen when vary_shapes is False; a scalar is frozen
at its initial value when its bounds are degenerate (lo == hi) or absent.
A search is deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .polyalg import MollifierShape, TwistShape
from .proportions import (SectionFourParams, SectionFiveParams, c1_core,
                          c_core, kappa_bound, nu_bound)

SPREAD_TOLERANCE = 1e-10
RESTART_RELATIVE_STEP = 0.10


class EvaluationFailureError(RuntimeError):
    """No point of a search evaluated; chained to the first failure."""


class DimensionTooHighError(ValueError):
    """grid_scan asked to lattice more than 3 free scalars."""


# The search layout, stated once: each target's config section and that
# section's fields in vector order.  A field's size is an index into
# shape_degrees for a list of shape coefficients, or SHAPE or SCALAR for a
# single shape coefficient or search scalar.
SHAPE, SCALAR = "shape", "scalar"
SEARCH_FIELDS = {
    "minimize_nu": ("section4", (("p1_shape", 0), ("p2_shape", 1),
                                 ("r", SCALAR), ("R", SCALAR))),
    "maximize_kappa": ("section5", (("p_shape", 0), ("q_linear", SHAPE), ("q_sym", 1),
                                    ("R", SCALAR), ("delta", SCALAR))),
}
TARGETS = tuple(SEARCH_FIELDS)


@dataclass(frozen=True)
class SearchSpec:
    target: str
    shape_degrees: tuple[int, ...]
    scalar_bounds: dict[str, tuple[float, float]]
    theta: float
    initial_point: tuple[float, ...]
    budget: int
    seed: int = 0
    restarts: int = 0
    vary_shapes: bool = True

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if len(self.shape_degrees) != 2 or min(self.shape_degrees) < 0:
            raise ValueError(f"shape_degrees must be two counts >= 0, "
                             f"got {self.shape_degrees}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        names = self.vector_names()
        unknown = sorted(set(self.scalar_bounds) - set(names))
        if unknown:
            raise ValueError(f"bounds name {unknown[0]!r} is not in the search "
                             f"vector (allowed: {', '.join(names)})")
        if len(self.initial_point) != len(names):
            raise ValueError(
                f"initial point has {len(self.initial_point)} entries, "
                f"expected {len(names)} ({names})")
        initial = dict(zip(names, self.initial_point))
        for name, (lo, hi) in self.scalar_bounds.items():
            if not lo <= hi:
                raise ValueError(f"empty bounds for {name!r}: ({lo}, {hi})")
            if not lo <= initial[name] <= hi:
                raise ValueError(f"initial {name} = {initial[name]} "
                                 f"outside bounds ({lo}, {hi})")

    # ---- vector layout -------------------------------------------------

    def places(self) -> dict[str, slice | int]:
        """Each field's place in the vector: a slice, or an index for one number."""
        places, i = {}, 0
        for name, size in SEARCH_FIELDS[self.target][1]:
            n = 1 if size in (SHAPE, SCALAR) else self.shape_degrees[size]
            places[name] = i if size in (SHAPE, SCALAR) else slice(i, i + n)
            i += n
        return places

    def vector_names(self) -> tuple[str, ...]:
        """Names of the full parameter vector entries, shapes included."""
        names: list[str] = []
        for name, at in self.places().items():
            names += ([name] if isinstance(at, int)
                      else [f"{name}[{j}]" for j in range(at.stop - at.start)])
        return tuple(names)

    def free_indices(self) -> tuple[int, ...]:
        """Every shape entry when vary_shapes; each scalar whose bounds are
        a proper interval."""
        scalars = {name for name, size in SEARCH_FIELDS[self.target][1] if size == SCALAR}
        bounds = self.scalar_bounds
        return tuple(i for i, name in enumerate(self.vector_names())
                     if (name in bounds and bounds[name][0] < bounds[name][1]
                         if name in scalars else self.vary_shapes))

    def params_from_vector(self, v: tuple[float, ...] | np.ndarray):
        """Reassemble a params object from a full vector."""
        v = [float(x) for x in v]
        f = {name: v[place] for name, place in self.places().items()}
        if self.target == "minimize_nu":
            return SectionFourParams(p1_shape=MollifierShape.of(f["p1_shape"]),
                                     p2_shape=MollifierShape.of(f["p2_shape"]),
                                     theta=self.theta, r=f["r"], R=f["R"])
        return SectionFiveParams(p_shape=MollifierShape.of(f["p_shape"]),
                                 q_shape=TwistShape.of(f["q_linear"], f["q_sym"]),
                                 theta=self.theta, R=f["R"], delta=f["delta"])


def params_fields(params: SectionFourParams | SectionFiveParams) -> tuple[str, dict]:
    """The inverse of params_from_vector: the config section of params and
    its searched fields, in vector order, as floats or lists of floats."""
    p = params
    if isinstance(p, SectionFourParams):
        target, exact = "minimize_nu", dict(
            p1_shape=p.p1_shape.shape_coeffs, p2_shape=p.p2_shape.shape_coeffs, r=p.r, R=p.R)
    else:
        target, exact = "maximize_kappa", dict(
            p_shape=p.p_shape.shape_coeffs, q_linear=p.q_shape.linear_coeff,
            q_sym=p.q_shape.sym_coeffs, R=p.R, delta=p.delta)
    section, fields = SEARCH_FIELDS[target]
    return section, {name: float(exact[name]) if size in (SHAPE, SCALAR)
                     else [float(x) for x in exact[name]] for name, size in fields}


def search_start(params: SectionFourParams | SectionFiveParams
                 ) -> tuple[tuple[int, int], tuple[float, ...]]:
    """The shape_degrees and initial_point of a search that starts at params."""
    values = list(params_fields(params)[1].values())
    return (tuple(len(x) for x in values if isinstance(x, list)),
            tuple(float(x) for x in np.hstack(values)))


@dataclass(frozen=True)
class SearchResult:
    best_point: tuple[float, ...]
    best_objective: float
    evaluations_used: int
    trace: tuple[tuple[int, float], ...]


def _objective(spec: SearchSpec):
    """Raw target objective on the full vector; sign-flipped for maximization.

    Evaluates the float core on the fields' slices of the vector directly.
    It equals the objective of params_from_vector(vector) bit for bit,
    because float(as_fraction(x)) == x for every float x.
    """
    theta, at = spec.theta, spec.places()
    if spec.target == "minimize_nu":
        p1, p2, r, R_at = at["p1_shape"], at["p2_shape"], at["r"], at["R"]

        def f(v: np.ndarray) -> float:
            R = float(v[R_at])
            return nu_bound(c_core(v[p1], v[p2], theta, v[r], R), R)
    else:
        # c1_core takes the twist as one run (q_linear, q_sym[0], ..)
        p, q, R_at, delta = (at["p_shape"], slice(at["q_linear"], at["q_sym"].stop),
                             at["R"], at["delta"])

        def f(v: np.ndarray) -> float:
            R = float(v[R_at])
            return -kappa_bound(c1_core(v[p], v[q], theta, R, v[delta]), R)

    return f


class _BudgetedObjective:
    """Counts evaluations, applies the bounds penalty, records improvements."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        self.raw = _objective(spec)
        self.names = spec.vector_names()
        self.count = 0
        self.worst_feasible = -math.inf
        self.best = math.inf
        self.best_vector: np.ndarray | None = None
        self.trace: list[tuple[int, float]] = []
        self.failure: Exception | None = None  # the first evaluation error

    def bounds_distance(self, v: np.ndarray) -> float:
        dist = 0.0
        for name, x in zip(self.names, v):
            if name in self.spec.scalar_bounds:
                lo, hi = self.spec.scalar_bounds[name]
                dist += max(0.0, lo - x) + max(0.0, x - hi)
        return dist

    def remaining(self) -> int:
        return self.spec.budget - self.count

    def __call__(self, v: np.ndarray) -> float:
        if self.count >= self.spec.budget:
            raise _BudgetExhausted
        self.count += 1
        dist = self.bounds_distance(v)
        if dist > 0.0:
            base = self.worst_feasible if math.isfinite(self.worst_feasible) else 0.0
            return base + dist
        try:
            val = self.raw(v)
        except (ArithmeticError, ValueError, OverflowError) as exc:
            self.failure = self.failure or exc
            base = self.worst_feasible if math.isfinite(self.worst_feasible) else 0.0
            return base + 1.0
        self.worst_feasible = max(self.worst_feasible, val)
        if val < self.best:
            self.best = val
            self.best_vector = np.array(v, dtype=float)
            self.trace.append((self.count, val))
        return val

    def result(self, failed: str) -> SearchResult:
        """The best point and trace, maximize-by-negation undone; if nothing
        evaluated, EvaluationFailureError(failed) from the first failure."""
        if self.best_vector is None:
            raise EvaluationFailureError(f"{failed}: {self.failure}") from self.failure
        sign = -1.0 if self.spec.target == "maximize_kappa" else 1.0
        return SearchResult(best_point=tuple(float(x) for x in self.best_vector),
                            best_objective=sign * self.best,
                            evaluations_used=self.count,
                            trace=tuple((i, sign * v) for i, v in self.trace))


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(fn: _BudgetedObjective, x0: np.ndarray, free: tuple[int, ...],
                 step: np.ndarray) -> None:
    """Minimize over the free coordinates of x0; results land in fn's state."""
    n = len(free)
    full = np.array(x0, dtype=float)

    def eval_sub(xs: np.ndarray) -> float:
        v = full.copy()
        v[list(free)] = xs
        return fn(v)

    xs0 = full[list(free)]
    simplex = [xs0]
    for i in range(n):
        p = xs0.copy()
        p[i] += step[i] if step[i] != 0.0 else 0.05
        simplex.append(p)
    try:
        values = [eval_sub(p) for p in simplex]
        while True:
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] < SPREAD_TOLERANCE:
                return
            centroid = np.mean(simplex[:-1], axis=0)
            reflected = centroid + (centroid - simplex[-1])
            fr = eval_sub(reflected)
            if values[0] <= fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
                continue
            if fr < values[0]:
                expanded = centroid + 2.0 * (centroid - simplex[-1])
                fe = eval_sub(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
                continue
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            fc = eval_sub(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
                continue
            best = simplex[0]
            simplex = [best] + [best + 0.5 * (p - best) for p in simplex[1:]]
            values = [values[0]] + [eval_sub(p) for p in simplex[1:]]
    except _BudgetExhausted:
        return


def optimize(spec: SearchSpec) -> SearchResult:
    """Budgeted, restarted Nelder-Mead; deterministic for a fixed seed."""
    fn = _BudgetedObjective(spec)
    x0 = np.array(spec.initial_point, dtype=float)
    free = spec.free_indices()
    fn(x0)
    if fn.best_vector is not None and free and fn.remaining() > 0:
        rng = np.random.default_rng(spec.seed)
        for run in range(1 + spec.restarts):
            if fn.remaining() <= 0:
                break
            start = x0.copy()
            if run > 0:
                factors = 1.0 + RESTART_RELATIVE_STEP * rng.uniform(-1.0, 1.0, len(x0))
                for i in free:
                    start[i] = x0[i] * factors[i]
                    if fn.names[i] in spec.scalar_bounds:
                        lo, hi = spec.scalar_bounds[fn.names[i]]
                        start[i] = min(max(start[i], lo), hi)
            step = np.array([0.1 * abs(start[i]) if start[i] != 0.0 else 0.05
                             for i in free])
            _nelder_mead(fn, start, free, step)
    return fn.result("objective failed at the initial point")


def grid_scan(spec: SearchSpec, resolution: int) -> SearchResult:
    """Exhaustive lattice over the free scalars (shapes frozen).

    resolution >= 2 places that many points per axis; resolution 1
    degenerates to the bound corners plus the midpoint.
    """
    if spec.vary_shapes:
        raise DimensionTooHighError("grid_scan requires frozen shapes")
    free = spec.free_indices()
    if len(free) > 3:
        raise DimensionTooHighError(
            f"grid_scan supports at most 3 free scalars, got {len(free)}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")

    bounds = [spec.scalar_bounds[name] for i, name in enumerate(spec.vector_names())
              if i in free]
    axes = [np.array([lo, 0.5 * (lo + hi), hi]) if resolution == 1
            else np.linspace(lo, hi, resolution) for lo, hi in bounds]

    fn = _BudgetedObjective(replace(spec, budget=int(np.prod([len(ax) for ax in axes])) + 1))
    base = np.array(spec.initial_point, dtype=float)
    for point in itertools.product(*axes):  # last axis fastest; one point if none
        v = base.copy()
        v[list(free)] = point
        fn(v)
    return fn.result("every lattice point failed to evaluate")
