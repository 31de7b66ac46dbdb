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

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .polyalg import MollifierShape, TwistShape
from .proportions import (SectionFourParams, SectionFiveParams, c1_core,
                          c_core, kappa_bound, nu_bound)

SPREAD_TOLERANCE = 1e-10
RESTART_RELATIVE_STEP = 0.10


class EvaluationFailureError(RuntimeError):
    """The objective failed at the initial point."""


class DimensionTooHighError(ValueError):
    """grid_scan asked to lattice more than 3 free scalars."""


TARGETS = ("minimize_nu", "maximize_kappa")


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
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        names = self.vector_names()
        unknown = sorted(set(self.scalar_bounds) - set(names))
        if unknown:
            raise ValueError(f"bounds name {unknown[0]!r} is not in the search "
                             f"vector (allowed: {', '.join(names)})")
        for name, (lo, hi) in self.scalar_bounds.items():
            if not lo <= hi:
                raise ValueError(f"empty bounds for {name!r}: ({lo}, {hi})")
        if len(self.initial_point) != len(names):
            raise ValueError(
                f"initial point has {len(self.initial_point)} entries, "
                f"expected {len(names)} ({names})")
        for name, v in zip(names, self.initial_point):
            lo, hi = self.scalar_bounds.get(name, (-math.inf, math.inf))
            if name in self.scalar_bounds and not lo <= v <= hi:
                raise ValueError(f"initial {name} = {v} outside bounds ({lo}, {hi})")

    # ---- vector layout -------------------------------------------------

    def vector_names(self) -> tuple[str, ...]:
        """Names of the full parameter vector entries, shapes included."""
        names: list[str] = []
        if self.target == "minimize_nu":
            m1, m2 = self.shape_degrees
            names += [f"p1_shape[{j}]" for j in range(m1)]
            names += [f"p2_shape[{j}]" for j in range(m2)]
            names += ["r", "R"]
        else:
            mp, mq = self.shape_degrees
            names += [f"p_shape[{j}]" for j in range(mp)]
            names += ["q_linear"] + [f"q_sym[{k}]" for k in range(mq)]
            names += ["R", "delta"]
        return tuple(names)

    def free_indices(self) -> tuple[int, ...]:
        free: list[int] = []
        for i, name in enumerate(self.vector_names()):
            is_shape = name.startswith(("p1_shape", "p2_shape", "p_shape",
                                        "q_linear", "q_sym"))
            if is_shape:
                if self.vary_shapes:
                    free.append(i)
            elif name in self.scalar_bounds:
                lo, hi = self.scalar_bounds[name]
                if lo < hi:
                    free.append(i)
        return tuple(free)

    def params_from_vector(self, v: tuple[float, ...] | np.ndarray):
        """Reassemble a params object from a full vector."""
        v = [float(x) for x in v]
        if self.target == "minimize_nu":
            m1, m2 = self.shape_degrees
            p1 = MollifierShape.of([Fraction(repr(x)) for x in v[:m1]])
            p2 = MollifierShape.of([Fraction(repr(x)) for x in v[m1:m1 + m2]])
            r, R = v[m1 + m2], v[m1 + m2 + 1]
            return SectionFourParams(p1_shape=p1, p2_shape=p2, theta=self.theta,
                                     r=r, R=R)
        mp, mq = self.shape_degrees
        p = MollifierShape.of([Fraction(repr(x)) for x in v[:mp]])
        q = TwistShape.of(Fraction(repr(v[mp])),
                          [Fraction(repr(x)) for x in v[mp + 1:mp + 1 + mq]])
        R, delta = v[mp + 1 + mq], v[mp + 2 + mq]
        return SectionFiveParams(p_shape=p, q_shape=q, theta=self.theta,
                                 R=R, delta=delta)


@dataclass(frozen=True)
class SearchResult:
    best_point: tuple[float, ...]
    best_objective: float
    evaluations_used: int
    trace: tuple[tuple[int, float], ...]


def _objective(spec: SearchSpec):
    """Raw target objective on the full vector; sign-flipped for maximization.

    Evaluates the float core on slices of the vector directly.  It equals
    the objective of params_from_vector(vector) bit for bit, because
    float(Fraction(repr(x))) == x for every float x.
    """
    theta = spec.theta
    if spec.target == "minimize_nu":
        m1, m2 = spec.shape_degrees

        def f(v: np.ndarray) -> float:
            R = float(v[m1 + m2 + 1])
            return nu_bound(c_core(v[:m1], v[m1:m1 + m2], theta, v[m1 + m2], R), R)
    else:
        mp, mq = spec.shape_degrees

        def f(v: np.ndarray) -> float:
            R = float(v[mp + 1 + mq])
            return -kappa_bound(c1_core(v[:mp], v[mp:mp + 1 + mq], theta, R,
                                        v[mp + 2 + mq]), R)

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
        except (ArithmeticError, ValueError, OverflowError):
            base = self.worst_feasible if math.isfinite(self.worst_feasible) else 0.0
            return base + 1.0
        self.worst_feasible = max(self.worst_feasible, val)
        if val < self.best:
            self.best = val
            self.best_vector = np.array(v, dtype=float)
            self.trace.append((self.count, val))
        return val


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
    sign = -1.0 if spec.target == "maximize_kappa" else 1.0

    fn(x0)
    if fn.best_vector is None:
        raise EvaluationFailureError("objective failed at the initial point")

    if free and fn.remaining() > 0:
        rng = np.random.default_rng(spec.seed)
        runs = 1 + spec.restarts
        for run in range(runs):
            if fn.remaining() <= 0:
                break
            if run == 0:
                start = x0.copy()
            else:
                factors = 1.0 + RESTART_RELATIVE_STEP * rng.uniform(-1.0, 1.0, len(x0))
                start = x0.copy()
                names = spec.vector_names()
                for i in free:
                    start[i] = x0[i] * factors[i]
                    if names[i] in spec.scalar_bounds:
                        lo, hi = spec.scalar_bounds[names[i]]
                        start[i] = min(max(start[i], lo), hi)
            step = np.array([0.1 * abs(start[i]) if start[i] != 0.0 else 0.05
                             for i in free])
            _nelder_mead(fn, start, free, step)

    best_vec = fn.best_vector
    trace = tuple((i, sign * v) for i, v in fn.trace)
    return SearchResult(best_point=tuple(float(x) for x in best_vec),
                        best_objective=sign * fn.best,
                        evaluations_used=fn.count,
                        trace=trace)


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

    names = spec.vector_names()
    axes: list[np.ndarray] = []
    for i in free:
        lo, hi = spec.scalar_bounds[names[i]]
        if resolution == 1:
            axes.append(np.array([lo, 0.5 * (lo + hi), hi]))
        else:
            axes.append(np.linspace(lo, hi, resolution))

    fn = _BudgetedObjective(replace(spec, budget=int(np.prod([len(ax) for ax in axes])) + 1))
    sign = -1.0 if spec.target == "maximize_kappa" else 1.0
    base = np.array(spec.initial_point, dtype=float)
    if not free:
        fn(base)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        for idx in np.ndindex(*mesh[0].shape):
            v = base.copy()
            for axis, i in enumerate(free):
                v[i] = mesh[axis][idx]
            fn(v)
    if fn.best_vector is None:
        raise EvaluationFailureError("every lattice point failed to evaluate")
    return SearchResult(best_point=tuple(float(x) for x in fn.best_vector),
                        best_objective=sign * fn.best,
                        evaluations_used=fn.count,
                        trace=tuple((i, sign * v) for i, v in fn.trace))
