"""Exact search over constrained shape coefficients and scalars.

At a fixed contour offset R both bound constants are convex quadratics
in suitable solve coordinates, so only R needs a one-dimensional search:

  c    = z^T M(R) z with z = (u1, u2 / r), u = (1, c_1, .., c_m) the
         homogeneous shape coefficients.  z[0] = 1 is pinned, so the
         minimum over (P1, P2, r) is one linear solve.
  c1   is quadratic in u = (1, p) when the twist is fixed, and in
         v = (delta, delta q) when P is fixed, because the operator
         weights are affine in v.  The two solves alternate until c1
         stops decreasing, at most MAX_ALTERNATIONS times.

nu and kappa are increasing in c and c1 at fixed R.  Brent's method
(Brent 1973, ch. 5: parabolic interpolation with a golden-section
fallback) searches R over its bounds; each step is one evaluation of the
budget, as is the start point, and warm-starts from the previous step's
solution.  The search returns the better of the start and the best
step, and its objective is the float core at the returned public vector,
so it re-evaluates bit for bit.

Structural constraints (P(0)=0, P(1)=1, Q(0)=1, Q'(x)=Q'(1-x)) hold by
construction through the shape bases.  A fixed entry is a constant of
the quadratic: fixed shapes leave a quadratic in 1/r or in delta alone.
A bound is a linear inequality in the solve coordinates (p2_shape[j] >= b
is z2[j+1] >= b z2[0]), and each box-bounded quadratic is solved exactly
by a primal active-set loop that pins the bound a step would cross and
releases a pin whose multiplier has the wrong sign.  With the twist free,
delta is searched on the side of zero that holds its start value, since
q = v / delta.  A free block that is not positive definite, or whose
condition number exceeds MAX_CONDITION, fails the step with
IllPosedSolveError; the step then counts as a failure.  A search whose
steps all failed raises EvaluationFailureError, never returning its start
point as a result.

Fixing: SearchSpec.free_indices alone decides which entries move.  An
entry keeps its start value when it is a scalar without bounds or any
entry under degenerate bounds (lo == hi), so [v, v] holds a shape entry
at v; the twist keeps it too while delta is fixed at 0, where q cannot be
identified.  A search is deterministic: seed and restarts change nothing.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .kernel import MAX_BASE_R, MIN_BASE_R, kernel_derivative_basis, moment_grams
from .polyalg import (MollifierShape, TwistShape, mollifier_shape_from_poly, twist_matrix,
                      twist_shape_from_poly)
from .proportions import (SectionFourParams, SectionFiveParams, c1_core,
                          c_core, kappa_bound, nu_bound, twist_operator_coefficients)

MAX_CONDITION = 1e12       # a free solve block conditioned worse than this is ill-posed
MAX_ALTERNATIONS = 50      # P solve, then twist solve: at most this many per R step
R_TOLERANCE = 1e-9         # R search tolerance: sqrt(eps) |R| plus this fraction of the bounds
GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0   # the golden-section step, as a fraction of a bracket
SQRT_EPS = math.sqrt(np.finfo(float).eps)


class EvaluationFailureError(RuntimeError):
    """No point of a search evaluated, or no step of it; chained to the
    first failure."""


class DimensionTooHighError(ValueError):
    """grid_scan asked to lattice more than 3 free entries."""


class IllPosedSolveError(ArithmeticError):
    """A free solve block is not positive definite, or too ill-conditioned."""


# The search layout, stated once: each target's config section, that
# section's fields in vector order, its params class and its shapes.  A
# field's size is an index into shape_degrees for a list of shape
# coefficients, or SHAPE or SCALAR for a single shape coefficient or search
# scalar.  A shape is (params field, family, raw-polynomial config key), in
# field order; section_parts gives each its fields.  A family is three
# conversions: from its coefficient fields, from a raw polynomial, and back.
SHAPE, SCALAR = "shape", "scalar"
MOLLIFIER = (MollifierShape.of, mollifier_shape_from_poly, lambda s: (s.shape_coeffs,))
TWIST = (TwistShape.of, twist_shape_from_poly, lambda s: (s.linear_coeff, s.sym_coeffs))
FLOAT = (float, None, lambda x: (x,))  # a scalar: one field, no raw polynomial
SEARCH_FIELDS = {
    "minimize_nu": ("section4", (("p1_shape", 0), ("p2_shape", 1),
                                 ("r", SCALAR), ("R", SCALAR)),
                    SectionFourParams, (("p1_shape", MOLLIFIER, "p1_poly"),
                                        ("p2_shape", MOLLIFIER, "p2_poly"))),
    "maximize_kappa": ("section5", (("p_shape", 0), ("q_linear", SHAPE), ("q_sym", 1),
                                    ("R", SCALAR), ("delta", SCALAR)),
                       SectionFiveParams, (("p_shape", MOLLIFIER, "p_poly"),
                                           ("q_shape", TWIST, "q_poly"))),
}
TARGETS = tuple(SEARCH_FIELDS)


@dataclass(frozen=True)
class SearchSpec:
    """One search.  seed and restarts are kept, and validated, for library
    callers that pass them; neither changes the search."""

    target: str
    shape_degrees: tuple[int, ...]
    scalar_bounds: dict[str, tuple[float, float]]
    theta: float
    initial_point: tuple[float, ...]
    budget: int
    seed: int = 0
    restarts: int = 0

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if len(self.shape_degrees) != 2 or not all(
                isinstance(n, numbers.Integral) and n >= 0 for n in self.shape_degrees):
            raise ValueError(f"shape_degrees must be two integer counts >= 0, "
                             f"got {self.shape_degrees}")
        for name, least in (("budget", 1), ("restarts", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name!r} must be finite, got ({lo}, {hi})")
            if not lo <= hi:
                raise ValueError(f"empty bounds for {name!r}: ({lo}, {hi})")
            if name == "R" and not MIN_BASE_R <= lo <= hi <= MAX_BASE_R:
                side = f"<= {MAX_BASE_R}" if lo >= MIN_BASE_R else f">= {MIN_BASE_R}"
                raise ValueError(f"bounds for 'R' must be {side}, got ({lo}, {hi})")
            if name == "r" and not lo > 0:
                raise ValueError(f"bounds for 'r' must be > 0, got ({lo}, {hi})")
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

    @cached_property
    def bounds_by_index(self) -> dict[int, tuple[float, float]]:
        """Each bounded entry's vector index, mapped to its (lo, hi)."""
        return {i: self.scalar_bounds[name] for i, name in enumerate(self.vector_names())
                if name in self.scalar_bounds}

    def free_indices(self) -> tuple[int, ...]:
        """The entries that move; every other entry stays at its start.

        A shape entry moves unless its bounds are degenerate (lo == hi), a
        scalar only under bounds with lo < hi.  The twist moves only while
        delta moves or is held away from 0: the solve reads it as
        v = delta (1, q), and at delta = 0 it cannot be identified."""
        scalars = {name for name, size in SEARCH_FIELDS[self.target][1] if size == SCALAR}
        bounds, names = self.scalar_bounds, self.vector_names()

        def moves(name: str) -> bool:
            return bounds[name][0] < bounds[name][1] if name in bounds else name not in scalars

        start = dict(zip(names, self.initial_point))
        twist_held = "delta" in start and start["delta"] == 0.0 and not moves("delta")
        return tuple(i for i, name in enumerate(names) if moves(name) and not (
            twist_held and name.partition("[")[0] in ("q_linear", "q_sym")))

    def params_from_vector(self, v: tuple[float, ...] | np.ndarray):
        """Reassemble a params object from a full vector."""
        v = [float(x) for x in v]
        f = {name: v[place] for name, place in self.places().items()}
        row = SEARCH_FIELDS[self.target]
        return row[2](theta=self.theta, **{name: family[0](*(f[k] for k in keys))
                                           for name, family, _, keys in section_parts(row)})


def section_parts(row: tuple) -> list[tuple]:
    """How a SEARCH_FIELDS row's fields make its params: per params field,
    in order, (name, family, raw-polynomial key, fields).  A shape takes its
    list field and the SHAPE fields before it; a scalar takes its own."""
    parts, run, shapes = [], (), iter(row[3])
    for name, size in row[1]:
        run += (name,)
        if size != SHAPE:
            parts.append((name, FLOAT, None, run) if size == SCALAR else (*next(shapes), run))
            run = ()
    return parts


def params_fields(params: SectionFourParams | SectionFiveParams) -> tuple[str, dict]:
    """The inverse of params_from_vector: the config section of params and
    its searched fields, in vector order, as floats or lists of floats."""
    row = next(row for row in SEARCH_FIELDS.values() if isinstance(params, row[2]))
    exact = {key: x for name, family, _, keys in section_parts(row)
             for key, x in zip(keys, family[2](getattr(params, name)))}
    return row[0], {name: float(exact[name]) if size in (SHAPE, SCALAR)
                    else [float(x) for x in exact[name]] for name, size in row[1]}


def search_start(params: SectionFourParams | SectionFiveParams
                 ) -> tuple[tuple[int, int], tuple[float, ...]]:
    """The shape_degrees and initial_point of a search that starts at params."""
    values = list(params_fields(params)[1].values())
    return (tuple(len(x) for x in values if isinstance(x, list)),
            tuple(float(x) for x in np.hstack(values)))


@dataclass(frozen=True)
class SearchResult:
    """The best point found and how the search got there.

    inner_solves counts the quadratic solves, failures the evaluations
    that failed by exception class, and conditions the condition number
    of each free solve block at the best point; grid_scan solves nothing.
    pinned names each free entry of best_point that sits exactly on one of
    its bounds (lo < hi), with that bound, sorted by name.
    """

    best_point: tuple[float, ...]
    best_objective: float
    evaluations_used: int
    trace: tuple[tuple[int, float], ...]
    inner_solves: int = 0
    failures: tuple[tuple[str, int], ...] = ()
    conditions: tuple[tuple[str, float], ...] = ()
    pinned: tuple[tuple[str, float], ...] = ()


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


class _Record:
    """Counts evaluations and their failures; keeps the best point and the
    improvements."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        self.raw = _objective(spec)
        self.count = 0
        self.best = math.inf
        self.best_vector: np.ndarray | None = None
        self.trace: list[tuple[int, float]] = []
        self.failures: Counter[str] = Counter()
        self.failure: Exception | None = None  # the first evaluation error

    def __call__(self, point: np.ndarray | Callable[[], np.ndarray]) -> float:
        """One evaluation at point, or at the vector point() builds; inf if
        building or evaluating it fails."""
        self.count += 1
        try:
            v = point() if callable(point) else point
            val = self.raw(v)
        except (ArithmeticError, ValueError) as exc:
            self.failure = self.failure or exc
            self.failures[type(exc).__name__] += 1
            return math.inf
        if val < self.best:
            self.best = val
            self.best_vector = np.array(v, dtype=float)
            self.trace.append((self.count, val))
        return val

    def result(self, failed: str, **extra) -> SearchResult:
        """The best point and trace, maximize-by-negation undone; if nothing
        evaluated, EvaluationFailureError(failed) from the first failure."""
        if self.best_vector is None:
            raise EvaluationFailureError(f"{failed}: {self.failure}") from self.failure
        sign = -1.0 if self.spec.target == "maximize_kappa" else 1.0
        best = tuple(float(x) for x in self.best_vector)
        names, free = self.spec.vector_names(), self.spec.free_indices()
        pinned = sorted((names[i], best[i]) for i, (lo, hi) in self.spec.bounds_by_index.items()
                        if i in free and best[i] in (lo, hi))
        return SearchResult(best_point=best,
                            best_objective=sign * self.best,
                            evaluations_used=self.count,
                            trace=tuple((i, sign * v) for i, v in self.trace),
                            failures=tuple(sorted(self.failures.items())),
                            pinned=tuple(pinned), **extra)


# --------------------------------------------------------------------------
# the inner solve: one convex quadratic under pins and bounds
# --------------------------------------------------------------------------

def _condition(Q: np.ndarray) -> float:
    """The 2-norm condition number of a block; inf unless its smallest
    eigenvalue is positive."""
    w = np.linalg.eigvalsh(Q)
    return float(w[-1] / w[0]) if w[0] > 0.0 else math.inf


def _inverse(where: str, Q: np.ndarray) -> np.ndarray:
    """Q^-1 of a free block that is positive definite with a condition
    number of at most MAX_CONDITION."""
    cond = _condition(Q)
    if cond == math.inf:
        raise IllPosedSolveError(f"{where} is not positive definite")
    if not cond <= MAX_CONDITION:
        raise IllPosedSolveError(f"{where} has condition number {cond:.3g} "
                                 f"> {MAX_CONDITION:.0e}")
    return np.linalg.inv(Q)


def _minimize(Q_inv: np.ndarray, g: np.ndarray, A: np.ndarray, b: np.ndarray,
              x: np.ndarray, where: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Minimize x'Qx/2 + g'x subject to A x >= b from a feasible x; returns
    x and the rows pinned at it.

    Primal active set: step towards the minimizer on the pinned rows,
    stopping at the first row the step would cross and pinning it; at the
    minimizer, release the pinned row whose multiplier has the wrong sign,
    or stop when none has.  The loop is finite, and capped.
    """
    pinned: list[int] = []
    newton = Q_inv @ g
    tol = 1e-12 * (1.0 + float(np.abs(g).max(initial=0.0)))
    for _ in range(8 + 4 * (len(b) + len(x))):
        Ap = A[pinned]
        QA = Q_inv @ Ap.T
        lam = np.linalg.solve(Ap @ QA, b[pinned] + Ap @ newton) if pinned else g[:0]
        step = QA @ lam - newton - x
        along, slack = A @ step, A @ x - b
        alpha, blocking = 1.0, None
        for i in range(len(b)):
            if along[i] < 0.0 and i not in pinned:
                reach = max(slack[i], 0.0) / -along[i]
                if reach < alpha:
                    alpha, blocking = reach, i
        x = x + alpha * step
        if blocking is not None:
            pinned.append(blocking)
            continue
        worst = int(np.argmin(lam)) if pinned else None
        if worst is None or lam[worst] >= -tol:
            return x, tuple(pinned)
        del pinned[worst]
    raise IllPosedSolveError(f"{where}: the active set did not settle")


@dataclass(frozen=True)
class _Segment:
    """A run s (1, c) of a solve vector: shape coefficients c scaled by s,
    which is 1 (P1, P), 1/r (P2) or delta (the twist)."""

    shape: tuple[int, ...]   # vector indices of c
    scale: int | None        # vector index of the field behind s; None: s = 1
    inverse: bool = False    # s is 1 / the field, not the field


def _matrix(rows: list[dict[int, float]], ncols: int) -> np.ndarray:
    """The matrix whose row i holds the entries rows[i], {column: value}."""
    out = np.zeros((len(rows), ncols))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


class _Block:
    """One block of solve coordinates x, its solve vector y = y0 + N x, and
    its bounds as rows A x >= b.

    A segment s (1, c) holds the solve entries s and y_j = s c_j, each
    mapped on its own from the start values s0, c0: s is the coordinate s
    when free and the constant s0 when not; y_j is the coordinate s c_j
    when s and c_j are both free, s0 times the coordinate c_j when only c_j
    is, c0_j times the coordinate s when only s is, and the constant s0 c0_j
    when neither is.  Each row names the public entry it pins when active,
    and the value it pins it to.
    """

    def __init__(self, name: str, spec: SearchSpec, segments: tuple[_Segment, ...]):
        self.name = name
        start = np.array(spec.initial_point, dtype=float)
        free = set(spec.free_indices())
        bounds = spec.bounds_by_index
        self.parts, y, rows, col = [], [], [], 0  # y: per solve entry, (constant, {col: a})
        for seg in segments:
            s0 = 1.0 if seg.scale is None else float(start[seg.scale])
            s0 = 1.0 / s0 if seg.inverse else s0
            s_free, s_col = seg.scale in free, col
            moving = [at for at in seg.shape if at in free]
            moving = {at: col + s_free + k for k, at in enumerate(moving)}
            col += s_free + len(moving)
            y.append((0.0, {s_col: 1.0}) if s_free else (s0, {}))
            for at in seg.shape:
                c0 = float(start[at])
                y.append((0.0, {moving[at]: 1.0 if s_free else s0}) if at in moving
                         else (0.0, {s_col: c0}) if s_free else (s0 * c0, {}))
            sign = 1.0
            if s_free:
                lo, hi = bounds[seg.scale]
                if moving and not seg.inverse:  # q = v / delta: delta keeps its side of 0
                    sign = 1.0 if s0 > 0.0 or (s0 == 0.0 and hi > 0.0) else -1.0
                    lo, hi = (max(lo, 0.0), hi) if sign > 0.0 else (lo, min(hi, 0.0))
                # s_lo <= s <= s_hi; for s = 1/r the row at 1/hi pins r at hi
                (s_lo, at_lo), (s_hi, at_hi) = (((1.0 / hi, hi), (1.0 / lo, lo)) if seg.inverse
                                                else ((lo, lo), (hi, hi)))
                rows += [({s_col: 1.0}, s_lo, (seg.scale, at_lo)),
                         ({s_col: -1.0}, -s_hi, (seg.scale, at_hi))]
            for at, k in moving.items():
                # lo <= c_j <= hi as side (c_j - bound) >= 0, times s when s is free
                for bound, side in zip(bounds.get(at, ()), (sign, -sign)):
                    rows.append(({k: side, s_col: -side * bound} if s_free else {k: side},
                                 0.0 if s_free else side * bound, (at, bound)))
            self.parts.append((seg, s_col if s_free else None, moving))
        self.size = col
        self.y0 = np.array([constant for constant, _ in y])
        self.N = _matrix([entry for _, entry in y], col)
        self.A = _matrix([row for row, _, _ in rows], col)
        self.b = np.array([rhs for _, rhs, _ in rows])
        self.pins = [pin for _, _, pin in rows]

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """The solve coordinates of a public vector."""
        x = []
        for seg, s_col, moving in self.parts:
            s = 1.0 if seg.scale is None else float(v[seg.scale])
            s = 1.0 / s if seg.inverse else s
            if s_col is not None:
                x.append(s)
            x += [s * v[at] if s_col is not None else v[at] for at in moving]
        return np.array(x, dtype=float)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.y0 + self.N @ x

    def quadratic(self, H: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y'Hy + 2h'y in the coordinates, halved: (Q, g) of x'Qx/2 + g'x."""
        Q = self.N.T @ H @ self.N
        return 0.5 * (Q + Q.T), self.N.T @ (H @ self.y0 + h)

    def solve(self, R: float, H: np.ndarray, h: np.ndarray, state):
        """Minimize y'Hy + 2h'y from state (x, pinned rows)."""
        Q, g = self.quadratic(H, h)
        where = f"{self.name} block at R = {R!r}"
        return _minimize(_inverse(where, Q), g, self.A, self.b, state[0], where)

    def write(self, state, out: np.ndarray) -> None:
        """Write the public entries of state into the vector out; an entry a
        row pins lands on its bound exactly."""
        x, pinned = state
        for seg, s_col, moving in self.parts:
            s = 1.0 if s_col is None else x[s_col]
            if s_col is not None:
                out[seg.scale] = 1.0 / s if seg.inverse else s
            if s != 0.0:
                for at, k in moving.items():
                    out[at] = x[k] / s
        for i in pinned:
            at, value = self.pins[i]
            out[at] = value


def _indices(place: slice | int) -> tuple[int, ...]:
    return tuple(range(place.start, place.stop)) if isinstance(place, slice) else (place,)


class _Solve:
    """The exact solve of one target at fixed R: each free block in turn,
    alternated while the constant decreases when there are two."""

    def __init__(self, spec: SearchSpec, blocks: tuple[_Block, ...]):
        self.spec = spec
        start = np.array(spec.initial_point, dtype=float)
        self.frozen = {b.name: b.values(b.coordinates(start)) for b in blocks}
        self.blocks = tuple(b for b in blocks if b.size)
        self.R_at = spec.places()["R"]
        self.solves = 0

    def start(self, v: np.ndarray):
        """The state of each free block at the public vector v: (x, no pins)."""
        return tuple((b.coordinates(v), ()) for b in self.blocks)

    def _values(self, states) -> dict[str, np.ndarray]:
        return {**self.frozen, **{b.name: b.values(s[0]) for b, s in zip(self.blocks, states)}}

    def solve(self, R: float, states):
        """The solved states at R, warm-started from states."""
        kernel = self.kernel(R)
        states, values, last = list(states), self._values(states), math.inf
        for _ in range(MAX_ALTERNATIONS):
            for i, block in enumerate(self.blocks):
                self.solves += 1
                states[i] = block.solve(R, *self.form(block.name, kernel, values), states[i])
                values[block.name] = block.values(states[i][0])
            if len(self.blocks) < 2:
                break
            now = self.constant(kernel, values)
            if not now < last:
                break
            last = now
        return tuple(states)

    def vector(self, states, R: float) -> np.ndarray:
        """The public vector of states at R, inside the bounds."""
        out = np.array(self.spec.initial_point, dtype=float)
        for block, state in zip(self.blocks, states):
            block.write(state, out)
        for i, (lo, hi) in self.spec.bounds_by_index.items():
            out[i] = min(max(out[i], lo), hi)
        out[self.R_at] = R
        return out

    def conditions(self, v: np.ndarray) -> tuple[tuple[str, float], ...]:
        """The condition number of each free block at the public vector v."""
        kernel, values = self.kernel(float(v[self.R_at])), self._values(self.start(v))
        return tuple((b.name, _condition(b.quadratic(*self.form(b.name, kernel, values))[0]))
                     for b in self.blocks)


class _NuSolve(_Solve):
    """c = z'M(R)z over z = (1, p1, t, t p2), t = 1/r: one block."""

    def __init__(self, spec: SearchSpec):
        at = spec.places()
        p1, p2 = _indices(at["p1_shape"]), _indices(at["p2_shape"])
        m = max(len(p1), len(p2))
        self.grams = moment_grams(m)
        self.rows = np.r_[0:len(p1) + 1, m + 1:m + 2 + len(p2)]  # z inside (u1, u2) padded
        super().__init__(spec, (_Block("mollifier", spec, (
            _Segment(p1, None), _Segment(p2, at["r"], inverse=True))),))

    def kernel(self, R: float) -> np.ndarray:
        return kernel_derivative_basis(self.spec.theta, R, 1)

    def form(self, name, kernel, values):
        n = 2 * len(self.grams[0])
        H = np.einsum("kab,kij->aibj", kernel, self.grams).reshape(n, n)
        H = H[np.ix_(self.rows, self.rows)]
        return 0.5 * (H + H.T), np.zeros(len(H))


class _KappaSolve(_Solve):
    """c1 = sum_k (u_P' G_k u_P)(u' K_k u) with u = e0 + B v: a mollifier
    block u_P = (1, p) and a twist block v = delta (1, q)."""

    def __init__(self, spec: SearchSpec):
        at = spec.places()
        p = _indices(at["p_shape"])
        q = _indices(at["q_linear"]) + _indices(at["q_sym"])
        twist = twist_matrix(len(q) - 1)
        self.B = np.column_stack([twist_operator_coefficients(col, 1.0) for col in twist.T])
        self.B[0, 0] -= 1.0
        self.order = twist.shape[0]
        self.grams = moment_grams(len(p))
        super().__init__(spec, (_Block("mollifier", spec, (_Segment(p, None),)),
                                _Block("twist", spec, (_Segment(q, at["delta"]),))))

    def kernel(self, R: float) -> np.ndarray:
        return kernel_derivative_basis(self.spec.theta, R, self.order)

    def _operator(self, values) -> np.ndarray:
        """The twist operator's weights u = e0 + B v."""
        u = self.B @ values["twist"]
        u[0] += 1.0
        return u

    def _twist_kernel(self, kernel, values) -> np.ndarray:
        """sum_k m_k K_k over the moments m_k of (P, P), symmetrized."""
        up = values["mollifier"]
        moments = np.einsum("i,kij,j->k", up, self.grams, up)
        K = (moments @ kernel.reshape(4, -1)).reshape(kernel.shape[1:])
        return 0.5 * (K + K.T)

    def form(self, name, kernel, values):
        if name == "mollifier":
            u = self._operator(values)
            weights = np.einsum("m,kmn,n->k", u, kernel, u)
            H = (weights @ self.grams.reshape(4, -1)).reshape(self.grams.shape[1:])
            return 0.5 * (H + H.T), np.zeros(len(H))
        K = self._twist_kernel(kernel, values)
        return self.B.T @ K @ self.B, self.B.T @ K[:, 0]

    def constant(self, kernel, values) -> float:
        u = self._operator(values)
        return float(u @ self._twist_kernel(kernel, values) @ u)


# --------------------------------------------------------------------------
# the outer search
# --------------------------------------------------------------------------

def _brent(f: Callable[[float], float], lo: float, hi: float,
           room: Callable[[], bool]) -> None:
    """Brent's bounded minimization of f on [lo, hi] while room().

    Each step goes to the vertex of the parabola through the best three
    points when that lands inside the bracket and moves less than half the
    step before last, and takes a golden-section step into the larger side
    otherwise.  It stops once the bracket lies within 2 tol of the best
    point x, tol = sqrt(eps) |x| + R_TOLERANCE (hi - lo).  An end of
    [lo, hi] within 2 tol + sqrt(eps) (1 + |end|) of x is then tried too,
    so a bound that cuts the minimum is evaluated even when f ties in
    binary64 next to it and the bracket closes just off the end.
    """
    if not room():
        return
    a, b = lo, hi
    x = w = v = a + GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while room():
        mid = 0.5 * (a + b)
        tol = SQRT_EPS * abs(x) + R_TOLERANCE * (hi - lo)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(e) > tol:  # the parabola through (v, w, x): its vertex is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (b if x < mid else a) - x
            d = GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    tol = SQRT_EPS * abs(x) + R_TOLERANCE * (hi - lo)
    for end in (lo, hi):
        if abs(x - end) <= 2.0 * tol + SQRT_EPS * (1.0 + abs(end)) and room():
            f(end)


def optimize(spec: SearchSpec) -> SearchResult:
    """Brent's method over R with an exact solve at each step; see the
    module docstring.  Deterministic."""
    record = _Record(spec)
    start = np.array(spec.initial_point, dtype=float)
    record(start)
    if record.best_vector is None:
        return record.result("objective failed at the initial point")
    solver = (_NuSolve if spec.target == "minimize_nu" else _KappaSolve)(spec)
    state = solver.start(start)

    def step(R: float) -> float:
        def point() -> np.ndarray:
            nonlocal state
            state = solver.solve(R, state)
            return solver.vector(state, R)
        return record(point)

    def room() -> bool:
        return record.count < spec.budget

    R_at = solver.R_at
    if R_at in spec.free_indices():
        _brent(step, *spec.scalar_bounds["R"], room)
    elif solver.blocks and room():
        step(float(start[R_at]))
    steps = record.count - 1
    if steps and sum(record.failures.values()) == steps:
        first = record.failure
        raise EvaluationFailureError(f"all {steps} search steps failed, the first with "
                                     f"{type(first).__name__}: {first}") from first
    return record.result("objective failed at the initial point",
                         inner_solves=solver.solves,
                         conditions=solver.conditions(record.best_vector))


def grid_scan(spec: SearchSpec, resolution: int) -> SearchResult:
    """Exhaustive lattice over the free entries, each within its bounds.

    resolution >= 2 places that many points per axis; resolution 1
    degenerates to the bound corners plus the midpoint.
    """
    free = spec.free_indices()
    if len(free) > 3:
        raise DimensionTooHighError(
            f"grid_scan supports at most 3 free entries, got {len(free)}")
    names = spec.vector_names()
    unbounded = [names[i] for i in free if i not in spec.bounds_by_index]
    if unbounded:
        raise ValueError(f"grid_scan needs bounds on every free entry, "
                         f"got none on {', '.join(unbounded)}")
    if (isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral)
            or resolution < 1):
        raise ValueError(f"resolution must be an integer >= 1, got {resolution!r}")

    axes = [np.array([lo, 0.5 * (lo + hi), hi]) if resolution == 1
            else np.linspace(lo, hi, resolution)
            for lo, hi in (spec.bounds_by_index[i] for i in free)]

    record = _Record(spec)
    base = np.array(spec.initial_point, dtype=float)
    for point in itertools.product(*axes):  # last axis fastest; one point if none
        v = base.copy()
        v[list(free)] = point
        record(v)
    return record.result("every lattice point failed to evaluate")
