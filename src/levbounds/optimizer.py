"""Exact search over constrained shape coefficients and scalars.

At a fixed contour offset R each constant is 1 + sum_ab T_ab X_ab, a
t-Gram contracted with an x-Gram (proportions.contract), so only R needs
a one-dimensional search.  c's T is fixed per point and its x-factors
are linear in z = (u1, u2 / r), u = (1, c_1, .., c_m) a homogeneous shape
row, z[0] = 1: the minimum over (P1, P2, r) is one step.  c1's X is
quadratic in the mollifier u = (1, p) and its T in the twist
v = delta (1, q): c1 is quadratic in each with the other fixed.

Each solve has one map (_Map) between public vectors and its coordinates
x, the moving entries of s (1, c) per shape, with bound rows A x >= b,
one slice of each per block.  The state is (public vector, pinned rows,
formation), its formation one call of the float core (proportions._c or
_c1) at its vector, whose constant, factors and Grams the model, a
step's acceptance, evaluate and read all read: no point is formed twice.
The model is the constant's exact gradient and Hessian in x, from those
and the factors of N's columns, the solve vector's linear part in x,
formed once per solve at R.  A solve forms its entry point only where R
moves its state's vector.  A step minimizes the model from its state's
coordinates under the bound rows by a primal active-set loop, over every
coordinate or one block's, with one eigendecomposition for the condition
gate (MAX_CONDITION; worse raises IllPosedSolveError) and the inverse,
and writes and forms the next state, so coordinates live inside one
step.  With one block moving a solve is one step; with both c1 blocks it
takes joint steps, each kept when the c1 formed at its vector rises by
at most sqrt(eps) c1 (a margin above its rounding), until one predicts a
decrease of at most that; an ill-posed or rejected joint step is
replaced by a sweep, a step of each block (a fallback), and a sweep that
does not lower c1 ends it.  At most MAX_STEPS joint steps and sweeps.

Each target's solve class (_SOLVES) owns its blocks, its column factors,
the objective it minimizes (nu, or -kappa) and that sign, and its form;
evaluate reads a state's constant for the objective and its rows,
factors and Grams for the R slope, the objective's partial derivative in
R at fixed shapes.  At a solved point the R slope is the slope of the
solved profile, and a pinned entry's shadow price the objective's
partial in that entry with the others held (the envelope theorem), or 0
where the objective does not fall outside the bounds.  A safeguarded
search on (objective, slope) runs over R from the start's R: a probe
step downhill, then cubic Hermite steps inside the bracket the slopes'
signs set, bisection as the fallback (Nocedal & Wright 2006, sec. 3.5);
a bound that cuts the optimum is reached exactly.  Each step is one
evaluation, as is the start, and warm-starts from the previous one's
state, the first from the start's, at its own R.  The result is the
better of the start and the best step, with the objective and slope of
its evaluation: the objective is the float core at the returned vector,
so it re-evaluates bit for bit; a search whose steps all failed raises
EvaluationFailureError.  SearchSpec.free_indices decides which entries
may move.  delta keeps the side of zero of its start, since q = v /
delta, and a block stops moving while one of its own pinned rows holds
its scale at 0, where s c cannot carry a move of c, so a delta pinned on
0 leaves q as it was; pinned rows carry over from one solve to the next,
and so does the hold.  Seed and restarts change nothing.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .kernel import MAX_BASE_R, MIN_BASE_R, NodeRows, basis_products, c_factors
from .polyalg import (MollifierShape, TwistShape, as_binary64, mollifier_shape_from_poly,
                      twist_shape_from_poly)
from .proportions import (SectionFourParams, SectionFiveParams, _c, _c1, _homogeneous,
                          kappa_bound, nu_bound)

MAX_CONDITION = 1e12       # a free solve block conditioned worse than this is ill-posed
MAX_STEPS = 50             # joint steps or fallback sweeps: at most this many per R step
R_TOLERANCE = 1e-9         # R search stop: a step below sqrt(eps) |R| plus this fraction of the bounds
PROBE = 2e-3               # R search: the step from a first good point, as a fraction of the bounds
SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _integer(value) -> bool:
    """An integer, numpy's included, and not a bool: the test of every count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class EvaluationFailureError(RuntimeError):
    """No point of a search evaluated, or no step of it; chained to the
    first failure."""


class IllPosedSolveError(ArithmeticError):
    """A free solve block is not positive definite, or too ill-conditioned."""


# The search layout, stated once: each target's config section, that
# section's fields in vector order, its params class and its shapes, read
# by the solves, the CLI's config reader, params_from_vector and
# params_fields/search_start.  A field's size is an index into
# shape_degrees for a list of shape coefficients, or SHAPE or SCALAR for a
# single shape coefficient or search scalar.  A shape is (params field, family, raw-polynomial config key), in
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
    """One search.  seed and restarts are validated and change nothing:
    their one caller is the search workload of bench/workloads.py, and
    ROADMAP item 1, which re-sizes that benchmark, removes them."""

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
                _integer(n) and n >= 0 for n in self.shape_degrees):
            raise ValueError(f"shape_degrees must be two integer counts >= 0, "
                             f"got {self.shape_degrees}")
        for name, least in (("budget", 1), ("restarts", 0), ("seed", 0)):
            value = getattr(self, name)
            if not _integer(value):
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
        starts = [("theta", self.theta)] + [(f"initial {n}", x) for n, x in initial.items()]
        for where, x in starts:
            if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                           and math.isfinite(as_binary64(where, x))):
                raise ValueError(f"{where} must be a finite number, got {x!r}")
        for name, (lo, hi) in self.scalar_bounds.items():
            if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in (lo, hi)):
                raise ValueError(f"bounds for {name!r} must be numbers, got ({lo!r}, {hi!r})")
            if not all(math.isfinite(as_binary64(f"{side} bound for {name!r}", x))
                       for side, x in (("lower", lo), ("upper", hi))):
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
        try:
            self.params_from_vector(self.initial_point)
        except ValueError as exc:
            raise ValueError(f"initial point: {exc}") from exc

    # ---- vector layout -------------------------------------------------

    # The layout is formed once per spec, on its first read, like
    # bounds_by_index; the methods hand it out.

    @cached_property
    def _places(self) -> dict[str, slice | int]:
        places, i = {}, 0
        for name, size in SEARCH_FIELDS[self.target][1]:
            n = 1 if size in (SHAPE, SCALAR) else self.shape_degrees[size]
            places[name] = i if size in (SHAPE, SCALAR) else slice(i, i + n)
            i += n
        return places

    def places(self) -> dict[str, slice | int]:
        """Each field's place in the vector: a slice, or an index for one
        number.  A copy: the spec keeps its own."""
        return dict(self._places)

    @cached_property
    def _vector_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for name, at in self._places.items():
            names += ([name] if isinstance(at, int)
                      else [f"{name}[{j}]" for j in range(at.stop - at.start)])
        return tuple(names)

    def vector_names(self) -> tuple[str, ...]:
        """Names of the full parameter vector entries, shapes included."""
        return self._vector_names

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
        return self._free_indices

    @cached_property
    def _free_indices(self) -> tuple[int, ...]:
        scalars = {name for name, size in SEARCH_FIELDS[self.target][1] if size == SCALAR}
        bounds, names = self.scalar_bounds, self._vector_names

        def moves(name: str) -> bool:
            return bounds[name][0] < bounds[name][1] if name in bounds else name not in scalars

        start = dict(zip(names, self.initial_point))
        twist_held = "delta" in start and start["delta"] == 0.0 and not moves("delta")
        return tuple(i for i, name in enumerate(names) if moves(name) and not (
            twist_held and name.partition("[")[0] in ("q_linear", "q_sym")))

    def params_from_vector(self, v: tuple[float, ...] | np.ndarray):
        """Reassemble a params object from a full vector."""
        names = self.vector_names()
        if len(v) != len(names):
            raise ValueError(f"vector has {len(v)} entries, expected {len(names)} ({names})")
        v = [float(x) for x in v]
        f = {name: v[place] for name, place in self._places.items()}
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
    """The best point found and how the search got there: inner_solves
    counts the model steps, each one factorization; fallbacks the sweeps
    after a failed joint step; failures the failed evaluations by class;
    conditions each free block's model Hessian condition number at the
    best point; slope d best_objective / dR there with the shapes held,
    from the evaluation that gave best_objective (None when no search set
    it); pinned each free entry of best_point
    exactly on one of its bounds (lo < hi), with that bound, sorted by
    name, and shadow its price, d best_objective / d entry with the other
    entries held (R's is slope; 0 where the objective does not fall
    outside the bounds)."""

    best_point: tuple[float, ...]
    best_objective: float
    evaluations_used: int
    trace: tuple[tuple[int, float], ...]
    inner_solves: int = 0
    fallbacks: int = 0
    failures: tuple[tuple[str, int], ...] = ()
    conditions: tuple[tuple[str, float], ...] = ()
    pinned: tuple[tuple[str, float], ...] = ()
    slope: float | None = None
    shadow: tuple[tuple[str, float], ...] = ()


class _Record:
    """Counts the evaluations of a solve (_Solve.evaluate) and their
    failures; keeps the best state, its R slope, and the improvements."""

    def __init__(self, solve: _Solve):
        self.solve = solve
        self.count = 0
        self.best = math.inf
        self.best_state: tuple | None = None
        self.best_rate = math.nan
        self.trace: list[tuple[int, float]] = []
        self.failures: Counter[str] = Counter()
        self.failure: Exception | None = None  # the first evaluation error

    def __call__(self, point: Callable[[], tuple]) -> tuple[float, float]:
        """One evaluation, of the state point() returns (_Solve): the
        objective and its R slope; (inf, nan) if forming or evaluating fails."""
        self.count += 1
        try:
            state = point()
            val, rate = self.solve.evaluate(state)
        except (ArithmeticError, ValueError) as exc:
            self.failure = self.failure or exc
            self.failures[type(exc).__name__] += 1
            return math.inf, math.nan
        if val < self.best:
            self.best, self.best_state, self.best_rate = val, state, rate
            self.trace.append((self.count, val))
        return val, rate

    def result(self, failed: str, **extra) -> SearchResult:
        """The best point and trace, times solve.sign; if nothing evaluated,
        EvaluationFailureError(failed) from the first failure."""
        if self.best_state is None:
            raise EvaluationFailureError(f"{failed}: {self.failure}") from self.failure
        spec, sign = self.solve.spec, self.solve.sign
        best = tuple(float(x) for x in self.best_state[0])
        names, free = spec.vector_names(), spec.free_indices()
        pinned = sorted((names[i], best[i]) for i, (lo, hi) in spec.bounds_by_index.items()
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

def _condition(w: np.ndarray) -> float:
    """The 2-norm condition number from a symmetric matrix's ascending
    eigenvalues w; inf unless the smallest is positive."""
    return float(w[-1] / w[0]) if w[0] > 0.0 else math.inf


def _inverse(where: str, Q: np.ndarray) -> np.ndarray:
    """Q^-1 of a symmetric Q that is positive definite with a condition
    number of at most MAX_CONDITION, from one eigendecomposition."""
    w, V = np.linalg.eigh(Q)
    cond = _condition(w)
    if cond == math.inf:
        raise IllPosedSolveError(f"{where} is not positive definite")
    if not cond <= MAX_CONDITION:
        raise IllPosedSolveError(f"{where} has condition number {cond:.3g} "
                                 f"> {MAX_CONDITION:.0e}")
    return (V / w) @ V.T


def _minimize(Q_inv: np.ndarray, g: np.ndarray, A: np.ndarray, b: np.ndarray, x: np.ndarray,
              where: str) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Minimize x'Qx/2 + g'x subject to A x >= b from a feasible x; returns
    x, the rows pinned at it and their multipliers, Q x + g = A_pinned' lam.

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
            return x, tuple(pinned), lam
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
    entries = [(i, col, a) for i, row in enumerate(rows) for col, a in row.items()]
    if entries:
        at_i, at_col, values = zip(*entries)
        out[at_i, at_col] = values
    return out


class _Map:
    """The map of one solve between public vectors and its coordinates x,
    and its bounds as rows A x >= b, built once from the target's segments
    by block name, each block one slice of the solve vector's entries, of x
    and of the rows.  A segment s (1, c) holds the entries s and s c_j,
    each mapped on its own from the start values s0, c0: s is the
    coordinate s; s c_j is the coordinate s c_j when s and c_j are both
    free, s0 times the coordinate c_j, or c0_j times the coordinate s; an
    entry with neither free has no column.  So each row of N, the solve
    vector's linear part in x, has at most one nonzero; a block whose
    entries are all held has no columns, is never solved and gets no
    condition number.  Each bound row names the public entry it pins and
    the value it pins it to."""

    def __init__(self, spec: SearchSpec, blocks: dict[str, tuple[_Segment, ...]]):
        start = np.array(spec.initial_point, dtype=float)
        free = set(spec.free_indices())
        bounds = spec.bounds_by_index
        self.parts, y, rows, col = [], [], [], 0  # y: per solve entry, {col: a}
        self.blocks = {}  # each block's (solve entries, x, rows) slices, by name
        self.holds = {}   # each row that pins a scale of moving entries at 0, to its block
        for name, segments in blocks.items():
            first = len(y), col, len(rows)
            for seg in segments:
                s0 = 1.0 if seg.scale is None else float(start[seg.scale])
                s0 = 1.0 / s0 if seg.inverse else s0
                s_free, s_col = seg.scale in free, col
                moving = [at for at in seg.shape if at in free]
                moving = {at: col + s_free + k for k, at in enumerate(moving)}
                col += s_free + len(moving)
                y.append({s_col: 1.0} if s_free else {})
                for at in seg.shape:
                    y.append({moving[at]: 1.0 if s_free else s0} if at in moving
                             else {s_col: float(start[at])} if s_free else {})
                sign = 1.0
                if s_free:
                    lo, hi = bounds[seg.scale]
                    if moving and not seg.inverse:  # q = v / delta: delta keeps its side of 0
                        sign = 1.0 if s0 > 0.0 or (s0 == 0.0 and hi > 0.0) else -1.0
                        lo, hi = (max(lo, 0.0), hi) if sign > 0.0 else (lo, min(hi, 0.0))
                    # s_lo <= s <= s_hi; for s = 1/r the row at 1/hi pins r at hi
                    (s_lo, at_lo), (s_hi, at_hi) = (((1.0 / hi, hi), (1.0 / lo, lo))
                                                    if seg.inverse else ((lo, lo), (hi, hi)))
                    rows += [({s_col: 1.0}, s_lo, (seg.scale, at_lo)),
                             ({s_col: -1.0}, -s_hi, (seg.scale, at_hi))]
                    self.holds.update((len(rows) - 2 + k, name) for k, at in
                                      enumerate((at_lo, at_hi)) if moving and at == 0.0)
                for at, k in moving.items():
                    # lo <= c_j <= hi as side (c_j - bound) >= 0, times s when s is free
                    for bound, side in zip(bounds.get(at, ()), (sign, -sign)):
                        rows.append(({k: side, s_col: -side * bound}, 0.0, (at, bound))
                                    if s_free else ({k: side}, side * bound, (at, bound)))
                self.parts.append((seg, s_col if s_free else None, moving))
            last = len(y), col, len(rows)
            self.blocks[name] = tuple(slice(a, b) for a, b in zip(first, last))
        self.moving = {name: cols for name, (_, cols, _) in self.blocks.items()
                       if cols.stop > cols.start}  # the columns of each block that has any
        self.N = _matrix(y, col)
        self.A = _matrix([row for row, *_ in rows], col)
        self.b = np.array([rhs for _, rhs, _ in rows])
        self.pins = [pin for *_, pin in rows]

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """The coordinates x of a public vector."""
        x = []
        for seg, s_col, moving in self.parts:
            s = 1.0 if s_col is None else 1.0 / v[seg.scale] if seg.inverse else v[seg.scale]
            if s_col is not None:
                x.append(s)
            x += [s * v[at] if s_col is not None else v[at] for at in moving]
        return np.array(x, dtype=float)

    def write(self, x: np.ndarray, pinned: tuple[int, ...], out: np.ndarray) -> None:
        """Write the public entries of the coordinates x, with the rows
        pinned, into the vector out, each entry a row pins exactly on its
        bound: c_j is x_k / s, s the bound of a pinned scale, and a scale at
        0 writes none of its entries, which keep their values in out."""
        pins = dict(self.pins[i] for i in pinned)
        for seg, s_col, moving in self.parts:
            s = 1.0 if s_col is None else x[s_col]
            if seg.scale in pins:  # pinned: its bound, before any entry is divided by it
                s = 1.0 / pins[seg.scale] if seg.inverse else pins[seg.scale]
            if s_col is not None:
                out[seg.scale] = pins.get(seg.scale, 1.0 / s if seg.inverse else s)
            if s != 0.0:
                for at, k in moving.items():
                    out[at] = pins.get(at, x[k] / s)

    def partials(self, g: np.ndarray, v: np.ndarray) -> dict[int, float]:
        """The partials, by vector index, of a function with gradient g in
        x at the public vector v, in each public entry that has a column:
        with y = s (1, c), d/dc_j is s g_k (g_k when s is held), d/ds is
        g_s + sum_j c_j g_k, and d/dr is -s^2 d/ds for s = 1/r."""
        out = {}
        for seg, s_col, moving in self.parts:
            s = 1.0 if s_col is None else 1.0 / v[seg.scale] if seg.inverse else v[seg.scale]
            out.update((at, float(s * g[k])) for at, k in moving.items())
            if s_col is not None:
                d_s = g[s_col] + sum(v[at] * g[k] for at, k in moving.items())
                out[seg.scale] = float(-s * s * d_s if seg.inverse else d_s)
        return out


def _hessian(G: tuple[float, float, float], wC: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_ab G_ab sum_n w_n C_ian C_jbn of column factors C, (k, 2, n), and
    wC = C w, for a Gram G = (G00, G01, G11)."""
    k, n = len(C), C.shape[1] * C.shape[2]
    G = np.array(((G[0], G[1]), (G[1], G[2])))
    return wC.reshape(k, n) @ (G @ C).reshape(k, n).T


class _Solve:
    """The exact solve of one target at fixed R over the coordinates x of
    one map (_Map), and the evaluation and read of a state (public vector,
    pinned rows, formation).  A subclass gives form(v), the formation: the
    float core's (constant, rows, T, X, F, U, ..) at v, with U None for c;
    dR, the R derivatives of its T and F; column_factors, the x- and
    t-factors of N's columns (a mollifier's as c_core and c1_core form its
    factors, the twist's [Psi v; Psi' v]; None for c's fixed t-factors); its
    sign and bound, the objective (minimized) being sign bound(constant, R),
    and per_log, the objective being per_log ln(constant) / R up to a
    constant.  A solve keeps its solves and fallbacks counts and nothing
    else that changes."""

    def __init__(self, spec: SearchSpec, blocks: dict[str, tuple[_Segment, ...]]):
        self.spec, self.map = spec, _Map(spec, blocks)
        self.R_at, self.solves, self.fallbacks = spec.places()["R"], 0, 0

    def columns(self, rows: NodeRows):
        """N's columns' x-factors FX and t-factors FT (None when no column
        moves them), column axis first, and each times its weights: fixed
        at rows, so formed once per solve(R) and per read."""
        FX, FT = self.column_factors(rows)
        return FX, FX * rows.wx, FT, None if FT is None else FT * rows.wt

    @staticmethod
    def model(columns, formed: tuple):
        """The gradient and Hessian in x of the constant 1 + sum_ab T_ab X_ab
        at the vector of formed, from its Grams T, X and factors F, U and
        N's columns' FX, FT: with p_i = (FX_i wx) F', dX/dx_i = p_i + p_i',
        the gradient is 2 sum_ab T_ab p_iab and the Hessian 2 sum_ab T_ab
        sum_x wx FX_ia FX_jb; c1's t-factors add the same with X,
        q_i = (FT_i wt) U', and the cross term C + C', C = 2 q (p + p')'."""
        _, _, T, X, F, U, *_ = formed
        FX, wFX, FT, wFT = columns
        k = len(wFX)
        p3 = wFX @ F.T  # (k, 2, 2)
        p = p3.reshape(k, 4)
        g, H = p @ (T[0], T[1], T[1], T[2]), _hessian(T, wFX, FX)
        if FT is not None:
            q = (wFT @ U.T).reshape(k, 4)
            g += q @ (X[0], X[1], X[1], X[2])
            C = q @ (p3 + p3.transpose(0, 2, 1)).reshape(k, 4).T
            H += _hessian(X, wFT, FT) + C + C.T
        return 2.0 * g, 2.0 * H

    def solve(self, R: float, state: tuple) -> tuple:
        """The solved state at R from state, itself the entry point unless R
        moves its vector; see the module docstring.  A joint step is kept
        on the constant formed at the vector it writes."""
        if state[0][self.R_at] != R:
            v = state[0].copy()
            v[self.R_at] = R
            state = v, state[1], self.form(v)
        columns = self.columns(state[2][1]) if self.map.moving else None

        def step(state, block=None):
            return self.step(self.model(columns, state[2]), state, block)

        for _ in range(MAX_STEPS):
            held = {self.map.holds.get(i) for i in state[1]}
            moving = [name for name in self.map.moving if name not in held]
            if len(moving) < 2:  # exact: the constant is quadratic in each block
                return step(state, moving[0])[0] if moving else state
            last = state[2][0]
            margin = SQRT_EPS * abs(last)  # see the module docstring
            try:
                trial, gain = step(state)
                now = trial[2][0]
            except (ArithmeticError, ValueError):  # ill-posed, or its vector fails to evaluate
                now = math.inf
            if now < last + margin:
                state = trial
                if gain <= margin:
                    break
                continue
            self.fallbacks += 1
            for name in moving:  # a sweep
                state = step(state, name)[0]
            if not state[2][0] < last:
                break
        return state

    def step(self, model, state: tuple, block: str | None = None):
        """Minimize the model (g, H) at state under the bound rows, over
        every coordinate or over the named block's: the state reached, its
        public vector written from state's and formed there, and the
        decrease the model predicts.  Each step factors the model Hessian
        once and counts as one solve."""
        self.solves += 1
        v, pinned, _ = state
        x, (g, H) = self.map.coordinates(v), model
        cols, bounds = (slice(None), slice(None)) if block is None else self.map.blocks[block][1:]
        where = (f"{'joint step' if block is None else f'{block} block'} "
                 f"at R = {float(v[self.R_at])!r}")
        Q, A = H[cols, cols], self.map.A[bounds, cols]
        d, active, _ = _minimize(_inverse(where, Q), g[cols], A, self.map.b[bounds] - A @ x[cols],
                                 np.zeros(len(Q)), where)
        x[cols] += d
        if block is not None:  # the other blocks' rows keep their pins
            pinned = tuple(i for i in pinned if not bounds.start <= i < bounds.stop)
            active = pinned + tuple(bounds.start + i for i in active)
        v = self.vector(v, x, active)
        return (v, active, self.form(v)), -float(g[cols] @ d + 0.5 * d @ Q @ d)

    def vector(self, v: np.ndarray, x: np.ndarray, pinned: tuple[int, ...]) -> np.ndarray:
        """The public vector of the coordinates x with the rows pinned,
        written over a copy of the public vector v, inside the bounds; an
        entry a row pins lands on its bound exactly."""
        out = v.copy()
        self.map.write(x, pinned, out)
        for i, (lo, hi) in self.spec.bounds_by_index.items():
            out[i] = min(max(out[i], lo), hi)
        return out

    def evaluate(self, state: tuple) -> tuple[float, float]:
        """The objective at state's public vector and its R slope, d
        objective / dR with the shapes held, read from state's formation: T
        moves with its weights, by dT, and X with the factors' R derivative
        dF, dX = K + K', K = (dF wx) F'.  At a solved point it is the slope
        of the solved profile (the envelope theorem; active bound rows do
        not depend on R)."""
        v, _, formed = state
        c, rows, T, X, F = formed[:5]
        dT, dF = self.dR(v, formed)
        (K00, K01), (K10, K11) = ((dF * rows.wx) @ F.T).tolist()
        rate = (dT[0] * X[0] + 2.0 * dT[1] * X[1] + dT[2] * X[2]
                + 2.0 * (T[0] * K00 + T[1] * (K01 + K10) + T[2] * K11))
        return (self.sign * self.bound(c, rows.R),
                self.per_log * (rate / c - math.log(c) / rows.R) / rows.R)

    def read(self, state: tuple, pinned: dict[str, float]):
        """One model at state, from its formation: the condition number of
        each block that moves, of its diagonal block of the model Hessian,
        and the price of each entry of pinned but R, d objective / d entry
        with the other entries held (the envelope theorem, as for the R
        slope), or 0 where the objective does not fall outside the bounds."""
        v, _, formed = state
        g, H = self.model(self.columns(formed[1]), formed)
        conditions = tuple((name, _condition(np.linalg.eigvalsh(H[cols, cols])))
                           for name, cols in self.map.moving.items())
        if not pinned.keys() - {"R"}:  # R has no column: its price is the R slope
            return conditions, {}
        names, partials = self.spec.vector_names(), self.map.partials(g, v)
        scale, prices = self.per_log / (formed[1].R * formed[0]), {}
        for i, d in partials.items():
            if names[i] in pinned:  # the minimized objective falls below lo when d > 0
                out = d > 0.0 if pinned[names[i]] == self.spec.bounds_by_index[i][0] else d < 0.0
                prices[names[i]] = float(self.sign * scale * d) if out else 0.0
        return conditions, prices


class _NuSolve(_Solve):
    """c = Tc contracted with the x-Gram of c's x-factors, linear in
    z = (1, p1, t, t p2), t = 1/r: one block."""

    sign, bound = 1.0, staticmethod(nu_bound)  # nu is minimized as it is
    per_log = 0.5  # nu = ln(c) / (2R)

    def __init__(self, spec: SearchSpec):
        at = spec.places()
        self.core = at["p1_shape"], at["p2_shape"], at["r"]  # the core's slices of v
        p1, p2 = (tuple(range(s.start, s.stop)) for s in self.core[:2])
        self.split = len(p1) + 1  # z = (z1, z2)
        super().__init__(spec, {"mollifier": (
            _Segment(p1, None), _Segment(p2, at["r"], inverse=True))})

    def form(self, v: np.ndarray) -> tuple:
        (p1, p2, r), R = self.core, v[self.R_at]
        c, rows, X, F, f1, f2 = _c(_homogeneous(v[p1]), _homogeneous(v[p2]),
                                   self.spec.theta, v[r], R)
        return c, rows, rows.Tc, X, F, None, f1, f2  # c's T is the rows' Tc

    def dR(self, v: np.ndarray, formed: tuple):
        rows, f1, f2 = formed[1], *formed[6:]
        return rows.dT_dR(), c_factors(NodeRows.d_dR(f1), NodeRows.d_dR(f2), v[self.core[2]])

    def column_factors(self, rows: NodeRows):
        z = (rows.factors(self.map.N[part]).transpose(2, 0, 1)
             for part in (slice(self.split), slice(self.split, None)))
        return c_factors(*z, 1.0), None


class _KappaSolve(_Solve):
    """c1 = T contracted with X, T the t-Gram of [U; U'] = [1 + Psi v;
    Psi' v], affine in the twist block v = delta (1, q), and X the x-Gram
    of [A u; theta P u], linear in the mollifier block u_P = (1, p)."""

    sign, bound = -1.0, staticmethod(kappa_bound)  # kappa is maximized as -kappa
    per_log = 1.0  # -kappa = ln(c1) / R - 1

    def __init__(self, spec: SearchSpec):
        at = spec.places()  # the core takes the twist as one run (q_linear, q_sym[0], ..)
        self.core = at["p_shape"], slice(at["q_linear"], at["q_sym"].stop), at["delta"]
        p, q = (tuple(range(s.start, s.stop)) for s in self.core[:2])
        super().__init__(spec, {
            "mollifier": (_Segment(p, None),), "twist": (_Segment(q, at["delta"]),)})
        self.u, self.v = (self.map.blocks[name][0] for name in ("mollifier", "twist"))

    def form(self, v: np.ndarray) -> tuple:
        (p, q, delta), R = self.core, v[self.R_at]
        return _c1(_homogeneous(v[p]), _homogeneous(v[q]), self.spec.theta, R, v[delta])

    def dR(self, v: np.ndarray, formed: tuple):
        return formed[1].dT_dR(formed[5]), NodeRows.d_dR(formed[4])

    def column_factors(self, rows: NodeRows):
        N = self.map.N
        return (rows.factors(N[self.u]).transpose(2, 0, 1),
                basis_products(len(rows.t), N[self.v], True).transpose(2, 0, 1))


_SOLVES = {"minimize_nu": _NuSolve, "maximize_kappa": _KappaSolve}  # one per target


# --------------------------------------------------------------------------
# the outer search
# --------------------------------------------------------------------------

def _hermite(older: tuple[float, float, float], newer: tuple[float, float, float]
             ) -> float | None:
    """The minimizer of the cubic that matches value and slope at two points
    (Nocedal & Wright 2006, eq. 3.59), each (x, f, f'); None when the cubic
    has no local minimizer."""
    (x0, f0, g0), (x1, f1, g1) = older, newer
    d1 = g0 + g1 - 3.0 * (f0 - f1) / (x0 - x1)
    root = d1 * d1 - g0 * g1
    if not root >= 0.0:
        return None
    d2 = math.copysign(math.sqrt(root), x1 - x0)
    denominator = g1 - g0 + 2.0 * d2
    if denominator == 0.0:
        return None
    return x1 - (x1 - x0) * (g1 + d2 - d1) / denominator


def _search(f: Callable[[float], tuple[float, float]], lo: float, hi: float, x: float,
            room: Callable[[], bool]) -> None:
    """Minimize f on [lo, hi] from x while room(), from its values and
    slopes.  f(x) is (f, f'), or (inf, nan) for a failed step.  Each step
    closes one side of the bracket [a, b] at its x: the upper when f' > 0,
    the lower when f' < 0, and for a failed step the side away from the
    best good step, or the upper before any, since the blocks' condition
    numbers grow with R.  After one good step the next is a probe of
    PROBE (hi - lo) downhill, after two the minimizer of the cubic Hermite
    interpolant of the last two good steps; one that leaves the bracket,
    or a cubic without a minimizer, goes to the bound downhill while no
    step has closed that side, so a minimum cut by a bound is evaluated
    there.  After a failed step, or a closed bracket that has not halved in
    two steps, it bisects.  It stops at f' = 0, at a bound where f' points
    out, or when the next step would move less than sqrt(eps) |x| +
    R_TOLERANCE (hi - lo); a step to a bound is taken however short."""
    a, b, closed = lo, hi, [False, False]
    good: list[tuple[float, float, float]] = []  # the last two good steps
    best = (math.inf, None)                        # (f, x) of the best good step
    widths: list[float] = []                       # of the bracket, once closed
    while room():
        fx, gx = f(x)
        failed = not (fx < math.inf and math.isfinite(gx))
        if not failed:
            if gx == 0.0:
                return
            good = good[-1:] + [(x, fx, gx)]
            best = min(best, (fx, x))
            upper = gx > 0.0
        else:
            upper = best[1] is None or best[1] < x
        if upper:
            b, closed[1] = x, True
        else:
            a, closed[0] = x, True
        if all(closed):
            widths.append(b - a)
        u, to_end = None, False
        if good and not failed:
            u = (_hermite(*good) if len(good) == 2
                 else x - math.copysign(PROBE * (hi - lo), gx))
            if u is None or not a <= u <= b:  # downhill to its bound, if still open
                end = int(good[-1][2] < 0.0)
                u, to_end = (None, False) if closed[end] else ((a, b)[end], True)
        tol = SQRT_EPS * abs(x) + R_TOLERANCE * (hi - lo)
        if u is None or abs(u - x) > tol and len(widths) > 2 and widths[-1] > 0.5 * widths[-3]:
            u, to_end = 0.5 * (a + b), False
        if u == x or abs(u - x) <= tol and not to_end:
            return
        x = u


def optimize(spec: SearchSpec) -> SearchResult:
    """A search over R on the objective's R slope with an exact solve at
    each step; see the module docstring.  Deterministic."""
    solver = _SOLVES[spec.target](spec)
    record, start = _Record(solver), np.array(spec.initial_point, dtype=float)
    record(lambda: (start, (), solver.form(start)))
    if (state := record.best_state) is None:
        return record.result("objective failed at the initial point")

    def step(R: float) -> tuple[float, float]:
        def point() -> tuple:
            nonlocal state
            state = solver.solve(R, state)
            return state
        return record(point)

    def room() -> bool:
        return record.count < spec.budget

    R_at = solver.R_at
    if R_at in spec.free_indices():
        _search(step, *spec.scalar_bounds["R"], float(start[R_at]), room)
    elif solver.map.moving and room():
        step(float(start[R_at]))
    steps = record.count - 1
    if steps and sum(record.failures.values()) == steps:
        first = record.failure
        raise EvaluationFailureError(f"all {steps} search steps failed, the first with "
                                     f"{type(first).__name__}: {first}") from first
    result = record.result("objective failed at the initial point",
                           inner_solves=solver.solves, fallbacks=solver.fallbacks,
                           slope=solver.sign * record.best_rate)
    conditions, prices = solver.read(record.best_state, dict(result.pinned))
    return replace(result, conditions=conditions, shadow=tuple(
        (name, result.slope if name == "R" else prices[name]) for name, _ in result.pinned))
