"""Bound constants and the distinct/simple zero proportion combiners.

Two independent constants over the node rows (kernel.node_rows), each 1
plus a weighted sum of squares of its root: c(theta, r, R), root
A1 - (t A2 + theta P2) / r from two mollifiers, and c1(theta, R), root
U A + theta U' P from a mollifier and the twist operator's
U = (1 - delta) + delta (1 - 2t) Q(t).  Each root has rank 2, so each
constant is one 2x2 contraction of a t-Gram with an x-Gram (contract):
for c1 the Grams of the twist's [U; U'] and the mollifier's
[A u; theta P u]; for c, whose root is centred at t = 1, the rows' Tc
and the Gram of kernel.c_factors, from the mollifiers' factors and r
(an expansion in 1/r would cancel).  _c and _c1 are the one evaluation:
each takes homogeneous rows and forms their factors and Grams itself.
c_core and c1_core pass the rows of float coefficients, and c_value and
c1_value the shapes' binary64 rows (each shape's cached row), so both
routes give the same bits; each checks theta, R and r or delta first.
c_value and c1_value are memos of it: each reads one lru_cache of at most
_NODE_ROWS_KEPT constants keyed by exactly what the core reads, the
binary64 (theta, R, r) or (theta, R, delta), formed once per params object
(_point), and the two rows as bytes, the partner's or twist's first, read
first, so its out-of-binary64 error is the one named.  So a hit forms and checks
nothing and cannot return another input's value, equal inputs (equal
shapes built anew, a Fraction and its float) share one entry, and a raise
keeps nothing.  A sweep benchmark pass evaluates each constant at 25
points and reads each kept value 24 more times.

From them nu = ln(c)/(2R) and kappa = 1 - ln(c1)/R (natural logarithm:
the only base consistent with the reference constants; a constant below 1
comes from no shape and is refused), and the four proportions
d = 1/2 + kappa/2 - nu, s = kappa - 2 nu, d_grh = 1 - nu and
s_grh = 1 - 2 nu.  _quantities is the one composition of the eight, a
tuple in BoundReport's order: full_report builds the report, a NamedTuple,
from it and its params, and bounds_table, which reproduce and eval --which
bounds read, keys it by BoundReport's first eight field names.  nu and
kappa share no parameters, so a report evaluates its two halves
independently.
"""


from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .kernel import _NODE_ROWS_KEPT, MAX_BASE_R, MIN_BASE_R, c_factors, gram, node_rows
from .polyalg import MollifierShape, TwistShape, as_binary64


class NonFiniteError(ArithmeticError):
    """A bound computation produced NaN or infinity."""


class ConstantBelowOneError(ValueError):
    """A moment constant below 1 given to a bound: each constant is 1 plus
    the integral of a square, so no shape gives one, and its log would be
    negative and the proportions it bounds above 1."""


def _check_scalars(theta: float, R: float, r: float = 1.0, delta: float = 0.0) -> None:
    """The scalar domain shared by the params classes and the float core."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if not MIN_BASE_R <= R <= MAX_BASE_R:
        side = f"<= {MAX_BASE_R}" if R >= MIN_BASE_R else f">= {MIN_BASE_R}"
        raise ValueError(f"R must be {side}, got {R}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")


def _check_params(**scalars: float) -> dict[str, float]:
    """The binary64 values of a params class's scalars, which the float core
    reads and its memos are keyed by: each scalar a real number
    and not a bool, its value in the core's domain."""
    floats = {}
    for name, x in scalars.items():
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a finite number, got {x!r}")
        floats[name] = as_binary64(name, x)
    _check_scalars(**floats)
    return floats


@dataclass(frozen=True)
class SectionFourParams:
    """Inputs of the additional-zeros constant c: two mollifier shapes plus
    the derivative weight r and the contour offset R."""

    p1_shape: MollifierShape
    p2_shape: MollifierShape
    theta: float
    r: float
    R: float

    def __post_init__(self) -> None:
        f = _check_params(theta=self.theta, r=self.r, R=self.R)
        object.__setattr__(self, "_point", (f["theta"], f["R"], f["r"]))  # not a field


@dataclass(frozen=True)
class SectionFiveParams:
    """Inputs of the critical-line constant c1: one mollifier shape, a twist
    shape, the mixing weight delta and the contour offset R."""

    p_shape: MollifierShape
    q_shape: TwistShape
    theta: float
    R: float
    delta: float

    def __post_init__(self) -> None:
        f = _check_params(theta=self.theta, R=self.R, delta=self.delta)
        object.__setattr__(self, "_point", (f["theta"], f["R"], f["delta"]))  # not a field


class BoundReport(NamedTuple):
    """The eight quantities of a report, as _quantities composes them, and
    the params they come from: one immutable tuple, whose first eight field
    names are bounds_table's keys."""

    c: float
    nu: float
    c1: float
    kappa: float
    d_uncond: float
    s_uncond: float
    d_grh: float
    s_grh: float
    params4: SectionFourParams
    params5: SectionFiveParams


def _homogeneous(coeffs) -> np.ndarray:
    """The row (1, c_1, .., c_m); non-finite coefficients raise ValueError,
    as they do when the exact shape is built from them."""
    u = np.empty(len(coeffs) + 1)
    u[0], u[1:] = 1.0, coeffs
    if not np.isfinite(u).all():
        raise ValueError("shape coefficients must be finite")
    return u


def contract(T: tuple[float, float, float], X: tuple[float, float, float]) -> float:
    """1 + sum_ab T_ab X_ab of two Grams (G00, G01, G11).  Every input is
    finite and the exact sum is at least 1, so a sum that is not finite
    comes from an overflow, inf - inf included, and reads inf."""
    value = 1.0 + (T[0] * X[0] + 2.0 * (T[1] * X[1]) + T[2] * X[2])
    return value if math.isfinite(value) else math.inf


def _c(z1: np.ndarray, z2: np.ndarray, theta: float, r: float, R: float) -> float:
    """c of the homogeneous mollifier rows z1 and z2, Tc against the Gram
    of c_factors of their factors at r: the one evaluation of c_core and of
    a miss of c_value."""
    theta, r, R = float(theta), float(r), float(R)
    _check_scalars(theta, R, r=r)
    rows = node_rows(theta, R, max(len(z1), len(z2)) - 1)
    c = contract(rows.Tc, gram(c_factors(rows.factors(z1), rows.factors(z2), r), rows.wx))
    if not math.isfinite(c):
        raise NonFiniteError(f"c evaluated to {c!r}")
    return c


def c_core(p1, p2, theta: float, r: float, R: float) -> float:
    """c from float shape coefficients: the search objective evaluates
    through here, and a miss of c_value is the same evaluation of the
    shapes' float rows."""
    return _c(_homogeneous(p1), _homogeneous(p2), theta, r, R)


@lru_cache(maxsize=_NODE_ROWS_KEPT)
def _c_memo(point: tuple[float, float, float], z2: bytes, z1: bytes) -> float:
    theta, R, r = point
    return _c(np.frombuffer(z1), np.frombuffer(z2), theta, r, R)


def c_value(p: SectionFourParams) -> float:
    """The mollified second-moment constant of the two-mollifier detector,
    read from its memo at the binary64 (theta, R, r) and the rows."""
    return _c_memo(p._point, p.p2_shape.row, p.p1_shape.row)


def nu_bound(c: float, R: float) -> float:
    """Additional-zeros bound coefficient ln(c) / (2R), c at least 1."""
    if not c >= 1:
        raise ConstantBelowOneError(f"c must be at least 1, got {c!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    return math.log(c) / (2.0 * R)


def _c1(up: np.ndarray, w: np.ndarray, theta: float, R: float, delta: float) -> float:
    """c1 of the homogeneous mollifier row up and twist row w, the T of w
    at delta against the X of up: the one evaluation of c1_core and of a
    miss of c1_value."""
    theta, R, delta = float(theta), float(R), float(delta)
    _check_scalars(theta, R, delta=delta)
    rows = node_rows(theta, R, len(up) - 1, len(w) - 2)
    c1 = contract(rows.gram_of(w, delta), rows.gram_of(up))
    if not math.isfinite(c1):
        raise NonFiniteError(f"c1 evaluated to {c1!r}")
    return c1


def c1_core(p, q, theta: float, R: float, delta: float) -> float:
    """c1 from float coefficients p and q = (q0, q_1, .., q_m), the twist
    v = delta (1, q): the search objective, and a miss of c1_value is the
    same evaluation of the shapes' float rows."""
    if len(q) < 1:
        raise ValueError("c1_core: the twist needs at least q_linear, got no entries")
    return _c1(_homogeneous(p), _homogeneous(q), theta, R, delta)


@lru_cache(maxsize=_NODE_ROWS_KEPT)
def _c1_memo(point: tuple[float, float, float], w: bytes, up: bytes) -> float:
    return _c1(np.frombuffer(up), np.frombuffer(w), *point)


def c1_value(p: SectionFiveParams) -> float:
    """The twisted second-moment constant of the critical-line detector,
    read from its memo at the binary64 (theta, R, delta) and the rows."""
    return _c1_memo(p._point, p.q_shape.row, p.p_shape.row)


def kappa_bound(c1: float, R: float) -> float:
    """Critical-line proportion coefficient 1 - ln(c1) / R, c1 at least 1."""
    if not c1 >= 1:
        raise ConstantBelowOneError(f"c1 must be at least 1, got {c1!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    return 1.0 - math.log(c1) / R


def unconditional_bounds(kappa: float, nu: float) -> tuple[float, float]:
    """Distinct and simple proportions without GRH: (1/2 + k/2 - nu, k - 2 nu)."""
    return 0.5 + kappa / 2.0 - nu, kappa - 2.0 * nu


def grh_bounds(nu: float) -> tuple[float, float]:
    """Distinct and simple proportions under GRH: (1 - nu, 1 - 2 nu)."""
    return 1.0 - nu, 1.0 - 2.0 * nu


def _quantities(c: float, R4: float, c1: float, R5: float) -> tuple[float, ...]:
    """The eight quantities of a report, in BoundReport's order, from the
    two constants and their contour offsets: the one composition."""
    nu = nu_bound(c, R4)
    kappa = kappa_bound(c1, R5)
    return (c, nu, c1, kappa, *unconditional_bounds(kappa, nu), *grh_bounds(nu))


def bounds_table(c: float, R4: float, c1: float, R5: float) -> dict[str, float]:
    """The eight quantities of a report keyed by BoundReport's first eight
    field names, in their order."""
    return dict(zip(BoundReport._fields[:8], _quantities(c, R4, c1, R5)))


def full_report(p4: SectionFourParams, p5: SectionFiveParams) -> BoundReport:
    """c of p4 and c1 of p5, each read from its memo at a seen point, and
    the quantities _quantities composes from them."""
    return BoundReport(*_quantities(c_value(p4), p4.R, c1_value(p5), p5.R), p4, p5)
