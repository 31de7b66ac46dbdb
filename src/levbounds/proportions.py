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
(an expansion in 1/r would cancel).  c_value and c1_value keep the
constant itself on their first mollifier (kept["c"], kept["c1"], through
kernel._keep), per point, (theta, R, r) or (theta, R, delta), and the
partner's or the twist's float row as bytes: a key by value that pins
every input, so a hit checks and forms nothing.  A miss evaluates from
what the mollifiers keep (kernel.kept_factors, kernel.kept_gram), and
keeps nothing when it raises; c_core and c1_core form the same Grams on
each call with the same operations, so both give the same bits.

From them nu = ln(c)/(2R) and kappa = 1 - ln(c1)/R (natural logarithm:
the only base consistent with the reference constants), and the four
proportions d = 1/2 + kappa/2 - nu, s = kappa - 2 nu, d_grh = 1 - nu and
s_grh = 1 - 2 nu, composed in bounds_table only.  nu and kappa share no
parameters, so a report evaluates its two halves independently.
"""


from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernel import (MAX_BASE_R, MIN_BASE_R, NodeRows, _keep, c_factors, gram, kept_factors,
                     kept_gram, node_rows, shape_row)
from .polyalg import MollifierShape, TwistShape


class NonFiniteError(ArithmeticError):
    """A bound computation produced NaN or infinity."""


class NonPositiveConstantError(ValueError):
    """log of a non-positive moment constant requested."""


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


def _check_params(**scalars: float) -> None:
    """A params class's scalars: real numbers and not bools, since the kept
    constants are keyed by them as given, in the float core's domain."""
    for name, x in scalars.items():
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a finite number, got {x!r}")
    _check_scalars(**scalars)


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
        _check_params(theta=self.theta, r=self.r, R=self.R)


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
        _check_params(theta=self.theta, R=self.R, delta=self.delta)


@dataclass(frozen=True)
class BoundReport:
    """The eight quantities of bounds_table, in its order, and the params
    they come from; full_report fills the fields positionally."""

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


def _c(factors, z1, z2, m: int, theta: float, r: float, R: float) -> float:
    """c at mollifier degree m, Tc against the Gram of c_factors of both
    mollifiers' factors(rows, z) at r: the one evaluation of c_core and c_value."""
    theta, r, R = float(theta), float(r), float(R)
    _check_scalars(theta, R, r=r)
    rows = node_rows(theta, R, m)
    c = contract(rows.Tc, gram(c_factors(factors(rows, z1), factors(rows, z2), r), rows.wx))
    if not math.isfinite(c):
        raise NonFiniteError(f"c evaluated to {c!r}")
    return c


def c_core(p1, p2, theta: float, r: float, R: float) -> float:
    """c from float shape coefficients, its factors formed on each call; the
    search objective evaluates through here, and c_value is the same
    evaluation on the factors the shapes keep, bit for bit."""
    z1, z2 = _homogeneous(p1), _homogeneous(p2)
    return _c(NodeRows.factors, z1, z2, max(len(z1), len(z2)) - 1, theta, r, R)


def c_value(p: SectionFourParams) -> float:
    """The mollified second-moment constant of the two-mollifier detector,
    kept on the first mollifier per (theta, R, r) and partner row."""
    s1, s2 = p.p1_shape, p.p2_shape
    key = p.theta, p.R, p.r, shape_row(s2).tobytes()
    try:
        return s1.kept["c"][key]
    except KeyError:
        m = max(len(s1.shape_coeffs), len(s2.shape_coeffs))
        return _keep(s1, "c", key, _c(kept_factors, s1, s2, m, p.theta, p.r, p.R))


def nu_bound(c: float, R: float) -> float:
    """Additional-zeros bound coefficient ln(c) / (2R)."""
    if not c > 0:
        raise NonPositiveConstantError(f"c must be positive, got {c!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    return math.log(c) / (2.0 * R)


def _c1(x_gram, up, w, m: int, k: int, theta: float, R: float, delta: float) -> float:
    """c1 at mollifier degree m and k symmetric twist terms, the T of the
    twist row w at delta against the mollifier's X, x_gram(rows, up): the
    one evaluation of c1_core and c1_value."""
    theta, R, delta = float(theta), float(R), float(delta)
    _check_scalars(theta, R, delta=delta)
    rows = node_rows(theta, R, m, k)
    c1 = contract(rows.gram_of(w, delta), x_gram(rows, up))
    if not math.isfinite(c1):
        raise NonFiniteError(f"c1 evaluated to {c1!r}")
    return c1


def c1_core(p, q, theta: float, R: float, delta: float) -> float:
    """c1 from float coefficients p and q = (q0, q_1, .., q_m), the twist
    v = delta (1, q), their Grams formed on each call: the search
    objective, bit for bit c1_value on the mollifier's kept Gram."""
    if len(q) < 1:
        raise ValueError("c1_core: the twist needs at least q_linear, got no entries")
    up, w = _homogeneous(p), _homogeneous(q)
    return _c1(NodeRows.gram_of, up, w, len(up) - 1, len(w) - 2, theta, R, delta)


def c1_value(p: SectionFiveParams) -> float:
    """The twisted second-moment constant of the critical-line detector,
    kept on the mollifier per (theta, R, delta) and twist row."""
    s, w = p.p_shape, shape_row(p.q_shape)
    key = p.theta, p.R, p.delta, w.tobytes()
    try:
        return s.kept["c1"][key]
    except KeyError:
        return _keep(s, "c1", key, _c1(kept_gram, s, w, len(s.shape_coeffs), len(w) - 2,
                                       p.theta, p.R, p.delta))


def kappa_bound(c1: float, R: float) -> float:
    """Critical-line proportion coefficient 1 - ln(c1) / R."""
    if not c1 > 0:
        raise NonPositiveConstantError(f"c1 must be positive, got {c1!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    return 1.0 - math.log(c1) / R


def unconditional_bounds(kappa: float, nu: float) -> tuple[float, float]:
    """Distinct and simple proportions without GRH: (1/2 + k/2 - nu, k - 2 nu)."""
    return 0.5 + kappa / 2.0 - nu, kappa - 2.0 * nu


def grh_bounds(nu: float) -> tuple[float, float]:
    """Distinct and simple proportions under GRH: (1 - nu, 1 - 2 nu)."""
    return 1.0 - nu, 1.0 - 2.0 * nu


def bounds_table(c: float, R4: float, c1: float, R5: float) -> dict[str, float]:
    """The eight quantities of a report from the two constants and their
    contour offsets, keyed and ordered as BoundReport's fields."""
    nu = nu_bound(c, R4)
    kappa = kappa_bound(c1, R5)
    d_uncond, s_uncond = unconditional_bounds(kappa, nu)
    d_grh, s_grh = grh_bounds(nu)
    return {"c": c, "nu": nu, "c1": c1, "kappa": kappa, "d_uncond": d_uncond,
            "s_uncond": s_uncond, "d_grh": d_grh, "s_grh": s_grh}


def full_report(p4: SectionFourParams, p5: SectionFiveParams) -> BoundReport:
    """c of p4 and c1 of p5, each read from its keep at a seen point, and
    the quantities bounds_table composes from them."""
    return BoundReport(*bounds_table(c_value(p4), p4.R, c1_value(p5), p5.R).values(), p4, p5)
