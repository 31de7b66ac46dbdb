"""Bound constants and the distinct/simple zero proportion combiners.

Two independent constants, each 1 plus a weighted sum of squares of its
root over the node rows (kernel.node_rows):

  c(theta, r, R)   root A1 - (t A2 + theta P2) / r, from the two mollifiers;
  c1(theta, R)     root U A + theta U' P, from one mollifier and the twist
                   operator's U = (1 - delta) + delta (1 - 2t) Q(t).

Each root reads a shape only through its root factors (NodeRows.factors),
one stacked array per shape: [A u; theta P u] at the x-nodes for a
mollifier row u, A u = D u + R theta P u, and [U; U'] = [1 + Psi v; Psi' v]
at the t-nodes for the twist v = delta (1, q).  Each root is one matrix
product of them: c's is A1 - [t, 1] [A2; theta P2] / r, c1's
[U; U']' [A; theta P].  c_value and c1_value read the factors an exact
shape keeps per point (kernel.kept_factors); c_core and c1_core, fed
float coefficients, form the same factors on each call with the same
operations, so both give the same bits.  Neither keeps a constant: each
call forms its root from the factors and its own r, and sums its square.

From them the bound coefficients are nu = ln(c)/(2R) and
kappa = 1 - ln(c1)/R (natural logarithm: the only base consistent with the
reference constants), and the four proportions

  d        = 1/2 + kappa/2 - nu        s        = kappa - 2 nu
  d_grh    = 1 - nu                    s_grh    = 1 - 2 nu.

bounds_table is the one place these are composed.  nu and kappa share
no parameters, so a report evaluates its two halves independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import MAX_BASE_R, MIN_BASE_R, NodeRows, kept_factors, node_rows
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
        _check_scalars(self.theta, self.R, r=self.r)


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
        _check_scalars(self.theta, self.R, delta=self.delta)


@dataclass(frozen=True)
class BoundReport:
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


def c_root(rows: NodeRows, z1: np.ndarray, z2: np.ndarray, r: float) -> np.ndarray:
    """A1 - (t A2 + theta P2) / r at the nodes, (n_t, n_x), from the
    factors [A z; theta P z] of z1 = (1, p1) and z2 = (1, p2), as
    A1 - [t, 1] [A2; theta P2] / r.  Linear in (z1, z2): the factors of a
    stack of k rows, (k, 2, n_x), give the k columns of its Jacobian,
    (k, n_t, n_x)."""
    return z1[..., :1, :] - (rows.t1 @ z2) / r


def c1_root(up: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U A + theta U' P at the nodes, (n_t, n_x), as [U; U']' [A; theta P],
    from the factors [A u; theta P u] of up = (1, p) and [U; U'] at the
    t-nodes, 1 + Psi v and Psi' v for the twist v = delta (1, q).  Linear
    in each: the factors of a stack of k rows of either, (k, 2, n), give k
    columns of its Jacobian, (k, n_t, n_x)."""
    return U.swapaxes(-1, -2) @ up


def _c(factors, z1, z2, m: int, theta: float, r: float, R: float) -> float:
    """c at mollifier degree m from the mollifiers z1 and z2, read as
    factors(rows, z): c_core and c_value both evaluate through here, as 1
    plus the weighted sum of c_root's squares."""
    theta, r, R = float(theta), float(r), float(R)
    _check_scalars(theta, R, r=r)
    rows = node_rows(theta, R, m)
    c = rows.square(c_root(rows, factors(rows, z1), factors(rows, z2), r))
    if not math.isfinite(c):
        raise NonFiniteError(f"c evaluated to {c!r}")
    return c


def c_core(p1, p2, theta: float, r: float, R: float) -> float:
    """c from float shape coefficients, their factors formed on each call;
    the search objective evaluates through here, and c_value is the same
    evaluation on the shapes' kept factors, bit for bit."""
    z1, z2 = _homogeneous(p1), _homogeneous(p2)
    return _c(NodeRows.factors, z1, z2, max(len(z1), len(z2)) - 1, theta, r, R)


def c_value(p: SectionFourParams) -> float:
    """The mollified second-moment constant of the two-mollifier detector."""
    s1, s2 = p.p1_shape, p.p2_shape
    return _c(kept_factors, s1, s2, max(len(s1.shape_coeffs), len(s2.shape_coeffs)),
              p.theta, p.r, p.R)


def nu_bound(c: float, R: float) -> float:
    """Additional-zeros bound coefficient ln(c) / (2R)."""
    if not c > 0:
        raise NonPositiveConstantError(f"c must be positive, got {c!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    return math.log(c) / (2.0 * R)


def _c1(factors, up, w, m: int, k: int, theta: float, R: float, delta: float) -> float:
    """c1 at mollifier degree m and k symmetric twist terms from the
    mollifier up and the twist w, read as factors(rows, up) and
    factors(rows, w, delta): c1_core and c1_value both evaluate through
    here, as 1 plus the weighted sum of c1_root's squares."""
    theta, R, delta = float(theta), float(R), float(delta)
    _check_scalars(theta, R, delta=delta)
    rows = node_rows(theta, R, m, k)
    c1 = rows.square(c1_root(factors(rows, up), factors(rows, w, delta)))
    if not math.isfinite(c1):
        raise NonFiniteError(f"c1 evaluated to {c1!r}")
    return c1


def c1_core(p, q, theta: float, R: float, delta: float) -> float:
    """c1 from float coefficients, their factors formed on each call; the
    search objective evaluates through here, and c1_value is the same
    evaluation on the shapes' kept factors, bit for bit.

    p holds the mollifier shape, q the twist shape (q0, q_1, .., q_m), and
    the twist enters as v = delta (1, q0, q_1, .., q_m).
    """
    if len(q) < 1:
        raise ValueError("c1_core: the twist needs at least q_linear, got no entries")
    up, w = _homogeneous(p), _homogeneous(q)
    return _c1(NodeRows.factors, up, w, len(up) - 1, len(w) - 2, theta, R, delta)


def c1_value(p: SectionFiveParams) -> float:
    """The twisted second-moment constant of the critical-line detector."""
    return _c1(kept_factors, p.p_shape, p.q_shape, len(p.p_shape.shape_coeffs),
               len(p.q_shape.sym_coeffs), p.theta, p.R, p.delta)


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
    return BoundReport(**bounds_table(c_value(p4), p4.R, c1_value(p5), p5.R),
                       params4=p4, params5=p5)
