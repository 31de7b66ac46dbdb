"""Bound constants and the distinct/simple zero proportion combiners.

Two independent constants are computed from kernel derivatives at a
base point:

  c(theta, r, R)   one kernel per mollifier pair, combined as
                   h11 + (1/r) d_a h21 + (1/r) d_b h12 + (1/r^2) d_ab h22,
                   all at a = b = -R;
  c1(theta, R)     a single kernel for the pair (P, P), hit on each side by
                   the twist operator D = (1-delta) Id + delta (Id + 2 d) Q(-d)
                   and extracted at (0,0).

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

from .kernel import MAX_BASE_R, MIN_BASE_R, kernel_derivative_basis, moment_grams
from .polyalg import MollifierShape, TwistShape, twist_matrix


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


def _homogeneous(*shapes) -> np.ndarray:
    """Rows (1, c_1, .., c_m), zero-padded to the longest shape.

    Rejects non-finite coefficients with ValueError, as building the exact
    shape from them does.
    """
    m = max(len(c) for c in shapes)
    u = np.zeros((len(shapes), m + 1))
    u[:, 0] = 1.0
    for row, c in zip(u, shapes):
        row[1:len(c) + 1] = c
    if not np.isfinite(u).all():
        raise ValueError("shape coefficients must be finite")
    return u


def c_core(p1, p2, theta: float, r: float, R: float) -> float:
    """c from float shape coefficients; c_value and the search objective
    both evaluate through here.

    The kernels of the pairs (P_a, P_b) at a = b = -R enter through their
    derivative d_a^a d_b^b with weight r^-(a+b), a, b in {0, 1}: the value
    of (P1,P1), d_a of (P2,P1), d_b of (P1,P2) and d_ab of (P2,P2).  Both
    the moments and the kernel are linear, so c is one contraction of the
    shapes with the moment Gram matrices and the kernel's unit-moment
    derivatives.
    """
    theta, r, R = float(theta), float(r), float(R)
    _check_scalars(theta, R, r=r)
    u = _homogeneous(p1, p2)
    weight = np.array([1.0, 1.0 / r])
    kernel = kernel_derivative_basis(theta, R, 1) * np.multiply.outer(weight, weight)
    c = float(np.einsum("ai,kij,bj,kab->", u, moment_grams(u.shape[1] - 1), u, kernel))
    if not math.isfinite(c):
        raise NonFiniteError(f"c evaluated to {c!r}")
    return c


def c_value(p: SectionFourParams) -> float:
    """The mollified second-moment constant of the two-mollifier detector."""
    return c_core([float(c) for c in p.p1_shape.shape_coeffs],
                  [float(c) for c in p.p2_shape.shape_coeffs], p.theta, p.r, p.R)


def nu_bound(c: float, R: float) -> float:
    """Additional-zeros bound coefficient ln(c) / (2R)."""
    if not c > 0:
        raise NonPositiveConstantError(f"c must be positive, got {c!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    return math.log(c) / (2.0 * R)


def twist_operator_coefficients(q_monomial, delta: float) -> np.ndarray:
    """Expansion of (1-delta) Id + delta (Id + 2 d) Q(-d) over powers of d.

    With Q(x) = sum_k q_k x^k the derivative-power coefficients are

        u_j = (1-delta) [j=0] + delta (-1)^j (q_j - 2 q_{j-1}),

    one entry per j = 0 .. deg(Q)+1.  These are the weights the operator
    puts on the kernel derivatives d^j in each variable.
    """
    q = np.asarray(q_monomial, dtype=float)
    w = np.zeros(len(q) + 1)
    w[:-1] = q
    w[1:] -= 2.0 * q
    w[1::2] *= -1.0
    u = delta * w
    u[0] += 1.0 - delta
    return u


def c1_core(p, q, theta: float, R: float, delta: float) -> float:
    """c1 from float coefficients; c1_value and the search objective both
    evaluate through here.

    p holds the mollifier shape, q the twist shape (q0, q_1, .., q_m).  The
    kernel of (P, P) is taken to order deg(Q)+1 per variable (the Id + 2d
    factor needs one derivative beyond Q's degree), and the operator acts
    in a and in b as the quadratic form u^T H u over its derivative matrix
    H, itself the moments of (P, P) contracted with the unit-moment
    derivative matrices.
    """
    theta, R, delta = float(theta), float(R), float(delta)
    _check_scalars(theta, R, delta=delta)
    if len(q) < 1:
        raise ValueError("c1_core: the twist needs at least q_linear, got no entries")
    up = _homogeneous(p)[0]
    mt = np.einsum("i,kij,j->k", up, moment_grams(len(up) - 1), up)
    q_monomial = twist_matrix(len(q) - 1) @ _homogeneous(q)[0]
    u = twist_operator_coefficients(q_monomial, delta)
    kernel = kernel_derivative_basis(theta, R, len(q_monomial))
    c1 = float(np.einsum("k,kmn,m,n->", mt, kernel, u, u))
    if not math.isfinite(c1):
        raise NonFiniteError(f"c1 evaluated to {c1!r}")
    return c1


def c1_value(p: SectionFiveParams) -> float:
    """The twisted second-moment constant of the critical-line detector."""
    q = p.q_shape
    return c1_core([float(c) for c in p.p_shape.shape_coeffs],
                   [float(q.linear_coeff)] + [float(c) for c in q.sym_coeffs],
                   p.theta, p.R, p.delta)


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
