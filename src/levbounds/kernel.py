"""The float engine: node rows and the Grams of the integral-of-squares form.

Each bound constant is 1 plus the integral of a square (Levinson's
method in its classical form; Conrey, J. reine angew. Math. 399, 1989):

    c  = 1 + (1/theta) int int e^{2Rt} [A1(x) - (t A2(x) + theta P2(x)) / r]^2
    c1 = 1 + (1/theta) int int e^{2Rt} [U(t) A(x) + theta U'(t) P(x)]^2

with A = P' + R theta P and U = 1 + Psi v, v = delta (1, q), over the
twist directions Psi_j = (1 - 2t) b_j - [j = 0].  Each root has rank 2,
sum_a U_a(t) F_a(x), so its square summed over the Gauss-Legendre nodes
is exactly 1 + sum_ab T_ab X_ab: a 2x2 t-Gram of the t-factors U against
a 2x2 x-Gram of the x-factors F (gram).  A shape is read through its root
factors, formed in place from its row's one product with the stacked
basis rows (exact values at the nodes rounded once): [A u; theta P u] at
the x-nodes for a mollifier, [U; U'] = [1 + Psi v; Psi' v] at the
t-nodes for a twist (NodeRows.factors).  c's root is centred at t = 1,
where the weights pile up, so its t-factors are [1; t - 1] and its T
three numbers per point (NodeRows.Tc); its x-factors come from both
mollifiers' factors and r (c_factors).  node_rows builds what the sums
read at one (theta, R) once and shares it, read-only.  A shape's binary64
row is the shape's own cached row (an array through shape_row), and
nothing formed at a point is kept: its factors and Grams are formed on
each evaluation.  Nothing is built at import.  The m + 3 x-nodes
integrate the degree-2m+2 square in x exactly; the t-nodes follow
t_count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .polyalg import (ONE, ZERO, MollifierShape, Poly, TwistShape, mollifier_basis,
                      poly_derivative, poly_eval, twist_basis)


MIN_BASE_R = 1e-6  # smallest contour offset R a constant is evaluated at
# largest R: the Cauchy-integral oracle, whose grid reaches e^{2R + 2 rho}
# (rho < 7 up to order 16), stays finite up to here and not past 350; the
# engine's t-node rule is tested up to here
MAX_BASE_R = 300.0


def t_count(R: float, degree: int) -> int:
    """The t-nodes for a square whose root has the given degree in t: the
    weight e^{2Rt} needs about sqrt(20 R) nodes beyond the polynomial's, as
    an n-node rule on it errs like e^{-2 n^2 / R}, and 2 spare nodes cover
    small R.  Against 60-digit sums, R in [MIN_BASE_R, MAX_BASE_R] and
    degrees 1 to 18, it is within 3e-14 of the rounding floor."""
    return degree + 3 + math.ceil(math.sqrt(20.0 * R))


@lru_cache(maxsize=None)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only.  Under
    e^{2Rt} a weight's relative error is the sum's, and numpy's leggauss
    weights drift as n grows (3e-13 at 80 nodes, 2e-12 at 120, at R = 300),
    so they are recomputed as 2 / ((1 - x^2) P_n'(x)^2) at its nodes, P_n'
    from the three-term recurrence."""
    x = leggauss(n)[0]
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
    tables = 0.5 * (x + 1.0), 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _t_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n t-nodes, c's centred t-factors [1; t - 1], (2, n), and the
    weights, read-only.  node_rows forms e^{2Rt} w_t as (w_t e^{2R})
    e^{2R (t - 1)}: t - 1 is exact for t >= 1/2, where the weights are
    largest, so the exponent is off by about 2R |t - 1| u, not 2Rt u."""
    t, wt = _gauss(n)
    centred = np.stack((np.ones_like(t), t - 1.0))
    centred.setflags(write=False)
    return t, centred, wt


@lru_cache(maxsize=None)
def _rows(n: int, m: int, twist: bool) -> np.ndarray:
    """Two basis rows at the n nodes, stacked and read-only, in the order
    of the root factors' rows they become: for the degree-m mollifier
    basis B its derivative rows D = B' and then B, (2, n, m + 1); for the
    twist directions Psi_j of the twist basis with m symmetric terms Psi
    and then Psi', (2, n, m + 2).  Each value is the exact value at the
    binary64 node, rounded once."""
    if twist:  # Psi_j = (1 - 2t) b_j - [j = 0]
        basis = tuple(b - Poly.of((0, *b.nums), b.den).scale(2) - (ONE if j == 0 else ZERO)
                      for j, b in enumerate(twist_basis(m)))
        polys = basis, tuple(map(poly_derivative, basis))
    else:
        basis = mollifier_basis(m)
        polys = tuple(map(poly_derivative, basis)), basis
    nodes = [Fraction(float(x)) for x in _gauss(n)[0]]
    table = np.array([[[float(poly_eval(p, x)) for p in row] for x in nodes] for row in polys])
    table.setflags(write=False)
    return table


def basis_products(n: int, u: np.ndarray, twist: bool = False) -> np.ndarray:
    """[D u; P u] at the n x-nodes of a mollifier row u of degree
    len(u) - 1, or with twist [Psi v; Psi' v] at the n t-nodes, (2, n), from
    one product with the stacked rows (_rows); (2, n, k) for a matrix u."""
    return _rows(n, len(u) - 1 - twist, twist) @ u


def shape_row(shape: MollifierShape | TwistShape) -> np.ndarray:
    """A shape's binary64 row (its cached row) as a float array, a
    read-only view of its bytes."""
    return np.frombuffer(shape.row)


def gram(F: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(G00, G01, G11) of sum_i w_i F_i F_i', F (2, n), as floats: one
    einsum, which checks no floating-point flag, so an overflow reads inf
    or nan without a warning (matmul warns; np.errstate costs half a Gram)."""
    (g00, g01), (_, g11) = np.einsum("ai,bi,i->ab", F, F, w).tolist()
    return g00, g01, g11


# [1, 1; 1, 0]: the rows A2 + theta P2 and A2 of the factors [A2; theta P2]
_CENTRE = np.array([[1.0, 1.0], [1.0, 0.0]])
_CENTRE.setflags(write=False)


def c_factors(z1: np.ndarray, z2: np.ndarray, r: float) -> np.ndarray:
    """c's x-factors [F0; F1] = [A1 - (A2 + theta P2) / r; -A2 / r], its
    root being F0 + (t - 1) F1, from the factors [A z; theta P z] of
    z1 = (1, p1) and z2 = (1, p2), (2, n_x), or of k stacked rows of each."""
    F = (_CENTRE @ z2) / -r
    F[..., 0, :] += z1[..., 0, :]
    return F


class NodeRows(NamedTuple):
    """What both constants read at one (theta, R), and how a shape's row
    becomes its root factors and their Gram there.  A named tuple of floats
    and read-only arrays: node_rows hands one object per point to every
    caller, so no caller can change it."""

    theta: float
    R: float
    rho: float                    # R theta
    t: np.ndarray                 # (n_t,)
    wt: np.ndarray                # e^{2Rt} w_t, (n_t,)
    wx: np.ndarray                # w_x / theta, (n_x,)
    Tc: tuple[float, float, float]  # the t-Gram of c's [1; t - 1] under wt

    def factors(self, u: np.ndarray, delta: float | None = None) -> np.ndarray:
        """The root factors of a homogeneous row u, formed in place from its
        products with the basis rows (basis_products): for a mollifier row
        (delta None) [A u; theta P u] at the x-nodes, A u = D u + rho P u,
        or for the k columns of a matrix u, (2, n_x, k); for a twist row w
        [U; U'] = [1 + Psi v; Psi' v] at the t-nodes, v = delta w."""
        if delta is not None:
            U = basis_products(len(self.t), delta * u, True)
            U[0] += 1.0
            return U
        up = basis_products(len(self.wx), u)
        up[0] += self.rho * up[1]
        up[1] *= self.theta
        return up

    def gram_of(self, u: np.ndarray, delta: float | None = None) -> tuple[float, float, float]:
        """The Gram of factors(u, delta) under their weights: X or T."""
        return gram(self.factors(u, delta), self.wx if delta is None else self.wt)

    def dT_dR(self, U: np.ndarray | None = None) -> tuple[float, float, float]:
        """d/dR of the t-Gram of U (c's [1; t - 1] when None): wt moves by 2t wt."""
        return gram(_t_rule(len(self.t))[1] if U is None else U, 2.0 * self.t * self.wt)

    @staticmethod
    def d_dR(factors: np.ndarray) -> np.ndarray:
        """The R derivative of mollifier factors: only A u = D u + rho P u
        moves with R, by theta P u, so [A u; theta P u] maps to [theta P u; 0]."""
        moved = np.zeros_like(factors)
        moved[0] = factors[1]
        return moved


# node_rows keeps this many points, the least recently read dropped first:
# a sweep pass reads 10 points' rows, a search operation 6
_NODE_ROWS_KEPT = 64


def node_rows(theta: float, R: float, m: int, k: int | None = None) -> NodeRows:
    """The node rows at (theta, R) for mollifier degree m, on m + 3
    x-nodes, and, for c1, a twist with k symmetric terms (k None for c).
    One shared object per point, theta and R read as floats, so an int, a
    float and a numpy float of one value are one point.  Inputs are not
    validated: the callers in proportions check theta and R."""
    return _node_rows(float(theta), float(R), m, k)


@lru_cache(maxsize=_NODE_ROWS_KEPT)
def _node_rows(theta: float, R: float, m: int, k: int | None) -> NodeRows:
    wx = _gauss(m + 3)[1] / theta
    t, centred, wt = _t_rule(t_count(R, 1 if k is None else 2 * k + 2))
    wt = (wt * math.exp(2.0 * R)) * np.exp((2.0 * R) * centred[1])
    for table in (wt, wx):
        table.setflags(write=False)
    return NodeRows(theta, R, R * theta, t, wt, wx, gram(centred, wt))
