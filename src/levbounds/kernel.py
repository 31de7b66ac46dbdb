"""The float engine: node rows of the integral-of-squares form.

The exact x-integrals of a polynomial pair live in polyalg, the one
exact layer, and serve only the oracle, which builds from them the
moment kernel h(a, b) as its definition-form check.  The engine reads
neither: with E(s) = (1 - e^{-s})/s = int_0^1 e^{-st} dt, every
derivative of h at a = b = -R is an integral against e^{2Rt}, and each
bound constant is 1 plus the integral of a square (the classical form
of Levinson's method; Conrey, J. reine angew. Math. 399, 1989):

    c  = 1 + (1/theta) int int e^{2Rt} [A1(x) - (t A2(x) + theta P2(x)) / r]^2
    c1 = 1 + (1/theta) int int e^{2Rt} [U(t) A(x) + theta U'(t) P(x)]^2

with A = P' + R theta P and U = (1 - delta) + delta (1 - 2t) Q(t) =
1 + Psi v, v = delta (1, q), over the twist directions
Psi_j = (1 - 2t) b_j - [j = 0] of the twist basis b.  Each root has rank
2 over the (t, x) nodes and is linear in each shape's homogeneous row,
so it reads a shape only through its root factors, one stacked
(2, nodes) array formed in place from the row's one product with the
stacked basis rows (basis_products, NodeRows.factors): [A u; theta P u]
at the x-nodes for a mollifier row u, with A u = D u + R theta P u and D
the derivative rows, and [U; U'] = [1 + Psi v; Psi' v] at the t-nodes for
a twist v = delta w, w its row.  Each root is then one matrix product of
these factors (proportions.c_root, c1_root).  The basis rows are exact
values at the nodes rounded once, cached per degree and node count.  An
exact shape keeps what the core forms from it: its float row (shape_row)
and its root factors per point (kept_factors), a mollifier's keyed by
(x-node count, rho = R theta, theta) and a twist's by (t-node count,
delta), so reports that revisit a shape at a point it has seen form
nothing; each shape keeps at most _NODE_ROWS_KEPT points, the oldest
dropped first.  The constants are not kept: each call forms its root
from the factors and its own r.  node_rows holds the rest of what these
Gauss-Legendre sums read at one (theta, R): R theta, the t-nodes, the
rows [t, 1] and the weights, built once per point and degrees and
shared, read-only, by every later read of that point while it is among
the last _NODE_ROWS_KEPT read.  Nothing is built at import.  The m + 3
x-nodes integrate the degree-2m+2 square in x exactly; the t-nodes
follow t_count.
"""

from __future__ import annotations

import math
from decimal import Decimal
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
def _t_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The n t-nodes, each less 1, their weights, and the rows [t, 1],
    (n, 2), that c's root reads, read-only.  node_rows forms each weight
    e^{2Rt} w_t as (w_t e^{2R}) e^{2R (t - 1)}: t - 1 is exact for
    t >= 1/2, where the weights are largest, so the exponent is off by
    about 2R |t - 1| u, not the 2Rt u that rounding 2Rt would give (up to
    6.7e-14 of a weight at R = 300)."""
    t, wt = _gauss(n)
    less_1, t1 = t - 1.0, np.column_stack((t, np.ones_like(t)))
    for table in (less_1, t1):
        table.setflags(write=False)
    return t, less_1, wt, t1


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
    """The stacked products [D u; P u] at the n x-nodes of a homogeneous
    row u with the derivative rows D and the rows P of the mollifier basis
    of degree len(u) - 1, or with twist [Psi v; Psi' v] at the n t-nodes
    with the twist directions of len(u) - 2 symmetric terms: (2, n), from
    one matrix product with the stacked rows (_rows); for the k columns of
    a matrix u, (2, n, k).  The float core reads every shape through these
    products."""
    return _rows(n, len(u) - 1 - twist, twist) @ u


def shape_row(shape: MollifierShape | TwistShape) -> np.ndarray:
    """The homogeneous row of an exact shape in binary64, each entry
    rounded once: (1, shape_coeffs) for a mollifier, (1, linear_coeff,
    sym_coeffs) for a twist.  Formed on the first read and kept on the
    shape (its kept["row"]), read-only; an entry outside binary64 raises
    ValueError naming the shape's field, the index and the value."""
    kept = shape.kept
    row = kept.get("row")
    if row is None:
        twist = isinstance(shape, TwistShape)
        entries = (shape.linear_coeff, *shape.sym_coeffs) if twist else shape.shape_coeffs
        try:
            row = np.array([1.0, *map(float, entries)])
        except OverflowError:  # an entry past the binary64 range
            i, x = next((i, x) for i, x in enumerate(entries) if _overflows(x))
            name = (f"shape_coeffs[{i}]" if not twist else
                    "linear_coeff" if i == 0 else f"sym_coeffs[{i - 1}]")
            shown = f"{Decimal(x.numerator) / x.denominator:.6e}"
            raise ValueError(f"{type(shape).__name__}.{name} = {shown} is outside binary64"
                             ) from None
        row.setflags(write=False)
        kept["row"] = row
    return row


def _overflows(x: Fraction) -> bool:
    try:
        float(x)
    except OverflowError:
        return True
    return False


class NodeRows(NamedTuple):
    """What both squares read at one (theta, R): rho = R theta, the t-nodes,
    the rows [t, 1] and the weights W = wt wx' as their two factors.  A
    root reads each shape through its root factors at these node counts
    (factors): a mollifier's [A u; theta P u], a twist's [U; U'].  A named
    tuple of floats and read-only arrays: node_rows hands one object per
    point to every caller, so no caller can change it."""

    theta: float
    rho: float                   # R theta
    t: np.ndarray                # (n_t,)
    t1: np.ndarray               # [t, 1] at each t-node, (n_t, 2); cached per n_t
    wt: np.ndarray               # e^{2Rt} w_t, (n_t,)
    wx: np.ndarray               # w_x / theta, (n_x,)

    @property
    def W(self) -> np.ndarray:
        """The weight of each node pair, (n_t, n_x)."""
        return np.outer(self.wt, self.wx)

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

    def square(self, L: np.ndarray) -> float:
        """1 + sum W L^2: the constant whose root L holds at the nodes; an
        overflow reads inf, silently, for the caller's finiteness check."""
        return 1.0 + float(np.einsum("t,tx,tx,x->", self.wt, L, L, self.wx))

    def rate(self, L: np.ndarray, dL: np.ndarray) -> float:
        """d/dR of square(L), given the root's own R derivative dL: the
        weights contribute 2t W."""
        grown = self.t[:, None] * L + dL  # d/dR of W L^2 is 2 W L (t L + dL)
        return 2.0 * float(np.einsum("t,tx,tx,x->", self.wt, L, grown, self.wx))

    @staticmethod
    def d_dR(factors: np.ndarray) -> np.ndarray:
        """The mollifier factors whose root is the R derivative of the root
        of these: both roots are linear in [A u; theta P u], and only
        A u = D u + rho P u moves with R, by theta P u, so the rows map to
        [theta P u; 0], a row copy."""
        moved = np.zeros_like(factors)
        moved[0] = factors[1]
        return moved


# node_rows keeps the rows of this many points, the least recently read
# dropped first, and each exact shape its root factors at this many
# points, the oldest formed dropped first: a sweep pass reads 10 points'
# rows and each shape at 5 to 10 points, and a search operation 6 points'
# rows, so each is formed once, and a point that does not recur costs one
# build
_NODE_ROWS_KEPT = 64


def kept_factors(rows: NodeRows, shape: MollifierShape | TwistShape,
                 delta: float | None = None) -> np.ndarray:
    """rows.factors of an exact shape's float row (shape_row): a
    mollifier's [A u; theta P u], delta None, or a twist's [U; U'] at
    delta.  Formed on the first read of a point and kept on the shape (its
    kept["factors"]), read-only, keyed by what fixes them besides the
    shape: (x-node count, rho, theta) or (t-node count, delta).  A shape
    keeps _NODE_ROWS_KEPT points, the oldest formed dropped first."""
    twist = delta is not None
    if isinstance(shape, TwistShape) != twist:
        raise TypeError(f"kept_factors: a {type(shape).__name__} "
                        f"{'takes no' if twist else 'needs a'} delta")
    kept = shape.kept.setdefault("factors", {})
    key = (len(rows.t), delta) if twist else (len(rows.wx), rows.rho, rows.theta)
    factors = kept.get(key)
    if factors is None:
        factors = rows.factors(shape_row(shape), delta)
        factors.setflags(write=False)
        if len(kept) == _NODE_ROWS_KEPT:
            del kept[next(iter(kept))]
        kept[key] = factors
    return factors


def node_rows(theta: float, R: float, m: int, k: int | None = None) -> NodeRows:
    """The node rows at (theta, R) for mollifier degree m, on m + 3
    x-nodes, and, for c1, a twist with k symmetric terms (U of degree
    2k + 2 in t); for c, whose root is linear in t, k is None.

    One shared, read-only object per point: theta and R are read as
    floats, so an int, a float and a numpy float of one value are one
    point, and a later call returns the object the first call built.
    Inputs are not validated: the callers in proportions check theta
    and R."""
    return _node_rows(float(theta), float(R), m, k)


@lru_cache(maxsize=_NODE_ROWS_KEPT)
def _node_rows(theta: float, R: float, m: int, k: int | None) -> NodeRows:
    wx = _gauss(m + 3)[1] / theta
    t, t_less_1, wt, t1 = _t_rule(t_count(R, 1 if k is None else 2 * k + 2))
    wt = (wt * math.exp(2.0 * R)) * np.exp((2.0 * R) * t_less_1)
    for table in (wt, wx):
        table.setflags(write=False)
    return NodeRows(theta, R * theta, t, t1, wt, wx)
