"""Moment tables, and the node rows of the integral-of-squares form.

moments() gives the four exact integrals over [0,1] of P1'P2', P1'P2,
P1 P2' and P1 P2 of a polynomial pair, in one integer pass with no
derivative polynomial built, from which the oracle builds the moment
kernel h(a, b).  The engine does not use the kernel: with
E(s) = (1 - e^{-s})/s = int_0^1 e^{-st} dt, every derivative of h at
a = b = -R is an integral against e^{2Rt}, and each bound constant is 1
plus the integral of a square (the classical form of Levinson's method;
Conrey, J. reine angew. Math. 399, 1989):

    c  = 1 + (1/theta) int int e^{2Rt} [A1(x) - (t A2(x) + theta P2(x)) / r]^2
    c1 = 1 + (1/theta) int int e^{2Rt} [U(t) A(x) + theta U'(t) P(x)]^2

with A = P' + R theta P and U = (1 - delta) + delta (1 - 2t) Q(t) =
1 + Psi v, v = delta (1, q), over the twist directions
Psi_j = (1 - 2t) b_j - [j = 0] of the twist basis b.  node_rows holds
what these Gauss-Legendre sums read at one (theta, R): the weights, and
the rows of the mollifier basis, its derivative and Psi at the nodes,
exact values rounded once and cached per degree and node count; nothing
is built at import.  The m + 3 x-nodes integrate the degree-2m+2 square
in x exactly; the t-nodes follow t_count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

import numpy as np
from numpy.polynomial.legendre import leggauss

from .polyalg import (ONE, ZERO, Poly, _integral_weights, mollifier_basis, poly_derivative,
                      poly_eval, twist_basis)


@dataclass(frozen=True)
class MomentTable:
    """The four exact moments of a polynomial pair, as integer numerators
    over one denominator: nums is (m_dd, m_dp, m_pd, m_pp) times den.

    Canonical form: den > 0 and gcd(den, *nums) = 1, so the zero table is
    ((0, 0, 0, 0), 1) and equal tables compare equal.  MomentTable.of
    builds one from four rationals; the constructor takes only the
    canonical form and fails naming it.
    """

    nums: tuple[int, int, int, int]
    den: int = 1

    def __post_init__(self) -> None:
        if len(self.nums) != 4 or not all(type(x) is int for x in (*self.nums, self.den)):
            raise ValueError("MomentTable is four integer numerators over one integer "
                             f"denominator, not {self.nums!r} / {self.den!r}")
        if self.den <= 0 or math.gcd(self.den, *self.nums) != 1:
            raise ValueError("MomentTable not in canonical form (denominator not positive, "
                             "or a factor shared with the numerators)")

    @staticmethod
    def of(m_dd, m_dp, m_pd, m_pp) -> "MomentTable":
        """The table of four rationals (ints or Fractions), over their
        least common denominator."""
        ms = [Fraction(m) for m in (m_dd, m_dp, m_pd, m_pp)]
        den = math.lcm(*(m.denominator for m in ms))
        return MomentTable(tuple(m.numerator * (den // m.denominator) for m in ms), den)

    m_dd = property(lambda self: Fraction(self.nums[0], self.den), doc="integral of P1' P2'")
    m_dp = property(lambda self: Fraction(self.nums[1], self.den), doc="integral of P1' P2")
    m_pd = property(lambda self: Fraction(self.nums[2], self.den), doc="integral of P1 P2'")
    m_pp = property(lambda self: Fraction(self.nums[3], self.den), doc="integral of P1 P2")

    @cached_property
    def floats(self) -> tuple[float, float, float, float]:
        """The four moments, in field order, each rounded to binary64 once
        per table: an integer quotient is correctly rounded, as float() of
        the exact moment is."""
        return tuple(n / self.den for n in self.nums)

    def transpose(self) -> "MomentTable":
        """Moment table of the reversed pair (P2, P1)."""
        dd, dp, pd, pp = self.nums
        return MomentTable((dd, pd, dp, pp), self.den)


def moments(p1: Poly, p2: Poly) -> MomentTable:
    """The four moments of (p1, p2) in one integer pass.  With p1 = a / D1,
    p2 = b / D2 and the cached weights w_s = L / (s + 1), L = lcm(1..deg p1
    + deg p2 + 1) (polyalg._integral_weights), each pair (a_j, b_k) enters
    m_pp with weight w_{j+k}, m_pd with k w_{j+k-1}, m_dp with j w_{j+k-1}
    and m_dd with jk w_{j+k-2}.  So with the inner sums
    r_j = sum_k b_k w_{j+k} and r'_j = sum_k (k+1) b_{k+1} w_{j+k}:
    m_pp = sum_j a_j r_j, m_pd = sum_j a_j r'_j, m_dp = sum_j j a_j r_{j-1}
    and m_dd = sum_j j a_j r'_{j-1}, four integers over D1 D2 L, reduced
    by one gcd."""
    a, b = p1.nums, p2.nums
    da = [j * x for j, x in enumerate(a)][1:]
    db = [k * y for k, y in enumerate(b)][1:]
    L, w = _integral_weights(len(a) + len(b) - 1)
    r = [sum(map(mul, b, w[j:])) for j in range(len(a))]
    dr = [sum(map(mul, db, w[j:])) for j in range(len(a))]
    nums = [sum(map(mul, u, v)) for u, v in ((da, dr), (da, r), (a, dr), (a, r))]
    den = p1.den * p2.den * L
    g = math.gcd(den, *nums)
    return MomentTable(tuple(n // g for n in nums), den // g)


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
def _rows(n: int, m: int, twist: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows of a basis and its derivative at the n nodes: the
    degree-m mollifier basis, (n, m + 1), or the twist directions Psi_j of
    the twist basis with m symmetric terms, (n, m + 2).  Each value is the
    exact value at the binary64 node, rounded once."""
    if twist:  # Psi_j = (1 - 2t) b_j - [j = 0]
        basis = tuple(b - Poly.of((0, *b.nums), b.den).scale(2) - (ONE if j == 0 else ZERO)
                      for j, b in enumerate(twist_basis(m)))
    else:
        basis = mollifier_basis(m)
    nodes = [Fraction(float(x)) for x in _gauss(n)[0]]
    tables = tuple(np.array([[float(poly_eval(p, x)) for p in polys] for x in nodes])
                   for polys in (basis, tuple(map(poly_derivative, basis))))
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass(frozen=True)
class NodeRows:
    """What both squares read at one (theta, R): the t-nodes, the weights
    W = wt wx' as their two factors, and the mollifier (A, P) and twist
    (psi, dpsi) rows."""

    theta: float
    t: np.ndarray                # (n_t,)
    wt: np.ndarray               # e^{2Rt} w_t, (n_t,)
    wx: np.ndarray               # w_x / theta, (n_x,)
    A: np.ndarray                # b_i' + R theta b_i at the x-nodes, (n_x, m + 1)
    P: np.ndarray                # b_i at the x-nodes, (n_x, m + 1)
    psi: np.ndarray | None       # Psi_j at the t-nodes, (n_t, k + 2); None for c
    dpsi: np.ndarray | None      # Psi_j'

    @property
    def W(self) -> np.ndarray:
        """The weight of each node pair, (n_t, n_x)."""
        return np.outer(self.wt, self.wx)

    def square(self, L: np.ndarray) -> float:
        """1 + sum W L^2: the constant whose root L holds at the nodes; an
        overflow reads inf, for the caller's finiteness check."""
        return 1.0 + float(np.einsum("t,tx,tx,x->", self.wt, L, L, self.wx))

    def rate(self, L: np.ndarray, dL: np.ndarray) -> float:
        """d/dR of square(L), given the root's own R derivative dL: the
        weights contribute 2t W."""
        grown = self.t[:, None] * L + dL  # d/dR of W L^2 is 2 W L (t L + dL)
        return 2.0 * float(np.einsum("t,tx,tx,x->", self.wt, L, grown, self.wx))

    def d_dR(self) -> "NodeRows":
        """The rows whose root is the R derivative of this one's.  Both
        roots are linear in (A, P) together, and only A moves with R, by
        theta P."""
        return replace(self, A=self.theta * self.P, P=np.zeros_like(self.P))


def node_rows(theta: float, R: float, m: int, k: int | None = None) -> NodeRows:
    """The node rows at (theta, R) for mollifier degree m and, for c1, a
    twist with k symmetric terms (U of degree 2k + 2 in t); for c, whose
    root is linear in t, k is None.  Inputs are not validated: the callers
    in proportions check theta and R."""
    (_, wx), (P, D) = _gauss(m + 3), _rows(m + 3, m, False)
    t, wt = _gauss(t_count(R, 1 if k is None else 2 * k + 2))
    psi, dpsi = (None, None) if k is None else _rows(len(t), k, True)
    return NodeRows(theta, t, wt * np.exp(2.0 * R * t), wx / theta, D + (R * theta) * P, P,
                    psi, dpsi)
