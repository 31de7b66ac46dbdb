"""Independent numeric verification path.

Everything here recomputes a quantity the engine produces, by a route
that shares nothing with it beyond polynomial evaluation and the moment
data itself: Gauss-Legendre quadrature against exact moment integrals,
the root factors [A u; theta P u] and x-Gram the engine forms from each
mollifier shape's float row (NodeRows.factors and kernel.gram of
kernel.shape_row, as c and c1 form them) against the same exact moments,
and Cauchy integrals of the definition-form kernel against c and c1 from
the float core.

The kernel of a moment table is h = (m_pd + m_dp) + E(s) g(-a,-b)/theta,
s = a + b and E(s) = (1 - e^{-s})/s (_exp_ratio), total on the plane.
Its derivatives d_a^m d_b^n come from Cauchy's integral: the trapezoidal
rule on a torus about the base point, with radius (order!)^(1/order) and
N x N nodes, N = 4 order + 16, both fixed by the order alone (_torus).
c and c1 read that rule with its sums reassociated, so that each
contracts before it rounds: about (-R, -R) the kernel is C + E(s) [1,
n_j] G [1, n_k]^T on the torus nodes n_j, so each form
sum_mn u_m v_n D[m, n] is C u_0 v_0 plus four real entries of
Phi_u E Phi_v^T, Phi_u = [u^T W; u^T W diag(n)], from one E grid per call
and no D (_cauchy_forms).  c is three such forms of one order-1 grid, its
centre value the form at u = v = e_0; c1 the form at u = v = the twist
operator's weights, exact from the twist polynomial and rounded once.
The definition-form kernel on real or complex arrays and the plain
D = Re(W F W^T) route are the tests' references (tests/kernel_reference.py:
kernel_numeric, cauchy_derivatives); no command evaluates either.
The route's error against 40 digits, by order and R, is the README's
accuracy table; it is checked up to order 16 at R <= 5, at order 16,
R = 100, and at order 22, R = 0.746.  The grid's e^{-s} is at most
e^{2R + 2 rho}, rho the torus radius, which for R <= kernel.MAX_BASE_R
stays inside binary64 at every order a twist reaches (rho < 25 up to
order 64), so the grid is formed under no errstate: only _exp_ratio's
division and its near entries, where 1 - e^{-s} is redone by expm1,
take one.

The exact data is summed in integers and divided once, read straight from
each shape's integer row (1, c_1..c_m) or (1, q0, q_1..q_m) over its
common denominator (the shapes' numerators), and no polynomial or table
is built per call: each moment of a pair is the integer quotient of one
bilinear form of their rows with the cached basis tables G_k
(polyalg._moment_numerators, _moments), three forms and three quotients
for a pair of one shape, whose m_pd is its m_dp, and each twist weight
u_j that of a cached integer map of the twist row (_twist_columns) and
delta's ratio.  Only crosscheck_report builds tables (shape_moments) and
polynomials, for its Gauss-Legendre side, whose nodes and weights are cached here per node
count, as are the twist map per q_sym count and one torus table per order
(_torus), apart from the engine's node tables, read-only and built on
first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernel import NodeRows, _rows, gram, node_rows, shape_row
from .polyalg import (MollifierShape, MomentTable, Poly, TwistShape, _moment_numerators,
                      expand_mollifier, poly_derivative, shape_moments, twist_basis)
from .proportions import SectionFourParams, SectionFiveParams, c1_value, c_value


@lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre nodes mapped to [0, 1], and its weights on
    [-1, 1], for one node count, read-only."""
    x, w = leggauss(nodes)
    tables = 0.5 * (x + 1.0), w
    for table in tables:
        table.setflags(write=False)
    return tables


def quad_integrate01(p: Poly, q: Poly, nodes: int) -> float:
    """Gauss-Legendre value of the [0,1] product integral.

    Exact (up to rounding) for nodes >= (deg p + deg q) // 2 + 1.
    """
    degsum = max(p.degree, 0) + max(q.degree, 0)
    if nodes < degsum // 2 + 1:
        raise ValueError(f"{nodes} nodes cannot integrate degree {degsum} exactly")
    t, w = _legendre(nodes)
    pc = np.array(p.float_coeffs() or [0.0])
    qc = np.array(q.float_coeffs() or [0.0])
    vals = np.polynomial.polynomial.polyval(t, pc) * np.polynomial.polynomial.polyval(t, qc)
    return float(0.5 * np.dot(w, vals))


def _absolute(p: Poly) -> Poly:
    """p with each coefficient replaced by its absolute value."""
    return Poly(tuple(map(abs, p.nums)), p.den)


def _exp_ratio(s: np.ndarray, decay) -> np.ndarray:
    """E(s) = (1 - e^{-s}) / s, given e^{-s} as a product of exponentials
    that may read inf or nan, in two forms: 1 - decay where |s| >= 1, and
    -expm1(-s) where |s| < 1, which keeps full relative precision as
    s -> 0, and wherever 1 - decay is not finite (e^{-a} = 0 times
    e^{-b} = inf), so no s that expm1 takes to a finite value reads inf or
    nan.  E(0) = 1 on the removable line."""
    # an overflow, an inf times 0 and s = 0 are all in `near`, redone below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        numerator = np.asarray(1.0 - decay)
        ratio = np.asarray(numerator / s)
        near = (np.abs(s) < 1) | ~np.isfinite(numerator)
        if near.any():
            s = s[near]
            fixed = -np.expm1(-s)
            fixed /= s
            fixed[s == 0] = 1.0
            ratio[near] = fixed
    return ratio


@lru_cache(maxsize=None)
def _torus(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trapezoidal rule of Cauchy's integral on the torus at one
    order, read-only: the rows [1; n_j] of the nodes n_j = rho w^j,
    w = e^{2 pi i/N}, and W[m, j] = m! rho^-m w^-jm / N, so that
    D = Re(W F W^T) on a grid of values F (exponentially accurate for an
    entire function: Lyness & Moler 1967; Bornemann 2011); then the node
    pairs' sums n_j + n_k and products e^{-n_j} e^{-n_k} (_cauchy_forms).
    D[m, n] rounds by about eps max|F| m! n! / rho^(m+n), and the kernel
    grows like e^{-a-b}, so max|F| is about e^{2 rho} times its centre
    value.  rho = (order!)^(1/order) makes m!/rho^m 1 at m = 0 and
    m = order and smaller between (log m! is convex): the amplification is
    e^{2 rho}, about e^{2 order/e}.  Aliasing, like rho^N / N!, is far
    below that with N = 4 order + 16."""
    radius = math.factorial(order) ** (1.0 / max(order, 1))
    size = 4 * order + 16
    m = np.arange(order + 1)
    nodes = radius * np.exp(2j * np.pi * np.arange(size) / size)
    # m! rho^-m / N, each m! rounded once from the integer (int64 wraps at 21!)
    scale = np.array([float(math.factorial(k)) for k in m]) / radius ** m / size
    W = scale[:, None] * np.exp(-2j * np.pi * (np.outer(m, np.arange(size)) % size) / size)
    decay = np.exp(-nodes)
    tables = (np.stack([np.ones_like(nodes), nodes]), W, nodes[:, None] + nodes[None, :],
              np.outer(decay, decay))
    for table in tables:
        table.setflags(write=False)
    return tables


def _cauchy_forms(weights: np.ndarray, R: float) -> np.ndarray:
    """The kernel's derivative forms sum_mn u_m v_n D[m, n] at (-R, -R),
    before the moments enter: for weight rows u_i (k, order + 1), the
    (2k, 2k) matrix Phi E Phi^T, Phi stacking [u_i W; u_i W diag(n)].

    A form is C u_0 v_0 (the trapezoidal sum of a constant is exact) plus
    the 2 x 2 block of u and v against G (_kernel_terms), as the module
    docstring derives.  One E grid: s = -2R + (n_j + n_k), e^{-s} = e^{2R}
    e^{-n_j} e^{-n_k} from the torus table and one scalar exp.  For
    R <= kernel.MAX_BASE_R that product is at most e^{2R + 2 rho}, rho the
    torus radius: rho < 25 up to order 64, the largest a twist of
    polyalg.MAX_DEGREE reaches, and binary64's e^{709} needs order 140 or
    more.  So it is finite with no errstate here; _exp_ratio's covers its
    own division and near entries."""
    rows, W, sums, decay = _torus(weights.shape[1] - 1)
    phi = ((weights @ W)[:, None] * rows).reshape(-1, W.shape[1])
    E = _exp_ratio(sums - 2.0 * R, math.exp(2.0 * R) * decay)
    return phi @ E @ phi.T


def _kernel_terms(m: tuple, theta: float, R: float) -> tuple[float, tuple]:
    """C = m_pd + m_dp and the 2 x 2 G, rows of floats, with
    g(-a,-b)/theta = [1, n_a] G [1, n_b]^T at a = -R + n_a, b = -R + n_b:
    the kernel's bracket form about (-R, -R), of the float moments m."""
    mdd, mdp, mpd, mpp = m
    inner = mpd + R * theta * mpp
    return mpd + mdp, (((mdd / theta + R * mdp) + R * inner, -(mdp + R * theta * mpp)),
                       (-inner, theta * mpp))


def _form(m: tuple, theta: float, R: float, block: np.ndarray, u0v0: float) -> float:
    """sum_mn u_m v_n D[m, n] of the kernel of the moments m, from its
    2 x 2 block of _cauchy_forms and u_0 v_0."""
    C, ((g00, g01), (g10, g11)) = _kernel_terms(m, theta, R)
    (b00, b01), (b10, b11) = block.real.tolist()
    return C * u0v0 + ((g00 * b00 + g01 * b01) + (g10 * b10 + g11 * b11))


def fd_c_value(p: SectionFourParams) -> float:
    """c recomputed from the definition-form kernel alone, its value and
    derivatives by Cauchy integrals: its three forms share one grid."""
    s1, s2 = p.p1_shape, p.p2_shape
    return _fd_c(p, _moments(s1, s1), _moments(s1, s2), _moments(s2, s2))


def _moments(a: MollifierShape, b: MollifierShape) -> tuple[float, ...]:
    """The moments of (a, b), each an integer quotient rounded once: no
    table, no gcd, and for a pair of one shape, whose m_pd is its m_dp,
    three quotients."""
    nums, den = _moment_numerators(a, b)
    if a is b:
        dd, dp, _, pp = nums
        dp = dp / den
        return dd / den, dp, dp, pp / den
    return tuple([n / den for n in nums])


def _fd_c(p: SectionFourParams, m11: tuple, m12: tuple, m22: tuple) -> float:
    """fd_c_value from the float moments of (P1, P1), (P1, P2) and (P2, P2):
    c = K_11 + (d_a K_21 + d_b K_12) / r + d_a d_b K_22 / r^2 at (-R, -R),
    from one order-1 grid with the weight rows e_0 and e_1 / r.  As
    K_21(a, b) = K_12(b, a), d_a K_21 = d_b K_12 at the symmetric point,
    so (P1, P2) is counted twice."""
    M = _cauchy_forms(np.array([[1.0, 0.0], [0.0, 1.0 / p.r]]), p.R)
    return (_form(m11, p.theta, p.R, M[:2, :2], 1.0)
            + 2.0 * _form(m12, p.theta, p.R, M[:2, 2:], 0.0)
            + _form(m22, p.theta, p.R, M[2:, 2:], 0.0))


def fd_c1_value(p: SectionFiveParams) -> float:
    """c1 recomputed as u^T D u: the twist operator's weights u against the
    Cauchy-integral derivatives D of the definition-form kernel, contracted
    on the grid and D never formed (_cauchy_forms).

    The operator (1-delta) Id + delta (Id + 2 d) Q(-d) puts the weight
    u_j = (1-delta) [j=0] + delta (-1)^j (q_j - 2 q_{j-1}) on d^j in each
    variable, for Q(x) = sum_j q_j x^j.  The numerators of
    (-1)^j (q_j - 2 q_{j-1}) are one integer map of the twist row
    (1, q0, q_1..q_m) over its denominator (TwistShape.numerators,
    _twist_columns), so each u_j is exact, an integer ratio over the
    denominators of delta, the row and the map, rounded once
    (_twist_weights).  u has deg Q + 2 entries, deg Q read from the exact
    numerators, so trailing zero q_sym entries, and delta = 0, keep the
    grid of the twist they trim to.
    """
    return _fd_c1(p, _moments(p.p_shape, p.p_shape))


@lru_cache(maxsize=None)
def _twist_columns(m: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer map from the twist row (1, q0, q_1..q_m) over d to the
    numerators over d E of (-1)^j (q_j - 2 q_{j-1}), j <= 2m + 2, for
    Q = sum_j q_j x^j: the monomial numerators of twist_basis(m) over their
    common denominator E, differenced, one column per j."""
    basis = twist_basis(m)
    E, width = math.lcm(*(b.den for b in basis)), 2 * m + 3
    rows = [(0, *(a * (E // b.den) for a in b.nums)) + (0,) * (width - len(b.nums))
            for b in basis]  # row[j + 1]: the numerator of q_j
    return tuple(tuple((-1) ** j * (row[j + 1] - 2 * row[j]) for row in rows)
                 for j in range(width)), E


def _twist_weights(shape: TwistShape, delta: float) -> np.ndarray:
    """The operator weights u of fd_c1_value, each rounded once: with
    v_j = (-1)^j (q_j - 2 q_{j-1}) over d E (_twist_columns) and
    delta = num / den, u_j = (num v_j + (den - num) d E [j = 0]) / (den d E).
    v_{deg Q + 1} = -+2 q_{deg Q} is the last nonzero v_j, so the exact
    numerators give deg Q."""
    (row, d), (num, den) = shape.numerators, delta.as_integer_ratio()
    cols, E = _twist_columns(len(row) - 2)
    v = [sum(map(mul, row, col)) for col in cols]
    while v[-1] == 0:  # v_0 = d E, as Q(0) = 1
        v.pop()
    u, dE = [num * x for x in v], d * E
    u[0] += (den - num) * dE
    scale = den * dE
    return np.array([x / scale for x in u])


def _fd_c1(p: SectionFiveParams, m: tuple) -> float:
    """fd_c1_value from the float moments of (P, P)."""
    u = _twist_weights(p.q_shape, p.delta)
    return _form(m, p.theta, p.R, _cauchy_forms(u[None], p.R), float(u[0]) ** 2)


# --------------------------------------------------------------------------
# crosscheck report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    exact: float
    numeric: float
    rel_delta: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.rel_delta <= self.tolerance


@dataclass(frozen=True)
class CrosscheckReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(ch.passed for ch in self.checks)


def _rel(exact: float, numeric: float) -> float:
    scale = max(abs(exact), abs(numeric), 1e-300)
    return abs(exact - numeric) / scale


def _row_checks(name: str, mt: MomentTable, rows: NodeRows, R: float, a: MollifierShape,
                b: MollifierShape) -> list[CheckResult]:
    """What the engine forms from a pair of shapes at (theta, R) against
    their exact moments: with [A u; theta P u] each shape's root factors, the
    sums of A_a A_b, A_a (theta P_b), (theta P_a) A_b and (theta P_a)
    (theta P_b) over the x-nodes are m_dd + rho (m_dp + m_pd) + rho^2 m_pp,
    m_dp + rho m_pp, m_pd + rho m_pp and m_pp, times theta once per P and
    over theta, with theta and rho = R theta rounded once from the caller's
    R.  A pair of one shape reads the x-Gram of its float row
    (gram of its rows.factors, as c1 forms it; AP and PA its off-diagonal
    entry), a pair of two the products of their factors (rows.factors, from
    which a miss of c forms its x-Gram).
    Each error is relative to the same sum over absolute values
    (|D + rho P| |u| and |theta P| |u|), or to the exact value if that is
    larger."""
    rho, theta, n = Fraction(R * rows.theta), Fraction(rows.theta), len(rows.wx)

    def sizes(shape: MollifierShape) -> dict[str, np.ndarray]:
        u = np.abs(shape_row(shape))
        slopes, values = _rows(n, len(u) - 1, False)
        return {"A": np.abs(slopes + rows.rho * values) @ u, "P": np.abs(rows.theta * values) @ u}

    if a is b:
        x00, x01, x11 = gram(rows.factors(shape_row(a)), rows.wx)
        nums = {"AA": x00, "AP": x01, "PA": x01, "PP": x11}
    else:  # row 0 of the factors is A, row 1 theta P
        fa, fb = rows.factors(shape_row(a)), rows.factors(shape_row(b))
        nums = {ab: float(rows.wx @ (fa["AP".index(ab[0])] * fb["AP".index(ab[1])]))
                for ab in ("AA", "AP", "PA", "PP")}
    size_a, size_b = sizes(a), sizes(b)
    exact = {"AA": mt.m_dd + rho * (mt.m_dp + mt.m_pd) + rho * rho * mt.m_pp,
             "AP": mt.m_dp + rho * mt.m_pp, "PA": mt.m_pd + rho * mt.m_pp, "PP": mt.m_pp}
    checks = []
    for part, value in exact.items():
        value, num = float(value * theta ** part.count("P") / theta), nums[part]
        size = float(rows.wx @ (size_a[part[0]] * size_b[part[1]]))
        checks.append(CheckResult(f"node rows[{name}.{part}] vs exact moments", value, num,
                                  abs(value - num) / max(abs(value), size, 1e-300), 1e-12))
    return checks


def crosscheck_report(p4: SectionFourParams, p5: SectionFiveParams) -> CrosscheckReport:
    """Run every exact-vs-numeric comparison; failures are data, not errors.
    Its 20 moment checks referee shape_moments against Gauss-Legendre, its
    20 node-row checks the engine's factors and x-Grams (_row_checks: the
    exact side scaled by theta, no row divided by it), and its two Cauchy
    checks read its own tables, bit for bit fd_c_value and fd_c1_value.
    What it forms it forms on the call: a shape keeps only its float row."""
    checks: list[CheckResult] = []
    shapes = {"1": p4.p1_shape, "2": p4.p2_shape, "5": p5.p_shape}
    # the expanded polynomials feed only the quadrature side
    polys = {k: expand_mollifier(s) for k, s in shapes.items()}
    rows4 = node_rows(p4.theta, p4.R, max(len(p4.p1_shape.shape_coeffs),
                                          len(p4.p2_shape.shape_coeffs)))
    rows5 = node_rows(p5.theta, p5.R, len(p5.p_shape.shape_coeffs))
    pairs = {"m11": (rows4, p4.R), "m21": (rows4, p4.R), "m12": (rows4, p4.R),
             "m22": (rows4, p4.R), "m55": (rows5, p5.R)}
    tables = {}
    for name, (rows, R) in pairs.items():  # the pair (P_a, P_b) is m<a><b>
        pa, pb = polys[name[1]], polys[name[2]]
        mt = tables[name] = shape_moments(shapes[name[1]], shapes[name[2]])
        nodes = (max(pa.degree, 0) + max(pb.degree, 0)) // 2 + 1
        for part, exact, qa, qb in (
            ("dd", mt.m_dd, poly_derivative(pa), poly_derivative(pb)),
            ("dp", mt.m_dp, poly_derivative(pa), pb),
            ("pd", mt.m_pd, pa, poly_derivative(pb)),
            ("pp", mt.m_pp, pa, pb),
        ):
            # Horner at t in [0, 1] and the positive weights err by a few
            # eps times the same sum over absolute coefficients, however
            # much the moment cancels: each error is relative to that sum
            value, num = float(exact), quad_integrate01(qa, qb, nodes)
            size = quad_integrate01(_absolute(qa), _absolute(qb), nodes)
            checks.append(CheckResult(f"moment[{name}.{part}] vs quadrature", value, num,
                                      abs(value - num) / max(abs(value), size, 1e-300), 1e-12))
        checks += _row_checks(name, mt, rows, R, shapes[name[1]], shapes[name[2]])

    # the Cauchy checks read the tables' floats, fd_c_value's quotients
    m = {name: mt.floats for name, mt in tables.items()}
    for name, exact, cauchy in (("c", c_value(p4), _fd_c(p4, m["m11"], m["m12"], m["m22"])),
                                ("c1", c1_value(p5), _fd_c1(p5, m["m55"]))):
        checks.append(CheckResult(f"{name} vs Cauchy integrals", exact, cauchy,
                                  _rel(exact, cauchy), 1e-9))
    return CrosscheckReport(tuple(checks))
