"""Independent numeric verification path.

Everything here recomputes a quantity the engine produces, by a route
that shares nothing with it beyond polynomial evaluation and the moment
data itself: Gauss-Legendre quadrature against exact moment integrals,
central finite differences against the closed-form kernel derivatives,
and finite differences of the scalar kernel against c and c1 from the
float core.

Every finite difference goes through fd_derivatives: one symmetric
tensor grid of scalar kernel values, contracted with a cached table of
compact symmetric stencils (stencil_weights, closed-form Lagrange weights
on the unit integer grid) into the whole table of mixed partials
d_a^m d_b^n.
c1 is then the quadratic form u^T D u of the twist operator's weights u,
as in the float core.  Its derivatives reach order deg(Q)+1 in each
variable, so its stencils are wide (a step of a few tenths) to survive
the step^-(m+n) rounding amplification; see fd_derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyfromroots

from .kernel import MomentTable, kernel_derivative_basis, moments
from .polyalg import Poly, expand_mollifier, expand_twist, poly_derivative
from .proportions import (SectionFourParams, SectionFiveParams,
                          c1_value, c_value, twist_operator_coefficients)


def quad_integrate01(p: Poly, q: Poly, nodes: int) -> float:
    """Gauss-Legendre value of the [0,1] product integral.

    Exact (up to rounding) for node count >= ceil((deg p + deg q)/2) + 1.
    """
    degsum = max(p.degree, 0) + max(q.degree, 0)
    if nodes < degsum // 2 + 1:
        raise ValueError(f"{nodes} nodes cannot integrate degree {degsum} exactly")
    x, w = leggauss(nodes)
    t = 0.5 * (x + 1.0)
    pc = np.array(p.float_coeffs() or [0.0])
    qc = np.array(q.float_coeffs() or [0.0])
    vals = np.polynomial.polynomial.polyval(t, pc) * np.polynomial.polynomial.polyval(t, qc)
    return float(0.5 * np.dot(w, vals))


def kernel_numeric(mt: MomentTable, theta: float, a: float, b: float) -> float:
    """Direct scalar kernel evaluation, total on the plane.

    Evaluated as (m_pd + m_dp) + E(s) g(-a,-b)/theta with s = a + b and
    E(s) = (1 - e^{-s})/s = -expm1(-s)/s, which keeps full precision at
    any s != 0; on the removable line E(0) = 1.
    """
    mdd, mdp, mpd, mpp = mt.floats
    s = a + b
    ratio = -math.expm1(-s) / s if s != 0.0 else 1.0
    g_reflected = mdd - a * theta * mpd - b * theta * mdp + a * b * theta * theta * mpp
    return (mpd + mdp) + ratio * g_reflected / theta


@lru_cache(maxsize=None)
def stencil_weights(order: int, extra: int) -> np.ndarray:
    """Compact symmetric stencils of d^0 .. d^order on the unit integer grid.

    Row m holds the (m + extra + 1)-point stencil of d^m, one point wider
    when that count is even (symmetric grids gain a parity order for even
    m), zero-padded into the grid -h .. h of the widest row.  Each weight
    is m! times the x^m coefficient of a Lagrange basis polynomial of the
    row's nodes.  Up to order 12 with extra 8 the nodes are integers in
    -10 .. 10, so polyfromroots' coefficients are integers below
    (11!)^2 < 2^53, hence exact, and each weight is one correctly rounded
    int/int division.  Accuracy is len(nodes) - m rounded up to even.  The
    array is read-only.
    """
    half = (order + extra + 1) // 2
    out = np.zeros((order + 1, 2 * half + 1))
    for m in range(order + 1):
        reach = (m + extra + 1) // 2
        nodes = range(-reach, reach + 1)
        for i in nodes:
            others = [j for j in nodes if j != i]
            numerator = int(polyfromroots(others)[m]) * math.factorial(m)
            out[m, half + i] = numerator / math.prod(i - j for j in others)
    out.setflags(write=False)
    return out


# (step, extra) of the stencils: first derivatives for c and the kernel
# checks, derivatives up to deg(Q)+1 in each variable for c1
C_STENCIL = (5e-3, 6)
C1_STENCIL = (0.35, 8)


def fd_derivatives(f: Callable[[float, float], float], at: tuple[float, float],
                   order: int, step: float, extra: int) -> np.ndarray:
    """Matrix D[m, n] of d_a^m d_b^n f at `at`, m, n <= order.

    f is evaluated once on the symmetric tensor grid of the widest
    stencil, the one for d^order, and D = W F W^T with row m of W the
    stencil_weights row of d^m scaled by step^-m.  Large steps with
    high-order compact stencils are what makes mixed derivatives up to
    total order 12 recoverable in binary64: shrinking the stencil
    amplifies rounding noise like step^-(m+n), while the kernel is entire
    (its a+b = 0 singularity is removable), so moderate stencil widths
    keep truncation small.  Compact stencils are preferred over Richardson
    step-doubling because doubled steps reach deep into the e^{-a-b}
    growth region of the kernel, inflating the values the stencil must
    cancel.
    """
    unit = stencil_weights(order, extra)
    half = unit.shape[1] // 2
    weights = unit * step ** -np.arange(order + 1.0)[:, None]
    grid = np.arange(-half, half + 1, dtype=float) * step
    a0, b0 = at
    values = np.array([[f(a0 + oa, b0 + ob) for ob in grid] for oa in grid])
    return weights @ values @ weights.T


def fd_c_value(p: SectionFourParams) -> float:
    """c recomputed purely from scalar kernel values and finite differences."""
    poly1 = expand_mollifier(p.p1_shape)
    poly2 = expand_mollifier(p.p2_shape)
    at = (-p.R, -p.R)

    def d(mt: MomentTable) -> np.ndarray:
        return fd_derivatives(lambda a, b: kernel_numeric(mt, p.theta, a, b),
                              at, 1, *C_STENCIL)

    m11, m12, m22 = moments(poly1, poly1), moments(poly1, poly2), moments(poly2, poly2)
    inv_r = 1.0 / p.r
    return float(kernel_numeric(m11, p.theta, *at)
                 + inv_r * d(m12.transpose())[1, 0]
                 + inv_r * d(m12)[0, 1]
                 + inv_r * inv_r * d(m22)[1, 1])


def fd_c1_value(p: SectionFiveParams) -> float:
    """c1 recomputed as u^T D u: the twist operator's weights u against the
    finite-difference derivative matrix D of the scalar kernel.

    C1_STENCIL was tuned on acceptance-style random draws: worst-case
    disagreement with the float core stays near 1e-6 across seeds, two
    orders under the 1e-4 contract.
    """
    poly = expand_mollifier(p.p_shape)
    q_monomial = expand_twist(p.q_shape).float_coeffs()
    u = twist_operator_coefficients(q_monomial, p.delta)
    mt = moments(poly, poly)
    D = fd_derivatives(lambda a, b: kernel_numeric(mt, p.theta, a, b),
                       (-p.R, -p.R), len(u) - 1, *C1_STENCIL)
    return float(u @ D @ u)


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


def crosscheck_report(p4: SectionFourParams, p5: SectionFiveParams) -> CrosscheckReport:
    """Run every exact-vs-numeric comparison; failures are data, not errors."""
    checks: list[CheckResult] = []
    c_exact = c_value(p4)
    c1_exact = c1_value(p5)

    poly1 = expand_mollifier(p4.p1_shape)
    poly2 = expand_mollifier(p4.p2_shape)
    poly5 = expand_mollifier(p5.p_shape)
    pairs = {"m11": (poly1, poly1), "m21": (poly2, poly1),
             "m12": (poly1, poly2), "m22": (poly2, poly2),
             "m55": (poly5, poly5)}
    tables: dict[str, MomentTable] = {}
    for name, (pa, pb) in pairs.items():
        mt = tables[name] = moments(pa, pb)
        nodes = (max(pa.degree, 0) + max(pb.degree, 0)) // 2 + 1
        for part, exact, qa, qb in (
            ("dd", mt.m_dd, poly_derivative(pa), poly_derivative(pb)),
            ("dp", mt.m_dp, poly_derivative(pa), pb),
            ("pd", mt.m_pd, pa, poly_derivative(pb)),
            ("pp", mt.m_pp, pa, pb),
        ):
            num = quad_integrate01(qa, qb, nodes)
            checks.append(CheckResult(f"moment[{name}.{part}] vs quadrature",
                                      float(exact), num, _rel(float(exact), num), 1e-12))

    # closed-form kernel derivatives vs finite differences of the scalar kernel
    for tag, params in (("11", p4), ("22", p4), ("55", p5)):
        mt = tables[f"m{tag}"]
        h = np.tensordot(mt.floats, kernel_derivative_basis(params.theta, params.R, 2), 1)
        at = (-params.R, -params.R)
        scalar = lambda a, b, mt=mt, th=params.theta: kernel_numeric(mt, th, a, b)
        value = float(h[0, 0])
        checks.append(CheckResult(f"kernel[{tag}] value vs direct", value, scalar(*at),
                                  _rel(value, scalar(*at)), 1e-10))
        fd = fd_derivatives(scalar, at, 1, *C_STENCIL)
        for (m, n, label) in ((1, 0, "d_a"), (0, 1, "d_b"), (1, 1, "d_ab")):
            ex = float(h[m, n])
            num = float(fd[m, n])
            checks.append(CheckResult(f"kernel[{tag}] {label} vs finite difference",
                                      ex, num, _rel(ex, num), 1e-6))

    c_fd = fd_c_value(p4)
    checks.append(CheckResult("c vs finite differences", c_exact, c_fd,
                              _rel(c_exact, c_fd), 1e-5))
    c1_fd = fd_c1_value(p5)
    checks.append(CheckResult("c1 vs finite differences", c1_exact, c1_fd,
                              _rel(c1_exact, c1_fd), 1e-4))
    return CrosscheckReport(tuple(checks))
