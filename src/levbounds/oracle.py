"""Independent numeric verification path.

Everything here recomputes a quantity the engine produces, by a route
that shares nothing with it beyond polynomial evaluation and the moment
data itself: Gauss-Legendre quadrature against exact moment integrals,
central finite differences against the closed-form kernel derivatives,
and finite differences of the scalar kernel against c and c1 from the
float core.

The high-order route (mixed derivatives up to deg(Q)+1 in each variable
for the c1 crosscheck) needs wide stencils to survive the step^-(m+n)
rounding amplification; it uses compact symmetric Fornberg stencils at a
step of a few tenths, see fd_partial_high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernel import MomentTable, kernel_derivative_basis, moments
from .polyalg import Poly, expand_mollifier, expand_twist, poly_derivative
from .proportions import (SectionFourParams, SectionFiveParams,
                          c1_value, c_value, twist_operator_coefficients)


class NearSingularError(ArithmeticError):
    """Scalar kernel evaluation attempted too close to the line a + b = 0."""


@dataclass(frozen=True)
class FdScheme:
    """Central-difference scheme: step size and accuracy order (2 or 4)."""

    step: float
    order: int = 2

    def __post_init__(self) -> None:
        if not 1e-7 <= self.step <= 1e-2:
            raise ValueError(f"step must lie in [1e-7, 1e-2], got {self.step}")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")


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
    """Direct scalar kernel evaluation.

    Evaluated as (m_pd + m_dp) + (1 - e^{-s})/s * g(-a,-b)/theta with
    s = a + b and expm1 supplying the numerator, so stencil points that
    land near the removable line keep full precision.
    """
    if abs(a + b) < 1e-9:
        raise NearSingularError(f"a + b = {a + b!r} too close to the singular line")
    mdd, mdp, mpd, mpp = (float(mt.m_dd), float(mt.m_dp),
                          float(mt.m_pd), float(mt.m_pp))
    s = a + b
    g_reflected = mdd - a * theta * mpd - b * theta * mdp + a * b * theta * theta * mpp
    return (mpd + mdp) - math.expm1(-s) / s * g_reflected / theta


def _stencil(m: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of the (m+1)-point central stencil for d^m."""
    if m == 0:
        return np.zeros(1), np.ones(1)
    offsets = np.array([m / 2.0 - i for i in range(m + 1)]) * step
    weights = np.array([(-1.0) ** i * math.comb(m, i) for i in range(m + 1)]) / step ** m
    return offsets, weights


def _fd_order2(f: Callable[[float, float], float], m: int, n: int,
               at: tuple[float, float], step: float) -> float:
    """Tensor-product central difference for d_a^m d_b^n, O(step^2)."""
    a0, b0 = at
    offs_a, w_a = _stencil(m, step)
    offs_b, w_b = _stencil(n, step)
    total = 0.0
    for oa, wa in zip(offs_a, w_a):
        for ob, wb in zip(offs_b, w_b):
            total += wa * wb * f(a0 + oa, b0 + ob)
    return total


def fd_partial(f: Callable[[float, float], float], scheme: FdScheme,
               m: int, n: int, at: tuple[float, float]) -> float:
    """Central-difference estimate of d_a^m d_b^n f, for m, n <= 2."""
    if m > 2 or n > 2:
        raise ValueError("fd_partial supports derivative orders up to 2; "
                         "use fd_partial_high for the operator crosscheck")
    d1 = _fd_order2(f, m, n, at, scheme.step)
    if scheme.order == 2:
        return d1
    d2 = _fd_order2(f, m, n, at, scheme.step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _fornberg_weights(grid: np.ndarray, m: int) -> np.ndarray:
    """Weights of the m-th derivative at 0 on an arbitrary 1-D grid.

    Fornberg's recursion; exact for polynomials of degree < len(grid).
    On a symmetric grid the even-parity error terms cancel, giving
    accuracy len(grid) - m rounded up to even.
    """
    n = len(grid)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = grid[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = grid[i]
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _compact_stencil(m: int, step: float, extra: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (m + extra + 1)-point stencil for d^m with spacing step."""
    npts = m + extra + 1
    if npts % 2 == 0:
        npts += 1  # symmetric grids gain a parity order for even m
    half = (npts - 1) // 2
    grid = np.arange(-half, half + 1, dtype=float) * step
    return grid, _fornberg_weights(grid, m)


def fd_partial_high(f: Callable[[float, float], float], m: int, n: int,
                    at: tuple[float, float], step: float = 0.3,
                    extra: int = 6) -> float:
    """High-order mixed partial via compact tensor-product stencils.

    Large steps with high-order compact stencils are what makes mixed
    derivatives up to total order 12 recoverable in binary64: shrinking
    the stencil amplifies rounding noise like step^-(m+n), while the
    kernel is entire (its a+b = 0 singularity is removable), so moderate
    stencil widths keep truncation small.  Compact Fornberg stencils are
    preferred over Richardson step-doubling because doubled steps reach
    deep into the e^{-a-b} growth region of the kernel, inflating the
    values the stencil must cancel.
    """
    a0, b0 = at
    ga, wa = _compact_stencil(m, step, extra)
    gb, wb = _compact_stencil(n, step, extra)
    vals = np.array([[f(a0 + oa, b0 + ob) for ob in gb] for oa in ga])
    return float(wa @ vals @ wb)


def fd_c_value(p: SectionFourParams, step: float = 5e-3) -> float:
    """c recomputed purely from scalar kernel values and finite differences."""
    poly1 = expand_mollifier(p.p1_shape)
    poly2 = expand_mollifier(p.p2_shape)
    at = (-p.R, -p.R)

    def h(mt: MomentTable) -> Callable[[float, float], float]:
        return lambda a, b: kernel_numeric(mt, p.theta, a, b)

    m11, m12, m22 = moments(poly1, poly1), moments(poly1, poly2), moments(poly2, poly2)
    inv_r = 1.0 / p.r
    return (h(m11)(*at)
            + inv_r * fd_partial_high(h(m12.transpose()), 1, 0, at, step)
            + inv_r * fd_partial_high(h(m12), 0, 1, at, step)
            + inv_r * inv_r * fd_partial_high(h(m22), 1, 1, at, step))


def fd_c1_value(p: SectionFiveParams, step: float = 0.35, extra: int = 8) -> float:
    """c1 recomputed by applying the twist operator with FD derivatives.

    The defaults were tuned on acceptance-style random draws: worst-case
    disagreement with the float core stays near 1e-6 across seeds, two
    orders under the 1e-4 contract.
    """
    poly = expand_mollifier(p.p_shape)
    q_monomial = expand_twist(p.q_shape).float_coeffs()
    u = twist_operator_coefficients(q_monomial, p.delta)
    mt = moments(poly, poly)
    at = (-p.R, -p.R)

    def h(a: float, b: float) -> float:
        return kernel_numeric(mt, p.theta, a, b)

    total = 0.0
    for j, uj in enumerate(u):
        if uj == 0.0:
            continue
        for l, ul in enumerate(u):
            if ul == 0.0:
                continue
            total += uj * ul * fd_partial_high(h, j, l, at, step, extra)
    return total


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
    """Run every exact-vs-numeric comparison; failures are data, not errors.

    Inputs the engine rejects (R below MIN_BASE_R) raise its ValueError
    before any check runs.
    """
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
        floats = [float(mt.m_dd), float(mt.m_dp), float(mt.m_pd), float(mt.m_pp)]
        h = np.tensordot(floats, kernel_derivative_basis(params.theta, params.R, 2), 1)
        at = (-params.R, -params.R)
        scalar = lambda a, b, mt=mt, th=params.theta: kernel_numeric(mt, th, a, b)
        # 1e-3 keeps the halved Richardson step clear of the eps/h^2 noise
        # floor of the mixed second derivative
        scheme = FdScheme(step=1e-3, order=4)
        value = float(h[0, 0])
        checks.append(CheckResult(f"kernel[{tag}] value vs direct", value, scalar(*at),
                                  _rel(value, scalar(*at)), 1e-10))
        for (m, n, label) in ((1, 0, "d_a"), (0, 1, "d_b"), (1, 1, "d_ab")):
            ex = float(h[m, n])
            num = fd_partial(scalar, scheme, m, n, at)
            checks.append(CheckResult(f"kernel[{tag}] {label} vs finite difference",
                                      ex, num, _rel(ex, num), 1e-6))

    c_fd = fd_c_value(p4)
    checks.append(CheckResult("c vs finite differences", c_exact, c_fd,
                              _rel(c_exact, c_fd), 1e-5))
    c1_fd = fd_c1_value(p5)
    checks.append(CheckResult("c1 vs finite differences", c1_exact, c1_fd,
                              _rel(c1_exact, c1_fd), 1e-4))
    return CrosscheckReport(tuple(checks))
