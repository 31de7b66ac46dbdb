"""The kernel as the tests' reference: the closed-form (Leibniz) derivative
table of a moment table, the definition of the kernel, an mpmath anchor
that differentiates the definition, and c and c1 from the derivatives at
40 digits with exact moments and exact operator weights.

The kernel of a moment table at length exponent theta is

    h(a, b) = [ g(b, a) - e^{-a-b} g(-a, -b) ] / (theta (a + b)),
    g(a, b) = m_dd + a theta m_pd + b theta m_dp + a b theta^2 m_pp.

The numerator vanishes identically on the line a + b = 0, so h is
entire.  With s = a + b, g(b,a) - g(-a,-b) = theta s (m_pd + m_dp), so

    h(a,b) = (m_pd + m_dp) + E(s) g(-a,-b) / theta,  E(s) = (1 - e^{-s})/s,

and, g being bilinear, with G = g(-a,-b) at the base point,

    d_a^m d_b^n h = [m=n=0] (m_pd + m_dp)
                    + (E^(m+n) G + m E^(m+n-1) G_a + n E^(m+n-1) G_b
                       + m n E^(m+n-2) G_ab) / theta.

c is h11 + (1/r) d_a h21 + (1/r) d_b h12 + (1/r^2) d_ab h22 at
a = b = -R, and c1 the form u^T D u of the twist operator's weights u
(twist_operator_coefficients) over the derivative matrix D of (P, P).

The definition form is kernel_numeric, on real or complex arrays, and
cauchy_derivatives reads the whole derivative matrix of any entire
function off the oracle's torus (levbounds.oracle._torus), D = Re(W F
W^T): the two references whose sums the oracle's forms reassociate.

The exact polynomial operations also keep their per-term Fraction forms
here, on the exact coefficients Poly.coeffs, as the references of the
integer form in polyalg: integrate01_product_naive (each of the four
integrals polyalg.moments gives), combine_naive and the other *_naive
functions; expand_twist and transpose (of a MomentTable) are the exact
operations that only the tests read.  readme_draws draws the inputs of
the README's accuracy table, one cell at a time.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np
from mpmath import mp

from levbounds.oracle import _exp_ratio, _torus
from levbounds.polyalg import (MollifierShape, MomentTable, Poly, TwistShape, _combine,
                               expand_mollifier, mollifier_basis, moments, twist_basis)
from levbounds.proportions import SectionFiveParams, SectionFourParams

ANCHOR_DPS = 20
CONSTANT_DPS = 40


def integrate01_product_naive(p: Poly, q: Poly) -> Fraction:
    """sum_{j,k} p_j q_k / (j+k+1), one Fraction operation per term."""
    total = Fraction(0)
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            total += a * b / (j + k + 1)
    return total


def _trimmed(cs) -> tuple[Fraction, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add_naive(a, b) -> tuple[Fraction, ...]:
    """Coefficients of a + b, Fraction by Fraction."""
    n = max(len(a), len(b))
    return _trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def scale_naive(a, s: Fraction) -> tuple[Fraction, ...]:
    return _trimmed(s * c for c in a)


def derivative_naive(a) -> tuple[Fraction, ...]:
    return _trimmed(k * c for k, c in enumerate(a) if k >= 1)


def reflect_naive(a) -> tuple[Fraction, ...]:
    """Coefficients of p(1 - x): sum_k a_k sum_i C(k,i) (-1)^i x^i."""
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for i in range(k + 1):
            out[i] += c * comb(k, i) * (-1) ** i
    return _trimmed(out)


def eval_naive(a, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in enumerate(a)), Fraction(0))


def expand_twist(shape: TwistShape) -> Poly:
    """Expand Q(x) = 1 + q0 x + sum_k q_k I_k(x) to canonical form."""
    return _combine(twist_basis(len(shape.sym_coeffs)), (shape.linear_coeff, *shape.sym_coeffs))


def transpose(mt: MomentTable) -> MomentTable:
    """Moment table of the reversed pair (P2, P1)."""
    dd, dp, pd, pp = mt.nums
    return MomentTable((dd, pd, dp, pp), mt.den)


def combine_naive(basis: tuple[Poly, ...], coeffs) -> tuple[Fraction, ...]:
    """Coefficients of basis[0] + sum_i coeffs[i] basis[i+1], Fraction by
    Fraction."""
    out = basis[0].coeffs
    for c, b in zip(coeffs, basis[1:]):
        out = add_naive(out, scale_naive(b.coeffs, c))
    return out


@lru_cache(maxsize=64)
def _series_tables(dmax: int, nterms: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of the E^(d) series: (-1)^d / (d+j+1) for d <= dmax
    and j < nterms, and 1/j for 0 < j < nterms (entry 0 unused)."""
    d = np.arange(dmax + 1)[:, None]
    weights = np.where(d % 2 == 0, 1.0, -1.0) / (d + np.arange(nterms) + 1.0)
    inverses = 1.0 / np.maximum(np.arange(nterms), 1)
    for table in (weights, inverses):
        table.setflags(write=False)
    return weights, inverses


def _expm1_ratio_derivatives(s0: float, dmax: int) -> np.ndarray:
    """Derivatives E^(d)(s0), d = 0..dmax, of E(s) = (1 - e^{-s})/s.

    Summed from the entire-series form E^(d)(s) = sum_j (-1)^{d+j} s^j /
    (j! (d+j+1)), every d in one matrix-vector product over a shared
    term vector.  For s0 <= 0 (every kernel base point) all terms share
    one sign, so the sum is exact to rounding; for s0 > 0 the alternating
    cancellation is bounded by e^{s0}, fine for the moderate synthetic
    bases the tests use.
    """
    nterms = max(36, int(3 * abs(s0)) + 36)
    weights, inverses = _series_tables(dmax, nterms)
    ratios = -s0 * inverses
    ratios[0] = 1.0
    return weights @ np.cumprod(ratios)  # cumprod: (-s0)^j / j!


@lru_cache(maxsize=None)
def _leibniz_tables(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables for kernel_derivative_basis at one order.

    index[i, m, n] = m + n + 2 - i picks E^(m+n-i) out of the padded
    derivative vector; grids[k, i] is the integer grid multiplying it in
    the unit-moment matrix k: 1 | 1, -n | 1, -m | 1, -(m+n), m n.
    """
    m = np.arange(order + 1)[:, None]
    n = np.arange(order + 1)[None, :]
    one, zero = np.ones_like(m + n), np.zeros_like(m + n)
    index = np.array([m + n + 2 - i for i in range(3)])
    grids = np.array([[one, zero, zero],
                      [one, -n * one, zero],
                      [one, -m * one, zero],
                      [one, -(m + n), m * n]], dtype=float)
    for table in (index, grids):
        table.setflags(write=False)
    return index, grids


def kernel_derivative_basis(theta: float, R: float, order: int) -> np.ndarray:
    """d_a^m d_b^n h at a = b = -R, m, n <= order, per unit moment.

    h is linear in its moment table, so out[k] is the derivative matrix of
    the kernel of the table whose moment k (in the order m_dd, m_dp, m_pd,
    m_pp) is 1 and whose others are 0; any table mt has the derivative
    matrix sum_k mt[k] out[k].  From the Leibniz form in the module
    docstring, with E_i = E^(m+n-i)(-2R) (zero when m+n < i):

        out[m_dd] = E_0 / theta
        out[m_dp] = [m=n=0] + R E_0 - n E_1
        out[m_pd] = [m=n=0] + R E_0 - m E_1
        out[m_pp] = theta (R^2 E_0 - R (m+n) E_1 + m n E_2)
    """
    index, grids = _leibniz_tables(order)
    e = np.zeros(2 * order + 3)  # e[d + 2] = E^(d)(-2R)
    e[2:] = _expm1_ratio_derivatives(-2.0 * R, 2 * order)
    scale = np.array([[1.0 / theta, 0.0, 0.0],
                      [R, 1.0, 0.0],
                      [R, 1.0, 0.0],
                      [theta * R * R, theta * R, theta]])
    out = np.einsum("ki,kimn,imn->kmn", scale, grids, e[index])
    out[1:3, 0, 0] += 1.0
    return out


@lru_cache(maxsize=None)
def moment_grams(m: int) -> np.ndarray:
    """Float Gram matrices of the four moments over degree-m mollifier shapes.

    Entry [k, i, j] is moment k (m_dd, m_dp, m_pd, m_pp) of the pair
    (b_i, b_j) of mollifier_basis(m), computed exactly and rounded once.
    By bilinearity, moment k of (P1, P2) is u1 @ grams[k] @ u2 with
    u = (1, c_1, .., c_m).  The array is read-only.
    """
    basis = mollifier_basis(m)
    grams = np.empty((4, m + 1, m + 1))
    for i, bi in enumerate(basis):
        for j in range(i, m + 1):
            mt = moments(bi, basis[j])
            for (a, b), table in (((i, j), mt), ((j, i), transpose(mt))):
                grams[:, a, b] = table.floats
    grams.setflags(write=False)
    return grams


def twist_operator_coefficients(q_monomial, delta: float) -> np.ndarray:
    """Expansion of (1-delta) Id + delta (Id + 2 d) Q(-d) over powers of d.

    With Q(x) = sum_k q_k x^k the derivative-power coefficients are

        u_j = (1-delta) [j=0] + delta (-1)^j (q_j - 2 q_{j-1}),

    one entry per j = 0 .. deg(Q)+1, in binary64.
    """
    q = np.asarray(q_monomial, dtype=float)
    w = np.zeros(len(q) + 1)
    w[:-1] = q
    w[1:] -= 2.0 * q
    w[1::2] *= -1.0
    u = delta * w
    u[0] += 1.0 - delta
    return u


def kernel_matrix(mt: MomentTable, theta: float, R: float, order: int) -> np.ndarray:
    """d_a^m d_b^n h at a = b = -R, m, n <= order, from the rounded moments."""
    floats = [float(mt.m_dd), float(mt.m_dp), float(mt.m_pd), float(mt.m_pp)]
    return np.tensordot(floats, kernel_derivative_basis(theta, R, order), 1)


def numerator(mt: MomentTable, theta: float, a, b):
    """The kernel's numerator g(b,a) - e^{-a-b} g(-a,-b), from its definition
    and the rounded moments; a and b may be numpy arrays, real or complex,
    or object arrays of mpmath numbers, evaluated at the working precision."""
    mdd, mdp, mpd, mpp = (float(mt.m_dd), float(mt.m_dp),
                          float(mt.m_pd), float(mt.m_pp))
    s, exp = np.asarray(a + b), np.exp
    if s.dtype == object:  # mpmath entries: the constants at the working precision too
        mdd, mdp, mpd, mpp, theta = map(mp.mpf, (mdd, mdp, mpd, mpp, theta))
        exp = np.frompyfunc(mp.exp, 1, 1)

    def g(x, y):
        return mdd + x * theta * mpd + y * theta * mdp + x * y * theta * theta * mpp

    return g(b, a) - exp(-s) * g(-a, -b)


def division_form(mt: MomentTable, theta: float, a, b):
    """h(a, b) from its definition, in binary64, or at mpmath's working
    precision for mpmath inputs; undefined on a + b = 0."""
    return numerator(mt, theta, a, b) / (theta * (a + b))


def kernel_numeric(mt: MomentTable, theta: float, a, b):
    """Direct kernel evaluation from its definition, total on the plane:
    a and b scalars or numpy arrays, real or complex, that broadcast
    together.  (m_pd + m_dp) + E(s) g(-a,-b)/theta with g(-a,-b)/theta =
    (m_dd/theta - b m_dp) - a (m_pd - b theta m_pp), s = a + b, and E(s)
    from e^{-a} e^{-b}, one exp per node, by the oracle's two forms
    (_exp_ratio: e^{-800} e^{795} reads expm1's value, not nan)."""
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-a) * np.exp(-b)
    mdd, mdp, mpd, mpp = mt.floats
    g_over_theta = (mdd / theta - b * mdp) - a * (mpd - b * theta * mpp)
    return (mpd + mdp) + _exp_ratio(np.asarray(a + b), decay) * g_over_theta


def cauchy_derivatives(f: Callable, at: tuple[float, float], order: int) -> np.ndarray:
    """Matrix D[m, n] of d_a^m d_b^n f at `at`, m, n <= order, f entire:
    m! n! times a Taylor coefficient, by Cauchy's integral over the
    oracle's torus about `at` (levbounds.oracle._torus: its radius, node
    count and accuracy).  f is called once, on the complex grid
    (a0 + rho w^j, b0 + rho w^k), and D = Re(W F W^T)."""
    (_, nodes), W = _torus(order)[:2]
    a0, b0 = at
    F = f(a0 + nodes[:, None], b0 + nodes[None, :])
    return (W @ F @ W.T).real


def _mp(x) -> "mp.mpf":
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def anchor_matrix(mt: MomentTable, theta: float, R: float, order: int) -> np.ndarray:
    """d_a^m d_b^n h at a = b = -R by mpmath, from the definition of h.

    The exact moments enter as rationals and h in its division form;
    mp.diff raises its working precision with the derivative order, so
    every entry is good to about ANCHOR_DPS digits before the final
    rounding.
    """
    with mp.workdps(ANCHOR_DPS):
        mdd, mdp, mpd, mpp = (_mp(x) for x in (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp))
        th = mp.mpf(theta)

        def g(x, y):
            return mdd + x * th * mpd + y * th * mdp + x * y * th * th * mpp

        def h(a, b):
            return (g(b, a) - mp.exp(-a - b) * g(-a, -b)) / (th * (a + b))

        base = (mp.mpf(-R), mp.mpf(-R))
        return np.array([[float(mp.diff(h, base, (m, n))) for n in range(order + 1)]
                         for m in range(order + 1)])


def _mp_derivatives(mt: MomentTable, theta: float, R: float, order: int) -> list:
    """d_a^m d_b^n h at a = b = -R, m, n <= order, as mpf at the working
    precision: the Leibniz form with exact moments, and
    E^(d)(-2R) = (-1)^d sum_j (2R)^j / (j! (d+j+1)), every term positive."""
    th, c = _mp(theta), 2 * _mp(R)
    mdd, mdp, mpd, mpp = (_mp(x) for x in (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp))
    sums, term, j = [mp.mpf(0)] * (2 * order + 1), mp.mpf(1), 0
    while j <= c or term > sums[0] * mp.mpf(10) ** (-mp.dps - 5):
        sums = [s + term / (d + j + 1) for d, s in enumerate(sums)]
        j += 1
        term *= c / j
    E = [(-1) ** d * s for d, s in enumerate(sums)] + [mp.mpf(0)] * 2  # E[-1] = E[-2] = 0
    G = mdd + c / 2 * th * (mpd + mdp) + (c / 2 * th) ** 2 * mpp
    Ga, Gb = -th * mpd - c / 2 * th * th * mpp, -th * mdp - c / 2 * th * th * mpp
    return [[(E[m + n] * G + m * E[m + n - 1] * Ga + n * E[m + n - 1] * Gb
              + m * n * E[m + n - 2] * th * th * mpp) / th + (mpd + mdp) * (m == n == 0)
             for n in range(order + 1)] for m in range(order + 1)]


def mp_c(p) -> float:
    """c of SectionFourParams p from the kernel's derivatives, at
    CONSTANT_DPS digits with exact moments, rounded once."""
    with mp.workdps(CONSTANT_DPS):
        P1, P2 = expand_mollifier(p.p1_shape), expand_mollifier(p.p2_shape)

        def d(pa, pb):
            return _mp_derivatives(moments(pa, pb), p.theta, p.R, 1)

        inv_r = 1 / _mp(p.r)
        return float(d(P1, P1)[0][0] + inv_r * (d(P2, P1)[1][0] + d(P1, P2)[0][1])
                     + inv_r * inv_r * d(P2, P2)[1][1])


def mp_c1(p) -> float:
    """c1 of SectionFiveParams p as u^T D u, at CONSTANT_DPS digits: the
    operator weights u exact from the twist polynomial and delta, D from
    exact moments; rounded once."""
    with mp.workdps(CONSTANT_DPS):
        q, delta = (0,) + expand_twist(p.q_shape).coeffs + (0,), Fraction(p.delta)
        u = [_mp(delta * (-1) ** j * (q[j + 1] - 2 * q[j]) + (1 - delta) * (j == 0))
             for j in range(len(q) - 1)]
        poly = expand_mollifier(p.p_shape)
        D = _mp_derivatives(moments(poly, poly), p.theta, p.R, len(u) - 1)
        return float(mp.fsum(u[m] * u[n] * D[m][n]
                             for m in range(len(u)) for n in range(len(u))))


def readme_draws(quantity: str, large_R: bool, seed: int, count: int = 960):
    """count draws of one cell of the README's accuracy table, from the
    numpy seed: SectionFourParams for quantity "c", SectionFiveParams for
    "c1 order <= 8" (0 to 3 q_sym entries) or "c1 order 10-16" (4 to 7).
    Mollifier shapes have 1 to 3 (c) or 1 to 4 (c1) entries in [-1, 1],
    q_linear is in [-1, 1], q_sym entries in [-1, 1] for even draws and in
    [-5, 5] for odd ones, theta in [0.3, 1], r in [0.5, 2], delta in
    [0, 1.2], and R log-uniform in [1e-3, 5], or in [5, 300] if large_R."""
    rng = np.random.default_rng(seed)
    sym = {"c1 order <= 8": (0, 3), "c1 order 10-16": (4, 7)}.get(quantity)
    lo, hi = np.log([5.0, 300.0] if large_R else [1e-3, 5.0])

    def shape(most: int) -> MollifierShape:
        return MollifierShape.of(rng.uniform(-1.0, 1.0, rng.integers(1, most + 1)))

    for i in range(count):
        if sym is None:
            p1, p2 = shape(3), shape(3)
            theta, r, R = rng.uniform(0.3, 1.0), rng.uniform(0.5, 2.0), np.exp(rng.uniform(lo, hi))
            yield SectionFourParams(p1_shape=p1, p2_shape=p2, theta=float(theta), r=float(r),
                                    R=float(R))
        else:
            p, q_linear = shape(4), rng.uniform(-1.0, 1.0)
            width = 1.0 if i % 2 == 0 else 5.0
            q = TwistShape.of(q_linear, rng.uniform(-width, width, rng.integers(sym[0], sym[1] + 1)))
            theta, delta, R = (rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.2),
                               np.exp(rng.uniform(lo, hi)))
            yield SectionFiveParams(p_shape=p, q_shape=q, theta=float(theta), R=float(R),
                                    delta=float(delta))
