"""Moment tables and the derivatives of the singular mollifier kernel.

For a polynomial pair (P_1, P_2) and length exponent theta, the bilinear
moment function is

    g(a, b) = m_dd + a theta m_pd + b theta m_dp + a b theta^2 m_pp,

built from the four exact integrals over [0,1] of P_1'P_2', P_1'P_2,
P_1 P_2', P_1 P_2.  The kernel is

    h(a, b) = [ g(b, a) - e^{-a-b} g(-a, -b) ] / (theta (a + b)),

and this module gives its derivatives at a = b = -R.  The numerator
vanishes identically on the line a + b = 0 (there e^{-a-b} = 1 and both g
values coincide), so the singularity is removable and h is entire.  With
s = a + b,

    g(b,a) - g(-a,-b) = theta s (m_pd + m_dp)        (exact identity)
    h(a,b) = (m_pd + m_dp) + E(s) g(-a,-b) / theta,  E(s) = (1 - e^{-s})/s,

which contains no division by s.  g is bilinear, so with G = g(-a,-b) at
the base point

    d_a^m d_b^n h = [m=n=0] (m_pd + m_dp)
                    + (E^(m+n) G + m E^(m+n-1) G_a + n E^(m+n-1) G_b
                       + m n E^(m+n-2) G_ab) / theta.

kernel_derivative_basis evaluates that in binary64, per unit moment (h is
linear in its moment table); moment_grams holds, per shape degree, the
four Gram matrices of the mollifier basis (exact rationals rounded once),
so a shape's moments are small quadratic forms in its float coefficients.
Rounding enters at two places only: the cached Gram matrices and the
single float conversion of the shape coefficients.  The exact moments()
and a high-precision evaluation of the definition of h are the references
the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .polyalg import Poly, integrate01_product, mollifier_basis, poly_derivative


@dataclass(frozen=True)
class MomentTable:
    """The four exact moments of a polynomial pair."""

    m_dd: Fraction  # integral of P1' P2'
    m_dp: Fraction  # integral of P1' P2
    m_pd: Fraction  # integral of P1  P2'
    m_pp: Fraction  # integral of P1  P2

    @cached_property
    def floats(self) -> tuple[float, float, float, float]:
        """The four moments, in field order, each rounded to binary64 once
        per table."""
        return float(self.m_dd), float(self.m_dp), float(self.m_pd), float(self.m_pp)

    def transpose(self) -> "MomentTable":
        """Moment table of the reversed pair (P2, P1)."""
        return MomentTable(self.m_dd, self.m_pd, self.m_dp, self.m_pp)


def moments(p1: Poly, p2: Poly) -> MomentTable:
    d1 = poly_derivative(p1)
    d2 = poly_derivative(p2)
    return MomentTable(
        m_dd=integrate01_product(d1, d2),
        m_dp=integrate01_product(d1, p2),
        m_pd=integrate01_product(p1, d2),
        m_pp=integrate01_product(p1, p2),
    )


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
            for (a, b), table in (((i, j), mt), ((j, i), mt.transpose())):
                grams[:, a, b] = table.floats
    grams.setflags(write=False)
    return grams


MIN_BASE_R = 1e-6  # smallest contour offset R a kernel is evaluated at
# largest R: E^(d)(-2R) grows like e^{2R} and sums int(6R) + 36 terms; the
# engine, and the Cauchy-integral oracle whose grid reaches e^{2R + 2 rho}
# (rho < 7 up to order 16), stay finite up to here, not past 350
MAX_BASE_R = 300.0


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

    Inputs are not validated: the callers in proportions check theta and R.
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
