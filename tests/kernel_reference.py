"""Kernel helpers shared by the tests: the closed-form derivative table of
a moment table, the definition of the kernel, and an mpmath anchor that
differentiates the definition.

The kernel of a moment table at length exponent theta is

    h(a, b) = [ g(b, a) - e^{-a-b} g(-a, -b) ] / (theta (a + b)),
    g(a, b) = m_dd + a theta m_pd + b theta m_dp + a b theta^2 m_pp.
"""

import numpy as np
from mpmath import mp

from levbounds.kernel import MomentTable, kernel_derivative_basis

ANCHOR_DPS = 20


def kernel_matrix(mt: MomentTable, theta: float, R: float, order: int) -> np.ndarray:
    """d_a^m d_b^n h at a = b = -R, m, n <= order, from the rounded moments."""
    floats = [float(mt.m_dd), float(mt.m_dp), float(mt.m_pd), float(mt.m_pp)]
    return np.tensordot(floats, kernel_derivative_basis(theta, R, order), 1)


def numerator(mt: MomentTable, theta: float, a, b):
    """The kernel's numerator g(b,a) - e^{-a-b} g(-a,-b), from its definition;
    a and b may be numpy arrays, real or complex."""
    mdd, mdp, mpd, mpp = (float(mt.m_dd), float(mt.m_dp),
                          float(mt.m_pd), float(mt.m_pp))

    def g(x, y):
        return mdd + x * theta * mpd + y * theta * mdp + x * y * theta * theta * mpp

    return g(b, a) - np.exp(-a - b) * g(-a, -b)


def division_form(mt: MomentTable, theta: float, a, b):
    """h(a, b) in binary64 from its definition; undefined on a + b = 0."""
    return numerator(mt, theta, a, b) / (theta * (a + b))


def anchor_matrix(mt: MomentTable, theta: float, R: float, order: int) -> np.ndarray:
    """d_a^m d_b^n h at a = b = -R by mpmath, from the definition of h.

    The exact moments enter as rationals and h in its division form;
    mp.diff raises its working precision with the derivative order, so
    every entry is good to about ANCHOR_DPS digits before the final
    rounding.
    """
    with mp.workdps(ANCHOR_DPS):
        mdd, mdp, mpd, mpp = (mp.mpf(x.numerator) / x.denominator
                              for x in (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp))
        th = mp.mpf(theta)

        def g(x, y):
            return mdd + x * th * mpd + y * th * mdp + x * y * th * th * mpp

        def h(a, b):
            return (g(b, a) - mp.exp(-a - b) * g(-a, -b)) / (th * (a + b))

        base = (mp.mpf(-R), mp.mpf(-R))
        return np.array([[float(mp.diff(h, base, (m, n))) for n in range(order + 1)]
                         for m in range(order + 1)])
