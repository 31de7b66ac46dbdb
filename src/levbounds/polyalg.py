"""Exact univariate polynomial algebra over the rationals.

Polynomials are kept in canonical ascending-coefficient form with
``fractions.Fraction`` entries, so moment integrals and constraint
identities are bit-reproducible and independent of evaluation order.
Decimal literals ("0.158") parse to exact rationals (79/500).

Two constrained construction bases are provided:

  mollifier shape   P(x) = x + sum_j c_j x^j (1-x)        -> P(0)=0, P(1)=1
  twist shape       Q(x) = 1 + q0 x + sum_k q_k I_k(x)    -> Q(0)=1, Q'(x)=Q'(1-x)

with I_k(x) = integral_0^x t^k (1-t)^k dt.  The constraints hold as exact
polynomial identities for every shape, which is what lets a search loop
move shape coefficients freely without runtime constraint checks.

Both bases are affine in their coefficients.  mollifier_basis and
twist_matrix hold those affine maps per degree, built lazily from the
exact expansions; the float evaluation core reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

MAX_DEGREE = 64


class ConstraintViolationError(ValueError):
    """A raw polynomial failed a structural identity of its family."""


def as_fraction(value: int | str | float | Fraction) -> Fraction:
    """Convert a coefficient literal to an exact rational.

    Strings are read as exact decimals ("0.158" -> 79/500).  Floats are
    read through their shortest decimal repr, which preserves the decimal
    a user typed (0.158 -> 79/500, not the binary64 neighbour).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):  # includes numpy float64, via the builtin repr
        return Fraction(repr(float(value)))
    return Fraction(value)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial; ``coeffs[k]`` is the exact coefficient of x^k.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("Poly not in canonical form (trailing zero coefficient)")
        if len(self.coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(self.coeffs) - 1} exceeds MAX_DEGREE={MAX_DEGREE}")

    @staticmethod
    def from_coeffs(coeffs) -> "Poly":
        """Build from any iterable of coefficient literals, canonicalizing."""
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return Poly.from_coeffs(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, s) -> "Poly":
        s = as_fraction(s)
        if s == 0:
            return Poly(())
        return Poly(tuple(c * s for c in self.coeffs))

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]


ZERO = Poly(())
ONE = Poly((Fraction(1),))
X = Poly((Fraction(0), Fraction(1)))


def monomial(k: int, coeff=1) -> Poly:
    """coeff * x^k."""
    c = as_fraction(coeff)
    if c == 0:
        return ZERO
    return Poly(tuple([Fraction(0)] * k + [c]))


def poly_eval(p: Poly, x) -> Fraction:
    """Evaluate exactly at a rational point (Horner)."""
    x = as_fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    """Exact formal derivative in canonical form."""
    return Poly.from_coeffs(k * c for k, c in enumerate(p.coeffs) if k >= 1)


def poly_reflect(p: Poly) -> Poly:
    """p(1 - x), expanded exactly."""
    out = [Fraction(0)] * max(len(p.coeffs), 1)
    for k, c in enumerate(p.coeffs):
        # (1-x)^k = sum_i C(k,i) (-1)^i x^i
        for i in range(k + 1):
            out[i] += c * comb(k, i) * (-1) ** i
    return Poly.from_coeffs(out)


def integrate01_product(p: Poly, q: Poly) -> Fraction:
    """Exact integral over [0,1] of p(t)q(t): sum_{j,k} p_j q_k / (j+k+1)."""
    total = Fraction(0)
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            total += a * b / (j + k + 1)
    return total


# --------------------------------------------------------------------------
# constrained shape bases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MollifierShape:
    """Coefficients c_1..c_m of P(x) = x + sum_j c_j x^j (1-x)."""

    shape_coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(coeffs) -> "MollifierShape":
        return MollifierShape(tuple(as_fraction(c) for c in coeffs))


@dataclass(frozen=True)
class TwistShape:
    """Coefficients of Q(x) = 1 + q0 x + sum_k q_k I_k(x).

    I_k(x) = integral_0^x t^k (1-t)^k dt, whose derivative x^k(1-x)^k is
    symmetric about x = 1/2; together with the constant-derivative linear
    term this forces Q'(x) = Q'(1-x) identically, and Q(0) = 1.
    """

    linear_coeff: Fraction
    sym_coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(linear_coeff, sym_coeffs=()) -> "TwistShape":
        return TwistShape(as_fraction(linear_coeff),
                          tuple(as_fraction(c) for c in sym_coeffs))


def expand_mollifier(shape: MollifierShape) -> Poly:
    """Expand P(x) = x + sum_j c_j x^j (1-x) to canonical form."""
    p = X
    for j, c in enumerate(shape.shape_coeffs, start=1):
        # c * x^j (1-x) = c x^j - c x^{j+1}
        p = p + monomial(j, c) + monomial(j + 1, -c)
    return p


def sym_basis_integral(k: int) -> Poly:
    """I_k(x) = integral_0^x t^k (1-t)^k dt, exactly."""
    out = ZERO
    for i in range(k + 1):
        out = out + monomial(k + i + 1, Fraction(comb(k, i) * (-1) ** i, k + i + 1))
    return out


def expand_twist(shape: TwistShape) -> Poly:
    """Expand Q(x) = 1 + q0 x + sum_k q_k I_k(x) to canonical form."""
    q = ONE + monomial(1, shape.linear_coeff)
    for k, c in enumerate(shape.sym_coeffs, start=1):
        q = q + sym_basis_integral(k).scale(c)
    return q


# --------------------------------------------------------------------------
# affine shape maps (built once per degree from the exact expansions)
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mollifier_basis(m: int) -> tuple[Poly, ...]:
    """Exact affine basis (b_0, .., b_m) of the degree-m mollifier shapes.

    expand_mollifier(c) = b_0 + sum_j c_j b_j: b_0 expands the empty shape
    and b_j is the expansion of the j-th unit shape minus b_0.
    """
    origin = expand_mollifier(MollifierShape(()))
    units = [MollifierShape.of([int(i == j) for i in range(m)]) for j in range(m)]
    return (origin,) + tuple(expand_mollifier(u) - origin for u in units)


@lru_cache(maxsize=None)
def twist_matrix(m: int) -> np.ndarray:
    """Float map from (1, q0, q_1, .., q_m) to the monomial coefficients of Q.

    Column 0 expands the zero shape (Q = 1), column 1 is x and column k+1
    is I_k; each exact coefficient is rounded to binary64 once.  Rows run
    over degrees 0 .. max(1, 2m+1).  The array is read-only.
    """
    origin = expand_twist(TwistShape.of(0))
    columns = [origin, expand_twist(TwistShape.of(1)) - origin]
    columns += [expand_twist(TwistShape.of(0, [int(i == k) for i in range(m)])) - origin
                for k in range(m)]
    out = np.zeros((max(2, 2 * m + 2), m + 2))
    for col, poly in enumerate(columns):
        out[:len(poly.coeffs), col] = poly.float_coeffs()
    out.setflags(write=False)
    return out


# --------------------------------------------------------------------------
# validators / inverse conversions for raw polynomial input
# --------------------------------------------------------------------------

def mollifier_shape_from_poly(p: Poly) -> MollifierShape:
    """Recover the shape of a raw polynomial, or fail naming the identity.

    Solves the triangular system P(x) - x = sum_j c_j (x^j - x^{j+1}).
    """
    if poly_eval(p, 0) != 0:
        raise ConstraintViolationError("mollifier polynomial violates P(0) = 0")
    if poly_eval(p, 1) != 1:
        raise ConstraintViolationError("mollifier polynomial violates P(1) = 1")
    m = p.degree - 1
    if m < 0:
        raise ConstraintViolationError("mollifier polynomial violates P(0) = 0")
    cs: list[Fraction] = []
    prev = Fraction(0)
    for j in range(1, m + 1):
        coeff = p.coeffs[j] if j < len(p.coeffs) else Fraction(0)
        target = coeff - (1 if j == 1 else 0)
        cj = target + prev
        cs.append(cj)
        prev = cj
    shape = MollifierShape(tuple(cs))
    if expand_mollifier(shape) != p:
        raise ConstraintViolationError(
            "polynomial is not expressible as x + sum_j c_j x^j (1-x)")
    return shape


def twist_shape_from_poly(q: Poly) -> TwistShape:
    """Recover the twist shape of a raw polynomial, or fail naming the identity."""
    if poly_eval(q, 0) != 1:
        raise ConstraintViolationError("twist polynomial violates Q(0) = 1")
    dq = poly_derivative(q)
    if (dq - poly_reflect(dq)) != ZERO:
        raise ConstraintViolationError("twist polynomial violates Q'(x) = Q'(1-x)")
    # Q has odd degree 2m+1 for m sym terms (or degree <= 1); peel from the top,
    # I_k's leading coefficient being (-1)^k / (2k+1) in degree 2k+1.
    rem = q - ONE
    sym: list[Fraction] = []
    deg = rem.degree
    m = max(0, (deg - 1) // 2)
    for k in range(m, 0, -1):
        lead = rem.coeffs[2 * k + 1] if rem.degree == 2 * k + 1 else Fraction(0)
        qk = lead * (2 * k + 1) * (-1) ** k
        sym.append(qk)
        rem = rem - sym_basis_integral(k).scale(qk)
    sym.reverse()
    if rem.degree > 1:
        raise ConstraintViolationError(
            "polynomial is not expressible in the twist basis 1 + q0 x + sum_k q_k I_k")
    linear = rem.coeffs[1] if rem.degree == 1 else Fraction(0)
    shape = TwistShape(linear, tuple(sym))
    if expand_twist(shape) != q:
        raise ConstraintViolationError(
            "polynomial is not expressible in the twist basis 1 + q0 x + sum_k q_k I_k")
    return shape
