"""Exact univariate polynomial algebra over the rationals.

Polynomials are kept in canonical ascending-coefficient form with
``fractions.Fraction`` entries, so moment integrals and constraint
identities are bit-reproducible and independent of evaluation order.
Decimal literals ("0.158") parse to exact rationals (79/500).  The hot
exact sums, integrate01_product and the shape expansions, run on integer
numerators over one common denominator and build each Fraction once.

Two constrained construction bases are provided:

  mollifier shape   P(x) = x + sum_j c_j x^j (1-x)        -> P(0)=0, P(1)=1
  twist shape       Q(x) = 1 + q0 x + sum_k q_k I_k(x)    -> Q(0)=1, Q'(x)=Q'(1-x)

with I_k(x) = integral_0^x t^k (1-t)^k dt.  The constraints hold as exact
polynomial identities for every shape, which is what lets a search loop
move shape coefficients freely without runtime constraint checks.

Both bases are affine in their coefficients, and each family is its
exact affine basis, defined once and cached per degree: mollifier_basis
(x, x^j - x^{j+1}) and twist_basis (1, x, I_1, .., I_m).  Expansion is
the affine combination of a basis, recovery from a raw polynomial peels
the coordinates off by leading degree, and the float evaluation core
reads the bases at its quadrature nodes (kernel.node_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul


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


def _scaled(p: Poly) -> tuple[tuple[int, ...], int]:
    """p as integer numerators over their least common denominator."""
    D = lcm(*(c.denominator for c in p.coeffs))
    return tuple(c.numerator * (D // c.denominator) for c in p.coeffs), D


@lru_cache(maxsize=None)
def _integral_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """L = lcm(1..n) and the integers L / (s + 1), s < n: integral_0^1 t^s
    dt = 1 / (s + 1) over the common denominator L."""
    L = lcm(*range(1, n + 1))
    return L, tuple(L // (s + 1) for s in range(n))


def integrate01_product(p: Poly, q: Poly) -> Fraction:
    """Exact integral over [0,1] of p(t)q(t): sum_{j,k} p_j q_k / (j+k+1).

    Summed in integers: with p = a / Dp and q = b / Dq, integer numerators
    over their common denominators, it is sum_{j,k} a_j b_k (L / (j+k+1))
    over Dp Dq L, L = lcm(1..deg p + deg q + 1), one Fraction at the end.
    """
    (a, Dp), (b, Dq) = _scaled(p), _scaled(q)
    L, weights = _integral_weights(len(a) + len(b) - 1)
    total = sum(x * sum(map(mul, b, weights[j:])) for j, x in enumerate(a))
    return Fraction(total, Dp * Dq * L)


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


# --------------------------------------------------------------------------
# affine shape bases: each family is its basis, defined once per degree
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mollifier_basis(m: int) -> tuple[Poly, ...]:
    """Exact affine basis (x, x^j - x^{j+1} for j = 1..m) of the degree-m
    mollifier shapes: P = b_0 + sum_j c_j b_j."""
    return (X,) + tuple(Poly.from_coeffs([0] * j + [1, -1]) for j in range(1, m + 1))


def sym_basis_integral(k: int) -> Poly:
    """I_k(x) = integral_0^x t^k (1-t)^k dt, exactly."""
    return Poly.from_coeffs([0] * (k + 1) + [Fraction(comb(k, i) * (-1) ** i, k + i + 1)
                                             for i in range(k + 1)])


@lru_cache(maxsize=None)
def twist_basis(m: int) -> tuple[Poly, ...]:
    """Exact affine basis (1, x, I_1, .., I_m) of the twist shapes with m
    symmetric terms: Q = b_0 + q0 b_1 + sum_k q_k b_{k+1}."""
    return (ONE, X) + tuple(sym_basis_integral(k) for k in range(1, m + 1))


@lru_cache(maxsize=None)
def _scaled_basis(family, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each polynomial of family(m), a basis above, scaled to integers."""
    return tuple(_scaled(b) for b in family(m))


def _combine(basis: tuple[tuple[tuple[int, ...], int], ...], coeffs) -> Poly:
    """The affine combination basis[0] + sum_i coeffs[i] basis[i+1] of a
    scaled basis, summed in integers over the common denominator of every
    term and divided once per coefficient."""
    terms = [(Fraction(1), basis[0])] + [(as_fraction(c), b) for c, b in zip(coeffs, basis[1:])]
    den = lcm(*(c.denominator * D for c, (_, D) in terms))
    out = [0] * max(len(a) for _, (a, _) in terms)
    for c, (a, D) in terms:
        s = c.numerator * (den // (c.denominator * D))
        for i, x in enumerate(a):
            out[i] += s * x
    return Poly.from_coeffs(Fraction(x, den) for x in out)


def expand_mollifier(shape: MollifierShape) -> Poly:
    """Expand P(x) = x + sum_j c_j x^j (1-x) to canonical form."""
    return _combine(_scaled_basis(mollifier_basis, len(shape.shape_coeffs)),
                    shape.shape_coeffs)


def expand_twist(shape: TwistShape) -> Poly:
    """Expand Q(x) = 1 + q0 x + sum_k q_k I_k(x) to canonical form."""
    return _combine(_scaled_basis(twist_basis, len(shape.sym_coeffs)),
                    (shape.linear_coeff, *shape.sym_coeffs))


# --------------------------------------------------------------------------
# validators / inverse conversions for raw polynomial input
# --------------------------------------------------------------------------

def _coordinates(p: Poly, basis: tuple[Poly, ...], family: str) -> tuple[Fraction, ...]:
    """Coordinates of p in an affine basis whose directions have distinct
    degrees in ascending order, peeled off from the top by leading degree;
    fails naming the family when p lies outside the basis."""
    rem = p - basis[0]
    coords: list[Fraction] = []
    for b in reversed(basis[1:]):
        c = rem.coeffs[-1] / b.coeffs[-1] if rem.degree == b.degree else Fraction(0)
        rem = rem - b.scale(c)
        coords.append(c)
    if rem != ZERO:
        raise ConstraintViolationError(f"polynomial is not expressible {family}")
    return tuple(reversed(coords))


def mollifier_shape_from_poly(p: Poly) -> MollifierShape:
    """Recover the shape of a raw polynomial, or fail naming the identity."""
    if poly_eval(p, 0) != 0:
        raise ConstraintViolationError("mollifier polynomial violates P(0) = 0")
    if poly_eval(p, 1) != 1:
        raise ConstraintViolationError("mollifier polynomial violates P(1) = 1")
    basis = mollifier_basis(max(p.degree - 1, 0))
    return MollifierShape(_coordinates(p, basis, "as x + sum_j c_j x^j (1-x)"))


def twist_shape_from_poly(q: Poly) -> TwistShape:
    """Recover the twist shape of a raw polynomial, or fail naming the identity."""
    if poly_eval(q, 0) != 1:
        raise ConstraintViolationError("twist polynomial violates Q(0) = 1")
    dq = poly_derivative(q)
    if (dq - poly_reflect(dq)) != ZERO:
        raise ConstraintViolationError("twist polynomial violates Q'(x) = Q'(1-x)")
    basis = twist_basis(max(0, (q.degree - 1) // 2))
    linear, *sym = _coordinates(
        q, basis, "in the twist basis 1 + q0 x + sum_k q_k I_k")
    return TwistShape(linear, tuple(sym))
