"""Exact univariate polynomial algebra over the rationals: the one exact
layer.

A polynomial has one exact form, integer numerators over one positive
denominator, kept canonical, so moment integrals and constraint
identities are bit-reproducible and independent of evaluation order.
Every operation runs in integers and builds a Fraction only for a value
it returns.  Decimal literals ("0.158") parse to exact rationals (79/500).

moments() gives the four exact integrals over [0,1] of P1'P2', P1'P2,
P1 P2' and P1 P2 of a polynomial pair, in one integer pass with no
derivative polynomial built, as a MomentTable in the same integer form.
basis_moments(m) caches, per mollifier degree, the G_k: the moments of
every pair of the basis below, exact, over one common denominator, the
x-Gram blocks an exact referee reads (X = G_dd + rho (G_dp + G_pd) +
rho^2 G_pp).  A pair of shapes' table is then one integer bilinear form
of their integer rows (the shapes' numerators) with the G_k
(shape_moments), and no polynomial is built.  The oracle
builds the moment kernel h(a, b) from these tables; the float engine
(kernel, proportions, optimizer) reads none of them, and no other module
derives numerators from Fractions.

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
reads the bases at its quadrature nodes (kernel.node_rows) and each
shape's row rounded to binary64 here, once per shape (_Shape.row).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul
from struct import pack


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


def as_binary64(name: str, x) -> float:
    """float(x), or, for a rational x past the binary64 range, where float
    raises a bare OverflowError, a ValueError naming name and the value:
    a shape's row names a coefficient through it, and the params classes
    and SearchSpec their scalars."""
    try:
        return float(x)
    except OverflowError:
        shown = f"{Decimal(x.numerator) / x.denominator:.6e}"
        raise ValueError(f"{name} = {shown} is outside binary64") from None


def _require_integers(name: str, nums, den) -> None:
    """Fail naming the form unless nums is a tuple of ints and den an int."""
    if type(nums) is not tuple or not all(type(a) is int for a in (*nums, den)):
        raise ValueError(f"{name} is a tuple of integer numerators over one integer "
                         f"denominator, not {nums!r} / {den!r}")


def _over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    """Rationals (ints or Fractions) as integer numerators over their least
    common denominator."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return tuple([v.numerator * (den // d) for v, d in zip(values, dens)]), den


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial sum_k nums[k] x^k / den, exactly.

    Canonical form: den > 0, gcd(den, *nums) = 1 and no trailing zero
    numerator; the zero polynomial is ((), 1).  Poly.of canonicalises; the
    constructor takes only the canonical form and fails naming it.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        _require_integers("Poly", self.nums, self.den)
        if self.den <= 0:
            raise ValueError(f"Poly not in canonical form (denominator {self.den} is not positive)")
        if gcd(self.den, *self.nums) != 1:
            raise ValueError("Poly not in canonical form (numerators and denominator share a factor)")
        if self.nums and self.nums[-1] == 0:
            raise ValueError("Poly not in canonical form (trailing zero numerator)")
        if len(self.nums) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(self.nums) - 1} exceeds MAX_DEGREE={MAX_DEGREE}")

    @staticmethod
    def of(nums, den: int) -> "Poly":
        """sum_k nums[k] x^k / den in canonical form, for integers nums and
        den != 0: trailing zeros dropped, the common factor divided out
        and the sign of den moved to the numerators."""
        nums = tuple(nums)
        _require_integers("Poly", nums, den)
        if den == 0:
            raise ValueError("Poly denominator is zero")
        while nums and nums[-1] == 0:
            nums = nums[:-1]
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        return Poly(tuple(a // g for a in nums), den // g)

    @staticmethod
    def from_coeffs(coeffs) -> "Poly":
        """Build from any iterable of coefficient literals (as_fraction),
        over their least common denominator."""
        return Poly.of(*_over_common_denominator([as_fraction(c) for c in coeffs]))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact coefficients: coeffs[k] is that of x^k."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return Poly.of([a * s + b * t for a, b in zip_longest(self.nums, other.nums, fillvalue=0)],
                       den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, s) -> "Poly":
        s = as_fraction(s)
        return Poly.of([a * s.numerator for a in self.nums], self.den * s.denominator)

    def float_coeffs(self) -> list[float]:
        return [a / self.den for a in self.nums]


ZERO = Poly(())
ONE = Poly((1,))
X = Poly((0, 1))


def poly_eval(p: Poly, x) -> Fraction:
    """Evaluate exactly at a rational point x = n / d: Horner in integers
    on sum_k nums[k] n^k d^(deg - k), over den d^deg."""
    x = as_fraction(x)
    n, d = x.numerator, x.denominator
    acc, scale = 0, 1
    for a in reversed(p.nums):
        acc = acc * n + a * scale
        scale *= d
    return Fraction(acc * d, p.den * scale)


def poly_derivative(p: Poly) -> Poly:
    """Exact formal derivative in canonical form."""
    return Poly.of([k * a for k, a in enumerate(p.nums)][1:], p.den)


def poly_reflect(p: Poly) -> Poly:
    """p(1 - x), expanded exactly."""
    out = [0] * len(p.nums)
    for k, a in enumerate(p.nums):
        # (1-x)^k = sum_i C(k,i) (-1)^i x^i
        for i in range(k + 1):
            out[i] += a * comb(k, i) * (-1) ** i
    return Poly.of(out, p.den)


# --------------------------------------------------------------------------
# exact moments of a polynomial pair
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _integral_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """L = lcm(1..n) and the integers L / (s + 1), s < n: integral_0^1 t^s
    dt = 1 / (s + 1) over the common denominator L."""
    L = lcm(*range(1, n + 1))
    return L, tuple(L // (s + 1) for s in range(n))


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
        _require_integers("MomentTable", self.nums, self.den)
        if len(self.nums) != 4:
            raise ValueError(f"MomentTable has four numerators, not {len(self.nums)}")
        if self.den <= 0 or gcd(self.den, *self.nums) != 1:
            raise ValueError("MomentTable not in canonical form (denominator not positive, "
                             "or a factor shared with the numerators)")

    @staticmethod
    def of(m_dd, m_dp, m_pd, m_pp) -> "MomentTable":
        """The table of four rationals (ints or Fractions), over their
        least common denominator."""
        ms = (m_dd, m_dp, m_pd, m_pp)
        return MomentTable(*_over_common_denominator([Fraction(m) for m in ms]))

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


def moments(p1: Poly, p2: Poly) -> MomentTable:
    """The four moments of (p1, p2) in one integer pass.  With p1 = a / D1,
    p2 = b / D2 and the cached weights w_s = L / (s + 1), L = lcm(1..deg p1
    + deg p2 + 1) (_integral_weights), each pair (a_j, b_k) enters m_pp
    with weight w_{j+k}, m_pd with k w_{j+k-1}, m_dp with j w_{j+k-1} and
    m_dd with jk w_{j+k-2}.  So with the inner sums
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
    g = gcd(den, *nums)
    return MomentTable(tuple(n // g for n in nums), den // g)


# --------------------------------------------------------------------------
# constrained shape bases
# --------------------------------------------------------------------------

class _Shape:
    """What every exact shape gives the float core: its homogeneous row,
    1 and then the coefficients in field order (_entries)."""

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], int]:
        """The row as integer numerators over their least common
        denominator, formed once per shape."""
        return _over_common_denominator((1, *self._entries()))

    @cached_property
    def row(self) -> bytes:
        """The row in binary64, each entry rounded once, as bytes (an array
        through kernel.shape_row), formed once per shape.  Not a field: it
        takes no part in ==, hash or repr, and a shape built by
        dataclasses.replace forms its own.  An entry outside binary64
        raises ValueError naming the shape's field, the index and the value."""
        entries = self._entries()
        try:
            return pack(f"{len(entries) + 1}d", 1.0, *map(float, entries))
        except OverflowError:  # name the first entry past the binary64 range
            for f in fields(self):
                value = getattr(self, f.name)
                named = ([(f.name, value)] if not isinstance(value, tuple)
                         else [(f"{f.name}[{i}]", x) for i, x in enumerate(value)])
                for name, x in named:
                    as_binary64(f"{type(self).__name__}.{name}", x)
            raise


@dataclass(frozen=True)
class MollifierShape(_Shape):
    """Coefficients c_1..c_m of P(x) = x + sum_j c_j x^j (1-x): the row
    (1, c_1..c_m)."""

    shape_coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(coeffs) -> "MollifierShape":
        return MollifierShape(tuple(as_fraction(c) for c in coeffs))

    def _entries(self) -> tuple[Fraction, ...]:
        return self.shape_coeffs


@dataclass(frozen=True)
class TwistShape(_Shape):
    """Coefficients of Q(x) = 1 + q0 x + sum_k q_k I_k(x): the row (1, q0,
    q_1..q_m).

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

    def _entries(self) -> tuple[Fraction, ...]:
        return (self.linear_coeff, *self.sym_coeffs)


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


def _combine(basis: tuple[Poly, ...], coeffs) -> Poly:
    """The affine combination basis[0] + sum_i coeffs[i] basis[i+1],
    summed in integers over the common denominator of every term."""
    terms = [(Fraction(1), basis[0])] + [(as_fraction(c), b) for c, b in zip(coeffs, basis[1:])]
    den = lcm(*(c.denominator * b.den for c, b in terms))
    out = [0] * max(len(b.nums) for _, b in terms)
    for c, b in terms:
        s = c.numerator * (den // (c.denominator * b.den))
        for i, x in enumerate(b.nums):
            out[i] += s * x
    return Poly.of(out, den)


@lru_cache(maxsize=None)
def basis_moments(m: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """G_k, the exact moments of every pair of mollifier_basis(m), as
    integer numerators over one common denominator: (G, den) with
    G[k][i (m + 1) + j] / den the k-th moment (m_dd, m_dp, m_pd, m_pp) of
    (b_i, b_j), each G_k row-major.  mollifier_basis(m) is a prefix of
    mollifier_basis(m + 1), so each G_k holds every smaller degree's as its
    leading block."""
    basis = mollifier_basis(m)
    tables = [moments(bi, bj) for bi in basis for bj in basis]
    den = lcm(*(t.den for t in tables))
    return tuple(tuple(t.nums[k] * (den // t.den) for t in tables) for k in range(4)), den


def shape_moments(a: MollifierShape, b: MollifierShape) -> MomentTable:
    """moments(expand_mollifier(a), expand_mollifier(b)), read from the
    shapes' integer rows (MollifierShape.numerators): each moment is one
    integer bilinear form of the two rows with the basis table of the
    larger degree (basis_moments), over the product of the three
    denominators, reduced by one gcd.  No Poly is built."""
    (ra, da), (rb, db) = a.numerators, b.numerators
    n = max(len(ra), len(rb))
    grams, den = basis_moments(n - 1)
    # each G_k is row-major with n columns: rb is padded to n, and a
    # shorter ra reads only the leading rows
    outer = [x * y for x in ra for y in rb + (0,) * (n - len(rb))]
    nums = [sum(map(mul, g, outer)) for g in grams]
    den *= da * db
    g = gcd(den, *nums)
    return MomentTable(tuple(x // g for x in nums), den // g)


def expand_mollifier(shape: MollifierShape) -> Poly:
    """Expand P(x) = x + sum_j c_j x^j (1-x) to canonical form."""
    return _combine(mollifier_basis(len(shape.shape_coeffs)), shape.shape_coeffs)


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
        c = (Fraction(rem.nums[-1] * b.den, rem.den * b.nums[-1])
             if rem.degree == b.degree else Fraction(0))
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
    linear, *sym = _coordinates(q, basis, "in the twist basis 1 + q0 x + sum_k q_k I_k")
    return TwistShape(linear, tuple(sym))
