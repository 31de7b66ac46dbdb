"""Structural properties over generated inputs: the integer form of the
exact polynomials, its operations, integrals and shape expansions,
against per-term Fraction references on the exact coefficients, the
one-pass moment tables against the four product integrals, their
transpose law, the oracle's one E grid and bracket form about (-R, -R)
against the kernel's definition on the torus, the symmetry of the
Cauchy-integral derivative matrix of a diagonal pair, the delta = 0
degeneracy of c1, the root factors a shape keeps against
the basis products they are formed from, selfcheck's node-row checks on
correct rows, and the quadratic structure the exact solves rely on: c
along any line in (p1, p2), and c1 along any line in p at a fixed twist
or in q at a fixed delta, are parabolas to rounding."""

from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levbounds import kernel
from levbounds.kernel import node_rows
from levbounds import oracle
from levbounds.oracle import crosscheck_report, fd_c1_value
from levbounds.polyalg import (MAX_DEGREE, ZERO, MollifierShape, Poly, TwistShape,
                               as_fraction, expand_mollifier, mollifier_basis,
                               moments, poly_derivative, poly_eval, poly_reflect, twist_basis)
from levbounds.proportions import SectionFiveParams, SectionFourParams, c1_core, c_core

from kernel_reference import (add_naive, cauchy_derivatives, combine_naive, derivative_naive,
                              eval_naive, expand_twist, integrate01_product_naive,
                              kernel_numeric, moment_table, reflect_naive, scale_naive,
                              transpose)
from test_oracle import exp_grid

property_settings = settings(derandomize=True, database=None, deadline=None,
                             max_examples=100)
coeffs = st.lists(st.floats(-2.0, 2.0), max_size=4)
shapes = coeffs.map(MollifierShape.of)
thetas = st.floats(0.3, 1.0)
offsets = st.floats(1e-6, 5.0)

# coefficient literals of every kind as_fraction reads: zeros, integers,
# decimal strings and floats through their repr
literals = st.one_of(st.just(0), st.integers(-10**12, 10**12),
                     st.decimals(-1000, 1000, places=6).map(str),
                     st.floats(allow_nan=False, allow_infinity=False))


def literal_lists(max_size: int):
    return st.lists(literals, max_size=max_size).map(lambda cs: [as_fraction(c) for c in cs])


# MAX_DEGREE + 1 literals of every kind, the last nonzero
FULL = [as_fraction(c) for c in [0, 7, "-0.158", 0.1, -3] * 13]


@property_settings
@given(p=literal_lists(MAX_DEGREE + 1).map(Poly.from_coeffs),
       q=literal_lists(MAX_DEGREE + 1).map(Poly.from_coeffs), s=literals, x=literals)
@example(p=Poly.from_coeffs(FULL), q=Poly.from_coeffs(FULL[1:]), s="-0.158", x=0.1)
def test_integer_operations_are_the_fraction_operations(p, q, s, x):
    a, b, s, x = p.coeffs, q.coeffs, as_fraction(s), as_fraction(x)
    assert p.den > 0 and gcd(p.den, *p.nums) == 1 and p.nums[-1:] != (0,)
    assert p == Poly.from_coeffs(a) and p.float_coeffs() == [float(c) for c in a]
    assert (p + q).coeffs == add_naive(a, b)
    assert (p - q).coeffs == add_naive(a, scale_naive(b, -1))
    assert p.scale(s).coeffs == scale_naive(a, s)
    assert poly_derivative(p).coeffs == derivative_naive(a)
    assert poly_reflect(p).coeffs == reflect_naive(a)
    assert poly_eval(p, x) == eval_naive(a, x)


@property_settings
@given(coeffs=literal_lists(MAX_DEGREE - 1))
@example(coeffs=FULL[:MAX_DEGREE - 1])
def test_integer_mollifier_expansion_is_the_poly_chain(coeffs):
    shape = MollifierShape.of(coeffs)
    assert expand_mollifier(shape).coeffs == combine_naive(mollifier_basis(len(coeffs)), coeffs)


@property_settings
@given(linear=literals, sym=literal_lists((MAX_DEGREE - 1) // 2))
@example(linear="0.25", sym=FULL[:(MAX_DEGREE - 1) // 2])
def test_integer_twist_expansion_is_the_poly_chain(linear, sym):
    shape = TwistShape.of(linear, sym)
    assert expand_twist(shape).coeffs == combine_naive(twist_basis(len(sym)),
                                                (as_fraction(linear), *sym))


@property_settings
@given(shape1=shapes, shape2=shapes)
def test_moment_tables_transpose_exactly(shape1, shape2):
    p1, p2 = expand_mollifier(shape1), expand_mollifier(shape2)
    assert transpose(moments(p1, p2)) == moments(p2, p1)


@property_settings
@given(p=literal_lists(MAX_DEGREE + 1).map(Poly.from_coeffs),
       q=literal_lists(MAX_DEGREE + 1).map(Poly.from_coeffs))
@example(p=ZERO, q=ZERO)  # no weights
@example(p=ZERO, q=Poly.from_coeffs(["-0.158"]))
@example(p=Poly.from_coeffs([3]), q=Poly.from_coeffs(["0.25"]))  # one weight
@example(p=Poly.from_coeffs(["0.5"]), q=Poly.from_coeffs(FULL))
@example(p=Poly.from_coeffs(FULL), q=Poly.from_coeffs(FULL[1:]))
def test_one_pass_moments_are_the_four_product_integrals(p, q):
    dp, dq = poly_derivative(p), poly_derivative(q)
    naive = integrate01_product_naive
    assert moments(p, q) == moment_table(naive(dp, dq), naive(dp, q), naive(p, dq), naive(p, q))


@property_settings
@given(p=literal_lists(MAX_DEGREE + 1).map(Poly.from_coeffs),
       q=literal_lists(MAX_DEGREE + 1).map(Poly.from_coeffs))
@example(p=ZERO, q=ZERO)
@example(p=Poly.from_coeffs(FULL), q=Poly.from_coeffs(FULL[1:]))
def test_table_is_canonical_and_its_floats_are_each_moment_rounded_once(p, q):
    mt = moments(p, q)
    exact = (mt.m_dd, mt.m_dp, mt.m_pd, mt.m_pp)
    assert mt.den > 0 and gcd(mt.den, *mt.nums) == 1
    assert moment_table(*exact) == mt
    try:
        rounded = tuple(map(float, exact))
    except OverflowError:  # a moment past binary64 fails alike both ways
        with pytest.raises(OverflowError):
            mt.floats
        return
    assert repr(mt.floats) == repr(rounded)


@property_settings
@given(pairs=st.lists(st.tuples(shapes, shapes), min_size=1, max_size=4), theta=thetas,
       R=offsets, order=st.integers(1, 16), on_line=st.booleans())
def test_grid_terms_are_each_tables_kernel(pairs, theta, R, order, on_line):
    # C + E(s) [1, n_j] G [1, n_k]^T, the kernel the oracle's forms contract
    # on one E grid, is each table's kernel_numeric at the nodes (-R + n_j,
    # -R + n_k), to the rounding of those nodes and of E; R =
    # (order!)^(1/order) puts the torus node (0, 0) on a + b = 0
    nodes = oracle._torus(order)[0][1]
    if on_line:
        R = abs(nodes[0])
    a, b = -R + nodes[:, None], -R + nodes[None, :]
    assert np.any(a + b == 0) or not on_line
    E = exp_grid(order, R)
    for s1, s2 in pairs:
        mt = moments(expand_mollifier(s1), expand_mollifier(s2))
        C, ((g00, g01), (g10, g11)) = oracle._kernel_terms(mt.floats, theta, R)
        n_a, n_b = nodes[:, None], nodes[None, :]
        grid = C + E * ((g00 + g01 * n_b) + n_a * (g10 + g11 * n_b))
        F = kernel_numeric(mt, theta, a, b)
        assert np.abs(grid - F).max() <= 8 * np.finfo(float).eps * (1 + R) * np.abs(F).max()


@property_settings
@given(shape=shapes, theta=thetas, R=offsets, order=st.integers(1, 8))
def test_diagonal_pair_derivative_matrix_is_symmetric(shape, theta, R, order):
    poly = expand_mollifier(shape)
    mt = moments(poly, poly)
    D = cauchy_derivatives(lambda a, b: kernel_numeric(mt, theta, a, b), (-R, -R), order)
    assert np.abs(D - D.T).max() <= 1e-13 * np.abs(D).max()


@property_settings
@given(shape=shapes, q_linear=st.floats(-2.0, 2.0), q_sym=coeffs, theta=thetas, R=offsets)
def test_c1_at_delta_zero_is_the_kernel_value(shape, q_linear, q_sym, theta, R):
    # delta = 0 weights only the value, whatever the twist
    p = SectionFiveParams(shape, TwistShape.of(q_linear, q_sym), theta, R, 0.0)
    poly = expand_mollifier(shape)
    value = kernel_numeric(moments(poly, poly), theta, -R, -R)
    assert abs(fd_c1_value(p) - value) <= 1e-13 * abs(value)


@property_settings
@given(shape=shapes, q_linear=st.floats(-2.0, 2.0), q_sym=coeffs, theta=thetas,
       R=st.floats(1e-6, 300.0), delta=st.floats(-2.0, 2.0))
def test_factors_are_the_basis_products_combined(shape, q_linear, q_sym, theta, R, delta):
    # the stacked factors a miss of c or c1 forms are, row for row and bit
    # for bit, D u + rho (P u) and theta (P u) for a mollifier's float row
    # u, and 1 + Psi v and Psi' v for a twist v = delta w, each product one
    # matrix-vector product with the basis rows; c and c1 take their Grams
    # of these factors under their weights (kernel.gram)
    q = TwistShape.of(q_linear, q_sym)
    rows = node_rows(theta, R, len(shape.shape_coeffs), len(q_sym))
    u, w = kernel.shape_row(shape), kernel.shape_row(q)
    D, P = kernel._rows(len(rows.wx), len(u) - 1, False)
    Psi, dPsi = kernel._rows(len(rows.t), len(w) - 2, True)
    v = delta * w
    for factors, expected in ((rows.factors(u),
                               (D @ u + rows.rho * (P @ u), rows.theta * (P @ u))),
                              (rows.factors(w, delta), (1.0 + Psi @ v, dPsi @ v))):
        assert factors.shape == (2, len(expected[0]))
        assert [row.tobytes() for row in factors] == [row.tobytes() for row in expected]


@property_settings
@given(shape1=shapes, shape2=shapes, shape5=shapes, theta=thetas,
       R4=st.floats(1e-6, 300.0), R5=st.floats(1e-6, 300.0))
@example(shape1=MollifierShape.of([-0.4141294468909389, 0.28479851780149534]),
         shape2=MollifierShape.of([1.724042120439416, 1.764750197772658]),
         shape5=MollifierShape.of([0.5]), theta=0.6950768278536537,
         R4=1.0914026348574048e-05, R5=1.0)
def test_node_row_checks_pass_on_correct_rows(shape1, shape2, shape5, theta, R4, R5):
    # criterion-6 shapes and wider, over the whole R range; in the example
    # m21.AP nearly cancels, and its error is 5e-12 of its own value but
    # 2e-16 of the same sum over absolute values, which the check reads
    p4 = SectionFourParams(shape1, shape2, theta, 1.154, R4)
    p5 = SectionFiveParams(shape5, TwistShape.of(0.5), theta, R5, 0.5)
    checks = [ch for ch in crosscheck_report(p4, p5).checks if ch.name.startswith("node rows[")]
    assert len(checks) == 20
    assert all(ch.passed for ch in checks), [(ch.name, ch.rel_delta) for ch in checks]


# Rounding bound.  Along a line x(t) = x0 + t d every other input is fixed,
# so the engine's node rows (weights, basis and twist rows, c's t-Gram Tc)
# are the same floats at every probe, and so is the Gram of the side the
# line does not move (c1's t-Gram T along a mollifier line, its x-Gram X
# along a twist line); the exact value at the rounded probe inputs is then
# a quadratic in t.  Each constant is 1 + sum_ab G_ab H_ab, a fixed Gram G
# contracted with the Gram H = sum_i w_i F_a F_b of the moving factors F,
# and expanding each factor into its products of rows and inputs makes it
# a sum of products; rounded, it is off that quadratic by at most
# gamma_n S(t) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., sec. 3.1), where S(t) = 1 + sum_ab |G_ab| sum_i w_i |F_a| |F_b| is
# the same sum over absolute values, |F| each factor's running sum of
# absolute terms, and n counts the roundings on one product's path:
# w_i - 1 for the sum over the i nodes, 2 for F_a F_b w_i, twice a factor's
# own path, 1 for G_ab H_ab, 2 for the sum of the three terms (2 G01 H01
# doubles exactly), 1 for adding the 1, and 2 for each input
# fl(x0 + t d) (3 where the delta factor rounds it again).  A mollifier row
# u is read through its products (D u, P u), one dot product of len(u)
# terms each, so |A| is |D| |u| + rho |P| |u|, not |D + rho P| |u|, and 1/r
# rounds after the sums over the row.
# Extrapolating from the probes t = -1, 0, 1 to t* with the Lagrange
# weights L_i(t*) then misses the value at t* by at most
# gamma_n (S(t*) + sum_i |L_i(t*)| S(t_i)), plus at most 8 roundings of the
# weights and the combination, each relative to a term no larger than
# |L_i| S(t_i).
U = np.finfo(float).eps / 2.0  # unit roundoff, 2^-53
NODES = (-1.0, 0.0, 1.0)


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def assert_parabola(f, S, n: int, t_star: float) -> None:
    """f(t*) against the Lagrange extrapolation of f from NODES, within the
    bound above for n roundings per evaluation and absolute sums S(t)."""
    weights = [np.prod([(t_star - tj) / (ti - tj) for tj in NODES if tj != ti])
               for ti in NODES]
    predicted = sum(w * f(t) for w, t in zip(weights, NODES))
    bound = S(t_star) + sum(abs(w) * S(t) for w, t in zip(weights, NODES))
    assert abs(f(t_star) - predicted) <= gamma(n + 8) * bound


line_floats = st.floats(-2.0, 2.0, allow_subnormal=False)
line_targets = st.floats(-3.0, 3.0)


@st.composite
def lines(draw, min_size=0, max_size=4):
    """(x0, d) of one size between min_size and max_size."""
    n = draw(st.integers(min_size, max_size))
    vectors = st.lists(line_floats, min_size=n, max_size=n).map(np.array)
    return draw(vectors), draw(vectors)


def on_line(line, t: float) -> np.ndarray:
    x0, d = line
    return x0 + t * d


def contracted_sum(G, abs_factors: np.ndarray, w: np.ndarray) -> float:
    """S = 1 + sum_ab |G_ab| sum_i w_i |F_a| |F_b| for a fixed Gram G,
    (G00, G01, G11), and the moving factors' running sums of absolute
    terms, (2, nodes), under their weights w."""
    H = (abs_factors * w) @ abs_factors.T
    return 1.0 + float(abs(G[0]) * H[0, 0] + 2.0 * abs(G[1]) * H[0, 1] + abs(G[2]) * H[1, 1])


def abs_mollifier(rows, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|A| = |D| |u| + rho |P| |u| and |P| = |P| |u| at the x-nodes."""
    D, P = kernel._rows(rows.wx.size, len(u) - 1, False)
    pu = np.abs(P) @ np.abs(u)
    return np.abs(D) @ np.abs(u) + rows.rho * pu, pu


def roundings(nodes: int, path: int, per_input: int) -> int:
    """n for a Gram over nodes whose factors each round path times past
    their inputs, each of which rounds per_input times (see above)."""
    return nodes - 1 + 2 + 2 * path + 1 + 2 + 1 + 2 * per_input


@property_settings
@given(line1=lines(), line2=lines(), theta=thetas, r=st.floats(0.5, 2.0), R=offsets,
       t_star=line_targets)
def test_c_along_a_line_in_the_mollifiers_is_a_parabola(line1, line2, theta, r, R,
                                                        t_star):
    m = max(len(line1[0]), len(line2[0]))
    rows = node_rows(theta, R, m)
    n1, n2 = len(line1[0]) + 1, len(line2[0]) + 1

    def S(t):
        (a1, _), (a2, p2) = (abs_mollifier(rows, np.r_[1.0, on_line(line, t)])
                             for line in (line1, line2))
        return contracted_sum(rows.Tc, np.array([a1 + (a2 + theta * p2) / r, a2 / r]), rows.wx)

    # F0 = A1 - (A2 + theta P2) / r: a row's products len(u), A 2 more
    # (rho P, the sum), then 1 for A2 + theta P2, 1 for 1/r and 1 for the
    # subtraction; F1 = -A2 / r is shorter
    n = roundings(rows.wx.size, max(n1, n2) + 5, per_input=2)
    assert_parabola(lambda t: c_core(on_line(line1, t), on_line(line2, t), theta, r, R),
                    S, n, t_star)


@property_settings
@given(line=lines(), q=coeffs.map(lambda c: [0.5] + c), theta=thetas, R=offsets,
       delta=st.floats(-2.0, 2.0), t_star=line_targets)
def test_c1_along_a_line_in_the_mollifier_is_a_parabola(line, q, theta, R, delta, t_star):
    m = len(line[0])
    rows = node_rows(theta, R, m, len(q) - 1)
    T = kernel.gram(rows.factors(np.r_[1.0, q], delta), rows.wt)  # the twist's, fixed

    def S(t):
        A, P = abs_mollifier(rows, np.r_[1.0, on_line(line, t)])
        return contracted_sum(T, np.array([A, rows.theta * P]), rows.wx)

    # A: the row's m + 1 products, then rho P and the sum
    n = roundings(rows.wx.size, m + 3, per_input=2)
    assert_parabola(lambda t: c1_core(on_line(line, t), q, theta, R, delta), S, n, t_star)


@property_settings
@given(shape=coeffs, line=lines(min_size=1, max_size=5), theta=thetas, R=offsets,
       delta=st.floats(-2.0, 2.0), t_star=line_targets)
def test_c1_along_a_line_in_the_twist_is_a_parabola(shape, line, theta, R, delta, t_star):
    p = [float(c) for c in shape]
    rows = node_rows(theta, R, len(p), len(line[0]) - 1)
    X = kernel.gram(rows.factors(np.r_[1.0, p]), rows.wx)  # the mollifier's, fixed
    psi, dpsi = kernel._rows(rows.t.size, len(line[0]) - 1, True)

    def S(t):
        v = np.abs(delta * np.r_[1.0, on_line(line, t)])
        return contracted_sum(X, np.array([1.0 + np.abs(psi) @ v, np.abs(dpsi) @ v]), rows.wt)

    # U = 1 + Psi v: the row's K = len(v) products, then the 1; each twist
    # entry: fl(x0 + t d), then times delta
    n = roundings(rows.wt.size, len(line[0]) + 2, per_input=3)
    assert_parabola(lambda t: c1_core(p, on_line(line, t), theta, R, delta), S, n, t_star)
