"""Structural properties over generated inputs: the transpose law of the
exact moment tables, the symmetry of the Cauchy-integral derivative
matrix of a diagonal pair, the delta = 0 degeneracy of c1, and the
quadratic structure the exact solves rely on: c along any line in
(p1, p2), and c1 along any line in p at a fixed twist or in q at a fixed
delta, are parabolas to rounding."""

import numpy as np
from hypothesis import given, settings, strategies as st

from levbounds.kernel import kernel_derivative_basis, moment_grams, moments
from levbounds.oracle import cauchy_derivatives, fd_c1_value, kernel_numeric
from levbounds.polyalg import MollifierShape, TwistShape, expand_mollifier, twist_matrix
from levbounds.proportions import SectionFiveParams, c1_core, c_core, twist_operator_coefficients

property_settings = settings(derandomize=True, database=None, deadline=None,
                             max_examples=100)
coeffs = st.lists(st.floats(-2.0, 2.0), max_size=4)
shapes = coeffs.map(MollifierShape.of)
thetas = st.floats(0.3, 1.0)
offsets = st.floats(1e-6, 5.0)


@property_settings
@given(shape1=shapes, shape2=shapes)
def test_moment_tables_transpose_exactly(shape1, shape2):
    p1, p2 = expand_mollifier(shape1), expand_mollifier(shape2)
    assert moments(p1, p2).transpose() == moments(p2, p1)


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


# Rounding bound.  Along a line x(t) = x0 + t d every other input is fixed,
# so the engine's tables (moment Grams, kernel basis, twist map) are the same
# floats at every probe, and the exact value at the rounded probe inputs is a
# quadratic in t.  Each probe sums N products of k factors; rounded, it is
# off that quadratic by at most gamma_n S(t) (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., sec. 3.1), where S(t) is the same sum
# over absolute values and n counts the roundings on one product's path:
# N - 1 + k - 1 for the sum of products, plus 2 for each factor fl(x0 + t d)
# and the roundings of any factor built from it.  Extrapolating from the
# probes t = -1, 0, 1 to t* with the Lagrange weights L_i(t*) then misses
# the value at t* by at most gamma_n (S(t*) + sum_i |L_i(t*)| S(t_i)), plus
# at most 8 roundings of the weights and the combination, each relative to
# a term no larger than |L_i| S(t_i).
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


def abs_twist_weights(q, delta: float) -> np.ndarray:
    """twist_operator_coefficients(twist_matrix @ (1, q), delta) with every
    input and every sign made positive."""
    qm = np.abs(twist_matrix(len(q) - 1)) @ np.abs(np.r_[1.0, q])
    w = np.zeros(len(qm) + 1)
    w[:-1] = qm
    w[1:] += 2.0 * qm
    w = abs(delta) * w
    w[0] += abs(1.0 - delta)
    return w


@property_settings
@given(line1=lines(), line2=lines(), theta=thetas, r=st.floats(0.5, 2.0), R=offsets,
       t_star=line_targets)
def test_c_along_a_line_in_the_mollifiers_is_a_parabola(line1, line2, theta, r, R,
                                                        t_star):
    m = max(len(line1[0]), len(line2[0]))
    grams = np.abs(moment_grams(m))
    weight = np.array([1.0, 1.0 / r])
    kernel = np.abs(kernel_derivative_basis(theta, R, 1) * np.multiply.outer(weight, weight))

    def S(t):
        u = np.zeros((2, m + 1))
        u[:, 0] = 1.0
        for row, line in zip(u, (line1, line2)):
            row[1:len(line[0]) + 1] = np.abs(on_line(line, t))
        return np.einsum("ai,kij,bj,kab->", u, grams, u, kernel)

    # N = 2 (m+1) 4 (m+1) 2 products of k = 4 factors, two of them fl(x0 + t d)
    n = 16 * (m + 1) ** 2 + 2 + 2 * 2
    assert_parabola(lambda t: c_core(on_line(line1, t), on_line(line2, t), theta, r, R),
                    S, n, t_star)


@property_settings
@given(line=lines(), q=coeffs.map(lambda c: [0.5] + c), theta=thetas, R=offsets,
       delta=st.floats(-2.0, 2.0), t_star=line_targets)
def test_c1_along_a_line_in_the_mollifier_is_a_parabola(line, q, theta, R, delta, t_star):
    m = len(line[0])
    grams = np.abs(moment_grams(m))
    u = np.abs(twist_operator_coefficients(twist_matrix(len(q) - 1) @ np.r_[1.0, q], delta))
    kernel = np.abs(kernel_derivative_basis(theta, R, len(u) - 1))

    def S(t):
        up = np.r_[1.0, np.abs(on_line(line, t))]
        return np.einsum("i,kij,j,kmn,m,n->", up, grams, up, kernel, u, u)

    # moments: (m+1)^2 products of 3 factors, two of them fl(x0 + t d);
    # c1: 4 M^2 products of 4 factors, one of them a moment
    M = len(u)
    n = (m + 1) ** 2 + 1 + 2 * 2 + 4 * M * M + 2
    assert_parabola(lambda t: c1_core(on_line(line, t), q, theta, R, delta), S, n, t_star)


@property_settings
@given(shape=coeffs, line=lines(min_size=1, max_size=5), theta=thetas, R=offsets,
       delta=st.floats(-2.0, 2.0), t_star=line_targets)
def test_c1_along_a_line_in_the_twist_is_a_parabola(shape, line, theta, R, delta, t_star):
    p = [float(c) for c in shape]
    up = np.r_[1.0, np.abs(p)]
    mt = np.einsum("i,kij,j->k", up, np.abs(moment_grams(len(p))), up)
    L = len(line[0]) + 1
    M = len(abs_twist_weights(line[0], delta))
    kernel = np.abs(kernel_derivative_basis(theta, R, M - 1))

    def S(t):
        u = abs_twist_weights(on_line(line, t), delta)
        return np.einsum("k,kmn,m,n->", mt, kernel, u, u)

    # each weight: fl(x0 + t d) 2, the twist map's L-term sum L, then
    # q_j - 2 q_(j-1), delta w and (1 - delta) + one each; c1: 4 M^2
    # products of 4 factors, two of them weights
    n = 4 * M * M + 2 + 2 * (2 + L + 3)
    assert_parabola(lambda t: c1_core(p, on_line(line, t), theta, R, delta), S, n, t_star)
