"""Structural properties over generated inputs: the transpose law of the
exact moment tables, the symmetry of the Cauchy-integral derivative
matrix of a diagonal pair, and the delta = 0 degeneracy of c1."""

import numpy as np
from hypothesis import given, settings, strategies as st

from levbounds.kernel import moments
from levbounds.oracle import cauchy_derivatives, fd_c1_value, kernel_numeric
from levbounds.polyalg import MollifierShape, TwistShape, expand_mollifier
from levbounds.proportions import SectionFiveParams

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
