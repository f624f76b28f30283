import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phimin import (
    DomainError,
    ProfileError,
    WeightProfile,
    curly_g,
    lambda_of_z,
    make_builtin,
    make_custom,
)
from phimin.profiles import expression_callable


def test_linear_basic():
    p = make_builtin("linear", 2.0)
    z = np.array([-1.0, 0.0, 3.5])
    assert np.allclose(p.phi(z), 2.0 * z)
    assert np.allclose(p.dphi(z), 2.0)
    assert np.allclose(p.ddphi(z), 0.0)
    assert p.increasing


def test_linear_rejects_zero_slope():
    with pytest.raises(ProfileError):
        make_builtin("linear", 0.0)


def test_log_basic():
    p = make_builtin("log", 1.5)
    z = np.array([0.5, 1.0, 2.0])
    assert np.allclose(p.phi(z), 1.5 * np.log(z))
    assert np.allclose(p.dphi(z), 1.5 / z)
    assert np.allclose(p.ddphi(z), -1.5 / z**2)
    assert p.domain == (0.0, math.inf)


def test_log_negative_exponent_is_decreasing():
    p = make_builtin("log", -2.0)
    assert not p.increasing
    assert p.sup_phi == -math.inf


def test_series_is_quadratic_plus_corrections():
    p = make_builtin("series", 2.0, 0.0, [0.5], domain=(0.5, math.inf))
    u = np.array([1.0, 2.0, 5.0])
    assert np.allclose(p.dphi(u), 2.0 * u + 0.5 / u)
    assert np.allclose(p.ddphi(u), 2.0 - 0.5 / u**2)
    # phi integrates the series term by term
    assert np.allclose(p.phi(u), u**2 + 0.5 * np.log(u))


def test_series_needs_positive_leading_data():
    with pytest.raises(ProfileError):
        make_builtin("series", 0.0, 0.0)
    with pytest.raises(ProfileError):
        make_builtin("series", -1.0, 0.0)


def test_monotonicity_flag_is_checked():
    with pytest.raises(ProfileError):
        WeightProfile(
            phi=lambda z: np.asarray(z) ** 3,
            dphi=lambda z: 3 * np.asarray(z) ** 2,
            ddphi=lambda z: 6 * np.asarray(z),
            domain=(-1.0, 1.0),
            increasing=True,  # dphi vanishes at 0
        )
    # a dphi that is NaN everywhere has no sign to check
    with pytest.raises(ProfileError):
        make_custom(lambda z: np.full_like(np.asarray(z, dtype=float),
                                           np.nan), domain=(0.0, 1.0))


def test_lambda_of_z_linear_is_constant():
    p = make_builtin("linear", 3.0)
    w = np.linspace(-5, 5, 11)
    assert np.allclose(lambda_of_z(p, w), 3.0)


def test_lambda_of_z_log_closed_form():
    a = 2.0
    p = make_builtin("log", a)
    w = np.array([-1.0, 0.0, 1.0, 4.0])
    assert np.allclose(lambda_of_z(p, w), a * np.exp(-w / a))


def test_lambda_of_z_matches_direct_composition():
    # generic route (root finding) against the definition
    p = make_builtin("series", 1.0, 0.5, [0.25], domain=(0.25, math.inf))
    z0 = 2.0
    w = float(p.phi(z0))
    assert lambda_of_z(p, w) == pytest.approx(float(p.dphi(z0)), rel=1e-10)


def test_curly_g_frozen_value():
    # dphi(u) = 2u: integral of 1/(2u) from 1 to e is exactly 1/2
    p = make_builtin("series", 2.0, 0.0, domain=(0.1, math.inf))
    assert curly_g(p, 1.0, math.e) == pytest.approx(0.5, abs=1e-12)


def test_curly_g_linear():
    p = make_builtin("linear", 4.0)
    u = np.array([0.0, 2.0, -2.0])
    assert np.allclose(curly_g(p, 0.0, u), u / 4.0)


def test_curly_g_outside_domain_raises():
    p = make_builtin("log", 1.0)
    with pytest.raises(DomainError):
        curly_g(p, 1.0, -3.0)


def test_custom_profile_recovers_phi_by_quadrature():
    # dphi = cos z has antiderivative sin z (anchored at 0)
    p = make_custom(
        dphi=lambda z: np.cos(np.asarray(z, dtype=float)),
        domain=(-1.0, 1.0),
        increasing=True,
        anchor=0.0,
    )
    z = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(p.phi(z), np.sin(z), rtol=0.0, atol=1e-13)


def test_inverse_phi_vectorized_and_out_of_range():
    # decreasing weight: phi = -2 log z on (0, inf)
    p = make_builtin("log", -2.0)
    z = np.array([0.25, 1.0, 7.5])
    np.testing.assert_allclose(p.inverse_phi(p.phi(z)), z, rtol=1e-14)
    bounded = make_custom(lambda z: np.cos(np.asarray(z, dtype=float)),
                          domain=(-1.0, 1.0), anchor=0.0)
    with pytest.raises(DomainError):
        bounded.inverse_phi(2.0)


def test_custom_profile_fd_second_derivative():
    p = make_custom(
        dphi=lambda z: np.exp(np.asarray(z, dtype=float)),
        domain=(-2.0, 2.0),
        increasing=True,
        anchor=0.0,
    )
    assert float(p.ddphi(0.5)) == pytest.approx(math.exp(0.5), rel=1e-5)


def test_expression_callable_rejects_unknown_names():
    with pytest.raises(ProfileError):
        expression_callable("__import__('os').system('true')")
    f = expression_callable("exp(z) + 1")
    assert float(f(0.0)) == pytest.approx(2.0)


@given(m=st.floats(min_value=0.1, max_value=10.0), z=st.floats(-20, 20))
def test_linear_inverse_phi_roundtrip(m, z):
    p = make_builtin("linear", m)
    w = float(p.phi(z))
    assert p.inverse_phi(w) == pytest.approx(z, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    L=st.floats(min_value=0.2, max_value=4.0),
    b=st.floats(min_value=0.0, max_value=2.0),
    z=st.floats(min_value=1.0, max_value=8.0),
)
def test_series_phi_consistent_with_dphi(L, b, z):
    # finite difference of phi reproduces dphi to fourth order
    p = make_builtin("series", L, b, [0.1], domain=(0.5, math.inf))
    h = 1e-4
    fd = (float(p.phi(z + h)) - float(p.phi(z - h))) / (2 * h)
    assert fd == pytest.approx(float(p.dphi(z)), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=0.5, max_value=3.0), w=st.floats(-3.0, 3.0))
def test_lambda_of_z_log_property(a, w):
    p = make_builtin("log", a)
    z = math.exp(w / a)  # the height with phi(z) = w
    assert float(lambda_of_z(p, w)) == pytest.approx(float(p.dphi(z)), rel=1e-9)
