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
    make_builtin,
    make_custom,
)
from phimin.profiles import _tail, expression_callable


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
    with pytest.raises(ProfileError, match="vanishes or changes sign"):
        WeightProfile(
            phi=lambda z: np.asarray(z) ** 3,
            dphi=lambda z: 3 * np.asarray(z) ** 2,  # vanishes at 0
            ddphi=lambda z: 6 * np.asarray(z),
            domain=(-1.0, 1.0),
        )
    # a dphi that is NaN everywhere has no sign to check
    with pytest.raises(ProfileError):
        make_custom(lambda z: np.full_like(np.asarray(z, dtype=float),
                                           np.nan), domain=(0.0, 1.0))


def test_sup_phi_is_finite_only_where_phi_converges():
    # log z grows without bound, however slowly; 1/2 - 1/z converges
    slow = make_custom(lambda z: 1.0 / np.asarray(z, dtype=float),
                       domain=(0.0, math.inf))
    assert slow.reach[1] < math.inf and slow.sup_phi == math.inf
    bounded = make_custom(lambda z: np.asarray(z, dtype=float) ** -2.0,
                          domain=(1.0, math.inf))
    assert bounded.reach[1] == math.inf
    assert bounded.sup_phi == pytest.approx(0.5, abs=1e-11)
    # slow tails: 1e12 from the anchor (2) phi is still 2e-6 short of
    # sqrt(2) and 2e-2 short of 2^-0.2/0.2; past its run phi takes the
    # tail rule's limit, geometric remainder included
    slow_bounded = make_custom(lambda z: np.asarray(z, dtype=float) ** -1.5,
                               domain=(1.0, math.inf))
    assert slow_bounded.reach[1] == math.inf
    assert slow_bounded.sup_phi == pytest.approx(math.sqrt(2.0), abs=1e-5)
    slower = make_custom(lambda z: np.asarray(z, dtype=float) ** -1.2,
                         domain=(1.0, math.inf))
    assert slower.reach[1] == math.inf
    assert slower.sup_phi == pytest.approx(2.0 ** -0.2 / 0.2, abs=1e-10)
    assert slower.phi(1e15) == slower.sup_phi


def test_tail_rule_on_dyadic_blocks():
    # blocks of 1 - 1/(1+z) fall by half: the limit is 1, to 1e-9 with the
    # geometric remainder (2e-6 without); blocks of log(1+z) settle at
    # log 2: no limit
    limit = _tail(lambda z: 1.0 - 1.0 / (1.0 + z), 0.0, 1e6)
    assert limit == pytest.approx(1.0, abs=1e-9)
    assert _tail(np.log1p, 0.0, 1e6) == math.inf
    assert _tail(np.log1p, 0.0, 0.5) == math.inf  # not one whole block


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
        anchor=0.0,
    )
    z = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(p.phi(z), np.sin(z), rtol=0.0, atol=1e-13)


def test_custom_profile_fd_second_derivative():
    p = make_custom(
        dphi=lambda z: np.exp(np.asarray(z, dtype=float)),
        domain=(-2.0, 2.0),
        anchor=0.0,
    )
    assert float(p.ddphi(0.5)) == pytest.approx(math.exp(0.5), rel=1e-5)


def test_constant_expression_weight_is_accepted():
    # "2" evaluates to one number for the whole sample, which the
    # monotonicity check used to count as a single sample
    p = make_custom(expression_callable("2"), anchor=0.0)
    assert p.phi(1.5) == pytest.approx(3.0, rel=1e-15)


def test_expression_callable_rejects_unknown_names():
    with pytest.raises(ProfileError):
        expression_callable("__import__('os').system('true')")
    f = expression_callable("exp(z) + 1")
    assert float(f(0.0)) == pytest.approx(2.0)


@pytest.mark.parametrize("expr", ["1+", "(z", "z\x00"])
def test_expression_callable_rejects_malformed_text(expr):
    # what compile refuses (a syntax error, a null byte) is a profile error
    with pytest.raises(ProfileError, match="malformed profile expression"):
        expression_callable(expr)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    slope=st.floats(min_value=-5.0, max_value=5.0).filter(
        lambda x: abs(x) > 1e-3),
    L=st.floats(min_value=0.0, max_value=3.0),
    b=st.floats(min_value=0.1, max_value=3.0),
    c=st.floats(min_value=0.1, max_value=3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    root=st.floats(min_value=-2.0, max_value=2.0),
)
def test_increasing_is_the_sign_of_dphi(slope, L, b, c, sign, root):
    # builtins over their parameters: the sign of slope, of alpha, and the
    # positive dphi = L u + b + c/u of a series
    assert make_builtin("linear", slope).increasing == (slope > 0)
    assert make_builtin("log", slope).increasing == (slope > 0)
    assert make_builtin("series", L, b, [c]).increasing
    # a custom dphi = sign (c + z^2) keeps its sign on the whole line
    custom = make_custom(
        lambda z: sign * (c + np.asarray(z, dtype=float) ** 2),
        phi=lambda z: sign * (c * np.asarray(z, dtype=float)
                              + np.asarray(z, dtype=float) ** 3 / 3.0))
    assert custom.increasing == (sign > 0)
    # dphi = z - root changes sign inside the sampled heights
    with pytest.raises(ProfileError, match="vanishes or changes sign"):
        make_custom(lambda z: np.asarray(z, dtype=float) - root,
                    phi=lambda z: 0.5 * (np.asarray(z, dtype=float)
                                         - root) ** 2)


@settings(max_examples=25, deadline=None, derandomize=True)
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
