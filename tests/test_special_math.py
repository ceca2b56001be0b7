"""Special-function kernel tests against integral-definition oracles.

Frozen high-precision reference values were produced with an independent
arbitrary-precision evaluation (mpmath, 25+ digits) of each function's
integral definition; live quadrature oracles re-derive a subset at runtime.
"""

import functools
import math

import numpy as np
import pytest
from scipy import integrate, special

from risnoma.special_math import (
    gamma,
    q_function,
    reg_lower_inc_gamma,
)

# frozen arbitrary-precision oracle values
GAMMA_1_5 = 0.8862269254527580  # sqrt(pi)/2
GAMMA_2_5 = 1.5 * GAMMA_1_5
GAMMA_3_5 = 2.5 * GAMMA_2_5
LOWER_2_5_3_0 = 0.9222712123078340  # int_0^3 t^1.5 e^-t dt
UPPER_3_5_2_0 = 2.5914740071910742  # int_2^inf t^2.5 e^-t dt
K_HALF_1 = 0.4610685044478946  # sqrt(pi/2) e^-1
K_0_2 = 0.1138938727495334  # int_0^inf e^(-2 cosh t) dt
Q_1 = 0.1586552539314571


class TestGamma:
    def test_factorial(self):
        assert gamma(5) == pytest.approx(24.0, rel=1e-12)
        assert gamma(1) == pytest.approx(1.0, rel=1e-12)

    def test_half_integer_oracle(self):
        assert gamma(1.5) == pytest.approx(GAMMA_1_5, rel=1e-12)

    def test_quadrature_oracle_grid(self):
        for x in (0.7, 1.3, 2.5, 6.0):
            ref, _ = integrate.quad(lambda t: t ** (x - 1) * math.exp(-t), 0, np.inf)
            assert gamma(x) == pytest.approx(ref, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.5)


class TestIncompleteGamma:
    def test_exponential_special_case(self):
        assert reg_lower_inc_gamma(1, 1) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_zero_lower_limit(self):
        assert reg_lower_inc_gamma(2.5, 0.0) == 0.0

    def test_frozen_oracles(self):
        assert reg_lower_inc_gamma(2.5, 3.0) == pytest.approx(LOWER_2_5_3_0 / GAMMA_2_5, rel=1e-10)
        assert reg_lower_inc_gamma(3.5, 2.0) == pytest.approx(1 - UPPER_3_5_2_0 / GAMMA_3_5,
                                                              rel=1e-10)

    def test_quadrature_oracle(self):
        # ref is the lower incomplete gamma, integral of t^(s-1) e^-t over [0, x]
        for s, x in ((2.5, 3.0), (1.2, 0.4), (4.0, 7.5)):
            ref, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), 0, x)
            assert reg_lower_inc_gamma(s, x) == pytest.approx(ref / math.gamma(s), rel=1e-10)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = float(rng.uniform(0.5, 20.0))
            x = float(rng.uniform(0.0, 30.0))
            upper = special.gammaincc(s, x) * special.gamma(s)
            total = reg_lower_inc_gamma(s, x) * gamma(s) + upper
            assert total == pytest.approx(gamma(s), rel=1e-12)

    def test_regularized_pair(self):
        upper = special.gammaincc(3.0, 2.0) * special.gamma(3.0)
        assert reg_lower_inc_gamma(3.0, 2.0) + upper / gamma(3.0) == (
            pytest.approx(1.0, rel=1e-12)
        )
        # huge shape values must not overflow (unregularized Gamma would)
        assert 0.0 < reg_lower_inc_gamma(3600.0, 3600.0) < 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 10.0, 40)
        assert np.all(np.diff(reg_lower_inc_gamma(2.2, xs)) >= 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, -0.1)


INC_GAMMA = (reg_lower_inc_gamma,)
FORM_IDS = ("float", "int", "float64", "0d", "1d")


def _forms(v):
    """The integral value v as a Python float, a Python int, np.float64, a
    0-d array and (beside a valid 2.0) a 1-d array."""
    return (float(v), int(v), np.float64(v), np.array(float(v)), np.array([2.0, float(v)]))


class TestDomainCheckForms:
    """Every argument form meets the same domain check and keeps its return type."""

    @pytest.mark.parametrize("x", _forms(0), ids=FORM_IDS)
    def test_gamma_boundary(self, x):
        with pytest.raises(ValueError, match="gamma requires x > 0"):
            gamma(x)

    @pytest.mark.parametrize("fn", INC_GAMMA)
    @pytest.mark.parametrize("form", range(5), ids=FORM_IDS)
    def test_inc_gamma_boundary(self, fn, form):
        with pytest.raises(ValueError, match="requires s > 0"):
            fn(_forms(0)[form], 1.0)
        with pytest.raises(ValueError, match="requires x >= 0"):
            fn(1.0, _forms(-1)[form])
        fn(1.0, _forms(0)[form])

    @pytest.mark.parametrize(
        "fn", (gamma,) + tuple(functools.partial(f, 1.5) for f in INC_GAMMA),
        ids=("gamma",) + tuple(f.__name__ for f in INC_GAMMA),
    )
    def test_return_types(self, fn):
        *scalars, array = _forms(2)
        values = [fn(x) for x in scalars]
        assert all(type(v) is float for v in values)
        assert len(set(values)) == 1
        out = fn(array)
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[1] == values[0]

    def test_nan_and_empty_pass(self):
        assert math.isnan(gamma(math.nan))
        assert np.isnan(gamma(np.array([math.nan]))).all()
        assert gamma(np.array([])).shape == (0,)
        for fn in INC_GAMMA:
            assert math.isnan(fn(math.nan, 1.0)) and math.isnan(fn(1.0, math.nan))
            assert np.isnan(fn(np.array([math.nan]), 1.0)).all()
            assert fn(1.0, np.array([])).shape == (0,)
            assert fn(np.array([]), 1.0).shape == (0,)


def bessel_k(v, x):
    """K_v(x), x > 0, as scipy.special.kv gives it: the Bessel function of the
    double-Nakagami pdf oracle in test_channels.py (the library needs none)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    out = special.kv(v, x)
    return float(out) if np.ndim(out) == 0 else out


class TestBesselK:
    def test_half_order_closed_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(K_HALF_1, rel=1e-9)
        for x in (0.3, 2.0, 9.0):
            assert bessel_k(0.5, x) == pytest.approx(
                math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-9
            )

    def test_integral_representation_oracle(self):
        assert bessel_k(0, 2.0) == pytest.approx(K_0_2, rel=1e-9)
        for v, x in ((1.0, 1.5), (2.7, 3.0)):
            ref, _ = integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(v * t), 0, 30
            )
            assert bessel_k(v, x) == pytest.approx(ref, rel=1e-9)

    def test_order_symmetry(self):
        for v in (2.0, 0.75, 5.5):
            for x in (0.5, 3.0, 40.0):
                assert bessel_k(v, x) == pytest.approx(bessel_k(-v, x), rel=1e-12)

    def test_decreasing_in_x(self):
        xs = np.linspace(0.1, 20.0, 50)
        vals = bessel_k(1.5, xs)
        assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -2.0)


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == pytest.approx(0.5, rel=1e-12)

    def test_tail(self):
        assert q_function(10.0) < 1e-20

    def test_frozen_oracle(self):
        assert q_function(1.0) == pytest.approx(Q_1, rel=1e-12)

    def test_complement(self):
        for x in (-3.0, -0.2, 0.7, 4.0):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-6.0, 6.0, 100)
        vals = q_function(xs)
        assert np.all(np.diff(vals) < 0)

    def test_float_path_keeps_the_array_bits(self):
        xs = np.concatenate([np.linspace(-40.0, 40.0, 401), [0.0, -0.0, 1e-300]])
        floats = [q_function(x) for x in xs.tolist()]
        assert all(type(v) is float for v in floats)
        assert [v.hex() for v in floats] == [v.hex() for v in q_function(xs).tolist()]
        assert [q_function(np.float64(x)).hex() for x in xs] == [v.hex() for v in floats]
        assert q_function(np.array(1.5)) == q_function(1.5)

