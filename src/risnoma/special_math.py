"""Special-function kernel used by every closed-form link distribution.

All functions take a scalar or an array (broadcasting like the scipy.special
ufuncs behind them) with explicit domain checks.  scipy.special provides the
accuracy the closed-form outage expressions need without a hand-rolled
Lanczos/continued-fraction stack, and its ufuncs give each element of an
array the bits a scalar call gives it.  A Python float or int argument
(np.float64 included) is domain-checked without building an array.
channels.link_cdfs calls scipy.special directly, once per link kind over a
whole batch of (link, gamma) pairs, after one gamma >= 0 check at its entry.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "gamma",
    "reg_lower_inc_gamma",
    "q_function",
]


def _checked(x, bad, message: str):
    """x, after raising ValueError(message) if bad(x) holds anywhere in it.

    A Python float or int (np.float64 is a float) is tested and returned as
    is; anything else becomes a float ndarray first and is tested with
    np.any, so NaN and empty arrays pass either way.
    """
    if isinstance(x, (float, int)):
        if bad(x):
            raise ValueError(message)
        return x
    x = np.asarray(x, dtype=float)
    if bad(x).any():
        raise ValueError(message)
    return x


def gamma(x):
    """Gamma function for x > 0."""
    x = _checked(x, lambda v: v <= 0.0, "gamma requires x > 0")
    out = _sp.gamma(x)
    return float(out) if np.ndim(out) == 0 else out


def _check_inc_domain(s, x):
    _checked(s, lambda v: v <= 0.0, "incomplete gamma requires s > 0")
    _checked(x, lambda v: v < 0.0, "incomplete gamma requires x >= 0")


def reg_lower_inc_gamma(s, x):
    """Regularized lower incomplete gamma P(s, x); stable for very large s."""
    _check_inc_domain(s, x)
    out = _sp.gammainc(s, x)
    return float(out) if np.ndim(out) == 0 else out


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x)."""
    if isinstance(x, float):
        return float(0.5 * _sp.erfc(x / math.sqrt(2.0)))
    out = 0.5 * _sp.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(out) if np.ndim(out) == 0 else out

