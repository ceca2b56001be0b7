"""Closed-form fading and SNR distributions for direct, RIS-only and composite links.

Link anatomy (amplitude domain):
  direct     |g^d| = ghat_d * w,           w  ~ Nakagami(m3, Omega3)
  RIS-only   |g^r| = ghat_r * S,           S  = sum of N double-Nakagami products
  composite  |g^c| = ghat_r * S + ghat_d * w
with SNRs gamma = gamma_bar_c * |g|^2 and gamma_bar_c = P_t / P_N.

S is approximated by a gamma distribution (first Laguerre-series term) with
shape a and scale b matched on the exact first two product moments.  The
composite closed form integrates the direct Nakagami amplitude density
against a zero-truncated normal model of S, with a Chernoff-type
half-Gaussian bound standing in for the normal tail; both approximations are
validated against the quadrature reference and Monte Carlo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate

from . import environment as env_mod
from .special_math import (
    binomial,
    gamma as gamma_fn,
    q_function,
    reg_lower_inc_gamma,
    upper_inc_gamma,
    bessel_k,
)

__all__ = [
    "NakagamiParams",
    "RisLinkParams",
    "LaguerreFit",
    "LinkBudget",
    "Link",
    "LinkChannel",
    "LINK_KINDS",
    "double_nakagami_pdf",
    "double_nakagami_moment",
    "fit_laguerre",
    "ris_snr_cdf",
    "ris_snr_cdf_q_approx",
    "direct_snr_cdf",
    "direct_snr_pdf",
    "composite_snr_cdf_quadrature",
    "composite_snr_cdf_closed",
    "resolve_links",
]


@dataclass(frozen=True)
class NakagamiParams:
    """Nakagami fading shape m (>= 0.5) and average power omega."""

    m: float
    omega: float = 1.0

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError("Nakagami shape must be >= 0.5")
        if self.omega <= 0:
            raise ValueError("average fading power must be positive")


@dataclass(frozen=True)
class RisLinkParams:
    """Two-hop cascaded link through one RIS partition of n_elements elements."""

    hop_g2r: NakagamiParams
    hop_r2a: NakagamiParams
    n_elements: int
    amp_g2r: float
    amp_r2a: float

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("RIS partition needs at least one element")
        if self.amp_g2r <= 0 or self.amp_r2a <= 0:
            raise ValueError("path-loss amplitudes must be positive")

    @property
    def amp_cascade(self) -> float:
        return self.amp_g2r * self.amp_r2a


@dataclass(frozen=True)
class LaguerreFit:
    """Gamma(shape=a, scale=b) fit to the N-element product-fading sum,
    matched on its exact mean and variance."""

    a: float
    b: float
    mean_sum: float
    var_sum: float

    def __post_init__(self):
        if min(self.a, self.b, self.mean_sum, self.var_sum) <= 0:
            raise ValueError("Laguerre fit parameters must be positive")
        if not math.isclose(self.a, self.mean_sum**2 / self.var_sum, rel_tol=1e-9):
            raise ValueError("inconsistent fit: a != mean^2/var")
        if not math.isclose(self.b, self.var_sum / self.mean_sum, rel_tol=1e-9):
            raise ValueError("inconsistent fit: b != var/mean")

    @property
    def sigma_sum(self) -> float:
        return math.sqrt(self.var_sum)


@dataclass(frozen=True)
class LinkBudget:
    """Average SNRs of one BS->UAV link.

    gamma_bar_r = P_t |ghat_r|^2 / P_N, gamma_bar_d = P_t |ghat_d|^2 / P_N,
    gamma_bar_c = P_t / P_N; amp_direct is ghat_d.
    """

    gamma_bar_r: float
    gamma_bar_d: float
    gamma_bar_c: float
    amp_direct: float

    def __post_init__(self):
        if min(self.gamma_bar_r, self.gamma_bar_d, self.gamma_bar_c, self.amp_direct) < 0:
            raise ValueError("link budget entries must be nonnegative")

    @property
    def amp_ris(self) -> float:
        """Cascaded path-loss amplitude ghat_r recovered from the SNR ratios."""
        return math.sqrt(self.gamma_bar_r / self.gamma_bar_c)


def double_nakagami_pdf(p1: NakagamiParams, p2: NakagamiParams, x):
    """PDF of the product of two independent Nakagami amplitudes."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("double_nakagami_pdf requires x > 0")
    ratio = p1.m * p2.m / (p1.omega * p2.omega)
    msum = p1.m + p2.m
    out = (
        4.0
        * x ** (msum - 1.0)
        * bessel_k(p1.m - p2.m, 2.0 * x * math.sqrt(ratio))
        / (gamma_fn(p1.m) * gamma_fn(p2.m) * (1.0 / ratio) ** (msum / 2.0))
    )
    return float(out) if np.ndim(out) == 0 else out


def double_nakagami_moment(p1: NakagamiParams, p2: NakagamiParams, n: int) -> float:
    """n-th moment of the two-hop product amplitude:
    prod_j Gamma(m_j + n/2)/Gamma(m_j) * (Omega_j/m_j)^(n/2)."""
    if n < 1:
        raise ValueError("moment order must be >= 1")
    out = 1.0
    for p in (p1, p2):
        out *= gamma_fn(p.m + n / 2.0) / gamma_fn(p.m) * (p.omega / p.m) ** (n / 2.0)
    return out


def fit_laguerre(ris: RisLinkParams) -> LaguerreFit:
    """Moment-matched gamma fit to the sum of n_elements i.i.d. products."""
    mean_i = double_nakagami_moment(ris.hop_g2r, ris.hop_r2a, 1)
    second_i = double_nakagami_moment(ris.hop_g2r, ris.hop_r2a, 2)
    var_i = second_i - mean_i**2
    n = ris.n_elements
    return LaguerreFit(
        a=n * mean_i**2 / var_i,
        b=var_i / mean_i,
        mean_sum=n * mean_i,
        var_sum=n * var_i,
    )


def ris_snr_cdf(fit: LaguerreFit, gamma_bar_r: float, gamma):
    """CDF of the RIS-only SNR: P(a, sqrt(gamma / (gamma_bar_r b^2)))."""
    if gamma_bar_r <= 0:
        raise ValueError("gamma_bar_r must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError("gamma must be nonnegative")
    return reg_lower_inc_gamma(fit.a, np.sqrt(gamma / gamma_bar_r) / fit.b)


def _truncnorm_cdf(fit: LaguerreFit, s):
    """Zero-truncated normal CDF of the element sum: 1 - Q((s-E)/sigma)/Q(-sqrt(a)).

    Exactly zero at s=0 because E/sigma = sqrt(a); the Q(-sqrt(a)) denominator
    is the mass of the fitted normal above zero.
    """
    z = q_function(-math.sqrt(fit.a))
    val = 1.0 - q_function((np.asarray(s, dtype=float) - fit.mean_sum) / fit.sigma_sum) / z
    return np.clip(val, 0.0, 1.0)


def ris_snr_cdf_q_approx(fit: LaguerreFit, gamma_bar_r: float, gamma):
    """Truncated-normal approximation of ris_snr_cdf, clamped to [0, 1].

    Used inside the composite closed form; its quality improves with the
    fitted shape a (i.e. with the element count).
    """
    if gamma_bar_r <= 0:
        raise ValueError("gamma_bar_r must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError("gamma must be nonnegative")
    out = _truncnorm_cdf(fit, np.sqrt(gamma / gamma_bar_r))
    return float(out) if np.ndim(out) == 0 else out


def direct_snr_cdf(p: NakagamiParams, gamma_bar_d: float, gamma):
    """CDF of the direct-link SNR: P(m3, m3 gamma / (Omega3 gamma_bar_d))."""
    if gamma_bar_d <= 0:
        raise ValueError("gamma_bar_d must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError("gamma must be nonnegative")
    return reg_lower_inc_gamma(p.m, p.m * gamma / (p.omega * gamma_bar_d))


def direct_snr_pdf(p: NakagamiParams, gamma_bar_d: float, gamma):
    """Density of the direct-link SNR (gamma distribution in the SNR domain)."""
    if gamma_bar_d <= 0:
        raise ValueError("gamma_bar_d must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0.0):
        raise ValueError("gamma must be positive")
    m, om = p.m, p.omega
    out = (
        m**m
        * (gamma / gamma_bar_d) ** (m - 1.0)
        * np.exp(-m * gamma / (om * gamma_bar_d))
        / (gamma_bar_d * om**m * gamma_fn(m))
    )
    return float(out) if np.ndim(out) == 0 else out


def _direct_amp_pdf(p: NakagamiParams, amp_direct: float, x):
    """Density of |g^d| = ghat_d * w with w ~ Nakagami(m3, Omega3)."""
    lam = p.m / (p.omega * amp_direct**2)
    return 2.0 * lam**p.m * x ** (2.0 * p.m - 1.0) * np.exp(-lam * x * x) / gamma_fn(p.m)


def composite_snr_cdf_quadrature(
    fit, direct: NakagamiParams, budget: LinkBudget, gamma
) -> float:
    """Amplitude-domain convolution reference for the composite CDF.

    F(gamma) = int_0^T F_S((T - x)/ghat_r) f_{|g^d|}(x) dx with T =
    sqrt(gamma/gamma_bar_c) and F_S the fitted gamma CDF of the element sum.
    With fit=None (no RIS term) this degenerates to the direct CDF.
    Scalar gamma only; raises if the quadrature error estimate is poor.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if fit is None:
        return float(direct_snr_cdf(direct, budget.gamma_bar_d, gamma))
    if gamma == 0.0:
        return 0.0
    big_t = math.sqrt(gamma / budget.gamma_bar_c)
    amp_r = budget.amp_ris

    def integrand(x):
        s = (big_t - x) / amp_r
        return reg_lower_inc_gamma(fit.a, s / fit.b) * _direct_amp_pdf(
            direct, budget.amp_direct, x
        )

    # The gamma CDF factor transitions over a width ~ amp_r*sigma around
    # x = T - amp_r*mean; hint the quadrature at that point.
    knee = big_t - amp_r * fit.mean_sum
    points = [knee] if 0.0 < knee < big_t else None
    val, err = _integrate.quad(integrand, 0.0, big_t, points=points, limit=200)
    if err > max(1e-8, 1e-6 * abs(val)):
        raise RuntimeError(f"composite quadrature did not converge (err={err:.3e})")
    return min(max(val, 0.0), 1.0)


def _psi(p1: float, p2: float, c1: float, c2: float, c3: float, n: int) -> float:
    """Closed form of int_{p1}^{p2} x^n exp(-c1 x^2 + 2 c2 x - c3) dx.

    Binomial-expands x^n about the Gaussian center mu = c2/c1 and reduces each
    term to incomplete gamma functions of c1 (p - mu)^2; the three sign cases
    depend on where [p1, p2] sits relative to mu.
    """
    if p2 <= p1:
        return 0.0
    mu = c2 / c1
    log_pref = c2 * c2 / c1 - c3
    pref = math.exp(log_pref)
    u1 = c1 * (p1 - mu) ** 2
    u2 = c1 * (p2 - mu) ** 2
    total = 0.0
    for i in range(n + 1):
        k = (i + 1) / 2.0
        rho = binomial(n, i) * pref * mu ** (n - i)
        if p1 >= mu or i % 2 == 1:
            bracket = upper_inc_gamma(k, u1) - upper_inc_gamma(k, u2)
        elif p2 <= mu:
            bracket = upper_inc_gamma(k, u2) - upper_inc_gamma(k, u1)
        else:
            low = gamma_fn(k) - upper_inc_gamma(k, u1)
            high = gamma_fn(k) - upper_inc_gamma(k, u2)
            bracket = low + high
        total += rho / (2.0 * c1**k) * bracket
    return total


def composite_snr_cdf_closed(
    fit,
    direct: NakagamiParams,
    budget: LinkBudget,
    gamma,
    clamp: bool = True,
) -> float:
    """Closed-form composite CDF (truncated-normal sum model + Chernoff tail).

    Two branches split on the sum mean versus sqrt(gamma/gamma_bar_r); inside
    each branch the remaining integral is a psi-type Gaussian moment integral
    solved with incomplete gamma functions.  Requires 2*m3 within 1e-6 of an
    integer (the psi expansion is finite only then); Link.cdf snaps the
    fitted direct shape to the nearest half-integer before invoking it.
    With clamp=False the raw value is returned for diagnostics.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if fit is None:
        return float(direct_snr_cdf(direct, budget.gamma_bar_d, gamma))
    two_m3 = 2.0 * direct.m
    if abs(two_m3 - round(two_m3)) > 1e-6:
        raise ValueError(
            f"closed-form composite CDF needs half-integer m3, got m3={direct.m}"
        )
    n_pow = int(round(two_m3)) - 1
    if gamma == 0.0:
        return 0.0

    big_t = math.sqrt(gamma / budget.gamma_bar_c)
    amp_r = budget.amp_ris
    amp_d = budget.amp_direct
    m3, om3 = direct.m, direct.omega

    z_norm = q_function(-math.sqrt(fit.a))  # truncated-normal mass above zero
    s_amp = amp_r * fit.sigma_sum  # std of the RIS term in the amplitude domain
    mean_amp = amp_r * fit.mean_sum
    m_split = big_t - mean_amp  # direct amplitude at the branch point

    lam = m3 / (om3 * amp_d**2)
    c1 = lam + 1.0 / (2.0 * s_amp**2)
    c2 = m_split / (2.0 * s_amp**2)
    c3 = m_split**2 / (2.0 * s_amp**2)

    f_d = float(direct_snr_cdf(direct, budget.gamma_bar_d, gamma))
    # (1 - 1/Z) F_d computed as -(Q(sqrt a)/Z) F_d to dodge cancellation.
    val = -(q_function(math.sqrt(fit.a)) / z_norm) * f_d
    scale = lam**m3 / (z_norm * gamma_fn(m3))
    if m_split < 0.0:
        val += scale * _psi(0.0, big_t, c1, c2, c3, n_pow)
    else:
        val += reg_lower_inc_gamma(m3, lam * m_split**2) / z_norm
        val += scale * (
            _psi(m_split, big_t, c1, c2, c3, n_pow) - _psi(0.0, m_split, c1, c2, c3, n_pow)
        )
    if clamp:
        val = min(max(val, 0.0), 1.0)
    return val


def _half_integer_m(p: NakagamiParams) -> NakagamiParams:
    """p with m snapped to the nearest half-integer (at least 0.5)."""
    return NakagamiParams(m=max(0.5, round(2.0 * p.m) / 2.0), omega=p.omega)


@dataclass(frozen=True)
class Link:
    """One BS->UAV link: direct-only, RIS-only or composite, by which of
    `direct` and `ris` are present.  The fading parameters are exact; only
    the composite closed form in cdf() snaps m3 to a half-integer."""

    direct: NakagamiParams | None
    ris: RisLinkParams | None
    budget: LinkBudget

    def __post_init__(self):
        if self.direct is None and self.ris is None:
            raise ValueError("a link needs a direct path, a RIS path or both")

    @functools.cached_property
    def fit(self) -> LaguerreFit | None:
        return None if self.ris is None else fit_laguerre(self.ris)

    def cdf(self, gamma):
        """SNR CDF: exact for the direct link, Laguerre fit for the RIS-only
        link, closed form (scalar gamma) for the composite link."""
        if self.ris is None:
            return direct_snr_cdf(self.direct, self.budget.gamma_bar_d, gamma)
        if self.direct is None:
            return ris_snr_cdf(self.fit, self.budget.gamma_bar_r, gamma)
        return composite_snr_cdf_closed(self.fit, _half_integer_m(self.direct), self.budget, gamma)


LINK_KINDS = ("direct", "ris", "composite")


@dataclass(frozen=True)
class LinkChannel:
    """All per-UAV channel constants resolved from one scenario drop."""

    uav: int
    ris: int
    direct_fading: NakagamiParams
    hop_g2r: NakagamiParams
    hop_r2a: NakagamiParams
    amp_direct: float
    amp_g2r: float
    amp_r2a: float
    gamma_bar_c: float
    max_ris_elements: int

    @property
    def amp_ris(self) -> float:
        return self.amp_g2r * self.amp_r2a

    @property
    def gamma_bar_d(self) -> float:
        return self.gamma_bar_c * self.amp_direct**2

    @property
    def gamma_bar_r(self) -> float:
        return self.gamma_bar_c * self.amp_ris**2

    def budget(self) -> LinkBudget:
        return LinkBudget(
            gamma_bar_r=self.gamma_bar_r,
            gamma_bar_d=self.gamma_bar_d,
            gamma_bar_c=self.gamma_bar_c,
            amp_direct=self.amp_direct,
        )

    def ris_params(self, n_elements: int) -> RisLinkParams:
        return RisLinkParams(
            hop_g2r=self.hop_g2r,
            hop_r2a=self.hop_r2a,
            n_elements=n_elements,
            amp_g2r=self.amp_g2r,
            amp_r2a=self.amp_r2a,
        )

    def laguerre(self, n_elements: int):
        if n_elements == 0:
            return None
        return fit_laguerre(self.ris_params(n_elements))

    def rounded_direct(self) -> NakagamiParams:
        """Direct fading with m3 snapped to the nearest half-integer, as the
        closed-form composite path requires."""
        return _half_integer_m(self.direct_fading)

    def link(self, kind: str, n_elements: int) -> Link:
        """The link of one of LINK_KINDS through n_elements RIS elements.

        A composite link with zero elements is exactly the direct link; a
        RIS-only link with zero elements does not exist.
        """
        if kind not in LINK_KINDS:
            raise ValueError(f"unknown link type {kind!r}")
        if kind == "ris" and n_elements < 1:
            raise ValueError("RIS-only link needs at least one element")
        if kind == "direct" or n_elements == 0:
            return Link(self.direct_fading, None, self.budget())
        direct = None if kind == "ris" else self.direct_fading
        return Link(direct, self.ris_params(n_elements), self.budget())


def resolve_links(
    env: env_mod.EnvironmentParams,
    scenario: env_mod.Scenario,
    omega: float = 1.0,
    m_direct=None,
    m_hops=None,
) -> list:
    """Derive every UAV's LinkChannel from scenario geometry.

    Fading shapes default to the LoS-probability fit per endpoint pair;
    omega/m overrides let experiments pin them instead.  Each UAV is served
    through its best RIS.
    """
    p_n = env_mod.noise_power_w(scenario.bandwidth_hz, scenario.noise_temp_k)
    gamma_bar_c = env_mod.dbm_to_watt(scenario.tx_power_dbm) / p_n
    links = []
    for i, uav in enumerate(scenario.uavs):
        k = env_mod.select_best_ris(env, scenario, i)
        ris_pos = scenario.riss[k].position

        def shape(a, b, override):
            if override is not None:
                return float(override)
            return env_mod.nakagami_shape(env_mod.los_probability(env, a, b))

        links.append(
            LinkChannel(
                uav=i,
                ris=k,
                direct_fading=NakagamiParams(m=shape(scenario.bs, uav, m_direct), omega=omega),
                hop_g2r=NakagamiParams(m=shape(scenario.bs, ris_pos, m_hops), omega=omega),
                hop_r2a=NakagamiParams(m=shape(ris_pos, uav, m_hops), omega=omega),
                amp_direct=env_mod.path_loss_amplitude(env, scenario.bs, uav),
                amp_g2r=env_mod.path_loss_amplitude(env, scenario.bs, ris_pos),
                amp_r2a=env_mod.path_loss_amplitude(env, ris_pos, uav),
                gamma_bar_c=gamma_bar_c,
                max_ris_elements=scenario.riss[k].max_elements,
            )
        )
    return links
