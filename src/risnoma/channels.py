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
validated against Monte Carlo and against composite_snr_cdf_quadrature, a
fixed-node Gauss-Legendre reference that takes scalar or array gamma and
raises nothing beyond its domain check.

Every link CDF value comes from link_cdfs, which takes a batch of (link,
gamma) pairs of any kinds and runs one special-function pass per link kind:
one gammainc call for the direct pairs, one for the RIS-only pairs, and for
the composite pairs one gammainc call (every F_d and branch term) and one
gammaincc call (every psi term at every interval end).  The scipy.special
ufuncs give each element the bits of a scalar call, and IEEE +, -, *, / and
sqrt round the same in numpy and in Python, so those may run in either.
The composite closed form's other arithmetic stays per pair in Python
floats, in its original order: its ** and math.exp calls, because numpy's
SIMD power and exp can differ from them in the last bit, and its sums,
because numpy would add them in another order.  So a value has the same
bits whichever batch it is evaluated in.

A LinkChannel owns what its links derive per element count N: it computes
the element moments of its two hops once, and memoizes per N the partition,
the Laguerre fit and the closed-form constants, which its LinkChannel.at_snr
copies share, so a sweep's power points compute each N's once.  The fit
comes from _sum_fit, as in fit_laguerre, and the channel hands both to
Link, which builds the constants with _ClosedForm at a channel's first
composite link of an N.  What depends on the direct shape m3 alone comes
from one bounded cache keyed by m3; nothing else is cached across
channels."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from . import environment as env_mod
from .special_math import (
    _checked,
    gamma as gamma_fn,
    q_function,
    reg_lower_inc_gamma,
)

__all__ = [
    "NakagamiParams",
    "RisLinkParams",
    "LaguerreFit",
    "LinkBudget",
    "Link",
    "LinkChannel",
    "LINK_KINDS",
    "link_cdfs",
    "double_nakagami_moment",
    "fit_laguerre",
    "ris_snr_cdf",
    "direct_snr_cdf",
    "composite_snr_cdf_quadrature",
    "composite_snr_cdf_closed",
    "resolve_links",
]


@dataclass(frozen=True)
class NakagamiParams:
    """Nakagami fading shape m (a finite number >= 0.5) and average power
    omega (a finite number > 0)."""

    m: float
    omega: float = 1.0

    def __post_init__(self):
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError(f"Nakagami shape must be a finite number >= 0.5, got {self.m!r}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError(
                f"average fading power must be a finite number > 0, got {self.omega!r}")


@dataclass(frozen=True)
class RisLinkParams:
    """Fading of the two-hop cascaded link through one RIS partition of
    n_elements elements; its path loss lives in LinkBudget."""

    hop_g2r: NakagamiParams
    hop_r2a: NakagamiParams
    n_elements: int

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("RIS partition needs at least one element")


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
    """Link budget of one BS->UAV link: the transmit SNR gamma_bar_c = P_t / P_N
    and the path-loss amplitudes ghat_d (direct) and ghat_r (cascaded through
    the RIS).  Each average SNR is gamma_bar_c times a squared amplitude."""

    gamma_bar_c: float
    amp_direct: float
    amp_ris: float

    def __post_init__(self):
        if not (self.gamma_bar_c > 0 and math.isfinite(self.gamma_bar_c)):
            raise ValueError(f"gamma_bar_c must be a finite number > 0, got {self.gamma_bar_c!r}")
        if not (self.amp_direct >= 0 and self.amp_ris >= 0):
            raise ValueError("path-loss amplitudes must be nonnegative numbers")

    @property
    def gamma_bar_d(self) -> float:
        return self.gamma_bar_c * self.amp_direct**2

    @property
    def gamma_bar_r(self) -> float:
        return self.gamma_bar_c * self.amp_ris**2


def double_nakagami_moment(p1: NakagamiParams, p2: NakagamiParams, n: int) -> float:
    """n-th moment of the two-hop product amplitude:
    prod_j Gamma(m_j + n/2)/Gamma(m_j) * (Omega_j/m_j)^(n/2)."""
    if n < 1:
        raise ValueError("moment order must be >= 1")
    return _product_moments(p1, p2, (n,))[0]


def _product_moments(p1: NakagamiParams, p2: NakagamiParams, orders) -> list:
    """double_nakagami_moment of each order, with every Gamma value from one
    scipy.special.gamma call, which gives each element a scalar call's bits."""
    hops = (p1, p2)
    args = [p.m for p in hops] + [p.m + n / 2.0 for n in orders for p in hops]
    gammas = _sp.gamma(args).tolist()
    out = []
    for j, n in enumerate(orders, start=1):
        moment = 1.0
        for i, p in enumerate(hops):
            moment *= gammas[2 * j + i] / gammas[i] * (p.omega / p.m) ** (n / 2.0)
        out.append(moment)
    return out


def _element_moments(hop_g2r: NakagamiParams, hop_r2a: NakagamiParams):
    """Mean and variance of one element's product amplitude; every N of a
    pair of hops shares them."""
    mean_i, second_i = _product_moments(hop_g2r, hop_r2a, (1, 2))
    return mean_i, second_i - mean_i**2


def _sum_fit(n: int, mean_i: float, var_i: float) -> LaguerreFit:
    """Laguerre fit to the sum of n elements of mean mean_i and variance var_i."""
    return LaguerreFit(a=n * mean_i**2 / var_i, b=var_i / mean_i, mean_sum=n * mean_i,
                       var_sum=n * var_i)


def fit_laguerre(ris: RisLinkParams) -> LaguerreFit:
    """Moment-matched gamma fit to the sum of n_elements i.i.d. products."""
    return _sum_fit(ris.n_elements, *_element_moments(ris.hop_g2r, ris.hop_r2a))


def ris_snr_cdf(fit: LaguerreFit, gamma_bar_r: float, gamma):
    """CDF of the RIS-only SNR: P(a, sqrt(gamma / (gamma_bar_r b^2)))."""
    if gamma_bar_r <= 0:
        raise ValueError("gamma_bar_r must be positive")
    gamma = _checked(gamma, lambda g: g < 0.0, "gamma must be nonnegative")
    return reg_lower_inc_gamma(fit.a, np.sqrt(gamma / gamma_bar_r) / fit.b)


def direct_snr_cdf(p: NakagamiParams, gamma_bar_d: float, gamma):
    """CDF of the direct-link SNR: P(m3, m3 gamma / (Omega3 gamma_bar_d))."""
    if gamma_bar_d <= 0:
        raise ValueError("gamma_bar_d must be positive")
    gamma = _checked(gamma, lambda g: g < 0.0, "gamma must be nonnegative")
    return reg_lower_inc_gamma(p.m, p.m * gamma / (p.omega * gamma_bar_d))


def _direct_amp_pdf(p: NakagamiParams, amp_direct: float, x):
    """Density of |g^d| = ghat_d * w with w ~ Nakagami(m3, Omega3)."""
    lam = p.m / (p.omega * amp_direct**2)
    return 2.0 * lam**p.m * x ** (2.0 * p.m - 1.0) * np.exp(-lam * x * x) / gamma_fn(p.m)


# Fixed-node rule of composite_snr_cdf_quadrature, sized by the 1e-9 mpmath
# test in tests/test_channels.py.  Panel edges sit at 16 uniform steps of
# [0, T] and at distances ghat_r * s below T, for s (the element sum) on three
# grids that follow the gamma-CDF factor F_S(s): steps of 2 sigma_S over
# E[S] +- 8 sigma_S, where it rises from 0 to 1; steps of 8 b past that, over
# its exponential tail, which outlasts 8 sigma_S when the fitted shape a is
# small; and halvings of sigma_S towards s = 0, where it grows like s^a.
# Edges are clipped to [0, T], so panels that fall outside have zero width.
_UNIFORM_EDGES = np.linspace(0.0, 1.0, 17)
_KNEE_STEPS = np.linspace(-8.0, 8.0, 9)
_TAIL_STEPS = 8.0 * np.arange(1, 7)
_ORIGIN_STEPS = 0.5 ** np.arange(1, 9)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def composite_snr_cdf_quadrature(fit, direct: NakagamiParams, budget: LinkBudget, gamma):
    """Amplitude-domain convolution reference for the composite CDF.

    F(gamma) = int_0^T F_S((T - x)/ghat_r) f_{|g^d|}(x) dx with T =
    sqrt(gamma/gamma_bar_c) and F_S the fitted gamma CDF of the element sum,
    by a fixed-node Gauss-Legendre rule: every gamma gets the same number of
    panels, laid out around the step of F_S, so an array of gamma is
    evaluated in one pass.  A scalar gamma gives a float, an array an
    ndarray; nothing is raised beyond the gamma >= 0 domain check.
    """
    gamma = _checked(gamma, lambda g: g < 0.0, "gamma must be nonnegative")
    amp_r = budget.amp_ris
    big_t = np.sqrt(np.asarray(gamma, dtype=float) / budget.gamma_bar_c)[..., None]
    s_edges = np.concatenate([
        fit.mean_sum + fit.sigma_sum * _KNEE_STEPS,
        fit.mean_sum + fit.sigma_sum * _KNEE_STEPS[-1] + fit.b * _TAIL_STEPS,
        fit.sigma_sum * _ORIGIN_STEPS,
    ])
    edges = np.concatenate([big_t * _UNIFORM_EDGES, big_t - amp_r * s_edges], axis=-1)
    edges = np.sort(np.clip(edges, 0.0, big_t), axis=-1)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    x = edges[..., :-1, None] + half * (_GL_NODES + 1.0)
    # rounding can put a node of the last panel a hair above T
    s = np.maximum(big_t[..., None] - x, 0.0) / amp_r
    vals = reg_lower_inc_gamma(fit.a, s / fit.b) * _direct_amp_pdf(direct, budget.amp_direct, x)
    out = np.clip((half[..., 0] * (vals * _GL_WEIGHTS).sum(axis=-1)).sum(axis=-1), 0.0, 1.0)
    return float(out) if np.ndim(out) == 0 else out


@functools.lru_cache(maxsize=32)
def _m3_terms(m3: float):
    """What the composite closed form needs of the direct shape m3 alone,
    which must be within 1e-6 of a half-integer (the psi expansion is finite
    only then): n = 2 m3 - 1; the binomials, k = (i+1)/2 and Gamma(k) of each
    psi term i of x^n, each a tuple; and Gamma(m3)."""
    two_m3 = 2.0 * m3
    if abs(two_m3 - round(two_m3)) > 1e-6:
        raise ValueError(f"closed-form composite CDF needs half-integer m3, got m3={m3}")
    n = int(round(two_m3)) - 1
    ks = tuple((i + 1) / 2.0 for i in range(n + 1))
    binom = tuple(math.comb(n, i) for i in range(n + 1))
    return n, binom, ks, tuple(_sp.gamma(np.array(ks)).tolist()), gamma_fn(m3)


class _ClosedForm:
    """The constants of composite_snr_cdf_closed for one (fit, direct fading,
    ghat_d, ghat_r), which depend on neither gamma nor gamma_bar_c, and the
    psi sum that _composite_cdfs evaluates with them.

    Each expression runs in a fixed order with a fixed Python operation or
    scipy.special function, so a value has the same bits whichever pairs it
    is evaluated with.
    """

    def __init__(self, fit: LaguerreFit, direct: NakagamiParams, amp_direct: float,
                 amp_ris: float):
        self.n_pow, self.binom, self.ks, self.gk, gamma_m3 = _m3_terms(direct.m)
        m3 = self.m3 = direct.m
        om3 = self.om3 = direct.omega
        self.amp_direct = amp_direct
        self.lam = m3 / (om3 * amp_direct**2)
        sqrt_a = math.sqrt(fit.a)
        self.z_norm = q_function(-sqrt_a)  # truncated-normal mass above zero
        s_amp = amp_ris * fit.sigma_sum  # std of the RIS term in the amplitude domain
        self.mean_amp = amp_ris * fit.mean_sum
        self.two_var = 2.0 * s_amp**2
        self.c1 = self.lam + 1.0 / self.two_var
        # (1 - 1/Z) F_d computed as -(Q(sqrt a)/Z) F_d to dodge cancellation.
        self.fd_coef = -(q_function(sqrt_a) / self.z_norm)
        self.scale = self.lam**m3 / (self.z_norm * gamma_m3)
        # 2 c1^k of psi term i
        self.two_c1k = [2.0 * self.c1**k for k in self.ks]

    def _coefs(self, mu, pref) -> list:
        """rho_i / (2 c1^k_i) = C(n, i) pref mu^(n-i) / (2 c1^k_i) of each psi
        term; both psi integrals of one gamma share them."""
        n = self.n_pow
        return [self.binom[i] * pref * mu ** (n - i) / self.two_c1k[i] for i in range(n + 1)]

    def _psi(self, p1, p2, mu, coefs, upper1, upper2) -> float:
        """Closed form of int_{p1}^{p2} x^n exp(-c1 x^2 + 2 c2 x - c3) dx, given
        the _coefs and upper1[i] = Gamma(k_i, c1 (p1 - mu)^2), upper2 likewise
        at p2.

        Binomial-expands x^n about the Gaussian center mu = c2/c1 and reduces
        each term to incomplete gamma functions of c1 (p - mu)^2; the three
        sign cases depend on where [p1, p2] sits relative to mu.
        """
        if p2 <= p1:
            return 0.0
        total = 0.0
        for i, coef in enumerate(coefs):
            if p1 >= mu or i % 2 == 1:
                bracket = upper1[i] - upper2[i]
            elif p2 <= mu:
                bracket = upper2[i] - upper1[i]
            else:
                low = self.gk[i] - upper1[i]
                high = self.gk[i] - upper2[i]
                bracket = low + high
            total += coef * bracket
        return total


def _composite_cdfs(items) -> list:
    """composite_snr_cdf_closed of each (form, gamma_bar_c, gamma) in items,
    form a _ClosedForm and gamma >= 0 a float.

    A first pass computes each pair's scalars in Python and queues its
    special-function arguments; one gammainc call then gives every F_d and
    branch term and one gammaincc call every psi term at every interval end;
    a second pass sums each pair's terms in Python.  The ** and math.exp
    calls act on Python floats: numpy's SIMD power and exp can differ from
    them in the last bit.
    """
    staged = []
    lower_a, lower_x = [], []  # gammainc: each pair's F_d, then its branch term
    upper_k, upper_x, upper_g = [], [], []  # gammaincc: psi term i at each end
    for form, gamma_bar_c, gamma in items:
        if gamma == 0.0:
            staged.append(None)
            continue
        big_t = math.sqrt(gamma / gamma_bar_c)
        m_split = big_t - form.mean_amp  # direct amplitude at the branch point
        c1 = form.c1
        c2 = m_split / form.two_var
        c3 = m_split**2 / form.two_var
        mu = c2 / c1
        pref = math.exp(c2 * c2 / c1 - c3)
        # direct_snr_cdf's argument; its gamma scale is Omega3 gamma_bar_d
        lower_a.append(form.m3)
        lower_x.append(form.m3 * gamma / (form.om3 * (gamma_bar_c * form.amp_direct**2)))
        if m_split < 0.0:
            ends = (0.0, big_t)
        else:
            ends = (0.0, m_split, big_t)
            lower_a.append(form.m3)
            lower_x.append(form.lam * m_split**2)
        terms = len(form.ks)
        for p in ends:
            upper_x.extend([c1 * (p - mu) ** 2] * terms)
        upper_k.extend(form.ks * len(ends))
        upper_g.extend(form.gk * len(ends))
        staged.append((form, big_t, m_split, mu, pref))
    lower = iter(_sp.gammainc(lower_a, lower_x).tolist())
    upper = (_sp.gammaincc(upper_k, upper_x) * upper_g).tolist()
    out = []
    at = 0  # where the current pair's psi terms start in upper
    for item in staged:
        if item is None:
            out.append(0.0)
            continue
        form, big_t, m_split, mu, pref = item
        terms = len(form.ks)
        val = form.fd_coef * next(lower)
        coefs = form._coefs(mu, pref)
        u0, u1 = upper[at:at + terms], upper[at + terms:at + 2 * terms]
        if m_split < 0.0:
            at += 2 * terms
            val += form.scale * form._psi(0.0, big_t, mu, coefs, u0, u1)
        else:
            u2 = upper[at + 2 * terms:at + 3 * terms]
            at += 3 * terms
            val += next(lower) / form.z_norm
            val += form.scale * (
                form._psi(m_split, big_t, mu, coefs, u1, u2)
                - form._psi(0.0, m_split, mu, coefs, u0, u1)
            )
        out.append(min(max(val, 0.0), 1.0))
    return out


def composite_snr_cdf_closed(fit, direct: NakagamiParams, budget: LinkBudget, gamma):
    """Closed-form composite CDF (truncated-normal sum model + Chernoff tail).

    Two branches split on the sum mean versus sqrt(gamma/gamma_bar_r); inside
    each branch the remaining integral is a psi-type Gaussian moment integral
    solved with incomplete gamma functions.  Requires 2*m3 within 1e-6 of an
    integer (the psi expansion is finite only then); Link.cdf snaps the
    fitted direct shape to the nearest half-integer before invoking it.
    The value is clamped to [0, 1].  A scalar gamma gives a float; an array
    gives an ndarray of the scalar values, bit for bit.  Each call builds
    one _ClosedForm, the constants that depend on neither gamma nor the
    transmit SNR, for all its gamma, as a link does, and passes gamma_bar_c
    when they are evaluated, by the kernel link_cdfs runs for every
    composite pair.
    """
    gamma = _checked(gamma, lambda g: g < 0.0, "gamma must be nonnegative")
    form = _ClosedForm(fit, direct, budget.amp_direct, budget.amp_ris)
    gamma_bar_c = budget.gamma_bar_c
    if np.ndim(gamma) == 0:
        return _composite_cdfs([(form, gamma_bar_c, float(gamma))])[0]
    values = _composite_cdfs([(form, gamma_bar_c, g) for g in gamma.ravel().tolist()])
    return np.array(values).reshape(gamma.shape)


def _half_integer_m(p: NakagamiParams) -> NakagamiParams:
    """p with m snapped to the nearest half-integer (at least 0.5)."""
    return NakagamiParams(m=max(0.5, round(2.0 * p.m) / 2.0), omega=p.omega)


@dataclass(frozen=True, init=False)
class Link:
    """One BS->UAV link: direct-only, RIS-only or composite, by which of
    `direct` and `ris` are present.  The fading parameters are exact; only
    the composite closed form in cdf() snaps m3 to a half-integer.

    `kind` is which of LINK_KINDS the link is.  A RIS link holds its
    Laguerre fit (`fit`) and, if composite, its closed-form constants,
    computed here unless handed in: fit must then be fit_laguerre(ris) and
    closed the _ClosedForm of that fit at the snapped m3 and the budget's
    amplitudes, as a LinkChannel's per-N memo holds them.  Links key dicts,
    so the hash is computed once, when the link is built.
    """

    direct: NakagamiParams | None
    ris: RisLinkParams | None
    budget: LinkBudget

    def __init__(self, direct: NakagamiParams | None, ris: RisLinkParams | None,
                 budget: LinkBudget, *, fit: LaguerreFit | None = None,
                 closed: _ClosedForm | None = None):
        if direct is None and ris is None:
            raise ValueError("a link needs a direct path, a RIS path or both")
        kind = "direct" if ris is None else "ris" if direct is None else "composite"
        if ris is not None and fit is None:
            fit = fit_laguerre(ris)
        if kind == "composite" and closed is None:
            closed = _ClosedForm(fit, _half_integer_m(direct), budget.amp_direct,
                                 budget.amp_ris)
        # equal links have equal kinds, element counts and budgets, which tell
        # the links of a drop apart, so they make the hash
        n_elements = 0 if ris is None else ris.n_elements
        key = (kind, n_elements, budget.gamma_bar_c, budget.amp_direct, budget.amp_ris)
        # frozen: the fields and the derived attributes go into the instance
        # dict directly, as the generated __init__ would set the fields
        vars(self).update(direct=direct, ris=ris, budget=budget, kind=kind, fit=fit,
                          _closed=closed, _hash=hash(key))

    def __hash__(self):
        return self._hash

    def cdf(self, gamma):
        """SNR CDF at a scalar or array gamma: exact for the direct link,
        Laguerre fit for the RIS-only link, closed form at the snapped m3 for
        the composite link.  One link_cdfs call evaluates every gamma, so an
        array gives, element by element, the scalar values."""
        values = np.asarray(gamma, dtype=float)
        out = link_cdfs((self,) * values.size, values.ravel().tolist())
        return out[0] if values.ndim == 0 else np.array(out).reshape(values.shape)


def _direct_cdfs(links, gammas) -> list:
    """direct_snr_cdf of each (direct link, gamma) pair, in one gammainc call."""
    shapes = [link.direct.m for link in links]
    return _sp.gammainc(shapes, [
        m * g / (link.direct.omega * link.budget.gamma_bar_d)
        for m, link, g in zip(shapes, links, gammas)
    ]).tolist()


def _ris_cdfs(links, gammas) -> list:
    """ris_snr_cdf of each (RIS-only link, gamma) pair, in one gammainc call;
    math.sqrt rounds like np.sqrt, both being IEEE square roots."""
    fits = [link.fit for link in links]
    return _sp.gammainc([fit.a for fit in fits], [
        math.sqrt(g / link.budget.gamma_bar_r) / fit.b
        for fit, link, g in zip(fits, links, gammas)
    ]).tolist()


def _link_composite_cdfs(links, gammas) -> list:
    """Link.cdf of each (composite link, gamma) pair, by _composite_cdfs."""
    return _composite_cdfs([(link._closed, link.budget.gamma_bar_c, g)
                            for link, g in zip(links, gammas)])


_KERNELS = {"direct": _direct_cdfs, "ris": _ris_cdfs, "composite": _link_composite_cdfs}


def link_cdfs(links, gammas) -> list:
    """SNR CDF of links[i] at gammas[i] for every i, as a list of floats.

    The pairs are grouped by link kind and each group is evaluated in one
    pass: one gammainc call for the direct pairs, one for the RIS-only
    pairs, and for the composite pairs one gammainc call (every F_d and
    branch term) and one gammaincc call (every psi term at every interval
    end).  scipy.special's ufuncs give each element the bits of a scalar
    call, so a value does not depend on the batch it is evaluated in.
    """
    if len(links) != len(gammas):
        raise ValueError("need one gamma per link")
    if any(g < 0.0 for g in gammas):
        raise ValueError("gamma must be nonnegative")
    groups = {}
    for i, link in enumerate(links):
        groups.setdefault(link.kind, []).append(i)
    out = [0.0] * len(gammas)
    for kind, where in groups.items():
        values = _KERNELS[kind]([links[i] for i in where], [gammas[i] for i in where])
        for i, value in zip(where, values):
            out[i] = value
    return out


LINK_KINDS = ("direct", "ris", "composite")


@dataclass(frozen=True)
class LinkChannel:
    """All per-UAV channel constants resolved from one scenario drop, and the
    one owner of what its links derive from them per element count N.

    The channel computes the element moments of its two hops once, and
    memoizes per N the partition, its Laguerre fit and, at the first
    composite link, its closed-form constants; laguerre(n), ris_params(n)
    and the links of N hold the same objects, and the channel's at_snr
    copies share the memo."""

    uav: int
    ris: int
    direct_fading: NakagamiParams
    hop_g2r: NakagamiParams
    hop_r2a: NakagamiParams
    amp_direct: float
    amp_ris: float
    gamma_bar_c: float
    max_ris_elements: int
    # link() memo: (kind, n_elements) -> Link
    _links: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # per-N memo: n_elements -> [partition, Laguerre fit, _ClosedForm or None]
    _per_n: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the budget every link of the channel carries, and the element
        # moments every N's fit shares
        object.__setattr__(self, "_budget",
                           LinkBudget(self.gamma_bar_c, self.amp_direct, self.amp_ris))
        object.__setattr__(self, "_moments", _element_moments(self.hop_g2r, self.hop_r2a))

    @property
    def gamma_bar_d(self) -> float:
        return self._budget.gamma_bar_d

    @property
    def gamma_bar_r(self) -> float:
        return self._budget.gamma_bar_r

    def budget(self) -> LinkBudget:
        """The budget every link of the channel carries."""
        return self._budget

    def at_snr(self, gamma_bar_c: float) -> LinkChannel:
        """This channel at transmit SNR gamma_bar_c = P_t / P_N.  Nothing the
        fits and closed-form constants depend on changes, so both channels
        share the per-N memo: each N's are computed once for every SNR.

        A sweep makes one per point and UAV, so it is a copy of this
        channel's instance dict, not a call of the generated __init__."""
        channel = object.__new__(LinkChannel)
        vars(channel).update(vars(self), gamma_bar_c=gamma_bar_c, _links={},
                             _budget=LinkBudget(gamma_bar_c, self.amp_direct, self.amp_ris))
        return channel

    def _entry(self, n_elements: int) -> list:
        """The per-N memo entry of n_elements, built at its first use."""
        entry = self._per_n.get(n_elements)
        if entry is None:
            ris = RisLinkParams(self.hop_g2r, self.hop_r2a, n_elements)
            entry = self._per_n[n_elements] = [ris, _sum_fit(n_elements, *self._moments), None]
        return entry

    def ris_params(self, n_elements: int) -> RisLinkParams:
        return self._entry(n_elements)[0]

    def laguerre(self, n_elements: int) -> LaguerreFit:
        return self._entry(n_elements)[1]

    def rounded_direct(self) -> NakagamiParams:
        """Direct fading with m3 snapped to the nearest half-integer, as the
        closed-form composite path requires."""
        return _half_integer_m(self.direct_fading)

    def link(self, kind: str, n_elements: int) -> Link:
        """The link of one of LINK_KINDS through n_elements RIS elements.

        A composite link with zero elements is exactly the direct link; a
        RIS-only link with zero elements does not exist.  Each link is built
        once per channel, so equal links of a channel are one object.
        """
        key = (kind, n_elements)
        link = self._links.get(key)
        if link is None:
            if kind not in LINK_KINDS:
                raise ValueError(f"unknown link type {kind!r}")
            if kind == "ris" and n_elements < 1:
                raise ValueError("RIS-only link needs at least one element")
            if kind == "direct" or n_elements == 0:
                link = self._links.get(("direct", 0))
                if link is None:
                    link = self._links["direct", 0] = Link(self.direct_fading, None,
                                                            self._budget)
            else:
                entry = self._entry(n_elements)
                if kind == "ris":
                    link = Link(None, entry[0], self._budget, fit=entry[1])
                else:
                    link = Link(self.direct_fading, entry[0], self._budget, fit=entry[1],
                                closed=entry[2])
                    entry[2] = link._closed
            self._links[key] = link
        return link


def resolve_links(
    env: env_mod.EnvironmentParams,
    scenario: env_mod.Scenario,
    omega: float = 1.0,
    m_direct=None,
    m_hops=None,
) -> list:
    """Derive every UAV's LinkChannel from scenario geometry.

    Each endpoint pair (BS->RIS, RIS->UAV, BS->UAV) is evaluated once: its
    one LoS probability gives its path-loss amplitude and, unless m_direct or
    m_hops pins it, its Nakagami shape.  Each UAV is served through the RIS
    with the largest cascaded amplitude, the lowest index on ties.
    """
    gamma_bar_c = env_mod.transmit_snr(
        scenario.tx_power_dbm, scenario.bandwidth_hz, scenario.noise_temp_k
    )

    def pair(a, b, pinned_m):
        p_los = env_mod.los_probability(env, a, b)
        m = env_mod.nakagami_shape(p_los) if pinned_m is None else float(pinned_m)
        return NakagamiParams(m=m, omega=omega), env_mod.path_loss_amplitude(env, a, b, p_los)

    sites = range(scenario.n_ris)
    g2r = [pair(scenario.bs, site.position, m_hops) for site in scenario.riss]
    links = []
    for i, uav in enumerate(scenario.uavs):
        r2a = [pair(site.position, uav, m_hops) for site in scenario.riss]
        amp_ris = [g2r[k][1] * r2a[k][1] for k in sites]
        k = max(sites, key=amp_ris.__getitem__)
        direct_fading, amp_direct = pair(scenario.bs, uav, m_direct)
        links.append(
            LinkChannel(
                uav=i,
                ris=k,
                direct_fading=direct_fading,
                hop_g2r=g2r[k][0],
                hop_r2a=r2a[k][0],
                amp_direct=amp_direct,
                amp_ris=amp_ris[k],
                gamma_bar_c=gamma_bar_c,
                max_ris_elements=scenario.riss[k].max_elements,
            )
        )
    return links
