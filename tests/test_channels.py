"""Distribution tests for direct, RIS-only and composite links.

Monte Carlo oracles here use moderate trial counts for speed; the full
1e6-trial comparisons at the stated tolerances run in test_acceptance.py.
"""

import dataclasses
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from risnoma import channels, environment, expcli
from risnoma.channels import (
    LINK_KINDS,
    LaguerreFit,
    Link,
    LinkBudget,
    NakagamiParams,
    RisLinkParams,
    composite_snr_cdf_closed,
    composite_snr_cdf_quadrature,
    direct_snr_cdf,
    double_nakagami_moment,
    fit_laguerre,
    resolve_links,
    ris_snr_cdf,
)
from risnoma.environment import (
    EnvironmentParams,
    ScenarioConfig,
    generate_scenario,
    los_probability,
    path_loss_amplitude,
    transmit_snr,
)
from risnoma.sim_oracle import _element_sums, batch_rng, sample_nakagami
from risnoma.special_math import gamma as gamma_fn, q_function

M1 = NakagamiParams(m=1.0)
M2 = NakagamiParams(m=2.0)

# frozen arbitrary-precision oracle values (m=Omega=1 hops)
PROD_MEAN_RAYLEIGH = math.pi / 4.0
FIT_A_RAYLEIGH = 1.6099457599185225
FIT_B_RAYLEIGH = 0.4878413813377144
# m=2 hops
PROD_MEAN_M2 = 0.8835729338221293
PROD_VAR_M2 = 0.2192988706169550


def double_nakagami_pdf(p1: NakagamiParams, p2: NakagamiParams, x):
    """PDF of the product of two independent Nakagami amplitudes, x > 0: the
    quadrature oracle for double_nakagami_moment."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("double_nakagami_pdf requires x > 0")
    ratio = p1.m * p2.m / (p1.omega * p2.omega)
    msum = p1.m + p2.m
    out = (
        4.0
        * x ** (msum - 1.0)
        * special.kv(p1.m - p2.m, 2.0 * x * math.sqrt(ratio))
        / (gamma_fn(p1.m) * gamma_fn(p2.m) * (1.0 / ratio) ** (msum / 2.0))
    )
    return float(out) if np.ndim(out) == 0 else out


def _ris_sum(ris: RisLinkParams, rng, size: int):
    """size draws of the element sum S_N, drawn as the MC link families draw it."""
    return _element_sums(ris, (ris.n_elements,), rng, (size,))[ris.n_elements]


def _ris(n, m=1.0, omega=1.0):
    p = NakagamiParams(m=m, omega=omega)
    return RisLinkParams(hop_g2r=p, hop_r2a=p, n_elements=n)


def _table_i_link(seed=7, m_direct=1.5, m_hops=2.0, tx_power_dbm=37.0):
    env = EnvironmentParams()
    scen = generate_scenario(ScenarioConfig(tx_power_dbm=tx_power_dbm), seed)
    links = resolve_links(env, scen, m_direct=m_direct, m_hops=m_hops)
    return links[0]


class TestDoubleNakagamiPdf:
    def test_normalization(self):
        val, _ = integrate.quad(lambda x: double_nakagami_pdf(M2, M2, x), 0, 20)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_rayleigh_product_vs_mc(self):
        # bin probability around x=1 vs the analytic density, 1e6 draws
        rng = batch_rng(101, 0)
        draws = sample_nakagami(M1, rng, 1_000_000) * sample_nakagami(M1, rng, 1_000_000)
        lo, hi = 0.95, 1.05
        empirical = np.mean((draws >= lo) & (draws < hi))
        analytic, _ = integrate.quad(lambda x: double_nakagami_pdf(M1, M1, x), lo, hi)
        assert empirical == pytest.approx(analytic, rel=0.02)

    def test_vanishes_at_origin(self):
        assert double_nakagami_pdf(M2, M2, 1e-6) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            double_nakagami_pdf(M1, M1, 0.0)


class TestDoubleNakagamiMoment:
    def test_unit_second_moment(self):
        assert double_nakagami_moment(M1, M1, 2) == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_mean(self):
        assert double_nakagami_moment(M1, M1, 1) == pytest.approx(PROD_MEAN_RAYLEIGH, rel=1e-12)

    def test_mixed_params_vs_mc(self):
        p1 = NakagamiParams(m=2.0, omega=1.0)
        p2 = NakagamiParams(m=3.0, omega=2.0)
        rng = batch_rng(102, 0)
        draws = sample_nakagami(p1, rng, 1_000_000) * sample_nakagami(p2, rng, 1_000_000)
        assert float(np.mean(draws)) == pytest.approx(
            double_nakagami_moment(p1, p2, 1), rel=0.005
        )

    def test_quadrature_consistency(self):
        for n in (1, 2, 3):
            ref, _ = integrate.quad(lambda x: x**n * double_nakagami_pdf(M2, M2, x), 0, 30)
            assert double_nakagami_moment(M2, M2, n) == pytest.approx(ref, rel=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            double_nakagami_moment(M1, M1, 0)


class TestFitLaguerre:
    def test_rayleigh_single_element_oracle(self):
        fit = fit_laguerre(_ris(1))
        assert fit.a == pytest.approx(FIT_A_RAYLEIGH, rel=1e-9)
        assert fit.b == pytest.approx(FIT_B_RAYLEIGH, rel=1e-9)
        assert fit.mean_sum == pytest.approx(PROD_MEAN_RAYLEIGH, rel=1e-12)

    def test_linearity_in_n(self):
        f1, f4 = fit_laguerre(_ris(1)), fit_laguerre(_ris(4))
        assert f4.a == pytest.approx(4 * f1.a, rel=1e-12)
        assert f4.b == pytest.approx(f1.b, rel=1e-12)
        assert f4.mean_sum == pytest.approx(4 * f1.mean_sum, rel=1e-12)

    def test_m2_frozen_moments(self):
        fit = fit_laguerre(_ris(1, m=2.0))
        assert fit.mean_sum == pytest.approx(PROD_MEAN_M2, rel=1e-12)
        assert fit.var_sum == pytest.approx(PROD_VAR_M2, rel=1e-12)

    def test_gamma_fit_ks_distance(self):
        ris = _ris(64, m=2.0)
        fit = fit_laguerre(ris)
        draws = _ris_sum(ris, batch_rng(103, 0), 100_000)
        ks, _ = stats.kstest(draws, "gamma", args=(fit.a, 0.0, fit.b))
        assert ks <= 0.02

    def test_inconsistent_fit_rejected(self):
        with pytest.raises(ValueError):
            LaguerreFit(a=1.0, b=1.0, mean_sum=2.0, var_sum=1.0)


class TestRisSnrCdf:
    def test_boundaries(self):
        fit = fit_laguerre(_ris(16, m=2.0))
        assert ris_snr_cdf(fit, 10.0, 0.0) == 0.0
        assert ris_snr_cdf(fit, 10.0, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        fit = fit_laguerre(_ris(16, m=2.0))
        grid = np.linspace(0.0, 5000.0, 200)
        vals = ris_snr_cdf(fit, 10.0, grid)
        assert np.all(np.diff(vals) >= 0)

    def test_vs_mc(self):
        ris = _ris(16, m=2.0)
        fit = fit_laguerre(ris)
        gbar = 3.0
        peak = gbar * fit.mean_sum**2
        grid = np.linspace(peak * 1e-2, peak * 3, 60)
        rng = batch_rng(104, 0)
        snr = gbar * _ris_sum(ris, rng, 200_000) ** 2
        emp = np.searchsorted(np.sort(snr), grid, side="right") / snr.size
        assert np.max(np.abs(ris_snr_cdf(fit, gbar, grid) - emp)) <= 0.015

    def test_domain(self):
        fit = fit_laguerre(_ris(4))
        with pytest.raises(ValueError):
            ris_snr_cdf(fit, 0.0, 1.0)


def _ris_snr_cdf_q_approx(fit: LaguerreFit, gamma_bar_r: float, gamma):
    """RIS-only SNR CDF under the zero-truncated normal model of the element
    sum that the composite closed form integrates against:
    1 - Q((s - E)/sigma)/Q(-sqrt(a)) at s = sqrt(gamma/gamma_bar_r), clamped
    to [0, 1].  Exactly zero at s = 0 because E/sigma = sqrt(a); Q(-sqrt(a))
    is the mass of the fitted normal above zero."""
    s = np.sqrt(np.asarray(gamma, dtype=float) / gamma_bar_r)
    val = 1.0 - q_function((s - fit.mean_sum) / fit.sigma_sum) / q_function(-math.sqrt(fit.a))
    return np.clip(val, 0.0, 1.0)


class TestRisSnrCdfQApprox:
    """The sum model behind the composite closed form against the gamma fit."""

    def test_zero_gamma(self):
        fit = fit_laguerre(_ris(64, m=2.0))
        assert _ris_snr_cdf_q_approx(fit, 5.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_mean(self):
        # sqrt(gamma/gamma_bar_r) = E[sum] puts the normal argument at zero;
        # with the truncated-normal normalizer the value is 1 - 0.5/Q(-sqrt(a))
        fit = fit_laguerre(_ris(64, m=2.0))
        gbar = 5.0
        gamma = gbar * fit.mean_sum**2
        expected = 1.0 - 0.5 / q_function(-math.sqrt(fit.a))
        assert _ris_snr_cdf_q_approx(fit, gbar, gamma) == pytest.approx(expected, rel=1e-10)

    def test_tracks_exact_cdf(self):
        fit = fit_laguerre(_ris(64, m=2.0))
        gbar = 5.0
        peak = gbar * fit.mean_sum**2
        grid = np.linspace(peak * 0.2, peak * 3, 200)
        gap = np.abs(_ris_snr_cdf_q_approx(fit, gbar, grid) - ris_snr_cdf(fit, gbar, grid))
        assert np.max(gap) <= 0.02

    def test_range(self):
        fit = fit_laguerre(_ris(8))
        grid = np.linspace(0.0, 100.0, 50)
        vals = _ris_snr_cdf_q_approx(fit, 1.0, grid)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestDirectSnrCdf:
    def test_rayleigh_identity(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        for gbar in (0.5, 10.0, 400.0):
            for g in (0.1, 1.0, 7.0):
                assert direct_snr_cdf(p, gbar, g * gbar) == pytest.approx(
                    1.0 - math.exp(-g), rel=1e-12
                )

    def test_vs_mc(self):
        p = NakagamiParams(m=2.5, omega=1.0)
        gbar = 10.0
        rng = batch_rng(105, 0)
        snr = gbar * sample_nakagami(p, rng, 400_000) ** 2
        grid = np.linspace(0.5, 50.0, 60)
        emp = np.searchsorted(np.sort(snr), grid, side="right") / snr.size
        assert np.max(np.abs(direct_snr_cdf(p, gbar, grid) - emp)) <= 0.005

    def test_pdf_mode(self):
        # gamma-distribution mode (m-1)/m * Omega * gamma_bar vs sampled argmax
        p = NakagamiParams(m=3.0, omega=1.0)
        gbar = 10.0
        snr = gbar * sample_nakagami(p, batch_rng(106, 0), 500_000) ** 2
        hist, edges = np.histogram(snr, bins=120, range=(0, 40))
        sampled_mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        assert sampled_mode == pytest.approx((p.m - 1) / p.m * gbar, abs=1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            direct_snr_cdf(M1, -1.0, 1.0)


def _forms(v):
    """The integral value v as a Python float, a Python int, np.float64, a
    0-d array and (beside a valid 2.0) a 1-d array."""
    return (float(v), int(v), np.float64(v), np.array(float(v)), np.array([2.0, float(v)]))


FORM_IDS = ("float", "int", "float64", "0d", "1d")
# gamma_bar_c = 1 and ghat_r = 0.1: the knee of the composite reference at
# gamma = 2 sits at sqrt(2) - 0.1 * E[S] = 0.003.
UNIT_BUDGET = LinkBudget(gamma_bar_c=1.0, amp_direct=1.0, amp_ris=0.1)
SNR_CDFS = {
    "direct": lambda g: direct_snr_cdf(M2, 5.0, g),
    "ris": lambda g: ris_snr_cdf(fit_laguerre(_ris(16, m=2.0)), 10.0, g),
    "composite_reference": lambda g: composite_snr_cdf_quadrature(
        fit_laguerre(_ris(16, m=2.0)), M2, UNIT_BUDGET, g),
}


class TestSnrCdfDomainForms:
    """Every gamma form meets the same domain check and keeps its return type."""

    @pytest.mark.parametrize("cdf", SNR_CDFS.values(), ids=SNR_CDFS.keys())
    @pytest.mark.parametrize("form", range(5), ids=FORM_IDS)
    def test_boundary(self, cdf, form):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            cdf(_forms(-1)[form])
        cdf(_forms(0)[form])

    @pytest.mark.parametrize("cdf", SNR_CDFS.values(), ids=SNR_CDFS.keys())
    def test_return_types(self, cdf):
        *scalars, array = _forms(2)
        values = [cdf(g) for g in scalars]
        assert all(type(v) is float for v in values)
        assert len(set(values)) == 1
        out = cdf(array)
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[1] == values[0]

    @pytest.mark.parametrize("cdf", SNR_CDFS.values(), ids=SNR_CDFS.keys())
    def test_nan_and_empty_pass(self, cdf):
        assert math.isnan(cdf(math.nan))
        assert np.isnan(cdf(np.array([math.nan]))).all()
        assert cdf(np.array([])).shape == (0,)


def _mp_composite_cdf(fit, direct, budget, gamma):
    """Composite CDF P(ghat_r S + ghat_d w <= T) by mpmath.quad at 30 digits.

    Integrates the other order of the convolution, int_0^{T/ghat_r} f_S(s)
    F_{|g^d|}(T - ghat_r s) ds, with breakpoints at the knee s = E[S] and
    8 standard deviations of S either side of it.
    """
    with mpmath.workdps(30):
        big_t = mpmath.sqrt(mpmath.mpf(gamma) / budget.gamma_bar_c)
        amp_r = mpmath.mpf(budget.amp_ris)
        a, b = mpmath.mpf(fit.a), mpmath.mpf(fit.b)
        m = mpmath.mpf(direct.m)
        lam = m / (direct.omega * mpmath.mpf(budget.amp_direct) ** 2)
        log_norm = mpmath.loggamma(a) + a * mpmath.log(b)
        top = big_t / amp_r

        def integrand(s):
            x = big_t - amp_r * s
            if s <= 0 or x <= 0:
                return mpmath.mpf(0)
            pdf_s = mpmath.exp((a - 1) * mpmath.log(s) - s / b - log_norm)
            return pdf_s * mpmath.gammainc(m, 0, lam * x * x, regularized=True)

        mean, sigma = mpmath.mpf(fit.mean_sum), mpmath.mpf(fit.sigma_sum)
        knee = [mean - 8 * sigma, mean, mean + 8 * sigma]
        points = sorted({p for p in [0, top, *knee] if 0 <= p <= top})
        return float(mpmath.quad(integrand, points))


VALIDATE_YAML = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "validate.yaml"
SWEEP_LINKS_YAML = VALIDATE_YAML.with_name("sweep-links.yaml")
SWEEP_POWER_YAML = VALIDATE_YAML.with_name("sweep-power.yaml")


def _strongest_ris_link(config_path, drop):
    cfg = expcli.load_config(config_path)
    return max(expcli._resolved_links(cfg, drop), key=lambda l: l.gamma_bar_r)


class TestCompositeQuadratureVsMpmath:
    """The fixed-node reference within 1e-9 of a 30-digit mpmath integral."""

    TOL = 1e-9

    def _assert_matches(self, fit, direct, budget, grid):
        values = composite_snr_cdf_quadrature(fit, direct, budget, grid)
        exact = np.array([_mp_composite_cdf(fit, direct, budget, g) for g in grid])
        assert np.max(np.abs(values - exact)) <= self.TOL

    @pytest.mark.parametrize("drop", (5, 25))
    def test_validate_drops(self, drop):
        # the validate grid at N = 64, where the adaptive quadrature this rule
        # replaced was off by up to 1.1e-4 or raised
        link = _strongest_ris_link(VALIDATE_YAML, drop)
        comp = Link(link.rounded_direct(), link.ris_params(64), link.budget())
        b = comp.budget
        amp_mean = b.amp_ris * comp.fit.mean_sum + b.amp_direct
        grid = np.linspace(1e-3, 4.0, 60)[::6] * b.gamma_bar_c * amp_mean**2
        self._assert_matches(comp.fit, comp.direct, b, grid)

    @pytest.mark.parametrize("drop", (0, 1, 2))
    @pytest.mark.parametrize("n", (1, 16, 1024))
    def test_benchmark_gap_sample(self, drop, n):
        # the strongest-RIS link of the drop, at the benchmark's gap points
        link = _strongest_ris_link(SWEEP_LINKS_YAML, drop)
        fit, b = link.laguerre(n), link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.linspace(0.05, 4.0, 8)[[0, 2, 3, 5]] * b.gamma_bar_c * amp_mean**2
        self._assert_matches(fit, link.rounded_direct(), b, grid)

    def test_largest_los_shape(self):
        # m3 = 8.5 is the largest half-integer the LoS fit reaches
        link = _table_i_link(m_direct=8.5)
        fit, b = link.laguerre(16), link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.array([0.3, 0.8, 1.0, 1.2, 2.0]) * b.gamma_bar_c * amp_mean**2
        self._assert_matches(fit, link.direct_fading, b, grid)

    @pytest.mark.parametrize("m_hops", (1.0, 0.5))
    def test_small_fitted_shape(self, m_hops):
        # one element of Rayleigh (a = 1.6) or m = 0.5 hops (a = 0.68): F_S
        # grows like s^a from s = 0 and its exponential tail runs on past
        # E[S] + 8 sigma_S, where panels over the knee alone stop
        link = _table_i_link(seed=1, m_direct=8.5, m_hops=m_hops)
        fit, b = link.laguerre(1), link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.array([0.3, 0.7, 1.0, 1.4, 2.0]) * b.gamma_bar_c * amp_mean**2
        self._assert_matches(fit, link.direct_fading, b, grid)

    @pytest.mark.parametrize("sigmas", (2.0, 8.5))
    def test_knee_below_zero(self, sigmas):
        # T = ghat_r (E[S] - sigmas * sigma_S) puts the knee below 0; at 8.5
        # sigmas no knee or tail panel is left inside [0, T] and the CDF is
        # ~1e-39
        link = _table_i_link()
        fit, b = link.laguerre(64), link.budget()
        big_t = b.amp_ris * (fit.mean_sum - sigmas * fit.sigma_sum)
        self._assert_matches(fit, link.direct_fading, b, [b.gamma_bar_c * big_t**2])


class TestCompositeQuadrature:
    def test_zero_gamma(self):
        link = _table_i_link()
        assert composite_snr_cdf_quadrature(link.laguerre(16), link.direct_fading,
                                            link.budget(), 0.0) == 0.0

    def test_array_matches_scalars(self):
        link = _table_i_link()
        fit, b = link.laguerre(16), link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.linspace(0.0, 3.0, 13) * b.gamma_bar_c * amp_mean**2
        values = composite_snr_cdf_quadrature(fit, link.direct_fading, b, grid)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
        assert values[0] == 0.0
        assert values.tolist() == [
            composite_snr_cdf_quadrature(fit, link.direct_fading, b, g) for g in grid
        ]

    def test_vs_mc(self):
        link = _table_i_link()
        n = 32
        fit = link.laguerre(n)
        b = link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.linspace(0.05, 3.0, 25) * b.gamma_bar_c * amp_mean**2
        rng = batch_rng(107, 0)
        amp = (b.amp_ris * _ris_sum(link.ris_params(n), rng, 200_000)
               + b.amp_direct * sample_nakagami(link.direct_fading, rng, 200_000))
        snr = b.gamma_bar_c * amp**2
        emp = np.searchsorted(np.sort(snr), grid, side="right") / snr.size
        quad_vals = composite_snr_cdf_quadrature(fit, link.direct_fading, b, grid)
        assert np.max(np.abs(quad_vals - emp)) <= 0.01


def _default_links(drop=2):
    """The LoS-fitted links of one default drop (direct m3 is not a half-integer)."""
    scen = generate_scenario(ScenarioConfig(), drop)
    return resolve_links(EnvironmentParams(), scen)


@pytest.mark.bits
def test_link_channel_builds_each_link_once():
    # equal links of one channel are one object, so point lists group them cheaply
    channel = _default_links()[0]
    direct = channel.link("direct", 0)
    assert channel.link("direct", 64) is direct and channel.link("composite", 0) is direct
    assert channel.link("composite", 64) is channel.link("composite", 64)
    assert channel.link("ris", 64) is not channel.link("composite", 64)
    assert channel.link("composite", 64) == dataclasses.replace(channel).link("composite", 64)
    with pytest.raises(ValueError):
        channel.laguerre(0)  # no element sum to fit; N = 0 is the direct link


@pytest.mark.bits
@pytest.mark.parametrize("m_direct", [None, 2.5], ids=["fitted_m3", "pinned_m3"])
def test_link_and_channel_build_the_same_link(m_direct):
    # Link(direct, ris, budget) computes its own fit and constants, where a
    # channel hands in its per-N memo's; both give the same link, bit for bit
    scen = generate_scenario(ScenarioConfig(), 2)
    channel = resolve_links(EnvironmentParams(), scen, m_direct=m_direct)[0]
    for view in (channel, channel.at_snr(3.0 * channel.gamma_bar_c)):
        budget = view.budget()
        for kind, direct in (("ris", None), ("composite", view.direct_fading)):
            for n in (1, 64, 1024):
                built = view.link(kind, n)
                alone = Link(direct, RisLinkParams(view.hop_g2r, view.hop_r2a, n), budget)
                assert alone == built and alone.kind == built.kind == kind
                assert alone.fit == built.fit
                assert (alone._closed is None) == (built._closed is None) == (kind == "ris")
                if kind == "composite":
                    assert vars(alone._closed) == vars(built._closed)
                amp_mean = budget.amp_ris * built.fit.mean_sum + budget.amp_direct
                grid = np.geomspace(1e-4, 4.0, 40) * budget.gamma_bar_c * amp_mean**2
                assert [v.hex() for v in alone.cdf(grid).tolist()] == [
                    v.hex() for v in built.cdf(grid).tolist()]


@pytest.mark.bits
def test_at_snr_is_the_channel_at_another_snr():
    # a sweep's power point: the channel dataclasses.replace gives, whose
    # links share this channel's fits and closed-form constants
    channel = _default_links()[1]
    snr = 4.0 * channel.gamma_bar_c
    louder = channel.at_snr(snr)
    assert louder == dataclasses.replace(channel, gamma_bar_c=snr)
    assert louder.budget() == LinkBudget(snr, channel.amp_direct, channel.amp_ris)
    assert channel.budget() == LinkBudget(channel.gamma_bar_c, channel.amp_direct,
                                          channel.amp_ris)
    for kind, n in (("ris", 64), ("composite", 64), ("composite", 1024)):
        link, loud = channel.link(kind, n), louder.link(kind, n)
        assert loud.budget is louder.budget() and loud.ris is link.ris and loud.fit is link.fit
        assert loud._closed is link._closed
        assert loud == Link(loud.direct, loud.ris, loud.budget) != link
    assert louder.link("direct", 0) == Link(channel.direct_fading, None, louder.budget())


@pytest.mark.bits
def test_one_memo_per_channel():
    # laguerre, ris_params and the links of an element count hold one fit and
    # one partition, which the channel's at_snr copies share
    channel = _default_links()[2]
    louder = channel.at_snr(2.0 * channel.gamma_bar_c)
    for view in (channel, louder):
        for n in (1, 64, 1024):
            fit = view.laguerre(n)
            assert fit is view.link("ris", n).fit is view.link("composite", n).fit
            assert view.ris_params(n) is view.link("ris", n).ris
            assert fit is channel.laguerre(n) and view.ris_params(n) is channel.ris_params(n)


class TestLinkCdfArrays:
    """Link.cdf on an array of thresholds gives, element by element, the bits of
    its scalar calls: the outage model scores a batch of thresholds per call."""

    @pytest.mark.parametrize("kind, n", [(k, n) for k in LINK_KINDS for n in (0, 1, 64, 1024)
                                         if (k, n) != ("ris", 0)])
    def test_array_equals_scalar_calls(self, kind, n):
        for channel in _default_links():
            link = channel.link(kind, n)
            b = link.budget
            amp_mean = ((0.0 if link.ris is None else b.amp_ris * link.fit.mean_sum)
                        + (0.0 if link.direct is None else b.amp_direct))
            grid = np.concatenate([
                [0.0], np.geomspace(1e-6, 8.0, 40) * b.gamma_bar_c * amp_mean**2,
            ])
            batch = link.cdf(grid)
            assert isinstance(batch, np.ndarray) and batch.shape == grid.shape
            scalars = [link.cdf(g) for g in grid.tolist()]
            assert all(type(v) is float for v in scalars)
            assert [v.hex() for v in batch.tolist()] == [v.hex() for v in scalars]
            assert 0.0 < max(scalars) and min(scalars[1:]) < 1.0


def _snapped(p):
    """p with m snapped to the nearest half-integer, at least 0.5."""
    return NakagamiParams(m=max(0.5, round(2.0 * p.m) / 2.0), omega=p.omega)


def _moment_reference(p1, p2, n) -> float:
    """double_nakagami_moment with a scalar Gamma call per value, as it has
    always been computed."""
    out = 1.0
    for p in (p1, p2):
        out *= (float(special.gamma(p.m + n / 2.0)) / float(special.gamma(p.m))
                * (p.omega / p.m) ** (n / 2.0))
    return out


def test_moments_keep_the_scalar_bits():
    # one scipy.special.gamma call gives each moment the bits of scalar calls
    rng = np.random.default_rng(3)
    for m1, m2, w1, w2 in zip(*rng.uniform(0.5, 12.0, (2, 300)), *rng.uniform(0.1, 3.0, (2, 300))):
        p1, p2 = NakagamiParams(float(m1), float(w1)), NakagamiParams(float(m2), float(w2))
        for n in (1, 2, 3, 4):
            assert (double_nakagami_moment(p1, p2, n).hex()
                    == _moment_reference(p1, p2, n).hex()), (p1, p2, n)


def _fit_reference(ris) -> tuple:
    """(a, b, mean_sum, var_sum) of the Laguerre fit of ris, from the two
    element moments, with the expressions fit_laguerre has always used."""
    mean_i = _moment_reference(ris.hop_g2r, ris.hop_r2a, 1)
    var_i = _moment_reference(ris.hop_g2r, ris.hop_r2a, 2) - mean_i**2
    n = ris.n_elements
    return n * mean_i**2 / var_i, var_i / mean_i, n * mean_i, n * var_i


def _scalar_closed_form(fit, direct, budget, gamma: float) -> float:
    """The composite closed form one gamma at a time, direct's m3 a
    half-integer: its constants computed here from (fit, direct, budget) with
    the expressions the closed form has always used, its special functions
    called per gamma and a psi sum per integral.  The reference for the
    batched kernel and for the constants a link derives from its channel."""
    if gamma == 0.0:
        return 0.0
    m3, om3 = direct.m, direct.omega
    n = round(2.0 * m3) - 1
    gamma_bar_c, amp_direct, amp_ris = budget.gamma_bar_c, budget.amp_direct, budget.amp_ris
    z_norm = q_function(-math.sqrt(fit.a))
    s_amp = amp_ris * fit.sigma_sum
    mean_amp = amp_ris * fit.mean_sum
    two_var = 2.0 * s_amp**2
    lam = m3 / (om3 * amp_direct**2)
    c1 = lam + 1.0 / two_var
    fd_coef = -(q_function(math.sqrt(fit.a)) / z_norm)
    scale = lam**m3 / (z_norm * float(special.gamma(m3)))
    ks = [(i + 1) / 2.0 for i in range(n + 1)]
    ks_col = np.array(ks)[:, None]
    gamma_k = special.gamma(ks_col)
    gk = gamma_k[:, 0].tolist()
    two_c1k = [2.0 * c1**k for k in ks]

    def psi(p1, p2, mu, pref, upper1, upper2):
        if p2 <= p1:
            return 0.0
        total = 0.0
        for i in range(n + 1):
            rho = math.comb(n, i) * pref * mu ** (n - i)
            if p1 >= mu or i % 2 == 1:
                bracket = upper1[i] - upper2[i]
            elif p2 <= mu:
                bracket = upper2[i] - upper1[i]
            else:
                low = gk[i] - upper1[i]
                high = gk[i] - upper2[i]
                bracket = low + high
            total += rho / two_c1k[i] * bracket
        return total

    direct_scale = om3 * (gamma_bar_c * amp_direct**2)
    big_t = math.sqrt(gamma / gamma_bar_c)
    m_split = big_t - mean_amp
    c2 = m_split / two_var
    c3 = m_split**2 / two_var
    mu = c2 / c1
    pref = math.exp(c2 * c2 / c1 - c3)
    f_d = float(special.gammainc(m3, m3 * gamma / direct_scale))
    val = fd_coef * f_d
    ends = (0.0, big_t) if m_split < 0.0 else (0.0, m_split, big_t)
    upper = (special.gammaincc(ks_col, [c1 * (p - mu) ** 2 for p in ends]) * gamma_k).T.tolist()
    if m_split < 0.0:
        val += scale * psi(0.0, big_t, mu, pref, upper[0], upper[1])
    else:
        val += float(special.gammainc(m3, lam * m_split**2)) / z_norm
        val += scale * (
            psi(m_split, big_t, mu, pref, upper[1], upper[2])
            - psi(0.0, m_split, mu, pref, upper[0], upper[1])
        )
    return min(max(val, 0.0), 1.0)


def _mixed_pairs():
    """(link, gamma) pairs of every kind: the default drop's three UAVs at
    N = 1, 16, 64 and 1024; the Table-I link at four pinned m3 (snapped to
    n_pow 1, 2, 4 and 16); one UAV's links at two other transmit SNRs, by
    LinkChannel.at_snr and by dataclasses.replace; and links built directly,
    without a channel.  gamma = 0, and for composite links points on both
    sides of the branch point gamma_bar_c (ghat_r E[S])^2."""
    links = []
    drop = _default_links()
    for channel in drop:
        links.append(channel.link("direct", 0))
        for n in (1, 16, 64, 1024):
            links += [channel.link("ris", n), channel.link("composite", n)]
    for m_direct in (1.0, 1.5, 2.4, 8.5):
        links.append(_table_i_link(m_direct=m_direct).link("composite", 16))
    channel = drop[1]
    for louder in (channel.at_snr(3.0 * channel.gamma_bar_c),
                   dataclasses.replace(channel, gamma_bar_c=0.2 * channel.gamma_bar_c)):
        links += [louder.link("ris", 64), louder.link("composite", 64)]
    links += [Link(channel.direct_fading, channel.ris_params(16), channel.budget()),
              Link(None, channel.ris_params(16), channel.budget())]
    pairs = []
    for link in links:
        b = link.budget
        mean_amp = ((0.0 if link.ris is None else b.amp_ris * link.fit.mean_sum)
                    + (0.0 if link.direct is None else b.amp_direct))
        scale = b.gamma_bar_c * mean_amp**2
        if link.kind == "composite":
            branch = b.gamma_bar_c * (b.amp_ris * link.fit.mean_sum) ** 2
            gammas = [0.0, 0.3 * branch, 0.97 * branch, 1.03 * branch, 2.0 * scale]
        else:
            gammas = [0.0, 0.1 * scale, scale, 3.0 * scale]
        pairs += [(link, g) for g in gammas]
    return pairs


@pytest.mark.bits
def test_link_cdfs_batch_is_singletons_bit_for_bit():
    pairs = _mixed_pairs()
    links, gammas = [link for link, _ in pairs], [g for _, g in pairs]
    composite = [(l, g) for l, g in pairs if l.kind == "composite" and g > 0.0]
    # the cover the kernel needs: both branches, and several psi lengths
    assert {math.sqrt(g / l.budget.gamma_bar_c) < l._closed.mean_amp for l, g in composite} == {
        True, False}
    assert {l._closed.n_pow for l, _ in composite} >= {1, 2, 4, 16}
    assert {l.kind for l in links} == set(LINK_KINDS)
    assert {l.ris.n_elements for l in links if l.ris is not None} >= {1, 1024}
    # each link's fit has the bits of the moment-matched fit of its partition,
    # also at element counts that are not powers of two
    fitted = [l for l in links if l.ris is not None]
    fitted += [channel.link(kind, n) for channel in _default_links() for kind in ("ris", "composite")
               for n in (3, 48, 100, 1000)]
    for link in fitted:
        assert [v.hex() for v in (link.fit.a, link.fit.b, link.fit.mean_sum,
                                  link.fit.var_sum)] == [v.hex() for v in _fit_reference(link.ris)]
    batch = channels.link_cdfs(links, gammas)
    assert all(type(v) is float for v in batch)
    single = [channels.link_cdfs([link], [g])[0] for link, g in pairs]
    reverse = channels.link_cdfs(links[::-1], gammas[::-1])[::-1]
    via_link = [link.cdf(g) for link, g in pairs]
    public = []
    for link, g in pairs:
        b = link.budget
        if link.kind == "direct":
            public.append(direct_snr_cdf(link.direct, b.gamma_bar_d, g))
        elif link.kind == "ris":
            public.append(ris_snr_cdf(link.fit, b.gamma_bar_r, g))
        else:
            public.append(composite_snr_cdf_closed(link.fit, _snapped(link.direct), b, g))
    reference = [_scalar_closed_form(l.fit, _snapped(l.direct), l.budget, g)
                 if l.kind == "composite" else v for (l, g), v in zip(pairs, public)]
    want = [v.hex() for v in batch]
    for got in (single, reverse, via_link, public, reference):
        assert [float(v).hex() for v in got] == want
    assert all(v == 0.0 for v, g in zip(batch, gammas) if g == 0.0)


@pytest.mark.bits
def test_link_cdfs_empty_and_domain():
    channel = _default_links()[0]
    link = channel.link("composite", 16)
    assert channels.link_cdfs([], []) == []
    with pytest.raises(ValueError, match="nonnegative"):
        channels.link_cdfs([link, channel.link("ris", 4)], [1.0, -1e-300])
    with pytest.raises(ValueError, match="one gamma per link"):
        channels.link_cdfs([link], [1.0, 2.0])


class TestCompositeClosed:
    def test_array_matches_scalars(self):
        # any shape; elements are the scalar values bit for bit, and a 0-d
        # array gives a float
        link = _table_i_link()
        fit, b = link.laguerre(64), link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.linspace(0.0, 3.0, 12).reshape(3, 4) * b.gamma_bar_c * amp_mean**2
        values = composite_snr_cdf_closed(fit, link.direct_fading, b, grid)
        assert values.shape == (3, 4)
        assert values.ravel().tolist() == [
            composite_snr_cdf_closed(fit, link.direct_fading, b, g) for g in grid.ravel().tolist()
        ]
        zero_d = composite_snr_cdf_closed(fit, link.direct_fading, b, np.asarray(grid[1, 1]))
        assert type(zero_d) is float and zero_d == values[1, 1]
        with pytest.raises(ValueError):
            composite_snr_cdf_closed(fit, link.direct_fading, b, np.array([1.0, -1.0]))

    def test_zero_gamma(self):
        link = _table_i_link()
        assert composite_snr_cdf_closed(link.laguerre(16), link.rounded_direct(),
                                        link.budget(), 0.0) == 0.0

    def test_matches_quadrature(self):
        link = _table_i_link()  # m_direct pinned to 1.5 so rounding is a no-op
        b = link.budget()
        for n in (8, 64):
            fit = link.laguerre(n)
            amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
            # grid straddles the branch point gamma = gamma_bar_r * mean_sum^2
            branch = link.gamma_bar_r * fit.mean_sum**2
            grid = np.concatenate([
                np.linspace(0.1, 2.0, 8) * branch,
                np.linspace(0.05, 3.5, 30) * b.gamma_bar_c * amp_mean**2,
            ])
            for g in grid:
                ref = composite_snr_cdf_quadrature(fit, link.direct_fading, b, g)
                assert composite_snr_cdf_closed(fit, link.direct_fading, b, g) == (
                    pytest.approx(ref, abs=1e-3)
                )

    def test_monotone(self):
        link = _table_i_link()
        fit = link.laguerre(64)
        b = link.budget()
        amp_mean = b.amp_ris * fit.mean_sum + b.amp_direct
        grid = np.linspace(1e-4, 4.0, 200) * b.gamma_bar_c * amp_mean**2
        vals = [composite_snr_cdf_closed(fit, link.direct_fading, b, g) for g in grid]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_half_integer_shape_required(self):
        link = _table_i_link(m_direct=1.37)
        with pytest.raises(ValueError):
            composite_snr_cdf_closed(link.laguerre(8), link.direct_fading, link.budget(), 1.0)

    def test_half_integer_tolerance(self):
        # 2 m3 may miss an integer by 1e-6 and no more
        link = _table_i_link()
        fit, b = link.laguerre(8), link.budget()
        at_half = composite_snr_cdf_closed(fit, NakagamiParams(1.5), b, 1.0)
        for m3 in (1.5 - 4e-7, 1.5 + 4e-7):  # 2 m3 off by 8e-7
            assert composite_snr_cdf_closed(fit, NakagamiParams(m3), b, 1.0) == pytest.approx(
                at_half, abs=1e-5)
        for m3 in (1.5 + 6e-7, 1.5 + 2e-6, 1.5 - 6e-7):  # off by 1.2e-6, 4e-6, 1.2e-6
            with pytest.raises(ValueError, match="half-integer m3"):
                composite_snr_cdf_closed(fit, NakagamiParams(m3), b, 1.0)

    def test_unclamped_diagnostic(self):
        link = _table_i_link()
        fit = link.laguerre(16)
        clamped = composite_snr_cdf_closed(fit, link.direct_fading, link.budget(), 1e-9)
        assert 0.0 <= clamped <= 1.0

    @pytest.mark.bits
    def test_transmit_powers_share_one_constant_set(self, monkeypatch):
        # the constants depend on the amplitudes, not on gamma_bar_c, so a
        # channel's links at several powers build them once, and each
        # power's values keep their bits whichever power came first
        built = []

        class CountedForm(channels._ClosedForm):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(channels, "_ClosedForm", CountedForm)
        link = _table_i_link()
        snrs = [transmit_snr(p, 4.0e7, 300.0) for p in (30.0, 35.0, 40.0)]
        fit = link.laguerre(64)
        amp_mean = link.amp_ris * fit.mean_sum + link.amp_direct
        grid = np.linspace(0.0, 3.0, 9) * snrs[1] * amp_mean**2

        def values(order):
            built.clear()
            channel = dataclasses.replace(link)
            out = {i: channel.at_snr(snrs[i]).link("composite", 64).cdf(grid).tolist()
                   for i in order}
            return [out[i] for i in range(len(snrs))], len(built)

        forward, builds = values((0, 1, 2))
        backward, _ = values((2, 1, 0))
        assert builds == 1
        assert [[v.hex() for v in vals] for vals in forward] == [
            [v.hex() for v in vals] for vals in backward]
        assert forward[0] != forward[1] != forward[2]
        # and they are the public closed form's, which builds its own set
        direct = link.rounded_direct()
        for snr, vals in zip(snrs, forward):
            budget = dataclasses.replace(link, gamma_bar_c=snr).budget()
            assert composite_snr_cdf_closed(fit, direct, budget, grid).tolist() == vals


# Each UAV's link from resolve_links on drops 0-9 of the default scenario, with
# LoS-fitted shapes and with m_direct=1.5, m_hops=2.0 pinned; keyed
# "<fitted|pinned>/<drop>", one line per UAV: the RIS index, then m3, m1, m2,
# amp_direct, amp_ris and gamma_bar_c as float.hex.
GOLDEN_RESOLVE_LINKS = json.loads(
    (Path(__file__).resolve().parent / "golden_resolve_links.json").read_text())


class TestLinkResolution:
    def test_rounded_direct(self):
        link = _table_i_link(m_direct=1.37)
        assert link.rounded_direct().m == 1.5
        link = _table_i_link(m_direct=2.2)
        assert link.rounded_direct().m == 2.0

    def test_budget_consistency(self):
        env = EnvironmentParams()
        scen = generate_scenario(ScenarioConfig(), 7)
        link = resolve_links(env, scen, m_direct=1.5, m_hops=2.0)[0]
        ris = scen.riss[link.ris].position
        b = link.budget()
        assert b == LinkBudget(link.gamma_bar_c, link.amp_direct, link.amp_ris)
        assert (link.gamma_bar_d, link.gamma_bar_r) == (b.gamma_bar_d, b.gamma_bar_r)

        def amp(p, q):
            return path_loss_amplitude(env, p, q, los_probability(env, p, q))

        assert b.amp_direct == amp(scen.bs, scen.uavs[0])
        assert b.amp_ris == amp(scen.bs, ris) * amp(ris, scen.uavs[0])

    def test_power_point_changes_only_gamma_bar_c(self):
        # a sweep-power point sets gamma_bar_c of the drop's links; both
        # path-loss amplitudes of every budget stay the drop's, bit for bit
        cfg = expcli.load_config(SWEEP_POWER_YAML)
        moved = []
        for drop in range(200):
            for link in expcli._resolved_links(cfg, drop):
                base = link.budget()
                for power in cfg.sweep.grid:
                    gamma_bar_c = transmit_snr(power, cfg.scenario.bandwidth_hz,
                                               cfg.scenario.noise_temp_k)
                    b = dataclasses.replace(link, gamma_bar_c=gamma_bar_c).budget()
                    if (b.gamma_bar_c, b.amp_direct, b.amp_ris) != (
                            gamma_bar_c, base.amp_direct, base.amp_ris):
                        moved.append((drop, link.uav, power))
        assert not moved, f"{len(moved)} budgets moved, first {moved[:3]}"

    def test_shape_defaults_from_los(self):
        env = EnvironmentParams()
        scen = generate_scenario(ScenarioConfig(), 7)
        links = resolve_links(env, scen)
        for link in links:
            assert link.direct_fading.m >= 4.0 / 3.0 - 1e-9

    @pytest.mark.parametrize("n_uavs, n_ris", [(3, 3), (4, 2)])
    @pytest.mark.parametrize("pins", [{}, {"m_direct": 1.5, "m_hops": 2.0}],
                             ids=["fitted", "pinned"])
    def test_one_evaluation_per_endpoint_pair(self, monkeypatch, n_uavs, n_ris, pins):
        # K BS->RIS pairs, K*M RIS->UAV pairs and M BS->UAV pairs, each with
        # one LoS probability that sets both its shape and its amplitude
        calls = {"los_probability": 0, "path_loss_amplitude": 0}
        for name in calls:
            fn = getattr(environment, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(environment, name, counted)
        scen = generate_scenario(ScenarioConfig(n_uavs=n_uavs, n_ris=n_ris), 1)
        resolve_links(EnvironmentParams(), scen, **pins)
        pairs = n_ris + n_ris * n_uavs + n_uavs
        assert calls == {"los_probability": pairs, "path_loss_amplitude": pairs}

    @pytest.mark.bits
    @pytest.mark.parametrize("key", sorted(GOLDEN_RESOLVE_LINKS))
    def test_golden_floats(self, recorded_stack, key):
        shapes, drop = key.split("/")
        pins = {"fitted": {}, "pinned": {"m_direct": 1.5, "m_hops": 2.0}}[shapes]
        scen = generate_scenario(ScenarioConfig(), int(drop))
        got = [" ".join([str(link.ris)] + [float(v).hex() for v in (
                   link.direct_fading.m, link.hop_g2r.m, link.hop_r2a.m,
                   link.amp_direct, link.amp_ris, link.gamma_bar_c)])
               for link in resolve_links(EnvironmentParams(), scen, **pins)]
        assert got == GOLDEN_RESOLVE_LINKS[key], recorded_stack


class TestLinkBudget:
    @pytest.mark.parametrize("gamma_bar_c, amp_direct, amp_ris", [
        (1.0, 1.0, 0.1), (2.1e12, 3.3e-7, 1.7e-9), (7.3, 0.0, 0.4), (5e-3, 0.9, 0.0),
    ])
    def test_snrs_from_amplitudes(self, gamma_bar_c, amp_direct, amp_ris):
        b = LinkBudget(gamma_bar_c, amp_direct, amp_ris)
        assert b.gamma_bar_d == gamma_bar_c * amp_direct**2
        assert b.gamma_bar_r == gamma_bar_c * amp_ris**2

    @pytest.mark.parametrize("gamma_bar_c, amp_direct, amp_ris", [
        (0.0, 1.0, 0.1), (-1.0, 1.0, 0.1), (math.nan, 1.0, 0.1), (math.inf, 1.0, 0.1),
        (1.0, -1e-9, 0.1), (1.0, 1.0, -0.1), (1.0, math.nan, 0.1), (1.0, 1.0, math.nan),
    ], ids=["zero_snr", "negative_snr", "nan_snr", "inf_snr", "negative_direct",
            "negative_ris", "nan_direct", "nan_ris"])
    def test_rejects(self, gamma_bar_c, amp_direct, amp_ris):
        with pytest.raises(ValueError):
            LinkBudget(gamma_bar_c, amp_direct, amp_ris)


@pytest.mark.parametrize("m, omega", [
    (0.4, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, math.nan),
    (1.0, math.inf),
], ids=["small_m", "nan_m", "inf_m", "zero_omega", "negative_omega", "nan_omega", "inf_omega"])
def test_nakagami_params_need_finite_values(m, omega):
    with pytest.raises(ValueError):
        NakagamiParams(m=m, omega=omega)
