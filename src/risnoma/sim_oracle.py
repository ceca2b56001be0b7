"""Monte Carlo ground-truth engine for every closed-form distribution.

All estimators draw in fixed-size batches whose generators are derived from
(seed, batch index), and reduce with order-insensitive integer counts, so
serial and parallel schedules produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Link, NakagamiParams, RisLinkParams
from .noma import PowerAllocation

__all__ = [
    "McConfig",
    "McCdf",
    "McEstimate",
    "batch_rng",
    "sample_nakagami",
    "sample_ris_sum",
    "mc_snr_cdf",
    "mc_noma_outage",
]


@dataclass(frozen=True)
class McConfig:
    trials: int = 1_000_000
    seed: int = 0
    batch: int = 250_000

    def __post_init__(self):
        if self.trials < 1 or self.batch < 1:
            raise ValueError("trials and batch must be positive")

    def batch_sizes(self):
        full, rem = divmod(self.trials, self.batch)
        sizes = [self.batch] * full
        if rem:
            sizes.append(rem)
        return sizes


@dataclass(frozen=True)
class McCdf:
    """Empirical CDF on a gamma grid with its 95% DKW half-width."""

    grid: np.ndarray
    values: np.ndarray
    halfwidth: float
    trials: int


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with a 95% normal-approximation half-width."""

    value: float
    halfwidth: float
    trials: int


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Deterministic per-batch generator keyed on (seed, batch index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))


def sample_nakagami(p: NakagamiParams, rng: np.random.Generator, size=None):
    """Nakagami amplitude draws: sqrt of Gamma(m, omega/m) power samples."""
    return np.sqrt(rng.gamma(shape=p.m, scale=p.omega / p.m, size=size))


def sample_ris_sum(ris: RisLinkParams, rng: np.random.Generator, size=None):
    """Coherent post-alignment element sum: sum_i g_i^g * g_i^a over N elements."""
    shape = (ris.n_elements,) if size is None else (ris.n_elements,) + tuple(np.atleast_1d(size))
    prod = sample_nakagami(ris.hop_g2r, rng, shape) * sample_nakagami(ris.hop_r2a, rng, shape)
    out = prod.sum(axis=0)
    return float(out) if size is None else out


def _sample_snr(link: Link, rng, size):
    """SNR draws of one link; a composite link draws its RIS sum first."""
    budget = link.budget
    if link.ris is None:
        w = sample_nakagami(link.direct, rng, size)
        return budget.gamma_bar_d * w * w
    s = sample_ris_sum(link.ris, rng, size)
    if link.direct is None:
        return budget.gamma_bar_r * s * s
    w = sample_nakagami(link.direct, rng, size)
    amp = budget.amp_ris * s + budget.amp_direct * w
    return budget.gamma_bar_c * amp * amp


def mc_snr_cdf(link: Link, gamma_grid, cfg: McConfig) -> McCdf:
    """Empirical SNR CDF of one link over a sorted gamma grid."""
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise ValueError("gamma grid must be a sorted 1-D array")
    counts = np.zeros(grid.size, dtype=np.int64)
    for idx, size in enumerate(cfg.batch_sizes()):
        rng = batch_rng(cfg.seed, idx)
        snr = np.sort(_sample_snr(link, rng, size))
        counts += np.searchsorted(snr, grid, side="right")
    halfwidth = math.sqrt(math.log(2.0 / 0.05) / (2.0 * cfg.trials))
    return McCdf(grid=grid, values=counts / cfg.trials, halfwidth=halfwidth, trials=cfg.trials)


def mc_noma_outage(links, alloc: PowerAllocation, rates, cfg: McConfig):
    """Event-level NOMA outage per ranked UAV.

    links holds one Link per rank, weakest first.  For rank m, M i.i.d.
    SNRs are drawn from that UAV's own parent link, the
    m-th smallest is kept, and the outage event is the failure of any decode
    rate R_{m,j} (j <= m) to exceed its target -- the rate conditions
    themselves, not the simplified threshold, so this run is an independent
    check of the closed-form pipeline.
    """
    m_users = alloc.m_users
    if len(links) != m_users or len(rates) != m_users:
        raise ValueError("need one link and target rate per user")
    rates = [float(r) for r in rates]
    results = []
    for rank in range(1, m_users + 1):
        failures = 0
        for idx, size in enumerate(cfg.batch_sizes()):
            rng = batch_rng(cfg.seed + 7919 * rank, idx)
            draws = _sample_snr(links[rank - 1], rng, (m_users, size))
            gamma_m = np.partition(draws, rank - 1, axis=0)[rank - 1]
            ok = np.ones(size, dtype=bool)
            for j in range(1, rank + 1):
                beta_j = alloc.beta[j - 1]
                interf = alloc.interference(j)
                rate = np.log2(1.0 + gamma_m * beta_j / (gamma_m * interf + 1.0))
                ok &= rate > rates[j - 1]
            failures += int(size - np.count_nonzero(ok))
        p = failures / cfg.trials
        halfwidth = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-300) / cfg.trials)
        results.append(McEstimate(value=p, halfwidth=halfwidth, trials=cfg.trials))
    return results
