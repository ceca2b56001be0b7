"""NOMA rate model, SIC decoding thresholds, order statistics and outage.

Users are ranked by mean channel gain (weakest first); rank m receives power
coefficient beta_m and must decode ranks 1..m.  The outage of rank m is the
ordered-statistics CDF of its own parent SNR distribution evaluated at the
largest SIC threshold it must clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .special_math import binomial

__all__ = [
    "InfeasibleAllocationError",
    "PowerAllocation",
    "OutageQuery",
    "achievable_rate",
    "decode_rate",
    "sic_thresholds",
    "ordered_cdf",
    "outage_probability",
    "OutageModel",
]


class InfeasibleAllocationError(ValueError):
    """A power allocation violates the SIC feasibility constraint."""

    def __init__(self, rank_j: int, message: str):
        super().__init__(message)
        self.rank_j = rank_j


@dataclass(frozen=True)
class PowerAllocation:
    """NOMA power coefficients beta_1 > ... > beta_M summing to one."""

    beta: tuple

    def __post_init__(self):
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if len(beta) < 1:
            raise ValueError("empty power allocation")
        if any(not (0.0 < b < 1.0) for b in beta) and beta != (1.0,):
            raise ValueError("coefficients must lie in (0, 1) (or be the trivial [1])")
        if abs(math.fsum(beta) - 1.0) > 1e-9 * len(beta):
            raise ValueError(f"coefficients must sum to one, got {math.fsum(beta)!r}")
        for j in range(len(beta) - 1):
            if not beta[j] > beta[j + 1]:
                raise ValueError("coefficients must be strictly decreasing")

    @property
    def m_users(self) -> int:
        return len(self.beta)

    def interference(self, j: int) -> float:
        """Sum of coefficients allocated to ranks above j (treated as noise)."""
        return math.fsum(self.beta[j:])


@dataclass(frozen=True)
class OutageQuery:
    """Outage evaluation request for one ranked user against its parent CDF."""

    rank_m: int
    total_m: int
    parent_cdf: object  # callable gamma -> F(gamma)
    target_rates: tuple

    def __post_init__(self):
        if not 1 <= self.rank_m <= self.total_m:
            raise ValueError("rank out of range")
        if len(self.target_rates) != self.total_m:
            raise ValueError("need one target rate per user")
        if any(r <= 0 for r in self.target_rates):
            raise ValueError("target rates must be positive")


def achievable_rate(gamma_m: float, alloc: PowerAllocation, m: int) -> float:
    """Rate of rank m after SIC: log2(1 + g b_m / (g sum_{i>m} b_i + 1))."""
    return decode_rate(gamma_m, alloc, m, m)


def decode_rate(gamma_m: float, alloc: PowerAllocation, m: int, j: int) -> float:
    """Rate at which rank m decodes rank j's signal (j <= m)."""
    if not 1 <= j <= m <= alloc.m_users:
        raise ValueError(f"require 1 <= j <= m <= M, got j={j}, m={m}")
    if gamma_m < 0:
        raise ValueError("SNR must be nonnegative")
    interf = alloc.interference(j)
    return math.log2(1.0 + gamma_m * alloc.beta[j - 1] / (gamma_m * interf + 1.0))


def sic_thresholds(alloc: PowerAllocation, rates, m: int):
    """Per-rank SIC SNR thresholds and the binding threshold for rank m.

    gamma_j^lb = (2^R_j - 1) / (beta_j - (2^R_j - 1) sum_{i>j} beta_i); the
    binding threshold is the max over j <= m for m < M and gamma_M^lb alone
    for the strongest user (as defined, not a max).
    """
    if not 1 <= m <= alloc.m_users:
        raise ValueError("rank out of range")
    if len(rates) != alloc.m_users:
        raise ValueError("need one target rate per user")
    lbs = []
    for j in range(1, m + 1):
        phi = 2.0 ** float(rates[j - 1]) - 1.0
        denom = alloc.beta[j - 1] - phi * alloc.interference(j)
        if denom <= 0.0:
            raise InfeasibleAllocationError(
                j,
                f"allocation infeasible at rank {j}: "
                f"(2^R-1)*interference >= beta_{j} ({phi * alloc.interference(j):.6g} "
                f">= {alloc.beta[j - 1]:.6g})",
            )
        lbs.append(phi / denom)
    if m == alloc.m_users:
        return lbs, lbs[-1]
    return lbs, max(lbs)


def ordered_cdf(parent_cdf_value, m: int, total: int):
    """CDF of the m-th smallest of `total` i.i.d. draws, given the parent CDF value."""
    if not 1 <= m <= total:
        raise ValueError("rank out of range")
    f = np.asarray(parent_cdf_value, dtype=float)
    if np.any((f < 0.0) | (f > 1.0)):
        raise ValueError("parent CDF value must lie in [0, 1]")
    acc = np.zeros_like(f)
    for n in range(total - m + 1):
        acc += binomial(total - m, n) * (-1.0) ** n * f ** (m + n) / (m + n)
    out = m * binomial(total, m) * acc
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.ndim(out) == 0 else out


def outage_probability(q: OutageQuery, alloc: PowerAllocation) -> float:
    """Outage of rank m: ordered CDF of the parent at the binding SIC threshold.

    An infeasible allocation raises InfeasibleAllocationError.
    """
    _, gamma_mlb = sic_thresholds(alloc, q.target_rates, q.rank_m)
    parent = float(q.parent_cdf(gamma_mlb))
    return float(ordered_cdf(parent, q.rank_m, q.total_m))


class OutageModel:
    """Per-rank outage evaluator over resolved links of one scenario.

    Links are sorted weakest-first by mean direct channel gain; rank m uses
    its own link's parent CDF (direct, RIS-only, or composite with a per-rank
    element count) inside the ordered-statistics outage formula.
    """

    def __init__(self, links, rates, link_type: str):
        if link_type not in ch.LINK_KINDS:
            raise ValueError(f"unknown link type {link_type!r}")
        self.links = sorted(links, key=lambda l: (l.gamma_bar_d, l.uav))
        self.rates = tuple(float(r) for r in rates)
        self.link_type = link_type
        self.m_users = len(self.links)
        if len(self.rates) != self.m_users:
            raise ValueError("need one target rate per UAV")
        self._rank_links = {}

    def link(self, rank: int, n_elements: int) -> ch.Link:
        """The link of the given rank (1-based) with n_elements RIS elements."""
        key = (rank, n_elements)
        if key not in self._rank_links:
            self._rank_links[key] = self.links[rank - 1].link(self.link_type, n_elements)
        return self._rank_links[key]

    def outage(self, rank: int, alloc: PowerAllocation, n_elements: int) -> float:
        query = OutageQuery(
            rank_m=rank,
            total_m=self.m_users,
            parent_cdf=self.link(rank, n_elements).cdf,
            target_rates=self.rates,
        )
        return outage_probability(query, alloc)

    def outages(self, alloc: PowerAllocation, n_per_rank):
        return [self.outage(m, alloc, int(n_per_rank[m - 1])) for m in range(1, self.m_users + 1)]
