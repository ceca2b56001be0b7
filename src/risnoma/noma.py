"""NOMA rate model, SIC decoding thresholds, order statistics and outage.

Users are ranked by mean channel gain (weakest first); rank m receives power
coefficient beta_m and must decode ranks 1..m.  The outage of rank m is the
ordered-statistics CDF of its own parent SNR distribution evaluated at the
largest SIC threshold it must clear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .special_math import _checked

__all__ = [
    "InfeasibleAllocationError",
    "PowerAllocation",
    "decode_rate",
    "sic_thresholds",
    "ordered_cdf",
    "point_outages",
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


def decode_rate(gamma_m, alloc: PowerAllocation, m: int, j: int):
    """Rate at which rank m decodes rank j's signal (j <= m), at scalar or array SNR:
    log2(1 + g b_j / (g sum_{i>j} b_i + 1)); j = m is rank m's own rate after SIC."""
    if not 1 <= j <= m <= alloc.m_users:
        raise ValueError(f"require 1 <= j <= m <= M, got j={j}, m={m}")
    gamma_m = _checked(gamma_m, lambda g: g < 0.0, "SNR must be nonnegative")
    interf = alloc.interference(j)
    return np.log2(1.0 + gamma_m * alloc.beta[j - 1] / (gamma_m * interf + 1.0))


def _sic_phis(rates):
    """phi_j = 2^R_j - 1 of every rank's target rate R_j."""
    return [2.0 ** float(r) - 1.0 for r in rates]


def _sic_margins(beta, phis, m: int):
    """Yield (phi_j, beta_j - phi_j * sum_{i>j} beta_i) for ranks j = 1..m.

    phis come from _sic_phis.  SIC decodes rank j only if its margin is
    positive, i.e. (2^R_j - 1) sum_{i>j} beta_i < beta_j.
    """
    for j in range(m):
        yield phis[j], beta[j] - phis[j] * math.fsum(beta[j + 1:])


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
    for j, (phi, denom) in enumerate(_sic_margins(alloc.beta, _sic_phis(rates), m), start=1):
        if denom <= 0.0:
            raise InfeasibleAllocationError(
                j,
                f"allocation infeasible at rank {j}: "
                f"beta_{j} - (2^R-1)*interference = {denom:.6g} <= 0",
            )
        lbs.append(phi / denom)
    return lbs, _binding_threshold(lbs, m, alloc.m_users)


def _binding_threshold(lbs, m: int, m_users: int) -> float:
    """Rank m's binding SIC threshold from the gamma_j^lb of ranks 1..m (or more):
    max_{j <= m} gamma_j^lb for m < M, gamma_M^lb alone for m = M."""
    return lbs[m - 1] if m == m_users else max(lbs[:m])


def _binding_thresholds(alloc: PowerAllocation, rates):
    """Binding SIC threshold of every rank under alloc, from one sic_thresholds
    pass; an allocation that breaks SIC at any rank raises."""
    m_users = alloc.m_users
    lbs, _ = sic_thresholds(alloc, rates, m_users)
    return [_binding_threshold(lbs, m, m_users) for m in range(1, m_users + 1)]


@functools.lru_cache(maxsize=None)
def _ordered_terms(m: int, total: int):
    """ordered_cdf's sum as (coefficient, power) pairs, and its outer factor."""
    terms = [(math.comb(total - m, n) * (-1.0) ** n, m + n) for n in range(total - m + 1)]
    return terms, m * math.comb(total, m)


def ordered_cdf(parent_cdf_value, m: int, total: int):
    """CDF of the m-th smallest of `total` i.i.d. draws, given the parent CDF value:
    m C(total, m) sum_n C(total-m, n) (-1)^n F^(m+n) / (m+n), clipped to [0, 1].
    An array of parent values gives, element by element, the scalar results."""
    if not 1 <= m <= total:
        raise ValueError("rank out of range")
    f = np.asarray(parent_cdf_value, dtype=float)
    values = f.ravel()
    if any(v < 0.0 or v > 1.0 for v in values.tolist()):
        raise ValueError("parent CDF value must lie in [0, 1]")
    terms, factor = _ordered_terms(m, total)
    # F^(m+n) comes from numpy's power, whose bits the results keep; the rest is
    # exactly rounded float arithmetic, the same in Python as in numpy
    powers = [(coef, power, (values**power).tolist()) for coef, power in terms]
    out = []
    for i in range(values.size):
        acc = 0.0
        for coef, power, f_pow in powers:
            acc += coef * f_pow[i] / power
        acc *= factor
        out.append(0.0 if acc < 0.0 else 1.0 if acc > 1.0 else acc)  # np.clip's rule
    return out[0] if f.ndim == 0 else np.array(out).reshape(f.shape)


def _operating_points(points):
    """points as a list of (links, alloc, rates) with rates a tuple of floats,
    and the number of users M that every point must have."""
    points = [(links, alloc, tuple(map(float, rates))) for links, alloc, rates in points]
    m_users = len(points[0][0]) if points else 0
    if any(len(links) != m_users or alloc.m_users != m_users or len(rates) != m_users
           for links, alloc, rates in points):
        raise ValueError("every point needs one link and target rate per user")
    return points, m_users


def _rank_groups(points, rank: int):
    """Indices of _operating_points by rank's link, then by (beta, rates), so
    that each link and each of its operating points is scored once."""
    groups = {}
    for k, (links, alloc, rates) in enumerate(points):
        groups.setdefault(links[rank - 1], {}).setdefault((alloc.beta, rates), []).append(k)
    return groups


def point_outages(points):
    """Closed-form outage of every rank at every operating point: the twin of
    sim_oracle.mc_noma_outage, on the same points and in the same shape.

    points[k] is (links, alloc, rates) with links[m - 1] rank m's link; the
    result holds one list per point with one outage per rank.  Each distinct
    (beta, rates) gets its binding SIC thresholds once.  The distinct (link,
    threshold) pairs of all ranks go through one channels.link_cdfs call,
    which runs each special function once per link kind, and each rank's
    distinct parent values through one ordered_cdf call; both give every
    value the bits of a scalar call.  An allocation that breaks SIC raises
    InfeasibleAllocationError.
    """
    points, m_users = _operating_points(points)
    allocs = {(alloc.beta, rates): alloc for _, alloc, rates in points}
    thresholds = {key: _binding_thresholds(alloc, key[1]) for key, alloc in allocs.items()}
    pairs = {}  # (link, threshold) -> its place in the link_cdfs batch
    slots = [[pairs.setdefault((links[m], thresholds[alloc.beta, rates][m]), len(pairs))
              for links, alloc, rates in points] for m in range(m_users)]
    parent = ch.link_cdfs([link for link, _ in pairs], [g for _, g in pairs])
    outages = [[0.0] * m_users for _ in points]
    for rank, rank_slots in enumerate(slots, start=1):
        distinct = list(dict.fromkeys(rank_slots))
        scores = ordered_cdf([parent[i] for i in distinct], rank, m_users).tolist()
        by_slot = dict(zip(distinct, scores))
        for out, i in zip(outages, rank_slots):
            out[rank - 1] = by_slot[i]
    return outages


class OutageModel:
    """Per-rank outage memo over resolved links of one scenario, for ruom.

    Links are sorted weakest-first by mean direct channel gain; rank m uses
    its own link's parent CDF (direct, RIS-only, or composite with a per-rank
    element count) inside the ordered-statistics outage formula.

    An outage depends on beta only through the rank's binding SIC threshold,
    so the model keeps every allocation's thresholds and every (rank, N,
    threshold) score it has computed, and computes each once.  Scores are
    computed a rank at a time: the thresholds not seen before go through one
    channels.link_cdfs call and one ordered_cdf call, which give every value
    the bits a scalar call gives it.
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
        if any(r <= 0 for r in self.rates):
            raise ValueError("target rates must be positive")
        self._thresholds = {}  # beta -> binding SIC threshold of every rank
        self._scores = {}  # (rank, n_elements) -> {binding threshold: outage}

    def link(self, rank: int, n_elements: int) -> ch.Link:
        """The link of the given rank (1-based) with n_elements RIS elements."""
        return self.links[rank - 1].link(self.link_type, n_elements)

    def outage(self, rank: int, alloc: PowerAllocation, n_elements: int) -> float:
        """Outage of the given rank: the ordered CDF of its link at the binding
        SIC threshold.  An infeasible allocation raises InfeasibleAllocationError."""
        return self._rank_outages(rank, n_elements, (self._threshold(rank, alloc),))[0]

    def outages(self, alloc: PowerAllocation, n_per_rank):
        """Outage of every rank, from one pass over the SIC thresholds."""
        return self.batch_outages([alloc], n_per_rank)[0]

    def batch_outages(self, allocs, n_per_rank):
        """outages(alloc, n_per_rank) of each allocation, scored one rank at a
        time over the whole batch."""
        thresholds = [self.thresholds(alloc) for alloc in allocs]
        per_rank = [
            self._rank_outages(m, int(n_per_rank[m - 1]), [t[m - 1] for t in thresholds])
            for m in range(1, self.m_users + 1)
        ]
        return [list(outs) for outs in zip(*per_rank)]

    def thresholds(self, alloc: PowerAllocation):
        """Binding SIC threshold of every rank under alloc, computed once per beta."""
        out = self._thresholds.get(alloc.beta)
        if out is None:
            out = self._thresholds[alloc.beta] = _binding_thresholds(alloc, self.rates)
        return out

    def _threshold(self, rank: int, alloc: PowerAllocation) -> float:
        """Binding SIC threshold of one rank; an allocation that breaks SIC only
        above the rank still serves it."""
        if not 1 <= rank <= self.m_users:
            raise ValueError("rank out of range")
        try:
            return self.thresholds(alloc)[rank - 1]
        except InfeasibleAllocationError as exc:
            if exc.rank_j <= rank:
                raise
        return sic_thresholds(alloc, self.rates, rank)[1]

    def _rank_outages(self, rank: int, n_elements: int, thresholds):
        """Ordered CDF of the rank's link at each threshold; the thresholds
        not scored before are scored in one pass."""
        if self.link_type == "direct":
            n_elements = 0  # the direct link is the same at every N
        scores = self._scores.setdefault((rank, n_elements), {})
        new = [g for g in dict.fromkeys(thresholds) if g not in scores]
        if new:
            parent = ch.link_cdfs([self.link(rank, n_elements)] * len(new), new)
            scores.update(zip(new, ordered_cdf(parent, rank, self.m_users).tolist()))
        return [scores[g] for g in thresholds]
