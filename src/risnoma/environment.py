"""Scenario geometry, stochastic placement, LoS model and path-loss derivation.

The air-to-ground propagation model blends LoS/NLoS path-loss exponents by a
building-statistics LoS probability, and maps that probability to a
Nakagami shape parameter through a Rician K-factor fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special_math import q_function

__all__ = [
    "BOLTZMANN",
    "EnvironmentParams",
    "Position3D",
    "RisSite",
    "Scenario",
    "ScenarioConfig",
    "los_probability",
    "path_loss_exponent",
    "nakagami_shape",
    "path_loss_amplitude",
    "noise_power_w",
    "dbm_to_watt",
    "transmit_snr",
    "generate_scenario",
]

BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class EnvironmentParams:
    """Built-up environment constants: spread zeta, density v (per m^2),
    building-height scale mu, and LoS/NLoS path-loss exponents."""

    zeta: float = 20.0
    v: float = 3e-4
    mu: float = 0.5
    alpha_los: float = 2.0
    alpha_nlos: float = 3.5

    def __post_init__(self):
        if self.zeta <= 0 or self.v <= 0 or self.mu <= 0:
            raise ValueError("zeta, v and mu must be positive")
        if not (2.0 <= self.alpha_los <= self.alpha_nlos):
            raise ValueError("require 2 <= alpha_los <= alpha_nlos")


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("altitude must be nonnegative")

    def horizontal_distance(self, other: "Position3D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def vertical_distance(self, other: "Position3D") -> float:
        return abs(self.z - other.z)

    def distance(self, other: "Position3D") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


@dataclass(frozen=True)
class RisSite:
    position: Position3D
    max_elements: int

    def __post_init__(self):
        if self.max_elements < 1:
            raise ValueError("a RIS needs at least one element")


@dataclass(frozen=True)
class Scenario:
    """One concrete network drop: BS, M UAVs, K RIS sites plus radio constants."""

    bs: Position3D
    uavs: tuple
    riss: tuple
    tx_power_dbm: float
    bandwidth_hz: float
    noise_temp_k: float
    cell_radius_m: float
    seed: int

    def __post_init__(self):
        if len(self.uavs) < 1 or len(self.riss) < 1:
            raise ValueError("need at least one UAV and one RIS")
        for p in self.uavs:
            if p.horizontal_distance(self.bs) > self.cell_radius_m + 1e-9:
                raise ValueError("UAV outside cell radius")
        for r in self.riss:
            if r.position.horizontal_distance(self.bs) > self.cell_radius_m + 1e-9:
                raise ValueError("RIS outside cell radius")

    @property
    def n_uavs(self) -> int:
        return len(self.uavs)

    @property
    def n_ris(self) -> int:
        return len(self.riss)


@dataclass(frozen=True)
class ScenarioConfig:
    """Placement/radio configuration used by generate_scenario.

    The BS height and the RIS altitude band are not pinned by the propagation
    model; the defaults (25 m mast, RIS on 20-40 m rooftops) are exposed here
    so experiments can override them.
    """

    n_uavs: int = 3
    n_ris: int = 3
    cell_radius_m: float = 2000.0
    bs_height_m: float = 25.0
    uav_altitude_m: tuple = (80.0, 120.0)
    ris_altitude_m: tuple = (20.0, 40.0)
    max_ris_elements: int = 1024
    tx_power_dbm: float = 37.0
    bandwidth_hz: float = 40e6
    noise_temp_k: float = 290.0

    def __post_init__(self):
        if self.n_uavs < 1 or self.n_ris < 1:
            raise ValueError("need at least one UAV and one RIS")
        if self.cell_radius_m <= 0:
            raise ValueError("cell radius must be positive")
        for lo, hi in (self.uav_altitude_m, self.ris_altitude_m):
            if not (0 <= lo <= hi):
                raise ValueError("altitude band must satisfy 0 <= low <= high")
        if self.max_ris_elements < 1:
            raise ValueError("max_ris_elements must be >= 1")
        if self.bandwidth_hz <= 0 or self.noise_temp_k <= 0:
            raise ValueError("bandwidth and temperature must be positive")


def los_probability(env: EnvironmentParams, a: Position3D, b: Position3D) -> float:
    """LoS probability between two endpoints.

    Equal altitudes use the slant-distance exponent d*sqrt(v*mu); unequal
    altitudes use the horizontal-distance exponent with a Q-function
    difference over the altitude gap.  The two branches are selected exactly
    on altitude equality (they are not guaranteed to join continuously).
    """
    d = a.distance(b)
    if a.z == b.z:
        if d == 0.0:
            return 1.0
        base = 1.0 - math.exp(-(a.z**2) / (2.0 * env.zeta**2))
        expo = d * math.sqrt(env.v * env.mu)
        return base**expo
    dh = a.horizontal_distance(b)
    dv = a.vertical_distance(b)
    qdiff = abs(q_function(a.z / env.zeta) - q_function(b.z / env.zeta))
    base = 1.0 - math.sqrt(2.0 * math.pi) * env.zeta / dv * qdiff
    base = min(max(base, 0.0), 1.0)
    expo = dh * math.sqrt(env.v * env.mu)
    if base == 0.0 and expo == 0.0:
        return 1.0
    return base**expo


def path_loss_exponent(env: EnvironmentParams, p_los: float) -> float:
    """Blend the LoS/NLoS exponents: alpha = alpha_L*P_L + alpha_N*(1 - P_L)."""
    if not 0.0 <= p_los <= 1.0:
        raise ValueError("p_los must lie in [0, 1]")
    return env.alpha_los * p_los + env.alpha_nlos * (1.0 - p_los)


def nakagami_shape(p_los: float) -> float:
    """Nakagami shape from LoS probability via the Rician K-factor fit:
    m = (exp(2.708 p^2) + 1)^2 / (2 exp(2.708 p^2) + 1)."""
    if not 0.0 <= p_los <= 1.0:
        raise ValueError("p_los must lie in [0, 1]")
    e = math.exp(2.708 * p_los**2)
    return (e + 1.0) ** 2 / (2.0 * e + 1.0)


def path_loss_amplitude(
    env: EnvironmentParams, a: Position3D, b: Position3D, p_los: float
) -> float:
    """Amplitude-domain path loss d^(-alpha/2), with the exponent alpha blended
    by p_los, the pair's LoS probability (los_probability(env, a, b))."""
    d = a.distance(b)
    if d == 0.0:
        raise ValueError("path_loss_amplitude is undefined for coincident endpoints")
    alpha = path_loss_exponent(env, p_los)
    return d ** (-alpha / 2.0)


def noise_power_w(bandwidth_hz: float, temp_k: float) -> float:
    """Thermal noise power kappa*T*B in watts."""
    if bandwidth_hz <= 0 or temp_k <= 0:
        raise ValueError("bandwidth and temperature must be positive")
    return BOLTZMANN * temp_k * bandwidth_hz


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def transmit_snr(tx_power_dbm: float, bandwidth_hz: float, temp_k: float) -> float:
    """Transmit SNR gamma_bar_c = P_t / P_N, linear, of a P_t in dBm over thermal noise."""
    return dbm_to_watt(tx_power_dbm) / noise_power_w(bandwidth_hz, temp_k)


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Draw a scenario with UAVs and RISs placed uniformly in the disc
    (a Poisson field conditioned on the configured counts), altitudes
    uniform in their bands.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw_points(count, alt_band):
        radii = config.cell_radius_m * np.sqrt(rng.random(count))
        angles = 2.0 * math.pi * rng.random(count)
        alts = rng.uniform(alt_band[0], alt_band[1], size=count)
        return tuple(
            Position3D(float(r * math.cos(t)), float(r * math.sin(t)), float(z))
            for r, t, z in zip(radii, angles, alts)
        )

    uavs = draw_points(config.n_uavs, config.uav_altitude_m)
    ris_positions = draw_points(config.n_ris, config.ris_altitude_m)
    riss = tuple(RisSite(p, config.max_ris_elements) for p in ris_positions)
    return Scenario(
        bs=Position3D(0.0, 0.0, config.bs_height_m),
        uavs=uavs,
        riss=riss,
        tx_power_dbm=config.tx_power_dbm,
        bandwidth_hz=config.bandwidth_hz,
        noise_temp_k=config.noise_temp_k,
        cell_radius_m=config.cell_radius_m,
        seed=seed,
    )
