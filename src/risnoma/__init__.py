"""Closed-form outage analysis and power allocation for RIS-assisted
BS-to-UAV downlink NOMA, with a Monte Carlo cross-validation oracle."""

__version__ = "0.1.0"

from .channels import (
    LINK_KINDS,
    LaguerreFit,
    Link,
    LinkBudget,
    LinkChannel,
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
from .environment import (
    EnvironmentParams,
    Position3D,
    RisSite,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    los_probability,
    nakagami_shape,
    noise_power_w,
    path_loss_amplitude,
    path_loss_exponent,
    transmit_snr,
)
from .noma import (
    InfeasibleAllocationError,
    OutageModel,
    PowerAllocation,
    decode_rate,
    ordered_cdf,
    sic_thresholds,
)
from .ruom import (
    NoFeasibleAllocationError,
    RisAssignment,
    RisCapacityExhausted,
    RuomParams,
    RuomResult,
    evaluate_candidates,
    pgs,
    ruom,
)
from .sim_oracle import McCdf, McConfig, McEstimate, mc_noma_outage, mc_snr_cdf
