"""Experiment harness: config ingestion, sweep runners, validation driver, CLI.

Every runner writes schema-stable CSV plus a JSON run manifest into the
output directory; reruns with identical config and seed are byte-identical.
Each result file is rendered whole in memory (the bytes csv.writer and
json.dumps(indent=2, sort_keys=True) would write) and written in one call.
Transmit power in dBm becomes the linear transmit SNR P_t / P_N at the config
boundary (environment.transmit_snr, inside resolve_links and for the
sweep-power grid); everything downstream works in linear units.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channels import LINK_KINDS, Link, composite_snr_cdf_quadrature, resolve_links
from .environment import EnvironmentParams, ScenarioConfig, generate_scenario, transmit_snr
from .noma import (
    OutageModel,
    PowerAllocation,
    _sic_margins,
    _sic_phis,
    ordered_cdf,
    point_outages,
)
from .ruom import NoFeasibleAllocationError, RuomParams, ruom
from .sim_oracle import McConfig, mc_noma_outage, mc_snr_cdf

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_sweep_links",
    "run_sweep_power",
    "run_sweep_rate",
    "run_ruom_report",
    "validate",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

SWEEP_COLUMNS = (
    "sweep_var",
    "sweep_value",
    "uav",
    "link_type",
    "outage_analytic",
    "outage_mc",
    "mc_halfwidth",
)
TRACE_COLUMNS = (
    "lambda",
    "delta",
    "t",
    "uav",
    "outage",
    "n_elements",
    "beta",
)


class ConfigError(ValueError):
    """A configuration file failed schema validation."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _check_rate(key: str, rate):
    # SIC needs 2^R - 1 as a float, and 2.0 ** R overflows from R = 1024 on
    if not (_is_finite_real(rate) and 0 < rate < 1024):
        raise ConfigError(f"{key}: target rate must be a number > 0 and < 1024 bpc, got {rate!r}")


def _check_seed(key: str, seed: int):
    if seed < 0:
        raise ConfigError(f"{key} must be an integer >= 0, got {seed!r}")


def _check_tx_power(key: str, tx_power_dbm, scenario: ScenarioConfig):
    # P_t in watts overflows or underflows a float far outside any real
    # power, and so does the thermal noise of a tiny bandwidth and temperature
    try:
        snr = transmit_snr(tx_power_dbm, scenario.bandwidth_hz, scenario.noise_temp_k)
    except (OverflowError, ZeroDivisionError):
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise ConfigError(
            f"{key}: {tx_power_dbm!r} dBm over the noise of scenario.bandwidth_hz and "
            f"scenario.noise_temp_k gives transmit SNR P_t / P_N = {snr!r}, "
            f"which must be a finite number > 0")


@dataclass(frozen=True)
class ChannelBlock:
    omega: float = 1.0
    m_direct: float | None = None  # None -> derive from LoS probability
    m_hops: float | None = None

    def __post_init__(self):
        if self.omega <= 0:
            raise ConfigError("channel.omega must be positive")
        for name, val in (("m_direct", self.m_direct), ("m_hops", self.m_hops)):
            if val is not None and val < 0.5:
                raise ConfigError(f"channel.{name} must be >= 0.5")


@dataclass(frozen=True)
class NomaBlock:
    beta: tuple | str = (0.9895, 0.0101, 0.0003)

    def __post_init__(self):
        if self.beta == "optimize":
            return
        if not isinstance(self.beta, (tuple, list)):
            raise ConfigError("noma.beta must be a list of coefficients or 'optimize'")
        if not all(_is_finite_real(b) for b in self.beta):
            raise ConfigError(f"noma.beta entries must be finite numbers, got {list(self.beta)}")


@dataclass(frozen=True)
class SweepBlock:
    variable: str = "n_elements"
    grid: tuple = ()
    fixed_n_elements: int = 64
    fixed_target_rate: float = 1.0

    def __post_init__(self):
        if self.variable not in ("n_elements", "tx_power_dbm", "target_rate"):
            raise ConfigError(f"sweep.variable {self.variable!r} not recognized")
        if self.fixed_n_elements < 0:
            raise ConfigError("sweep.fixed_n_elements must be >= 0")
        grid = self.grid
        if not grid:
            defaults = {
                "n_elements": (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
                "tx_power_dbm": tuple(float(p) for p in range(30, 41)),
                "target_rate": tuple(round(0.7 + 0.1 * i, 1) for i in range(9)),
            }
            grid = defaults[self.variable]
            object.__setattr__(self, "grid", grid)
        _check_rate("sweep.fixed_target_rate", self.fixed_target_rate)
        for value in grid:
            if self.variable == "target_rate":
                _check_rate("sweep.grid", value)
            elif self.variable == "tx_power_dbm":
                if not _is_finite_real(value):
                    raise ConfigError(f"sweep.grid: transmit power must be a finite number "
                                      f"of dBm, got {value!r}")
            elif isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 0):
                raise ConfigError(f"sweep.grid: element count must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class RuomBlock:
    lambdas: tuple = (0.1,)
    delta: float = 1e-3
    eps_in: float = 1e-1
    eps_ac: float = 1e-8
    eps_conv: float = 1e-4
    max_iter: int = 100

    def params(self, lam: float) -> RuomParams:
        return RuomParams(
            lam=lam,
            delta=self.delta,
            eps_in=self.eps_in,
            eps_ac=self.eps_ac,
            eps_conv=self.eps_conv,
            max_iter=self.max_iter,
        )

    def __post_init__(self):
        if not self.lambdas:
            raise ConfigError("ruom.lambdas must be nonempty")
        for lam in self.lambdas:
            self.params(lam)  # delegate range checks
        # as ruom_trace.csv prints them, so no two runs share a trace label
        if len({_fmt(lam) for lam in self.lambdas}) < len(self.lambdas):
            raise ConfigError(f"ruom.lambdas entries must be distinct, got {list(self.lambdas)}")


@dataclass(frozen=True)
class McBlock:
    enabled: bool = False
    trials: int = 1_000_000
    seed: int = 1234
    batch: int = 250_000

    def config(self, seed_offset: int = 0) -> McConfig:
        return McConfig(trials=self.trials, seed=self.seed + seed_offset, batch=self.batch)

    def __post_init__(self):
        if self.trials < 1 or self.batch < 1:
            raise ConfigError("mc.trials and mc.batch must be positive")
        _check_seed("mc.seed", self.seed)


@dataclass(frozen=True)
class ValidateBlock:
    direct_cdf_abs_tol: float = 0.005
    ris_cdf_abs_tol: float = 0.01
    closed_vs_quadrature_tol: float = 1e-3
    quadrature_vs_mc_tol: float = 0.01
    outage_abs_tol: float = 0.01

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"validate.{f.name} must be positive")


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    environment: EnvironmentParams = field(default_factory=EnvironmentParams)
    channel: ChannelBlock = field(default_factory=ChannelBlock)
    noma: NomaBlock = field(default_factory=NomaBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    ruom: RuomBlock = field(default_factory=RuomBlock)
    mc: McBlock = field(default_factory=McBlock)
    validation: ValidateBlock = field(default_factory=ValidateBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    seed: int = 0

    def __post_init__(self):
        _check_seed("seed", self.seed)
        _check_tx_power("scenario.tx_power_dbm", self.scenario.tx_power_dbm, self.scenario)
        if self.sweep.variable == "tx_power_dbm":
            for value in self.sweep.grid:
                _check_tx_power("sweep.grid", value, self.scenario)


_BLOCK_TYPES = {f.name: f.default_factory
                for f in dataclasses.fields(ExperimentConfig) if f.name != "seed"}


def _check_type(key: str, default, value):
    """Raise ConfigError unless value can fill the field key with this default.

    A bool default needs true or false, a str default a string, an int
    default an integer, a float default a finite real number, a None default
    None or a finite real number, and a default tuple of numbers, given a
    list, finite real numbers as its entries.  Bools are not numbers; nothing
    is converted.
    """
    if default is None and value is None:
        return
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return
    if isinstance(default, int):
        ok, wanted = _is_real(value) and isinstance(value, numbers.Integral), "an integer"
    elif isinstance(default, float) or default is None:
        ok, wanted = _is_finite_real(value), "a finite number"
    elif isinstance(default, tuple) and isinstance(value, list) and all(map(_is_real, default)):
        ok, wanted = all(map(_is_finite_real, value)), "a list of finite numbers"
    else:
        return
    if not ok:
        message = f"{key} must be {wanted}, got {value!r}"
        # PyYAML takes an exponent for a number only after a dot and a sign;
        # the hint is for a value, or a list entry, that YAML gave as text
        entries = value if isinstance(value, list) else [value]
        if any(isinstance(v, str) for v in entries):
            message += "; YAML reads 1e-3 or 4.0e7 as text, so write 1.0e-3 or 4.0e+7"
        raise ConfigError(message)


def _build_block(cls, name, data):
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")
        _check_type(f"{name}.{key}", known[key].default, value)
        if isinstance(value, list):
            # an empty sweep.grid would read as the default grid
            if not value:
                raise ConfigError(f"{name}.{key} must be nonempty")
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {name!r}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse a YAML experiment file, applying defaults for absent keys."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    kwargs = {}
    for key, value in data.items():
        if key == "seed":
            _check_type("seed", 0, value)
            kwargs["seed"] = value
        elif key in _BLOCK_TYPES:
            kwargs[key] = _build_block(_BLOCK_TYPES[key], key, value)
        else:
            raise ConfigError(f"unknown section {key!r}")
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# model construction


def _resolved_links(cfg: ExperimentConfig, seed: int):
    scenario = generate_scenario(cfg.scenario, seed)
    return resolve_links(
        cfg.environment,
        scenario,
        omega=cfg.channel.omega,
        m_direct=cfg.channel.m_direct,
        m_hops=cfg.channel.m_hops,
    )


def _allocation(cfg: ExperimentConfig, model: OutageModel) -> PowerAllocation:
    beta = cfg.noma.beta
    if beta == "optimize":
        result = ruom(model, cfg.ruom.params(cfg.ruom.lambdas[0]))
        return result.beta_star
    if len(beta) != model.m_users:
        raise ConfigError(
            f"noma.beta has {len(beta)} entries for {model.m_users} UAVs"
        )
    # Published coefficient tables are rounded (e.g. 0.9895+0.0101+0.0003 =
    # 0.9999); renormalize here so the strict sum-to-one invariant holds.
    total = math.fsum(float(b) for b in beta)
    if abs(total - 1.0) > 1e-3:
        raise ConfigError(f"noma.beta must sum to one, got {total}")
    beta = tuple(float(b) / total for b in beta)
    margins = _sic_margins(beta, _sic_phis(model.rates), model.m_users)
    for j, margin in enumerate(margins, start=1):
        if not margin > 0.0:
            raise ConfigError(
                f"noma.beta breaks SIC at rank {j} for target rate {model.rates[j - 1]:g} bpc: "
                f"(2^R - 1) times the coefficients above rank {j} must stay below beta_{j}"
            )
    try:
        return PowerAllocation(beta)
    except ValueError as exc:
        raise ConfigError(f"noma.beta: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _csv_text(columns, rows) -> str:
    """The CSV file csv.writer(lineterminator="\n") writes for these rows.

    Cells are numbers and fixed names, none holding a comma, quote or line
    break, so no cell is ever quoted and joining them is the whole format.
    """
    lines = [",".join(columns)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    lines.append("")
    return "\n".join(lines)


def _json_text(obj, newline="\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, where obj may
    also hold dataclasses, encoded as dicts of their fields.

    Python 3.11 encodes with indent through its pure-Python encoder; this walk
    builds the same text with fewer calls.  newline is a line break plus the
    indent of obj's own level.  Dict keys must be strings.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else ("Infinity" if obj > 0 else "-Infinity")
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_file(path: Path, text: str):
    """Write text to path in one call; newline="" keeps "\n" line ends on
    every platform."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_csv(path: Path, columns, rows):
    _write_file(path, _csv_text(columns, rows))


def _write_json(path: Path, obj):
    _write_file(path, _json_text(obj))


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, seed: int):
    _write_json(out_dir / "manifest.json",
                {"config": cfg, "seed": seed, "package_version": __version__})


def _point(model: OutageModel, alloc, n_elements: int, kind: str = "composite"):
    """One operating point of point_outages and mc_noma_outage: every rank's
    link of the given kind at n_elements."""
    return [link.link(kind, n_elements) for link in model.links], alloc, model.rates


def _mc_cell(est):
    """(outage_mc, mc_halfwidth) of one McEstimate; empty with MC off."""
    return (None, None) if est is None else (est.value, est.halfwidth)


def _require_sweep_variable(cfg: ExperimentConfig, variable: str):
    if cfg.sweep.variable != variable:
        raise ConfigError(f"sweep.variable is {cfg.sweep.variable!r}, not {variable!r}")


# ---------------------------------------------------------------------------
# sweep runners


def run_sweep_links(cfg: ExperimentConfig, seed: int, out_dir: Path, mc_enabled: bool):
    """Outage versus RIS element count for direct, RIS-only and composite links.

    One operating point per (N, kind) cell is scored by point_outages and,
    with MC on, by one mc_noma_outage run: each rank draws one family, every
    distinct link of its UAV over the grid and the link kinds, so all cells
    share common random numbers.
    """
    _require_sweep_variable(cfg, "n_elements")
    links = _resolved_links(cfg, seed)
    rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
    model = OutageModel(links, rates, link_type="composite")
    alloc = _allocation(cfg, model)
    # RIS-only at N = 0 has no path: no point, and certain outage
    cells = [(n, lt) for n in cfg.sweep.grid for lt in LINK_KINDS if lt != "ris" or n > 0]
    points = [_point(model, alloc, n, lt) for n, lt in cells]
    analytic = {(0, "ris"): [1.0] * len(links), **dict(zip(cells, point_outages(points)))}
    mc = dict.fromkeys(analytic, [None] * len(links))
    if mc_enabled:
        mc.update(zip(cells, mc_noma_outage(points, cfg.mc.config(0))))
    rows = [("n_elements", n, rank, lt, analytic[n, lt][rank - 1], *_mc_cell(mc[n, lt][rank - 1]))
            for n in cfg.sweep.grid for lt in LINK_KINDS for rank in range(1, len(links) + 1)]
    _write_csv(out_dir / "sweep_links.csv", SWEEP_COLUMNS, rows)
    _write_manifest(out_dir, cfg, seed)
    return rows


def _run_sweep_scalar(cfg, seed, out_dir, mc_enabled, variable, filename):
    """Composite-link outage at sweep.fixed_n_elements over a power or rate grid.

    One drop serves the whole sweep, resolved at scenario.tx_power_dbm. A rate
    point reuses its links as they are; a power point sets only their
    gamma_bar_c = P_t / P_N, the one link constant transmit power enters.
    With MC on, one run scores every point from one draw per rank, so the
    points share their random numbers and, at fixed beta, the MC columns are
    monotone in the swept variable.  point_outages scores the same points
    for the analytic column.  A power sweep at a fixed noma.beta builds one
    OutageModel and one allocation for all its points, which share the rates
    and so beta; a rate point, and a point that optimizes beta, gets its own.
    """
    _require_sweep_variable(cfg, variable)
    drop = _resolved_links(cfg, seed)
    n_val = int(cfg.sweep.fixed_n_elements)
    rates = tuple(cfg.sweep.fixed_target_rate for _ in drop)
    shared = None
    if variable == "tx_power_dbm" and cfg.noma.beta != "optimize":
        shared = OutageModel(drop, rates, link_type="composite")
        drop, rates, alloc = shared.links, shared.rates, _allocation(cfg, shared)
    points = []
    for value in cfg.sweep.grid:
        links = drop
        if variable == "tx_power_dbm":
            gamma_bar_c = transmit_snr(value, cfg.scenario.bandwidth_hz, cfg.scenario.noise_temp_k)
            links = [link.at_snr(gamma_bar_c) for link in drop]
        else:
            rates = tuple(float(value) for _ in drop)
        if shared is None:
            model = OutageModel(links, rates, link_type="composite")
            points.append(_point(model, _allocation(cfg, model), n_val))
        else:
            points.append(([link.link("composite", n_val) for link in links], alloc, rates))
    analytic = point_outages(points)
    mc = [[None] * len(drop)] * len(points)
    if mc_enabled:
        mc = mc_noma_outage(points, cfg.mc.config(0))
    rows = [(variable, float(value), rank, "composite", outage, *_mc_cell(est))
            for value, outages, ests in zip(cfg.sweep.grid, analytic, mc)
            for rank, (outage, est) in enumerate(zip(outages, ests), start=1)]
    _write_csv(out_dir / filename, SWEEP_COLUMNS, rows)
    _write_manifest(out_dir, cfg, seed)
    return rows


def run_sweep_power(cfg: ExperimentConfig, seed: int, out_dir: Path, mc_enabled: bool):
    """Composite-link outage versus BS transmit power at fixed element count."""
    return _run_sweep_scalar(cfg, seed, out_dir, mc_enabled, "tx_power_dbm", "sweep_power.csv")


def run_sweep_rate(cfg: ExperimentConfig, seed: int, out_dir: Path, mc_enabled: bool):
    """Composite-link outage versus target data rate at fixed element count."""
    return _run_sweep_scalar(cfg, seed, out_dir, mc_enabled, "target_rate", "sweep_rate.csv")


def run_ruom_report(cfg: ExperimentConfig, seed: int, out_dir: Path):
    """Run the optimizer for each configured scaling factor and dump traces."""
    links = _resolved_links(cfg, seed)
    rows = []
    summary = {}
    for lam in cfg.ruom.lambdas:
        rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
        model = OutageModel(links, rates, link_type="composite")
        result = ruom(model, cfg.ruom.params(lam))
        for rec in result.trace.iterations:
            for rank in range(1, model.m_users + 1):
                rows.append(
                    (
                        lam,
                        cfg.ruom.delta,
                        rec.t,
                        rank,
                        rec.outages[rank - 1],
                        rec.n_per_rank[rank - 1],
                        rec.beta[rank - 1],
                    )
                )
        final = result.trace.iterations[-1]
        summary[str(lam)] = {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_outages": list(final.outages),
            "final_n": list(final.n_per_rank),
            "final_beta": list(final.beta),
            "total_elements": final.total_elements,
            "max_outage_below_delta": final.max_outage < cfg.ruom.delta,
            "capacity_events": len(result.trace.events),
        }
    _write_csv(out_dir / "ruom_trace.csv", TRACE_COLUMNS, rows)
    _write_json(out_dir / "ruom_summary.json", summary)
    _write_manifest(out_dir, cfg, seed)
    return summary


# ---------------------------------------------------------------------------
# validation driver


def _check(report, name, value, bound):
    report["checks"].append(
        {"name": name, "value": value, "bound": bound, "passed": bool(value <= bound)}
    )


def validate(cfg: ExperimentConfig, seed: int, out_dir: Path):
    """Analytic-versus-Monte-Carlo agreement suite on the configured scenario.

    Every check widens its stated tolerance by the MC half-width, so an
    underpowered trial count degrades bounds honestly instead of failing.
    """
    tols = cfg.validation
    links = _resolved_links(cfg, seed)
    link = max(links, key=lambda l: l.gamma_bar_r)  # strongest RIS coupling
    report = {"checks": [], "seed": seed, "trials": cfg.mc.trials}

    # direct-link CDF
    direct = link.link("direct", 0)
    grid = np.geomspace(link.gamma_bar_d * 1e-3, link.gamma_bar_d * 10.0, 60)
    [mc] = mc_snr_cdf([direct], [grid], cfg.mc.config(0))
    _check(report, "direct_cdf_vs_mc", float(np.max(np.abs(direct.cdf(grid) - mc.values))),
           tols.direct_cdf_abs_tol + mc.halfwidth)

    # RIS-only and composite CDFs (element count from the sweep block, at
    # least 16), drawn from one family: same RIS, same N, one seed; the
    # composite is checked at the snapped m3 against closed form,
    # quadrature and MC
    n_val = max(int(cfg.sweep.fixed_n_elements), 16)
    ris = link.link("ris", n_val)
    peak = link.gamma_bar_r * ris.fit.mean_sum**2
    ris_grid = np.linspace(peak * 1e-3, peak * 4.0, 100)
    comp = Link(link.rounded_direct(), ris.ris, link.budget())
    budget = comp.budget
    amp_mean = budget.amp_ris * comp.fit.mean_sum + budget.amp_direct
    comp_grid = np.linspace(1e-3, 4.0, 60) * budget.gamma_bar_c * amp_mean**2
    ris_mc, comp_mc = mc_snr_cdf([ris, comp], [ris_grid, comp_grid], cfg.mc.config(1))
    _check(report, "ris_cdf_vs_mc", float(np.max(np.abs(ris.cdf(ris_grid) - ris_mc.values))),
           tols.ris_cdf_abs_tol + ris_mc.halfwidth)
    quad_vals = composite_snr_cdf_quadrature(comp.fit, comp.direct, budget, comp_grid)
    closed_vals = comp.cdf(comp_grid)
    _check(report, "composite_closed_vs_quadrature",
           float(np.max(np.abs(closed_vals - quad_vals))), tols.closed_vs_quadrature_tol)
    _check(report, "composite_quadrature_vs_mc",
           float(np.max(np.abs(quad_vals - comp_mc.values))),
           tols.quadrature_vs_mc_tol + comp_mc.halfwidth)

    # ordered-statistics identity: mean of ordered CDFs equals the parent
    for f_parent in (0.15, 0.5, 0.85):
        m_users = len(links)
        avg = sum(ordered_cdf(f_parent, m, m_users) for m in range(1, m_users + 1)) / m_users
        _check(report, f"order_stats_identity_f={f_parent}", abs(avg - f_parent), 1e-12)

    # NOMA outage cross-check at an operating point with visible outage
    rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
    model = OutageModel(links, rates, link_type="composite")
    alloc = _allocation(cfg, model)
    points = [_point(model, alloc, int(cfg.sweep.fixed_n_elements))]
    [analytic_out] = point_outages(points)
    [mc_out] = mc_noma_outage(points, cfg.mc.config(3))
    for rank, (a_val, est) in enumerate(zip(analytic_out, mc_out), start=1):
        if a_val >= 1e-2 or est.value >= 1e-2:
            _check(report, f"noma_outage_rank{rank}", abs(a_val - est.value),
                   tols.outage_abs_tol + est.halfwidth)

    report["passed"] = all(c["passed"] for c in report["checks"])
    _write_json(out_dir / "validate_report.json", report)
    _write_manifest(out_dir, cfg, seed)
    return report


# ---------------------------------------------------------------------------
# CLI


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None, help="YAML experiment file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--mc", action=argparse.BooleanOptionalAction, default=None,
                        help="enable/disable the Monte Carlo columns")


def _prepare(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seed = args.seed if args.seed is not None else cfg.seed
    _check_seed("--seed", seed)
    out_dir = args.out if args.out is not None else Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    mc_enabled = cfg.mc.enabled if args.mc is None else bool(args.mc)
    return cfg, seed, out_dir, mc_enabled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risnoma",
        description="Outage analysis and power allocation for RIS-assisted UAV NOMA downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep-links", "sweep-power", "sweep-rate", "ruom", "validate"):
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)

    try:
        cfg, seed, out_dir, mc_enabled = _prepare(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "sweep-links":
            run_sweep_links(cfg, seed, out_dir, mc_enabled)
        elif args.command == "sweep-power":
            run_sweep_power(cfg, seed, out_dir, mc_enabled)
        elif args.command == "sweep-rate":
            run_sweep_rate(cfg, seed, out_dir, mc_enabled)
        elif args.command == "ruom":
            summary = run_ruom_report(cfg, seed, out_dir)
            for lam, entry in summary.items():
                status = "converged" if entry["converged"] else "max-iter"
                print(f"lambda={lam}: {status} after {entry['iterations']} iterations, "
                      f"max outage below delta: {entry['max_outage_below_delta']}")
        elif args.command == "validate":
            report = validate(cfg, seed, out_dir)
            for check in report["checks"]:
                flag = "PASS" if check["passed"] else "FAIL"
                print(f"[{flag}] {check['name']}: {check['value']:.3e} "
                      f"(bound {check['bound']:.3e})")
            if not report["passed"]:
                return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoFeasibleAllocationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
