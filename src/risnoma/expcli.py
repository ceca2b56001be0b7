"""Experiment harness: config ingestion, sweep runners, validation driver, CLI.

Every runner writes schema-stable CSV plus a JSON run manifest into the
output directory; reruns with identical config and seed are byte-identical.
dBm-to-watt conversion happens once at the config boundary (inside
resolve_links); everything downstream works in linear units.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channels import LINK_KINDS, Link, composite_snr_cdf_quadrature, resolve_links
from .environment import EnvironmentParams, ScenarioConfig, generate_scenario
from .noma import OutageModel, PowerAllocation, ordered_cdf
from .ruom import NoFeasibleAllocationError, RuomParams, ruom
from .sim_oracle import McConfig, mc_noma_outage, mc_snr_cdf

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "dump_config",
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
        if isinstance(self.beta, str) and self.beta != "optimize":
            raise ConfigError("noma.beta must be a list of coefficients or 'optimize'")


@dataclass(frozen=True)
class SweepBlock:
    variable: str = "n_elements"
    grid: tuple = ()
    fixed_n_elements: int = 64
    fixed_tx_power_dbm: float = 37.0
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
        if len(grid) == 0:
            raise ConfigError("sweep.grid must be nonempty")


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
        self.params(self.lambdas[0])  # delegate range checks


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
    formats: tuple = ("csv",)

    def __post_init__(self):
        for fmt in self.formats:
            if fmt not in ("csv",):
                raise ConfigError(f"output format {fmt!r} not supported")


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


_BLOCK_TYPES = {
    "scenario": ScenarioConfig,
    "environment": EnvironmentParams,
    "channel": ChannelBlock,
    "noma": NomaBlock,
    "sweep": SweepBlock,
    "ruom": RuomBlock,
    "mc": McBlock,
    "validation": ValidateBlock,
    "output": OutputBlock,
}


def _build_block(cls, name, data):
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")
        if isinstance(value, list):
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
            if not isinstance(value, int):
                raise ConfigError("seed must be an integer")
            kwargs["seed"] = value
        elif key in _BLOCK_TYPES:
            kwargs[key] = _build_block(_BLOCK_TYPES[key], key, value)
        else:
            raise ConfigError(f"unknown section {key!r}")
    return ExperimentConfig(**kwargs)


def _to_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_to_plain(v) for v in obj]
    return obj


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize a config back to YAML (inverse of load_config)."""
    data = _to_plain(cfg)
    seed = data.pop("seed")
    data["seed"] = seed
    return yaml.safe_dump(data, sort_keys=True)


# ---------------------------------------------------------------------------
# model construction


def _resolved_links(cfg: ExperimentConfig, seed: int, tx_power_dbm=None):
    scen_cfg = cfg.scenario
    if tx_power_dbm is not None:
        scen_cfg = dataclasses.replace(scen_cfg, tx_power_dbm=float(tx_power_dbm))
    scenario = generate_scenario(scen_cfg, seed)
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
    return PowerAllocation(tuple(float(b) / total for b in beta))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, seed: int, extra=None):
    manifest = {
        "config": _to_plain(cfg),
        "seed": seed,
        "package_version": __version__,
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _mc_columns(model: OutageModel, alloc, n_elements: int, mc_cfg):
    """(MC outage, half-width) of every rank, all ranks at n_elements."""
    links = [model.link(rank, n_elements) for rank in range(1, model.m_users + 1)]
    return [(e.value, e.halfwidth) for e in mc_noma_outage(links, alloc, model.rates, mc_cfg)]


def _require_sweep_variable(cfg: ExperimentConfig, variable: str):
    if cfg.sweep.variable != variable:
        raise ConfigError(f"sweep.variable is {cfg.sweep.variable!r}, not {variable!r}")


# ---------------------------------------------------------------------------
# sweep runners


def run_sweep_links(cfg: ExperimentConfig, seed: int, out_dir: Path, mc_enabled: bool):
    """Outage versus RIS element count for direct, RIS-only and composite links."""
    _require_sweep_variable(cfg, "n_elements")
    links = _resolved_links(cfg, seed)
    rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
    models = {lt: OutageModel(links, rates, link_type=lt) for lt in LINK_KINDS}
    alloc = _allocation(cfg, models["composite"])
    rows = []
    for sweep_idx, n_val in enumerate(cfg.sweep.grid):
        n_val = int(n_val)
        for link_type in LINK_KINDS:
            model = models[link_type]
            no_path = link_type == "ris" and n_val == 0  # certain outage
            mc = [(None, None)] * model.m_users
            if mc_enabled and not no_path:
                mc = _mc_columns(model, alloc, n_val, cfg.mc.config(seed_offset=1000 * sweep_idx))
            for rank in range(1, model.m_users + 1):
                analytic = 1.0 if no_path else model.outage(rank, alloc, n_val)
                rows.append(("n_elements", n_val, rank, link_type, analytic, *mc[rank - 1]))
    _write_csv(out_dir / "sweep_links.csv", SWEEP_COLUMNS, rows)
    _write_manifest(out_dir, cfg, seed)
    return rows


def _run_sweep_scalar(cfg, seed, out_dir, mc_enabled, variable, filename):
    _require_sweep_variable(cfg, variable)
    rows = []
    for sweep_idx, value in enumerate(cfg.sweep.grid):
        if variable == "tx_power_dbm":
            links = _resolved_links(cfg, seed, tx_power_dbm=value)
            rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
        else:
            links = _resolved_links(cfg, seed, tx_power_dbm=cfg.sweep.fixed_tx_power_dbm)
            rates = tuple(float(value) for _ in links)
        model = OutageModel(links, rates, link_type="composite")
        alloc = _allocation(cfg, model)
        n_val = int(cfg.sweep.fixed_n_elements)
        mc = [(None, None)] * model.m_users
        if mc_enabled:
            mc = _mc_columns(model, alloc, n_val, cfg.mc.config(seed_offset=1000 * sweep_idx))
        for rank in range(1, model.m_users + 1):
            analytic = model.outage(rank, alloc, n_val)
            rows.append((variable, float(value), rank, "composite", analytic, *mc[rank - 1]))
    _write_csv(out_dir / filename, SWEEP_COLUMNS, rows)
    _write_manifest(out_dir, cfg, seed)
    return rows


def run_sweep_power(cfg: ExperimentConfig, seed: int, out_dir: Path, mc_enabled: bool):
    """Composite-link outage versus BS transmit power at fixed element count."""
    return _run_sweep_scalar(cfg, seed, out_dir, mc_enabled, "tx_power_dbm", "sweep_power.csv")


def run_sweep_rate(cfg: ExperimentConfig, seed: int, out_dir: Path, mc_enabled: bool):
    """Composite-link outage versus target data rate at fixed element count."""
    return _run_sweep_scalar(cfg, seed, out_dir, mc_enabled, "target_rate", "sweep_rate.csv")


def run_ruom_report(cfg: ExperimentConfig, seed: int, out_dir: Path, max_workers=None):
    """Run the optimizer for each configured scaling factor and dump traces."""
    links = _resolved_links(cfg, seed)
    rows = []
    summary = {}
    for lam in cfg.ruom.lambdas:
        rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
        model = OutageModel(links, rates, link_type="composite")
        result = ruom(model, cfg.ruom.params(lam), max_workers=max_workers)
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
    (out_dir / "ruom_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
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
    mc = mc_snr_cdf(direct, grid, cfg.mc.config(0))
    _check(report, "direct_cdf_vs_mc", float(np.max(np.abs(direct.cdf(grid) - mc.values))),
           tols.direct_cdf_abs_tol + mc.halfwidth)

    # RIS-only CDF (element count from the sweep block, at least 16)
    n_val = max(int(cfg.sweep.fixed_n_elements), 16)
    ris = link.link("ris", n_val)
    peak = link.gamma_bar_r * ris.fit.mean_sum**2
    grid = np.linspace(peak * 1e-3, peak * 4.0, 100)
    mc = mc_snr_cdf(ris, grid, cfg.mc.config(1))
    _check(report, "ris_cdf_vs_mc", float(np.max(np.abs(ris.cdf(grid) - mc.values))),
           tols.ris_cdf_abs_tol + mc.halfwidth)

    # composite closed form vs quadrature vs MC, all at the snapped m3
    comp = Link(link.rounded_direct(), ris.ris, link.budget())
    budget = comp.budget
    amp_mean = budget.amp_ris * comp.fit.mean_sum + budget.amp_direct
    grid = np.linspace(1e-3, 4.0, 60) * budget.gamma_bar_c * amp_mean**2
    quad_vals = np.array(
        [composite_snr_cdf_quadrature(comp.fit, comp.direct, budget, g) for g in grid]
    )
    closed_vals = np.array([comp.cdf(g) for g in grid])
    _check(report, "composite_closed_vs_quadrature",
           float(np.max(np.abs(closed_vals - quad_vals))), tols.closed_vs_quadrature_tol)
    mc = mc_snr_cdf(comp, grid, cfg.mc.config(2))
    _check(report, "composite_quadrature_vs_mc",
           float(np.max(np.abs(quad_vals - mc.values))),
           tols.quadrature_vs_mc_tol + mc.halfwidth)

    # ordered-statistics identity: mean of ordered CDFs equals the parent
    for f_parent in (0.15, 0.5, 0.85):
        m_users = len(links)
        avg = sum(ordered_cdf(f_parent, m, m_users) for m in range(1, m_users + 1)) / m_users
        _check(report, f"order_stats_identity_f={f_parent}", abs(avg - f_parent), 1e-12)

    # NOMA outage cross-check at an operating point with visible outage
    rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
    model = OutageModel(links, rates, link_type="composite")
    alloc = _allocation(cfg, model)
    n_fixed = int(cfg.sweep.fixed_n_elements)
    analytic_out = model.outages(alloc, [n_fixed] * len(links))
    mc_out = _mc_columns(model, alloc, n_fixed, cfg.mc.config(3))
    for rank, (a_val, (mc_val, mc_hw)) in enumerate(zip(analytic_out, mc_out), start=1):
        if a_val >= 1e-2 or mc_val >= 1e-2:
            _check(report, f"noma_outage_rank{rank}", abs(a_val - mc_val),
                   tols.outage_abs_tol + mc_hw)

    report["passed"] = all(c["passed"] for c in report["checks"])
    (out_dir / "validate_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
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
    parser.add_argument("--jobs", type=int, default=None, help="parallel worker count")


def _prepare(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seed = args.seed if args.seed is not None else cfg.seed
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
            summary = run_ruom_report(cfg, seed, out_dir, max_workers=args.jobs)
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
