"""Config ingestion, sweep runners, validation driver and CLI exit codes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risnoma import expcli, sim_oracle
from risnoma.expcli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    main,
)

FAST_YAML = """
seed: 7
scenario:
  tx_power_dbm: 30.0
channel:
  m_direct: 1.0
  m_hops: 2.0
sweep:
  variable: n_elements
  grid: [0, 4, 16, 64]
  fixed_n_elements: 64
mc:
  enabled: false
  trials: 20000
  seed: 5
"""


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadConfig:
    def test_empty_file_gives_table_i_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, ""))
        assert cfg.scenario.cell_radius_m == 2000.0
        assert cfg.scenario.tx_power_dbm == 37.0
        assert cfg.scenario.bandwidth_hz == 40e6
        assert cfg.scenario.noise_temp_k == 290.0
        assert cfg.scenario.max_ris_elements == 1024
        assert cfg.environment.zeta == 20.0 and cfg.environment.v == 3e-4
        assert cfg.noma.beta == (0.9895, 0.0101, 0.0003)

    def test_schema_error_names_field(self, tmp_path):
        p = _write(tmp_path, "scenario:\n  bandwidth_hz: -5.0\n")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "bandwidth" in str(exc.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(_write(tmp_path, "sweep:\n  varible: n_elements\n"))
        assert "varible" in str(exc.value)

    @pytest.mark.parametrize("text", ["scenario:\n  target_rate_bpc: 3.0\n",
                                      "output:\n  formats: [csv]\n"],
                             ids=["target_rate_bpc", "formats"])
    def test_removed_keys_rejected(self, tmp_path, text):
        # rates come from sweep.fixed_target_rate and every writer writes CSV
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_write(tmp_path, text))

    def test_round_trip_idempotent(self, tmp_path):
        cfg = load_config(_write(tmp_path, FAST_YAML))
        again = load_config(_write(tmp_path, dump_config(cfg), "again.yaml"))
        assert cfg == again

    def test_zero_tolerance_rejected(self, tmp_path):
        p = _write(tmp_path, "validation:\n  outage_abs_tol: 0.0\n")
        with pytest.raises(ConfigError):
            load_config(p)


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("links")
    cfg = _write(tmp, FAST_YAML)
    assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp)]) == EXIT_OK
    return _read_rows(tmp / "sweep_links.csv"), tmp


class TestSweepLinks:
    def test_schema(self, rows):
        data, _ = rows
        assert list(data[0].keys()) == [
            "sweep_var", "sweep_value", "uav", "link_type",
            "outage_analytic", "outage_mc", "mc_halfwidth",
        ]
        assert all(r["sweep_var"] == "n_elements" for r in data)
        assert all(r["outage_mc"] == "" for r in data)  # mc disabled

    def test_composite_n0_equals_direct(self, rows):
        data, _ = rows
        for uav in ("1", "2", "3"):
            direct = [r for r in data if r["uav"] == uav and r["link_type"] == "direct"
                      and r["sweep_value"] == "0"][0]
            comp = [r for r in data if r["uav"] == uav and r["link_type"] == "composite"
                    and r["sweep_value"] == "0"][0]
            assert direct["outage_analytic"] == comp["outage_analytic"]

    def test_monotone_in_elements(self, rows):
        data, _ = rows
        for uav in ("1", "2", "3"):
            for lt in ("direct", "ris", "composite"):
                curve = [float(r["outage_analytic"]) for r in data
                         if r["uav"] == uav and r["link_type"] == lt]
                assert all(x >= y - 1e-12 for x, y in zip(curve, curve[1:]))

    def test_manifest_written(self, rows):
        _, tmp = rows
        manifest = json.loads((tmp / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["scenario"]["tx_power_dbm"] == 30.0


class TestScalarSweeps:
    def test_power_trend_and_fig2_slice(self, tmp_path):
        text = FAST_YAML.replace(
            "variable: n_elements", "variable: tx_power_dbm"
        ).replace("grid: [0, 4, 16, 64]", "grid: [30.0, 34.0, 37.0, 40.0]")
        cfg = _write(tmp_path, text)
        assert main(["sweep-power", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        rows = _read_rows(tmp_path / "sweep_power.csv")
        for uav in ("1", "2", "3"):
            curve = [float(r["outage_analytic"]) for r in rows if r["uav"] == uav]
            assert all(x > y for x, y in zip(curve, curve[1:]))  # 30 -> 40 dBm decreasing

        # P_t = 37 dBm slice coincides with the Fig. 2 composite run at N=64
        links_yaml = FAST_YAML.replace("tx_power_dbm: 30.0", "tx_power_dbm: 37.0")
        cfg2 = _write(tmp_path, links_yaml, "links.yaml")
        out2 = tmp_path / "links"
        assert main(["sweep-links", "--config", str(cfg2), "--out", str(out2)]) == EXIT_OK
        link_rows = _read_rows(out2 / "sweep_links.csv")
        for uav in ("1", "2", "3"):
            a = [r for r in rows if r["uav"] == uav and float(r["sweep_value"]) == 37.0][0]
            b = [r for r in link_rows if r["uav"] == uav and r["link_type"] == "composite"
                 and r["sweep_value"] == "64"][0]
            assert a["outage_analytic"] == b["outage_analytic"]

    def test_rate_trend(self, tmp_path):
        text = FAST_YAML.replace(
            "variable: n_elements", "variable: target_rate"
        ).replace("grid: [0, 4, 16, 64]", "grid: [0.7, 0.9, 1.1, 1.3, 1.5]")
        cfg = _write(tmp_path, text)
        assert main(["sweep-rate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        rows = _read_rows(tmp_path / "sweep_rate.csv")
        for uav in ("1", "2", "3"):
            curve = [float(r["outage_analytic"]) for r in rows if r["uav"] == uav]
            assert all(x < y for x, y in zip(curve, curve[1:]))  # rate up -> outage up


class TestRuomCommand:
    def test_lambda_grid_report(self, tmp_path):
        text = FAST_YAML + "ruom:\n  lambdas: [0.1, 0.5]\n  delta: 1.0e-3\n"
        cfg = _write(tmp_path, text)
        assert main(["ruom", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "ruom_summary.json").read_text())
        assert set(summary) == {"0.1", "0.5"}
        rows = _read_rows(tmp_path / "ruom_trace.csv")
        assert {r["lambda"] for r in rows} == {"1.000000000000e-01", "5.000000000000e-01"}
        for lam, entry in summary.items():
            assert entry["max_outage_below_delta"]
            # element budget shrinks (or holds) between t=1 and t*
            lam_rows = [r for r in rows if float(r["lambda"]) == float(lam)]
            t1 = sum(int(r["n_elements"]) for r in lam_rows if r["t"] == "1")
            tstar = entry["total_elements"]
            assert tstar <= t1

    def test_infeasible_exit_code(self, tmp_path):
        text = FAST_YAML.replace("fixed_n_elements: 64",
                                 "fixed_n_elements: 64\n  fixed_target_rate: 5.0")
        cfg = _write(tmp_path, text)
        assert main(["ruom", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INFEASIBLE


class TestValidateCommand:
    def test_small_suite_passes(self, tmp_path):
        text = FAST_YAML.replace("enabled: false", "enabled: true")
        cfg = _write(tmp_path, text)
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["passed"] and len(report["checks"]) >= 5

    def test_failing_tolerance_exit_code(self, tmp_path):
        # a (legal) absurdly tight tolerance forces a reported failure
        text = FAST_YAML + "validation:\n  closed_vs_quadrature_tol: 1.0e-15\n"
        cfg = _write(tmp_path, text)
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION


class TestValidateFormerQuadratureFailures:
    """Drops of the benchmark's validate config where the adaptive quadrature
    this reference replaced raised RuntimeError."""

    @pytest.mark.parametrize("drop", (5, 25, 30, 36))
    def test_returns_report(self, tmp_path, drop):
        cfg = load_config(Path(__file__).resolve().parent.parent
                          / "perfbench" / "configs" / "validate.yaml")
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, trials=2000, batch=2000))
        report = expcli.validate(cfg, drop, tmp_path)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["composite_closed_vs_quadrature"]["passed"]
        assert "composite_quadrature_vs_mc" in checks


def test_cli_import_leaves_scipy_integrate_out():
    src = str(Path(expcli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import risnoma.expcli, sys; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCliErrors:
    def test_config_error_exit_code(self, tmp_path):
        cfg = _write(tmp_path, "scenario:\n  bandwidth_hz: -1\n")
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep-links", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("cmd", ["sweep-power", "sweep-rate"])
    def test_default_sweep_variable_mismatch(self, tmp_path, cmd):
        # the default sweep.variable is n_elements, which only sweep-links sweeps
        assert main([cmd, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("beta, rate, message", [
        # at 1 bpc rank 1 needs beta_1 > beta_2 + beta_3
        ("[0.2, 0.3, 0.5]", 1.0, "noma.beta breaks SIC at rank 1 for target rate 1 bpc"),
        ("[0.5, 0.3, 0.2]", 1.0, "noma.beta breaks SIC at rank 1 for target rate 1 bpc"),
        # decodable at 0.5 bpc, but not a NOMA order
        ("[0.3, 0.35, 0.35]", 0.5, "strictly decreasing"),
    ], ids=["increasing", "rank1_at_margin", "unordered_low_rate"])
    def test_bad_beta(self, tmp_path, capsys, beta, rate, message):
        text = FAST_YAML.replace("fixed_n_elements: 64",
                                 f"fixed_n_elements: 64\n  fixed_target_rate: {rate}")
        cfg = _write(tmp_path, text + f"noma:\n  beta: {beta}\n")
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_sic_checked_at_each_swept_rate(self, tmp_path, capsys):
        # (0.7, 0.2, 0.1) decodes at 1 bpc but not at 2 bpc, where 3 * 0.3 > 0.7
        text = FAST_YAML.replace("variable: n_elements", "variable: target_rate")
        text = text.replace("grid: [0, 4, 16, 64]", "grid: [1.0, 2.0]")
        cfg = _write(tmp_path, text + "noma:\n  beta: [0.7, 0.2, 0.1]\n")
        assert main(["sweep-rate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "rank 1 for target rate 2 bpc" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, edits, key", [
        ("sweep-links", [("fixed_n_elements: 64", "fixed_n_elements: 64\n  fixed_target_rate: 0.0")],
         "sweep.fixed_target_rate"),
        ("sweep-links", [("fixed_n_elements: 64", "fixed_n_elements: 64\n  fixed_target_rate: .nan")],
         "sweep.fixed_target_rate"),
        ("sweep-rate", [("variable: n_elements", "variable: target_rate"),
                        ("grid: [0, 4, 16, 64]", "grid: [1.0, 0.0]")], "sweep.grid"),
    ], ids=["zero", "nan", "zero_in_rate_grid"])
    def test_bad_target_rate(self, tmp_path, capsys, cmd, edits, key):
        text = FAST_YAML
        for old, new in edits:
            text = text.replace(old, new)
        cfg = _write(tmp_path, text)
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["[a, 0.3, 0.2]", "[true, 0.3, 0.2]", "0.5"])
    def test_non_numeric_beta(self, tmp_path, capsys, beta):
        cfg = _write(tmp_path, FAST_YAML + f"noma:\n  beta: {beta}\n")
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "noma.beta" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, variable, grid", [
        ("sweep-links", "n_elements", "[0, 2.5]"),
        ("sweep-links", "n_elements", "[0, -4]"),
        ("sweep-links", "n_elements", "[0, true]"),
        ("sweep-power", "tx_power_dbm", "[30, abc]"),
        ("sweep-power", "tx_power_dbm", "[30, .inf]"),
    ], ids=["fractional_n", "negative_n", "bool_n", "text_power", "infinite_power"])
    def test_bad_sweep_grid(self, tmp_path, capsys, cmd, variable, grid):
        text = FAST_YAML.replace("variable: n_elements", f"variable: {variable}")
        cfg = _write(tmp_path, text.replace("grid: [0, 4, 16, 64]", f"grid: {grid}"))
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "sweep.grid" in capsys.readouterr().err

    def test_every_lambda_checked(self, tmp_path):
        cfg = _write(tmp_path, FAST_YAML + "ruom:\n  lambdas: [0.1, abc]\n")
        assert main(["ruom", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_sweep_links_variable_mismatch(self, tmp_path):
        cfg = _write(tmp_path, FAST_YAML.replace("variable: n_elements", "variable: target_rate"))
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


class TestMcCalls:
    """One Monte Carlo run covers every rank: a whole sweep-links grid, or one
    point of a scalar sweep."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return mc_noma_outage(*args, **kwargs)

        mc_noma_outage = expcli.mc_noma_outage
        monkeypatch.setattr(expcli, "mc_noma_outage", counting)
        return calls

    def test_sweep_links(self, tmp_path, calls):
        text = FAST_YAML.replace("grid: [0, 4, 16, 64]", "grid: [0, 4]")
        cfg = _write(tmp_path, text.replace("trials: 20000", "trials: 500"))
        assert main(["sweep-links", "--config", str(cfg), "--mc", "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1
        # each rank's family: direct (= composite at N=0), RIS-only and composite at N=4
        families = calls[0][0]
        assert [len(family) for family in families] == [3, 3, 3]
        # N=0: direct and composite (RIS-only has no path); N=4: all three
        rows = _read_rows(tmp_path / "sweep_links.csv")
        assert sum(r["outage_mc"] != "" for r in rows) == 5 * 3

    def test_sweep_rate(self, tmp_path, calls):
        text = FAST_YAML.replace("variable: n_elements", "variable: target_rate")
        text = text.replace("grid: [0, 4, 16, 64]", "grid: [0.8, 1.2]")
        cfg = _write(tmp_path, text.replace("trials: 20000", "trials: 500"))
        assert main(["sweep-rate", "--config", str(cfg), "--mc", "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 2


class _CountingRng:
    """A Generator stand-in that counts the gamma variates drawn through it."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def gamma(self, shape, scale=1.0, size=None):
        self._counts.append(int(np.prod(size)))
        return self._rng.gamma(shape, scale, size)

    def standard_gamma(self, shape, size=None, out=None):
        self._counts.append(int(np.prod(size)) if out is None else out.size)
        return self._rng.standard_gamma(shape, size, out=out)


class TestSweepLinksSharedDraws:
    """sweep-links draws each UAV's fading once per batch for the whole grid."""

    @pytest.mark.parametrize("tx_power", [30.0, 50.0])
    def test_mc_columns_ordered(self, tmp_path, tx_power):
        # S_N grows with N and the rate event is monotone in the SNR, so the
        # shared draws order the MC columns exactly, rank by rank; at 30 dBm
        # direct and composite outages are visible, at 50 dBm RIS-only ones
        text = FAST_YAML.replace("grid: [0, 4, 16, 64]", "grid: [0, 16, 17, 64]")
        text = text.replace("tx_power_dbm: 30.0", f"tx_power_dbm: {tx_power}")
        cfg = _write(tmp_path, text.replace("trials: 20000", "trials: 2000"))
        assert main(["sweep-links", "--config", str(cfg), "--mc", "--out", str(tmp_path)]) == EXIT_OK
        mc = {(int(r["sweep_value"]), r["uav"], r["link_type"]): float(r["outage_mc"])
              for r in _read_rows(tmp_path / "sweep_links.csv") if r["outage_mc"]}
        for rank in ("1", "2", "3"):
            for kind, grid in (("ris", (16, 17, 64)), ("composite", (0, 16, 17, 64))):
                column = [mc[(n, rank, kind)] for n in grid]
                assert column == sorted(column, reverse=True), (rank, kind, column)
            for n in (0, 16, 17, 64):
                assert mc[(n, rank, "composite")] <= mc[(n, rank, "direct")]
                if n:
                    assert mc[(n, rank, "composite")] <= mc[(n, rank, "ris")]

    def test_gamma_draws(self, tmp_path, monkeypatch):
        # M ranks x M rows x T trials x (2 max(grid) + 1): two gamma
        # variates per element up to the largest N and one direct amplitude
        counts = []
        batch_rng = sim_oracle.batch_rng
        monkeypatch.setattr(sim_oracle, "batch_rng",
                            lambda seed, idx: _CountingRng(batch_rng(seed, idx), counts))
        text = FAST_YAML.replace("grid: [0, 4, 16, 64]", "grid: [0, 16, 64]")
        cfg = load_config(_write(tmp_path, text.replace("trials: 20000", "trials: 300")))
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, batch=128))
        expcli.run_sweep_links(cfg, 7, tmp_path, True)
        assert sum(counts) == 3 * 3 * 300 * (2 * 64 + 1)


class TestDeterminism:
    def test_sweep_bytes_identical(self, tmp_path):
        cfg = _write(tmp_path, FAST_YAML.replace("enabled: false", "enabled: true"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["sweep-links", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out_a / "sweep_links.csv").read_bytes() == (out_b / "sweep_links.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write(tmp_path, FAST_YAML)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep-links", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep-links", "--config", str(cfg), "--seed", "8",
                     "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "sweep_links.csv").read_bytes() != (out_b / "sweep_links.csv").read_bytes()
