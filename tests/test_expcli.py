"""Config ingestion, sweep runners, validation driver and CLI exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from risnoma import __version__, channels, expcli, noma, sim_oracle
from risnoma.environment import transmit_snr
from risnoma.expcli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
)
from risnoma.noma import OutageModel, ordered_cdf, sic_thresholds

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
                                      "output:\n  formats: [csv]\n",
                                      "sweep:\n  fixed_tx_power_dbm: 37.0\n"],
                             ids=["target_rate_bpc", "formats", "fixed_tx_power_dbm"])
    def test_removed_keys_rejected(self, tmp_path, text):
        # rates come from sweep.fixed_target_rate, every writer writes CSV and
        # every subcommand but sweep-power runs at scenario.tx_power_dbm
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_write(tmp_path, text))

    def test_zero_tolerance_rejected(self, tmp_path):
        p = _write(tmp_path, "validation:\n  outage_abs_tol: 0.0\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_readme_example_names_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = load_config(_write(tmp_path, block))
        data = yaml.safe_load(block)
        assert set(data) == {f.name for f in dataclasses.fields(cfg)}
        for section, keys in data.items():
            if section != "seed":
                fields = dataclasses.fields(getattr(cfg, section))
                assert set(keys) == {f.name for f in fields}, section


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


class TestScalarSweepsShareOneDrop:
    """sweep-power and sweep-rate score their points on one drop at
    scenario.tx_power_dbm, with every MC point at mc.seed; N = 16 keeps the
    outages visible at 30 dBm."""

    @staticmethod
    def _run(tmp_path, runner, variable, grid, mc_enabled):
        text = FAST_YAML.replace("variable: n_elements", f"variable: {variable}")
        text = text.replace("grid: [0, 4, 16, 64]", f"grid: {grid}")
        text = text.replace("fixed_n_elements: 64", "fixed_n_elements: 16")
        out = tmp_path / variable
        out.mkdir()
        cfg = load_config(_write(out, text.replace("trials: 20000", "trials: 2000")))
        return {(value, rank): (analytic, mc)
                for _, value, rank, kind, analytic, mc, _ in runner(cfg, 7, out, mc_enabled)
                if kind == "composite"}

    def test_one_operating_point_one_number(self, tmp_path):
        # 30 dBm, N = 16 and 1 bpc, each placed after another grid point
        links = self._run(tmp_path, expcli.run_sweep_links, "n_elements", "[0, 16]", False)
        power = self._run(tmp_path, expcli.run_sweep_power, "tx_power_dbm", "[28.0, 30.0]", True)
        rate = self._run(tmp_path, expcli.run_sweep_rate, "target_rate", "[0.8, 1.0]", True)
        for rank in (1, 2, 3):
            assert power[30.0, rank][0] == links[16, rank][0]
            assert rate[1.0, rank][0] == links[16, rank][0]
            assert power[30.0, rank][1] == rate[1.0, rank][1]

    def test_mc_columns_monotone(self, tmp_path):
        # the points share their draws, SNR = gamma_bar_c * amp^2 and the rate
        # event is monotone in R and in the SNR, so the MC columns are ordered
        # exactly, rank by rank
        rates, powers = (1.0, 1.02, 1.04, 1.06), (30.0, 30.1, 30.2, 30.3)
        rate = self._run(tmp_path, expcli.run_sweep_rate, "target_rate", list(rates), True)
        power = self._run(tmp_path, expcli.run_sweep_power, "tx_power_dbm", list(powers), True)
        for rank in (1, 2, 3):
            column = [rate[r, rank][1] for r in rates]
            assert column == sorted(column), (rank, column)
            column = [power[p, rank][1] for p in powers]
            assert column == sorted(column, reverse=True), (rank, column)


# Analytic column of run_sweep_power and run_sweep_rate on the first three
# drops of the benchmark's sweep configs, as float.hex; the sweeps must
# reproduce them bit for bit.
GOLDEN_SCALAR_SWEEP = {
    ("sweep-power", 0): (
        "0x1.447e0353774f4p-128", "0x1.c46af74a0a18cp-246", "0x1.8f136a16d0dd8p-565",
        "0x1.447337d9948d2p-132", "0x1.d37c00fb5b5b8p-260", "0x1.5cabcba2ab17ap-586",
        "0x1.a496ab183c2dep-136", "0x1.0994513e4617cp-272", "0x1.1d8db2ff1374fp-605",
        "0x1.5a8e055264e68p-139", "0x1.41740f6566651p-284", "0x1.91d4df5163758p-623",
        "0x1.64155e5fa6dfap-142", "0x1.8e84e48e54321p-295", "0x1.bc57dc5a2c6e1p-639",
        "0x1.bfd7b7a18102ep-145", "0x1.e45b8868d4c4cp-305", "0x1.6151deaf5e7f9p-653",
        "0x1.52aa7278e8e28p-147", "0x1.1394204e64fa5p-313", "0x1.728fd180cec0bp-666",
        "0x1.2edc73f6f3b39p-149", "0x1.1839f856ccebbp-321", "0x1.d7ddc5c5c2115p-678",
        "0x1.3b430bdd51343p-151", "0x1.e666af811be32p-329", "0x1.513c30ef0da63p-688",
        "0x1.784e87d4cd4d9p-153", "0x1.589a5cff8407ap-335", "0x1.f68f8d65eecaap-698",
        "0x1.fbbaf5833ba5ep-155", "0x1.7e087c916d712p-341", "0x1.6c6b740fa5a36p-706",
    ),
    ("sweep-power", 1): (
        "0x1.db738d1a8e31cp-10", "0x1.e0c8a5fb98552p-12", "0x1.208d0c8f6fa06p-27",
        "0x1.34cd1abed5a6cp-10", "0x1.e486d53585bccp-13", "0x1.05253e473e0d2p-29",
        "0x1.8b811e2ba749cp-11", "0x1.e57638ed33277p-14", "0x1.cd613c8f66d7cp-32",
        "0x1.f223e5b9df104p-12", "0x1.e3e72061cf771p-15", "0x1.8d44448b94946p-34",
        "0x1.3373d2e2fd0e6p-12", "0x1.e017bf126d272p-16", "0x1.4cb2998326c56p-36",
        "0x1.724fa1ee9b58ap-13", "0x1.da365ddc80c81p-17", "0x1.0e322b3470a3cp-38",
        "0x1.b0a408d6b62fcp-14", "0x1.d263e3b9f5756p-18", "0x1.a7f5a49c657b8p-41",
        "0x1.e65fd0c67500cp-15", "0x1.c8b66d7a0c702p-19", "0x1.3fbc8626fab8ep-43",
        "0x1.041e2741da4a9p-15", "0x1.bd3bd4b92de72p-20", "0x1.ccbc37c7bc5a5p-46",
        "0x1.046b400612df4p-16", "0x1.affc1e9675c19p-21", "0x1.3aabcd0a72207p-48",
        "0x1.dc20679f0b870p-18", "0x1.a0fbd7e0fe86ep-22", "0x1.93734daefa58ep-51",
    ),
    ("sweep-power", 2): (
        "0x1.1b0c4510aaee9p-10", "0x1.48c230ef7fe42p-12", "0x1.c7cd1ef7c6ecap-5",
        "0x1.662a093e8ff74p-11", "0x1.4a310cd3e75a0p-13", "0x1.b4149c005bda2p-6",
        "0x1.bc90b7656132ep-12", "0x1.49d609d1e721ep-14", "0x1.8a47f8f31296cp-7",
        "0x1.0d850d06137d6p-12", "0x1.47e0c95ca7e8bp-15", "0x1.542b4c54eb391p-8",
        "0x1.3d7b211f27836p-13", "0x1.44756265994b6p-16", "0x1.1a691f0399ceep-9",
        "0x1.689d1947bb1cap-14", "0x1.3fae09708e730p-17", "0x1.c67330fa558a6p-11",
        "0x1.86de63ea34b8dp-15", "0x1.399cd4af0e066p-18", "0x1.6479185b59e17p-12",
        "0x1.8e391a62c5be2p-16", "0x1.324d7bdacbd5cp-19", "0x1.11f072fc68957p-13",
        "0x1.74c4a8443d92cp-17", "0x1.29c70884dadc8p-20", "0x1.9e1f936d95afep-15",
        "0x1.3545256aea224p-18", "0x1.200d777e6c4b5p-21", "0x1.34e24b2035c31p-16",
        "0x1.acaad77b80e0cp-20", "0x1.1523520effae1p-22", "0x1.c7deb8806d840p-18",
    ),
    ("sweep-rate", 0): (
        "0x1.5e9d4ffa4294bp-153", "0x1.cd9906bbc4670p-336", "0x1.7d7f69753d68dp-698",
        "0x1.a9bcfeeb6bb2cp-152", "0x1.976d387b4176ap-331", "0x1.5e27143e78648p-691",
        "0x1.fdb94870bc294p-151", "0x1.56390f847d48cp-326", "0x1.270b6a420a589p-684",
        "0x1.2edc73f6f3b39p-149", "0x1.1839f856ccebbp-321", "0x1.d7ddc5c5c2115p-678",
        "0x1.67021b26d378bp-148", "0x1.c7e98a71cd94dp-317", "0x1.6f3fc7fe24622p-671",
        "0x1.aa337b37c0792p-147", "0x1.762804bc4cf58p-312", "0x1.1bcf392bc38cbp-664",
        "0x1.fc6405a6198dfp-146", "0x1.39d5b7d5ad4cfp-307", "0x1.bab8001e5a870p-658",
        "0x1.31843cfbacb56p-144", "0x1.101c18b870ed7p-302", "0x1.6144bce89da11p-651",
        "0x1.72e3d3921fc6ap-143", "0x1.ecbda42aafacep-298", "0x1.23b8f5c6224fdp-644",
    ),
    ("sweep-rate", 1): (
        "0x1.f1a7f30a4641cp-17", "0x1.93671ccc2ab14p-21", "0x1.2263cf7441825p-48",
        "0x1.a646585cd7eaap-16", "0x1.5d7b79df87d03p-20", "0x1.102a998012cb4p-46",
        "0x1.49f6031d3ca74p-15", "0x1.2006f35c078ccp-19", "0x1.b90c6a45d411cp-45",
        "0x1.e65fd0c67500cp-15", "0x1.c8b66d7a0c702p-19", "0x1.3fbc8626fab8ep-43",
        "0x1.573f04aa3a276p-14", "0x1.5f1b70b472830p-18", "0x1.a8b59321c47e0p-42",
        "0x1.d497821f4d77ap-14", "0x1.0743ba9831d2ep-17", "0x1.06d878c9c3fcep-40",
        "0x1.378cbb935b88dp-13", "0x1.82c65b2ddfeaap-17", "0x1.3300f36efa70cp-39",
        "0x1.9593b969d0be0p-13", "0x1.174dd07250710p-16", "0x1.559f9778f6f47p-38",
        "0x1.036e73a23566ap-12", "0x1.8da6a933211d7p-16", "0x1.6ce03c8e8e592p-37",
    ),
    ("sweep-rate", 2): (
        "0x1.235e0c1a83446p-18", "0x1.0cea01970d7e6p-21", "0x1.277fcb9492081p-16",
        "0x1.1f525b9ac253ep-17", "0x1.d304f46afa8eep-21", "0x1.34119024d7734p-15",
        "0x1.f3423570c32c4p-17", "0x1.81a9a00fce2c0p-20", "0x1.2ae7490289d54p-14",
        "0x1.8e391a62c5be2p-16", "0x1.324d7bdacbd5cp-19", "0x1.11f072fc68957p-13",
        "0x1.2ad1605ef34dep-15", "0x1.d7b3a2a27f8d6p-19", "0x1.df500a3811c56p-13",
        "0x1.ac7e5f8419937p-15", "0x1.6234aa3dc6d59p-18", "0x1.9361298403880p-12",
        "0x1.28a14d993033cp-14", "0x1.048c1e16c6f45p-17", "0x1.487694444d782p-11",
        "0x1.8f734704e260ap-14", "0x1.78cac15b17582p-17", "0x1.03f00556bd17fp-10",
        "0x1.06fdea3fa1491p-13", "0x1.0c8f92c41759fp-16", "0x1.913bc8010d94ap-10",
    ),
}
BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


@pytest.mark.bits
@pytest.mark.parametrize("config, drop", sorted(GOLDEN_SCALAR_SWEEP), ids=lambda v: str(v))
def test_scalar_sweep_golden_floats(tmp_path, recorded_stack, config, drop):
    cfg = load_config(BENCH_CONFIGS / f"{config}.yaml")
    runner = {"sweep-power": expcli.run_sweep_power, "sweep-rate": expcli.run_sweep_rate}[config]
    got = tuple(float(row[4]).hex() for row in runner(cfg, drop, tmp_path, False))
    assert got == GOLDEN_SCALAR_SWEEP[config, drop], recorded_stack


# MC columns (outage_mc and mc_halfwidth, as float.hex) of the same sweeps and
# drops with MC on at 2000 trials, at the configured beta and with
# noma.beta: optimize; keyed "<config>/<fixed|optimize>/<drop>".
GOLDEN_SCALAR_SWEEP_MC = json.loads(
    (Path(__file__).resolve().parent / "golden_scalar_sweep_mc.json").read_text())


@pytest.mark.bits
@pytest.mark.parametrize("key", sorted(GOLDEN_SCALAR_SWEEP_MC))
def test_scalar_sweep_mc_golden_floats(tmp_path, recorded_stack, key):
    config, beta, drop = key.split("/")
    cfg = load_config(BENCH_CONFIGS / f"{config}.yaml")
    cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, trials=2000))
    if beta == "optimize":
        cfg = dataclasses.replace(cfg, noma=expcli.NomaBlock("optimize"))
    runner = {"sweep-power": expcli.run_sweep_power, "sweep-rate": expcli.run_sweep_rate}[config]
    got = [f"{float(row[5]).hex()} {float(row[6]).hex()}"
           for row in runner(cfg, int(drop), tmp_path, True)]
    assert got == GOLDEN_SCALAR_SWEEP_MC[key], recorded_stack


# outage_analytic column (as float.hex) of sweep-links at the benchmark's
# config on drops 0-2 ("fitted") and, with channel.m_direct: 1.5 and
# m_hops: 2.0, on drop 0 ("pinned"); keyed "<fitted|pinned>/<drop>".
GOLDEN_SWEEP_LINKS = json.loads(
    (Path(__file__).resolve().parent / "golden_sweep_links.json").read_text())


@pytest.mark.bits
@pytest.mark.parametrize("key", sorted(GOLDEN_SWEEP_LINKS))
def test_sweep_links_golden_floats(tmp_path, recorded_stack, key):
    fading, drop = key.split("/")
    cfg = load_config(BENCH_CONFIGS / "sweep-links.yaml")
    if fading == "pinned":
        cfg = dataclasses.replace(cfg, channel=expcli.ChannelBlock(m_direct=1.5, m_hops=2.0))
    got = [float(row[4]).hex() for row in expcli.run_sweep_links(cfg, int(drop), tmp_path, False)]
    assert got == GOLDEN_SWEEP_LINKS[key], recorded_stack


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


def _src_env():
    """The environment of a fresh interpreter that imports this checkout's risnoma."""
    src = str(Path(expcli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_scipy_integrate_out():
    code = "import risnoma.expcli, sys; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0


def test_package_import_loads_no_dependency():
    code = ("import risnoma, sys; "
            "sys.exit(risnoma.__version__ != '0.1.0' "
            "or any(m in sys.modules for m in ('numpy', 'scipy', 'yaml')))")
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0


def test_submodule_is_the_module():
    import risnoma.ruom as by_import
    from risnoma import ruom as by_from
    assert by_import is by_from is sys.modules["risnoma.ruom"]


def test_module_entry_point_help():
    run = subprocess.run([sys.executable, "-m", "risnoma.expcli", "--help"], env=_src_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0
    assert "sweep-links" in run.stdout


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
        # 2^R - 1 overflows a float from R = 1024 bpc on
        ("sweep-links", [("fixed_n_elements: 64", "fixed_n_elements: 64\n  fixed_target_rate: 2000.0")],
         "sweep.fixed_target_rate"),
        ("sweep-rate", [("variable: n_elements", "variable: target_rate"),
                        ("grid: [0, 4, 16, 64]", "grid: [1.0, 1024.0]")], "sweep.grid"),
    ], ids=["zero", "nan", "zero_in_rate_grid", "overflow", "overflow_in_rate_grid"])
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

    @pytest.mark.parametrize("second", [
        # the float 0.1: RUOM would run twice, writing each trace row twice
        # under one summary key
        pytest.param("0.10000000000000001", id="same-float"),
        # a distinct float, but ruom_trace.csv prints both as 1.000000000000e-01
        pytest.param("0.10000000000001", id="same-label"),
    ])
    def test_repeated_lambda_rejected(self, tmp_path, capsys, second):
        cfg = _write(tmp_path, FAST_YAML + f"ruom:\n  lambdas: [0.1, {second}]\n")
        out = tmp_path / "out"
        assert main(["ruom", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "config error: ruom.lambdas entries must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_links_variable_mismatch(self, tmp_path):
        cfg = _write(tmp_path, FAST_YAML.replace("variable: n_elements", "variable: target_rate"))
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text, key", [
        ("scenario:\n  tx_power_dbm: 3.7e1\n", "scenario.tx_power_dbm"),
        ("environment:\n  zeta: 2.0e1\n", "environment.zeta"),
        ("scenario:\n  bandwidth_hz: 4.0e7\n", "scenario.bandwidth_hz"),
        ("mc:\n  trials: 1e-3\n", "mc.trials"),
        ("scenario:\n  n_uavs: 3.0\n", "scenario.n_uavs"),
        ("ruom:\n  max_iter: true\n", "ruom.max_iter"),
        ("channel:\n  m_direct: 1e-3\n", "channel.m_direct"),
        ("scenario:\n  uav_altitude_m: [1e-3, 120.0]\n", "scenario.uav_altitude_m"),
        ("ruom:\n  lambdas: [1e-3]\n", "ruom.lambdas"),
        ("seed: 1e-3\n", "seed"),
    ], ids=["float_text", "float_text_env", "float_no_sign", "int_text", "int_float", "int_bool",
            "none_default_text", "tuple_entry_text", "lambda_text", "seed_text"])
    def test_number_read_as_text(self, tmp_path, capsys, text, key):
        # PyYAML reads 1e-3, 3.7e1 and 4.0e7 as text; the boundary names the key
        cfg = _write(tmp_path, text)
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "4.0e+7" in err

    @pytest.mark.parametrize("text, key", [
        ("output:\n  directory: [1, 2]\n", "output.directory"),
        ("output:\n  directory: 7\n", "output.directory"),
        ("sweep:\n  variable: 5\n", "sweep.variable"),
    ], ids=["directory_list", "directory_int", "variable_int"])
    def test_string_key_needs_yaml_string(self, tmp_path, monkeypatch, capsys, text, key):
        # without --out the run would write under output.directory
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, text)
        assert main(["sweep-links", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: {key} must be a string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("text, key, wanted", [
        ("channel:\n  m_direct: .nan\n", "channel.m_direct", "a finite number"),
        ("channel:\n  omega: .nan\n", "channel.omega", "a finite number"),
        ("channel:\n  m_hops: .inf\n", "channel.m_hops", "a finite number"),
        ("scenario:\n  tx_power_dbm: .nan\n", "scenario.tx_power_dbm", "a finite number"),
        ("validation:\n  outage_abs_tol: .nan\n", "validation.outage_abs_tol",
         "a finite number"),
        ("environment:\n  zeta: -.inf\n", "environment.zeta", "a finite number"),
        ("scenario:\n  uav_altitude_m: [80.0, .inf]\n", "scenario.uav_altitude_m",
         "a list of finite numbers"),
        ("ruom:\n  lambdas: [.nan]\n", "ruom.lambdas", "a list of finite numbers"),
        # a YAML integer too large for a float
        ("scenario:\n  tx_power_dbm: 1" + "0" * 400 + "\n", "scenario.tx_power_dbm",
         "a finite number"),
        ("sweep:\n  fixed_target_rate: 1" + "0" * 400 + "\n", "sweep.fixed_target_rate",
         "a finite number"),
    ], ids=["nan_m_direct", "nan_omega", "inf_m_hops", "nan_tx_power", "nan_tolerance",
            "inf_zeta", "inf_altitude", "nan_lambda", "huge_tx_power", "huge_target_rate"])
    def test_real_key_needs_finite_number(self, tmp_path, capsys, text, key, wanted):
        cfg = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"{key} must be {wanted}"):
            load_config(cfg)
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"config error: {key} must be {wanted}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ['"no"', '"false"', "0"],
                             ids=["quoted_no", "quoted_false", "zero"])
    def test_bool_key_needs_yaml_bool(self, tmp_path, capsys, value):
        # a quoted "no" is text, and text or 0 must not switch Monte Carlo on
        cfg = _write(tmp_path, FAST_YAML.replace("enabled: false", f"enabled: {value}"))
        assert main(["sweep-links", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "mc.enabled" in capsys.readouterr().err
        assert not (tmp_path / "sweep_links.csv").exists()

    @pytest.mark.parametrize("cmd, edit, argv, key", [
        ("sweep-links", ("seed: 7", "seed: -1"), [], "seed"),
        ("sweep-links", None, ["--seed", "-3"], "--seed"),
        ("sweep-links", ("seed: 5", "seed: -1"), [], "mc.seed"),
        ("validate", ("seed: 5", "seed: -1"), [], "mc.seed"),
    ], ids=["config_seed", "cli_seed", "mc_seed", "mc_seed_validate"])
    def test_negative_seed(self, tmp_path, capsys, cmd, edit, argv, key):
        cfg = _write(tmp_path, FAST_YAML.replace(*edit) if edit else FAST_YAML)
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path), *argv]) == EXIT_CONFIG
        assert f"config error: {key} must be an integer >= 0" in capsys.readouterr().err


class TestCurveScoring:
    """The sweeps score each rank's curve in one pass, with the floats of
    per-point scoring."""

    @staticmethod
    def _config(name):
        return load_config(BENCH_CONFIGS / f"{name}.yaml")

    def test_power_point_is_link_cdf_on_the_replaced_link(self, tmp_path):
        cfg = self._config("sweep-power")
        rows = expcli.run_sweep_power(cfg, 1, tmp_path, False)
        drop = expcli._resolved_links(cfg, 1)
        rates = (cfg.sweep.fixed_target_rate,) * len(drop)
        n_val = cfg.sweep.fixed_n_elements
        expected = []
        for power in cfg.sweep.grid:
            gamma_bar_c = transmit_snr(power, cfg.scenario.bandwidth_hz, cfg.scenario.noise_temp_k)
            links = [dataclasses.replace(link, gamma_bar_c=gamma_bar_c) for link in drop]
            model = OutageModel(links, rates, "composite")
            alloc = expcli._allocation(cfg, model)
            for rank in range(1, len(links) + 1):
                _, theta = sic_thresholds(alloc, rates, rank)
                parent = model.link(rank, n_val).cdf(theta)
                expected.append(ordered_cdf(parent, rank, len(links)).hex())
        assert [row[4].hex() for row in rows] == expected

    @pytest.mark.bits
    def test_sweep_power_builds_one_constant_set_per_rank(self, tmp_path, monkeypatch):
        # a rank's links at every transmit power share one closed-form
        # constant set
        built = []

        class CountedForm(channels._ClosedForm):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(channels, "_ClosedForm", CountedForm)
        cfg = self._config("sweep-power")
        expcli.run_sweep_power(cfg, 1, tmp_path, False)
        assert len(built) == cfg.scenario.n_uavs

    @pytest.mark.bits
    @pytest.mark.parametrize("name, runner", [
        ("sweep-links", expcli.run_sweep_links),
        ("sweep-power", expcli.run_sweep_power),
    ])
    def test_one_fit_per_rank_and_n(self, tmp_path, monkeypatch, name, runner):
        # the RIS-only and composite links of one (rank, N), and a rank's
        # links at every transmit power, share one Laguerre fit
        cfg = self._config(name)
        grid = cfg.sweep.grid if name == "sweep-links" else [cfg.sweep.fixed_n_elements]
        drop = expcli._resolved_links(cfg, 1)
        partitions = [link.ris_params(n) for link in drop for n in grid if n > 0]
        assert len(set(partitions)) == len(partitions)  # one per (rank, N) on this drop
        expected = [channels.fit_laguerre(ris) for ris in partitions]
        fits = []
        fit_type = channels.LaguerreFit

        class CountedFit(fit_type):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fits.append(fit_type(*args, **kwargs))

        monkeypatch.setattr(channels, "LaguerreFit", CountedFit)
        runner(cfg, 1, tmp_path, False)
        assert sorted(fits, key=expected.index) == expected

    def test_sweep_rate_scores_each_rank_in_one_cdf_call(self, tmp_path, monkeypatch):
        # every rank's grid thresholds go through one link_cdfs call
        calls = []
        cdfs = channels.link_cdfs

        def counted_cdfs(links, gammas):
            calls.append(len(gammas))
            return cdfs(links, gammas)

        monkeypatch.setattr(channels, "link_cdfs", counted_cdfs)
        cfg = self._config("sweep-rate")
        expcli.run_sweep_rate(cfg, 1, tmp_path, False)
        assert calls == [len(cfg.sweep.grid) * cfg.scenario.n_uavs]

    @pytest.mark.parametrize("name, runner, expected", [
        ("sweep-links", expcli.run_sweep_links, 1),
        ("sweep-power", expcli.run_sweep_power, 1),
        ("sweep-rate", expcli.run_sweep_rate, None),
    ])
    def test_sic_thresholds_once_per_model_and_beta(self, tmp_path, monkeypatch, name, runner,
                                                    expected):
        # point_outages computes the thresholds once per distinct (beta,
        # rates) of its point list: one for sweep-links and sweep-power, one
        # per grid point for sweep-rate
        calls = []
        counted = noma.sic_thresholds

        def thresholds(alloc, rates, m):
            calls.append(m)
            return counted(alloc, rates, m)

        monkeypatch.setattr(noma, "sic_thresholds", thresholds)
        cfg = self._config(name)
        runner(cfg, 1, tmp_path, False)
        assert len(calls) == (expected or len(cfg.sweep.grid))


class TestMcCalls:
    """One Monte Carlo run covers every point and rank of a run: a whole
    sweep-links grid, a whole scalar sweep or validate's operating point."""

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
        # one point per cell: N=0 direct and composite (RIS-only has no
        # path), N=4 all three; each rank's family is direct (= composite at
        # N=0), RIS-only and composite at N=4
        points = calls[0][0]
        assert len(points) == 5 and all(len(links) == 3 for links, _, _ in points)
        families = [dict.fromkeys(links[rank] for links, _, _ in points) for rank in range(3)]
        assert [len(family) for family in families] == [3, 3, 3]
        rows = _read_rows(tmp_path / "sweep_links.csv")
        assert sum(r["outage_mc"] != "" for r in rows) == 5 * 3

    @staticmethod
    def _scalar_sweep(tmp_path, cmd, variable, grid):
        text = FAST_YAML.replace("variable: n_elements", f"variable: {variable}")
        text = text.replace("grid: [0, 4, 16, 64]", f"grid: {grid}")
        cfg = _write(tmp_path, text.replace("trials: 20000", "trials: 500"))
        assert main([cmd, "--config", str(cfg), "--mc", "--out", str(tmp_path)]) == EXIT_OK

    def test_sweep_power(self, tmp_path, calls):
        self._scalar_sweep(tmp_path, "sweep-power", "tx_power_dbm", "[30.0, 34.0, 38.0]")
        assert len(calls) == 1
        points, mc_cfg = calls[0]
        assert len(points) == 3
        assert mc_cfg == sim_oracle.McConfig(trials=500, seed=5, batch=250_000)

    def test_sweep_rate(self, tmp_path, calls):
        self._scalar_sweep(tmp_path, "sweep-rate", "target_rate", "[0.8, 1.2]")
        assert len(calls) == 1
        points, mc_cfg = calls[0]
        assert len(points) == 2
        assert mc_cfg == sim_oracle.McConfig(trials=500, seed=5, batch=250_000)

    def test_validate(self, tmp_path, calls):
        text = FAST_YAML.replace("trials: 20000", "trials: 500")
        cfg = _write(tmp_path, text.replace("fixed_n_elements: 64", "fixed_n_elements: 16"))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1
        assert len(calls[0][0]) == 1

    @pytest.mark.parametrize("variable, grid, runner", [
        ("tx_power_dbm", "[30.0, 34.0, 38.0]", expcli.run_sweep_power),
        ("target_rate", "[0.8, 1.0, 1.2]", expcli.run_sweep_rate),
    ], ids=["sweep-power", "sweep-rate"])
    def test_one_drop_per_scalar_sweep(self, tmp_path, monkeypatch, variable, grid, runner):
        drops = []

        def counting(*args):
            drops.append(args)
            return generate_scenario(*args)

        generate_scenario = expcli.generate_scenario
        monkeypatch.setattr(expcli, "generate_scenario", counting)
        text = FAST_YAML.replace("variable: n_elements", f"variable: {variable}")
        cfg = load_config(_write(tmp_path, text.replace("grid: [0, 4, 16, 64]", f"grid: {grid}")))
        runner(cfg, 7, tmp_path, False)
        assert len(drops) == 1

    @pytest.mark.parametrize("variable, beta, runner, models, allocations", [
        ("tx_power_dbm", "[0.7, 0.2, 0.1]", expcli.run_sweep_power, 1, 1),
        ("tx_power_dbm", "optimize", expcli.run_sweep_power, 2, 2),
        ("target_rate", "[0.7, 0.2, 0.1]", expcli.run_sweep_rate, 2, 2),
    ], ids=["sweep-power", "sweep-power-optimize", "sweep-rate"])
    def test_allocations_per_scalar_sweep(self, tmp_path, monkeypatch, variable, beta, runner,
                                          models, allocations):
        # a power sweep at a fixed beta shares one model and one allocation
        # over its points; a rate point and an optimized beta need their own
        counts = {"models": 0, "allocations": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(expcli, "OutageModel", counted("models", expcli.OutageModel))
        monkeypatch.setattr(expcli, "_allocation", counted("allocations", expcli._allocation))
        text = FAST_YAML.replace("variable: n_elements", f"variable: {variable}")
        text = text.replace("grid: [0, 4, 16, 64]", "grid: [1.0, 1.2]" if variable == "target_rate"
                            else "grid: [30.0, 34.0]")
        cfg = load_config(_write(tmp_path, text + f"noma:\n  beta: {beta}\n"))
        runner(cfg, 7, tmp_path, False)
        assert counts == {"models": models, "allocations": allocations}


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


class TestScalarSweepSharedDraws:
    """sweep-power and sweep-rate draw each rank's fading once per batch for
    the whole grid."""

    @pytest.mark.parametrize("variable, grid, runner", [
        ("tx_power_dbm", "[30.0]", expcli.run_sweep_power),
        ("tx_power_dbm", "[30.0, 31.0, 35.0, 40.0]", expcli.run_sweep_power),
        ("target_rate", "[1.0]", expcli.run_sweep_rate),
        ("target_rate", "[0.8, 1.0, 1.2]", expcli.run_sweep_rate),
    ])
    def test_gamma_draws(self, tmp_path, monkeypatch, variable, grid, runner):
        # M ranks x M rows x T trials x (2N + 1), whatever the grid length
        counts = []
        batch_rng = sim_oracle.batch_rng
        monkeypatch.setattr(sim_oracle, "batch_rng",
                            lambda seed, idx: _CountingRng(batch_rng(seed, idx), counts))
        text = FAST_YAML.replace("variable: n_elements", f"variable: {variable}")
        text = text.replace("grid: [0, 4, 16, 64]", f"grid: {grid}")
        text = text.replace("fixed_n_elements: 64", "fixed_n_elements: 16")
        cfg = load_config(_write(tmp_path, text.replace("trials: 20000", "trials: 300")))
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, batch=128))
        runner(cfg, 7, tmp_path, True)
        assert sum(counts) == 3 * 3 * 300 * (2 * 16 + 1)


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


def _json_reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _plain(value):
    """value with its dataclasses turned into dicts, as json.dumps needs."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@pytest.mark.bits
class TestWriterBytes:
    """Result files are rendered in memory and written in one call; their
    bytes are those of csv.writer and json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("config", [None] + sorted(p.stem for p in BENCH_CONFIGS.glob("*.yaml")))
    def test_manifest_equals_json_dumps(self, tmp_path, config):
        cfg = ExperimentConfig() if config is None else load_config(BENCH_CONFIGS / f"{config}.yaml")
        expcli._write_manifest(tmp_path, cfg, 11)
        want = {"config": dataclasses.asdict(cfg), "seed": 11, "package_version": __version__}
        assert (tmp_path / "manifest.json").read_bytes() == _json_reference(want).encode()

    def test_ruom_summary_equals_json_dumps(self, tmp_path):
        cfg = load_config(_write(tmp_path, FAST_YAML + "ruom:\n  lambdas: [0.1, 0.5]\n"))
        summary = expcli.run_ruom_report(cfg, 7, tmp_path)
        assert (tmp_path / "ruom_summary.json").read_text() == _json_reference(summary)

    def test_validate_report_equals_json_dumps(self, tmp_path):
        cfg = load_config(BENCH_CONFIGS / "validate.yaml")
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, trials=2000, batch=2000))
        report = expcli.validate(cfg, 1, tmp_path)
        assert (tmp_path / "validate_report.json").read_text() == _json_reference(report)

    @pytest.mark.parametrize("value", [
        "plain", "é ü ☃ \U0001f600", "quote \" backslash \\ \n\r\t\b\f \x00 \x1f \x7f",
        {}, [], (), {"": {}, "b": [], "a": ()}, ((1, (2, ())), [(3.5,)]),
        [True, 1, False, 0, None, 1.0, "1"], {"true": True, "one": 1},
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 2**70, -3],
        [np.float64(0.1), np.float64(-1e-300), np.float64(math.nan)],
        {"z": 1, "a": 2, "B": 3, "é": 4, "_": 5},
        [ExperimentConfig().channel, (expcli.NomaBlock(), {"mc": expcli.McBlock()})],
    ], ids=repr)
    def test_json_edge_values(self, value):
        assert expcli._json_text(value) == _json_reference(_plain(value))

    @pytest.mark.parametrize("value", [{1: "a", "b": 2}, np.int64(3), {"a": object()}, {3}])
    def test_json_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            expcli._json_text(value)

    def test_csv_equals_csv_writer(self, tmp_path):
        cfg = load_config(_write(tmp_path, FAST_YAML))
        rows = expcli.run_sweep_links(cfg, 7, tmp_path, False)
        rows += [("x", 2.5, 2, "ris", -1e-300, None, np.float64(0.25)),
                 ("y", -0.0, np.int64(4), "direct", math.inf, math.nan, None)]
        assert any(None in row for row in rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(expcli.SWEEP_COLUMNS)
            for row in rows:
                writer.writerow([expcli._fmt(v) for v in row])
        expcli._write_csv(tmp_path / "new.csv", expcli.SWEEP_COLUMNS, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_rewrite_leaves_only_new_bytes(self, tmp_path):
        path = tmp_path / "sweep_links.csv"
        path.write_text("old,row\n" * 1000)
        expcli._write_csv(path, ("a", "b"), [(1, 0.5)])
        assert path.read_bytes() == b"a,b\n1,5.000000000000e-01\n"
