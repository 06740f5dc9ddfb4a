import math

import click
import pytest
from click.testing import CliRunner

from ocsnet import config_io
from ocsnet.cli import main, parse_sweep
from ocsnet.topology import mean_expected_path_length


class TestUnits:
    @pytest.mark.parametrize("value,unit,expected", [
        (100, "us", 100e-6),
        (15, "ms", 15e-3),
        (10, "gbps", 10e9),
        (1, "mbit", 1e6),
        (125, "mb", 1e9),       # megabytes to bits
        (1, "gb", 8e9),
        (2, "s", 2.0),
    ])
    def test_conversion_table(self, value, unit, expected):
        assert config_io.convert(value, unit) == pytest.approx(expected, rel=1e-12)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            config_io.convert(1, "parsec")

    def test_suffix_detection(self):
        assert config_io.base_value("timing.slot_us", 100) == pytest.approx(100e-6)
        assert config_io.base_value("network.n", 256) == 256
        assert config_io.base_value("traffic.model", "uniform") == "uniform"


class TestConfigGrammar:
    def test_parse_types(self):
        text = 'network.n = 64\nlink.rate_gbps = 2.5\ntraffic.model = "skewed"\n'
        got = config_io.parse_config_text(text)
        assert got == {"network.n": 64, "link.rate_gbps": 2.5,
                       "traffic.model": "skewed"}

    def test_comments_and_blanks_ignored(self):
        got = config_io.parse_config_text("# header\n\nnetwork.n = 8  # inline\n")
        assert got == {"network.n": 8}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            config_io.parse_config_text("network.n 64\n")


class TestProfiles:
    def test_numeric_profile_thresholds(self):
        cfg = config_io.network_config(config_io.load_config())
        assert cfg.medium_threshold_bits == pytest.approx(1e6)
        assert cfg.large_threshold_bits == pytest.approx(1.25e8, rel=1e-9)

    def test_nan_link_rate_rejected(self):
        mapping = config_io.load_config(overrides={
            "link.rate_gbps": math.nan, "thresholds.medium_mbit": 1,
            "thresholds.large_mb": 2})
        with pytest.raises(ValueError, match="^r must be finite"):
            config_io.network_config(mapping)

    def test_table1_profile_slot_capacity(self):
        cfg = config_io.network_config(config_io.load_config(profile="paper-table1"))
        assert cfg.r == 40e9
        assert cfg.medium_threshold_bits == pytest.approx(4e6)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            config_io.load_config(profile="nope")

    def test_file_overrides_profile(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 16\n")
        assert config_io.load_config(p)["network.n"] == 16


class TestSweepParsing:
    def test_grid(self):
        var, grid = parse_sweep("load_x=0.1:0.5:0.2")
        assert var == "load_x" and grid == [0.1, 0.3, 0.5]

    def test_bad_variable(self):
        with pytest.raises(Exception, match="sweep variable"):
            parse_sweep("bogus=0:1:0.5")

    def test_bad_shape(self):
        with pytest.raises(Exception, match="start:stop:step"):
            parse_sweep("load_x=0:1")

    @pytest.mark.parametrize("text", [
        "load_x=0.1:nan:0.1", "load_x=nan:0.5:0.1", "load_x=0.1:0.5:nan",
        "load_x=0.1:inf:0.1", "load_x=-inf:0.5:0.1", "load_x=0.1:0.5:inf"])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(click.BadParameter, match="finite"):
            parse_sweep(text)

    def test_whole_k_c_grid(self):
        assert parse_sweep("k_c=2:30:4") == ("k_c", [2.0, 6.0, 10.0, 14.0, 18.0, 22.0,
                                                     26.0, 30.0])

    @pytest.mark.parametrize("text", ["k_c=8.5:9.5:1", "k_c=0:2:0.5"])
    def test_fractional_k_c_rejected(self, text):
        with pytest.raises(click.BadParameter, match="whole"):
            parse_sweep(text)


@pytest.fixture
def runner():
    return CliRunner()


class TestCommands:
    def test_threshold_golden(self, runner):
        out = runner.invoke(main, ["threshold", "--phi", "0"])
        assert out.exit_code == 0 and "15.625 MB" in out.output

    def test_threshold_full_skew(self, runner):
        out = runner.invoke(main, ["threshold", "--phi", "1"])
        assert "187.5 MB" in out.output

    def test_epl_small(self, runner):
        out = runner.invoke(main, ["epl", "-n", "16", "-k", "4", "--seeds", "2"])
        assert out.exit_code == 0 and "epl=" in out.output

    def test_split_all_medium(self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text('traffic.distribution.kind = "point"\n'
                     "traffic.distribution.size_mbit = 4\n")
        out = runner.invoke(main, ["split", "--config", str(p)])
        assert out.exit_code == 0
        assert "k_r_star=32 k_c_star=0" in out.output

    @pytest.mark.parametrize("size_mbit, want", [(4, "k_r_star=1 k_c_star=0"),
                                                 (1000, "k_r_star=0 k_c_star=1")])
    def test_split_one_class_on_one_dynamic_switch(self, runner, tmp_path, size_mbit, want):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 8\nnetwork.k_s = 2\nnetwork.k_r = 1\nnetwork.k_c = 0\n"
                     'traffic.distribution.kind = "point"\n'
                     f"traffic.distribution.size_mbit = {size_mbit}\n")
        out = runner.invoke(main, ["split", "--config", str(p)])
        assert out.exit_code == 0, out.output
        assert f"dynamic=1 -> {want}" in out.output

    def test_analyze_deterministic_and_zero_row(self, runner, tmp_path):
        args = ["analyze", "--sweep", "load_x=0:0.4:0.2", "--seeds", "1"]
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            out = runner.invoke(main, args + ["--out", str(d)])
            assert out.exit_code == 0, out.output
            outs.append((d / "analyze.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        header, first = lines[0].split(","), lines[1].split(",")
        row = dict(zip(header, first))
        assert float(row["x"]) == 0.0
        assert float(row["dct_rotor_s"]) == 0.0
        assert float(row["L_star_hybrid"]) == 1.0

    def test_analyze_hybrid_small_flows_use_the_static_expander(self, runner, tmp_path):
        # default profile at x = 0.5, path lengths averaged over seeds 0-2:
        # the small flows' component runs on the degree-k_s = 5 expander
        # (epl 3.4580) and binds at 0.6397 s; the degree-k = 37 expander's
        # epl 1.8686 gave 0.6257 s
        out = runner.invoke(main, ["analyze", "--sweep", "load_x=0.5:0.5:0.1",
                                   "--seeds", "3", "--out", str(tmp_path)])
        assert out.exit_code == 0, out.output
        header, row = (tmp_path / "analyze.csv").read_text().splitlines()
        row = dict(zip(header.split(","), row.split(",")))
        assert float(row["dct_hybrid_s"]) == pytest.approx(0.639735, abs=1e-6)
        assert float(row["dct_expander_s"]) == pytest.approx(0.5 * 1.868602, abs=1e-6)

    def test_analyze_k_c_sweep_moves_the_expander_degree(self, runner, tmp_path):
        # k = k_s + k_r + k_c = 29, 37, 45 on the default profile
        out = runner.invoke(main, ["analyze", "--sweep", "k_c=8:24:8", "--seeds", "1",
                                   "--out", str(tmp_path)])
        assert out.exit_code == 0, out.output
        header, *rows = (tmp_path / "analyze.csv").read_text().splitlines()
        got = [float(dict(zip(header.split(","), row.split(",")))["dct_expander_s"])
               for row in rows]
        want = [0.5 * mean_expected_path_length(256, k, range(1)) for k in (29, 37, 45)]
        assert got == pytest.approx(want, abs=1e-12)
        assert len(set(got)) == 3

    def test_simulate_end_to_end(self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "network.n = 8\nnetwork.k_s = 0\nnetwork.k_r = 4\nnetwork.k_c = 0\n"
            "traffic.window_s = 0.02\n"
            'traffic.distribution.kind = "point"\n'
            "traffic.distribution.size_mbit = 4\n")
        d = tmp_path / "out"
        out = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--sweep", "load_x=0.2:0.2:0.1",
                                   "--out", str(d)])
        assert out.exit_code == 0, out.output
        lines = (d / "simulate.csv").read_text().splitlines()
        assert lines[0] == "x,seed,dct_sim_s,dct_analytic_s,rel_err,spill_count"
        row = lines[1].split(",")
        assert abs(float(row[4])) < 0.5            # sim close to the model
        assert (d / "trace_x0.2_seed0.csv").exists()
        assert (d / "flows_x0.2_seed0.csv").exists()

    def test_simulate_seeds_start_at_traffic_seed(self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "network.n = 8\nnetwork.k_s = 0\nnetwork.k_r = 4\nnetwork.k_c = 0\n"
            "traffic.window_s = 0.005\ntraffic.seed = 7\n"
            'traffic.distribution.kind = "point"\n'
            "traffic.distribution.size_mbit = 4\n")
        d = tmp_path / "out"
        out = runner.invoke(main, ["simulate", "--config", str(p), "--seeds", "2",
                                   "--sweep", "load_x=0.2:0.2:0.1", "--out", str(d)])
        assert out.exit_code == 0, out.output
        rows = (d / "simulate.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["7", "8"]
        assert (d / "trace_x0.2_seed8.csv").exists()

    @pytest.mark.parametrize("k_s, k_r, k_c, lacking", [
        (0, 4, 4, "k_s"), (2, 0, 4, "k_r"), (2, 4, 0, "k_c")])
    def test_simulate_a_mix_without_a_closed_form_writes_nan(
            self, runner, tmp_path, k_s, k_r, k_c, lacking):
        p = tmp_path / "cfg.txt"
        p.write_text(f"network.n = 16\nnetwork.k_s = {k_s}\nnetwork.k_r = {k_r}\n"
                     f"network.k_c = {k_c}\ntraffic.window_s = 0.004\n")
        d = tmp_path / "out"
        out = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--sweep", "load_x=0.3:0.3:0.1", "--out", str(d)])
        assert out.exit_code == 0, out.output
        assert f"{lacking} switches required" in out.stderr
        lines = (d / "simulate.csv").read_text().splitlines()
        x, seed, dct_sim, dct_ana, rel_err, _ = lines[1].split(",")
        assert float(dct_sim) > 0
        assert (dct_ana, rel_err) == ("nan", "nan")
        assert (d / "trace_x0.3_seed0.csv").exists()
        assert (d / "flows_x0.3_seed0.csv").exists()

    @pytest.mark.parametrize("k_s, k_r, k_c, lacking, flows", [
        (0, 4, 4, "k_s", "small"),     # small flows and no static switches
        (2, 1, 0, "k_r", "medium")])   # one dynamic switch, which the split gives the cache
    def test_analyze_a_mix_without_a_closed_form_writes_nan(
            self, runner, tmp_path, k_s, k_r, k_c, lacking, flows):
        p = tmp_path / "cfg.txt"
        p.write_text(f"network.n = 16\nnetwork.k_s = {k_s}\nnetwork.k_r = {k_r}\n"
                     f"network.k_c = {k_c}\n")
        out = runner.invoke(main, ["analyze", "--config", str(p),
                                   "--sweep", "load_x=0:0.5:0.25", "--out", str(tmp_path)])
        assert out.exit_code == 0, out.output
        for x in ("0.25", "0.5"):
            assert (f"load_x={x}: {lacking} switches required to serve {flows} flows"
                    in out.stderr)
        assert "load_x=0.0:" not in out.stderr   # no load, nothing to serve
        header, *rows = (tmp_path / "analyze.csv").read_text().splitlines()
        header = header.split(",")
        assert rows[0].split(",")[header.index("dct_hybrid_s")] == "0.0"
        assert len(rows) == 3
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert cells.pop("dct_hybrid_s") == "nan"
            assert all(math.isfinite(float(v)) for k, v in cells.items()
                       if k not in ("large_threshold_bits", "z"))
            assert float(cells["dct_expander_s"]) > 0 and float(cells["dct_rotor_s"]) > 0

    @pytest.mark.parametrize("command", [
        ["analyze", "--sweep", "load_x=0.5:0.5:0.1"],
        ["epl", "-n", "16", "-k", "4"],
        ["simulate", "--sweep", "load_x=0.2:0.2:0.1"],
    ])
    def test_zero_seeds_rejected(self, runner, tmp_path, command):
        out_args = [] if command[0] == "epl" else ["--out", str(tmp_path)]
        out = runner.invoke(main, command + ["--seeds", "0"] + out_args)
        assert out.exit_code == 2
        assert "--seeds" in out.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["analyze", "--sweep", "load_x=0.1:nan:0.1"],
        ["simulate", "--sweep", "load_x=0.1:inf:0.1"],
        ["simulate", "--sweep", "load_x=0.2:0.2:0.1", "--horizon", "nan"],
        ["simulate", "--sweep", "load_x=0.2:0.2:0.1", "--horizon", "-1"],
    ])
    def test_non_finite_sweep_or_bad_horizon_is_a_usage_error(
            self, runner, tmp_path, command):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 8\nnetwork.k_s = 0\nnetwork.k_r = 4\nnetwork.k_c = 0\n"
                     "traffic.window_s = 0.005\n")
        d = tmp_path / "out"
        out = runner.invoke(main, command + ["--config", str(p), "--out", str(d)])
        assert out.exit_code == 2, out.output
        assert ("--horizon" if "--horizon" in command else "finite") in out.output
        assert not d.exists()

    def test_analyze_fractional_k_c_sweep_is_a_usage_error(self, runner, tmp_path):
        d = tmp_path / "out"
        out = runner.invoke(main, ["analyze", "--sweep", "k_c=8.5:9.5:1", "--seeds", "1",
                                   "--out", str(d)])
        assert out.exit_code == 2, out.output
        assert "k_c takes whole switch counts" in out.output
        assert not d.exists()

    def test_analyze_negative_k_c_is_a_grid_point_error(self, runner, tmp_path):
        d = tmp_path / "out"
        out = runner.invoke(main, ["analyze", "--sweep", "k_c=-3:0:1", "--seeds", "1",
                                   "--out", str(d)])
        assert out.exit_code == 1, out.output
        assert "Error: grid point k_c=-3.0: k_c must be >= 0" in out.output
        assert not d.exists()

    @pytest.mark.parametrize("command", [
        ["analyze", "--sweep", "load_x=0.5:0.5:0.1", "--seeds", "1"],
        ["simulate", "--sweep", "load_x=0.2:0.2:0.1"]])
    def test_nan_link_rate_stops_before_any_output(self, runner, tmp_path, command):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 8\nnetwork.k_s = 0\nnetwork.k_r = 4\nnetwork.k_c = 0\n"
                     "link.rate_gbps = nan\nthresholds.medium_mbit = 1\n"
                     "thresholds.large_mb = 2\ntraffic.window_s = 0.005\n")
        d = tmp_path / "out"
        out = runner.invoke(main, command + ["--config", str(p), "--out", str(d)])
        assert out.exit_code == 1
        assert "r must be finite, got nan" in out.output + str(out.exception)
        assert not d.exists()

    @pytest.mark.parametrize("setting, message", [
        ("link.rate_gbps = nan\nthresholds.medium_mbit = 1\nthresholds.large_mb = 2\n",
         "r must be finite, got nan"),
        ("network.n = 1\n", "n must be >= 2, got 1"),
        ("traffic.window_s = nan\n", "window_s must be positive and finite"),
        ("network.n 8\n", "line 1: expected 'key = value'"),
        ("traffic.distribution.kind = point\ntraffic.distribution.size_mbit = nan\n",
         "all sizes must be positive and finite"),
        ("traffic.distribution.kind = log-uniform\ntraffic.distribution.lower_bits = 1\n"
         "traffic.distribution.upper_bits = inf\n", "log-uniform needs 0 < lower < upper < inf"),
        ("traffic.distribution.kind = pareto\ntraffic.distribution.shape = nan\n"
         "traffic.distribution.lower_bits = 1\n", "pareto needs finite shape"),
        ("traffic.distribution.kind = two-point-bytes\ntraffic.distribution.size_a_mbit = 0\n"
         "traffic.distribution.size_b_mbit = 1000\ntraffic.distribution.byte_frac_a = 0.5\n",
         "all sizes must be positive and finite"),
    ])
    @pytest.mark.parametrize("command", [
        ["analyze", "--sweep", "load_x=0.5:0.5:0.1", "--seeds", "1"],
        ["simulate", "--sweep", "load_x=0.2:0.2:0.1"],
        ["split"], ["threshold"]])
    def test_invalid_config_is_one_error_line(self, runner, tmp_path, command,
                                              setting, message):
        p = tmp_path / "cfg.txt"
        p.write_text(setting)
        d = tmp_path / "out"
        out_args = ["--out", str(d)] if command[0] in ("analyze", "simulate") else []
        out = runner.invoke(main, command + ["--config", str(p)] + out_args)
        assert out.exit_code == 1
        assert out.output.startswith(f"Error: {message}") and out.output.count("\n") == 1
        assert isinstance(out.exception, SystemExit)   # not an escaped ValueError
        assert not d.exists()

    def test_analyze_non_numeric_phi_is_one_error_line(self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("traffic.phi = abc\n")
        d = tmp_path / "out"
        out = runner.invoke(main, ["analyze", "--config", str(p), "--seeds", "1",
                                   "--out", str(d)])
        assert out.exit_code == 1
        assert out.output == "Error: could not convert string to float: 'abc'\n"
        assert not d.exists()

    @pytest.mark.parametrize("command, option", [
        (["threshold", "--phi", "3"], "--phi"),
        (["threshold", "--phi", "-0.5"], "--phi"),
        (["split", "--phi-m", "3"], "--phi-m"),
        (["split", "-x", "-1"], "--load-x"),
        (["split", "-x", "1.5"], "--load-x"),
        (["epl", "-k", "0"], "--degree"),
        (["epl", "-n", "1"], "--tors"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, runner, command, option):
        out = runner.invoke(main, command)
        assert out.exit_code == 2, out.output
        assert "Invalid value for" in out.output and option in out.output

    def test_epl_disconnected_sample_is_one_error_line(self, runner):
        # a single derangement on 8 nodes is rarely one 8-cycle
        out = runner.invoke(main, ["epl", "-n", "8", "-k", "1", "--seeds", "3"])
        assert out.exit_code == 1
        assert out.output.startswith("Error: graph is disconnected: no path from")
        assert out.output.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["analyze", "--sweep", "load_x=0.3:0.3:0.1", "--seeds", "1"],
        ["simulate", "--sweep", "load_x=0.3:0.3:0.1"]])
    def test_disconnected_static_expander_is_one_error_line(self, runner, tmp_path,
                                                            command):
        # the one derangement of build_expander(16, 1, 0) leaves 3 out of 0's reach
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 16\nnetwork.k_s = 1\nnetwork.k_r = 4\n"
                     "network.k_c = 4\ntraffic.window_s = 2e-3\n")
        d = tmp_path / "out"
        d.mkdir()
        out = runner.invoke(main, command + ["--config", str(p), "--out", str(d)])
        assert out.exit_code == 1
        assert out.output == "Error: graph is disconnected: no path from 0 to 3\n"
        assert list(d.iterdir()) == []

    def test_simulate_skewed_grid_point_with_one_active_tor_is_one_error_line(
            self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 16\nnetwork.k_s = 2\nnetwork.k_r = 4\n"
                     'network.k_c = 4\ntraffic.window_s = 2e-3\ntraffic.model = "skewed"\n')
        d = tmp_path / "out"
        d.mkdir()
        out = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--sweep", "load_x=0.05:0.05:0.1", "--out", str(d)])
        assert out.exit_code == 1
        assert out.output.startswith("Error: grid point load_x=0.05: ")
        assert out.output.count("\n") == 1
        assert list(d.iterdir()) == []

    def test_threshold_without_a_finite_value_is_one_error_line(self, runner, tmp_path):
        # a 2 Mbit slot beats the rotor's 1.1 Mbit period at phi = 1, not at phi = 0
        p = tmp_path / "cfg.txt"
        p.write_text("thresholds.medium_mbit = 2\n")
        out = runner.invoke(main, ["threshold", "--config", str(p), "--phi", "1"])
        assert out.exit_code == 1
        assert out.output.startswith("Error: rotor transmission is always faster")

    def test_split_with_too_few_dynamic_switches_is_one_error_line(self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 8\nnetwork.k_s = 2\nnetwork.k_r = 1\nnetwork.k_c = 0\n")
        out = runner.invoke(main, ["split", "--config", str(p)])
        assert out.exit_code == 1
        assert out.output == "Error: need at least 2 dynamic switches to split, have 1\n"

    @pytest.mark.parametrize("distribution, flows", [
        ("", "small"),                  # the default mix
        ('traffic.distribution.kind = "point"\ntraffic.distribution.size_mbit = 4\n',
         "medium")])
    def test_simulate_without_a_plane_for_a_class_writes_nothing(
            self, runner, tmp_path, distribution, flows):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 16\nnetwork.k_s = 0\nnetwork.k_r = 0\nnetwork.k_c = 4\n"
                     "traffic.window_s = 0.004\n" + distribution)
        d = tmp_path / "out"
        d.mkdir()
        out = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--sweep", "load_x=0.3:0.3:0.1", "--out", str(d)])
        assert out.exit_code == 1
        assert out.output == f"Error: no plane available for {flows} flows (k_s = k_r = 0)\n"
        assert list(d.iterdir()) == []

    def test_simulate_large_flows_alone_need_no_rotor_or_static_plane(self, runner, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("network.n = 8\nnetwork.k_s = 0\nnetwork.k_r = 0\nnetwork.k_c = 4\n"
                     "traffic.window_s = 0.05\n"
                     'traffic.distribution.kind = "point"\n'
                     "traffic.distribution.size_mbit = 1000\n")
        d = tmp_path / "out"
        out = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--sweep", "load_x=0.3:0.3:0.1", "--out", str(d)])
        assert out.exit_code == 0, out.output
        assert (d / "simulate.csv").exists()

    def test_simulate_rejects_non_load_sweep(self, runner):
        out = runner.invoke(main, ["simulate", "--sweep", "phi=0:1:0.5"])
        assert out.exit_code != 0 and "load" in out.output
