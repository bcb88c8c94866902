"""Tests for the ``mimo`` command line entry points."""

import csv
import hashlib
import json
import pathlib
from dataclasses import replace

import pytest

from daisymimo import harness
from daisymimo.chain_sim import TopologyConfig
from daisymimo.cli import _write_outputs, main
from daisymimo.config import load_spec, spec_from_dict, spec_to_dict
from daisymimo.harness import AlgorithmSpec, ExperimentSpec, run_ber_sweep, run_mse_sweep

CONFIGS_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestBundledConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS_DIR.glob("*.json")))
    def test_config_parses(self, name):
        spec = load_spec(CONFIGS_DIR / name)
        assert spec.kind in ("mse_sweep", "ber_sweep", "rate_table", "simulate")

    def test_bundled_rate_table_matches_default(self, capsys):
        assert main(["rate-table", "--config", str(CONFIGS_DIR / "rate_table.json")]) == 0
        from_config = capsys.readouterr().out
        assert main(["rate-table"]) == 0
        assert capsys.readouterr().out == from_config

    def test_bundled_simulate_runs(self, tmp_path, capsys):
        assert main([
            "simulate",
            "--config", str(CONFIGS_DIR / "simulate_chain.json"),
            "--timeline", str(tmp_path / "timeline.csv"),
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert (tmp_path / "timeline.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_bundled_simulate_timeline_is_pinned(self, tmp_path, capsys):
        # Recorded from the shipped config; its closest skip decision is 1.3e-3
        # from the 1.5 threshold, far beyond BLAS rounding differences.
        timeline = tmp_path / "timeline.csv"
        assert main(["simulate", "--config", str(CONFIGS_DIR / "simulate_chain.json"), "--timeline", str(timeline)]) == 0
        assert "rls: pipeline delay 7 ticks, total 40 ticks, 120 skipped cluster-steps" in capsys.readouterr().out
        data = timeline.read_bytes()
        assert data.count(b"\n") == 265
        assert hashlib.sha256(data).hexdigest() == "cd71f2265e6aeec6f0dd9e0485d59dbe3c15eb9ec7326de6b346f080a7cc0048"

    @pytest.mark.parametrize("name", ["mse_m256.json", "mse_m2048_smoke.json"])
    def test_bundled_mse_configs_run_at_two_trials(self, name, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["mse-sweep", "--config", str(CONFIGS_DIR / name), "--out", str(out_dir), "--trials", "2"]) == 0
        spec = load_spec(CONFIGS_DIR / name)
        assert len(list(out_dir.glob("*.csv"))) == len(spec.algorithms)
        with open(out_dir / "rls.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == spec.topology.m_antennas
        assert {row["n_trials"] for row in rows} == {"2"}

    def test_bundled_ber_config_runs_reduced(self):
        spec = replace(load_spec(CONFIGS_DIR / "ber_m256_16qam.json"), snr_db_grid=(0.0, 16.0), max_trials_per_point=2)
        result = run_ber_sweep(spec)
        assert [c.label for c in result.curves] == [a.label for a in spec.algorithms]
        for curve in result.curves:
            assert [p.n_trials for p in curve.points] == [2, 2]
            assert 0.0 <= curve.points[1].mean <= curve.points[0].mean <= 0.5


class TestRateTableCommand:
    def test_default_table_printed(self, capsys):
        assert main(["rate-table"]) == 0
        out = capsys.readouterr().out
        for cell in ("439MB/s", "470MB/s", "879MB/s", "10.3GB/s", "40.8GB/s"):
            assert cell in out

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "rates.csv"
        assert main(["rate-table", "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["rls_display"] == "470MB/s"

    def test_config_scenarios(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"kind": "rate_table", "scenarios": [{"m": 128, "k": 16, "c": 8, "b": 16}]},
        )
        assert main(["rate-table", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "439MB/s" in out

    @pytest.mark.parametrize(
        "override",
        [{"scenarios": [{"m": 0, "k": 1, "c": 0, "b": 5}]}, {"frame": {"n_ul": 0}}],
        ids=lambda o: json.dumps(o),
    )
    def test_malformed_config_exits_2_with_one_line(self, override, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"kind": "rate_table", **override})
        assert main(["rate-table", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate-table", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err


class TestSweepCommands:
    def test_mse_sweep_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "kind": "mse_sweep",
                "topology": {"m": 8, "k": 2, "c": 2, "b": 4},
                "algorithms": [{"name": "rls"}, {"name": "zf"}],
                "trials": 5,
                "master_seed": 1,
            },
        )
        out_dir = tmp_path / "out"
        assert main(["mse-sweep", "--config", cfg, "--out", str(out_dir), "--seed", "9"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 9  # CLI override wins
        assert (out_dir / "rls.csv").exists()
        assert (out_dir / "zf.csv").exists()

    def test_trials_override(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "kind": "mse_sweep",
                "topology": {"m": 8, "k": 2, "c": 2, "b": 4},
                "algorithms": [{"name": "rls"}],
                "trials": 50,
            },
        )
        out_dir = tmp_path / "out"
        assert main(["mse-sweep", "--config", cfg, "--out", str(out_dir), "--trials", "3"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["spec"]["trials"] == 3

    def test_ber_sweep_runs(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "kind": "ber_sweep",
                "topology": {"m": 8, "k": 2, "c": 2, "b": 4},
                "algorithms": [{"name": "zf"}],
                "snr_db_grid": [0.0],
                "target_errors": 10,
                "max_trials_per_point": 50,
            },
        )
        out_dir = tmp_path / "ber"
        assert main(["ber-sweep", "--config", cfg, "--out", str(out_dir)]) == 0
        with open(out_dir / "zf.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_ber_sweep_has_no_trials_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ber-sweep", "--config", "ber.json", "--out", str(tmp_path / "out"), "--trials", "3"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_kind_mismatch_is_an_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"kind": "rate_table"})
        assert main(["mse-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["mse-sweep", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_config_key_reported(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"kind": "mse_sweep", "bogus": 1})
        assert main(["mse-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "bogus" in capsys.readouterr().err


class TestMalformedConfigs:
    """Each malformed value ends in exit code 2 and one ``error:`` line, before anything runs."""

    BASE = {
        "kind": "ber_sweep",
        "topology": {"m": 8, "k": 2, "c": 2, "b": 4},
        "algorithms": [{"name": "rls"}, {"name": "zf"}],
        "snr_db_grid": [0.0],
        "target_errors": 10,
        "max_trials_per_point": 20,
    }

    @pytest.mark.parametrize(
        "override",
        [
            {"max_trials_per_point": 0},
            {"target_errors": 0},
            {"trials": "3"},
            {"trials": 0},
            {"trials": 2.5},
            {"trials": True},
            {"constellation_order": 8},
            {"snr_db": "nan"},
            {"snr_db": float("nan")},
            {"snr_db_grid": [0.0, float("inf")]},
            {"snr_db_grid": "0"},
            {"re_count": 0},
            {"master_seed": -1},
            {"topology": {"m": "8", "k": 2}},
            {"topology": {"m": 2, "k": 4}},
            {"algorithms": [{"name": "sgd", "mu": "x"}]},
            {"algorithms": [{"name": "sgd", "mu": -0.1}]},
            {"algorithms": [{"name": "asgd", "mu": 0.1, "n0": 0}]},
            {"power_save": {"policy": "freeze", "threshold": "high"}},
        ],
        ids=lambda o: json.dumps(o),
    )
    def test_exit_2_with_one_line(self, override, tmp_path, capsys):
        cfg = _write_config(tmp_path, {**self.BASE, **override})
        assert main(["ber-sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.BASE)[:-1] + ', "trials": ' + "1" * 5000 + "}")
        assert main(["ber-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_trials_override(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {**self.BASE, "kind": "mse_sweep"})
        assert main(["mse-sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: trials must be >= 1, got 0\n"


class TestBadPaths:
    """An unreadable config or an unwritable output path ends in exit code 2 and one ``error:`` line."""

    def _exit_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._exit_2_with_one_line(["rate-table", "--config", str(tmp_path)], capsys)

    def test_timeline_is_a_directory(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(CONFIGS_DIR / "simulate_chain.json"), "--timeline", str(tmp_path)]
        self._exit_2_with_one_line(argv, capsys)

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"kind": "mse_sweep", "topology": {"m": 4, "k": 2}, "algorithms": [{"name": "zf"}], "trials": 2},
        )
        self._exit_2_with_one_line(["mse-sweep", "--config", cfg, "--out", cfg], capsys)

    @pytest.mark.parametrize(
        "command",
        [
            ["mse-sweep", "--config", str(CONFIGS_DIR / "mse_m256.json"), "--out", "{file}"],
            ["simulate", "--config", str(CONFIGS_DIR / "simulate_chain.json"), "--timeline", "{dir}"],
            ["simulate", "--config", str(CONFIGS_DIR / "simulate_chain.json"), "--timeline", "{dir}/t.csv",
             "--out", "{file}"],
        ],
        ids=["sweep-out", "simulate-timeline", "simulate-out"],
    )
    def test_output_paths_checked_before_the_run(self, command, tmp_path, capsys, monkeypatch):
        def unreachable(spec):
            raise AssertionError("the experiment ran before its output paths were checked")

        monkeypatch.setattr(harness, "run_experiment", unreachable)
        monkeypatch.setattr(harness, "run_simulation", unreachable)
        existing = tmp_path / "existing.txt"
        existing.write_text("")
        argv = [arg.format(file=existing, dir=tmp_path) for arg in command]
        self._exit_2_with_one_line(argv, capsys)

    def test_config_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"kind": "rate_table", "note": "\u00e9"}'.encode("latin-1"))
        self._exit_2_with_one_line(["rate-table", "--config", str(cfg)], capsys)


class TestSimulateCommand:
    def test_timeline_written(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "kind": "simulate",
                "topology": {"m": 8, "k": 2, "c": 4, "b": 2},
                "algorithms": [{"name": "rls"}],
                "re_count": 5,
                "master_seed": 2,
            },
        )
        timeline = tmp_path / "timeline.csv"
        assert main(["simulate", "--config", cfg, "--timeline", str(timeline)]) == 0
        with open(timeline, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cluster_id", "re_id", "start_tick", "end_tick", "skipped_flag"]
        assert "pipeline delay 3" in capsys.readouterr().out

    def test_multiple_algorithms_get_suffixed_timelines(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "kind": "simulate",
                "topology": {"m": 8, "k": 2, "c": 2, "b": 4},
                "algorithms": [{"name": "rls"}, {"name": "sgd", "mu": 0.05}],
                "re_count": 3,
            },
        )
        timeline = tmp_path / "t.csv"
        assert main(["simulate", "--config", cfg, "--timeline", str(timeline)]) == 0
        assert (tmp_path / "t.rls.csv").exists()
        assert (tmp_path / "t.sgd_mu_0.05.csv").exists()

    def test_out_dir_optional(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "kind": "simulate",
                "topology": {"m": 8, "k": 2, "c": 2, "b": 4},
                "algorithms": [{"name": "rls"}],
                "re_count": 2,
            },
        )
        out_dir = tmp_path / "sim_out"
        assert main([
            "simulate", "--config", cfg, "--timeline", str(tmp_path / "tl.csv"),
            "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "rls.csv").exists()


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        spec = ExperimentSpec(
            kind="mse_sweep",
            topology=TopologyConfig.from_clusters(16, 4, 4),
            algorithms=(AlgorithmSpec("sgd", mu=0.05), AlgorithmSpec("rls"), AlgorithmSpec("zf")),
            trials=2,
            master_seed=3,
        )
        _write_outputs(run_mse_sweep(spec), str(tmp_path), wall_time=1.25)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["master_seed"] == 3
        assert data["wall_time_s"] == 1.25
        assert data["spec"]["kind"] == "mse_sweep"
        assert data["spec"]["topology"] == {"m": 16, "k": 4, "c": 4, "b": 4}
        assert "sgd(mu=0.05)" in data["curves"]
        assert data["tool_version"]

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS_DIR.glob("*.json")))
    def test_spec_echo_loads_as_the_same_spec(self, name):
        spec = load_spec(CONFIGS_DIR / name)
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec), allow_nan=False))) == spec

    def test_infinite_threshold_echo_loads_back(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS_DIR / "simulate_chain.json").read_text())
        cfg["power_save"]["threshold"] = "inf"
        path = _write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", path, "--timeline", str(tmp_path / "t.csv"), "--out", str(out_dir)]) == 0
        echo = json.loads((out_dir / "manifest.json").read_text())["spec"]
        assert echo["power_save"] == {"policy": "freeze", "threshold": "inf"}
        assert spec_from_dict(echo) == load_spec(path)
