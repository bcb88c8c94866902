"""Tests for the Monte Carlo harness: reproducibility, sweep semantics,
calibration against a fading BER oracle, and config parsing."""

import copy
import csv
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from daisymimo import config as config_mod
from daisymimo import detectors, harness, signal_model
from daisymimo.chain_sim import PowerSavePolicy, TopologyConfig
from daisymimo.config import ConfigError, load_spec, spec_from_dict, spec_to_dict
from daisymimo.harness import (
    AlgorithmSpec,
    ExperimentSpec,
    derive_seeds,
    run_ber_sweep,
    run_experiment,
    run_mse_sweep,
    run_rate_table,
    run_simulation,
)
from daisymimo.interconnect import RateScenario


def _mse_spec(**overrides):
    base = dict(
        kind="mse_sweep",
        topology=TopologyConfig.from_clusters(16, 4, 4),
        algorithms=(AlgorithmSpec("sgd", mu=0.05), AlgorithmSpec("rls"), AlgorithmSpec("zf")),
        snr_db=12.0,
        constellation_order=4,
        trials=20,
        master_seed=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestAlgorithmSpec:
    def test_labels(self):
        assert AlgorithmSpec("rls").label == "rls"
        assert AlgorithmSpec("sgd", mu=0.04).label == "sgd(mu=0.04)"
        assert AlgorithmSpec("asgd", mu=0.02, n0=150).label == "asgd(mu=0.02,n0=150)"

    def test_validation(self):
        with pytest.raises(ValueError):
            AlgorithmSpec("sgd")
        with pytest.raises(ValueError):
            AlgorithmSpec("asgd", mu=0.1)
        with pytest.raises(ValueError):
            AlgorithmSpec("rls", mu=0.1)
        with pytest.raises(ValueError):
            AlgorithmSpec("mmse")


class TestExperimentSpec:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="plot")

    def test_ber_needs_grid(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                kind="ber_sweep",
                topology=TopologyConfig(4, 2, 1, 4),
                algorithms=(AlgorithmSpec("zf"),),
            )

    def test_simulate_rejects_zf(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                kind="simulate",
                topology=TopologyConfig(4, 2, 1, 4),
                algorithms=(AlgorithmSpec("zf"),),
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            _mse_spec(algorithms=(AlgorithmSpec("rls"), AlgorithmSpec("rls")))

    def test_rate_table_needs_no_topology(self):
        spec = ExperimentSpec(kind="rate_table")
        assert spec.topology is None


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seeds(7, (1, 2), 3) == derive_seeds(7, (1, 2), 3)

    def test_distinct_across_paths_and_masters(self):
        a = derive_seeds(7, (1, 2), 2)
        b = derive_seeds(7, (1, 3), 2)
        c = derive_seeds(8, (1, 2), 2)
        assert a != b and a != c


class TestMseSweep:
    def test_bit_reproducible(self):
        res_a = run_mse_sweep(_mse_spec())
        res_b = run_mse_sweep(_mse_spec())
        for ca, cb in zip(res_a.curves, res_b.curves):
            assert ca == cb

    def test_curve_shapes(self):
        res = run_mse_sweep(_mse_spec())
        sgd = res.curve("sgd(mu=0.05)")
        assert len(sgd.points) == 16
        assert [p.x for p in sgd.points] == list(range(1, 17))
        zf = res.curve("zf")
        assert len(zf.points) == 1 and zf.points[0].x == 16

    def test_noiseless_square_system_zf_is_exact(self):
        spec = _mse_spec(
            topology=TopologyConfig(4, 4, 1, 4),
            algorithms=(AlgorithmSpec("zf"),),
            snr_db=math.inf,
            trials=10,
        )
        res = run_mse_sweep(spec)
        assert res.curve("zf").points[0].mean <= 1e-18

    def test_single_trial_has_zero_stderr(self):
        res = run_mse_sweep(_mse_spec(trials=1))
        for curve in res.curves:
            assert all(p.stderr == 0.0 for p in curve.points)

    def test_seed_changes_results(self):
        a = run_mse_sweep(_mse_spec(master_seed=1))
        b = run_mse_sweep(_mse_spec(master_seed=2))
        assert a.curve("rls").points[-1].mean != b.curve("rls").points[-1].mean

    def test_random_initial_estimate_mode(self):
        zero = run_mse_sweep(_mse_spec(s0_mode="zero"))
        rand_a = run_mse_sweep(_mse_spec(s0_mode="random"))
        rand_b = run_mse_sweep(_mse_spec(s0_mode="random"))
        assert rand_a.curves == rand_b.curves  # still seed-reproducible
        assert rand_a.curve("rls").points[0].mean != zero.curve("rls").points[0].mean
        # the random prior fades out along the chain
        assert rand_a.curve("rls").points[-1].mean < rand_a.curve("rls").points[0].mean

    def test_reference_curve_ordering(self):
        # Averaging narrows the step-size gap and tracks below plain SGD;
        # RLS sits below every gradient curve.
        spec = ExperimentSpec(
            kind="mse_sweep",
            topology=TopologyConfig.from_clusters(256, 16, 8),
            algorithms=(
                AlgorithmSpec("sgd", mu=0.02),
                AlgorithmSpec("sgd", mu=0.04),
                AlgorithmSpec("asgd", mu=0.02, n0=150),
                AlgorithmSpec("asgd", mu=0.04, n0=75),
                AlgorithmSpec("rls"),
            ),
            snr_db=12.0,
            constellation_order=16,
            trials=150,
            master_seed=5,
        )
        res = run_mse_sweep(spec)
        final = {c.label: c.points[-1].mean for c in res.curves}
        assert final["asgd(mu=0.02,n0=150)"] <= final["sgd(mu=0.02)"]
        assert final["asgd(mu=0.04,n0=75)"] <= final["sgd(mu=0.04)"]
        assert final["rls"] == min(final.values())


class TestFullScaleSmoke:
    def test_large_array_64qam_runs_and_averaging_tracks_rls(self):
        # Reduced-trial smoke of the very-large-array setup (M=2048, 64QAM):
        # with thousands of antennas the averaged-SGD output lands near RLS.
        spec = ExperimentSpec(
            kind="mse_sweep",
            topology=TopologyConfig.from_clusters(2048, 16, 16),
            algorithms=(
                AlgorithmSpec("sgd", mu=0.004),
                AlgorithmSpec("asgd", mu=0.008, n0=400),
                AlgorithmSpec("rls"),
            ),
            snr_db=12.0,
            constellation_order=64,
            trials=2,
            master_seed=1,
        )
        res = run_mse_sweep(spec)
        final = {c.label: c.points[-1].mean for c in res.curves}
        assert len(res.curve("rls").points) == 2048
        assert final["asgd(mu=0.008,n0=400)"] < 2.0 * final["rls"]
        assert final["rls"] == min(final.values())


class TestBerSweep:
    def _spec(self, **overrides):
        base = dict(
            kind="ber_sweep",
            topology=TopologyConfig.from_clusters(32, 4, 4),
            algorithms=(AlgorithmSpec("zf"), AlgorithmSpec("rls")),
            snr_db_grid=(0.0,),
            constellation_order=4,
            target_errors=100,
            max_trials_per_point=400,
            master_seed=11,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_noiseless_ber_is_zero(self):
        res = run_ber_sweep(self._spec(snr_db_grid=(300.0,), max_trials_per_point=50))
        assert res.curve("zf").points[0].mean == 0.0
        assert res.curve("rls").points[0].mean == 0.0

    def test_early_stop_on_error_target(self):
        res = run_ber_sweep(self._spec(snr_db_grid=(-10.0,)))
        point = res.curve("zf").points[0]
        assert point.n_trials < 400
        assert point.mean > 0

    def test_bit_reproducible(self):
        a = run_ber_sweep(self._spec())
        b = run_ber_sweep(self._spec())
        assert a.curves == b.curves

    def test_grid_order_preserved(self):
        res = run_ber_sweep(self._spec(snr_db_grid=(8.0, 0.0), max_trials_per_point=60))
        xs = [p.x for p in res.curve("zf").points]
        assert xs == [8.0, 0.0]

    def test_rayleigh_16qam_calibration_against_integral_oracle(self):
        # End-to-end check of channel statistics, SNR calibration, Gray mapping
        # and the hard demapper: single-antenna single-user ZF over Rayleigh
        # fading must match the integrated AWGN BER curve.
        def qfunc(x):
            return 0.5 * math.erfc(x / math.sqrt(2.0))

        def ber_16qam_awgn(gamma):
            u = math.sqrt(gamma / 5.0)
            return 0.25 * (3 * qfunc(u) + 2 * qfunc(3 * u) - qfunc(5 * u))

        def ber_16qam_rayleigh(gamma_bar):
            grid = np.linspace(0.0, 40.0 * gamma_bar, 200_001)
            pdf = np.exp(-grid / gamma_bar) / gamma_bar
            vals = np.array([ber_16qam_awgn(g) for g in grid])
            return float(np.trapezoid(vals * pdf, grid))

        def ber_16qam_rayleigh_closed(gamma_bar):
            def t(j):
                c = gamma_bar * j * j / 10.0
                return 0.5 * (1.0 - math.sqrt(c / (1.0 + c)))

            return 0.25 * (3 * t(1) + 2 * t(3) - t(5))

        snr_db = 8.0
        gamma_bar = 10 ** (snr_db / 10)
        theory = ber_16qam_rayleigh(gamma_bar)
        assert theory == pytest.approx(ber_16qam_rayleigh_closed(gamma_bar), rel=1e-4)

        spec = self._spec(
            topology=TopologyConfig(1, 1, 1, 1),
            algorithms=(AlgorithmSpec("zf"),),
            snr_db_grid=(snr_db,),
            constellation_order=16,
            target_errors=2000,
            max_trials_per_point=100_000,
            master_seed=123,
        )
        point = run_ber_sweep(spec).curve("zf").points[0]
        assert abs(point.mean - theory) <= 3 * point.stderr

    def test_zf_ber_invariant_under_antenna_permutation(self):
        m, k = 16, 4
        const = signal_model.Constellation.qam(4)
        rng = np.random.default_rng(0)
        for seed in range(5):
            h = signal_model.generate_rayleigh_channel(m, k, seed)
            bits = "".join("01"[b] for b in rng.integers(0, 2, k * 2))
            s = signal_model.modulate(bits, const, k)
            y = signal_model.transmit(h, s, 6.0, seed + 100)
            perm = rng.permutation(m)
            direct = signal_model.demodulate_hard(detectors.zf_detect(h, y), const)
            permuted = signal_model.demodulate_hard(
                detectors.zf_detect(
                    signal_model.ChannelMatrix(h.entries[perm]), y.samples[perm]
                ),
                const,
            )
            assert direct == permuted


class TestSimulation:
    def _spec(self, c, **overrides):
        base = dict(
            kind="simulate",
            topology=TopologyConfig.from_clusters(16, 4, c),
            algorithms=(AlgorithmSpec("rls"), AlgorithmSpec("sgd", mu=0.05)),
            snr_db=12.0,
            constellation_order=4,
            re_count=6,
            master_seed=21,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_partition_independent_detection(self):
        results = {c: run_simulation(self._spec(c))[0] for c in (1, 2, 4)}
        for c in (2, 4):
            for ref_curve, curve in zip(results[1].curves, results[c].curves):
                assert ref_curve == curve

    def test_timelines_reflect_partition(self):
        _, timelines = run_simulation(self._spec(4))
        report = timelines["rls"]
        assert report.pipeline_delay == 3
        assert report.total_ticks == 3 + 6
        report.validate()

    def test_power_save_skips_counted(self):
        spec = self._spec(4, power_save=PowerSavePolicy("freeze", float("inf")),
                          algorithms=(AlgorithmSpec("sgd", mu=0.05),))
        _, timelines = run_simulation(spec)
        assert timelines["sgd(mu=0.05)"].skipped_steps == 3 * 6

    def test_zero_threshold_no_skips(self):
        spec = self._spec(4, power_save=PowerSavePolicy("freeze", 0.0))
        _, timelines = run_simulation(spec)
        assert timelines["rls"].skipped_steps == 0


class TestRateTableKind:
    def test_delegates_to_comparison_table(self):
        report = run_rate_table(ExperimentSpec(kind="rate_table"))
        assert str(report.cell("sgd", 0)) == "439MB/s"
        assert str(report.cell("central", 3)) == "40.8GB/s"

    def test_custom_scenarios(self):
        spec = ExperimentSpec(
            kind="rate_table", scenarios=(RateScenario(m=64, k=8, c=4, b=16),)
        )
        report = run_rate_table(spec)
        assert len(report.columns) == 1

    def test_run_experiment_dispatch(self):
        assert run_experiment(ExperimentSpec(kind="rate_table")).columns


class TestResultSetOutputs:
    def test_csv_schema(self, tmp_path):
        res = run_mse_sweep(_mse_spec(trials=4))
        paths = res.write_csv(tmp_path)
        assert len(paths) == 3
        with open(paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"x", "mean", "stderr", "n_trials", "schema_version"}
        assert rows[0]["schema_version"] == "1"
        assert float(rows[0]["mean"]) >= 0

    def test_curve_lookup_error(self):
        res = run_mse_sweep(_mse_spec(trials=2))
        with pytest.raises(KeyError):
            res.curve("nope")


class TestConfig:
    def _config(self):
        return {
            "kind": "mse_sweep",
            "topology": {"m": 16, "k": 4, "c": 4, "b": 4},
            "algorithms": [
                {"name": "sgd", "mu": 0.05},
                {"name": "asgd", "mu": 0.05, "n0": 8},
                {"name": "zf"},
            ],
            "snr_db": 10.0,
            "constellation_order": 16,
            "trials": 12,
            "master_seed": 9,
        }

    def test_roundtrip_through_to_dict(self):
        spec = spec_from_dict(self._config())
        again = spec_from_dict(spec_to_dict(spec))
        assert spec == again

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="snr_dbb"):
            spec_from_dict({**self._config(), "snr_dbb": 3})

    def test_unknown_nested_key(self):
        cfg = self._config()
        cfg["topology"]["antennas"] = 16
        with pytest.raises(ConfigError, match="antennas"):
            spec_from_dict(cfg)
        cfg = self._config()
        cfg["algorithms"][0]["step"] = 0.1
        with pytest.raises(ConfigError, match="step"):
            spec_from_dict(cfg)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            spec_from_dict({"trials": 3})

    def test_topology_consistency_checked(self):
        cfg = self._config()
        cfg["topology"] = {"m": 16, "k": 4, "c": 4, "b": 3}
        with pytest.raises(ConfigError):
            spec_from_dict(cfg)

    def test_topology_cluster_count_follows_from_b(self):
        cfg = self._config()
        cfg["topology"] = {"m": 8, "k": 2, "b": 4}
        topo = spec_from_dict(cfg).topology
        assert (topo.c_clusters, topo.b_per_cluster) == (2, 4)
        for b in (3, 0, -4):
            cfg["topology"] = {"m": 8, "k": 2, "b": b}
            with pytest.raises(ConfigError, match="B="):
                spec_from_dict(cfg)

    def test_power_save_parsing(self):
        cfg = self._config()
        cfg["power_save"] = {"policy": "freeze", "threshold": "inf"}
        spec = spec_from_dict(cfg)
        assert spec.power_save == PowerSavePolicy("freeze", float("inf"))

    def test_scenarios_parsing(self):
        spec = spec_from_dict(
            {"kind": "rate_table", "scenarios": [{"m": 64, "k": 8, "c": 4, "b": 16}]}
        )
        assert spec.scenarios[0].n_iter == 3

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self._config()))
        spec = load_spec(path)
        assert spec.trials == 12

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_spec(path)

    def test_spec_validation_surfaces_as_config_error(self):
        cfg = self._config()
        cfg["algorithms"] = [{"name": "sgd"}]
        with pytest.raises(ConfigError):
            spec_from_dict(cfg)


def _key_paths(value, path=()):
    """The path of every object key inside ``value``, through nested objects and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _key_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _key_paths(item, path + (i,))


_SHIPPED_CONFIGS = [
    json.loads(p.read_text()) for p in sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
]
_REPLACEABLE = [(i, path) for i, cfg in enumerate(_SHIPPED_CONFIGS) for path in _key_paths(cfg)]
_JSON_KEYS = sorted({path[-1] for _, path in _REPLACEABLE})
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=4)
_JSON_VALUES = (
    _JSON_SCALARS
    | st.lists(_JSON_SCALARS, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=4), _JSON_SCALARS, max_size=3)
)


class TestConfigFuzz:
    @seed(26)
    @settings(max_examples=200, deadline=None, database=None)
    @given(site=st.sampled_from(_REPLACEABLE), value=_JSON_VALUES)
    def test_one_replaced_value_loads_or_is_a_config_error(self, site, value):
        index, path = site
        cfg = copy.deepcopy(_SHIPPED_CONFIGS[index])
        parent = cfg
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        try:
            spec = spec_from_dict(cfg)
        except ConfigError:
            return
        assert isinstance(spec, ExperimentSpec)
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec), allow_nan=False))) == spec
