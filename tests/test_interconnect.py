"""Tests for the interconnect rate formulas, display rounding, and the
canonical comparison table."""

import csv

import pytest

from daisymimo.interconnect import (
    TABLE_SCENARIOS,
    DisplayRate,
    FrameConfig,
    RateScenario,
    ScenarioRates,
    comparison_table,
    rate_asgd,
    rate_central,
    rate_rls,
    rate_sgd,
    rate_star,
    rls_overhead,
    to_display,
)

DEFAULTS = FrameConfig()

# Reference cells of the canonical four-scenario comparison, frozen as strings.
REFERENCE_CELLS = {
    "sgd": ("439MB/s", "879MB/s", "1.7GB/s", "3.4GB/s"),
    "rls": ("470MB/s", "1.0GB/s", "2.2GB/s", "5.3GB/s"),
    "asgd": ("879MB/s", "1.7GB/s", "3.4GB/s", "6.8GB/s"),
    "star": ("10.3GB/s", "10.3GB/s", "20.6GB/s", "20.6GB/s"),
    "central": ("5.1GB/s", "10.2GB/s", "20.4GB/s", "40.8GB/s"),
}


class TestFrameConfig:
    def test_derived_quantities(self):
        assert DEFAULTS.alpha == pytest.approx(6 / 7, rel=1e-15)
        assert DEFAULTS.beta == pytest.approx(1.5, rel=1e-15)
        assert DEFAULTS.t_ofdm == pytest.approx(500e-6 / 7, rel=1e-15)
        assert DEFAULTS.n_cb == pytest.approx(21.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_slot": 0.0},
            {"n_ul": 8},
            {"n_ul": -1},
            {"n_u": 0},
            {"s_cb": 0},
            {"w_s": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FrameConfig(**kwargs)


class TestRateFormulas:
    def test_sgd_exact_value(self):
        rate = rate_sgd(DEFAULTS, 16)
        assert rate == 16 * 16 * 1200 * 6 / 500e-6
        # unrounded display basis: 439.45 MiB/s
        assert rate / 8 / 2**20 == pytest.approx(439.453125, abs=1e-9)

    @pytest.mark.parametrize("k,cell", [(16, "439MB/s"), (32, "879MB/s")])
    def test_sgd_display(self, k, cell):
        assert str(to_display(rate_sgd(DEFAULTS, k))) == cell

    def test_no_uplink_symbols_means_zero_rate(self):
        frame = FrameConfig(n_ul=0)
        assert rate_sgd(frame, 16) == 0.0

    def test_asgd_exactly_doubles_sgd(self):
        for k in (1, 16, 128, 1000):
            assert rate_asgd(DEFAULTS, k) == 2.0 * rate_sgd(DEFAULTS, k)

    def test_rls_display_at_default_parameters(self):
        assert str(to_display(rate_rls(DEFAULTS, 16))) == "470MB/s"

    def test_rls_overhead_vanishes_for_huge_coherence_blocks(self):
        frame = FrameConfig(s_cb=10**9)
        assert rate_rls(frame, 16) / rate_sgd(frame, 16) == pytest.approx(1.0, abs=1e-6)

    def test_rls_all_downlink_frame_rejected(self):
        frame = FrameConfig(n_ul=0)
        with pytest.raises(ValueError, match="downlink"):
            rate_rls(frame, 16)

    def test_star_degenerate_case_equals_sgd(self):
        assert rate_star(DEFAULTS, 16, c=1, n_iter=1) == rate_sgd(DEFAULTS, 16)

    def test_star_exceeds_sgd_otherwise(self):
        assert rate_star(DEFAULTS, 16, c=8, n_iter=3) > rate_sgd(DEFAULTS, 16)
        assert str(to_display(rate_star(DEFAULTS, 16, c=8, n_iter=3))) == "10.3GB/s"

    def test_star_scales_linearly_in_clusters(self):
        assert rate_star(DEFAULTS, 16, 16, 3) == 2 * rate_star(DEFAULTS, 16, 8, 3)

    def test_central_display_and_ratio(self):
        assert str(to_display(rate_central(DEFAULTS, 128))) == "5.1GB/s"
        ratio = rate_central(DEFAULTS, 128) / rate_sgd(DEFAULTS, 16)
        assert ratio == pytest.approx((128 / 16) * (24 / 16), rel=1e-12)
        assert ratio == pytest.approx(12.0, rel=1e-12)

    def test_all_rates_scale_inversely_with_slot_duration(self):
        half = FrameConfig(t_slot=250e-6)
        for fn in (lambda f: rate_sgd(f, 16), lambda f: rate_rls(f, 16),
                   lambda f: rate_asgd(f, 16), lambda f: rate_star(f, 16, 8, 3),
                   lambda f: rate_central(f, 128)):
            assert fn(half) == pytest.approx(2.0 * fn(DEFAULTS), rel=1e-12)

    def test_daisy_ordering_for_table_scenarios(self):
        for s in TABLE_SCENARIOS:
            sgd = rate_sgd(DEFAULTS, s.k)
            assert sgd < rate_rls(DEFAULTS, s.k) < rate_asgd(DEFAULTS, s.k)

    def test_daisy_rates_ignore_array_and_cluster_size(self):
        # K alone drives the per-link rates; the sweep over M and C is a no-op
        # by construction (the functions take no such arguments) and across
        # the table scenarios equal K would give equal rates.
        assert rate_sgd(DEFAULTS, 64) == rate_sgd(FrameConfig(), 64)

    def test_central_rate_ignores_user_count(self):
        assert rate_central(DEFAULTS, 512) == 4 * rate_central(DEFAULTS, 128)


class TestDisplayRounding:
    def test_three_significant_figures_half_up(self):
        assert str(to_display(439.453125 * 8 * 2**20)) == "439MB/s"
        assert str(to_display(878.90625 * 8 * 2**20)) == "879MB/s"
        assert str(to_display(469.5 * 8 * 2**20)) == "470MB/s"
        assert str(to_display(12.345 * 8 * 2**20)) == "12.3MB/s"

    def test_gb_threshold(self):
        assert to_display(999.9 * 8 * 2**20).unit == "MB/s"
        assert to_display(1000.1 * 8 * 2**20).unit == "GB/s"

    def test_gb_half_up_vs_floor(self):
        bits = 6.86646 * 8 * 2**30
        assert str(to_display(bits)) == "6.9GB/s"
        assert str(to_display(bits, gb_rounding="floor")) == "6.8GB/s"

    def test_bytes_per_second_roundtrip(self):
        cell = DisplayRate(439.0, "MB/s")
        assert cell.bits_per_second == 439 * 2**20 * 8


class TestComparisonTable:
    def test_reference_cells_reproduced(self):
        report = comparison_table()
        for name, cells in REFERENCE_CELLS.items():
            got = tuple(str(report.cell(name, i)) for i in range(4))
            assert got == cells, f"{name}: {got} != {cells}"

    def test_empty_scenario_list(self):
        report = comparison_table(())
        assert report.columns == ()
        assert "no scenarios" in report.to_text()

    def test_model_rates_are_formula_values(self):
        report = comparison_table()
        for col in report.columns:
            s = col.scenario
            assert col.rates["sgd"] == rate_sgd(DEFAULTS, s.k)
            assert col.rates["rls"] == rate_rls(DEFAULTS, s.k)
            assert col.rates["asgd"] == rate_asgd(DEFAULTS, s.k)
            assert col.rates["star"] == rate_star(DEFAULTS, s.k, s.c, s.n_iter)
            assert col.rates["central"] == rate_central(DEFAULTS, s.m)

    def test_text_table_contains_all_cells(self):
        text = comparison_table().to_text()
        for cells in REFERENCE_CELLS.values():
            for cell in cells:
                assert cell in text

    def test_csv_export(self, tmp_path):
        path = tmp_path / "rates.csv"
        comparison_table().to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["sgd_display"] == "439MB/s"
        assert float(rows[0]["sgd_bits_per_s"]) == rate_sgd(DEFAULTS, 16)
        assert rows[3]["central_display"] == "40.8GB/s"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            RateScenario(m=100, k=16, c=8, b=16)
        with pytest.raises(ValueError):
            RateScenario(m=128, k=0, c=8, b=16)

    def test_scenario_rates_invariants_enforced(self):
        s = TABLE_SCENARIOS[0]
        good = comparison_table((s,)).columns[0]
        with pytest.raises(ValueError):
            ScenarioRates(scenario=s, rates={**good.rates, "asgd": good.rates["sgd"] * 1.9}, cells=good.cells)
        with pytest.raises(ValueError):
            ScenarioRates(scenario=s, rates={**good.rates, "rls": good.rates["sgd"] * 0.5}, cells=good.cells)
