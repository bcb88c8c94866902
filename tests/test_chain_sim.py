"""Tests for the daisy-chain simulator: partition equivalence, pipeline timing,
data localization, power save, and plug-and-play extension."""

import csv
import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daisymimo import chain_sim, detectors, signal_model
from daisymimo.chain_sim import (
    ClusterNode,
    CostModel,
    PowerSavePolicy,
    TokenMessage,
    TopologyConfig,
    build_chain,
    extend_chain,
    simulate_slot,
)
from daisymimo.detectors import AsgdParams, SgdParams


def _instance(m, k, n_re, seed):
    rng = np.random.default_rng(seed)
    h = signal_model.generate_rayleigh_channel(m, k, seed)
    batch = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(n_re)]
    return h, batch


def _params(algorithm):
    if algorithm == "sgd":
        return SgdParams(mu=0.05)
    if algorithm == "asgd":
        return AsgdParams(mu=0.05, n0=5)
    return None


class TestTopologyConfig:
    def test_product_constraint(self):
        topo = TopologyConfig(m_antennas=128, k_users=16, c_clusters=8, b_per_cluster=16)
        assert topo.b_per_cluster == 16

    def test_from_clusters(self):
        topo = TopologyConfig.from_clusters(128, 16, 8)
        assert topo.b_per_cluster == 16

    def test_indivisible_split_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig.from_clusters(10, 2, 4)
        with pytest.raises(ValueError):
            TopologyConfig(m_antennas=10, k_users=2, c_clusters=4, b_per_cluster=3)

    def test_single_antenna_clusters(self):
        topo = TopologyConfig.from_clusters(4, 2, 4)
        assert topo.b_per_cluster == 1


class TestBuildChain:
    def test_rows_partitioned_in_order(self):
        h, _ = _instance(12, 3, 1, seed=0)
        chain = build_chain(TopologyConfig.from_clusters(12, 3, 4), h)
        assert len(chain) == 4
        for c, node in enumerate(chain):
            np.testing.assert_array_equal(node.local_csi, h.entries[3 * c : 3 * (c + 1)])

    def test_channel_topology_mismatch_rejected(self):
        h, _ = _instance(12, 3, 1, seed=0)
        with pytest.raises(ValueError):
            build_chain(TopologyConfig.from_clusters(8, 3, 4), h)


class TestPartitionEquivalence:
    @pytest.mark.parametrize("algorithm", ["rls", "sgd", "asgd"])
    @pytest.mark.parametrize("c", [1, 4, 16])
    def test_bit_identical_to_monolithic_chain(self, algorithm, c):
        m, k, n_re = 16, 4, 3
        h, batch = _instance(m, k, n_re, seed=5)
        params = _params(algorithm)
        chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
        outputs, _ = simulate_slot(chain, algorithm, batch, params=params)
        for r, y in enumerate(batch):
            reference = detectors.run_chain(algorithm, h, y, params)[-1]
            np.testing.assert_array_equal(outputs[r].values, reference.values)
            assert outputs[r].antenna_index == m

    def test_partitions_agree_with_each_other(self):
        m, k = 24, 4
        h, batch = _instance(m, k, 2, seed=6)
        results = []
        for c in (1, 3, 24):
            chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
            outputs, _ = simulate_slot(chain, "sgd", batch, params=SgdParams(mu=0.1))
            results.append([o.values for o in outputs])
        for other in results[1:]:
            for a, b in zip(results[0], other):
                np.testing.assert_array_equal(a, b)


class TestPipelineTiming:
    def test_single_cluster_has_no_pipeline_delay(self):
        h, batch = _instance(8, 2, 3, seed=1)
        chain = build_chain(TopologyConfig.from_clusters(8, 2, 1), h)
        _, report = simulate_slot(chain, "sgd", batch, params=SgdParams(mu=0.1))
        assert report.pipeline_delay == 0
        assert report.total_ticks == len(batch)

    @pytest.mark.parametrize("c,n_re", [(2, 1), (4, 1), (4, 7), (8, 3)])
    def test_fill_arithmetic_at_unit_cost(self, c, n_re):
        m, k = 8 * c, 2
        h, batch = _instance(m, k, n_re, seed=2)
        chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
        _, report = simulate_slot(chain, "sgd", batch, params=SgdParams(mu=0.1))
        assert report.pipeline_delay == c - 1
        assert report.total_ticks == c - 1 + n_re
        report.validate()

    def test_slower_clusters_stretch_uniformly(self):
        h, batch = _instance(12, 2, 4, seed=3)
        chain = build_chain(TopologyConfig.from_clusters(12, 2, 4), h)
        _, report = simulate_slot(
            chain, "sgd", batch, params=SgdParams(mu=0.1), cost=CostModel(re_ticks=3)
        )
        assert report.pipeline_delay == 3 * 3
        assert report.total_ticks == 3 * (4 - 1 + 4)
        report.validate()

    def test_rls_prep_jobs_precede_first_re(self):
        h, batch = _instance(12, 3, 2, seed=4)
        chain = build_chain(TopologyConfig.from_clusters(12, 3, 3), h)
        _, report = simulate_slot(chain, "rls", batch, cost=CostModel(re_ticks=1, prep_ticks=2))
        report.validate()
        prep = {e.cluster_id: e for e in report.entries if e.re_id == -1}
        first_re = {e.cluster_id: e for e in report.entries if e.re_id == 0}
        assert len(prep) == 3
        for c in range(3):
            assert prep[c].end_tick - prep[c].start_tick == 2
            assert first_re[c].start_tick >= prep[c].end_tick
        # the surrogate handoff pipelines too
        assert prep[1].start_tick >= prep[0].end_tick

    @pytest.mark.parametrize("algorithm,expected", [("rls", (15, 26)), ("sgd", (6, 12))])
    def test_prep_slower_than_re_sets_the_lag(self, algorithm, expected):
        # With prep jobs, cluster c starts RE 0 after its own prep at (c+1)*prep_ticks.
        h, batch = _instance(12, 3, 3, seed=4)
        chain = build_chain(TopologyConfig.from_clusters(12, 3, 4), h)
        _, report = simulate_slot(
            chain, algorithm, batch, params=_params(algorithm), cost=CostModel(re_ticks=2, prep_ticks=5)
        )
        report.validate()
        assert (report.pipeline_delay, report.total_ticks) == expected

    @pytest.mark.parametrize(
        "fields", [{"re_ticks": 1.5}, {"re_ticks": True}, {"prep_ticks": 2.0}, {"prep_ticks": False}, {"re_ticks": "2"}]
    )
    def test_non_integer_tick_costs_rejected(self, fields):
        with pytest.raises(ValueError, match="must be an integer"):
            CostModel(**fields)

    def test_prep_results_identical_regardless_of_prep_cost(self):
        h, batch = _instance(12, 3, 2, seed=4)
        topo = TopologyConfig.from_clusters(12, 3, 3)
        out_a, _ = simulate_slot(build_chain(topo, h), "rls", batch)
        out_b, _ = simulate_slot(build_chain(topo, h), "rls", batch, cost=CostModel(prep_ticks=5))
        for a, b in zip(out_a, out_b):
            np.testing.assert_array_equal(a.values, b.values)

    def test_empty_batch_rejected(self):
        h, _ = _instance(8, 2, 1, seed=1)
        chain = build_chain(TopologyConfig.from_clusters(8, 2, 2), h)
        with pytest.raises(ValueError):
            simulate_slot(chain, "sgd", [], params=SgdParams(mu=0.1))

    @pytest.mark.parametrize(
        "algorithm,params,message",
        [
            ("sgd", AsgdParams(mu=0.1, n0=2), "sgd needs SgdParams"),
            ("asgd", SgdParams(mu=0.1), "asgd needs AsgdParams"),
            ("sgd", None, "sgd needs SgdParams"),
            ("lms", None, "unknown algorithm 'lms'"),
        ],
    )
    def test_mismatched_algorithm_and_params_rejected(self, algorithm, params, message):
        # Cluster 0 never skips, so it rejects them even when power save would skip the rest.
        h, batch = _instance(8, 2, 3, seed=1)
        chain = build_chain(TopologyConfig.from_clusters(8, 2, 2), h)
        policy = PowerSavePolicy("early_exit", np.inf)
        with pytest.raises(ValueError, match=message):
            simulate_slot(chain, algorithm, batch, params=params, power_save=policy)


class TestDataLocalization:
    @pytest.mark.parametrize("algorithm,words_factor", [("sgd", 1), ("rls", 1), ("asgd", 2)])
    def test_token_payload_size(self, algorithm, words_factor):
        m, k = 8, 4
        h, batch = _instance(m, k, 2, seed=7)
        chain = build_chain(TopologyConfig.from_clusters(m, k, 4), h)
        log = []
        simulate_slot(chain, algorithm, batch, params=_params(algorithm), message_log=log)
        assert log
        for token in log:
            assert token.payload_complex_words == words_factor * k

    @pytest.mark.parametrize("algorithm", ["rls", "sgd", "asgd"])
    def test_tokens_never_carry_csi_or_observations(self, algorithm):
        m, k = 12, 3
        h, batch = _instance(m, k, 2, seed=8)
        chain = build_chain(TopologyConfig.from_clusters(m, k, 4), h)
        log = []
        simulate_slot(chain, algorithm, batch, params=_params(algorithm), message_log=log)
        allowed_fields = {"estimate", "re_id", "aux_iterate", "terminated"}
        for token in log:
            assert {f.name for f in dataclasses.fields(token)} == allowed_fields
            assert token.estimate.values.shape == (k,)
            if token.aux_iterate is not None:
                assert token.aux_iterate.shape == (k,)
            # K-vectors cannot hold a B x K CSI block or raw M-vector samples;
            # double-check the payload is not a disguised channel row either.
            for row in h.entries:
                assert not np.array_equal(token.estimate.values, row)


class TestPowerSave:
    def _run(self, policy, threshold, algorithm="sgd", seed=9, snr_noiseless=False):
        m, k, n_re, c = 16, 2, 3, 4
        h, batch = _instance(m, k, n_re, seed=seed)
        chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
        ps = PowerSavePolicy(policy, threshold) if policy else None
        log = []
        outputs, report = simulate_slot(
            chain, algorithm, batch, params=_params(algorithm), power_save=ps, message_log=log
        )
        return outputs, report, log

    def test_zero_threshold_changes_nothing(self):
        base, base_report, _ = self._run(None, None)
        out, report, _ = self._run("freeze", 0.0)
        assert report.skipped_steps == 0
        for a, b in zip(base, out):
            np.testing.assert_array_equal(a.values, b.values)
        assert base_report.total_ticks == report.total_ticks

    def test_infinite_threshold_freeze_stops_after_first_cluster(self):
        m, k, n_re, c = 16, 2, 3, 4
        h, batch = _instance(m, k, n_re, seed=10)
        chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
        outputs, report = simulate_slot(
            chain, "sgd", batch, params=SgdParams(mu=0.1),
            power_save=PowerSavePolicy("freeze", np.inf),
        )
        assert report.skipped_steps == (c - 1) * n_re
        for r, y in enumerate(batch):
            # only cluster 0 (antennas 0..B-1) ever updates
            reference = detectors.run_chain(
                "sgd", signal_model.ChannelMatrix(h.entries[:4]), y[:4], SgdParams(mu=0.1)
            )[-1]
            np.testing.assert_array_equal(outputs[r].values, reference.values)

    def test_infinite_threshold_early_exit_terminates_token(self):
        out_freeze, report_freeze, _ = self._run("freeze", np.inf, seed=11)
        out_exit, report_exit, log = self._run("early_exit", np.inf, seed=11)
        assert report_exit.skipped_steps == report_freeze.skipped_steps
        assert any(token.terminated for token in log)
        for a, b in zip(out_freeze, out_exit):
            np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("policy", ["freeze", "early_exit"])
    def test_exact_solution_freezes_downstream(self, policy):
        # Dyadic channel entries and symbols keep every product exact, so the
        # prediction error is exactly zero once the estimate equals s: later
        # clusters skip yet the delivered estimate matches the non-saving run.
        m, k, c = 8, 2, 4
        rng = np.random.default_rng(12)
        entries = rng.choice([0.25, 0.5, 1.0], size=(m, k)) + 1j * rng.choice([0.25, 0.5], size=(m, k))
        h = signal_model.ChannelMatrix(entries)
        s = np.array([1.0 + 0j, -1.0 + 0j])
        y = h.entries @ s
        chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
        saving, report = simulate_slot(
            chain, "sgd", [y], params=SgdParams(mu=0.125), s0=s,
            power_save=PowerSavePolicy(policy, 1e-12),
        )
        plain, _ = simulate_slot(chain, "sgd", [y], params=SgdParams(mu=0.125), s0=s)
        assert report.skipped_steps == c - 1
        np.testing.assert_array_equal(saving[0].values, s)
        np.testing.assert_array_equal(saving[0].values, plain[0].values)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PowerSavePolicy("pause", 0.1)
        with pytest.raises(ValueError):
            PowerSavePolicy("freeze", -1.0)

    def test_asgd_probe_uses_raw_iterate(self):
        # With s0 = exact solution the ASGD raw iterate stays put, so the probe
        # (measured on the iterate) skips downstream clusters.
        m, k, c = 8, 2, 4
        entries = np.full((m, k), 0.5 + 0.5j)
        h = signal_model.ChannelMatrix(entries)
        s = np.array([1.0 + 0j, 1.0 + 0j])
        y = h.entries @ s
        chain = build_chain(TopologyConfig.from_clusters(m, k, c), h)
        _, report = simulate_slot(
            chain, "asgd", [y], params=AsgdParams(mu=0.125, n0=2), s0=s,
            power_save=PowerSavePolicy("freeze", 1e-12),
        )
        assert report.skipped_steps == c - 1


class TestExtendChain:
    def test_appending_nothing_preserves_chain(self):
        h, _ = _instance(8, 2, 1, seed=13)
        chain = build_chain(TopologyConfig.from_clusters(8, 2, 2), h)
        extended = extend_chain(chain, [])
        assert len(extended) == 2
        for a, b in zip(chain, extended):
            np.testing.assert_array_equal(a.local_csi, b.local_csi)

    @pytest.mark.parametrize("algorithm", ["rls", "sgd", "asgd"])
    def test_concatenated_halves_equal_full_chain(self, algorithm):
        m, k, n_re = 16, 4, 2
        h, batch = _instance(m, k, n_re, seed=14)
        top = signal_model.ChannelMatrix(h.entries[: m // 2])
        bottom = signal_model.ChannelMatrix(h.entries[m // 2 :])
        half_topology = TopologyConfig.from_clusters(m // 2, k, 2)
        joined = extend_chain(build_chain(half_topology, top), build_chain(half_topology, bottom))
        full = build_chain(TopologyConfig.from_clusters(m, k, 4), h)
        params = _params(algorithm)
        out_joined, _ = simulate_slot(joined, algorithm, batch, params=params)
        out_full, _ = simulate_slot(full, algorithm, batch, params=params)
        for a, b in zip(out_joined, out_full):
            np.testing.assert_array_equal(a.values, b.values)
        assert [node.cluster_id for node in joined] == [0, 1, 2, 3]

    def test_user_count_mismatch_rejected(self):
        h2, _ = _instance(8, 2, 1, seed=15)
        h3, _ = _instance(9, 3, 1, seed=15)
        a = build_chain(TopologyConfig.from_clusters(8, 2, 2), h2)
        b = build_chain(TopologyConfig.from_clusters(9, 3, 3), h3)
        with pytest.raises(ValueError):
            extend_chain(a, b)


class TestTimelineCsv:
    def test_schema_and_contents(self, tmp_path):
        h, batch = _instance(8, 2, 2, seed=16)
        chain = build_chain(TopologyConfig.from_clusters(8, 2, 2), h)
        _, report = simulate_slot(chain, "sgd", batch, params=SgdParams(mu=0.1))
        path = tmp_path / "timeline.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cluster_id", "re_id", "start_tick", "end_tick", "skipped_flag"]
        assert len(rows) == 1 + len(report.entries)
        for row in rows[1:]:
            assert len(row) == 5
            int_row = [int(v) for v in row]
            assert int_row[3] >= int_row[2]


# Recorded from the token-by-token simulator this one replaced: entry order,
# ticks and skip flags of a small RLS slot with freeze power save.
GOLDEN_TIMELINE = (
    "cluster_id,re_id,start_tick,end_tick,skipped_flag\r\n"
    "0,-1,0,2,0\r\n"
    "0,0,2,4,0\r\n"
    "0,1,4,6,0\r\n"
    "0,2,6,8,0\r\n"
    "0,3,8,10,0\r\n"
    "1,-1,2,4,0\r\n"
    "1,0,4,6,1\r\n"
    "2,-1,4,6,0\r\n"
    "1,1,6,8,0\r\n"
    "2,0,6,8,0\r\n"
    "1,2,8,10,1\r\n"
    "2,1,8,10,1\r\n"
    "1,3,10,12,1\r\n"
    "2,2,10,12,1\r\n"
    "2,3,12,14,0\r\n"
)


class TestGoldenTimeline:
    def test_csv_is_pinned_byte_for_byte(self, tmp_path):
        h, batch = _instance(12, 3, 4, seed=17)
        chain = build_chain(TopologyConfig.from_clusters(12, 3, 3), h)
        _, report = simulate_slot(
            chain, "rls", batch,
            power_save=PowerSavePolicy("freeze", 2.5),
            cost=CostModel(re_ticks=2, prep_ticks=2),
        )
        path = tmp_path / "timeline.csv"
        report.to_csv(path)
        assert path.read_bytes() == GOLDEN_TIMELINE.encode()
        assert report.skipped_steps == 5
        assert (report.pipeline_delay, report.total_ticks) == (4, 14)


def _heap_schedule(n_clusters, n_re, with_prep, cost):
    """Reference event loop: pops jobs by ``(ready_tick, seq)``; a busy cluster queues them."""
    events = []  # (ready_tick, seq, cluster_idx, re_id)
    seq = 0
    if with_prep:
        events.append((0, seq, 0, -1))
        seq += 1
    for r in range(n_re):
        events.append((0, seq, 0, r))
        seq += 1
    free_at = [0] * n_clusters
    jobs = []
    pop, push, last = heapq.heappop, heapq.heappush, n_clusters - 1
    while events:
        ready, _, c, r = pop(events)
        start = ready if ready > free_at[c] else free_at[c]
        end = start + (cost.prep_ticks if r < 0 else cost.re_ticks)
        jobs.append((c, r, start, end))
        if c < last:
            push(events, (end, seq, c + 1, r))
            seq += 1
        free_at[c] = end
    return jobs


class TestClosedFormSchedule:
    @given(
        n_clusters=st.integers(1, 40),
        n_re=st.integers(1, 60),
        re_ticks=st.integers(1, 7),
        prep_ticks=st.integers(0, 20),
        with_prep=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_heap_event_loop(self, n_clusters, n_re, re_ticks, prep_ticks, with_prep):
        cost = CostModel(re_ticks=re_ticks, prep_ticks=prep_ticks)
        expected = _heap_schedule(n_clusters, n_re, with_prep, cost)
        assert chain_sim._schedule(n_clusters, n_re, with_prep, cost) == expected


class TestChainReuse:
    @pytest.mark.parametrize("algorithm", ["rls", "sgd", "asgd"])
    def test_one_chain_serves_many_batches(self, algorithm):
        m, k = 16, 3
        h, batch_a = _instance(m, k, 5, seed=18)
        _, batch_b = _instance(m, k, 3, seed=19)
        topology = TopologyConfig.from_clusters(m, k, 4)
        policy = PowerSavePolicy("early_exit", 1.5)
        chain = build_chain(topology, h)
        before = [dataclasses.replace(node, local_csi=node.local_csi.copy()) for node in chain]
        for batch in (batch_a, batch_b, batch_a):
            reused = simulate_slot(chain, algorithm, batch, params=_params(algorithm), power_save=policy)
            fresh = simulate_slot(build_chain(topology, h), algorithm, batch, params=_params(algorithm), power_save=policy)
            for a, b in zip(reused[0], fresh[0]):
                np.testing.assert_array_equal(a.values, b.values)
                assert a.antenna_index == b.antenna_index
            assert reused[1].entries == fresh[1].entries
        for node, kept in zip(chain, before):
            assert {f.name for f in dataclasses.fields(node)} == {"cluster_id", "local_csi"}
            assert vars(node).keys() == vars(kept).keys()
            assert node.cluster_id == kept.cluster_id
            np.testing.assert_array_equal(node.local_csi, kept.local_csi)


def _uneven_chain(h, sizes):
    """Clusters of ``sizes`` antennas over the rows of ``h``, numbered by ``extend_chain``."""
    bounds = np.cumsum([0] + sizes)
    return extend_chain([], [ClusterNode(0, h.entries[a:b]) for a, b in zip(bounds, bounds[1:])])


def _kept_antennas(report, n_re, sizes):
    """Per RE, the antennas of the clusters that processed it, in chain order."""
    bounds = np.cumsum([0] + sizes)
    kept = [[] for _ in range(n_re)]
    for e in sorted(report.entries, key=lambda e: e.cluster_id):
        if e.re_id >= 0 and not e.skipped:
            kept[e.re_id].extend(range(bounds[e.cluster_id], bounds[e.cluster_id + 1]))
    return [np.array(rows, dtype=int) for rows in kept]


def _replay(algorithm, h, y, rows, params, gains):
    """The estimate from only the antennas ``rows``: run_chain when they can form a channel."""
    k = h.k_users
    if algorithm == "rls":
        params = detectors.RlsPrecomp(alphas=gains.alphas[rows], zs=gains.zs[rows], gamma_final=gains.gamma_final)
    if len(rows) >= k:
        return detectors.run_chain(algorithm, signal_model.ChannelMatrix(h.entries[rows]), y[rows], params)[-1]
    # Fewer rows than users: no ChannelMatrix, so step through the same arithmetic.
    estimate = detectors.EstimateVector(np.zeros(k, complex), 0)
    state = detectors.AsgdState(np.zeros(k, complex), np.zeros(k, complex), 0, n0=getattr(params, "n0", 1))
    for i, n in enumerate(rows):
        if algorithm == "rls":
            estimate = detectors.rls_step(estimate, h.entries[n], y[n], params.alphas[i], params.zs[i]).estimate_after
        elif algorithm == "sgd":
            estimate = detectors.sgd_step(estimate, h.entries[n], y[n], params.step_size(i + 1)).estimate_after
        else:
            state = detectors.asgd_step(state, h.entries[n], y[n], params.mu)
            estimate = detectors.EstimateVector(state.s_avg, state.n)
    return estimate


@st.composite
def _slots(draw):
    k = draw(st.integers(1, 64))
    b = draw(st.integers(1, 8))
    c = draw(st.integers(-(-k // b), -(-k // b) + 3))
    # Uneven partitions: each cluster holds 1..b antennas, padded with full clusters to M >= K.
    sizes = draw(st.lists(st.integers(1, b), min_size=c, max_size=c))
    while sum(sizes) < k:
        sizes.append(b)
    algorithm = draw(st.sampled_from(["rls", "sgd", "asgd"]))
    params = {
        "rls": None,
        "sgd": SgdParams(mu=0.3 / k),
        "asgd": AsgdParams(mu=0.3 / k, n0=draw(st.integers(1, 2 * b + 1))),
    }[algorithm]
    mode = draw(st.sampled_from([None, "freeze", "early_exit"]))
    policy = None if mode is None else PowerSavePolicy(mode, draw(st.floats(0.0, 4.0)))
    return k, sizes, draw(st.integers(1, 50)), algorithm, params, policy, draw(st.integers(0, 2**32 - 1))


class TestSlotBatchInvariance:
    @given(case=_slots())
    @settings(max_examples=60, deadline=None)
    def test_outputs_equal_run_chain_over_processed_antennas(self, case):
        k, sizes, n_re, algorithm, params, policy, seed = case
        h, batch = _instance(sum(sizes), k, n_re, seed)
        chain = _uneven_chain(h, sizes)
        outputs, report = simulate_slot(chain, algorithm, batch, params=params, power_save=policy)
        gains = detectors.rls_preprocess(h.entries)
        for r, rows in enumerate(_kept_antennas(report, n_re, sizes)):
            expected = _replay(algorithm, h, batch[r], rows, params, gains)
            assert outputs[r].antenna_index == len(rows)
            assert outputs[r].values.tobytes() == expected.values.tobytes()

    @given(case=_slots(), pick=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_outputs_do_not_depend_on_batch_companions(self, case, pick):
        k, sizes, n_re, algorithm, params, policy, seed = case
        h, batch = _instance(sum(sizes), k, n_re, seed)
        chain = _uneven_chain(h, sizes)
        outputs, report = simulate_slot(chain, algorithm, batch, params=params, power_save=policy)
        subset = pick.sample(range(n_re), pick.randint(1, n_re))
        sub_outputs, sub_report = simulate_slot(
            chain, algorithm, [batch[r] for r in subset], params=params, power_save=policy
        )
        flags = {(e.cluster_id, e.re_id): e.skipped for e in report.entries}
        for j, r in enumerate(subset):
            assert sub_outputs[j].values.tobytes() == outputs[r].values.tobytes()
            for cl in range(len(sizes)):
                assert flags[(cl, r)] == next(
                    e.skipped for e in sub_report.entries if e.cluster_id == cl and e.re_id == j
                )
