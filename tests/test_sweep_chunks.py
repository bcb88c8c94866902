"""Chunked sweeps against a trial-by-trial oracle.

The sweeps run their trials in chunks through the batched kernel. Their
results must not depend on the chunk size and must equal, bit for bit, a loop
that draws and detects one trial at a time with the public per-trial API
(``run_chain``, ``rls_preprocess`` inside it, ``zf_detect``, the string
``modulate``/``demodulate_hard``). The oracle also pins the per-trial seed
paths: ``(master_seed, 1, t)`` for MSE trial ``t`` and ``(master_seed, 2, j, t)``
for trial ``t`` of BER point ``j``.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daisymimo import detectors, harness, signal_model
from daisymimo.chain_sim import TopologyConfig
from daisymimo.harness import AlgorithmSpec, CurvePoint, ExperimentSpec, derive_seeds

ALGORITHMS = (
    AlgorithmSpec("sgd", mu=0.05),
    AlgorithmSpec("asgd", mu=0.05, n0=3),
    AlgorithmSpec("rls"),
    AlgorithmSpec("zf"),
)
CHUNK_LIMITS = (1, 3, harness._CHUNK_MAX_TRIALS)


def _draw(spec, path, snr_db):
    """One trial as the per-trial loop draws it: channel, bit string, symbols, observation, prior."""
    m, k = spec.topology.m_antennas, spec.topology.k_users
    const = signal_model.Constellation.qam(spec.constellation_order)
    ch_seed, bits_seed, noise_seed, s0_seed = derive_seeds(spec.master_seed, path, 4)
    h = signal_model.generate_rayleigh_channel(m, k, ch_seed)
    n_bits = k * const.bits_per_symbol
    bits = "".join("01"[b] for b in np.random.default_rng(bits_seed).integers(0, 2, n_bits))
    s = signal_model.modulate(bits, const, k)
    y = signal_model.transmit(h, s, snr_db, noise_seed)
    s0 = None
    if spec.s0_mode == "random":
        rng = np.random.default_rng(s0_seed)
        s0 = np.sqrt(0.5) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return const, h, bits, s, y, s0


def _point(x, total, total_sq, n):
    mean = float(total) / n
    stderr = 0.0 if n < 2 else math.sqrt(max(float(total_sq) / n - mean * mean, 0.0) * n / (n - 1) / n)
    return CurvePoint(x=x, mean=float(mean), stderr=float(stderr), n_trials=n)


def _mse_oracle(spec):
    m, k = spec.topology.m_antennas, spec.topology.k_users
    totals = {a.label: [np.zeros(m), np.zeros(m)] for a in spec.algorithms if a.name != "zf"}
    zf = [0.0, 0.0]
    for t in range(spec.trials):
        const, h, _, s, y, s0 = _draw(spec, (1, t), spec.snr_db)
        for alg in spec.algorithms:
            if alg.name == "zf":
                mse = float(np.sum(np.abs(detectors.zf_detect(h, y).values - s) ** 2) / k)
                zf[0] += mse
                zf[1] += mse * mse
                continue
            traj = detectors.run_chain(alg.name, h, y, alg.detector_params(), s0=s0)
            per_index = (np.abs(np.stack([e.values for e in traj]) - s[None, :]) ** 2).sum(axis=1) / k
            totals[alg.label][0] += per_index
            totals[alg.label][1] += per_index**2
    curves = {}
    for alg in spec.algorithms:
        if alg.name == "zf":
            curves[alg.label] = (_point(m, zf[0], zf[1], spec.trials),)
        else:
            total, total_sq = totals[alg.label]
            curves[alg.label] = tuple(_point(n + 1, total[n], total_sq[n], spec.trials) for n in range(m))
    return curves


def _ber_oracle(spec):
    k = spec.topology.k_users
    curves = {a.label: [] for a in spec.algorithms}
    for j, snr_db in enumerate(spec.snr_db_grid):
        errors = {a.label: 0 for a in spec.algorithms}
        fracs = {a.label: [0.0, 0.0] for a in spec.algorithms}
        t = 0
        while t < spec.max_trials_per_point and any(e < spec.target_errors for e in errors.values()):
            const, h, bits, _, y, s0 = _draw(spec, (2, j, t), snr_db)
            for alg in spec.algorithms:
                if alg.name == "zf":
                    est = detectors.zf_detect(h, y)
                else:
                    est = detectors.run_chain(alg.name, h, y, alg.detector_params(), s0=s0)[-1]
                n_err = sum(a != b for a, b in zip(bits, signal_model.demodulate_hard(est, const)))
                errors[alg.label] += n_err
                frac = n_err / len(bits)
                fracs[alg.label][0] += frac
                fracs[alg.label][1] += frac * frac
            t += 1
        for alg in spec.algorithms:
            point = _point(float(snr_db), *fracs[alg.label], t)
            ber = errors[alg.label] / (t * k * const.bits_per_symbol)
            curves[alg.label].append(CurvePoint(x=point.x, mean=ber, stderr=point.stderr, n_trials=t))
    return {label: tuple(points) for label, points in curves.items()}


def _curves(result):
    return {c.label: c.points for c in result.curves}


def _run_with_chunk_limit(sweep, spec, limit):
    with mock.patch.object(harness, "_CHUNK_MAX_TRIALS", limit):
        return _curves(sweep(spec))


_shapes = st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, k + 8)))


class TestMseSweepChunks:
    @given(
        shape=_shapes,
        trials=st.integers(1, 8),
        s0_mode=st.sampled_from(("zero", "random")),
        order=st.sampled_from((4, 16)),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    # A ZF error whose square ``x * x`` differs from ``x ** 2`` (libm pow) by one ulp.
    @example(shape=(4, 9), trials=2, s0_mode="zero", order=4, seed=207)
    def test_chunk_sizes_agree_with_the_per_trial_loop(self, shape, trials, s0_mode, order, seed):
        k, m = shape
        spec = ExperimentSpec(
            kind="mse_sweep", topology=TopologyConfig(m, k, 1, m), algorithms=ALGORITHMS, snr_db=8.0,
            constellation_order=order, trials=trials, master_seed=seed, s0_mode=s0_mode,
        )
        oracle = _mse_oracle(spec)
        for limit in CHUNK_LIMITS:
            assert _run_with_chunk_limit(harness.run_mse_sweep, spec, limit) == oracle

    def test_chunk_byte_budget_bounds_the_chunk(self):
        with mock.patch.object(harness, "_CHUNK_ROW_BYTES", 3 * 8 * 2 * 16):
            chunks = harness._chunks(10, 8, 2)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [t for c in chunks for t in c] == list(range(10))
        assert [len(c) for c in harness._chunks(100, 256, 16)] == [25] * 4
        assert max(len(c) for c in harness._chunks(50, 2048, 16)) * 2048 * 16 * 16 <= harness._CHUNK_ROW_BYTES


class TestBerSweepChunks:
    @given(
        shape=_shapes,
        cap=st.integers(1, 12),
        target=st.integers(1, 30),
        s0_mode=st.sampled_from(("zero", "random")),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunk_sizes_agree_with_the_per_trial_loop(self, shape, cap, target, s0_mode, seed):
        k, m = shape
        spec = ExperimentSpec(
            kind="ber_sweep", topology=TopologyConfig(m, k, 1, m), algorithms=ALGORITHMS,
            snr_db_grid=(-6.0, 3.0, 40.0), constellation_order=16, target_errors=target,
            max_trials_per_point=cap, master_seed=seed, s0_mode=s0_mode,
        )
        oracle = _ber_oracle(spec)
        for limit in CHUNK_LIMITS:
            assert _run_with_chunk_limit(harness.run_ber_sweep, spec, limit) == oracle

    def test_early_stop_inside_a_chunk_keeps_the_trial_count(self):
        spec = ExperimentSpec(
            kind="ber_sweep", topology=TopologyConfig(8, 2, 1, 8), algorithms=ALGORITHMS,
            snr_db_grid=(-10.0,), constellation_order=4, target_errors=12, max_trials_per_point=40,
            master_seed=5,
        )
        oracle = _ber_oracle(spec)
        n_trials = oracle["rls"][0].n_trials
        chunk = len(harness._chunks(spec.max_trials_per_point, 8, 2)[0])
        assert 1 < n_trials < chunk  # the stop falls strictly inside the first chunk
        assert _curves(harness.run_ber_sweep(spec)) == oracle
