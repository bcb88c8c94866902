"""The benchmark's three workloads: set-up, one timed call, and the output checks.

Every workload is a closed loop with one client: the benchmark prepares the
inputs of call ``i`` (untimed), times ``call`` on them, then checks the
outputs (untimed). Call ``i`` gets its own master seed, derived from the
workload seed, so one ``--seed`` fixes every input of a run.

All library entry points are looked up on their modules at call time
(``harness.run_mse_sweep``, ``chain_sim.simulate_slot``, ...). The traced run
replaces those module attributes with timing wrappers, so calls made here go
through them.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from daisymimo import chain_sim, config, detectors, harness, signal_model
from daisymimo.chain_sim import CostModel, TopologyConfig
from daisymimo.harness import AlgorithmSpec

# Per-call sizes. "full" is what the benchmark measures; "tiny" only exercises
# the same code paths quickly (the smoke self-test).
SIZES = {
    "full": {"mse_trials": 100, "ber_grid": (0.0, 6.0, 12.0), "ber_target": 100, "ber_cap": 100, "slot_re": 400},
    "tiny": {"mse_trials": 2, "ber_grid": (0.0,), "ber_target": 100, "ber_cap": 2, "slot_re": 4},
}


REPLAY_STRIDE = 8


def master_seed(seed: int, call_index: int) -> int:
    """Master seed of call ``call_index`` (0 is the untimed warm-up) in a run seeded ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(call_index)]).generate_state(1, np.uint32)[0])


def _bit_string(n: int, seed: int) -> str:
    return "".join("01"[b] for b in np.random.default_rng(seed).integers(0, 2, n))


class MseWorkload:
    """``configs/mse_m256.json`` as shipped, at 100 trials per ``run_mse_sweep`` call."""

    name = "mse_m256"
    source = "configs/mse_m256.json"

    def __init__(self, root: Path, size: str = "full"):
        self.spec = dataclasses.replace(config.load_spec(root / self.source), trials=SIZES[size]["mse_trials"])
        self.m = self.spec.topology.m_antennas

    def prepare(self, seed: int):
        return dataclasses.replace(self.spec, master_seed=seed)

    def call(self, spec):
        return harness.run_mse_sweep(spec)

    def trials(self, result) -> int:
        return result.spec.trials

    def detections(self, result) -> int:
        """Received vectors estimated, counted once per detector."""
        return result.spec.trials * len(result.spec.algorithms)

    def check(self, spec, result, call_index: int) -> list:
        errors = []
        zf_last = sorted(spec.algorithms, key=lambda a: a.name == "zf")
        if [c.label for c in result.curves] != [a.label for a in zf_last]:
            errors.append("curve labels do not match the configured algorithms")
        for curve in result.curves:
            expected = 1 if curve.label == "zf" else self.m
            if len(curve.points) != expected:
                errors.append(f"{curve.label}: {len(curve.points)} points, expected {expected}")
            for p in curve.points:
                if p.n_trials != spec.trials:
                    errors.append(f"{curve.label} x={p.x}: n_trials {p.n_trials} != {spec.trials}")
                    break
                if not (math.isfinite(p.mean) and p.mean >= 0 and math.isfinite(p.stderr) and p.stderr >= 0):
                    errors.append(f"{curve.label} x={p.x}: mean {p.mean!r} stderr {p.stderr!r}")
                    break
        return errors

    def digest(self, result) -> dict:
        out = {}
        for curve in result.curves:
            means = curve.means()
            idx = [0, 15, 63, 127, len(means) - 1] if len(means) > 1 else [0]
            out[curve.label] = {
                "n_trials": sorted({p.n_trials for p in curve.points}),
                "mean_sum": float(means.sum()),
                "means": [float(means[i]) for i in idx],
                "stderr_last": curve.points[-1].stderr,
            }
        return out


class BerWorkload:
    """``configs/ber_m256_16qam.json`` cut to three SNR points and 100 trials per point."""

    name = "ber_m256_16qam"
    source = "configs/ber_m256_16qam.json"

    def __init__(self, root: Path, size: str = "full"):
        s = SIZES[size]
        self.spec = dataclasses.replace(
            config.load_spec(root / self.source),
            snr_db_grid=s["ber_grid"],
            target_errors=s["ber_target"],
            max_trials_per_point=s["ber_cap"],
        )
        self.m = self.spec.topology.m_antennas
        order = self.spec.constellation_order
        self.bits_per_vector = self.spec.topology.k_users * int(round(math.log2(order)))

    def prepare(self, seed: int):
        return dataclasses.replace(self.spec, master_seed=seed)

    def call(self, spec):
        return harness.run_ber_sweep(spec)

    def trials(self, result) -> int:
        """Recorded trials summed over SNR points (trials past an early stop do not count)."""
        return sum(p.n_trials for p in result.curves[0].points)

    def detections(self, result) -> int:
        return self.trials(result) * len(result.curves)

    def error_counts(self, curve) -> list:
        return [p.mean * p.n_trials * self.bits_per_vector for p in curve.points]

    def check(self, spec, result, call_index: int) -> list:
        errors = []
        if [c.label for c in result.curves] != [a.label for a in spec.algorithms]:
            errors.append("curve labels do not match the configured algorithms")
            return errors
        all_counts = [self.error_counts(c) for c in result.curves]
        for j, snr in enumerate(spec.snr_db_grid):
            points = [c.points[j] for c in result.curves]
            n = points[0].n_trials
            if any(p.n_trials != n for p in points) or not 1 <= n <= spec.max_trials_per_point:
                errors.append(f"snr {snr}: trial counts {[p.n_trials for p in points]}")
                continue
            counts = [c[j] for c in all_counts]
            if any(abs(e - round(e)) > 1e-6 * max(1.0, e) for e in counts):
                errors.append(f"snr {snr}: error counts {counts} are not whole numbers")
                continue
            if n < spec.max_trials_per_point and any(round(e) < spec.target_errors for e in counts):
                errors.append(f"snr {snr}: stopped at {n} trials with error counts {counts}")
        return errors

    def digest(self, result) -> dict:
        return {
            curve.label: {
                "n_trials": [p.n_trials for p in curve.points],
                "errors": [round(e) for e in self.error_counts(curve)],
                "means": [p.mean for p in curve.points],
                "stderrs": [p.stderr for p in curve.points],
            }
            for curve in result.curves
        }


@dataclasses.dataclass
class SlotInputs:
    h: signal_model.ChannelMatrix
    re_batch: list


class SlotWorkload:
    """One coherence block of 400 REs through the daisy-chain simulator, M=256, C=32.

    Power save, SNR, constellation and tick costs come from
    ``configs/simulate_chain.json``; the array, the RE count and the three
    algorithms are overridden.
    """

    name = "slot_m256_c32"
    source = "configs/simulate_chain.json"

    def __init__(self, root: Path, size: str = "full"):
        self.spec = dataclasses.replace(
            config.load_spec(root / self.source),
            topology=TopologyConfig.from_clusters(256, 16, 32),
            re_count=SIZES[size]["slot_re"],
            algorithms=(
                AlgorithmSpec("rls"),
                AlgorithmSpec("sgd", mu=0.02),
                AlgorithmSpec("asgd", mu=0.04, n0=75),
            ),
        )
        self.topology = self.spec.topology
        self.m, self.k = self.topology.m_antennas, self.topology.k_users
        self.const = signal_model.Constellation.qam(self.spec.constellation_order)
        self.cost = CostModel(re_ticks=self.spec.re_ticks, prep_ticks=self.spec.prep_ticks)

    def prepare(self, seed: int) -> SlotInputs:
        """Draw the block's channel and its REs with the public signal-model functions."""
        n_re = self.spec.re_count
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(1 + 2 * n_re, np.uint64)]
        h = signal_model.generate_rayleigh_channel(self.m, self.k, seeds[0])
        nbits = self.k * self.const.bits_per_symbol
        re_batch = []
        for r in range(n_re):
            s = signal_model.modulate(_bit_string(nbits, seeds[1 + 2 * r]), self.const, self.k)
            re_batch.append(signal_model.transmit(h, s, self.spec.snr_db, seeds[2 + 2 * r]))
        return SlotInputs(h=h, re_batch=re_batch)

    def call(self, inputs: SlotInputs) -> dict:
        out = {}
        for alg in self.spec.algorithms:
            chain = chain_sim.build_chain(self.topology, inputs.h)
            out[alg.label] = chain_sim.simulate_slot(
                chain,
                alg.name,
                inputs.re_batch,
                params=alg.detector_params(),
                power_save=self.spec.power_save,
                cost=self.cost,
            )
        return out

    def trials(self, result) -> int:
        """One trial is one coherence block detected by every algorithm."""
        return 1

    def detections(self, result) -> int:
        """REs delivered to the sink, summed over the algorithms."""
        return sum(sum(e is not None for e in outputs) for outputs, _ in result.values())

    def check(self, inputs: SlotInputs, result, call_index: int) -> list:
        """Timeline checks, plus a replay of REs through ``detectors.run_chain``.

        The warm-up call (index 0) replays every RE. A replay costs about as
        much as the simulation, so timed call ``i`` replays the REs with
        ``r % REPLAY_STRIDE == i % REPLAY_STRIDE``; a run of REPLAY_STRIDE
        calls covers every RE index.
        """
        errors = []
        n_re = len(inputs.re_batch)
        replayed = range(n_re) if call_index == 0 else range(call_index % REPLAY_STRIDE, n_re, REPLAY_STRIDE)
        samples = np.stack([rv.samples for rv in inputs.re_batch])
        gains = detectors.rls_preprocess(inputs.h.entries)
        b = self.topology.b_per_cluster
        for alg in self.spec.algorithms:
            outputs, timeline = result[alg.label]
            try:
                timeline.validate()
            except ValueError as exc:
                errors.append(f"{alg.label}: timeline invalid: {exc}")
            jobs = [e for e in timeline.entries if e.re_id >= 0]
            if timeline.skipped_steps != sum(e.skipped for e in jobs):
                errors.append(f"{alg.label}: skipped_steps {timeline.skipped_steps} does not match the timeline")
            if len(jobs) != n_re * self.topology.c_clusters or len(outputs) != n_re:
                errors.append(f"{alg.label}: {len(jobs)} jobs and {len(outputs)} outputs for {n_re} REs")
                continue
            kept = {r: [] for r in range(n_re)}
            for e in sorted(jobs, key=lambda e: e.cluster_id):
                if not e.skipped:
                    kept[e.re_id].extend(range(e.cluster_id * b, (e.cluster_id + 1) * b))
            mismatched = [
                r for r in replayed
                if outputs[r] is None
                or not np.array_equal(outputs[r].values, self._replay(alg, inputs.h, samples[r], kept[r], gains))
            ]
            if any(e is None for e in outputs):
                errors.append(f"{alg.label}: some REs never reached the sink")
            if mismatched:
                errors.append(f"{alg.label}: {len(mismatched)} REs differ from a run_chain replay (first {mismatched[0]})")
        return errors

    def _replay(self, alg, h, y, rows, gains) -> np.ndarray:
        """Estimate from the antennas ``rows`` that processed this RE, in chain order."""
        rows = np.asarray(rows, dtype=int)
        if alg.name == "rls":
            params = detectors.RlsPrecomp(alphas=gains.alphas[rows], zs=gains.zs[rows], gamma_final=gains.gamma_final)
        else:
            params = alg.detector_params()
        if len(rows) >= self.k:
            sub = signal_model.ChannelMatrix(h.entries[rows])
            return detectors.run_chain(alg.name, sub, y[rows], params)[-1].values
        # ChannelMatrix needs M >= K, so short chains replay through the step functions.
        estimate = detectors.EstimateVector(np.zeros(self.k, dtype=np.complex128), 0)
        state = detectors.AsgdState(x=estimate.values.copy(), s_avg=estimate.values.copy(), n=0, n0=alg.n0 or 1)
        for i, n in enumerate(rows):
            row = h.entries[n]
            if alg.name == "rls":
                estimate = detectors.rls_step(estimate, row, y[n], params.alphas[i], params.zs[i]).estimate_after
            elif alg.name == "sgd":
                estimate = detectors.sgd_step(estimate, row, y[n], params.step_size(i + 1)).estimate_after
            else:
                state = detectors.asgd_step(state, row, y[n], params.step_size(i + 1))
        return state.s_avg if alg.name == "asgd" else estimate.values

    def digest(self, result) -> dict:
        out = {}
        for label, (outputs, timeline) in result.items():
            values = np.stack([e.values for e in outputs])
            out[label] = {
                "total_ticks": timeline.total_ticks,
                "pipeline_delay": timeline.pipeline_delay,
                "skipped_steps": timeline.skipped_steps,
                "skipped_per_re": np.bincount(
                    [e.re_id for e in timeline.entries if e.skipped], minlength=len(outputs)
                ).tolist(),
                "value_sum": [float(values.real.sum()), float(values.imag.sum())],
                "value_sq_sum": float((np.abs(values) ** 2).sum()),
            }
        return out

    @staticmethod
    def sim_stats(result) -> dict:
        """Simulated chain statistics of one call, summed over its algorithms."""
        jobs = skipped = ticks = busy = capacity = delay = 0
        for _, timeline in result.values():
            entries = [e for e in timeline.entries if e.re_id >= 0]
            n_clusters = len({e.cluster_id for e in timeline.entries})
            jobs += len(entries)
            skipped += sum(e.skipped for e in entries)
            ticks += timeline.total_ticks
            busy += sum(e.end_tick - e.start_tick for e in timeline.entries)
            capacity += n_clusters * timeline.total_ticks
            delay = max(delay, timeline.pipeline_delay)
        return {
            "jobs": jobs,
            "skipped_jobs": skipped,
            "skip_ratio": skipped / jobs,
            "busy_ratio": busy / capacity,
            "total_ticks": ticks,
            "pipeline_delay_ticks": delay,
        }


WORKLOADS = {w.name: w for w in (MseWorkload, BerWorkload, SlotWorkload)}


def make(name: str, root: Path, size: str = "full"):
    return WORKLOADS[name](Path(root), size)
