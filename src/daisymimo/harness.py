"""Monte Carlo experiment driver: MSE sweeps, BER sweeps, slot simulation, rate tables.

Every experiment is described by an :class:`ExperimentSpec` and driven from a
single master seed. Per-trial seeds are derived deterministically from
``(master_seed, experiment tag, indices)`` via ``numpy.random.SeedSequence``,
so results are bit-reproducible and trials could be farmed out in any order
without changing the outcome (sums are reduced in trial order).

The MSE and BER sweeps run their trials in chunks. A chunk draws each of its
trials from that trial's own seeds, stacks the channels antenna-major
``(M, T, K)``, and runs every recursive detector over the whole chunk with one
kernel call (:func:`detectors.absorb`, with the RLS gains from one batched
:func:`detectors.rls_preprocess`), so the per-antenna Python loop runs once
per chunk instead of once per trial. Zero forcing stays per trial. Chunk
sizes follow from a byte budget on the channel rows (and a cap of a few dozen
trials), so a sweep's working set does not grow with its trial count.

Results do not depend on the chunk size, bit for bit: the kernel rounds every
batch element exactly as it would round that trial alone, and the reduction
is done per trial in trial order, as a one-trial-at-a-time loop would. A BER
point stops after the first trial at which every algorithm has reached the
error target; the trials a chunk computed past that point are dropped, so
the recorded trial and error counts are those of the trial-by-trial rule.

Outputs are :class:`ResultSet` objects: one curve per algorithm (zero
forcing's MSE is a one-point curve at x = M), each point carrying mean,
standard error and trial count, plus the spec and tool version that produced
them (the ``mimo`` command echoes both into ``manifest.json``). Every mean and
standard error comes from one trial-order accumulator, :class:`_Moments`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__, chain_sim, detectors, interconnect, signal_model
from .chain_sim import CostModel, PowerSavePolicy, TopologyConfig
from .detectors import AsgdParams, SgdParams
from .interconnect import TABLE_SCENARIOS, FrameConfig, RateReport, RateScenario
from .signal_model import Constellation

__all__ = [
    "AlgorithmSpec",
    "Curve",
    "CurvePoint",
    "ExperimentSpec",
    "ResultSet",
    "run_ber_sweep",
    "run_experiment",
    "run_mse_sweep",
    "run_rate_table",
    "run_simulation",
]

EXPERIMENT_KINDS = ("mse_sweep", "ber_sweep", "rate_table", "simulate")
CSV_SCHEMA_VERSION = 1

CHAIN_ALGORITHMS = detectors.ALGORITHMS
ALL_ALGORITHMS = CHAIN_ALGORITHMS + ("zf",)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One detector configuration to run: name plus its tuning knobs."""

    name: str
    mu: Optional[float] = None
    n0: Optional[int] = None

    def __post_init__(self):
        if self.name not in ALL_ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.name!r}; expected one of {ALL_ALGORITHMS}")
        if self.name in ("sgd", "asgd") and self.mu is None:
            raise ValueError(f"{self.name} needs a step size mu")
        if self.name == "asgd" and self.n0 is None:
            raise ValueError("asgd needs an averaging onset n0")
        if self.name in ("rls", "zf") and (self.mu is not None or self.n0 is not None):
            raise ValueError(f"{self.name} takes no mu/n0 parameters")
        self.detector_params()  # the detectors' own range checks on mu and n0

    @property
    def label(self) -> str:
        if self.name == "sgd":
            return f"sgd(mu={self.mu:g})"
        if self.name == "asgd":
            return f"asgd(mu={self.mu:g},n0={self.n0})"
        return self.name

    def detector_params(self):
        if self.name == "sgd":
            return SgdParams(mu=self.mu)
        if self.name == "asgd":
            return AsgdParams(mu=self.mu, n0=self.n0)
        return None


_INT_FIELD_MINIMA = (
    ("trials", 1), ("target_errors", 1), ("max_trials_per_point", 1), ("re_count", 1),
    ("re_ticks", 1), ("prep_ticks", 0), ("master_seed", 0),
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, reproducible description of one experiment run."""

    kind: str
    topology: Optional[TopologyConfig] = None
    algorithms: tuple = ()
    frame: FrameConfig = field(default_factory=FrameConfig)
    snr_db: float = 12.0
    snr_db_grid: tuple = ()
    constellation_order: int = 4
    trials: int = 1000
    master_seed: int = 0
    s0_mode: str = "zero"
    re_count: int = 32
    target_errors: int = 500
    max_trials_per_point: int = 10000
    power_save: Optional[PowerSavePolicy] = None
    re_ticks: int = 1
    prep_ticks: int = 0
    scenarios: tuple = TABLE_SCENARIOS

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        for name, low in _INT_FIELD_MINIMA:
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.constellation_order not in signal_model.QAM_ORDERS:
            raise ValueError(
                f"unsupported constellation order {self.constellation_order}; pick one of {signal_model.QAM_ORDERS}"
            )
        if self.s0_mode not in ("zero", "random"):
            raise ValueError(f"unknown s0_mode {self.s0_mode!r}")
        if self.kind != "rate_table":
            if self.topology is None:
                raise ValueError(f"{self.kind} needs a topology")
            if not 1 <= self.topology.k_users <= self.topology.m_antennas:
                raise ValueError(f"need M >= K >= 1, got M={self.topology.m_antennas}, K={self.topology.k_users}")
            if not self.algorithms:
                raise ValueError(f"{self.kind} needs at least one algorithm")
        if self.kind == "rate_table" and self.frame.n_ul < 1:
            raise ValueError(f"rate_table needs frame.n_ul >= 1, got {self.frame.n_ul}")
        if self.kind == "ber_sweep" and not self.snr_db_grid:
            raise ValueError("ber_sweep needs a non-empty snr_db_grid")
        if self.kind == "simulate":
            for alg in self.algorithms:
                if alg.name == "zf":
                    raise ValueError("zf is not a chain algorithm; simulate takes rls/sgd/asgd")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError("algorithm labels must be unique")


@dataclass(frozen=True)
class CurvePoint:
    x: float
    mean: float
    stderr: float
    n_trials: int


@dataclass(frozen=True)
class Curve:
    label: str
    points: tuple

    @property
    def slug(self) -> str:
        return re.sub(r"[^A-Za-z0-9.]+", "_", self.label).strip("_")

    def means(self) -> np.ndarray:
        return np.array([p.mean for p in self.points])


@dataclass(frozen=True)
class ResultSet:
    """Experiment output: curves plus the spec and tool version that produced them."""

    curves: tuple
    spec: ExperimentSpec
    tool_version: str = __version__

    def curve(self, label: str) -> Curve:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"no curve labeled {label!r}")

    def write_csv(self, out_dir) -> list:
        """One CSV per curve: x, mean, stderr, n_trials, schema_version."""
        import os

        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for curve in self.curves:
            path = os.path.join(out_dir, f"{curve.slug}.csv")
            with open(path, "w", newline="") as fh:
                fh.write("x,mean,stderr,n_trials,schema_version\n")
                for p in curve.points:
                    fh.write(f"{p.x!r},{p.mean!r},{p.stderr!r},{p.n_trials},{CSV_SCHEMA_VERSION}\n")
            paths.append(path)
        return paths


def derive_seeds(master_seed: int, path: tuple, count: int) -> list:
    """Deterministic per-trial integer seeds from the master seed and an index path."""
    ss = np.random.SeedSequence([int(master_seed)] + [int(p) for p in path])
    return [int(x) for x in ss.generate_state(count, dtype=np.uint64)]


def _random_points(const: Constellation, k: int, seed: int) -> np.ndarray:
    """Point indices of K symbols carrying fresh random bits (one trial's bit draw)."""
    bits = np.random.default_rng(seed).integers(0, 2, k * const.bits_per_symbol)
    return const.point_indices(bits)


def _initial_estimate(spec: ExperimentSpec, k: int, seed: int):
    if spec.s0_mode == "zero":
        return None
    rng = np.random.default_rng(seed)
    return np.sqrt(0.5) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))


class _Moments:
    """Sums of per-trial values at ``width`` curve positions, and the curve points they give.

    :meth:`add` takes ``(T, width)`` rows and adds them one trial at a time in
    trial order, so the sums do not depend on how the trials were chunked.
    """

    def __init__(self, width: int):
        self.n = 0
        self.total = np.zeros(width)
        self.total_sq = np.zeros(width)

    def add(self, rows: np.ndarray) -> None:
        for row in rows:
            self.total += row
            self.total_sq += row * row  # correctly rounded; libm pow behind ``float ** 2`` is not always
        self.n += len(rows)

    def points(self, xs) -> tuple:
        """One :class:`CurvePoint` per position: mean and standard error of the mean."""
        n = self.n
        mean = self.total / n
        var = np.maximum(self.total_sq / n - mean**2, 0.0) * n / (n - 1) if n > 1 else np.zeros_like(mean)
        stderr = np.sqrt(var / n)
        return tuple(
            CurvePoint(x=x, mean=mu, stderr=se, n_trials=n) for x, mu, se in zip(xs, mean.tolist(), stderr.tolist())
        )


# Experiment tags keep the seed streams of the different kinds disjoint.
_TAG_MSE, _TAG_BER, _TAG_SIM = 1, 2, 3

# Chunk limits. The channel rows of a chunk of trials may take at most
# _CHUNK_ROW_BYTES; its other arrays (observations, RLS gains, a block of
# trajectory) scale with them, so this bounds a sweep's working set whatever
# its trial count (32 trials at M=256, K=16; 4 at M=2048). _CHUNK_MAX_TRIALS
# bounds the trials a BER point may compute past its early stop when channels
# are small; beyond a few dozen trials batching saves nothing more.
_CHUNK_ROW_BYTES = 2**21
_CHUNK_MAX_TRIALS = 32


def _chunks(n_trials: int, m: int, k: int) -> list:
    """Consecutive trial ranges covering ``n_trials``, as equal as the chunk limits allow."""
    row_bytes = m * k * np.dtype(np.complex128).itemsize
    cap = max(1, min(_CHUNK_MAX_TRIALS, _CHUNK_ROW_BYTES // row_bytes))
    size = -(-n_trials // -(-n_trials // cap))
    return [range(start, min(start + size, n_trials)) for start in range(0, n_trials, size)]


@dataclass(frozen=True)
class _Trials:
    """One chunk of independent trials, stacked for the batched kernel."""

    rows: np.ndarray  # (M, T, K) channels, antenna-major: rows[n] is one contiguous block
    ys: np.ndarray  # (T, M) observations
    sent: np.ndarray  # (T, K) transmitted point indices
    symbols: np.ndarray  # (T, K) transmitted symbols
    s0: np.ndarray  # (T, K) priors
    gains: Optional[detectors.RlsPrecomp]  # the chunk's RLS gains, when an algorithm needs them

    def params(self, alg: AlgorithmSpec):
        return self.gains if alg.name == "rls" else alg.detector_params()


def _draw_trials(spec: ExperimentSpec, const: Constellation, path: tuple, trials: range, snr_db: float) -> _Trials:
    """Draw the trials of one chunk, each from its own seeds ``derive_seeds(master, path + (t,))``.

    Also runs the channel-only RLS preprocessing over the whole chunk.
    """
    m, k = spec.topology.m_antennas, spec.topology.k_users
    rows = np.empty((m, len(trials), k), dtype=np.complex128)
    ys = np.empty((len(trials), m), dtype=np.complex128)
    sent = np.empty((len(trials), k), dtype=np.intp)
    s0 = np.zeros((len(trials), k), dtype=np.complex128)
    for i, t in enumerate(trials):
        ch_seed, bits_seed, noise_seed, s0_seed = derive_seeds(spec.master_seed, path + (t,), 4)
        h = signal_model.generate_rayleigh_channel(m, k, ch_seed)
        sent[i] = _random_points(const, k, bits_seed)
        ys[i] = signal_model.transmit(h, const.points[sent[i]], snr_db, noise_seed).samples
        rows[:, i] = h.entries
        prior = _initial_estimate(spec, k, s0_seed)
        if prior is not None:
            s0[i] = prior
    gains = detectors.rls_preprocess(rows) if any(a.name == "rls" for a in spec.algorithms) else None
    return _Trials(rows=rows, ys=ys, sent=sent, symbols=const.points[sent], s0=s0, gains=gains)


def _estimates(alg: AlgorithmSpec, trials: _Trials) -> np.ndarray:
    """Final ``(T, K)`` estimates of one algorithm on a chunk; ZF runs trial by trial."""
    if alg.name == "zf":
        channels = (signal_model.ChannelMatrix(trials.rows[:, t]) for t in range(len(trials.ys)))
        return np.array([detectors.zf_detect(h, y).values for h, y in zip(channels, trials.ys)])
    state = detectors.ChainState.start(alg.name, trials.s0)
    return detectors.absorb(alg.name, state, trials.rows, trials.ys, trials.params(alg)).s


# Antennas per kernel call in the MSE sweep. Each block's trajectory is
# reduced to squared errors before the next block runs, so a chunk never
# holds more than this many of its (T, K) estimates.
_TRAJECTORY_BLOCK = 32


def _squared_errors(alg: AlgorithmSpec, trials: _Trials) -> np.ndarray:
    """Per-antenna squared errors ``||s_hat[n] - s||^2 / K`` of every trial of a chunk, ``(M, T)``."""
    m, k = trials.rows.shape[0], trials.rows.shape[-1]
    params = trials.params(alg)
    state = detectors.ChainState.start(alg.name, trials.s0)
    out = np.empty((m, len(trials.ys)))
    for lo in range(0, m, _TRAJECTORY_BLOCK):
        block = slice(lo, lo + _TRAJECTORY_BLOCK)
        if alg.name == "rls":
            gains = trials.gains
            params = detectors.RlsPrecomp(gains.alphas[block], gains.zs[block], gains.gamma_final)
        trajectory = []
        state = detectors.absorb(
            alg.name, state, trials.rows[block], trials.ys[:, block], params, trajectory=trajectory
        )
        out[block] = (np.abs(np.stack(trajectory) - trials.symbols) ** 2).sum(axis=-1) / k
    return out


def _mse_chunk(spec: ExperimentSpec, const: Constellation, chunk: range) -> dict:
    """Every algorithm's squared errors on one chunk: ``(T, M)`` per antenna index, ``(T, 1)`` for ZF.

    The chunk's channels and gains die when this returns, before the next
    chunk is drawn.
    """
    trials = _draw_trials(spec, const, (_TAG_MSE,), chunk, spec.snr_db)
    out = {}
    for alg in spec.algorithms:
        if alg.name == "zf":
            est = _estimates(alg, trials)
            out[alg.label] = np.sum(np.abs(est - trials.symbols) ** 2, axis=-1, keepdims=True) / est.shape[-1]
        else:
            out[alg.label] = _squared_errors(alg, trials).T
    return out


def _ber_chunk(spec: ExperimentSpec, const: Constellation, j: int, chunk: range) -> np.ndarray:
    """Bit errors per trial and algorithm, ``(T, A)`` in spec order, on one chunk of SNR point ``j``."""
    trials = _draw_trials(spec, const, (_TAG_BER, j), chunk, spec.snr_db_grid[j])
    bit_errors = const.bit_distances()
    counts = []
    for alg in spec.algorithms:
        decided = signal_model.hard_decisions(_estimates(alg, trials), const)
        counts.append(bit_errors[trials.sent, decided].sum(axis=-1))
    return np.stack(counts, axis=-1)


def run_mse_sweep(spec: ExperimentSpec) -> ResultSet:
    """Average per-antenna-index MSE curves, one per configured algorithm.

    Each trial draws a fresh channel, symbol vector and noise, runs every
    algorithm's trajectory on the same data, and accumulates the per-index
    squared error ``||s_hat[n] - s||^2 / K``. The zero-forcing baseline has no
    antenna trajectory, so it contributes a single point at the final index.
    """
    if spec.kind != "mse_sweep":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'mse_sweep'")
    topo = spec.topology
    m, k = topo.m_antennas, topo.k_users
    const = Constellation.qam(spec.constellation_order)

    moments = {a.label: _Moments(1 if a.name == "zf" else m) for a in spec.algorithms}
    for chunk in _chunks(spec.trials, m, k):
        for label, errors in _mse_chunk(spec, const, chunk).items():
            moments[label].add(errors)
    curves = tuple(
        Curve(label=a.label, points=moments[a.label].points((m,) if a.name == "zf" else range(1, m + 1)))
        for a in sorted(spec.algorithms, key=lambda a: a.name == "zf")  # chain algorithms, then ZF
    )
    return ResultSet(curves=curves, spec=spec)


def run_ber_sweep(spec: ExperimentSpec) -> ResultSet:
    """Hard-decision BER vs SNR per algorithm, with common randomness across them.

    Each SNR point accumulates trials until every algorithm has seen at least
    ``target_errors`` bit errors or ``max_trials_per_point`` trials ran. All
    algorithms share each trial's channel, bits and noise, so comparisons
    between them are paired.
    """
    if spec.kind != "ber_sweep":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'ber_sweep'")
    topo = spec.topology
    m, k = topo.m_antennas, topo.k_users
    const = Constellation.qam(spec.constellation_order)
    bits_per_vector = k * const.bits_per_symbol

    per_point = {a.label: [] for a in spec.algorithms}
    for j, snr_db in enumerate(spec.snr_db_grid):
        errors = np.zeros(len(spec.algorithms), dtype=np.int64)
        # Bits within one trial share a fade, so the standard error comes
        # from the scatter of per-trial error fractions, not a binomial count.
        fractions = _Moments(len(spec.algorithms))
        for chunk in _chunks(spec.max_trials_per_point, m, k):
            counts = _ber_chunk(spec, const, j, chunk)
            # The point stops after the first trial at which every algorithm
            # has reached the target; trials of the chunk past it are dropped.
            reached = np.all(errors + np.cumsum(counts, axis=0) >= spec.target_errors, axis=1)
            used = int(np.argmax(reached)) + 1 if reached.any() else len(chunk)
            errors += counts[:used].sum(axis=0)
            fractions.add(counts[:used] / bits_per_vector)
            if reached.any():
                break
        points = fractions.points([float(snr_db)] * len(errors))
        for pts, point, n_err in zip(per_point.values(), points, errors.tolist()):
            pts.append(replace(point, mean=n_err / (point.n_trials * bits_per_vector)))
    curves = tuple(Curve(label=label, points=tuple(pts)) for label, pts in per_point.items())
    return ResultSet(curves=curves, spec=spec)


def run_simulation(spec: ExperimentSpec):
    """Drive the daisy-chain simulator over one coherence block of REs.

    All ``re_count`` resource elements share one channel draw (that is what
    makes them a coherence block and lets RLS preprocess once), with fresh
    symbols and noise per RE. Returns ``(ResultSet, timelines)`` where
    ``timelines`` maps algorithm labels to their
    :class:`chain_sim.TimelineReport`. Curves report the per-RE squared
    estimation error of the delivered estimates.
    """
    if spec.kind != "simulate":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'simulate'")
    topo = spec.topology
    m, k = topo.m_antennas, topo.k_users
    const = Constellation.qam(spec.constellation_order)

    ch_seed, s0_seed = derive_seeds(spec.master_seed, (_TAG_SIM,), 2)
    h = signal_model.generate_rayleigh_channel(m, k, ch_seed)
    chain = chain_sim.build_chain(topo, h)
    s0 = _initial_estimate(spec, k, s0_seed)

    symbol_vectors = []
    re_batch = []
    for r in range(spec.re_count):
        bits_seed, noise_seed = derive_seeds(spec.master_seed, (_TAG_SIM, r), 2)
        s = const.points[_random_points(const, k, bits_seed)]
        symbol_vectors.append(s)
        re_batch.append(signal_model.transmit(h=h, s=s, snr_db=spec.snr_db, rng_seed=noise_seed))

    cost = CostModel(re_ticks=spec.re_ticks, prep_ticks=spec.prep_ticks)
    curves = []
    timelines = {}
    for alg in spec.algorithms:
        outputs, timeline = chain_sim.simulate_slot(
            chain,
            alg.name,
            re_batch,
            params=alg.detector_params(),
            s0=s0,
            power_save=spec.power_save,
            cost=cost,
        )
        errors = np.sum(np.abs(np.stack([est.values for est in outputs]) - symbol_vectors) ** 2, axis=-1) / k
        per_re = _Moments(spec.re_count)
        per_re.add(errors[None])  # each RE is one trial of its own curve point
        curves.append(Curve(label=alg.label, points=per_re.points(range(spec.re_count))))
        timelines[alg.label] = timeline
    return ResultSet(curves=tuple(curves), spec=spec), timelines


def run_rate_table(spec: ExperimentSpec) -> RateReport:
    """Evaluate the interconnect comparison table for the spec's scenarios."""
    if spec.kind != "rate_table":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'rate_table'")
    return interconnect.comparison_table(spec.scenarios, spec.frame)


def run_experiment(spec: ExperimentSpec):
    """Dispatch on the experiment kind."""
    if spec.kind == "mse_sweep":
        return run_mse_sweep(spec)
    if spec.kind == "ber_sweep":
        return run_ber_sweep(spec)
    if spec.kind == "simulate":
        return run_simulation(spec)
    return run_rate_table(spec)
