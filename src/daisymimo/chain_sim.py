"""Pipelined-slot simulator of the daisy-chained antenna-cluster topology.

Antennas are grouped into clusters wired in a line; only the last cluster
talks to the sink. A resource element (RE) is detected by passing a token --
the current symbol estimate plus control fields -- from cluster to cluster,
each applying its per-antenna updates. Channel rows and raw observations stay
on their node; tokens never carry them.

Time is modeled in abstract integer ticks. Clusters process one job at a time
and REs stay in order, so cluster ``c`` works on RE ``r`` while cluster
``c-1`` works on RE ``r+1``: the slot pipelines with fill delay ``C - 1`` at
unit cost. For RLS, the channel-only preprocessing runs once per coherence
block as its own pipelined job (the surrogate matrix is the handoff) with a
configurable tick cost, before the block's first data RE.

A power-save policy lets a cluster that receives an already-good estimate
(all of its per-antenna prediction-error magnitudes below a threshold) skip
its updates: ``freeze`` forwards the token unchanged, ``early_exit``
additionally marks it terminated so no later cluster touches it. The first
cluster has no chain predecessor and always processes.

The timeline follows the tokens, but the math runs cluster by cluster:
:func:`simulate_slot` takes the whole block through cluster 0, then through
cluster 1, and so on, with one :func:`daisymimo.detectors.absorb` call per
cluster over the REs that cluster does not skip. That yields the numbers the
token-by-token timeline would, because

* what cluster ``c`` does to RE ``r`` depends only on RE ``r``'s token from
  cluster ``c-1`` and on data local to cluster ``c`` (its rows, its RLS
  gains, RE ``r``'s samples at its antennas), never on other REs or on the
  tick at which the job runs;
* the schedule does not depend on the data: a skipped job still holds its
  cluster for ``re_ticks``, so only the ``skipped`` flags come from the math.

The schedule then has a closed form: with ``p`` the prep cost (0 without prep
jobs) and ``lag = max(p, re_ticks)``, cluster ``c`` starts RE ``r`` at ``p +
c*lag + r*re_ticks``; cluster 0's jobs run first, then the rest by handoff
tick and cluster. The kernel rounds each RE as it would alone, so every
delivered estimate is bit-identical to :func:`daisymimo.detectors.run_chain`
over the antennas that processed that RE, for every partition of the array
and whatever other REs share the block.
Observations and RLS gains live only for the duration of a call; the chain's
nodes are never written to.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import detectors
from .detectors import ChainState, EstimateVector
from .signal_model import ChannelMatrix

__all__ = [
    "ClusterNode",
    "CostModel",
    "PowerSavePolicy",
    "TimelineEntry",
    "TimelineReport",
    "TokenMessage",
    "TopologyConfig",
    "build_chain",
    "extend_chain",
    "simulate_slot",
]


@dataclass(frozen=True)
class TopologyConfig:
    """Array geometry: M antennas serving K users, split into C clusters of B."""

    m_antennas: int
    k_users: int
    c_clusters: int
    b_per_cluster: int

    def __post_init__(self):
        if self.c_clusters < 1 or self.b_per_cluster < 1:
            raise ValueError("cluster counts must be >= 1")
        if self.m_antennas != self.c_clusters * self.b_per_cluster:
            raise ValueError(
                f"M={self.m_antennas} is not C*B={self.c_clusters}*{self.b_per_cluster}"
            )

    @classmethod
    def from_clusters(cls, m: int, k: int, c: int) -> "TopologyConfig":
        if c < 1 or m % c != 0:
            raise ValueError(f"M={m} cannot be split into C={c} equal clusters")
        return cls(m_antennas=m, k_users=k, c_clusters=c, b_per_cluster=m // c)


@dataclass
class ClusterNode:
    """One cluster: its B channel rows, in antenna order.

    CSI is node-local by contract and is never placed on a
    :class:`TokenMessage`; so are the cluster's observations and RLS gains,
    which exist only while :func:`simulate_slot` runs.
    """

    cluster_id: int
    local_csi: np.ndarray

    @property
    def b_antennas(self) -> int:
        return self.local_csi.shape[0]

    @property
    def k_users(self) -> int:
        return self.local_csi.shape[1]


@dataclass
class TokenMessage:
    """The inter-cluster message: estimate, control fields, and (ASGD) raw iterate.

    Payload is K complex words for RLS/SGD and 2K for ASGD, which needs both
    the averaged estimate and the raw iterate downstream.
    """

    estimate: EstimateVector
    re_id: int
    aux_iterate: Optional[np.ndarray] = None
    terminated: bool = False

    @property
    def payload_complex_words(self) -> int:
        k = len(self.estimate.values)
        return 2 * k if self.aux_iterate is not None else k


@dataclass(frozen=True)
class PowerSavePolicy:
    """Skip rule: mode ``freeze`` or ``early_exit`` with an error-magnitude threshold.

    A cluster (other than the first) skips its updates when every one of its
    per-antenna prediction errors against the incoming state has magnitude
    strictly below ``threshold``; 0 therefore disables skipping.
    """

    mode: str
    threshold: float

    def __post_init__(self):
        if self.mode not in ("freeze", "early_exit"):
            raise ValueError(f"unknown power-save mode {self.mode!r}")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")


@dataclass(frozen=True)
class CostModel:
    """Tick costs in whole ticks: per cluster-RE processing step and per-cluster prep job."""

    re_ticks: int = 1
    prep_ticks: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.re_ticks < 1 or self.prep_ticks < 0:
            raise ValueError("re_ticks must be >= 1 and prep_ticks >= 0")


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    cluster_id: int
    re_id: int  # -1 marks a preprocessing job
    start_tick: int
    end_tick: int
    skipped: bool = False


@dataclass
class TimelineReport:
    """Per-(cluster, RE) schedule of one slot plus its summary figures."""

    entries: list
    pipeline_delay: int
    total_ticks: int
    skipped_steps: int

    def validate(self) -> None:
        """Check pipeline causality: in-order within a cluster, r after r at c-1."""
        by_key = {(e.cluster_id, e.re_id): e for e in self.entries}
        for entry in self.entries:
            if entry.end_tick < entry.start_tick:
                raise ValueError(f"entry ends before it starts: {entry}")
            prev_re = by_key.get((entry.cluster_id, entry.re_id - 1))
            if prev_re is not None and entry.start_tick < prev_re.end_tick:
                raise ValueError(f"cluster {entry.cluster_id} ran RE {entry.re_id} out of order")
            upstream = by_key.get((entry.cluster_id - 1, entry.re_id))
            if upstream is not None and entry.start_tick < upstream.end_tick:
                raise ValueError(
                    f"cluster {entry.cluster_id} started RE {entry.re_id} before its predecessor finished"
                )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster_id", "re_id", "start_tick", "end_tick", "skipped_flag"])
            for e in self.entries:
                writer.writerow([e.cluster_id, e.re_id, e.start_tick, e.end_tick, int(e.skipped)])


def build_chain(topology: TopologyConfig, h: ChannelMatrix) -> list:
    """Partition the channel rows into C cluster nodes in antenna order."""
    if h.m_antennas != topology.m_antennas or h.k_users != topology.k_users:
        raise ValueError(
            f"channel is {h.m_antennas}x{h.k_users}, topology wants "
            f"{topology.m_antennas}x{topology.k_users}"
        )
    b = topology.b_per_cluster
    return [
        ClusterNode(cluster_id=c, local_csi=h.entries[c * b : (c + 1) * b])
        for c in range(topology.c_clusters)
    ]


def extend_chain(chain: Sequence[ClusterNode], extra_clusters: Sequence[ClusterNode]) -> list:
    """Append plug-and-play clusters; detection then covers the concatenated array."""
    merged = list(chain) + list(extra_clusters)
    if not merged:
        return []
    k = merged[0].k_users
    for node in merged:
        if node.k_users != k:
            raise ValueError(f"cluster K={node.k_users} does not match chain K={k}")
    return [
        ClusterNode(cluster_id=i, local_csi=node.local_csi)
        for i, node in enumerate(merged)
    ]


def _antenna_offsets(chain: Sequence[ClusterNode]) -> list:
    offsets, total = [], 0
    for node in chain:
        offsets.append(total)
        total += node.b_antennas
    return offsets


def _absorb_some(algorithm, state: ChainState, idx: np.ndarray, rows, ys, params) -> ChainState:
    """Absorb ``rows`` into the REs ``idx`` of ``state`` only, returning new arrays."""
    x = state.x
    part = detectors.absorb(
        algorithm, ChainState(state.s[idx], state.n[idx], None if x is None else x[idx]), rows, ys, params
    )
    s, n = state.s.copy(), state.n.copy()
    s[idx], n[idx] = part.s, part.n
    if x is not None:
        x = x.copy()
        x[idx] = part.x
    return ChainState(s, n, x)


def _detect_block(chain, offsets, algorithm, samples, params, start, power_save, keep_tokens):
    """Take every RE of the block through the clusters in order.

    Returns ``(state, skipped, tokens)``: the final :class:`ChainState` over
    the REs, the ``(C, R)`` skip flags, and, with ``keep_tokens``, each
    cluster's outgoing tokens as ``(s, n, x, terminated)`` arrays.
    """
    n_re, k = samples.shape[0], start.shape[0]
    state = ChainState.start(algorithm, start, (n_re,))
    terminated = np.zeros(n_re, dtype=bool)
    skipped = np.zeros((len(chain), n_re), dtype=bool)
    gamma = np.eye(k, dtype=np.complex128)
    tokens = []
    for c, (node, off) in enumerate(zip(chain, offsets)):
        ys = samples[:, off : off + node.b_antennas]
        gains = params
        if algorithm == "rls":
            # The surrogate handoff: this cluster's gains continue the upstream gamma.
            gains = detectors.rls_preprocess(node.local_csi, gamma0=gamma)
            gamma = gains.gamma_final
        skip = terminated
        if power_save is not None and c > 0:
            # Probe: every per-antenna prediction error against the incoming state.
            reference = state.x if algorithm == "asgd" else state.s
            errors = detectors._residual(reference[:, None, :], node.local_csi.conj(), ys)
            quiet = np.abs(errors).max(axis=1) < power_save.threshold
            skip = terminated | quiet
            if power_save.mode == "early_exit":
                terminated = skip
        skipped[c] = skip
        work = np.flatnonzero(~skip)
        if work.size == n_re:
            state = detectors.absorb(algorithm, state, node.local_csi, ys, gains)
        elif work.size:
            state = _absorb_some(algorithm, state, work, node.local_csi, ys[work], gains)
        if keep_tokens:
            tokens.append((state.s, state.n, state.x, terminated))
    return state, skipped, tokens


def _schedule(n_clusters: int, n_re: int, with_prep: bool, cost: CostModel) -> list:
    """The slot's jobs as ``(cluster_idx, re_id, start, end)`` in execution order.

    ``re_id`` -1 is an RLS preprocessing job. With ``d = re_ticks``, ``p =
    prep_ticks`` when there are prep jobs (else 0) and ``lag = max(p, d)``,
    cluster ``c`` starts its prep job at ``c*p`` and RE ``r`` at ``p + c*lag
    + r*d``: the fill delay is ``(C-1)*lag`` and the slot ends at
    ``p + (C-1)*lag + R*d``. Cluster 0's jobs run first, in job order; every
    other job follows by the tick the same job ends upstream, then by cluster.
    """
    d = cost.re_ticks
    p = cost.prep_ticks if with_prep else 0
    lag = max(p, d)
    cluster = np.arange(n_clusters)[:, None]
    re = np.arange(-1 if with_prep else 0, n_re)
    start = np.where(re < 0, cluster * p, p + cluster * lag + re * d)
    end = start + np.where(re < 0, p, d)
    ready = np.zeros_like(start)
    ready[1:] = end[:-1]
    cluster, re = np.broadcast_arrays(cluster, re)
    # Cluster 0's jobs are all ready at 0; lexsort is stable, so they keep job order.
    order = np.lexsort((cluster.ravel(), ready.ravel()))
    columns = [a.ravel()[order].tolist() for a in (cluster, re, start, end)]
    return list(zip(*columns))


def simulate_slot(
    chain: Sequence[ClusterNode],
    algorithm: str,
    re_batch: Sequence,
    params=None,
    s0=None,
    power_save: Optional[PowerSavePolicy] = None,
    cost: CostModel = CostModel(),
    message_log: Optional[list] = None,
):
    """Detect a batch of REs (one coherence block) over the pipelined chain.

    Every RE token traverses the clusters in order; clusters work on distinct
    REs concurrently. Returns ``(estimates, timeline)`` where ``estimates``
    holds the final :class:`EstimateVector` per RE in batch order.

    ``message_log``, when given, receives a copy of every inter-cluster token
    (chain handoffs plus the final delivery to the sink) in timeline order.
    The nodes of ``chain`` are not modified, so a chain can serve any number
    of slots.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("chain has no clusters")
    n_clusters = len(chain)
    n_re = len(re_batch)
    if n_re < 1:
        raise ValueError("re_batch must contain at least one resource element")
    offsets = _antenna_offsets(chain)
    m_total = offsets[-1] + chain[-1].b_antennas
    k = chain[0].k_users

    samples = np.stack([np.asarray(getattr(rv, "samples", rv)) for rv in re_batch])
    if samples.shape != (n_re, m_total):
        raise ValueError(f"observations have shape {samples.shape}, expected ({n_re}, {m_total})")

    start_values = detectors._initial_estimate(k, s0)
    state, skipped, tokens = _detect_block(
        chain, offsets, algorithm, samples, params, start_values, power_save, message_log is not None
    )

    jobs = _schedule(n_clusters, n_re, algorithm == "rls", cost)
    ids = [node.cluster_id for node in chain]
    flags = skipped.tolist()
    entries = [
        TimelineEntry(ids[c], r, start, end, r >= 0 and flags[c][r]) for c, r, start, end in jobs
    ]
    if message_log is not None:
        for c, r, _, _ in jobs:
            if r >= 0:
                s, n, x, terminated = tokens[c]
                message_log.append(TokenMessage(
                    estimate=EstimateVector(s[r].copy(), int(n[r])),
                    re_id=r,
                    aux_iterate=None if x is None else x[r].copy(),
                    terminated=bool(terminated[r]),
                ))

    first_starts = {c: start for c, r, start, _ in jobs if r == 0}
    report = TimelineReport(
        entries=entries,
        pipeline_delay=first_starts[n_clusters - 1] - first_starts[0],
        total_ticks=max(end for _, _, _, end in jobs),
        skipped_steps=int(skipped.sum()),
    )
    outputs = [EstimateVector(values, int(n)) for values, n in zip(state.s, state.n)]
    return outputs, report
