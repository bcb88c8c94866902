"""Decentralized massive MIMO uplink detection on a daisy-chain cluster topology.

Subpackages cover the uplink signal model (Rayleigh channels, Gray-mapped QAM),
the recursive detectors (RLS, SGD, averaged SGD) with a zero-forcing baseline,
a pipelined slot simulator of the daisy chain, an analytic
inter-cluster data-rate model, and a reproducible Monte Carlo harness with a
CLI front end (``mimo``).
"""

__version__ = "0.1.0"

from . import chain_sim, detectors, harness, interconnect, signal_model

__all__ = [
    "__version__",
    "chain_sim",
    "detectors",
    "harness",
    "interconnect",
    "signal_model",
]
