"""Strict JSON config files mirroring :class:`daisymimo.harness.ExperimentSpec`.

Keys map one-to-one onto the spec fields; unknown keys anywhere are errors so
typos fail loudly instead of silently running a different experiment. Values
are type-checked here (integer fields take JSON integers, real fields finite
numbers); range checks live in the spec classes, so both surface as a
:class:`ConfigError` at load time, before anything runs.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .chain_sim import PowerSavePolicy, TopologyConfig
from .harness import AlgorithmSpec, ExperimentSpec
from .interconnect import TABLE_SCENARIOS, FrameConfig, RateScenario

__all__ = ["ConfigError", "load_spec", "spec_from_dict"]


class ConfigError(ValueError):
    """Malformed experiment config."""


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _build(factory, where: str, /, *args, **kwargs):
    """Construct a spec object, reporting validation failures as config errors."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _check_keys(data: dict, allowed, where: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _topology(data) -> TopologyConfig:
    data = _require_mapping(data, "topology")
    _check_keys(data, {"m", "k", "c", "b"}, "topology")
    missing = {"m", "k"} - set(data)
    if missing:
        raise ConfigError(f"topology is missing key(s): {', '.join(sorted(missing))}")
    m, k = _integer(data["m"], "topology.m"), _integer(data["k"], "topology.k")
    if "c" in data:
        c = _integer(data["c"], "topology.c")
        if "b" in data and _integer(data["b"], "topology.b") * c != m:
            raise ConfigError(f"topology has M={m} but C*B={c * data['b']}")
        return _build(TopologyConfig.from_clusters, "topology", m, k, c)
    return _build(TopologyConfig, "topology", m_antennas=m, k_users=k, c_clusters=1, b_per_cluster=m)


def _frame(data) -> FrameConfig:
    data = _require_mapping(data, "frame")
    allowed = {"t_slot", "n_slot", "n_ul", "n_u", "s_cb", "w_s", "w_gamma", "w_sc"}
    _check_keys(data, allowed, "frame")
    values = {key: (_number if key == "t_slot" else _integer)(v, f"frame.{key}") for key, v in data.items()}
    return _build(FrameConfig, "frame", **values)


def _algorithm(data, index: int) -> AlgorithmSpec:
    where = f"algorithms[{index}]"
    data = _require_mapping(data, where)
    _check_keys(data, {"name", "mu", "n0"}, where)
    if "name" not in data:
        raise ConfigError(f"{where} is missing 'name'")
    mu = _number(data["mu"], f"{where}.mu") if "mu" in data else None
    n0 = _integer(data["n0"], f"{where}.n0") if "n0" in data else None
    return _build(AlgorithmSpec, where, name=data["name"], mu=mu, n0=n0)


def _power_save(data) -> PowerSavePolicy:
    data = _require_mapping(data, "power_save")
    _check_keys(data, {"policy", "threshold"}, "power_save")
    if "policy" not in data or "threshold" not in data:
        raise ConfigError("power_save needs both 'policy' and 'threshold'")
    threshold = data["threshold"]
    threshold = math.inf if threshold == "inf" else _number(threshold, "power_save.threshold")
    return _build(PowerSavePolicy, "power_save", mode=data["policy"], threshold=threshold)


def _scenario(data, index: int) -> RateScenario:
    where = f"scenarios[{index}]"
    data = _require_mapping(data, where)
    _check_keys(data, {"m", "k", "c", "b", "n_iter"}, where)
    missing = {"m", "k", "c", "b"} - set(data)
    if missing:
        raise ConfigError(f"{where} is missing key(s): {', '.join(sorted(missing))}")
    return _build(RateScenario, where, **{key: _integer(value, f"{where}.{key}") for key, value in data.items()})


_TOP_LEVEL_KEYS = {f.name for f in dataclasses.fields(ExperimentSpec)}


def spec_from_dict(data: dict) -> ExperimentSpec:
    data = _require_mapping(data, "config")
    _check_keys(data, _TOP_LEVEL_KEYS, "config")
    if "kind" not in data:
        raise ConfigError("config is missing 'kind'")
    kwargs = {"kind": data["kind"]}
    if "topology" in data:
        kwargs["topology"] = _topology(data["topology"])
    if "frame" in data:
        kwargs["frame"] = _frame(data["frame"])
    if "algorithms" in data:
        if not isinstance(data["algorithms"], list):
            raise ConfigError("algorithms must be a list")
        kwargs["algorithms"] = tuple(_algorithm(a, i) for i, a in enumerate(data["algorithms"]))
    if "power_save" in data:
        kwargs["power_save"] = _power_save(data["power_save"])
    if "scenarios" in data:
        if not isinstance(data["scenarios"], list):
            raise ConfigError("scenarios must be a list")
        kwargs["scenarios"] = tuple(_scenario(s, i) for i, s in enumerate(data["scenarios"]))
    if "snr_db_grid" in data:
        if not isinstance(data["snr_db_grid"], list):
            raise ConfigError("snr_db_grid must be a list")
        kwargs["snr_db_grid"] = tuple(_number(v, f"snr_db_grid[{i}]") for i, v in enumerate(data["snr_db_grid"]))
    if "snr_db" in data:
        kwargs["snr_db"] = _number(data["snr_db"], "snr_db")
    for key in (
        "constellation_order", "trials", "master_seed", "re_count", "target_errors",
        "max_trials_per_point", "re_ticks", "prep_ticks",
    ):
        if key in data:
            kwargs[key] = _integer(data[key], key)
    if "s0_mode" in data:
        kwargs["s0_mode"] = data["s0_mode"]
    try:
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_spec(path) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    return spec_from_dict(data)
