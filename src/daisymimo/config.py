"""Strict JSON config files mirroring :class:`daisymimo.harness.ExperimentSpec`.

Each config object (the spec, its topology, frame, algorithms, power save and
rate scenarios) is one table from JSON key to ``(constructor argument, check)``.
One reader walks the tables: unknown keys anywhere are errors, so typos fail
loudly instead of silently running a different experiment, and a key is
required when its argument has no default. The checks test types (integer
fields take JSON integers, real fields finite numbers); the spec classes check
ranges, and both surface as a :class:`ConfigError` before anything runs. One
writer, :func:`spec_to_dict`, walks the same tables back.
"""

from __future__ import annotations

import inspect
import json
import math
import sys

from .chain_sim import PowerSavePolicy, TopologyConfig
from .harness import AlgorithmSpec, ExperimentSpec
from .interconnect import FrameConfig, RateScenario

__all__ = ["ConfigError", "load_spec", "spec_from_dict", "spec_to_dict"]


class ConfigError(ValueError):
    """Malformed experiment config."""


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    # Python compares an int with a float exactly, so an integer too large for a float fails here, not in float().
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _threshold(value, where: str) -> float:
    return math.inf if value == "inf" else _number(value, where)


def _any(value, where: str):
    return value  # the spec class checks it


def _list_of(check):
    def read(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {type(value).__name__}")
        return tuple(check(item, f"{where}[{i}]") for i, item in enumerate(value))

    return read


def _object(cls):
    return lambda value, where: _read(_TABLES[cls], value, where)


def _topology(m_antennas, k_users, c_clusters=None, b_per_cluster=None) -> TopologyConfig:
    """M antennas and K users in C clusters of B; either of C and B follows from the other, and C=1 when both are absent."""
    if b_per_cluster is None:
        return TopologyConfig.from_clusters(m_antennas, k_users, 1 if c_clusters is None else c_clusters)
    if c_clusters is None:
        if b_per_cluster < 1 or m_antennas % b_per_cluster:
            raise ValueError(f"M={m_antennas} cannot be split into clusters of B={b_per_cluster}")
        c_clusters = m_antennas // b_per_cluster
    return TopologyConfig(m_antennas, k_users, c_clusters, b_per_cluster)


def _table(build, **keys) -> tuple:
    """``(build, keys, required)`` for one config object: ``keys`` maps JSON key -> (argument of ``build``, check)."""
    params = inspect.signature(build).parameters
    return build, keys, {key for key, (arg, _) in keys.items() if params[arg].default is inspect.Parameter.empty}


def _read(table: tuple, data, where: str):
    """Build the object ``table`` describes from ``data``; ``where`` is its path in the config, "" at the top."""
    build, keys, required = table
    name = where or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be an object, got {type(data).__name__}")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"{name} is missing key(s): {', '.join(sorted(missing))}")
    prefix = f"{where}." if where else ""
    kwargs = {arg: check(data[key], prefix + key) for key, (arg, check) in keys.items() if key in data}
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


# Keyed by the class each table builds; ``spec_to_dict`` finds a value's table by its type.
_TABLES = {
    TopologyConfig: _table(
        _topology, m=("m_antennas", _integer), k=("k_users", _integer), c=("c_clusters", _integer),
        b=("b_per_cluster", _integer),
    ),
    FrameConfig: _table(
        FrameConfig, t_slot=("t_slot", _number),
        **{key: (key, _integer) for key in ("n_slot", "n_ul", "n_u", "s_cb", "w_s", "w_gamma", "w_sc")},
    ),
    AlgorithmSpec: _table(AlgorithmSpec, name=("name", _any), mu=("mu", _number), n0=("n0", _integer)),
    PowerSavePolicy: _table(PowerSavePolicy, policy=("mode", _any), threshold=("threshold", _threshold)),
    RateScenario: _table(RateScenario, **{key: (key, _integer) for key in ("m", "k", "c", "b", "n_iter")}),
    ExperimentSpec: _table(
        ExperimentSpec,
        kind=("kind", _any),
        topology=("topology", _object(TopologyConfig)),
        algorithms=("algorithms", _list_of(_object(AlgorithmSpec))),
        frame=("frame", _object(FrameConfig)),
        snr_db=("snr_db", _number),
        snr_db_grid=("snr_db_grid", _list_of(_number)),
        s0_mode=("s0_mode", _any),
        power_save=("power_save", _object(PowerSavePolicy)),
        scenarios=("scenarios", _list_of(_object(RateScenario))),
        **{key: (key, _integer) for key in (
            "constellation_order", "trials", "master_seed", "re_count", "target_errors", "max_trials_per_point",
            "re_ticks", "prep_ticks",
        )},
    ),
}


def spec_from_dict(data) -> ExperimentSpec:
    return _read(_TABLES[ExperimentSpec], data, "")


def _to_json(value):
    if type(value) in _TABLES:
        items = ((key, getattr(value, arg)) for key, (arg, _) in _TABLES[type(value)][1].items())
        return {key: _to_json(v) for key, v in items if v is not None}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return "inf" if isinstance(value, float) and value == math.inf else value


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """The config that :func:`spec_from_dict` reads back as ``spec``; absent optional values are left out."""
    return _to_json(spec)


def load_spec(path) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past the digit limit of int()
            raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    return spec_from_dict(data)
