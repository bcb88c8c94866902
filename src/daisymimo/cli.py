"""``mimo`` command line: Monte Carlo sweeps, rate tables and slot simulations.

Each sweep subcommand reads a JSON experiment config, runs it, and writes one
CSV per curve plus a ``manifest.json`` (the spec as a loadable config, seed, tool
version, wall time) into the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__, harness
from .config import ConfigError, load_spec, spec_to_dict
from .interconnect import comparison_table

__all__ = ["main"]


def _add_common(parser, kind: str) -> None:
    parser.add_argument("--config", required=True, help=f"JSON config with kind={kind!r}")
    parser.add_argument("--out", required=True, help="output directory for CSVs and manifest")
    parser.add_argument("--seed", type=int, default=None, help="override the config's master seed")


def _load(args, kind: str):
    spec = load_spec(args.config)
    if spec.kind != kind:
        raise ConfigError(f"config kind is {spec.kind!r}, this subcommand needs {kind!r}")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    try:
        return replace(spec, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_outputs(result, out_dir: str, wall_time: float) -> None:
    paths = result.write_csv(out_dir)
    manifest = {
        "schema_version": harness.CSV_SCHEMA_VERSION,
        "tool_version": result.tool_version,
        "master_seed": result.spec.master_seed,
        "wall_time_s": wall_time,
        "spec": spec_to_dict(result.spec),
        "curves": [c.label for c in result.curves],
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for path in paths:
        print(f"wrote {path}")
    print(f"wrote {manifest_path}")


def _cmd_sweep(args, kind: str) -> int:
    spec = _load(args, kind)
    os.makedirs(args.out, exist_ok=True)  # an unusable output path fails here, before the run
    start = time.perf_counter()
    result = harness.run_experiment(spec)
    wall = time.perf_counter() - start
    _write_outputs(result, args.out, wall)
    return 0


def _cmd_rate_table(args) -> int:
    if args.config is not None:
        spec = _load(args, "rate_table")
        report = harness.run_rate_table(spec)
    else:
        report = comparison_table()
    sys.stdout.write(report.to_text())
    if args.csv is not None:
        report.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _load(args, "simulate")
    root, ext = os.path.splitext(args.timeline)
    paths = {a.label: f"{root}.{harness.Curve(a.label, ()).slug}{ext or '.csv'}" for a in spec.algorithms}
    if len(paths) == 1:
        paths = dict.fromkeys(paths, args.timeline)
    for path in paths.values():  # unusable output paths fail here, before the run
        open(path, "a").close()
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    start = time.perf_counter()
    result, timelines = harness.run_simulation(spec)
    wall = time.perf_counter() - start
    if args.out is not None:
        _write_outputs(result, args.out, wall)
    for label, path in paths.items():
        timelines[label].to_csv(path)
        report = timelines[label]
        print(
            f"{label}: pipeline delay {report.pipeline_delay} ticks, "
            f"total {report.total_ticks} ticks, {report.skipped_steps} skipped cluster-steps"
        )
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimo",
        description="Daisy-chain massive MIMO uplink detection experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mse-sweep", help="MSE vs antenna index Monte Carlo sweep")
    _add_common(p, "mse_sweep")
    p.add_argument("--trials", type=int, default=None, help="override the config's trial count")
    p.set_defaults(func=lambda a: _cmd_sweep(a, "mse_sweep"))

    p = sub.add_parser("ber-sweep", help="BER vs SNR Monte Carlo sweep")
    _add_common(p, "ber_sweep")
    p.set_defaults(func=lambda a: _cmd_sweep(a, "ber_sweep"))

    p = sub.add_parser("rate-table", help="interconnect data-rate comparison table")
    p.add_argument("--config", default=None, help="JSON config with kind='rate_table' (default: canonical scenarios)")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.set_defaults(func=_cmd_rate_table)

    p = sub.add_parser("simulate", help="daisy-chain slot simulation with timeline export")
    p.add_argument("--config", required=True, help="JSON config with kind='simulate'")
    p.add_argument("--timeline", required=True, help="timeline CSV output path")
    p.add_argument("--out", default=None, help="optional output directory for per-RE error CSVs")
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
