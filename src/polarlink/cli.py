"""Batch command-line front end.

Two commands: `channel-eval` prints the gain report of one dipole link, and
`run` dispatches the experiment families, writing one CSV per run plus a JSON
provenance sidecar. Exit codes: 0 success, 2 usage, 3 I/O, 4 infeasible
geometry or scenario, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import platform
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .channel import link_terms
from .config import RunConfig
from .errors import (ConfigurationError, GeometryError, InfeasibleLayoutError,
                     NumericalError, PolarlinkError, SingularChannelError,
                     UnsupportedConfigurationError)
from .geometry import AntennaPose
from .harness import (CSV_COLUMNS, make_scenario, monte_carlo_half_energy,
                      reference_link_map, reference_link_peak, run_configuration, sweep,
                      _usable_cpu_count)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5


class _ConfigReadError(Exception):
    """A configuration file that cannot be read or decoded."""


# The exit code and message prefix of each error a command may end with; an
# error takes the entry of its most specific class, and any other is a bug.
EXIT_CODES = {
    _ConfigReadError: (EXIT_IO, "cannot read config: "),
    OSError: (EXIT_IO, "cannot write output: "),
    ConfigurationError: (EXIT_USAGE, ""),
    GeometryError: (EXIT_INFEASIBLE, "invalid geometry: "),
    InfeasibleLayoutError: (EXIT_INFEASIBLE, "infeasible scenario: "),
    UnsupportedConfigurationError: (EXIT_INFEASIBLE, "infeasible scenario: "),
    SingularChannelError: (EXIT_NUMERICAL, "numerical failure: "),
    NumericalError: (EXIT_NUMERICAL, "numerical failure: "),
    PolarlinkError: (EXIT_NUMERICAL, ""),
}

RUN_SUBCOMMANDS = ("scenario1", "scenario2", "montecarlo", "optimize",
                   "sweep-users", "sweep-power", "sweep-granularity", "convergence")


def _fmt(value) -> str:
    """A CSV cell: None is empty, a list is its cells joined by ';', a float has 12 digits."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(_fmt, value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_sidecar(out_path, config: RunConfig, subcommand: str, reps: int,
                  extra: Optional[dict] = None) -> None:
    meta = {
        "tool": "polarlink",
        "version": __version__,
        "subcommand": subcommand,
        "seed": config.seed,
        "repetitions": reps,
        "config_hash": config.config_hash(),
        "config": config.to_dict(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "usable_cpu_count": _usable_cpu_count(),   # the block runs and sweep processes
        },
    }
    meta.update(extra or {})
    with open(f"{out_path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _join_triples(argv: Sequence[str]) -> List[str]:
    """argv with each `FLAG VALUE` of the four triple flags joined into
    `FLAG=VALUE`, so that argparse reads a value like -30,55,-20 as the value."""
    rest, out = list(argv), []
    while rest:
        token = rest.pop(0)
        triple = token in ("--tx-pos", "--tx-dir", "--rx-pos", "--rx-dir") and rest
        out.append(f"{token}={rest.pop(0)}" if triple else token)
    return out


def _parse_triple(text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"{flag} expects three comma-separated numbers")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None


def _load_config(path: Optional[str]) -> RunConfig:
    """The configuration in the file at `path`, or the defaults without one."""
    try:
        return RunConfig.from_file(path) if path else RunConfig()
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _ConfigReadError(exc) from exc


def cmd_channel_eval(args) -> int:
    medium = _load_config(args.config).medium()
    tx = AntennaPose(position=_parse_triple(args.tx_pos, "--tx-pos"),
                     orientation=_parse_triple(args.tx_dir, "--tx-dir"))
    rx = AntennaPose(position=_parse_triple(args.rx_pos, "--rx-pos"),
                     orientation=_parse_triple(args.rx_dir, "--rx-dir"))
    terms = link_terms(tx.position[None, :], tx.orientation[None, :],
                       rx.position[None, :], rx.orientation[None, :], medium)
    tx_dist, rx_dist = math.hypot(*tx.position), math.hypot(*rx.position)
    if not tx_dist < rx_dist:   # the far-field model measures each path from the origin
        raise GeometryError(f"transmitter {tx_dist:g} m from the origin, not closer than the "
                            f"receiver ({rx_dist:g} m): outside the far-field model")
    gain = complex(terms.gains[0, 0])
    tx_t, rx_t = terms.tx, terms.rx
    if tx_t.degenerate[0, 0]:
        alpha, match = math.nan, 0.0
    else:
        # The matching angle's sine |r x f|, with f = (n - cos_e u) / sin_e.
        off_path = tx.orientation - tx_t.cos_emission[0, 0] * terms.geometry.path_dir[0]
        sin_alpha = np.linalg.norm(np.cross(rx.orientation, off_path)) / tx_t.sin_emission[0, 0]
        alpha = np.arctan2(sin_alpha, terms.cos_matching[0, 0])
        match = terms.matching[0, 0]
    fields = [
        ("gain_magnitude", abs(gain)),
        ("gain_phase_rad", math.atan2(gain.imag, gain.real)),
        ("emission_angle_rad", np.arctan2(tx_t.sin_emission[0, 0], tx_t.cos_emission[0, 0])),
        ("incident_angle_rad", np.arctan2(abs(rx_t.path_cos[0]), rx_t.cos_incidence[0])),
        ("matching_angle_rad", alpha),
        ("gamma_parallel", rx_t.gamma_par[0]),
        ("gamma_perpendicular", rx_t.gamma_perp[0]),
        ("matching_efficiency", match),
    ]
    width = max(len(name) for name, _ in fields)
    for name, value in fields:
        print(f"{name:<{width}}  {_fmt(float(value))}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args.config)
    overrides = {"seed": args.seed, "repetitions": args.reps}
    config = dataclasses.replace(
        config, **{name: value for name, value in overrides.items() if value is not None})
    # Fail before the work, not after: a missing directory, or a directory
    # where the CSV or its sidecar is to be written.
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    for path in (args.out, f"{args.out}.meta.json"):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)

    medium = config.medium()
    optimizer_config = config.optimizer()
    scenario = dict(medium=medium, antenna_count=config.antenna_count,  # for make_scenario
                    total_power=config.total_power_w, cube_half_side=config.coverage_half_side_m,
                    region_half_side=config.region_half_side_m)
    sub = args.experiment
    reps, extra = 1, None
    if sub in ("scenario1", "scenario2"):
        kind = "tx_random" if sub == "scenario1" else "rx_random"
        polar, azimuthal, mags = reference_link_map(kind, medium)
        header = ["polar_deg", "azimuthal_deg", "gain_magnitude", "gain_power"]
        rows = [[np.rad2deg(p), np.rad2deg(a), m, m * m]
                for p, row in zip(polar, mags) for a, m in zip(azimuthal, row)]
        extra = {"peak_gain": reference_link_peak(kind, medium)}
    elif sub == "montecarlo":
        header = ["scenario_kind", "samples", "half_energy_fraction"]
        kinds = ("tx_random", "rx_random")
        rows = [[kind, config.monte_carlo_samples,
                 monte_carlo_half_energy(kind, config.monte_carlo_samples, config.seed, medium)]
                for kind in kinds]
        # The peak each fraction's threshold, 0.5 peak^2, is taken against.
        extra = {"peak_gain": {kind: reference_link_peak(kind, medium) for kind in kinds}}
    elif sub == "optimize":
        record = run_configuration(make_scenario(config.user_count, config.seed, **scenario),
                                   5, optimizer_config)
        if record.failure:
            print(f"error: optimization failed: {record.failure}", file=sys.stderr)
            return EXIT_NUMERICAL
        header = ["iteration", "gamma_total_db"]
        rows = [[i, db] for i, db in enumerate(record.trace_db)]
        extra = {"scenario_hash": record.scenario_hash, "gamma_total_db": record.gamma_total_db}
    else:
        kind, grid, configurations = {
            "sweep-users": ("users", config.users_grid, config.configurations),
            "sweep-power": ("power", config.power_grid_w, None),
            "sweep-granularity": ("granularity", config.granularity_grid_deg, None),
            "convergence": ("users", [config.user_count], (1, 5)),
        }[sub]
        records = sweep(kind, grid, config.repetitions, config.seed,
                        optimizer_config=optimizer_config, user_count=config.user_count,
                        configurations=configurations, workers=_usable_cpu_count(), **scenario)
        header = CSV_COLUMNS
        rows = [[getattr(rec, name) for name in CSV_COLUMNS] for rec in records]
        reps = config.repetitions
    write_csv(args.out, header, rows)
    write_sidecar(args.out, config, sub, reps, extra)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarlink",
        description="Polarization-aware movable-antenna link simulator and optimizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    ce = sub.add_parser("channel-eval", help="evaluate one dipole link")
    ce.add_argument("--tx-pos", required=True, help="transmitter position x,y,z (m)")
    ce.add_argument("--tx-dir", required=True, help="transmitter orientation x,y,z")
    ce.add_argument("--rx-pos", required=True, help="receiver position x,y,z (m)")
    ce.add_argument("--rx-dir", required=True, help="receiver orientation x,y,z")
    ce.add_argument("--config", default=None, help="JSON run configuration")
    ce.set_defaults(func=cmd_channel_eval)

    run = sub.add_parser("run", help="run a batch experiment")
    run.add_argument("experiment", choices=RUN_SUBCOMMANDS)
    run.add_argument("--config", default=None, help="JSON run configuration")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--reps", type=int, default=None, help="override repetitions")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(_join_triples(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, prefix = next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
