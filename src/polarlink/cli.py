"""Batch command-line front end.

Two commands: `channel-eval` prints the gain report of one dipole link, and
`run` dispatches the experiment families, writing one CSV per run plus a JSON
provenance sidecar. Exit codes: 0 success, 2 usage, 3 I/O, 4 infeasible
geometry or scenario, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .harness import (RunRecord, make_scenario, monte_carlo_half_energy,
                      reference_link_map, reference_link_peak, run_configuration, sweep,
                      _usable_cpu_count)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

RUN_SUBCOMMANDS = ("scenario1", "scenario2", "montecarlo", "optimize",
                   "sweep-users", "sweep-power", "sweep-granularity", "convergence")


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
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
            "usable_cpu_count": _usable_cpu_count(),   # the Monte Carlo's thread count
        },
    }
    if extra:
        meta.update(extra)
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


def _load_config(path: Optional[str]) -> Optional[RunConfig]:
    """The configuration in the file at `path` (defaults without one), or None
    after reporting a file that cannot be read."""
    try:
        return RunConfig.from_file(path) if path else RunConfig()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None


def cmd_channel_eval(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return EXIT_IO
    medium = config.medium()
    try:
        tx = AntennaPose(position=_parse_triple(args.tx_pos, "--tx-pos"),
                         orientation=_parse_triple(args.tx_dir, "--tx-dir"))
        rx = AntennaPose(position=_parse_triple(args.rx_pos, "--rx-pos"),
                         orientation=_parse_triple(args.rx_dir, "--rx-dir"))
        terms = link_terms(tx.position[None, :], tx.orientation[None, :],
                           rx.position[None, :], rx.orientation[None, :], medium)
    except GeometryError as exc:
        print(f"error: invalid geometry: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    gain = complex(terms.gains[0, 0])
    tx_t, rx_t = terms.tx, terms.rx
    if tx_t.degenerate[0, 0]:
        alpha, match = math.nan, 0.0
    else:
        sin_alpha = np.linalg.norm(np.cross(rx.orientation, tx_t.field_dir[0, 0]))
        alpha = np.arctan2(sin_alpha, terms.cos_matching[0, 0])
        match = terms.matching[0, 0]
    fields = [
        ("gain_magnitude", abs(gain)),
        ("gain_phase_rad", math.atan2(gain.imag, gain.real)),
        ("emission_angle_rad", np.arctan2(tx_t.sin_emission[0, 0], tx_t.cos_emission[0, 0])),
        ("incident_angle_rad", np.arctan2(rx_t.sin_incidence[0], rx_t.cos_incidence[0])),
        ("matching_angle_rad", alpha),
        ("gamma_parallel", rx_t.gamma_par[0]),
        ("gamma_perpendicular", rx_t.gamma_perp[0]),
        ("matching_efficiency", match),
    ]
    width = max(len(name) for name, _ in fields)
    for name, value in fields:
        print(f"{name:<{width}}  {_fmt(float(value))}")
    return EXIT_OK


def _record_rows(records: Sequence[RunRecord]):
    header = ["grid_value", "configuration", "users", "antennas", "power_w",
              "gamma_total", "gamma_total_db", "average_rate", "iterations",
              "scenario_hash", "seed", "failure", "trace_db"]
    rows = []
    for rec in records:
        rows.append([
            rec.grid_value if rec.grid_value is not None else "",
            rec.configuration, rec.user_count, rec.antenna_count, rec.total_power,
            rec.gamma_total, rec.gamma_total_db, rec.average_rate, rec.iterations,
            rec.scenario_hash, rec.seed, rec.failure or "",
            ";".join(_fmt(v) for v in rec.trace_db),
        ])
    return header, rows


def cmd_run(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return EXIT_IO
    overrides = {"seed": args.seed, "repetitions": args.reps}
    config = dataclasses.replace(
        config, **{name: value for name, value in overrides.items() if value is not None})

    medium = config.medium()
    optimizer_config = config.optimizer()
    sub = args.experiment
    try:
        if sub in ("scenario1", "scenario2"):
            kind = "tx_random" if sub == "scenario1" else "rx_random"
            polar, azimuthal, mags = reference_link_map(kind, medium)
            rows = [[np.rad2deg(p), np.rad2deg(a), m, m * m]
                    for p, row in zip(polar, mags) for a, m in zip(azimuthal, row)]
            write_csv(args.out, ["polar_deg", "azimuthal_deg", "gain_magnitude",
                                 "gain_power"], rows)
            write_sidecar(args.out, config, sub, 1,
                          {"peak_gain": reference_link_peak(kind, medium)})
        elif sub == "montecarlo":
            rows = []
            for kind in ("tx_random", "rx_random"):
                frac = monte_carlo_half_energy(kind, config.monte_carlo_samples,
                                               config.seed, medium)
                rows.append([kind, config.monte_carlo_samples, frac])
            write_csv(args.out, ["scenario_kind", "samples", "half_energy_fraction"], rows)
            write_sidecar(args.out, config, sub, 1)
        elif sub == "optimize":
            scenario = make_scenario(config.user_count, seed=config.seed, medium=medium,
                                     antenna_count=config.antenna_count,
                                     total_power=config.total_power_w,
                                     cube_half_side=config.coverage_half_side_m,
                                     region_half_side=config.region_half_side_m)
            record = run_configuration(scenario, 5, optimizer_config)
            if record.failure:
                print(f"error: optimization failed: {record.failure}", file=sys.stderr)
                return EXIT_NUMERICAL
            rows = [[i, db] for i, db in enumerate(record.trace_db)]
            write_csv(args.out, ["iteration", "gamma_total_db"], rows)
            write_sidecar(args.out, config, sub, 1,
                          {"scenario_hash": record.scenario_hash,
                           "gamma_total_db": record.gamma_total_db})
        else:
            kind, grid, configurations = {
                "sweep-users": ("users", config.users_grid, config.configurations),
                "sweep-power": ("power", config.power_grid_w, None),
                "sweep-granularity": ("granularity", config.granularity_grid_deg, None),
                "convergence": ("users", [config.user_count], (1, 5)),
            }[sub]
            records = sweep(kind, grid, config.repetitions, config.seed, medium,
                            optimizer_config, antenna_count=config.antenna_count,
                            total_power=config.total_power_w, user_count=config.user_count,
                            configurations=configurations,
                            workers=max(args.threads, 1),
                            cube_half_side=config.coverage_half_side_m,
                            region_half_side=config.region_half_side_m)
            header, rows = _record_rows(records)
            write_csv(args.out, header, rows)
            write_sidecar(args.out, config, sub, config.repetitions)
    except (InfeasibleLayoutError, UnsupportedConfigurationError) as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SingularChannelError, NumericalError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
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
    run.add_argument("--threads", type=int, default=1, help="parallel workers for sweeps")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_triples(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PolarlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
