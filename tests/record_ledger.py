"""The record ledger: a fixed replay of optimizer records and Monte Carlo
fractions, committed as record_ledger.json beside this file.

The replay is K in {1, 2, 4, 8} users x make_scenario(K, 1001..1015) x
configurations 1-5 at the acceptance campaign's settings (25 outer
iterations, tolerance 1e-3), every configuration starting from the drop's
random layout; then the configuration-5 optimum of each K = 8 drop quantized
at 30 and 80 degrees; then both half-energy Monte Carlo fractions at 200,000
samples for seeds 1 and 2. Each record keeps its scenario_hash, configuration,
the repr of gamma_total_db, iterations and failure.

test_record_ledger.py replays it. Run this file to replay it against the
committed ledger and print the largest deltas; with --write it then replaces
the ledger with the replay:

    PYTHONPATH=src python tests/record_ledger.py [--write]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib

import numpy as np

from polarlink.harness import (make_scenario, monte_carlo_half_energy, quantized_record,
                               random_initial_layout, run_configuration, _rng)
from polarlink.optimizer import OptimizerConfig, optimize

LEDGER_PATH = pathlib.Path(__file__).with_name("record_ledger.json")
USER_COUNTS = (1, 2, 4, 8)
SEEDS = range(1001, 1016)
CONFIGURATIONS = (1, 2, 3, 4, 5)
RESOLUTIONS_DEG = (30.0, 80.0)
CAMPAIGN_CONFIG = OptimizerConfig(max_outer_iterations=25, convergence_tol=1e-3)
MONTE_CARLO_KINDS = ("tx_random", "rx_random")
MONTE_CARLO_SAMPLES = 200_000
MONTE_CARLO_SEEDS = (1, 2)


def environment() -> dict:
    """numpy's version and the SIMD extensions it runs on: where either
    differs, a ufunc may round differently, and the ledger's iteration
    counts and fractions may then move."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:                      # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__,
            "simd": sorted(name for name, on in __cpu_features__.items() if on)}


def _entry(record) -> dict:
    return {"users": record.users, "seed": record.seed,
            "scenario_hash": record.scenario_hash, "configuration": record.configuration,
            "resolution_deg": record.grid_value,
            "gamma_total_db": repr(record.gamma_total_db),
            "iterations": record.iterations, "failure": record.failure}


def replay() -> dict:
    """The ledger as the installed polarlink computes it."""
    records = []
    for users in USER_COUNTS:
        for seed in SEEDS:
            scenario = make_scenario(users, seed)
            layout = random_initial_layout(scenario, _rng(seed, 2))
            records += [_entry(run_configuration(scenario, cid, CAMPAIGN_CONFIG, layout))
                        for cid in CONFIGURATIONS]
    for seed in SEEDS:
        scenario = make_scenario(8, seed)
        layout = random_initial_layout(scenario, _rng(seed, 2))
        result = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                          scenario.constraints, CAMPAIGN_CONFIG)
        records += [_entry(quantized_record(scenario, result, res)) for res in RESOLUTIONS_DEG]
    fractions = [{"kind": kind, "seed": seed, "samples": MONTE_CARLO_SAMPLES,
                  "fraction": repr(monte_carlo_half_energy(kind, MONTE_CARLO_SAMPLES, seed))}
                 for kind in MONTE_CARLO_KINDS for seed in MONTE_CARLO_SEEDS]
    return {"environment": environment(), "records": records, "fractions": fractions}


def load() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def dumps(ledger: dict) -> str:
    """The ledger as JSON with one record or fraction a line, so a
    regeneration diffs record by record."""
    lines = ["{", f' "environment": {json.dumps(ledger["environment"])},']
    for name, closing in (("records", ","), ("fractions", "")):
        rows = [f"  {json.dumps(row)}" for row in ledger[name]]
        lines += [f' "{name}": [', ",\n".join(rows), f" ]{closing}"]
    return "\n".join(lines + ["}", ""])


def _key(record: dict) -> tuple:
    return record["scenario_hash"], record["configuration"], record["resolution_deg"]


def gamma_delta_db(old: str, new: str) -> float:
    """|new - old| in dB between two repr'd gamma_total_db values: 0 when
    both are the same non-finite value, inf when only one is finite."""
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if old == new else math.inf
    return abs(b - a)


def compare(old: dict, new: dict) -> dict:
    """What moved from the ledger old to the replay new, matching records by
    (scenario_hash, configuration, resolution_deg): the five largest
    gamma_total_db deltas and every changed iteration count, failure and
    fraction."""
    new_by_key = {_key(r): r for r in new["records"]}
    pairs = [(r, new_by_key.get(_key(r))) for r in old["records"]]
    matched = [(a, b) for a, b in pairs if b is not None]
    deltas = sorted(((gamma_delta_db(a["gamma_total_db"], b["gamma_total_db"]), a, b)
                     for a, b in matched), key=lambda item: item[0], reverse=True)
    return {
        "records": len(old["records"]),
        "missing": [_key(a) for a, b in pairs if b is None],
        "moved": sum(1 for a, b in matched if a["gamma_total_db"] != b["gamma_total_db"]),
        "largest": deltas[:5],
        "iterations_changed": [_key(a) for a, b in matched if a["iterations"] != b["iterations"]],
        "failures_changed": [_key(a) for a, b in matched if a["failure"] != b["failure"]],
        "fractions_changed": [(a["kind"], a["seed"], a["fraction"], b["fraction"])
                              for a, b in zip(old["fractions"], new["fractions"])
                              if a["fraction"] != b["fraction"]],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="replace the committed ledger with the replay")
    args = parser.parse_args(argv)
    new = replay()
    if LEDGER_PATH.exists():
        old = load()
        summary = compare(old, new)
        print(f"environment: ledger {old['environment']['numpy']}, "
              f"here {new['environment']['numpy']}; SIMD "
              f"{'same' if old['environment'] == new['environment'] else 'different'}")
        print(f"{summary['records']} records, {summary['moved']} gamma_total_db values moved, "
              f"{len(summary['missing'])} missing")
        for delta, a, b in (item for item in summary["largest"] if item[0] > 0):
            print(f"  {delta:.3e} dB  K={a['users']} seed={a['seed']} "
                  f"configuration={a['configuration']} resolution={a['resolution_deg']}: "
                  f"{a['gamma_total_db']} -> {b['gamma_total_db']}")
        for name in ("iterations_changed", "failures_changed", "fractions_changed"):
            print(f"{name}: {summary[name] or 'none'}")
    if args.write:
        LEDGER_PATH.write_text(dumps(new))
        print(f"wrote {LEDGER_PATH.name}")


if __name__ == "__main__":
    main()
