"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--traced] [--out perfbench/baseline/NAME.json]
    python3 perfbench/collect.py --compare BEFORE.json AFTER.json

Each run is `perfbench/run.py` in its own process, one after another, with
the run length from BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to a third of the metric's bound. --traced adds one
traced run per workload on the first seed. --out writes every result line.
Exit code 1 when a run fails its checks. --compare runs nothing: it reads two
--out files and prints, per workload and metric, how far AFTER's median is
from BEFORE's, flagging a change worse than the metric's bound; it refuses
two files whose run length or seeds differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "env": env, "result": result,
            "report": lines[:-1] if result else lines + done.stderr.splitlines()}


def spread_table(bench: dict, runs: list) -> dict:
    table = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        table[name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med, "bound": metric["bound"],
                       "values": values}
    return table


def compare(bench: dict, before_path: str, after_path: str) -> int:
    before, after = (json.loads(Path(p).read_text()) for p in (before_path, after_path))
    for key in ("seconds", "seeds"):
        if before[key] != after[key]:
            print(f"cannot compare: {key} differ ({before[key]} against {after[key]})")
            return 2
    worse = 0
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        for workload, entry in after["workloads"].items():
            old = before["workloads"][workload]["spread"][name]["median"]
            new = entry["spread"][name]["median"]
            change = (new - old) / old
            flag = "  WORSE THAN BOUND" if sign * change < -metric["bound"] else ""
            worse += bool(flag)
            print(f"{workload:<14} {name:<14} {old:.6g} -> {new:.6g} {metric['unit']:<4} "
                  f"({change:+.4f}, bound {metric['bound']}){flag}")
    return 1 if worse else 0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        return compare(bench, *args.compare)

    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, 0)
            runs.append(run)
            res = run["result"]
            ok &= run["exit"] == 0
            print(f"{workload} seed {seed}: exit {run['exit']} correct {res.get('correct')} "
                  f"attempted {res.get('attempted')} failed {res.get('failed')} "
                  f"load {run['env'].get('loadavg_start', '?').split(' ')[0]}", flush=True)
            if run["exit"] != 0:
                print("\n".join(run["report"][-20:]))
        entry = {"runs": runs}
        if all(r["result"] for r in runs):
            entry["spread"] = spread_table(bench, runs)
            for name, row in entry["spread"].items():
                flag = "" if row["spread"] < row["bound"] / 3 else "  WIDE"
                print(f"  {name:<14} median {row['median']:.6g} {row['unit']:<4} "
                      f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f} "
                      f"(bound/3 {row['bound'] / 3:.4f}){flag}")
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            ok &= traced["exit"] == 0
            entry["traced"] = traced
            print("\n".join(traced["report"]))
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
