"""Compare two checkouts on the benchmark in alternating pairs and write a BENCH json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads bounds scan converge --first-seed 11 --out BENCH_6.json

Each workload gets ten pairs, the fewest the benchmark's rule can judge.
Pair k runs ``perfbench/run.py --workload W --seed first_seed + k`` in each
checkout, the parent first when k is even and the change first when k is
odd, so drift of the host's speed falls on both sides alike.  Every run is
made afresh, so each number in the output measures the checkouts as they
are when the command runs.  The summary
gives, per workload and end-to-end metric, each side's median and quartiles,
the change's wins over the parent (ties count for neither), and whether the
change is better by the benchmark's rule: at least nine tenths of the pairs
won and the medians further apart than the parent's interquartile range.
The host reference kernel (``host.ref_ms``) is summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10


def run_pair(workload: str, seed: int, k: int, dirs: dict, seconds: float) -> dict:
    results = {}
    for side in SIDES if k % 2 == 0 else SIDES[::-1]:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=dirs[side], capture_output=True, text=True, check=True,
        )
        results[side] = parse_run(done.stdout, workload)
    return results


def parse_run(text: str, workload: str) -> dict:
    lines = text.strip().splitlines()
    record = json.loads(lines[-1])
    values = {name: m["value"] for name, m in record["metrics"].items()}
    for line in lines:
        if line.startswith(f"{workload} host.ref_ms = "):
            values["host.ref_ms"] = float(line.split()[3])
        elif line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
    return {"values": values, "machine": machine, "attempted": record["attempted"],
            "failed": record["failed"]}


def summarise(pairs: list[dict], better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {s: [p[s]["values"][name] for p in pairs] for s in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        losses = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        stats = {}
        for side, values in sides.items():
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            stats[side] = {"median": q2, "q1": q1, "q3": q3, "runs": values}
        gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
        out[name] = {
            "better": direction, **stats, "change_wins": wins, "parent_wins": losses,
            "ratio_change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "gain_by_rule": wins >= 0.9 * len(pairs)
            and gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--out", required=True)
    opts = parser.parse_args()
    dirs = {"parent": os.path.abspath(opts.parent), "change": os.path.abspath(opts.change)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["host.ref_ms"] = "lower"

    report = {"pairs": PAIRS, "seeds": [opts.first_seed, opts.first_seed + PAIRS - 1],
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in opts.workloads:
        pairs = [
            run_pair(workload, opts.first_seed + k, k, dirs, spec["run_seconds"])
            for k in range(PAIRS)
        ]
        machine = pairs[-1]["change"]["machine"]
        report["machine"] = {k: machine.get(k) for k in ("nproc", "python", "numpy", "blas", "threads")}
        report["workloads"][workload] = {
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "metrics": summarise(pairs, better),
        }
    with open(opts.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
