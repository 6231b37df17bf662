"""Benchmark for tiltmat: three workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 38 --trace 0

With ``--trace 0`` the run is split into segments, each in a fresh worker
process (see ``worker.py``).  Set-up time is spawn-to-ready of every segment,
so it is sampled several times across the run and reported as a median.  Op
latencies from all segments are pooled.  With ``--trace 1`` one worker
alternates plain and traced ops and reports self time and calls per op for
each public ``tiltmat`` function, plus fresh-process import time of
``tiltmat.cli``.

Between ops a worker runs a fixed reference kernel that makes no ``tiltmat``
call.  The host this was written on switches between its full speed and
slower states for a second to minutes at a time, and every op and process
start is 1.5 to 2 times slower in a slow state; the reference median,
printed beside the metrics and never folded into them, tells such drift from
a change in the program.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with machine facts and sample counts, is written under ``.perfbench/``.
Workload definitions and the layer-to-metric predictions are in
``design.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan", "bounds", "converge")
SEGMENTS = 10
IMPORT_PROBES = 5
READY_TIMEOUT_S = 60.0
END_TIMEOUT_S = 90.0
OUT_DIR = ".perfbench"
# The percentile op_p90_ms reports: p90 where a run has hundreds of ops, p80
# for converge, whose runs hold about 60 to 90 ops.
TAIL_PERCENTILE = {"scan": 90, "bounds": 90, "converge": 80}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tiltmat.cli; "
    "print(1e3 * (time.perf_counter() - t))"
)

# The per-layer metric names are the ones BENCHMARK.json lists.
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def bench_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], seconds: float, env: dict) -> tuple[float, dict]:
    """Start a worker that measures for ``seconds``; return (spawn-to-ready seconds, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=seconds + END_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_run(opts, env, workdir) -> tuple[dict, dict, dict]:
    setups, latencies, ref, failures, rss = [], [], [], [], []
    attempted = failed = 0
    facts = {}
    seconds = opts.seconds / SEGMENTS
    for segment in range(SEGMENTS):
        setup, res = run_worker(
            [
                "--workload", opts.workload, "--seed", str(opts.seed),
                "--segment", str(segment), "--seconds", str(seconds),
                "--workdir", workdir,
            ],
            seconds,
            env,
        )
        setups.append(setup)
        latencies += res["latencies_ms"]
        ref += res["ref_ms"]
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        rss.append(res["maxrss_kb"])
        facts = res["facts"]
    n = len(latencies)
    q = TAIL_PERCENTILE[opts.workload]
    metrics = {
        "ops_per_s": (n / (sum(latencies) / 1e3), "1/s", f"{n} ops over {sum(latencies) / 1e3:.2f} s of op time"),
        "op_p50_ms": (percentile(latencies, 50.0), "ms", f"median of {n} ops"),
        "op_p90_ms": (percentile(latencies, q), "ms", f"p{q} of {n} ops"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh processes"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB", "largest worker or child maximum RSS"),
        "ok_share": ((attempted - failed) / attempted, "share", f"fail_share = {failed}/{attempted}"),
    }
    beside = {
        "host.ref_ms": (statistics.median(ref), "ms", f"median of {len(ref)}; not folded into any metric"),
        "fail_share": (failed / attempted, "share", f"{failed} of {attempted} ops"),
    }
    summary = {
        "attempted": attempted, "failed": failed, "failures": failures[:5],
        "tail_percentile": q, "facts": facts,
        "samples": {"op_ms": latencies, "ref_ms": ref, "setup_s": setups},
    }
    return metrics, beside, summary


def traced_run(opts, env, workdir, spans_path) -> tuple[dict, dict, dict]:
    imports = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
            text=True, check=True, timeout=END_TIMEOUT_S,
        )
        imports.append(float(done.stdout))
    _, res = run_worker(
        [
            "--workload", opts.workload, "--seed", str(opts.seed), "--segment", "0",
            "--seconds", str(opts.seconds), "--workdir", workdir, "--trace-out", spans_path,
        ],
        opts.seconds,
        env,
    )
    plain, traced = res["latencies_ms"], res["traced_latencies_ms"]
    found = {}
    for k, label in enumerate(res["labels"]):
        found[f"{label}.self_ms"] = (res["self_ms"][k], "ms", "median per traced op")
        found[f"{label}.calls"] = (res["calls"][k], "count", "mean per traced op")
    found["cli.import_ms"] = (
        statistics.median(imports), "ms", f"median of {len(imports)} fresh processes"
    )
    found["host.ref_ms"] = (
        statistics.median(res["ref_ms"]), "ms", f"median of {len(res['ref_ms'])}"
    )
    found["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "share",
        f"median of {len(traced)} traced over {len(plain)} plain ops, minus 1",
    )
    with open(SPEC, encoding="utf-8") as handle:
        wanted = json.load(handle)["per_layer"]
    metrics = {m["name"]: found[m["name"]] for m in wanted}
    beside = {"calls_exact": (float(res["calls_exact"]), "bool", "1 when every traced op made the same calls")}
    summary = {
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        "facts": res["facts"], "spans": spans_path,
    }
    return metrics, beside, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tiltmat", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a tiltmat checkout (no src/tiltmat)\n")
        return 2
    env = bench_env(root)
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }
    # Build step: byte-compile the package and the benchmark so no measured
    # process compiles them.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src"), HERE],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=END_TIMEOUT_S,
    )
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if opts.trace:
            spans = os.path.join(out_dir, f"{stem}-spans.npz")
            metrics, beside, summary = traced_run(opts, env, workdir, spans)
        else:
            metrics, beside, summary = timed_run(opts, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts.update(summary.pop("facts"))

    for name, (value, unit, note) in {**metrics, **beside}.items():
        print(f"{opts.workload} {name} = {value:.6g} {unit}  ({note})")
    print(f"machine {json.dumps(facts)}")
    for failure in summary["failures"]:
        print(f"failure {failure}")
    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "machine": facts, **summary,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "beside": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in beside.items()},
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
