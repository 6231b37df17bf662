"""One benchmark process: import, build inputs, warm up, then run a closed loop.

Started by ``run.py`` with the thread variables and ``PYTHONPATH`` already
set.  It prints ``READY`` once it can time its first op, so the parent can
take spawn-to-ready as set-up time, then runs ops for ``--seconds`` of wall
time and prints one JSON line with what it measured.  Between ops it runs a
fixed reference kernel that makes no ``tiltmat`` call, to show host drift.

    python3 perfbench/worker.py --workload scan --seed 1 --segment 0 \\
        --seconds 3 --workdir .perfbench/tmp [--trace-out spans.npz]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

_REF_KERNEL = np.random.default_rng(0).uniform(size=(16, 16))
_REF_KERNEL /= _REF_KERNEL.sum(axis=1)[:, None]


def host_ref_ms() -> float:
    """Fixed small-numpy plus pure-Python work, about 1 ms on a 2-CPU host."""
    start = time.perf_counter()
    x = np.full(16, 1.0 / 16)
    for _ in range(120):
        x = x @ _REF_KERNEL
        x /= x.sum()
    acc = 0
    for k in range(6000):
        acc += k * k % 7
    return 1e3 * (time.perf_counter() - start)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _attempt(workload, i: int, tracer=None):
    """Run op ``i``, traced when a tracer is given; return (seconds, failure or None)."""
    args = workload.make_input(i)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = workload.run(args)
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        return time.perf_counter() - start, f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(args, result)
    except Exception as exc:
        return elapsed, f"check raised {exc!r}"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    opts = parser.parse_args()

    from workloads import WORKLOADS

    cls = WORKLOADS[opts.workload]
    importlib.import_module(cls.module)
    traced = opts.trace_out is not None
    extra = {"in_process": True} if traced and cls.name == "converge" else {}
    workload = cls(opts.seed, opts.segment, opts.workdir, **extra)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
    # Warm-up ops are not checked: set-up time holds no verification.
    for i in range(workload.warmup):
        workload.run(workload.make_input(i))
    host_ref_ms()
    print("READY", flush=True)

    latencies, traced_latencies, ref, failures = [], [], [], []
    attempted = 0
    i = workload.warmup
    deadline = time.perf_counter() + opts.seconds
    while time.perf_counter() < deadline:
        # The traced run alternates plain and traced ops, so the tracer's
        # overhead is measured under the same host conditions.
        trace_this = tracer is not None and attempted % 2 == 1
        elapsed, failure = _attempt(workload, i, tracer if trace_this else None)
        (traced_latencies if trace_this else latencies).append(1e3 * elapsed)
        attempted += 1
        if failure is not None:
            failures.append(f"op {i}: {failure}")
        ref.append(host_ref_ms())
        i += 1

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "latencies_ms": latencies,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "ref_ms": ref,
        "maxrss_kb": usage,
        "facts": machine_facts(),
    }
    if tracer is not None:
        self_ms, calls = tracer.per_op()
        tracer.save(opts.trace_out)
        out.update(
            traced_latencies_ms=traced_latencies,
            labels=tracer.labels,
            self_ms=np.median(self_ms, axis=0).tolist(),
            calls=calls.mean(axis=0).tolist(),
            calls_exact=bool((calls == calls[0]).all()),
        )
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
