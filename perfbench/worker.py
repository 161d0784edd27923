"""One workload operation in a fresh process; run.py starts it.

Times set-up (importing compound_fsc and building the inputs) and the
operation, reads this process's peak resident memory before anything else
runs, then writes what the parent's correctness gate needs. With --trace 1
it wraps the layer functions, and writes the spans with the run's
environment to --trace-file.

    python3 perfbench/worker.py --workload NAME --seed N --size full \
        --trace 0 --workdir DIR --result FILE [--setup-only]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB.

    getrusage's ru_maxrss would also count the parent's memory inherited
    through fork before exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(cf) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_count": cf.util.worker_count(),
        "COMPOUND_FSC_THREADS": os.environ.get("COMPOUND_FSC_THREADS"),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    cf = workloads.import_library()
    tracer = restore = None
    if args.trace:
        tracer = Tracer()
        restore = tracer.install(layers.TARGETS)
        span = tracer.call
    else:
        def span(name, fn, *a, **kw):
            return fn(*a, **kw)

    inputs = span("bench.setup", wl.setup, cf, args.seed, args.size, args.workdir)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        t1 = time.perf_counter()
        errors, raw = span(layers.RUN_ROOT, wl.run, cf, inputs, span)
        out["run_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = peak_rss_mb()
        if restore:
            restore()
        out["errors"] = errors
        out["payload"] = wl.save(cf, raw, args.workdir)
        if tracer:
            records = tracer.to_records()
            out["layers"] = layers.layer_metrics(records)
            trace = {"workload": args.workload, "seed": args.seed, "size": args.size,
                     "environment": environment(cf), "spans": records}
            Path(args.trace_file).write_text(json.dumps(trace))
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
