"""Benchmark of compound_fsc: one workload, measured from outside the library.

    python3 perfbench/run.py --workload capacity-sweep --seed 0 --seconds 40 --trace 0

Every repetition of the workload runs in a fresh process (worker.py), one
after another, until --seconds have passed (at least MIN_REPS of them).
Each repetition times set-up and the operations and reads its own peak
resident memory; this process then checks every result with the workload's
correctness gate, outside the timed part. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the medians of setup_s, run_s and peak_rss_mb over the
repetitions. With --trace 1, traced and untraced repetitions alternate and
the metrics are the per-layer medians of the traced ones, plus the tracing
overhead; the spans of the last traced repetition are written to
perfbench/out/trace_<workload>_seed<seed>.json.

Exits 2 without a result when the checkout has no src/compound_fsc.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from layers import PER_LAYER, UNITS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = {"full": 3, "toy": 1}  # with --trace 1: one traced and one untraced
SETUP_SAMPLES = {"full": 9, "toy": 1}
DEADLINE_S = 170.0  # the whole run must end within 180 s
GATE_RESERVE_S = 25.0  # time kept back for the gates after the last repetition


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.started = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, trace: bool = False, setup_only: bool = False):
        """Run one worker process; its result dict, or None if it failed."""
        self.count += 1
        wd = self.workdir / f"rep{self.count}"
        wd.mkdir()
        result = wd / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size, "--trace", str(int(trace)),
               "--workdir", str(wd), "--result", str(result)]
        if trace:
            cmd += ["--trace-file", str(OUT / f"trace_{self.args.workload}_seed{self.args.seed}.json")]
        if setup_only:
            cmd.append("--setup-only")
        t = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(5.0, self.remaining() - GATE_RESERVE_S))
        except subprocess.TimeoutExpired:
            print(f"repetition {self.count}: timed out", file=sys.stderr)
            return None
        wall = time.monotonic() - t
        if proc.returncode != 0 or not result.is_file():
            print(f"repetition {self.count}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        out = json.loads(result.read_text())
        out["wall_s"] = wall
        out["traced"] = trace
        print(f"repetition {self.count}{' traced' if trace else ''}{' setup' if setup_only else ''}: "
              f"setup {out['setup_s']:.4f} s, run {out.get('run_s', 0.0):.4f} s, wall {wall:.2f} s",
              file=sys.stderr)
        return out


def measure(args, runner: Runner, wl):
    """Repetitions until --seconds have passed; (results, set-up samples, failed ops).

    Without tracing, a set-up-only process follows each repetition until
    there are SETUP_SAMPLES set-up samples, so that those samples are spread
    over the run like the repetitions, and the whole cycle counts against
    --seconds.
    """
    reps, setups = [], []
    cycles = []  # wall time of each repetition with the set-up sample after it
    while True:
        traced = bool(args.trace) and sum(r["traced"] for r in reps) < sum(not r["traced"] for r in reps)
        res = runner.child(trace=traced)
        if res is None:  # a crashed repetition fails all its operations; stop there
            return reps, setups, wl.ops_per_rep(args.size)
        reps.append(res)
        cycle = res["wall_s"]
        if not traced:
            setups.append(res["setup_s"])
        if not args.trace and len(setups) < SETUP_SAMPLES[args.size]:
            extra = runner.child(setup_only=True)
            if extra is None:
                return reps, setups, 1
            setups.append(extra["setup_s"])
            cycle += extra["wall_s"]
        cycles.append(cycle)
        elapsed = time.monotonic() - runner.started
        typical = _median(cycles)
        if args.trace:
            enough = any(r["traced"] for r in reps) and not all(r["traced"] for r in reps)
        else:
            enough = len(reps) >= MIN_REPS[args.size]
        if (enough and elapsed + typical > args.seconds) or runner.remaining() < GATE_RESERVE_S + typical:
            return reps, setups, 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="toy: tiny inputs for the smoke test")
    args = p.parse_args(argv)
    try:
        cf = workloads.import_library()  # also compiles the package once before timing
    except workloads.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args, workdir)
        reps, setups, failed = measure(args, runner, wl)
        while not failed and not args.trace and len(setups) < SETUP_SAMPLES[args.size] and runner.remaining() > GATE_RESERVE_S:
            res = runner.child(setup_only=True)
            if res is None:
                failed += 1
                break
            setups.append(res["setup_s"])
        attempted = failed + sum(len(r["errors"]) for r in reps)
        memo: dict = {}
        for r in reps:
            problems = [e for e in r["errors"] if e is not None]
            try:
                problems += wl.gate(cf, args.seed, args.size, r["payload"], memo)
            except Exception as exc:  # an unreadable result fails every operation it holds
                problems += [f"gate raised {exc!r}"] * (len(r["errors"]) - len(problems))
            for msg in problems:
                print(f"FAILED: {msg}", file=sys.stderr)
            failed += len(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        values = {name: _median([r["layers"][name] for r in traced]) for name, _, _ in PER_LAYER}
        plain_run = _median([r["run_s"] for r in plain])
        if plain_run:
            values["trace.overhead_frac"] = _median([r["run_s"] for r in traced]) / plain_run - 1.0
        if wl.name == "simulate-ml":
            values["simulate.trials_per_s"] = wl.shape(args.size)[2] / plain_run if plain_run else 0.0
        values["fail_frac"] = failed / attempted if attempted else 0.0
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    else:
        values = {
            "setup_s": _median(setups),
            "run_s": _median([r["run_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
