"""Which library functions the traced run wraps, and the per-layer metrics
computed from its spans.

A layer is a `compound_fsc` module. Every wrapped function reports
`<module>.<function>.self_s` (duration minus the time covered by wrapped
callees) and `.calls`; a few add work counts. Metrics of a layer a workload
does not reach read 0.
"""

from __future__ import annotations

from spans import self_times


def _entries(args, kwargs, out):
    fsc = args[0] if args else kwargs["fsc"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"entries": fsc.n_inputs ** n * fsc.n_outputs ** n}


def _rows(args, kwargs, out):
    return {"rows": int(len(out))}


def _solve(args, kwargs, report):
    n = args[2] if len(args) > 2 else kwargs["n"]
    diag = report.diagnostics
    history = diag.value_history
    improving, best = 0, history[0] if history else 0.0
    for v in history[1:]:
        if v > best:
            improving += 1
            best = v
    return {
        "n": n,
        "iterations": diag.iterations * diag.restarts,
        "improving": improving,
        "history": len(history),
        "converged": bool(diag.converged),
    }


# (module, function or Class.method, counter)
TARGETS = (
    ("causal", "channel_prob_table", _entries),
    ("causal", "policy_weight_table", None),
    ("causal", "causal_log_prob_rows", _rows),
    ("capacity", "compute_Cn", _solve),
    ("directed_info", "information_functional", None),
    ("directed_info", "directed_information", None),
    ("directed_info", "directed_information_kim", None),
    ("util", "project_rows_to_simplex", None),
    ("codetree", "paths_rows", None),
    ("codetree", "sample_codebook", None),
    ("decoder", "MLDecoder.decode_rows", None),
    ("decoder", "merge_rankings", None),
    ("simulate", "simulate_batch", None),
    ("simulate", "run_trials", None),
    ("cli", "main", None),
    ("exponents", "gallager_e0", None),
    ("exponents", "fn_superadditivity_check", None),
    ("estimation", "empirical_violation_rate", None),
)
TRACED = tuple(f"{m}.{f}" for m, f, _ in TARGETS)

SUITES = (
    "kim-identity",
    "continuity-lemma",
    "state-gap",
    "superadditivity",
    "merge-bounds",
    "separability",
    "sanov",
    "exponents",
    "zero-capacity",
)
HORIZONS = (1, 2, 3, 4, 5, 6)

RUN_ROOT = "bench.run"


def _declare():
    out = []
    for name in TRACED:
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    out += [
        ("causal.channel_prob_table.entries", "count", "lower"),
        ("causal.causal_log_prob_rows.rows", "count", "lower"),
    ]
    out += [(f"capacity.compute_Cn.s.n{n}", "s", "lower") for n in HORIZONS]
    out += [
        ("capacity.iterations", "count", "lower"),
        ("capacity.improving_frac", "ratio", "higher"),
        ("capacity.unconverged", "count", "lower"),
        ("simulate.threads", "count", "higher"),
        ("simulate.parallel_efficiency", "ratio", "higher"),
        ("simulate.trials_per_s", "1/s", "higher"),
    ]
    out += [(f"verify.{s}.s", "s", "lower") for s in SUITES]
    out += [
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.self_sum_frac", "ratio", "lower"),
        ("fail_frac", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _declare()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced operation (the spans of one process).

    `trace.self_sum_frac` is the sum of self times under the run root over
    the root's duration: exactly 1 when one thread did all the work, above 1
    when worker threads overlapped. The three metrics that need an untraced
    run or the gates (`trace.overhead_frac`, `simulate.trials_per_s`,
    `fail_frac`) are left at 0 here and filled in by the caller.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    selfs = self_times(spans)
    dur = [s["end_ns"] - s["start_ns"] for s in spans]
    improving = history = 0
    in_run = [False] * len(spans)
    run_total = run_self = 0
    for i, s in enumerate(spans):
        name, attrs = s["name"], s["attrs"] or {}
        parent = s["parent"]
        in_run[i] = name == RUN_ROOT or (parent is not None and in_run[parent])
        if name == RUN_ROOT:
            run_total += dur[i]
        if in_run[i]:
            run_self += selfs[i]
        if name in TRACED:
            out[f"{name}.self_s"] += selfs[i] / 1e9
            out[f"{name}.calls"] += 1
        elif name.startswith("verify."):
            out[f"{name}.s"] += dur[i] / 1e9
        if attrs.get("raised"):
            continue
        if "entries" in attrs:
            out[f"{name}.entries"] += attrs["entries"]
        if "rows" in attrs:
            out[f"{name}.rows"] += attrs["rows"]
        if name == "capacity.compute_Cn":
            key = f"capacity.compute_Cn.s.n{attrs['n']}"
            if key in out:
                out[key] += dur[i] / 1e9
            out["capacity.iterations"] += attrs["iterations"]
            out["capacity.unconverged"] += not attrs["converged"]
            improving += attrs["improving"]
            history += attrs["history"]
    if history:
        out["capacity.improving_frac"] = improving / history
    if run_total:
        out["trace.self_sum_frac"] = run_self / run_total
    out.update(_thread_metrics(spans, dur))
    return out


def _thread_metrics(spans, dur) -> dict:
    """Threads that ran `run_trials` chunks, and their busy share.

    A chunk is the interval from a thread's first to its last span directly
    under `run_trials`; efficiency is the summed chunk time over threads x
    `run_trials` wall time.
    """
    roots = [i for i, s in enumerate(spans) if s["name"] == "simulate.run_trials"]
    if not roots:
        return {}
    extent: dict[tuple[int, int], list[int]] = {}
    for s in spans:
        if s["parent"] in roots:
            key = (s["parent"], s["tid"])
            lo_hi = extent.setdefault(key, [s["start_ns"], s["end_ns"]])
            lo_hi[0] = min(lo_hi[0], s["start_ns"])
            lo_hi[1] = max(lo_hi[1], s["end_ns"])
    threads = max(sum(1 for r, _ in extent if r == root) for root in roots)
    busy = sum(b - a for a, b in extent.values())
    wall = sum(dur[r] for r in roots)
    return {
        "simulate.threads": threads,
        "simulate.parallel_efficiency": busy / (threads * wall) if threads and wall else 0.0,
    }
