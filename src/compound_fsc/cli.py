"""Command-line surface: capacity solves, simulation campaigns, invariant
suites, and estimation demos.

Conventions
-----------
* results go to stdout, diagnostics to stderr;
* each subcommand returns a `Run` (config, seed, result files, stage
  timings, exit code) and `main` alone writes it: the output directory,
  every result file through `_write`, and a manifest.json whose metrics
  always carry wall_clock_s, write_s and peak_rss_mb;
* every result file names its manifest, and the manifest's argv holds every
  option the parser set, so `rerun <manifest>` reproduces the result files
  byte for byte (only the manifest's timing fields differ);
* exit codes: 0 ok, 1 failed verification, 2 malformed input, 3 enumeration
  cap exceeded, 4 capacity not certified: the gap between the reported C_n
  and its upper bound exceeds capacity.GAP_TOL (report still written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import GAP_TOL, SolverConfig, compute_Cn
from .causal import uniform_policy
from .channel import CompoundFamily, FeedbackMap, identity_feedback, load_family, no_feedback
from .codetree import Codebook, CodeTree, sample_codebook, tree_size
from .errors import CapExceededError, ValidationError
from .estimation import empirical_violation_rate, two_phase_scheme
from .presets import load_preset
from .simulate import TrialConfig, example1_config, example1_row, run_trials
from .util import LN2
from .verify import SANOV_CASES, run_suites

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    argv: list
    config: dict
    seed: int
    out_dir: str
    version: str
    metrics: dict  # timing and iteration counts; excluded from reproducibility

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        try:
            m = cls(
                subcommand=d["subcommand"],
                argv=list(d["argv"]),
                config=dict(d["config"]),
                seed=int(d["seed"]),
                out_dir=d["out_dir"],
                version=d["version"],
                metrics=dict(d.get("metrics", {})),
            )
        except (KeyError, TypeError) as e:  # TypeError also when the manifest is not an object
            raise ValidationError(f"malformed manifest: {e!r}") from e
        if m.subcommand == "rerun" or m.argv[:1] != [m.subcommand] or not all(isinstance(a, str) for a in m.argv):
            # a rerun writes no manifest, so one that names rerun would only call itself
            raise ValidationError("manifest argv must be strings starting with its subcommand, other than 'rerun'")
        return m


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (ru_maxrss is in
    KiB on Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** (20 if sys.platform == "darwin" else 10)


@dataclass(frozen=True)
class Run:
    """What a subcommand hands back to `main`, which writes it."""

    config: dict
    seed: int
    files: list  # (name, body) pairs in write order; see `_write`
    metrics: dict = field(default_factory=dict)  # the command's own stage timings and counts
    code: int = 0


def _write(path: Path, body) -> None:
    """Write one result file, led by a pointer to its manifest. The suffix
    picks the body: .json an object, .csv (header, rows), .jsonl (first
    record, further records)."""
    with path.open("w", newline="") as fh:
        if path.suffix == ".json":
            fh.write(json.dumps({"manifest": MANIFEST_NAME, **body}) + "\n")
        elif path.suffix == ".csv":
            fh.write(f"# manifest: {MANIFEST_NAME}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(body[0])
            w.writerows(body[1])
        else:
            head, records = body
            for rec in itertools.chain([{"manifest": MANIFEST_NAME, **head}], records):
                fh.write(json.dumps(rec) + "\n")


def _resolve_family(args) -> tuple[CompoundFamily, dict]:
    if getattr(args, "family", None):
        return load_family(args.family), {"family_path": args.family}
    if getattr(args, "preset", None):
        return load_preset(args.preset), {"preset": args.preset}
    raise ValidationError("provide --family <file> or --preset <name>")


def _resolve_feedback(spec: str, outputs) -> FeedbackMap:
    if spec == "identity":
        return identity_feedback(outputs)
    if spec == "none":
        return no_feedback(outputs)
    if isinstance(spec, str) and spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            return FeedbackMap.from_dict(json.load(fh))
    raise ValidationError("feedback must be 'identity', 'none', or 'table:<file>'")


def cmd_capacity(args) -> Run:
    family, fam_cfg = _resolve_family(args)
    fb = _resolve_feedback(args.feedback, family.members[0].outputs)
    t_solve = time.monotonic()
    report = compute_Cn(family, fb, args.n, SolverConfig(seed=args.seed))
    solve_s = time.monotonic() - t_solve
    c, up, hat = report.C_n_nats, report.upper_nats, report.hatC_n_nats
    print(f"C_{args.n}    in [{c:.9f}, {up:.9f}] nats/symbol = [{c / LN2:.9f}, {up / LN2:.9f}] bits/symbol")
    print(f"hatC_{args.n} = {hat:.9f} nats/symbol = {hat / LN2:.9f} bits/symbol")
    print(f"worst case (initial state, member) = {report.worst_case}")
    code = 0
    if not report.diagnostics.converged:
        gap = f"certified gap {up - c:.3e} nats/symbol > GAP_TOL {GAP_TOL:.0e}"
        print(f"solver did not converge: {gap}", file=sys.stderr)
        code = 4
    history = list(enumerate(report.diagnostics.value_history, start=1))
    return Run(
        config=dict(fam_cfg, n=args.n, feedback=args.feedback, seed=args.seed),
        seed=args.seed,
        files=[
            ("capacity_report.json", report.to_dict()),
            ("convergence.csv", (["iteration", "value_nats_per_symbol"], history)),
        ],
        metrics={
            "solve_s": solve_s,
            "iterations": report.diagnostics.iterations,
            "restarts": report.diagnostics.restarts,
        },
        code=code,
    )


def _constant_codebook(n: int, x_card: int, z_card: int, m_count: int) -> Codebook:
    if m_count > x_card:
        raise ValidationError("constant codebook supports at most |X| messages")
    size = tree_size(n, z_card)
    trees = tuple(
        CodeTree(depth=n, x_card=x_card, z_card=z_card, symbols=np.full(size, k, dtype=np.int64))
        for k in range(m_count)
    )
    return Codebook(trees=trees)


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"simulate {name!r} must be an integer, got {value!r}")


def _simulate_config(args) -> tuple[TrialConfig, dict]:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValidationError("simulate config JSON must be an object")
    if "family" in file_cfg:
        family = CompoundFamily.from_list(file_cfg["family"])
        fam_cfg = {"family": "inline"}
    elif "family_path" in file_cfg:
        if not isinstance(file_cfg["family_path"], str):  # open() takes an int as a file descriptor
            raise ValidationError(f"simulate 'family_path' must be a string, got {file_cfg['family_path']!r}")
        family = load_family(file_cfg["family_path"])
        fam_cfg = {"family_path": file_cfg["family_path"]}
    else:
        family, fam_cfg = _resolve_family(args)
    n = args.n if args.n is not None else file_cfg.get("n")
    if n is None:
        raise ValidationError("simulate needs --n or an 'n' entry in the config")
    trials = args.trials if args.trials is not None else file_cfg.get("trials", 10_000)
    seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    fb_spec = args.feedback if args.feedback is not None else file_cfg.get("feedback", "identity")
    fb = _resolve_feedback(fb_spec, family.members[0].outputs)
    m_count = file_cfg.get("messages", 2)
    for name, value in (("n", n), ("trials", trials), ("seed", seed), ("messages", m_count)):
        _require_int(name, value)
    decoder = file_cfg.get("decoder", "ml")
    true_label = file_cfg.get("true_label", family.labels[0])
    cb_spec = file_cfg.get("codebook", "constant")
    first = family.members[0]
    if cb_spec == "constant":
        cb = _constant_codebook(n, first.n_inputs, fb.z_card, m_count)
    elif isinstance(cb_spec, dict) and "sample_seed" in cb_spec:
        _require_int("sample_seed", cb_spec["sample_seed"])
        rng = np.random.default_rng(cb_spec["sample_seed"])
        cb = sample_codebook(uniform_policy(n, first.n_inputs, fb.z_card), m_count, rng)
    else:
        raise ValidationError("codebook must be 'constant' or {'sample_seed': int}")
    cfg = TrialConfig(
        family=family,
        true_label=true_label,
        codebook=cb,
        feedback=fb,
        decoder=decoder,
        trials=trials,
        seed=seed,
        s0=file_cfg.get("s0"),
    )
    config = dict(
        fam_cfg,
        n=n,
        trials=trials,
        seed=seed,
        feedback=fb_spec,
        messages=m_count,
        decoder=decoder,
        true_label=true_label,
        codebook=cb_spec,
    )
    return cfg, config


def _trial_records(res):
    for i in range(res.trials):
        yield {
            "trial": i,
            "message": int(res.messages[i]),
            "decision": int(res.decisions[i]),
            "error": bool(res.error_flags[i]),
            "s0": int(res.initial_states[i]),
            "y": [int(v) for v in res.outputs[i]],
        }


def cmd_simulate(args) -> Run:
    if args.preset == "example1":
        for name in ("config", "feedback", "family"):
            if getattr(args, name) is not None:
                raise ValidationError(f"simulate --preset example1 takes no --{name}: the scenario fixes it")
        n = args.n if args.n is not None else 8
        trials = args.trials if args.trials is not None else 10_000
        seed = args.seed if args.seed is not None else 0
        res = run_trials(example1_config(theta=n, n=n, trials=trials, seed=seed))
        row = example1_row(res, theta=n, n=n)
        config = {"preset": "example1", "theta": n, "n": n, "trials": trials, "seed": seed}
        # each summary column once: its name, its value and the files that carry it
        columns = [
            ("theta", row.theta, "csv"),
            ("n", row.n, "csv"),
            ("trials", row.trials, "csv"),
            ("all_bad_freq", row.all_bad_freq, "csv json"),
            ("all_bad_exact", row.all_bad_exact, "csv json"),
            ("all_bad_sigma", row.all_bad_sigma, "json"),
            ("error_rate", row.error_rate, "csv json"),
            ("error_floor", row.error_floor, "csv json"),
            ("error_sigma", row.error_sigma, "json"),
            ("rate_floor_nats_per_symbol", row.rate_floor_nats, "csv json"),
            ("rate_floor_bits_per_symbol", row.rate_floor_bits, "csv json"),
        ]
        print(
            f"theta={row.theta} n={row.n} all_bad_freq={row.all_bad_freq:.6f} "
            f"(exact {row.all_bad_exact:.6f}) error_rate={row.error_rate:.6f}"
        )
    else:
        cfg, config = _simulate_config(args)
        seed = cfg.seed
        res = run_trials(cfg)
        columns = [
            ("true_label", cfg.true_label, "csv json"),
            ("decoder", cfg.decoder, "csv json"),
            ("n", cfg.codebook.depth, "csv"),
            ("messages", cfg.codebook.m_count, "csv"),
            ("trials", res.trials, "csv json"),
            ("errors", res.errors, "csv json"),
            ("error_rate", res.error_rate, "csv json"),
            ("ci95_lo", res.ci95[0], "csv"),
            ("ci95_hi", res.ci95[1], "csv"),
            ("ci95", list(res.ci95), "json"),
        ]
        print(
            f"label={cfg.true_label} decoder={cfg.decoder} trials={res.trials} "
            f"error_rate={res.error_rate:.6f} ci95=({res.ci95[0]:.6f}, {res.ci95[1]:.6f})"
        )
    csv_columns = [(name, value) for name, value, to in columns if "csv" in to]
    files = [
        ("simulate_results.csv", ([name for name, _ in csv_columns], [[value for _, value in csv_columns]])),
        ("trials.jsonl", ({"format": "trial-log-v1"}, _trial_records(res))),
    ]
    if args.format == "json":
        files.append(("simulate_results.json", {name: value for name, value, to in columns if "json" in to}))
    return Run(config=config, seed=seed, files=files)


def cmd_verify(args) -> Run:
    names = None if args.suite in (None, "all") else [args.suite]
    results = run_suites(names, seed=args.seed)
    for r in results:
        print(r.line())
    header = ["check", "passed", "instances", "violations", "worst", "detail"]
    rows = [[r.name, r.passed, r.instances, r.violations, r.worst, r.detail] for r in results]
    files = [("verify_results.csv", (header, rows))]
    if args.format == "json":
        files.append(("verify_results.json", {"checks": [r.__dict__ for r in results]}))
    return Run(
        config={"suite": args.suite or "all"},
        seed=args.seed,
        files=files,
        code=0 if all(r.passed for r in results) else 1,
    )


def cmd_estimate(args) -> Run:
    family, fam_cfg = _resolve_family(args)
    for label, m in family:
        if m.n_states != 1:
            raise ValidationError(f"member {label!r} has state memory; estimation needs memoryless members")
    true_label = args.true_label or family.labels[0]
    n_total = args.n if args.n is not None else 100_000
    sweep = [100, 316, 1000, 3162, 10000]
    sweep = [m for m in sweep if m < n_total]
    rate_rows = []
    for m_train in sweep:
        rep = two_phase_scheme(family, true_label, m_train, n_total, trials=args.trials, seed=args.seed)
        rate_rows.append([
            m_train,
            n_total,
            rep.achieved_mean,
            rep.achieved_mean / LN2,
            rep.target_rate,
            rep.benchmark_rate,
            rep.misidentification_rate,
        ])
        print(
            f"M={m_train:>6} achieved={rep.achieved_mean:.6f} nats/use "
            f"target={rep.target_rate:.6f} compound={rep.benchmark_rate:.6f} "
            f"misid={rep.misidentification_rate:.3f}"
        )
    sanov_rows = []
    fsc = family.member(true_label)
    for i, (m, eps1) in enumerate(SANOV_CASES):
        rate, bound = empirical_violation_rate(fsc, 0, m, eps1, trials=10_000, seed=args.seed + i)
        sanov_rows.append([m, eps1, rate, bound])
        print(f"sanov m={m} eps1={eps1} empirical={rate:.6f} bound={bound:.6g}")
    rate_header = [
        "m_train_symbols",
        "n_total_symbols",
        "achieved_nats_per_use",
        "achieved_bits_per_use",
        "target_nats_per_use",
        "compound_nats_per_use",
        "misidentification_rate",
    ]
    return Run(
        config=dict(fam_cfg, true_label=true_label, n=n_total, trials=args.trials, seed=args.seed),
        seed=args.seed,
        files=[
            ("estimate_rates.csv", (rate_header, rate_rows)),
            ("sanov_table.csv", (["m_samples", "eps1_l1", "empirical_rate", "bound"], sanov_rows)),
        ],
    )


def cmd_rerun(args) -> int:
    with open(args.manifest) as fh:
        m = RunManifest.from_dict(json.load(fh))
    argv = list(m.argv)
    if args.out is not None:
        out_flag = ["--out", args.out]
        if "--out" in argv:
            i = argv.index("--out")
            argv[i : i + 2] = out_flag
        else:
            argv.extend(out_flag)
    return main(argv)


def _add_common(p):
    p.add_argument("--family", help="family JSON file")
    p.add_argument("--preset", help="named built-in family or scenario")
    p.add_argument("--n", type=int, help="horizon (symbols)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")


# One parser serves every main() call in a process: parse_args fills a fresh
# Namespace each time, and no action keeps a mutable default (an `append`
# action's list, say) that one call could change for the next.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compound-fsc",
        description="Worst-case feedback information rates for finite-state channel families.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("capacity", help="solve the max-min information rate")
    _add_common(p)
    p.add_argument("--feedback", default="identity", help="identity | none | table:<file>")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", help="Monte Carlo error rates")
    _add_common(p)
    p.set_defaults(seed=None)  # flags override the config file; None means unset
    p.add_argument("--feedback", help="identity | none | table:<file>")
    p.add_argument("--trials", type=int)
    p.add_argument("--config", help="TrialConfig JSON file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run named invariant suites")
    p.add_argument("--suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="training-based identification demos")
    _add_common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--true-label", help="member that actually governs the channel")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="manifest.json emitted by a previous run")
    p.add_argument("--out", help="redirect outputs to a new directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.subcommand == "rerun":
            return cmd_rerun(args)
        run = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        t_write = time.monotonic()
        for name, body in run.files:
            _write(out / name, body)
        metrics = dict(run.metrics, write_s=time.monotonic() - t_write)
        metrics.update(wall_clock_s=time.monotonic() - t0, peak_rss_mb=_peak_rss_mb())
        # every option the parser set, in the parser's order, so rerun replays all of them
        argv = [args.subcommand]
        for name, value in vars(args).items():
            if name not in ("subcommand", "func") and value is not None:
                argv += [f"--{name.replace('_', '-')}", str(value)]
        manifest = RunManifest(
            subcommand=args.subcommand,
            argv=argv,
            config=run.config,
            seed=run.seed,
            out_dir=str(out),
            version=__version__,
            metrics=metrics,
        )
        (out / MANIFEST_NAME).write_text(json.dumps(asdict(manifest), indent=2) + "\n")
        return run.code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
