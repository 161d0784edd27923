"""The benchmark's workloads: inputs from the seed, the timed operations,
and the correctness gates that run after timing.

Each workload runs in a fresh process (see worker.py). `setup` builds the
inputs, `run` performs the timed operations and returns one outcome per
operation, `save` writes what the gate needs, and `gate`, called by the
parent process, returns one message per operation that failed its check.
The benchmark calls only public `compound_fsc` functions, always through a
module attribute, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIZES = ("full", "toy")
# Values computed at seed 0 on the commit that introduced this benchmark;
# a later commit may raise them, never lower them.
REFERENCE_C_N = {  # capacity-sweep, by horizon n
    1: 0.005008366846356839,
    2: 0.011584283450981565,
    3: 0.017256326193651143,
    4: 0.021762394386597016,
    5: 0.025225972293003072,
    6: 0.027872673887640736,
}
VALUE_TOL = 1e-9
WILSON_Z = 6.0  # a correct simulator falls outside this interval about once in 1e9 runs


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import compound_fsc from this checkout's src/, never from elsewhere.

    Raises LibraryMissing when the checkout has no src/compound_fsc.
    """
    if not (SRC / "compound_fsc" / "__init__.py").is_file():
        raise LibraryMissing(f"no compound_fsc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import compound_fsc

    if Path(compound_fsc.__file__).resolve().parent != (SRC / "compound_fsc").resolve():
        raise LibraryMissing(f"compound_fsc imported from {compound_fsc.__file__}, not {SRC}")
    import compound_fsc.cli  # noqa: F401  (not imported by the package itself)
    import compound_fsc.util  # noqa: F401

    return compound_fsc


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CapacitySweep:
    """The capacity CLI for n = 1..6. Its gate re-evaluates each solved
    policy with `directed_information` on every (initial state, member) pair
    of ge-gap with identity feedback."""

    name = "capacity-sweep"
    preset = "ge-gap"

    def _problem(self, cf):
        family = cf.load_preset(self.preset)
        return family, cf.identity_feedback(family.members[0].outputs)

    def _worst_pair_value(self, cf, family, fb, q, n) -> float:
        return min(
            cf.directed_information(q, member, s0, fb).value_nats / n
            for s0 in range(family.members[0].n_states)
            for _, member in family
        )

    def check_report(self, cf, seed, size, n, c_n, policy, memo) -> list[str]:
        """Problems with one solve: C_n must be the re-evaluated worst-pair
        value, no worse than the uniform input, and, at seed 0, no worse than
        the recorded value."""
        family, fb = self._problem(cf)
        problems = []
        value = self._worst_pair_value(cf, family, fb, policy, n)
        if not abs(value - c_n) <= VALUE_TOL:
            problems.append(f"n={n}: reported C_n {c_n!r} but its policy evaluates to {value!r}")
        if ("uniform", n) not in memo:
            first = family.members[0]
            q_u = cf.uniform_policy(n, first.n_inputs, fb.z_card)
            memo[("uniform", n)] = self._worst_pair_value(cf, family, fb, q_u, n)
        uniform = memo[("uniform", n)]
        if not c_n >= uniform - VALUE_TOL:
            problems.append(f"n={n}: C_n {c_n!r} below the uniform-input value {uniform!r}")
        ref = REFERENCE_C_N.get(n) if seed == 0 and size == "full" else None
        if ref is not None and not c_n >= ref - VALUE_TOL:
            problems.append(f"n={n}: C_n {c_n!r} below the recorded seed-0 value {ref!r}")
        return problems

    def gate(self, cf, seed, size, payload, memo) -> list[str]:
        failures = []
        for rep in payload["reports"]:
            key = ("report", rep["n"], _file_digest(rep["file"]))
            if key not in memo:
                body = json.loads(Path(rep["file"]).read_text())
                policy = cf.CausalConditioning.from_dict(body["policy"])
                memo[key] = self.check_report(
                    cf, seed, size, rep["n"], body["C_n_nats_per_symbol"], policy, memo
                )
            if memo[key]:
                failures.append("; ".join(memo[key]))
        return failures

    def horizons(self, size):
        return range(1, 7) if size == "full" else range(1, 3)

    def ops_per_rep(self, size):
        return len(self.horizons(size))

    def setup(self, cf, seed, size, workdir):
        return {"seed": seed, "ks": self.horizons(size), "out": Path(workdir) / "sweep"}

    def run(self, cf, inputs, span):
        errors, done = [], []
        for k in inputs["ks"]:
            out = inputs["out"] / f"n{k}"
            argv = ["capacity", "--preset", self.preset, "--n", str(k), "--feedback", "identity",
                    "--seed", str(inputs["seed"]), "--out", str(out)]
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cf.cli.main(argv)
            except Exception as exc:
                errors.append(f"n={k}: {exc!r}")
                continue
            if rc in (0, 4):  # 4: report written, solver flagged not converged
                errors.append(None)
                done.append((k, out / "capacity_report.json"))
            else:
                errors.append(f"n={k}: exit code {rc}: {sink.getvalue().strip()}")
        return errors, done

    def save(self, cf, raw, workdir):
        return {"reports": [{"n": k, "file": str(path)} for k, path in raw]}


class SimulateML:
    name = "simulate-ml"
    member = "ge-a"

    def shape(self, size):
        return (12, 64, 100_000) if size == "full" else (4, 4, 2000)  # n, M, trials

    def ops_per_rep(self, size):
        return 1

    def _codebook(self, cf, seed, size):
        family = cf.load_preset("ge-gap")
        fb = cf.identity_feedback(family.members[0].outputs)
        n, m_count, _ = self.shape(size)
        q = cf.uniform_policy(n, family.members[0].n_inputs, fb.z_card)
        return family, fb, cf.sample_codebook(q, m_count, np.random.default_rng(seed))

    def setup(self, cf, seed, size, workdir):
        family, fb, cb = self._codebook(cf, seed, size)
        cfg = cf.TrialConfig(
            family=family, true_label=self.member, codebook=cb, feedback=fb,
            decoder="ml", trials=self.shape(size)[2], seed=seed, s0=0,
        )
        return {"cfg": cfg}

    def run(self, cf, inputs, span):
        try:
            res = cf.run_trials(inputs["cfg"])
        except Exception as exc:
            return [repr(exc)], None
        return [None], res

    def save(self, cf, raw, workdir):
        if raw is None:
            return {}
        path = Path(workdir) / "trials.npz"
        np.savez(path, messages=raw.messages, decisions=raw.decisions)
        return {"errors": raw.errors, "trials": raw.trials, "file": str(path)}

    def exact_error(self, cf, seed, size, memo) -> float:
        if "exact" not in memo:
            family, fb, cb = self._codebook(cf, seed, size)
            fsc = family.member(self.member)
            memo["exact"] = cf.exact_error_probability(cb, fsc, 0, fb, cf.MLDecoder(fsc, fb))
        return memo["exact"]

    def check_trials(self, cf, seed, size, errors, trials, messages, decisions, memo) -> list[str]:
        """The error count must match the decisions and bracket the exact
        error probability of the same codebook, member and s0."""
        problems = []
        recount = int((decisions != messages).sum())
        if trials != self.shape(size)[2]:
            problems.append(f"{trials} trials run, {self.shape(size)[2]} asked for")
        if recount != errors:
            problems.append(f"error count {errors} but decisions give {recount}")
        lo, hi = cf.util.wilson_interval(recount, trials, z=WILSON_Z)
        exact = self.exact_error(cf, seed, size, memo)
        if not lo <= exact <= hi:
            problems.append(f"exact error {exact!r} outside [{lo!r}, {hi!r}] for {recount}/{trials}")
        return problems

    def gate(self, cf, seed, size, payload, memo) -> list[str]:
        if not payload:
            return []
        data = np.load(payload["file"])
        problems = self.check_trials(
            cf, seed, size, payload["errors"], payload["trials"], data["messages"], data["decisions"], memo
        )
        return ["; ".join(problems)] if problems else []


class VerifyAll:
    name = "verify-all"
    SEED_STRIDE = 100  # suites' built-in seeds are 20..28; keeps derived seeds distinct

    def ops_per_rep(self, size):
        return 9

    def setup(self, cf, seed, size, workdir):
        calls = []
        for name, fn in cf.verify.SUITES.items():
            params = inspect.signature(fn).parameters
            kwargs = {"seed": params["seed"].default + self.SEED_STRIDE * seed}
            if size == "toy" and "instances" in params:
                kwargs["instances"] = 2
            calls.append((name, fn, kwargs))
        return {"calls": calls}

    def run(self, cf, inputs, span):
        errors, checks = [], []
        for name, fn, kwargs in inputs["calls"]:
            try:
                res = span(f"verify.{name}", fn, **kwargs)
            except Exception as exc:
                errors.append(f"{name}: {exc!r}")
                continue
            errors.append(None)
            checks.append({"name": name, "passed": bool(res.passed), "detail": res.detail})
        return errors, checks

    def save(self, cf, raw, workdir):
        return {"checks": raw}

    def gate(self, cf, seed, size, payload, memo) -> list[str]:
        return [f"{c['name']} failed: {c['detail']}" for c in payload["checks"] if not c["passed"]]


WORKLOADS = {w.name: w for w in (CapacitySweep(), SimulateML(), VerifyAll())}
