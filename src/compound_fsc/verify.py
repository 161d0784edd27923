"""Named invariant suites behind the `verify` CLI subcommand.

Each suite sweeps seeded random instances through one family of checks and
reports a pass/fail verdict with the worst observed slack. The acceptance
tests reuse these functions with larger instance counts.

The suites draw all their instances first, then hand them to the batch form
of their checks, which evaluates each shape group of instances (state count
and horizon here) in one stacked pass over the path tables and returns the
results in draw order, each bitwise the one-instance call's.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import GAP_TOL, SolverConfig, compute_Cn, compute_Cn_nofeedback, superadditivity_check
from .causal import random_policy
from .channel import CompoundFamily, FscSpec, bsc, identity_feedback
from .decoder import RankingFunction, merge_rankings, separability_check
from .directed_info import (
    continuity_bound_check_batch,
    directed_information_routes,
    state_gap_check_batch,
    zero_capacity_witness,
)
from .errors import ValidationError
from .estimation import empirical_violation_rate
from .exponents import (
    beta_exponent,
    e0_lower_bound_check_batch,
    fn_superadditivity_check_batch,
    gallager_e0_batch,
    optimal_rho,
)
from .presets import zero_capacity_family


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    instances: int
    violations: int
    worst: float
    detail: str

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name:<18} {verdict:<4} instances={self.instances} violations={self.violations} {self.detail}"


def random_fsc(rng: np.random.Generator, n_states: int, n_inputs: int, n_outputs: int) -> FscSpec:
    """Dirichlet-uniform kernel rows; the workhorse instance generator."""
    kernel = rng.dirichlet(np.ones(n_outputs * n_states), size=(n_states, n_inputs))
    kernel = kernel.reshape(n_states, n_inputs, n_outputs, n_states)
    states = tuple(f"s{i}" for i in range(n_states))
    inputs = tuple(str(i) for i in range(n_inputs))
    outputs = tuple(str(i) for i in range(n_outputs))
    return FscSpec(states=states, inputs=inputs, outputs=outputs, kernel=kernel)


def random_family(rng: np.random.Generator, n_members: int, n_states: int = 2) -> CompoundFamily:
    members = tuple(random_fsc(rng, n_states, 2, 2) for _ in range(n_members))
    return CompoundFamily(members=members, labels=tuple(f"m{i}" for i in range(n_members)))


def suite_kim_identity(instances: int = 100, seed: int = 20) -> CheckResult:
    """Three routes to the same directed information agree to 1e-10."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(instances):
        n_states = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        fsc = random_fsc(rng, n_states, 2, 2)
        fb = identity_feedback(fsc.outputs)
        q = random_policy(n, 2, fb.z_card, rng)
        s0 = int(rng.integers(n_states))
        cases.append((q, fsc, s0, fb))
    worst = 0.0
    violations = 0
    for res, kim in directed_information_routes(cases):
        step_sum = math.fsum(res.per_step)
        dev = max(abs(res.value_nats - step_sum), abs(res.value_nats - kim), abs(step_sum - kim))
        worst = max(worst, dev)
        violations += dev >= 1e-10
    return CheckResult(
        name="kim-identity",
        passed=violations == 0,
        instances=instances,
        violations=violations,
        worst=worst,
        detail=f"max deviation {worst:.3e} (tol 1e-10)",
    )


def suite_continuity_lemma(instances: int = 100, seed: int = 21) -> CheckResult:
    """Information difference against the L1 continuity bound on policy pairs."""
    rng = np.random.default_rng(seed)
    cases = []
    for idx in range(instances):
        n_states = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        fsc = random_fsc(rng, n_states, 2, 2)
        fb = identity_feedback(fsc.outputs)
        q1 = random_policy(n, 2, fb.z_card, rng)
        if idx % 10 == 0:
            q2 = q1  # delta = 0 must give a zero bound, not a NaN
        else:
            lam = float(rng.uniform(0.0, 0.04))
            other = random_policy(n, 2, fb.z_card, rng)
            blended = tuple(
                (1.0 - lam) * a + lam * b
                for a, b in zip(q1.conditionals, other.conditionals)
            )
            q2 = type(q1)(horizon=n, x_card=2, z_card=fb.z_card, conditionals=blended)
        s0 = int(rng.integers(n_states))
        cases.append((q1, q2, fsc, s0, fb))
    worst = -math.inf
    violations = 0
    applicable = 0
    for res in continuity_bound_check_batch(cases):
        if not res.applicable:
            continue
        applicable += 1
        worst = max(worst, res.lhs - res.rhs)
        violations += not res.passed
    return CheckResult(
        name="continuity-lemma",
        passed=violations == 0 and applicable > 0,
        instances=applicable,
        violations=violations,
        worst=worst,
        detail=f"max lhs-rhs {worst:.3e} over {applicable} applicable pairs",
    )


def suite_state_gap(instances: int = 100, seed: int = 22) -> CheckResult:
    """Mixing the initial state moves directed information by at most ln|S|."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(instances):
        n_states = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        fsc = random_fsc(rng, n_states, 2, 2)
        fb = identity_feedback(fsc.outputs)
        q = random_policy(n, 2, fb.z_card, rng)
        cases.append((q, fsc, fb, rng.dirichlet(np.ones(n_states))))
    worst = -math.inf
    violations = 0
    for res in state_gap_check_batch(cases):
        worst = max(worst, res.gap - res.bound)
        violations += not res.passed
    return CheckResult(
        name="state-gap",
        passed=violations == 0,
        instances=instances,
        violations=violations,
        worst=worst,
        detail=f"max gap-ln|S| {worst:.3e}",
    )


def suite_superadditivity(instances: int = 12, seed: int = 23, slack: float = 1e-3) -> CheckResult:
    """n*hatC_n >= k*hatC_k + m*hatC_m on random small families, drawn first
    and checked in one superadditivity_check call: at the built-in seed its
    30 solves (12 k-, 6 m- and 12 n-solves) run as five groups of six
    problems of one shape."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(max_iters=60, restarts=1, seed=seed)
    cases = []
    for idx in range(instances):
        family = random_family(rng, n_members=1 + idx % 2, n_states=2)
        k, m = (1, 1) if idx % 2 == 0 else (1, 2)
        cases.append((family, identity_feedback(family.members[0].outputs), k, m))
    results = superadditivity_check(cases, cfg, slack=slack)
    worst = max((res.rhs - res.lhs for res in results), default=-math.inf)
    violations = sum(not res.passed for res in results)
    return CheckResult(
        name="superadditivity",
        passed=violations == 0,
        instances=instances,
        violations=violations,
        worst=worst,
        detail=f"max rhs-lhs {worst:.3e} (slack {slack:g})",
    )


def _merge_rank_slack(rankings: list[RankingFunction]) -> float:
    """Largest merged-rank excess over (j-1)K + k across all trees; negative
    or zero everywhere means the round-robin bound holds."""
    merged = merge_rankings(rankings)
    big_k = len(rankings)
    worst = -math.inf
    for key in merged.ordered_keys:
        mu = merged.rank(key)
        for k, r in enumerate(rankings, start=1):
            j = r.rank(key)
            worst = max(worst, mu - ((j - 1) * big_k + k))
        best_j = min(r.rank(key) for r in rankings)
        worst = max(worst, mu - big_k * best_j)
    return worst


def suite_merge_bounds(instances: int = 60, seed: int = 24) -> CheckResult:
    """Round-robin merged ranks never exceed (j-1)K + k.

    Small cases run over every tuple of permutations; larger sizes use
    rankings induced by random likelihood scores.
    """
    worst = -math.inf
    checked = 0
    violations = 0
    for b, big_k in ((2, 2), (3, 2), (3, 3), (4, 2)):
        keys = tuple(range(b))
        perms = [RankingFunction(ordered_keys=p) for p in itertools.permutations(keys)]
        for combo in itertools.product(perms, repeat=big_k):
            slack = _merge_rank_slack(list(combo))
            worst = max(worst, slack)
            violations += slack > 0
            checked += 1
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        b = int(rng.integers(2, 9))
        big_k = int(rng.integers(1, 4))
        keys = tuple(range(b))
        rankings = []
        for _ in range(big_k):
            scores = rng.random(b)
            order = sorted(keys, key=lambda t: (-scores[t], t))
            rankings.append(RankingFunction(ordered_keys=tuple(order)))
        slack = _merge_rank_slack(rankings)
        worst = max(worst, slack)
        violations += slack > 0
        checked += 1
    return CheckResult(
        name="merge-bounds",
        passed=violations == 0,
        instances=checked,
        violations=violations,
        worst=worst,
        detail=f"max rank excess {worst:g}",
    )


def suite_separability(n: int = 4, seed: int = 25) -> CheckResult:
    """A representative at distance ~1e-4 covers its neighborhood; a far-off
    one is flagged. Both directions must hold."""
    near = CompoundFamily(
        members=(bsc(0.3 - 1e-4), bsc(0.3 + 1e-4)), labels=("lo", "hi")
    )
    reps = CompoundFamily(members=(bsc(0.3),), labels=("rep",))
    ok = separability_check(near, reps, n=n, eps_nats=0.01)
    far = CompoundFamily(members=(bsc(0.45),), labels=("far",))
    caught = separability_check(far, reps, n=n, eps_nats=0.001)
    passed = ok.passed and caught.violation_count > 0
    return CheckResult(
        name="separability",
        passed=passed,
        instances=2,
        violations=ok.violation_count + (0 if caught.violation_count > 0 else 1),
        worst=float(ok.violation_count),
        detail=(
            f"near-rep violations {ok.violation_count} (want 0), "
            f"far-rep violations {caught.violation_count} (want >0)"
        ),
    )


# (samples m, L1 radius eps1) pairs, shared with the `estimate` command's Sanov table
SANOV_CASES = ((100, 0.3), (200, 0.2), (500, 0.15), (100, 0.5))


def suite_sanov(trials: int = 2000, seed: int = 26) -> CheckResult:
    """Empirical type-deviation rates against the large-deviations bound."""
    fsc = bsc(0.3)
    worst = -math.inf
    violations = 0
    for i, (m, eps1) in enumerate(SANOV_CASES):
        rate, bound = empirical_violation_rate(fsc, 0, m, eps1, trials, seed=seed + i)
        cap = min(1.0, bound)
        sigma = math.sqrt(cap * (1.0 - cap) / trials)
        excess = rate - (cap + 3.0 * sigma)
        worst = max(worst, excess)
        violations += excess > 0
    return CheckResult(
        name="sanov",
        passed=violations == 0,
        instances=len(SANOV_CASES),
        violations=violations,
        worst=worst,
        detail=f"trials/case {trials}, max rate excess {worst:.3e}",
    )


def suite_exponents(instances: int = 40, seed: int = 27) -> CheckResult:
    """Gallager-exponent facts: E0(0)=0, E0 non-decreasing on a rho grid, the
    quadratic lower bound, block exponent super-additivity, and the beta
    exponent's shape. The branch-point gap of beta is reported, not asserted."""
    rng = np.random.default_rng(seed)
    rho_grid = np.linspace(0.0, 1.0, 11)
    grid_cases, lb_cases, fn_cases = [], [], []
    for idx in range(instances):
        n_states = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        fsc = random_fsc(rng, n_states, 2, 2)
        fb = identity_feedback(fsc.outputs)
        q = random_policy(n, 2, fb.z_card, rng)
        s0 = int(rng.integers(n_states))
        grid_cases.append((rho_grid, q, fsc, s0, fb))
        lb_cases.append((float(rng.uniform(0.0, 1.0)), q, fsc, s0, fb))
        head = random_policy(1, 2, fb.z_card, rng)
        tail = random_policy(1 + idx % 2, 2, fb.z_card, rng)
        fn_cases.append((float(rng.uniform(0.0, 1.0)), head, tail, fsc, fb))
    worst = -math.inf
    violations = 0
    branch_gap = 0.0
    for e0_vals, lb, fn in zip(
        gallager_e0_batch(grid_cases), e0_lower_bound_check_batch(lb_cases), fn_superadditivity_check_batch(fn_cases)
    ):
        zero_dev = abs(e0_vals[0])
        mono_dev = max(
            (e0_vals[i] - e0_vals[i + 1] for i in range(len(e0_vals) - 1)), default=0.0
        )
        slack = max(zero_dev - 1e-9, mono_dev - 1e-9, lb.bound - lb.e0 - 1e-9, fn.rhs - fn.lhs - 1e-9)
        worst = max(worst, slack)
        violations += slack > 0
    for m, y_card in ((4, 2), (8, 2), (8, 3)):
        big_l = 1.0 + m * math.log(y_card)
        eps_star = big_l * big_l / m
        gap = abs(
            beta_exponent(eps_star * (1 - 1e-9), m, y_card)
            - beta_exponent(eps_star * (1 + 1e-9), m, y_card)
        )
        branch_gap = max(branch_gap, gap)
        rho = optimal_rho(eps_star / 2, m, y_card)
        if not 0.0 <= rho <= 1.0:
            violations += 1
    return CheckResult(
        name="exponents",
        passed=violations == 0,
        instances=instances,
        violations=violations,
        worst=worst,
        detail=f"max slack {worst:.3e}; beta branch gap {branch_gap:.3e} (reported only)",
    )


def suite_zero_capacity(n_max: int = 2, seed: int = 28) -> CheckResult:
    """A family with a coin-flip member has certified zero capacity, with
    and without feedback (upper bound at most GAP_TOL), and the witness
    certifies the mechanism."""
    family = zero_capacity_family()
    fb = identity_feedback(family.members[0].outputs)
    cfg = SolverConfig(max_iters=80, restarts=1, seed=seed)
    worst = -math.inf
    violations = 0
    for n in range(1, n_max + 1):
        for rep in (compute_Cn(family, fb, n, cfg), compute_Cn_nofeedback(family, n, cfg)):
            worst = max(worst, rep.upper_nats)
            violations += rep.upper_nats > GAP_TOL
    witness = zero_capacity_witness(family.member("bsc-0.5"), fb, n=min(2, n_max))
    if not witness.confirmed:
        violations += 1
    return CheckResult(
        name="zero-capacity",
        passed=violations == 0,
        instances=2 * n_max + 1,
        violations=violations,
        worst=worst,
        detail=f"max certified upper bound {worst:.3e} (tol {GAP_TOL:.0e}); witness confirmed={witness.confirmed}",
    )


SUITES = {
    "kim-identity": suite_kim_identity,
    "continuity-lemma": suite_continuity_lemma,
    "state-gap": suite_state_gap,
    "superadditivity": suite_superadditivity,
    "merge-bounds": suite_merge_bounds,
    "separability": suite_separability,
    "sanov": suite_sanov,
    "exponents": suite_exponents,
    "zero-capacity": suite_zero_capacity,
}


SEED_STRIDE = 100  # built-in suite seeds are 20..28, so derived seeds never collide


def run_suites(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the named suites (a bare string names one; all by default), each
    at its built-in seed plus SEED_STRIDE * seed; seed 0 keeps the built-in
    seeds."""
    names = [names] if isinstance(names, str) else names
    if names in (None, ["all"]):
        names = list(SUITES)
    results = []
    for name in names:
        try:
            fn = SUITES[name]
        except KeyError:
            known = ", ".join(SUITES)
            raise ValidationError(f"unknown suite {name!r}; known suites: {known}") from None
        base = inspect.signature(fn).parameters["seed"].default
        results.append(fn(seed=base + SEED_STRIDE * seed))
    return results
