"""Worst-case information maximization over causally conditioned input laws.

The objective is the min over (initial state, family member) of directed
information per symbol, a concave function of the input law in path space.
It is maximized by projected supergradient ascent on the per-history
conditionals, with the supergradient taken at an active minimizer, iterate
averaging over the tail, and multiple starts. The certified value is the
objective evaluated at the better of the averaged and best visited iterate,
so reported values are always achievable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import (
    CausalConditioning,
    channel_prob_table,
    check_table_bytes,
    history_code,
    policy_adjoint,
    policy_weight_table,
    product_policy,
    uniform_policy,
    random_policy,
    sequence_reach,
    weight_table,
)
from .channel import (
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    identity_feedback,
    no_feedback,
    state_transition_matrix,
    stationary_distribution,
    uniform_ergodicity_horizon,
)
from .directed_info import information_functional
from .errors import ValidationError
from .util import project_rows_to_simplex

_TINY = 1e-300
STEP_INIT = 0.5  # iteration t moves by STEP_INIT / t**STEP_POWER
STEP_POWER = 0.5
AVG_FRACTION = 0.5  # share of the last iterations that the averaged iterate covers
VALUE_TOL = 1e-6  # converged: the running best gained at most this over the last quarter
ACTIVE_TOL = 1e-12  # pairs this close to the minimum count as active
# Path-sized tables alive at the solver's peak besides one per pair: the
# weights, the policy, its sequence-form reach, the history code and the
# value's and the supergradient's temporaries. On ge-gap (6 pairs) with 3
# iterations and no restarts, tracemalloc measured 9.6, 7.8 and 7.6 of them
# at n = 8, 9 and 10 (at n = 8, 1.4 of the 9.6 are one-time import
# allocations of a fresh process); one table of headroom on top, rounded up.
SOLVER_TEMP_TABLES = 11


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    restarts: int = 3
    seed: int = 7

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 0:
            raise ValidationError("max_iters must be >= 1 and restarts >= 0")


@dataclass(frozen=True)
class SolverDiagnostics:
    converged: bool
    iterations: int
    restarts: int
    best_start: int
    source: str
    final_step: float
    stationarity_norm: float
    value_history: tuple

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["value_history"] = list(self.value_history)
        return d


@dataclass(frozen=True)
class CapacityReport:
    n: int
    state_count: int
    C_n_nats: float
    hatC_n_nats: float
    worst_case: tuple
    policy: CausalConditioning
    diagnostics: SolverDiagnostics

    def __post_init__(self):
        want = self.C_n_nats - math.log(self.state_count) / self.n
        if abs(self.hatC_n_nats - want) > 1e-12:
            raise ValidationError("hatC_n must equal C_n - ln|S|/n")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "state_count": self.state_count,
            "C_n_nats_per_symbol": self.C_n_nats,
            "hatC_n_nats_per_symbol": self.hatC_n_nats,
            "worst_case": list(self.worst_case),
            "policy": self.policy.to_dict(),
            "solver": self.diagnostics.to_dict(),
        }


def _pair_didw(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    p_y = (w * p).sum(axis=0)
    return p * (np.log(p, out=np.zeros_like(p), where=p > 0) - np.log(np.maximum(p_y, _TINY)) - 1.0)


def _solve(family: CompoundFamily, pairs, feedback: FeedbackMap, n: int, cfg, extra_starts) -> CapacityReport:
    """Shared max-min ascent and its report. pairs: list of (label_tuple, P table)."""
    cfg = cfg or SolverConfig()
    first = family.members[0]
    x_card, z_card = first.n_inputs, feedback.z_card
    code = history_code(x_card, feedback, n)
    probs = [p for _, p in pairs]

    def value(conds):
        reach = sequence_reach(conds)
        w = weight_table(reach, code, first.n_outputs)
        vals = [information_functional(w, p) / n for p in probs]
        return min(vals), vals, w, reach

    def active_gradient(conds):
        j, vals, w, reach = value(conds)
        active = min(
            (i for i, v in enumerate(vals) if v <= j + ACTIVE_TOL),
            default=int(np.argmin(vals)),
        )
        return j, active, policy_adjoint(conds, reach, code, _pair_didw(w, probs[active]))

    def ascent_step(conds, step):
        # the weights and reach die before the projection and the
        # supergradient on return, so the next evaluation starts without them
        j, _, grads = active_gradient(conds)
        return j, [project_rows_to_simplex(c + (step / n) * g) for c, g in zip(conds, grads)]

    rng = np.random.default_rng(cfg.seed)
    starts = [uniform_policy(n, x_card, z_card)]
    starts.extend(extra_starts)
    starts.extend(random_policy(n, x_card, z_card, rng) for _ in range(cfg.restarts))

    global_best = (-math.inf, None, None, -1, "best")  # value, conds, history, start idx, src
    for start_idx, q0 in enumerate(starts):
        conds = list(q0.conditionals)  # iterates are never written in place
        avg = [np.zeros_like(c) for c in conds]
        avg_count = 0
        avg_from = max(1, int(math.ceil(cfg.max_iters * (1.0 - AVG_FRACTION))))
        best_v, best_conds = -math.inf, None
        history = []
        for t in range(1, cfg.max_iters + 1):
            j, stepped = ascent_step(conds, STEP_INIT / (t ** STEP_POWER))
            history.append(j)
            if j > best_v:
                best_v, best_conds = j, conds
            conds = stepped
            if t >= avg_from:
                for i in range(n):
                    avg[i] += conds[i]
                avg_count += 1
        avg_conds = [a / avg_count for a in avg]
        j_avg = value(avg_conds)[0]
        for cand_v, cand_c, src in ((j_avg, avg_conds, "averaged"), (best_v, best_conds, "best")):
            if cand_v > global_best[0]:
                global_best = (cand_v, cand_c, history, start_idx, src)

    c_n, conds, history, start_idx, source = global_best
    _, active, grads = active_gradient(conds)
    probe = 1e-3
    moved = [project_rows_to_simplex(conds[i] + probe * grads[i] / n) - conds[i] for i in range(n)]
    stationarity = max(float(np.abs(m).max()) for m in moved) / probe
    # converged when the running best stopped improving over the last quarter
    running = np.maximum.accumulate(history)
    window = max(10, cfg.max_iters // 4)
    converged = (running[-1] - running[max(0, len(running) - window)]) <= VALUE_TOL
    diag = SolverDiagnostics(
        converged=bool(converged),
        iterations=cfg.max_iters,
        restarts=len(starts),
        best_start=start_idx,
        source=source,
        final_step=STEP_INIT / (cfg.max_iters ** STEP_POWER),
        stationarity_norm=stationarity,
        value_history=tuple(history),
    )
    return CapacityReport(
        n=n,
        state_count=first.n_states,
        C_n_nats=c_n,
        hatC_n_nats=c_n - math.log(first.n_states) / n,
        worst_case=pairs[active][0],
        policy=CausalConditioning(horizon=n, x_card=x_card, z_card=z_card, conditionals=tuple(conds)),
        diagnostics=diag,
    )


def _pair_tables(family: CompoundFamily, n: int, starts):
    """[(pair label, channel table)] for (pair label, member, s0 prior) triples,
    once the solver's whole working set fits the table budget."""
    starts = list(starts)
    entries = family.members[0].n_inputs ** n * family.members[0].n_outputs ** n
    check_table_bytes(entries, len(starts) + SOLVER_TEMP_TABLES, "capacity solver")
    return [(label, channel_prob_table(m, n, s0)) for label, m, s0 in starts]


def _state_pairs(family: CompoundFamily, n: int):
    """(state label, member label) pairs in lexicographic evaluation order."""
    states = family.members[0].states
    starts = (
        ((str(s_label), label), m, s_idx)
        for s_idx, s_label in enumerate(states)
        for label, m in family
    )
    return _pair_tables(family, n, starts)


def compute_Cn(
    family: CompoundFamily,
    feedback: FeedbackMap,
    n: int,
    cfg: SolverConfig | None = None,
    extra_starts=(),
) -> CapacityReport:
    """Max over input laws of the min per-symbol directed information, together
    with the same value shifted down by ln|S|/n."""
    if feedback.table.size != family.members[0].n_outputs:
        raise ValidationError("feedback map does not cover the output alphabet")
    return _solve(family, _state_pairs(family, n), feedback, n, cfg, extra_starts)


def compute_Cn_nofeedback(
    family: CompoundFamily,
    n: int,
    cfg: SolverConfig | None = None,
    extra_starts=(),
) -> CapacityReport:
    """Same program restricted to open-loop inputs (singleton feedback alphabet)."""
    return compute_Cn(family, no_feedback(family.members[0].outputs), n, cfg, extra_starts)


def compute_Cn_markovian(
    family: CompoundFamily,
    feedback: FeedbackMap,
    n: int,
    cfg: SolverConfig | None = None,
    ergodicity_eps: float = 0.05,
    ergodicity_max_n: int = 500,
    extra_starts=(),
) -> CapacityReport:
    """Worst case over members only, each started from its stationary state law.

    Requires an input-independent state marginal and uniform ergodicity at
    the configured tolerance.
    """
    for label, m in family:
        state_transition_matrix(m)
    if uniform_ergodicity_horizon(family, ergodicity_eps, ergodicity_max_n) is None:
        raise ValidationError(
            f"family is not uniformly ergodic within {ergodicity_max_n} steps at eps={ergodicity_eps}"
        )
    pairs = _pair_tables(
        family, n, ((("stationary", label), m, stationary_distribution(m)) for label, m in family)
    )
    return _solve(family, pairs, feedback, n, cfg, extra_starts)


@dataclass(frozen=True)
class SuperadditivityResult:
    k: int
    m: int
    lhs: float
    rhs: float
    slack: float
    passed: bool
    report_k: CapacityReport
    report_m: CapacityReport
    report_n: CapacityReport


def superadditivity_check(
    family: CompoundFamily,
    feedback: FeedbackMap,
    k: int,
    m: int,
    cfg: SolverConfig | None = None,
    slack: float = 1e-3,
) -> SuperadditivityResult:
    """n*hatC_n against k*hatC_k + m*hatC_m for n = k + m.

    The n-horizon solve is warm-started from the product of the shorter
    optimal laws, which is exactly the construction behind the inequality.
    """
    cfg = cfg or SolverConfig()
    rk = compute_Cn(family, feedback, k, cfg)
    rm = compute_Cn(family, feedback, m, cfg)
    warm = product_policy(rk.policy, rm.policy)
    rn = compute_Cn(family, feedback, k + m, cfg, extra_starts=(warm,))
    lhs = (k + m) * rn.hatC_n_nats
    rhs = k * rk.hatC_n_nats + m * rm.hatC_n_nats
    return SuperadditivityResult(
        k=k,
        m=m,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=bool(lhs >= rhs - slack),
        report_k=rk,
        report_m=rm,
        report_n=rn,
    )


def blahut_arimoto(cond: np.ndarray, tol: float = 1e-8, max_iters: int = 200_000):
    """Single-letter capacity of a memoryless conditional P(y|x), in nats.

    Alternating maximization with the standard upper/lower capacity bounds as
    the stopping rule; returns (capacity, optimal input distribution).
    """
    p = np.asarray(cond, dtype=float)
    if p.ndim != 2 or np.any(p < 0) or np.max(np.abs(p.sum(axis=1) - 1)) > 1e-9:
        raise ValidationError("conditional table must be row-stochastic")
    nx = p.shape[0]
    q = np.full(nx, 1.0 / nx)
    gap_tol = min(tol, 1e-10)
    for _ in range(max_iters):
        p_y = q @ p
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(p > 0, np.log(np.maximum(p, _TINY)) - np.log(np.maximum(p_y, _TINY))[None, :], 0.0)
        d = (p * log_ratio).sum(axis=1)
        upper = float(d.max())
        lower = float(np.log(np.dot(q, np.exp(d - d.max()))) + d.max())
        if upper - lower <= gap_tol:
            return 0.5 * (upper + lower), q
        q = q * np.exp(d - d.max())
        q /= q.sum()
    raise RuntimeError("alternating maximization did not converge")


def memoryless_compound_fb_capacity(family: CompoundFamily, tol: float = 1e-8) -> float:
    """Worst-member single-letter capacity; feedback cannot improve it for a
    known-order memoryless family, so this is the compound feedback value."""
    values = []
    for label, m in family:
        if m.n_states != 1:
            raise ValidationError("members must be memoryless (single state)")
        values.append(blahut_arimoto(m.kernel[0, :, :, 0], tol=tol)[0])
    return min(values)


def _is_gilbert_elliot_shaped(m: FscSpec) -> bool:
    if not (m.n_states == 2 and m.n_inputs == 2 and m.n_outputs == 2):
        return False
    try:
        trans = state_transition_matrix(m)
    except ValidationError:
        return False
    emit = m.kernel.sum(axis=3)  # [s, x, y]
    rebuilt = emit[:, :, :, None] * trans[:, None, None, :]
    if np.max(np.abs(rebuilt - m.kernel)) > 1e-9:
        return False
    # symmetric crossover per state
    return bool(np.max(np.abs(emit[:, 0, 0] - emit[:, 1, 1])) <= 1e-9)


@dataclass(frozen=True)
class FeedbackGapResult:
    n: int
    C_fb: float
    C_nfb: float
    gap: float
    uniform_value: float
    report_fb: CapacityReport
    report_nfb: CapacityReport


def ge_feedback_gap(family: CompoundFamily, n: int, cfg: SolverConfig | None = None) -> FeedbackGapResult:
    """Feedback vs no-feedback worst-case values for a Gilbert-Elliot family.

    For these channels a uniform open-loop input attains every per-member
    maximum (additive noise), so the min-max side needs no inner solve. The
    channel tables do not depend on the feedback map, so both solves and the
    uniform value share one set.
    """
    for label, m in family:
        if not _is_gilbert_elliot_shaped(m):
            raise ValidationError(f"member {label!r} is not Gilbert-Elliot shaped")
    first = family.members[0]
    q_u = uniform_policy(n, first.n_inputs, 1)
    nofb = no_feedback(first.outputs)
    pairs = _state_pairs(family, n)
    w = policy_weight_table(q_u, first.n_outputs, nofb)
    uniform_value = min(information_functional(w, p) / n for _, p in pairs)
    rep_fb = _solve(family, pairs, identity_feedback(first.outputs), n, cfg, ())
    rep_nfb = _solve(family, pairs, nofb, n, cfg, ())
    if rep_nfb.C_n_nats < uniform_value - 1e-9:
        raise RuntimeError("no-feedback solve fell below the feasible uniform value")
    if rep_fb.C_n_nats < uniform_value - 1e-9:
        raise RuntimeError("feedback solve fell below the feasible uniform value")
    if rep_fb.C_n_nats > uniform_value + 1e-9:
        raise RuntimeError("feedback solve exceeded the min-max bound (the uniform value)")
    return FeedbackGapResult(
        n=n,
        C_fb=rep_fb.C_n_nats,
        C_nfb=rep_nfb.C_n_nats,
        gap=rep_fb.C_n_nats - rep_nfb.C_n_nats,
        uniform_value=uniform_value,
        report_fb=rep_fb,
        report_nfb=rep_nfb,
    )
