"""Worst-case information maximization over causally conditioned input laws.

The objective is the min over (initial state, family member) of directed
information per symbol, a concave function of the input law in path space.
A solve certifies before it ascends. Each pair's value f_j is concave in the
policy's sequence-form weights g, whose polytope has the deterministic
code-trees as vertices, so n C_n <= f_j(g) + max_v <u_j, v> - <u_j, g> for
any feasible g and u_j the supergradient of f_j at g (a Frank-Wolfe duality
gap; the max is causal.policy_best_response). At the uniform start that
bound, taken over the pairs near the minimum, often closes the gap to
GAP_TOL and the solve returns at once. Otherwise projected supergradient
ascent on the per-history conditionals runs, with the supergradient taken at
an active minimizer and multiple starts, and the bound is taken over every
pair at the returned policy. The reported C_n is the objective at the best
visited iterate, so it is always achievable; the upper bound comes with it.

An iteration never builds the full weight table: it contracts the pairs'
stacked channel tables with the policy's code weights (causal.code_weights,
1/|Y| of the table), against p log p kept folded over the outputs the history
code does not span, and hands the folded supergradient to
causal.policy_adjoint.

A solve's starts advance together: the iterate carries a leading start
axis, so an iteration walks, contracts, bins and projects every start of a
group in one call each, and each start steps along its own active pair. A
group holds at least one start, and at most as many as the table budget
admits (SOLVER_START_TABLES per start beside the pairs' tables and
SOLVER_SHARED_TABLES) and as span GROUP_CODE_ENTRIES history-code entries
together: batching pays only while dispatch, not arithmetic, sets the cost.
Groups run in start order, each keeps its starts' first best iterates, and
the first best start wins, so a solve returns what running its starts one
after another returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .causal import (
    CausalConditioning,
    channel_prob_table,
    check_table_bytes,
    code_weights,
    history_code,
    policy_adjoint,
    policy_best_response,
    product_policy,
    uniform_policy,
    random_policy,
    sequence_reach,
    spare_tables,
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
from .errors import ValidationError
from .util import project_rows_to_simplex

_TINY = 1e-300
STEP_INIT = 0.5  # iteration t moves by STEP_INIT / t**STEP_POWER
STEP_POWER = 0.5
# nats/symbol: converged once upper - lower is at most this, and pairs this
# close to the minimum count as active
GAP_TOL = 1e-12
ERGODICITY_EPS = 0.05  # compute_Cn_markovian: state-law distance to stationarity
ERGODICITY_MAX_N = 500  # compute_Cn_markovian: steps within which it must hold
BA_GAP_TOL = 1e-10  # blahut_arimoto stops once its capacity bounds are this close
BA_MAX_ITERS = 200_000  # blahut_arimoto gives up after this many iterations
# Path-sized tables alive at the solver's peak besides the pairs' own (each
# pair's channel table and its p log p folded over y_{n-1}, 1 + 1/|Y| tables),
# split into a shared term and a term per start the ascent advances at once.
# A start's are its iterate, its best iterate, its supergradient, binned
# adjoint and offset code, and its step's gradient and projection
# temporaries; the shared ones are the table build's temporaries (4.0 when
# ge-gap is certified at the uniform start), the history code and the best
# earlier group's winner. With 3 ascent iterations, after a warm-up solve in
# the same process, tracemalloc measured on verify.random_family(
# default_rng(1), 2, 2) (4 pairs, not certified at its start) at n = 8, 9 and
# 10: 4.56, 4.55, 4.54 with one start; 5.23, 5.21, 5.21 with four starts in
# groups of one; 8.60, 8.59, 8.58 in groups of two; 14.68, 14.67, 14.67 in one
# group of four; 18.06, 18.05, 18.04 in one group of five. That is 3.38 per
# start and at most 1.85 beside them; ge-gap (6 pairs) made to ascend
# measured the same to 0.01. Rounded up with at least one table of headroom
# over every figure; 3 + 4 stays within the 8 charged when starts ran one at
# a time, so every job admitted then is admitted now.
SOLVER_SHARED_TABLES = 3
SOLVER_START_TABLES = 4
# A group's starts span at most this many history-code entries together (at
# least one start), within what the table budget admits. Advancing starts
# together saves numpy dispatch, which dominates an iteration only while a
# start's arrays are small. 200 iterations of four starts on random_family(
# default_rng(1), 2, 2) with identity feedback (code 2**(2n-1) entries), in
# one group against groups of one: 0.061 s against 0.088 s at n = 6, 0.266
# against 0.253 at n = 7 and 1.088 against 0.919 at n = 8 (best of 5, one
# process on a 2-vCPU Intel Xeon VM); two 3-output members: 0.069 against
# 0.092 at n = 5 (2592 entries), 0.431 against 0.441 at n = 6 (15552).
GROUP_CODE_ENTRIES = 2 ** 13


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
    value_history: tuple

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["value_history"] = list(self.value_history)
        return d


@dataclass(frozen=True)
class CapacityReport:
    """C_n_nats is the worst-pair value of `policy`, an achievable lower
    bound on C_n; upper_nats is a certified upper bound on it. Rounding can
    put a computed bound a few 1e-17 below the lower one, so upper_nats is
    clamped to at least C_n_nats."""

    n: int
    state_count: int
    C_n_nats: float
    upper_nats: float
    worst_case: tuple
    policy: CausalConditioning
    diagnostics: SolverDiagnostics

    def __post_init__(self):
        object.__setattr__(self, "upper_nats", max(self.upper_nats, self.C_n_nats))

    @property
    def hatC_n_nats(self) -> float:
        """C_n shifted down by ln|S|/n."""
        return self.C_n_nats - math.log(self.state_count) / self.n

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "state_count": self.state_count,
            "C_n_nats_per_symbol": self.C_n_nats,
            "C_n_upper_nats_per_symbol": self.upper_nats,
            "hatC_n_nats_per_symbol": self.hatC_n_nats,
            "worst_case": list(self.worst_case),
            "policy": self.policy.to_dict(),
            "solver": self.diagnostics.to_dict(),
        }


class _PairTables(NamedTuple):
    """The channel tables of a solve's (initial state, member) pairs, stacked
    as [pair, xcode, a, l], and their p log p (0 where p = 0) folded over the
    outputs the history code does not span: [pair, xcode, a], with a the code
    of y_{<n-1} (of nothing, one column, without feedback) and l that of the
    outputs it does not span, so (a, l) is the ycode. width is how many
    starts the table budget admits beside these tables (at least 1), the
    most the ascent advances at once."""

    labels: list
    probs: np.ndarray
    folded: np.ndarray
    width: int


def _fold_for(tables: _PairTables, feedback: FeedbackMap) -> _PairTables:
    """The tables for a solve under `feedback`: without feedback the code
    spans no output axis, so p log p is summed over y_{<n-1} as well."""
    if feedback.z_card > 1 or tables.folded.shape[2] == 1:
        return tables
    folded = tables.folded.sum(axis=2, keepdims=True)
    return tables._replace(probs=tables.probs.reshape(folded.shape + (-1,)), folded=folded)


def _pair_values(g: np.ndarray, tables: _PairTables):
    """Every pair's information functional at each start's code weights
    g[start, xcode, a] (causal.code_weights), by two contractions over the
    stacked tables: f_j = sum g folded_j - sum_y p_jy log p_jy with p_jy =
    sum_x W p_j, the weight table W never built. Returns f[start, pair] and
    log max(p_jy, tiny), shaped [start, pair, a, rest of y], which the
    supergradient reuses."""
    k, s = len(tables.folded), len(g)
    p_y = np.einsum("sxa,kxal->skal", g, tables.probs)
    log_py = np.maximum(p_y, _TINY)
    np.log(log_py, out=log_py)
    p_y *= log_py
    # one matrix-vector product per start, which rounds as a lone start's
    f = (tables.folded.reshape(k, -1) @ g.reshape(s, -1, 1))[..., 0]
    return f - np.add.reduce(p_y.reshape(s, k, -1), axis=2), log_py


def _pair_supergradient(tables: _PairTables, active, log_py: np.ndarray) -> np.ndarray:
    """d f_j / dg = folded_j - sum_{rest of y} p_j (log p_jy + 1) for start
    s at its pair j = active[s], from _pair_values' log p_y: d f_j / dW
    summed over the outputs the code does not span, the size of the code,
    shaped [start, xcode, a]. A pair's table is read in place, never copied
    per start: one contraction when every start is at one pair, else one
    per start."""
    active = np.asarray(active)
    lp = log_py[np.arange(len(active)), active]
    lp += 1.0
    u = np.empty((len(active),) + tables.folded.shape[1:])
    pairs = active.tolist()
    if pairs.count(pairs[0]) == len(pairs):
        np.einsum("xal,sal->sxa", tables.probs[pairs[0]], lp, out=u)
        return np.subtract(tables.folded[pairs[0]], u, out=u)
    for s, j in enumerate(pairs):
        np.einsum("xal,al->xa", tables.probs[j], lp[s], out=u[s])
        np.subtract(tables.folded[j], u[s], out=u[s])
    return u


def _flat_step(flat: np.ndarray, grad: np.ndarray, scale: float) -> np.ndarray:
    """Every start's conditionals, each start's steps stacked row-wise, moved
    by scale * supergradient and projected back onto the simplex in one call
    over all their rows (rows are independent), in grad's place; returns
    grad."""
    grad *= scale
    grad += flat
    project_rows_to_simplex(grad.reshape(-1, grad.shape[-1]))
    return grad


def _certificate(tables: _PairTables, code: np.ndarray, reach, f: np.ndarray, log_py: np.ndarray, pairs) -> float:
    """The least over `pairs` of the one-hot Frank-Wolfe bound on n C_n at
    the sequence form `reach` of one start: f_j + max_v <u_j, v> - <u_j, g>,
    with g its code weights and u_j pair j's folded supergradient, one u_j
    alive at a time."""
    g = code_weights(reach, code).reshape(-1)
    shapes = [r.shape[1:] for r in reach]
    bound = math.inf
    for j in pairs:
        u = _pair_supergradient(tables, [j], log_py)
        bound = min(bound, float(f[0, j]) + policy_best_response(shapes, code, u) - float(u.reshape(-1) @ g))
    return bound


def _evaluate(flat: np.ndarray, spans, code: np.ndarray, tables: _PairTables):
    """The per-step views and sequence form of the iterates stacked on
    flat's leading start axis, and every start's pair values and log p_y;
    the code weights die here, the supergradient needs only log p_y."""
    conds = [flat[:, a:b] for a, b in spans]
    reach = sequence_reach(conds)
    return (conds, reach) + _pair_values(code_weights(reach, code), tables)


def _worst(f: np.ndarray, n: int):
    """Each start's least pair value per symbol and its active pair, the
    first within GAP_TOL of it."""
    v = f / n
    j = np.minimum.reduce(v, axis=1)
    return j, (v <= (j + GAP_TOL)[:, None]).argmax(axis=1)


def _ascend(flat: np.ndarray, spans, code: np.ndarray, tables: _PairTables, n: int, max_iters: int):
    """Projected supergradient ascent from every start stacked on flat's
    leading axis, all advanced together, each along its own active pair.
    Returns each start's best visited value, its first iterate with that
    value and its value history, [iteration, start]."""
    best_v = np.full(len(flat), -math.inf)
    best = np.empty_like(flat)
    history = []
    for t in range(1, max_iters + 1):
        conds, reach, f, log_py = _evaluate(flat, spans, code, tables)
        del reach[-1]  # the adjoint reads only the shorter reaches
        j, active = _worst(f, n)
        # the supergradient is passed straight in, so the adjoint frees it
        # once it is binned; the weights, the reach and the per-step
        # gradients die before the projection
        grad = np.concatenate(policy_adjoint(conds, reach, code, _pair_supergradient(tables, active, log_py)), axis=1)
        del conds, reach, f, log_py
        history.append(j)
        # a start keeps its first best iterate: only a strictly better value replaces it
        for s in np.flatnonzero(j > best_v).tolist():
            best[s] = flat[s]
        np.fmax(best_v, j, out=best_v)
        # the step writes the new iterate into grad's buffer; the old one dies
        flat = _flat_step(flat, grad, STEP_INIT / (t ** STEP_POWER) / n)
        del grad
    return best_v, best, np.array(history)


def _stacked(starts, width: int, rows: int, x_card: int) -> np.ndarray:
    """The next `width` starts' conditionals, each start's steps stacked
    row-wise, behind a leading start axis; one start is drawn at a time."""
    flat = np.empty((width, rows, x_card))
    for row in flat:
        np.concatenate(next(starts).conditionals, out=row)
    return flat


def _start_count(cfg: SolverConfig, extra_starts: tuple) -> int:
    """The uniform start, the extra ones and the random restarts."""
    return 1 + len(extra_starts) + cfg.restarts


def _solve(
    family: CompoundFamily, tables: _PairTables, feedback: FeedbackMap, n: int, cfg: SolverConfig, extra_starts: tuple
) -> CapacityReport:
    """Shared certify-then-ascend max-min solve and its report over the
    stacked pair tables."""
    first = family.members[0]
    x_card, z_card = first.n_inputs, feedback.z_card
    code = history_code(x_card, feedback, n)
    tables = _fold_for(tables, feedback)
    # an iterate is every step's conditionals stacked row-wise in one array,
    # step i in rows spans[i], behind a leading start axis
    ends = list(itertools.accumulate((x_card * z_card) ** i for i in range(n)))
    spans = list(zip([0] + ends[:-1], ends))

    def report(c_n, upper, flat, active, diag):
        return CapacityReport(
            n=n,
            state_count=first.n_states,
            C_n_nats=c_n,
            upper_nats=upper,
            worst_case=tables.labels[active],
            policy=CausalConditioning(
                horizon=n, x_card=x_card, z_card=z_card, conditionals=tuple(flat[a:b] for a, b in spans)
            ),
            diagnostics=diag,
        )

    # only pairs within n GAP_TOL of the minimum can close the gap, since
    # each pair's bound is at least its own value
    flat = np.concatenate(uniform_policy(n, x_card, z_card).conditionals)
    _, reach, f, log_py = _evaluate(flat[None], spans, code, tables)
    lower, active = _worst(f, n)
    lower = float(lower[0])
    upper = _certificate(tables, code, reach, f, log_py, np.flatnonzero(f[0] <= f.min() + n * GAP_TOL)) / n
    if upper - lower <= GAP_TOL:
        diag = SolverDiagnostics(converged=True, iterations=0, restarts=1, best_start=0, value_history=(lower,))
        return report(lower, upper, flat, int(active[0]), diag)
    del flat, reach, f, log_py  # the start's arrays die before the ascent

    # the starts run in groups in start order, each group's drawn as it
    # begins; the first best start wins
    rng = np.random.default_rng(cfg.seed)
    starts = itertools.chain(
        [uniform_policy(n, x_card, z_card)],
        extra_starts,
        (random_policy(n, x_card, z_card, rng) for _ in range(cfg.restarts)),
    )
    count = _start_count(cfg, extra_starts)
    width = max(1, min(tables.width, GROUP_CODE_ENTRIES // code.size))
    c_n, best, best_start, history = -math.inf, None, 0, None
    for s0 in range(0, count, width):
        values, iterates, histories = _ascend(
            _stacked(starts, min(width, count - s0), ends[-1], x_card), spans, code, tables, n, cfg.max_iters
        )
        s = int(values.argmax())
        if values[s] > c_n:
            c_n, best, best_start, history = float(values[s]), iterates[s].copy(), s0 + s, histories[:, s]
        del iterates
    _, reach, f, log_py = _evaluate(best[None], spans, code, tables)
    upper = min(upper, _certificate(tables, code, reach, f, log_py, range(f.shape[1])) / n)
    diag = SolverDiagnostics(
        converged=upper - c_n <= GAP_TOL,
        iterations=cfg.max_iters,
        restarts=count,
        best_start=best_start,
        value_history=tuple(history.tolist()),
    )
    return report(c_n, upper, best, int(_worst(f, n)[1][0]), diag)


def _pair_tables(family: CompoundFamily, n: int, pairs, starts: int) -> _PairTables:
    """The stacked channel tables of (pair label, member, s0 prior) triples,
    once the solver's whole working set fits the table budget: the pairs'
    tables, the shared temporaries and those of as many of the solve's
    `starts` as fit (at least one)."""
    pairs = list(pairs)
    first = family.members[0]
    y_card = first.n_outputs
    x_paths, y_paths = first.n_inputs ** n, y_card ** n
    # charged in 1/|Y| tables: |Y| + 1 per pair, |Y| per temporary table
    entries = x_paths * y_paths // y_card
    fixed = (y_card + 1) * len(pairs) + y_card * SOLVER_SHARED_TABLES
    per_start = y_card * SOLVER_START_TABLES
    width = max(1, min(starts, spare_tables(entries, fixed) // per_start))
    check_table_bytes(entries, fixed + per_start * width, "capacity solver")
    probs = np.empty((len(pairs), x_paths, y_paths))
    folded = np.empty((len(pairs), x_paths, y_paths // y_card))
    plogp = np.empty((x_paths, y_paths))  # one pair's, reused
    for k, (_, m, s0) in enumerate(pairs):
        probs[k] = channel_prob_table(m, n, s0)
        plogp.fill(0.0)
        np.log(probs[k], out=plogp, where=probs[k] > 0)
        plogp *= probs[k]
        plogp.reshape(-1, y_card).sum(axis=1, out=folded[k].reshape(-1))
    return _PairTables([label for label, _, _ in pairs], probs.reshape(folded.shape + (y_card,)), folded, width)


def _state_pairs(family: CompoundFamily, n: int, starts: int):
    """The stacked tables of the (state label, member label) pairs in
    lexicographic evaluation order, for a solve of `starts` starts."""
    states = family.members[0].states
    pairs = (
        ((str(s_label), label), m, s_idx)
        for s_idx, s_label in enumerate(states)
        for label, m in family
    )
    return _pair_tables(family, n, pairs, starts)


def _check_horizon(n: int) -> None:
    """Refuses a horizon below 1 before any table is built."""
    if n < 1:
        raise ValidationError(f"horizon n must be >= 1, got {n}")


def compute_Cn(
    family: CompoundFamily,
    feedback: FeedbackMap,
    n: int,
    cfg: SolverConfig | None = None,
    extra_starts=(),
) -> CapacityReport:
    """Max over input laws of the min per-symbol directed information, together
    with the same value shifted down by ln|S|/n."""
    _check_horizon(n)
    if feedback.table.size != family.members[0].n_outputs:
        raise ValidationError("feedback map does not cover the output alphabet")
    cfg = cfg or SolverConfig()
    extra_starts = tuple(extra_starts)
    tables = _state_pairs(family, n, _start_count(cfg, extra_starts))
    return _solve(family, tables, feedback, n, cfg, extra_starts)


def compute_Cn_nofeedback(family: CompoundFamily, n: int, cfg: SolverConfig | None = None) -> CapacityReport:
    """Same program restricted to open-loop inputs (singleton feedback alphabet)."""
    return compute_Cn(family, no_feedback(family.members[0].outputs), n, cfg)


def compute_Cn_markovian(
    family: CompoundFamily,
    feedback: FeedbackMap,
    n: int,
    cfg: SolverConfig | None = None,
) -> CapacityReport:
    """Worst case over members only, each started from its stationary state law.

    Requires an input-independent state marginal and uniform ergodicity: every
    member's state law within ERGODICITY_EPS of stationarity after at most
    ERGODICITY_MAX_N steps.
    """
    _check_horizon(n)
    for label, m in family:
        state_transition_matrix(m)
    if uniform_ergodicity_horizon(family, ERGODICITY_EPS, ERGODICITY_MAX_N) is None:
        raise ValidationError(
            f"family is not uniformly ergodic within {ERGODICITY_MAX_N} steps at eps={ERGODICITY_EPS}"
        )
    cfg = cfg or SolverConfig()
    pairs = ((("stationary", label), m, stationary_distribution(m)) for label, m in family)
    tables = _pair_tables(family, n, pairs, _start_count(cfg, ()))
    return _solve(family, tables, feedback, n, cfg, ())


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
    A solve is deterministic in cfg.seed, so k == m solves that horizon once.
    """
    cfg = cfg or SolverConfig()
    rk = compute_Cn(family, feedback, k, cfg)
    rm = rk if m == k else compute_Cn(family, feedback, m, cfg)
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


def blahut_arimoto(cond: np.ndarray):
    """Single-letter capacity of a memoryless conditional P(y|x), in nats.

    Alternating maximization, stopped once the standard upper and lower
    capacity bounds are within BA_GAP_TOL (RuntimeError after BA_MAX_ITERS
    iterations); returns (their midpoint, the optimal input distribution).
    """
    p = np.asarray(cond, dtype=float)
    if p.ndim != 2 or not np.isfinite(p).all():
        raise ValidationError("conditional table must be a finite matrix")
    if (p < 0).any() or np.abs(p.sum(axis=1) - 1).max() > 1e-9:
        raise ValidationError("conditional table must be row-stochastic")
    nx = p.shape[0]
    q = np.full(nx, 1.0 / nx)
    for _ in range(BA_MAX_ITERS):
        p_y = q @ p
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(p > 0, np.log(np.maximum(p, _TINY)) - np.log(np.maximum(p_y, _TINY))[None, :], 0.0)
        d = (p * log_ratio).sum(axis=1)
        upper = float(d.max())
        lower = float(np.log(np.dot(q, np.exp(d - d.max()))) + d.max())
        if upper - lower <= BA_GAP_TOL:
            return 0.5 * (upper + lower), q
        q = q * np.exp(d - d.max())
        q /= q.sum()
    raise RuntimeError("alternating maximization did not converge")


def memoryless_compound_fb_capacity(family: CompoundFamily) -> float:
    """Worst-member single-letter capacity (blahut_arimoto, to BA_GAP_TOL);
    feedback cannot improve it for a known-order memoryless family, so this
    is the compound feedback value."""
    values = []
    for label, m in family:
        if m.n_states != 1:
            raise ValidationError("members must be memoryless (single state)")
        values.append(blahut_arimoto(m.kernel[0, :, :, 0])[0])
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
    """gap compares the two lower bounds; [gap_lower, gap_upper] is the
    certified bracket on C_fb - C_nfb from both reports' bounds, up to
    rounding: a bound that should be 0 can land a few 1e-17 on the wrong
    side of it, so compare with GAP_TOL."""

    n: int
    C_fb: float
    C_nfb: float
    gap: float
    gap_lower: float
    gap_upper: float
    uniform_value: float
    report_fb: CapacityReport
    report_nfb: CapacityReport


def ge_feedback_gap(family: CompoundFamily, n: int, cfg: SolverConfig | None = None) -> FeedbackGapResult:
    """Feedback vs no-feedback worst-case values for a Gilbert-Elliot family.

    For these channels a uniform open-loop input attains every per-member
    maximum (additive noise), so the min-max side needs no inner solve. The
    channel tables do not depend on the feedback map, so both solves and the
    uniform value share one stacked set and its folded p log p (summed once
    more for the open-loop side).
    """
    _check_horizon(n)
    for label, m in family:
        if not _is_gilbert_elliot_shaped(m):
            raise ValidationError(f"member {label!r} is not Gilbert-Elliot shaped")
    cfg = cfg or SolverConfig()
    first = family.members[0]
    nofb = no_feedback(first.outputs)
    tables = _state_pairs(family, n, _start_count(cfg, ()))
    nofb_tables = _fold_for(tables, nofb)
    reach_u = sequence_reach(uniform_policy(n, first.n_inputs, 1).conditionals)
    g_u = code_weights(reach_u, history_code(first.n_inputs, nofb, n))
    uniform_value = float(_pair_values(g_u[None], nofb_tables)[0].min()) / n
    rep_fb = _solve(family, tables, identity_feedback(first.outputs), n, cfg, ())
    rep_nfb = _solve(family, nofb_tables, nofb, n, cfg, ())
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
        gap_lower=rep_fb.C_n_nats - rep_nfb.upper_nats,
        gap_upper=rep_fb.upper_nats - rep_nfb.C_n_nats,
        uniform_value=uniform_value,
        report_fb=rep_fb,
        report_nfb=rep_nfb,
    )
