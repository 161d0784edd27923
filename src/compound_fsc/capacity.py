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

A solve's starts advance together, and so do independent solves of one
shape: the iterate carries a leading axis of rows, [problem, start]
flattened, so an iteration walks, contracts, bins and projects every row
of a group in one call each, and each row steps along its own active pair
of its own problem's tables. compute_Cn_batch groups its problems by shape
(horizon, alphabets, feedback table, pair and start counts), so a group's
problems share one history code and one set of stacked pair tables,
[problem, pair, xcode, a, l], charged together. A problem joins a group
only while the group's rows, every start of each problem, span at most
GROUP_CODE_ENTRIES history-code entries together and fit the table budget
(SOLVER_START_TABLES per row beside the pairs' tables and
SOLVER_SHARED_TABLES): batching pays only while dispatch, not arithmetic,
sets the cost. A problem that cannot join runs alone, its starts in groups
of at least one start, as many as the same two limits admit. Each problem
draws its random starts from its own generator, starts run in groups in
start order, each keeps its first best iterate, and a problem's first
best start wins, so a report is what running the problem's starts one
after another, alone, returns. compute_Cn is a batch of one.
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
# split into a shared term and a term per row (a start of a problem) the
# ascent advances at once. A row's are its iterate, its best iterate, its
# supergradient, binned adjoint and offset code, its step's gradient and
# projection temporaries and, in a group of several rows, the gathered
# channel table of its active pair; the shared ones are the table build's
# temporaries, the history code and the best earlier group's winner. The
# build runs before any start's tables exist: with the history code and the
# p log p buffer it peaks at 4.26, 4.07 and 4.02 tables beside the pairs'
# own at n = 8, 9 and 10 when ge-gap is certified at the uniform start,
# within the shared and one start's terms together. With 3 ascent
# iterations, after a warm-up solve in the same process, tracemalloc
# measured on verify.random_family(default_rng(1), 2, 2) (4 pairs, not
# certified at its start) at n = 8, 9 and 10: 4.56, 4.55, 4.54 with one
# start; 5.23, 5.21, 5.21 with four starts in groups of one; 9.60, 9.59, 9.58
# in groups of two; 16.69, 16.67, 16.67 in one group of four; 20.56, 20.55,
# 20.54 in one group of five; 32.19, 32.17, 32.17 for two problems' four
# starts in one group and 47.70, 47.68, 47.67 for three problems' (beside
# every problem's pair tables). That is 3.87 per row of a group and at most
# 1.85 beside them; ge-gap (6 pairs) made to ascend measured the same to
# 0.01. Rounded up with at least one table of headroom over every figure;
# 3 + 4 stays within the 8 charged when starts ran one at a time, so every
# job admitted then is admitted now.
SOLVER_SHARED_TABLES = 3
SOLVER_START_TABLES = 4
# A group's rows, every start of each of its problems, span at most this
# many history-code entries together (at least one start), within what the
# table budget admits: a problem joins a group of its shape only while
# both hold, and one that cannot join any runs alone, its starts grouped
# by the same rule. Advancing rows together saves numpy dispatch, which
# dominates an iteration only while a row's arrays are small. 200
# iterations of four starts on random_family(default_rng(1), 2, 2) with
# identity feedback (code 2**(2n-1) entries), in one group against groups
# of one: 0.061 s against 0.088 s at n = 6, 0.266 against 0.253 at n = 7 and
# 1.088 against 0.919 at n = 8 (best of 5, one process on a 2-vCPU Intel
# Xeon VM: about 30 % faster at n = 6, 5-18 % slower at n = 7-8, so from
# n = 7 on starts run one at a time); two 3-output members: 0.069 against
# 0.092 at n = 5 (2592 entries), 0.431 against 0.441 at n = 6 (15552).
GROUP_CODE_ENTRIES = 2 ** 13
# _pair_tables folds p log p over y_{n-1} at most this many table entries
# at a time, so its buffer and mask are a fraction of a table at large n
# while one block still covers every table up to |X|^n |Y|^n = 2**14 (n = 7
# at binary alphabets, so capacity-sweep's n = 1..6 tables fold in one go).
FOLD_ENTRIES = 2 ** 14


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
    """The channel tables of a group's problems' (initial state, member)
    pairs, stacked as [problem, pair, xcode, a, l], and their p log p (0
    where p = 0) folded over the outputs the history code does not span:
    [problem, pair, xcode, a], with a the code of y_{<n-1} (of nothing, one
    column, without feedback) and l that of the outputs it does not span, so
    (a, l) is the ycode. labels holds each problem's pair labels. width is
    how many of a problem's starts the table budget admits beside these
    tables (at least 1; every start when the group holds several problems),
    the most the ascent advances at once."""

    labels: list
    probs: np.ndarray
    folded: np.ndarray
    width: int

    def one(self, i: int) -> "_PairTables":
        """Problem i's tables, views with a problem axis of one."""
        return _PairTables([self.labels[i]], self.probs[i : i + 1], self.folded[i : i + 1], self.width)


class _Problem(NamedTuple):
    """One solve: its family, feedback map, horizon, extra starts and
    (pair label, member, s0 prior) triples."""

    family: CompoundFamily
    feedback: FeedbackMap
    n: int
    extra_starts: tuple
    pairs: list


def _fold_for(tables: _PairTables, feedback: FeedbackMap) -> _PairTables:
    """The tables for a solve under `feedback`: without feedback the code
    spans no output axis, so p log p is summed over y_{<n-1} as well."""
    if feedback.z_card > 1 or tables.folded.shape[-1] == 1:
        return tables
    folded = tables.folded.sum(axis=-1, keepdims=True)
    return tables._replace(probs=tables.probs.reshape(folded.shape + (-1,)), folded=folded)


def _pair_values(g: np.ndarray, tables: _PairTables):
    """Every pair's information functional at the code weights
    g[problem, start, xcode, a] (causal.code_weights; a problem axis of one
    serves every problem), by two contractions over the stacked tables:
    f_j = sum g folded_j - sum_y p_jy log p_jy with p_jy = sum_x W p_j, the
    weight table W never built. Returns f[problem, start, pair] and
    log max(p_jy, tiny), shaped [problem, start, pair, a, rest of y], which
    the supergradient reuses."""
    p, k = tables.folded.shape[:2]
    p_y = np.einsum("...sxa,...kxal->...skal", g, tables.probs)
    log_py = np.maximum(p_y, _TINY)
    np.log(log_py, out=log_py)
    p_y *= log_py
    # one matrix-vector product per (problem, start), which rounds as a lone start's
    f = (tables.folded.reshape(p, 1, k, -1) @ g.reshape(g.shape[:2] + (-1, 1)))[..., 0]
    return f - np.add.reduce(p_y.reshape(p_y.shape[:3] + (-1,)), axis=-1), log_py


def _pair_supergradient(tables: _PairTables, problem: np.ndarray, active: np.ndarray, log_py: np.ndarray) -> np.ndarray:
    """d f_j / dg = folded_j - sum_{rest of y} p_j (log p_jy + 1) for each
    row r at pair j = active[r] of problem problem[r], from _pair_values'
    log p_y with rows on its leading axis: d f_j / dW summed over the
    outputs the code does not span, the size of the code, shaped
    [row, xcode, a]. A lone row reads its pair's table in place; several
    rows gather each row's table once and contract them in one call (a
    group's rows span at most GROUP_CODE_ENTRIES code entries, so the
    gather holds at most |Y| times that with feedback)."""
    lp = log_py[np.arange(len(active)), active]
    lp += 1.0
    if len(active) == 1:
        p, j = int(problem[0]), int(active[0])
        u = np.einsum("xal,al->xa", tables.probs[p, j], lp[0])[None]
        return np.subtract(tables.folded[p, j], u, out=u)
    u = np.einsum("rxal,ral->rxa", tables.probs[problem, active], lp)
    return np.subtract(tables.folded[problem, active], u, out=u)


def _flat_step(flat: np.ndarray, grad: np.ndarray, scale: float) -> np.ndarray:
    """Every row's conditionals, each start's steps stacked row-wise, moved
    by scale * supergradient and projected back onto the simplex in one call
    over all their rows (rows are independent), in grad's place; returns
    grad."""
    grad *= scale
    grad += flat
    project_rows_to_simplex(grad.reshape(-1, grad.shape[-1]))
    return grad


def _certificate(tables: _PairTables, code: np.ndarray, reach, f, log_py: np.ndarray, pairs) -> float:
    """The least over `pairs` of the one-hot Frank-Wolfe bound on n C_n at
    the sequence form `reach` of one start, for the one problem of `tables`
    with pair values f and log p_y [pair, a, rest of y]: f_j + max_v <u_j, v>
    - <u_j, g>, with g its code weights and u_j pair j's folded
    supergradient, read from pair j's table in place, one u_j alive at a
    time."""
    g = code_weights(reach, code).reshape(-1)
    shapes = [r.shape[1:] for r in reach]
    probs, folded = tables.probs[0], tables.folded[0]
    bound = math.inf
    for j in pairs:
        u = np.einsum("xal,al->xa", probs[j], log_py[j] + 1.0)
        np.subtract(folded[j], u, out=u)
        bound = min(bound, float(f[j]) + policy_best_response(shapes, code, u) - float(u.reshape(-1) @ g))
    return bound


def _evaluate(flat: np.ndarray, spans, code: np.ndarray, tables: _PairTables):
    """The per-step views and sequence form of the iterates stacked on
    flat's leading axis, problem-major (one iterate serves every problem),
    and f[problem, start, pair] and log p_y; the code weights die here, the
    supergradient needs only log p_y."""
    conds = [flat[:, a:b] for a, b in spans]
    reach = sequence_reach(conds)
    g = code_weights(reach, code)
    lead = (1, 1) if len(flat) == 1 else (len(tables.probs), -1)
    return (conds, reach) + _pair_values(g.reshape(lead + g.shape[1:]), tables)


def _worst(f: np.ndarray, n: int):
    """Each row's least pair value per symbol and its active pair, the
    first within GAP_TOL of it."""
    v = f / n
    j = np.minimum.reduce(v, axis=1)
    return j, (v <= (j + GAP_TOL)[:, None]).argmax(axis=1)


def _lone_worst(f: list, n: int) -> tuple[float, int]:
    """_worst for one row of a handful of pair values, in Python."""
    j = min(f) / n
    return j, next(k for k, v in enumerate(f) if v / n <= j + GAP_TOL)


def _ascend(flat: np.ndarray, spans, code: np.ndarray, tables: _PairTables, n: int, max_iters: int):
    """Projected supergradient ascent from every start stacked on flat's
    leading axis, problem-major with equally many starts per problem of
    `tables`, all advanced together, each along its own active pair.
    Returns each row's best visited value, its first iterate with that
    value and its value history, [iteration, row]."""
    rows = len(flat)
    problem = np.arange(len(tables.probs)).repeat(rows // len(tables.probs))
    # the adjoint bins every row's supergradient in one bincount, each row's
    # code offset by the size of one last table; the offsets are fixed, so
    # they are built once, and a lone row bins by the code itself
    size = (spans[-1][1] - spans[-1][0]) * flat.shape[-1]
    idx = code if rows == 1 else (np.arange(0, rows * size, size)[:, None] + code.reshape(-1)).reshape(-1)
    best_v = np.full(rows, -math.inf)
    best = np.empty_like(flat)
    history = []
    for t in range(1, max_iters + 1):
        conds, reach, f, log_py = _evaluate(flat, spans, code, tables)
        del reach[-1]  # the adjoint reads only the shorter reaches
        j, active = _worst(f.reshape(rows, -1), n)
        log_py = log_py.reshape((rows,) + log_py.shape[2:])
        # the supergradient is passed straight in, so the adjoint frees it
        # once it is binned; the weights, the reach and the per-step
        # gradients die before the projection
        grad = policy_adjoint(conds, reach, idx, _pair_supergradient(tables, problem, active, log_py))
        grad = np.concatenate(grad, axis=1)
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


def _starts(extra_starts: tuple, n: int, x_card: int, z_card: int, cfg: SolverConfig):
    """A problem's starts in order: the uniform one, the extra ones and the
    random restarts, drawn lazily from the problem's own generator."""
    rng = np.random.default_rng(cfg.seed)
    return itertools.chain(
        [uniform_policy(n, x_card, z_card)],
        extra_starts,
        (random_policy(n, x_card, z_card, rng) for _ in range(cfg.restarts)),
    )


def _stacked(starts: list, width: int, rows: int, x_card: int) -> np.ndarray:
    """Each problem's next `width` starts' conditionals, each start's steps
    stacked row-wise, problem-major on one leading axis; one start is drawn
    at a time."""
    flat = np.empty((len(starts) * width, rows, x_card))
    for r, row in enumerate(flat):
        np.concatenate(next(starts[r // width]).conditionals, out=row)
    return flat


def _start_count(cfg: SolverConfig, extra_starts: tuple) -> int:
    """The uniform start, the extra ones and the random restarts."""
    return 1 + len(extra_starts) + cfg.restarts


def _run(problems: list, tables: _PairTables, code: np.ndarray, cfg: SolverConfig) -> list[CapacityReport]:
    """The certify-then-ascend max-min solves of a group of problems of one
    shape over their stacked pair tables, and their reports in order. Each
    problem is certified at the uniform start; the rest ascend together."""
    lead = problems[0]
    n, x_card, z_card = lead.n, lead.family.members[0].n_inputs, lead.feedback.z_card
    tables = _fold_for(tables, lead.feedback)
    # an iterate is every step's conditionals stacked row-wise in one array,
    # step i in rows spans[i], behind a leading axis of rows
    ends = list(itertools.accumulate((x_card * z_card) ** i for i in range(n)))
    spans = list(zip([0] + ends[:-1], ends))

    def report(i, c_n, upper, flat, active, diag):
        return CapacityReport(
            n=n,
            state_count=problems[i].family.members[0].n_states,
            C_n_nats=c_n,
            upper_nats=upper,
            worst_case=tables.labels[i][active],
            policy=CausalConditioning(
                horizon=n, x_card=x_card, z_card=z_card, conditionals=tuple(flat[a:b] for a, b in spans)
            ),
            diagnostics=diag,
        )

    # one evaluation of the uniform start serves every problem; only pairs
    # within n GAP_TOL of a problem's minimum can close its gap, since each
    # pair's bound is at least its own value
    reports, open_ = [None] * len(problems), []
    flat = np.full((ends[-1], x_card), 1.0 / x_card)  # uniform_policy's rows, stacked
    _, reach, f, log_py = _evaluate(flat[None], spans, code, tables)
    for i in range(len(problems)):
        fs = f[i, 0].tolist()
        lower, active = _lone_worst(fs, n)
        cut = min(fs) + n * GAP_TOL
        near = [j for j, v in enumerate(fs) if v <= cut]
        upper = _certificate(tables.one(i), code, reach, fs, log_py[i, 0], near) / n
        if upper - lower <= GAP_TOL:
            diag = SolverDiagnostics(converged=True, iterations=0, restarts=1, best_start=0, value_history=(lower,))
            reports[i] = report(i, lower, upper, flat, active, diag)
        else:
            open_.append((i, upper))
    del flat, reach, f, log_py  # the start's arrays die before the ascent
    if not open_:
        return reports

    # the starts run in groups in start order, each group's drawn as it
    # begins, all open problems' at once; the first best start wins
    idx = [i for i, _ in open_]
    ascent = tables
    if len(idx) < len(problems):
        ascent = tables._replace(probs=tables.probs[idx], folded=tables.folded[idx])
    starts = [_starts(problems[i].extra_starts, n, x_card, z_card, cfg) for i in idx]
    count = _start_count(cfg, lead.extra_starts)
    width = max(1, min(tables.width, GROUP_CODE_ENTRIES // code.size))
    best = [(-math.inf, None, 0, None)] * len(idx)
    for s0 in range(0, count, width):
        w = min(width, count - s0)
        values, iterates, histories = _ascend(
            _stacked(starts, w, ends[-1], x_card), spans, code, ascent, n, cfg.max_iters
        )
        for a in range(len(idx)):
            r = a * w + int(values[a * w : (a + 1) * w].argmax())
            if values[r] > best[a][0]:
                best[a] = (float(values[r]), iterates[r].copy(), s0 + r - a * w, histories[:, r])
        del iterates
    del ascent
    for (i, upper), (c_n, flat, best_start, history) in zip(open_, best):
        one = tables.one(i)
        _, reach, f, log_py = _evaluate(flat[None], spans, code, one)
        fs = f[0, 0].tolist()
        upper = min(upper, _certificate(one, code, reach, fs, log_py[0, 0], range(len(fs))) / n)
        diag = SolverDiagnostics(
            converged=upper - c_n <= GAP_TOL,
            iterations=cfg.max_iters,
            restarts=count,
            best_start=best_start,
            value_history=tuple(history.tolist()),
        )
        reports[i] = report(i, c_n, upper, flat, _lone_worst(fs, n)[1], diag)
    return reports


def _group_size(first: FscSpec, n: int, pairs: int, starts: int, code_size: int) -> int:
    """How many problems of one shape ascend together, every start of each
    at once: as many as span GROUP_CODE_ENTRIES history-code entries and fit
    the table budget together; 0 when one problem's starts alone do not."""
    y_card = first.n_outputs
    entries = first.n_inputs ** n * y_card ** (n - 1)
    per_problem = (y_card + 1) * pairs + y_card * SOLVER_START_TABLES * starts
    fits = spare_tables(entries, y_card * SOLVER_SHARED_TABLES) // per_problem
    return min(GROUP_CODE_ENTRIES // (starts * code_size), fits)


def _solve(problems: list, cfg: SolverConfig) -> list[CapacityReport]:
    """Every problem's certify-then-ascend max-min solve and report, in
    order. Problems of one shape (horizon, alphabets, feedback table, pair
    and start counts) share one history code and run in groups, in order:
    as many as _group_size admits, or one at a time, each one's starts then
    grouped by the table budget and the code span alone."""
    shapes = {}
    for i, pr in enumerate(problems):
        m = pr.family.members[0]
        fb = pr.feedback
        key = (pr.n, m.n_inputs, m.n_outputs, fb.z_card, tuple(fb.table.tolist()), len(pr.pairs), len(pr.extra_starts))
        shapes.setdefault(key, []).append(i)
    reports = [None] * len(problems)
    for idx in shapes.values():
        lead = problems[idx[0]]
        first = lead.family.members[0]
        code = history_code(first.n_inputs, lead.feedback, lead.n)
        starts = _start_count(cfg, lead.extra_starts)
        size = max(1, _group_size(first, lead.n, len(lead.pairs), starts, code.size))
        for g in range(0, len(idx), size):
            group = [problems[i] for i in idx[g : g + size]]
            tables = _pair_tables(first, lead.n, [pr.pairs for pr in group], starts)
            for i, rep in zip(idx[g : g + size], _run(group, tables, code, cfg)):
                reports[i] = rep
            del tables  # a group's tables die before the next group's are built
    return reports


def _pair_tables(first: FscSpec, n: int, problems: list, starts: int) -> _PairTables:
    """The stacked channel tables of each problem's (pair label, member, s0
    prior) triples, once the solver's whole working set fits the table
    budget: the tables, the shared temporaries and those of as many of a
    lone problem's `starts` as fit (at least one), or of every start of
    several problems."""
    y_card = first.n_outputs
    x_paths, y_paths = first.n_inputs ** n, y_card ** n
    p, k = len(problems), len(problems[0])
    # charged in 1/|Y| tables: |Y| + 1 per pair, |Y| per temporary table.
    # None of it grows with n: ge-gap (6 pairs, binary) is charged 16
    # tables, about 0.54 GB, at n = 11 with one start and 28, about 0.94 GB,
    # with the default four; at n >= 12 its pairs' and the shared tables
    # alone exceed the budget, so it is refused before any table is built
    entries = x_paths * y_paths // y_card
    fixed = (y_card + 1) * k * p + y_card * SOLVER_SHARED_TABLES
    per_start = y_card * SOLVER_START_TABLES
    width = starts if p > 1 else max(1, min(starts, spare_tables(entries, fixed) // per_start))
    check_table_bytes(entries, fixed + per_start * width * p, "capacity solver")
    probs = np.empty((p, k, x_paths, y_paths))
    folded = np.empty((p, k, x_paths, y_paths // y_card))
    rows = max(1, FOLD_ENTRIES // y_paths)  # of a table, per fold block
    plogp = np.empty((min(rows, x_paths), y_paths))  # one block's, reused
    for i, pairs in enumerate(problems):
        for j, (_, m, s0) in enumerate(pairs):
            # built straight into its slot of the stack, so the build adds
            # only its own temporaries (2.5 tables at |S| = 2)
            table = channel_prob_table(m, n, s0, out=probs[i, j])
            for r in range(0, x_paths, rows):
                block = table[r : r + rows]
                buf = plogp[: len(block)]
                buf.fill(0.0)
                np.log(block, out=buf, where=block > 0)
                buf *= block
                buf.reshape(-1, y_card).sum(axis=1, out=folded[i, j, r : r + rows].reshape(-1))
    labels = [[label for label, _, _ in pairs] for pairs in problems]
    return _PairTables(labels, probs.reshape(folded.shape + (y_card,)), folded, width)


def _state_pairs(family: CompoundFamily) -> list:
    """The (state label, member label) pairs in lexicographic evaluation
    order, each with its member and initial state."""
    states = family.members[0].states
    return [((str(s_label), label), m, s_idx) for s_idx, s_label in enumerate(states) for label, m in family]


def _problem(family: CompoundFamily, feedback: FeedbackMap, n: int, extra_starts=(), pairs=None) -> _Problem:
    """One solve, checked before any table is built: a horizon of at least 1,
    a feedback map over the output alphabet and extra starts of the solve's
    horizon and alphabets. The pairs default to every (initial state, member)."""
    if n < 1:
        raise ValidationError(f"horizon n must be >= 1, got {n}")
    first = family.members[0]
    if feedback.table.size != first.n_outputs:
        raise ValidationError("feedback map does not cover the output alphabet")
    x_card, z_card = first.n_inputs, feedback.z_card
    extra_starts = tuple(extra_starts)
    for q in extra_starts:
        if not isinstance(q, CausalConditioning) or (q.horizon, q.x_card, q.z_card) != (n, x_card, z_card):
            raise ValidationError(f"an extra start must be a policy of horizon {n}, |X| = {x_card}, |Z| = {z_card}")
    return _Problem(family, feedback, n, extra_starts, _state_pairs(family) if pairs is None else pairs)


def compute_Cn_batch(jobs, cfg: SolverConfig | None = None) -> list[CapacityReport]:
    """compute_Cn for each (family, feedback, n, extra_starts) job under one
    config, the reports in job order. Every job is checked before any table
    is built. Jobs of one shape ascend together (see the module docstring),
    and each report is the one a lone compute_Cn returns."""
    problems = [_problem(family, feedback, n, extra_starts) for family, feedback, n, extra_starts in jobs]
    return _solve(problems, cfg or SolverConfig())


def compute_Cn(
    family: CompoundFamily,
    feedback: FeedbackMap,
    n: int,
    cfg: SolverConfig | None = None,
    extra_starts=(),
) -> CapacityReport:
    """Max over input laws of the min per-symbol directed information, together
    with the same value shifted down by ln|S|/n."""
    return compute_Cn_batch([(family, feedback, n, extra_starts)], cfg)[0]


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
    for label, m in family:
        state_transition_matrix(m)
    if uniform_ergodicity_horizon(family, ERGODICITY_EPS, ERGODICITY_MAX_N) is None:
        raise ValidationError(
            f"family is not uniformly ergodic within {ERGODICITY_MAX_N} steps at eps={ERGODICITY_EPS}"
        )
    pairs = [(("stationary", label), m, stationary_distribution(m)) for label, m in family]
    return _solve([_problem(family, feedback, n, pairs=pairs)], cfg or SolverConfig())[0]


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
    cases,
    cfg: SolverConfig | None = None,
    slack: float = 1e-3,
) -> list[SuperadditivityResult]:
    """n*hatC_n against k*hatC_k + m*hatC_m for n = k + m, one result per
    (family, feedback, k, m) case.

    The n-horizon solve is warm-started from the product of the shorter
    optimal laws, which is exactly the construction behind the inequality.
    A solve is deterministic in cfg.seed, so k == m solves that horizon once.
    All cases' k-, m- and n-solves run as three compute_Cn_batch calls.
    """
    cfg = cfg or SolverConfig()
    cases = list(cases)
    rks = compute_Cn_batch([(family, feedback, k, ()) for family, feedback, k, _ in cases], cfg)
    longer = iter(compute_Cn_batch([(family, feedback, m, ()) for family, feedback, k, m in cases if m != k], cfg))
    rms = [rk if m == k else next(longer) for rk, (_, _, k, m) in zip(rks, cases)]
    warm = [product_policy(rk.policy, rm.policy) for rk, rm in zip(rks, rms)]
    rns = compute_Cn_batch([(family, feedback, k + m, (q,)) for (family, feedback, k, m), q in zip(cases, warm)], cfg)
    results = []
    for (_, _, k, m), rk, rm, rn in zip(cases, rks, rms, rns):
        lhs = (k + m) * rn.hatC_n_nats
        rhs = k * rk.hatC_n_nats + m * rm.hatC_n_nats
        results.append(
            SuperadditivityResult(
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
        )
    return results


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
    first = family.members[0]
    fb, nofb = identity_feedback(first.outputs), no_feedback(first.outputs)
    problem_fb = _problem(family, fb, n)
    problem_nfb = _problem(family, nofb, n, pairs=problem_fb.pairs)
    for label, m in family:
        if not _is_gilbert_elliot_shaped(m):
            raise ValidationError(f"member {label!r} is not Gilbert-Elliot shaped")
    cfg = cfg or SolverConfig()
    tables = _pair_tables(first, n, [problem_fb.pairs], _start_count(cfg, ()))
    nofb_tables = _fold_for(tables, nofb)
    nofb_code = history_code(first.n_inputs, nofb, n)
    reach_u = sequence_reach(uniform_policy(n, first.n_inputs, 1).conditionals)
    g_u = code_weights(reach_u, nofb_code)
    uniform_value = float(_pair_values(g_u[None, None], nofb_tables)[0].min()) / n
    rep_fb = _run([problem_fb], tables, history_code(first.n_inputs, fb, n), cfg)[0]
    rep_nfb = _run([problem_nfb], nofb_tables, nofb_code, cfg)[0]
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
