"""Reference computations the tests compare the package against."""

import itertools
import math

import numpy as np

from compound_fsc import (
    CausalConditioning,
    CompoundFamily,
    FeedbackMap,
    ValidationError,
    directed_information,
    uniform_policy,
)
from compound_fsc.capacity import (
    _TINY,
    GAP_TOL,
    STEP_INIT,
    STEP_POWER,
    CapacityReport,
    SolverConfig,
    SolverDiagnostics,
    _fold_for,
    _PairTables,
)
from compound_fsc.causal import (
    causal_log_prob_rows,
    channel_prob_table,
    code_weights,
    history_code,
    policy_adjoint,
    policy_best_response,
    policy_weight_table,
    product_policy,
    random_policy,
    sequence_reach,
)
from compound_fsc.decoder import SeparabilityReport, SeparabilityViolation
from compound_fsc.directed_info import information_functional
from compound_fsc.util import enumerate_paths, project_rows_to_simplex


def causal_channel_prob(fsc, xs, ys, s0) -> float:
    """P(y^n || x^n, s_0): causal_log_prob_rows on one row."""
    return float(np.exp(causal_log_prob_rows(fsc, [list(xs)], [list(ys)], s0)[0]))


def naive_causal_channel_prob(fsc, xs, ys, s0: int) -> float:
    """Brute-force state-path enumeration; oracle for the forward recursion."""
    xs, ys = list(xs), list(ys)
    total = []
    for path in enumerate_paths(fsc.n_states, len(xs)):
        p = 1.0
        prev = s0
        for i in range(len(xs)):
            p *= fsc.kernel[prev, xs[i], ys[i], path[i]]
            prev = path[i]
        total.append(p)
    return math.fsum(total)


def einsum_channel_prob_table(fsc, n: int, s0_prior) -> np.ndarray:
    """The path table as the einsum recursion built it: each step contracts
    the previous state with einsum("abs,sxyt->axbyt"), and the state is
    summed out after the last step. channel_prob_table must equal it bitwise
    below 8 states, where numpy adds both short axes in index order."""
    s_card = fsc.n_states
    if s0_prior is None:
        prior = np.full(s_card, 1.0 / s_card)
    elif np.isscalar(s0_prior):
        prior = np.eye(s_card)[s0_prior]
    else:
        prior = np.asarray(s0_prior, dtype=float)
    alpha = prior.reshape(1, 1, s_card)
    for i in range(1, n + 1):
        alpha = np.einsum("abs,sxyt->axbyt", alpha, fsc.kernel, order="C")
        alpha = alpha.reshape(fsc.n_inputs ** i, fsc.n_outputs ** i, s_card)
    return alpha.sum(axis=2)


def marginal_entropy(joint, n: int, x_card: int, y_card: int, keep_x: int, keep_y: int) -> float:
    """H(X^keep_x, Y^keep_y) of a path joint [xcode, ycode], codes earliest
    symbol most significant, by a loop over its entries; 0 log 0 = 0."""
    cells = {}
    for xcode, xs in enumerate(itertools.product(range(x_card), repeat=n)):
        for ycode, ys in enumerate(itertools.product(range(y_card), repeat=n)):
            cells.setdefault((xs[:keep_x], ys[:keep_y]), []).append(float(joint[xcode, ycode]))
    masses = [math.fsum(c) for c in cells.values()]
    return -math.fsum(m * math.log(m) for m in masses if m > 0)


# Per-call forms of the exponent and state-gap evaluations: every quantity
# rebuilds its own weight table w and channel table p, so the package's
# shared-table evaluations can be checked against them bit for bit.


def gallager_e0_per_call(rho, q, fsc, s0, feedback) -> float:
    if rho < 0:
        raise ValidationError("rho must be non-negative")
    n = q.horizon
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    p = channel_prob_table(fsc, n, s0)
    inner = (w * p ** (1.0 / (1.0 + rho))).sum(axis=0)
    total = float((inner ** (1.0 + rho)).sum())
    return -math.log(total) / n


def f_n_exponent_per_call(rho, q, fsc, feedback) -> float:
    e0 = min(gallager_e0_per_call(rho, q, fsc, s0, feedback) for s0 in range(fsc.n_states))
    return -rho * math.log(fsc.n_states) / q.horizon + e0


def e0_lower_bound_per_call(rho, q, fsc, s0, feedback) -> tuple:
    """(e0, info_rate, bound) of one e0_lower_bound_check_batch case."""
    n = q.horizon
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    p = channel_prob_table(fsc, n, s0)
    info = information_functional(w, p)
    e0 = gallager_e0_per_call(rho, q, fsc, s0, feedback)
    big_l = 1.0 + n * math.log(fsc.n_outputs)
    return e0, info / n, rho * info / n - rho * rho * big_l * big_l / (2.0 * n)


def fn_superadditivity_per_call(rho, q_head, q_tail, fsc, feedback) -> tuple:
    """(lhs, rhs) of fn_superadditivity_check."""
    k, m = q_head.horizon, q_tail.horizon
    lhs = (k + m) * f_n_exponent_per_call(rho, product_policy(q_head, q_tail), fsc, feedback)
    rhs = k * f_n_exponent_per_call(rho, q_head, fsc, feedback) + m * f_n_exponent_per_call(rho, q_tail, fsc, feedback)
    return lhs, rhs


def state_gap_per_call(q, fsc, feedback, prior) -> tuple:
    """(value_mixed, value_given_state) of one state_gap_check_batch case at this prior."""
    prior = np.asarray(prior, dtype=float)
    mixed = directed_information(q, fsc, prior, feedback).value_nats
    given = math.fsum(
        float(pr) * directed_information(q, fsc, s, feedback).value_nats for s, pr in enumerate(prior) if pr > 0
    )
    return mixed, given


# The solver as it ran before its starts shared one batched ascent: each
# start runs all its iterations before the next one is drawn. The batched
# solver is checked against it to 1e-12.


def _pair_values(g: np.ndarray, tables: _PairTables):
    """Every pair's information functional at the code weights g[xcode, a]
    (causal.code_weights), by two contractions over the stacked tables:
    f_j = sum g folded_j - sum_y p_jy log p_jy with p_jy = sum_x W p_j, the
    weight table W never built. Also returns log max(p_jy, tiny), shaped
    [pair, a, rest of y], which the supergradient reuses."""
    k = len(tables.folded)
    p_y = np.einsum("xa,kxal->kal", g, tables.probs)
    log_py = np.maximum(p_y, _TINY)
    np.log(log_py, out=log_py)
    p_y *= log_py
    return tables.folded.reshape(k, -1) @ g.reshape(-1) - np.add.reduce(p_y.reshape(k, -1), axis=1), log_py


def _pair_supergradient(tables: _PairTables, j: int, log_py: np.ndarray) -> np.ndarray:
    """d f_j / dg = folded_j - sum_{rest of y} p_j (log p_jy + 1), from
    _pair_values' log p_y: d f_j / dW summed over the outputs the code does
    not span, the size of the code."""
    u = np.einsum("xal,al->xa", tables.probs[j], log_py[j] + 1.0)
    return np.subtract(tables.folded[j], u, out=u)


def _flat_step(flat: np.ndarray, grad: np.ndarray, scale: float) -> np.ndarray:
    """Every step's conditionals moved by scale * supergradient, both stacked
    row-wise, and projected back onto the simplex in one call (rows are
    independent). Overwrites grad."""
    grad *= scale
    grad += flat
    return project_rows_to_simplex(grad)


def _certificate(tables: _PairTables, code: np.ndarray, reach, f: np.ndarray, log_py: np.ndarray, pairs) -> float:
    """The least over `pairs` of the one-hot Frank-Wolfe bound on n C_n at
    the sequence form `reach`: f_j + max_v <u_j, v> - <u_j, g>, with g its
    code weights and u_j pair j's folded supergradient, one u_j alive at a
    time."""
    g = code_weights(reach, code).reshape(-1)
    shapes = [r.shape for r in reach]
    bound = math.inf
    for j in pairs:
        u = _pair_supergradient(tables, j, log_py)
        bound = min(bound, float(f[j]) + policy_best_response(shapes, code, u) - float(u.reshape(-1) @ g))
    return bound


def _evaluate(flat: np.ndarray, spans, code: np.ndarray, tables: _PairTables):
    """An iterate's per-step views and sequence form, and every pair's value
    and log p_y; the code weights die here, the supergradient needs only
    log p_y."""
    conds = [flat[a:b] for a, b in spans]
    reach = sequence_reach(conds)
    return (conds, reach) + _pair_values(code_weights(reach, code), tables)


def _worst(f: list, n: int) -> tuple[float, int]:
    """The least pair value per symbol and the active pair, the first within
    GAP_TOL of it."""
    j = min(f) / n
    return j, next(k for k, v in enumerate(f) if v / n <= j + GAP_TOL)


def solve_one_start_at_a_time(
    family: CompoundFamily, tables: _PairTables, feedback: FeedbackMap, n: int, cfg, extra_starts
) -> CapacityReport:
    """The parent solver's certify-then-ascend max-min solve over the
    stacked pair tables, its starts run one after another."""
    cfg = cfg or SolverConfig()
    extra_starts = tuple(extra_starts)
    first = family.members[0]
    x_card, z_card = first.n_inputs, feedback.z_card
    code = history_code(x_card, feedback, n)
    tables = _fold_for(tables, feedback)
    # an iterate is every step's conditionals stacked row-wise in one array,
    # step i in rows spans[i]
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
    _, reach, f, log_py = _evaluate(flat, spans, code, tables)
    lower, active = _worst(f.tolist(), n)
    upper = _certificate(tables, code, reach, f, log_py, np.flatnonzero(f <= f.min() + n * GAP_TOL)) / n
    if upper - lower <= GAP_TOL:
        diag = SolverDiagnostics(converged=True, iterations=0, restarts=1, best_start=0, value_history=(lower,))
        return report(lower, upper, flat, active, diag)
    del flat, reach, f, log_py  # the start's arrays die before the ascent

    # each start is drawn when its turn comes, so one is alive at a time; a
    # run keeps its first best visited iterate (iterates are never written in
    # place), and the first best run wins
    rng = np.random.default_rng(cfg.seed)
    starts = itertools.chain(
        [uniform_policy(n, x_card, z_card)],
        extra_starts,
        (random_policy(n, x_card, z_card, rng) for _ in range(cfg.restarts)),
    )
    c_n, best, best_start, history = -math.inf, None, 0, []
    for s, q0 in enumerate(starts):
        flat = np.concatenate(q0.conditionals)
        run_v, run_flat, run_history = -math.inf, None, []
        for t in range(1, cfg.max_iters + 1):
            conds, reach, f, log_py = _evaluate(flat, spans, code, tables)
            j, active = _worst(f.tolist(), n)
            # the supergradient is passed straight in, so the adjoint frees it
            # once it is binned; the weights, the reach and the per-step
            # gradients die before the projection
            grad = np.concatenate(policy_adjoint(conds, reach, code, _pair_supergradient(tables, active, log_py)))
            del conds, reach, f, log_py
            run_history.append(j)
            if j > run_v:
                run_v, run_flat = j, flat
            flat = _flat_step(flat, grad, STEP_INIT / (t ** STEP_POWER) / n)
            del grad  # overwritten by the step, it dies before the next evaluation
        del flat
        if run_v > c_n:
            c_n, best, best_start, history = run_v, run_flat, s, run_history
        del run_flat
    _, reach, f, log_py = _evaluate(best, spans, code, tables)
    upper = min(upper, _certificate(tables, code, reach, f, log_py, range(len(f))) / n)
    diag = SolverDiagnostics(
        converged=upper - c_n <= GAP_TOL,
        iterations=cfg.max_iters,
        restarts=1 + len(extra_starts) + cfg.restarts,
        best_start=best_start,
        value_history=tuple(history),
    )
    return report(c_n, upper, best, _worst(f.tolist(), n)[1], diag)


def separability_per_violation(family, representatives, n: int, eps_nats: float) -> SeparabilityReport:
    """separability_check by building one SeparabilityViolation per
    violating path pair of every (member, representative) pair, scored by
    (count, largest excess); the first 10 of each member's chosen
    representative are kept, and the first 10 of those in all."""
    first = family.members[0]
    mu_nats = 1.0 + math.log(first.n_outputs)
    threshold = math.exp(-n * (mu_nats + math.log(first.n_outputs)))
    rep_tables = [(label, channel_prob_table(m, n, None)) for label, m in representatives]
    best_rep, kept, total = {}, [], 0
    for label, m in family:
        p = channel_prob_table(m, n, None)
        best = None
        for rep_label, p_rep in rep_tables:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.log(p) - np.log(p_rep)
            sides = (
                ("upper", np.where(p > threshold, ratio - n * eps_nats, -np.inf)),
                ("lower", np.where(p_rep > threshold, -ratio - n * eps_nats, -np.inf)),
            )
            viols = [
                SeparabilityViolation(
                    member=label, x_code=int(xc), y_code=int(yc), side=side, log_excess=float(excess[xc, yc])
                )
                for side, excess in sides
                for xc, yc in np.argwhere(excess > 1e-12)
            ]
            score = (len(viols), max((v.log_excess for v in viols), default=0.0))
            if best is None or score < best[0]:
                best = (score, rep_label, viols)
        best_rep[label] = best[1]
        total += len(best[2])
        kept.extend(best[2][:10])
    return SeparabilityReport(
        n=n,
        eps_nats=eps_nats,
        mu_nats=mu_nats,
        threshold=threshold,
        best_rep=best_rep,
        violation_count=total,
        violations=tuple(kept[:10]),
    )


def round_robin_merge(rankings) -> tuple:
    """The ordered keys of the round-robin merge, walked key by key: rank 1
    of candidate 1, rank 1 of candidate 2, ..., skipping trees already placed."""
    merged, seen = [], set()
    for j in range(len(rankings[0])):
        for r in rankings:
            key = r.ordered_keys[j]
            if key not in seen:
                seen.add(key)
                merged.append(key)
    return tuple(merged)
