"""Reference computations the tests compare the package against."""

import itertools
import math

import numpy as np

from compound_fsc import (
    ValidationError,
    causal_log_prob_rows,
    channel_prob_table,
    directed_information,
    information_functional,
    policy_weight_table,
    product_policy,
)
from compound_fsc.util import enumerate_paths


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
    """(e0, info_rate, bound) of e0_lower_bound_check."""
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
    """(value_mixed, value_given_state) of state_gap_check at this prior."""
    prior = np.asarray(prior, dtype=float)
    mixed = directed_information(q, fsc, prior, feedback).value_nats
    given = math.fsum(
        float(pr) * directed_information(q, fsc, s, feedback).value_nats for s, pr in enumerate(prior) if pr > 0
    )
    return mixed, given
