"""Random-coding error exponents and the type-concentration exponent.

Everything is per channel use and in nats. The path-space Gallager integrand
uses the causally conditioned input law, so feedback policies are admitted
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import CausalConditioning, channel_prob_table, policy_weight_table, product_policy
from .channel import FeedbackMap, FscSpec
from .directed_info import information_functional
from .errors import ValidationError


def _e0(w, p, n: int, rho) -> float:
    """The E0 arithmetic at one rho on the path tables w and p."""
    if rho < 0:
        raise ValidationError("rho must be non-negative")
    inner = (w * p ** (1.0 / (1.0 + rho))).sum(axis=0)
    total = float((inner ** (1.0 + rho)).sum())
    return -math.log(total) / n


def gallager_e0(rho, q: CausalConditioning, fsc: FscSpec, s0: int, feedback: FeedbackMap):
    """-(1/n) ln sum_y [ sum_x q(x||z(y)) P(y||x,s0)^{1/(1+rho)} ]^{1+rho}; for
    a 1-D array of rho, the list of E0 over it from one pair of path tables."""
    n = q.horizon
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    p = channel_prob_table(fsc, n, s0)
    if np.ndim(rho):
        return [_e0(w, p, n, r) for r in rho]
    return _e0(w, p, n, rho)


def f_n_exponent(rho: float, q: CausalConditioning, fsc: FscSpec, feedback: FeedbackMap) -> float:
    """Worst-initial-state exponent: -rho ln|S|/n + min_s0 E0(rho, q, s0)."""
    n = q.horizon
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    e0 = min(_e0(w, channel_prob_table(fsc, n, s0), n, rho) for s0 in range(fsc.n_states))
    return -rho * math.log(fsc.n_states) / n + e0


def random_coding_bound(
    rho: float,
    q: CausalConditioning,
    fsc: FscSpec,
    feedback: FeedbackMap,
    rate_nats: float,
) -> float:
    """|S| exp(-n (F_n - rho R)): ensemble error bound at the given rate."""
    n = q.horizon
    f = f_n_exponent(rho, q, fsc, feedback)
    return fsc.n_states * math.exp(-n * (f - rho * rate_nats))


def _log_e_y_m(eps: float, m: int, y_card: int) -> float:
    """L = ln(e |Y|^m), on the domain eps > 0, m >= 1, |Y| >= 1."""
    if eps <= 0 or m < 1 or y_card < 1:
        raise ValidationError("need eps > 0, m >= 1, y_card >= 1")
    return 1.0 + m * math.log(y_card)


def beta_exponent(eps: float, m: int, y_card: int) -> float:
    """Two-branch concentration exponent; both branches in natural log.

    The branch point is eps = L^2/m with L = ln(e |Y|^m); the branches agree
    there.
    """
    big_l = _log_e_y_m(eps, m, y_card)
    if eps < big_l * big_l / m:
        return m * eps * eps / (2.0 * big_l * big_l)
    return eps - big_l * big_l / (2.0 * m)


def optimal_rho(eps: float, m: int, y_card: int) -> float:
    """Gallager parameter min(1, m eps / (ln(e |Y|^m))^2), on beta_exponent's domain."""
    big_l = _log_e_y_m(eps, m, y_card)
    return min(1.0, m * eps / (big_l * big_l))


@dataclass(frozen=True)
class E0LowerBoundResult:
    rho: float
    e0: float
    info_rate: float
    bound: float
    passed: bool


def e0_lower_bound_check(
    rho: float,
    q: CausalConditioning,
    fsc: FscSpec,
    s0: int,
    feedback: FeedbackMap,
) -> E0LowerBoundResult:
    """E0 >= (rho/n) I - (rho^2/2n) (ln(e |Y|^n))^2.

    The quadratic penalty uses the n-letter output alphabet, matching the
    second-moment bound for the block channel.
    """
    n = q.horizon
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    p = channel_prob_table(fsc, n, s0)
    info = information_functional(w, p)
    e0 = _e0(w, p, n, rho)
    big_l = 1.0 + n * math.log(fsc.n_outputs)
    bound = rho * info / n - rho * rho * big_l * big_l / (2.0 * n)
    return E0LowerBoundResult(
        rho=rho, e0=e0, info_rate=info / n, bound=bound, passed=bool(e0 >= bound - 1e-9)
    )


@dataclass(frozen=True)
class FnSuperadditivityResult:
    rho: float
    k: int
    m: int
    lhs: float
    rhs: float
    passed: bool


def fn_superadditivity_check(
    rho: float,
    q_head: CausalConditioning,
    q_tail: CausalConditioning,
    fsc: FscSpec,
    feedback: FeedbackMap,
) -> FnSuperadditivityResult:
    """n F_n(product law) >= k F_k(head) + m F_m(tail) for n = k + m."""
    k, m = q_head.horizon, q_tail.horizon
    q_n = product_policy(q_head, q_tail)
    lhs = (k + m) * f_n_exponent(rho, q_n, fsc, feedback)
    rhs = k * f_n_exponent(rho, q_head, fsc, feedback) + m * f_n_exponent(rho, q_tail, fsc, feedback)
    return FnSuperadditivityResult(
        rho=rho, k=k, m=m, lhs=lhs, rhs=rhs, passed=bool(lhs >= rhs - 1e-9)
    )
