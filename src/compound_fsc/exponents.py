"""Random-coding error exponents and the type-concentration exponent.

Everything is per channel use and in nats. The path-space Gallager integrand
uses the causally conditioned input law, so feedback policies are admitted
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import CausalConditioning, path_table_groups, product_policy
from .channel import FeedbackMap, FscSpec
from .directed_info import information_functional
from .errors import ValidationError


def _e0(w, p, n: int, rho: list) -> list[float]:
    """The E0 arithmetic on each row of (rows, |X|^n, |Y|^n) stacks of path
    tables w and p at rho[row]. The rows of one rho are raised together, to
    that rho's exponents as Python floats, the powers a lone pair of tables
    takes (numpy computes x ** 0.5 and x ** 2.0 other than with an array of
    exponents); each row's total is folded to -ln(total) / n on its own."""
    rows = {}
    for i, r in enumerate(rho):
        if r < 0:
            raise ValidationError("rho must be non-negative")
        rows.setdefault(r, []).append(i)
    totals = np.empty(len(rho))
    for r, idx in rows.items():
        inner = (w[idx] * p[idx] ** (1.0 / (1.0 + r))).sum(axis=-2)
        totals[idx] = (inner ** (1.0 + r)).sum(axis=-1)
    return [-math.log(total) / n for total in totals.tolist()]


def _tables(cases, laws):
    """path_table_groups of (rho, q, fsc, ..., feedback) cases, the channel
    tables of each case from each of laws(case)."""
    return path_table_groups([(case[1], case[2], case[-1]) for case in cases], [laws(case) for case in cases])


def gallager_e0(rho, q: CausalConditioning, fsc: FscSpec, s0: int, feedback: FeedbackMap):
    """-(1/n) ln sum_y [ sum_x q(x||z(y)) P(y||x,s0)^{1/(1+rho)} ]^{1+rho}; for
    a 1-D array of rho, the list of E0 over it from one pair of path tables."""
    return gallager_e0_batch([(rho, q, fsc, s0, feedback)])[0]


def gallager_e0_batch(cases) -> list:
    """gallager_e0 of each (rho, q, fsc, s0, feedback) case, in case order:
    per shape group, one stacked build of the path tables, evaluated at every
    case's rho (a number or a 1-D array)."""
    grids = []
    for rho, *_ in cases:
        if np.ndim(rho) > 1:
            raise ValidationError("rho must be a number or a 1-D array")
        grids.append(np.atleast_1d(rho).tolist())
    out = [None] * len(cases)
    for idx, w, p in _tables(cases, lambda case: [case[3]]):
        pick = [j for j, i in enumerate(idx) for _ in grids[i]]
        e0 = iter(_e0(w[pick], p[pick, 0], cases[idx[0]][1].horizon, [r for i in idx for r in grids[i]]))
        for i in idx:
            row = [next(e0) for _ in grids[i]]
            out[i] = row if np.ndim(cases[i][0]) else row[0]
    return out


def f_n_exponent(rho: float, q: CausalConditioning, fsc: FscSpec, feedback: FeedbackMap) -> float:
    """Worst-initial-state exponent: -rho ln|S|/n + min_s0 E0(rho, q, s0)."""
    return f_n_exponent_batch([(rho, q, fsc, feedback)])[0]


def f_n_exponent_batch(cases) -> list[float]:
    """f_n_exponent of each (rho, q, fsc, feedback) case, in case order: per
    shape group, the channel tables from every initial state of every case
    are rows of one stacked build."""
    out = [None] * len(cases)
    for idx, w, p in _tables(cases, lambda case: range(case[2].n_states)):
        n, s_card = cases[idx[0]][1].horizon, p.shape[1]
        rhos = [cases[i][0] for i in idx]
        e0 = _e0(np.repeat(w, s_card, axis=0), p.reshape((-1,) + p.shape[2:]), n, [r for r in rhos for _ in range(s_card)])
        for j, (i, rho) in enumerate(zip(idx, rhos)):
            out[i] = -rho * math.log(s_card) / n + min(e0[j * s_card : (j + 1) * s_card])
    return out


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


def e0_lower_bound_check_batch(cases) -> list[E0LowerBoundResult]:
    """E0 >= (rho/n) I - (rho^2/2n) (ln(e |Y|^n))^2 for each (rho, q, fsc, s0,
    feedback) case, in case order; pass a one-case list for one case.

    The quadratic penalty uses the n-letter output alphabet, matching the
    second-moment bound for the block channel. One stacked build of the
    path tables per shape group.
    """
    out = [None] * len(cases)
    for idx, w, p in _tables(cases, lambda case: [case[3]]):
        n = cases[idx[0]][1].horizon
        rhos = [cases[i][0] for i in idx]
        infos = information_functional(w, p[:, 0]).tolist()
        for i, rho, info, e0 in zip(idx, rhos, infos, _e0(w, p[:, 0], n, rhos)):
            big_l = 1.0 + n * math.log(cases[i][2].n_outputs)
            bound = rho * info / n - rho * rho * big_l * big_l / (2.0 * n)
            out[i] = E0LowerBoundResult(
                rho=rho, e0=e0, info_rate=info / n, bound=bound, passed=bool(e0 >= bound - 1e-9)
            )
    return out


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
    return fn_superadditivity_check_batch([(rho, q_head, q_tail, fsc, feedback)])[0]


def fn_superadditivity_check_batch(cases) -> list[FnSuperadditivityResult]:
    """fn_superadditivity_check of each (rho, q_head, q_tail, fsc, feedback)
    case, in case order: the product laws', heads' and tails' exponents are
    one f_n_exponent_batch, so laws of one horizon stack across all three."""
    products = [product_policy(head, tail) for _, head, tail, _, _ in cases]
    laws = products + [case[1] for case in cases] + [case[2] for case in cases]
    f = f_n_exponent_batch([(case[0], q, case[3], case[4]) for q, case in zip(laws, cases * 3)])
    out = []
    for j, (rho, head, tail, _, _) in enumerate(cases):
        k, m = head.horizon, tail.horizon
        lhs = (k + m) * f[j]
        rhs = k * f[len(cases) + j] + m * f[2 * len(cases) + j]
        out.append(FnSuperadditivityResult(rho=rho, k=k, m=m, lhs=lhs, rhs=rhs, passed=bool(lhs >= rhs - 1e-9)))
    return out
