"""Directed information between input and output paths of a state channel.

Three routes to the same number: the per-step sum of conditional mutual
informations, a functional of the pair (input law, channel law), and the
exchange identity that swaps the roles of the two paths. All values in nats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import GAP_TOL, SolverConfig, compute_Cn
from .causal import (
    CausalConditioning,
    channel_prob_table,
    path_table_groups,
    policy_weight_table,
    policy_weight_tables,
    uniform_policy,
)
from .channel import CompoundFamily, FeedbackMap, FscSpec, no_feedback
from .errors import ValidationError
from .estimation import entropy_continuity_bound

AGREEMENT_TOL = 1e-10
# zero_capacity_witness: the ascent budget of a solve not certified at its start
WITNESS_SOLVER = SolverConfig(max_iters=80, restarts=1)


@dataclass(frozen=True)
class DirectedInfoResult:
    """Total directed information and its per-step decomposition, in nats."""

    value_nats: float
    per_step: tuple

    def __post_init__(self):
        if abs(self.value_nats - math.fsum(self.per_step)) > AGREEMENT_TOL:
            raise ValidationError("per-step terms do not resum to the total")


def information_functional(w: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """sum_{x,y} w(x,y) p(y||x) log( p(y||x) / sum_x' w p ) with 0 log 0 = 0.

    Reduces over the last two axes only: stacks of tables (leading axes that
    broadcast between w and p) give an array of one value per table, and one
    pair of tables a float."""
    joint = w * p
    p_y = joint.sum(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p)
        terms -= np.log(p_y)[..., None, :]
        terms *= joint
    value = terms.sum(axis=(-2, -1), where=joint > 0)
    return float(value) if value.ndim == 0 else value


def _prefix_entropies(joint: np.ndarray, n: int, x_card: int, y_card: int, keys: list) -> dict:
    """H(X^kx, Y^ky) in nats for each of the distinct (kx, ky) in keys,
    0 log 0 = 0: each prefix marginal of the path joint is reduced once, and
    all their entropies are taken in one pass over the marginals laid end to
    end. A stack of joints (leading axes) gives each key an array over them."""
    t = np.asarray(joint)
    lead = t.shape[:-2]
    t = t.reshape(lead + (x_card ** n, y_card ** n))
    sizes = [x_card ** kx * y_card ** ky for kx, ky in keys]
    m = np.concatenate(
        [
            t.reshape(lead + (x_card ** kx, -1, y_card ** ky, y_card ** (n - ky))).sum(axis=(-3, -1)).reshape(lead + (-1,))
            for kx, ky in keys
        ],
        axis=-1,
    )
    plogp = np.log(m, out=np.zeros_like(m), where=m > 0)
    plogp *= m
    h = np.add.reduceat(plogp, list(itertools.accumulate(sizes[:-1], initial=0)), axis=-1)
    return dict(zip(keys, np.moveaxis(-h, -1, 0)))


def per_step_terms(joint: np.ndarray, n: int, x_card: int, y_card: int) -> list:
    """I(Y_i ; X^i | Y^{i-1}) for i = 1..n, from the exact path joint (a list
    per joint for a stack of them)."""
    steps = range(1, n + 1)
    keys = [(0, i) for i in range(n + 1)] + [(i, i - 1) for i in steps] + [(i, i) for i in steps]
    h = _prefix_entropies(joint, n, x_card, y_card, keys)
    return np.stack([h[0, i] + h[i, i - 1] - h[i, i] - h[0, i - 1] for i in steps], axis=-1).tolist()


def exchange_terms(joint: np.ndarray, n: int, x_card: int, y_card: int) -> list:
    """I(X_i ; Y_i^n | X^{i-1}, Y^{i-1}) for i = 1..n, from the path joint (a
    list per joint for a stack of them)."""
    steps = range(1, n + 1)
    keys = [(i, n) for i in range(n + 1)] + [(i, i - 1) for i in steps] + [(i, i) for i in range(n)]
    h = _prefix_entropies(joint, n, x_card, y_card, keys)
    return np.stack([h[i, i - 1] + h[i - 1, n] - h[i, n] - h[i - 1, i - 1] for i in steps], axis=-1).tolist()


def _case_tables(cases):
    """path_table_groups of (q, fsc, s0, feedback) cases, each case's
    channel table from its s0 alone."""
    for idx, w, p in path_table_groups([(q, fsc, feedback) for q, fsc, _, feedback in cases], [[s0] for _, _, s0, _ in cases]):
        yield idx, w, p[:, 0]


def _results(w: np.ndarray, p: np.ndarray, q: CausalConditioning, y_card: int) -> list[DirectedInfoResult]:
    """directed_information of each pair of stacked tables."""
    values = information_functional(w, p).tolist()
    steps = per_step_terms(w * p, q.horizon, q.x_card, y_card)
    return [DirectedInfoResult(value_nats=v, per_step=tuple(t)) for v, t in zip(values, steps)]


def directed_information(q: CausalConditioning, fsc: FscSpec, s0, feedback: FeedbackMap) -> DirectedInfoResult:
    """Directed information for one channel member from initial state s0.

    s0 may be a state index or a prior vector over states; a prior computes
    the quantity for the channel law mixed over the initial state.
    """
    [(_, w, p)] = _case_tables([(q, fsc, s0, feedback)])
    return _results(w, p, q, fsc.n_outputs)[0]


def directed_information_kim(q: CausalConditioning, fsc: FscSpec, s0, feedback: FeedbackMap) -> float:
    """Same quantity through the exchange identity; agrees to 1e-10."""
    [(_, w, p)] = _case_tables([(q, fsc, s0, feedback)])
    return math.fsum(exchange_terms(w * p, q.horizon, q.x_card, fsc.n_outputs)[0])


def directed_information_routes(cases) -> list[tuple[DirectedInfoResult, float]]:
    """(directed_information, directed_information_kim) of each (q, fsc, s0,
    feedback) case, in case order: one stacked build of the weight and
    channel tables per shape group, from which each route computes its own
    terms."""
    out = [None] * len(cases)
    for idx, w, p in _case_tables(cases):
        q, fsc = cases[idx[0]][:2]
        results = _results(w, p, q, fsc.n_outputs)
        kims = exchange_terms(w * p, q.horizon, q.x_card, fsc.n_outputs)
        for i, res, terms in zip(idx, results, kims):
            out[i] = (res, math.fsum(terms))
    return out


@dataclass(frozen=True)
class StateGapResult:
    value_mixed: float
    value_given_state: float
    gap: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound + 1e-9


def state_gap_check_batch(cases) -> list[StateGapResult]:
    """Gap between state-marginalized and state-averaged directed information
    for each (q, fsc, feedback, s0_prior) case, in case order; pass a
    one-case list for one case.

    The initial state is drawn from s0_prior (uniform when None); the gap is
    bounded by ln of the state count. Per shape group, the channel tables
    from each case's prior and from each of its initial states are rows of
    one stacked build, beside one stacked build of the weight tables.
    """
    priors = [np.full(fsc.n_states, 1.0 / fsc.n_states) if pr is None else np.asarray(pr, dtype=float) for _, fsc, _, pr in cases]
    out = [None] * len(cases)
    laws = [[prior, *range(fsc.n_states)] for prior, (_, fsc, _, _) in zip(priors, cases)]
    for idx, w, p in path_table_groups([case[:3] for case in cases], laws):
        s_card = p.shape[1] - 1
        values = information_functional(w[:, None], p).tolist()
        for i, (mixed, *per_state) in zip(idx, values):
            given = math.fsum(float(pr) * per_state[s] for s, pr in enumerate(priors[i]) if pr > 0)
            out[i] = StateGapResult(
                value_mixed=mixed,
                value_given_state=given,
                gap=abs(mixed - given),
                bound=math.log(s_card),
            )
    return out


@dataclass(frozen=True)
class ContinuityBoundResult:
    delta: float
    lhs: float | None
    rhs: float | None
    applicable: bool

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.lhs <= self.rhs + 1e-9


def continuity_bound_check_batch(cases) -> list[ContinuityBoundResult]:
    """|I(q1) - I(q2)| against -delta log(delta / |Y|^{2n}) for each (q1, q2,
    fsc, s0, feedback) case, in case order; pass a one-case list for one
    case.

    delta sums |q1 - q2| path weights over all (x^n, y^n) pairs. The bound
    only applies for delta <= 1/2; larger perturbations report
    not-applicable. Per shape group, one stacked build of each policy's
    weight tables and one of the channel tables.
    """
    for q1, q2, *_ in cases:
        if (q1.horizon, q1.x_card, q1.z_card) != (q2.horizon, q2.x_card, q2.z_card):
            raise ValidationError("policies must share horizon and alphabets")
    out = [None] * len(cases)
    for idx, w1, p in _case_tables([(q1, fsc, s0, feedback) for q1, _, fsc, s0, feedback in cases]):
        q, _, fsc, _, feedback = cases[idx[0]]
        w2 = policy_weight_tables([cases[i][1] for i in idx], fsc.n_outputs, feedback)
        deltas = np.abs(w1 - w2).sum(axis=(-2, -1)).tolist()
        lhs = np.abs(information_functional(w1, p) - information_functional(w2, p)).tolist()
        for i, delta, diff in zip(idx, deltas, lhs):
            if delta > 0.5:
                out[i] = ContinuityBoundResult(delta=delta, lhs=None, rhs=None, applicable=False)
            else:
                rhs = entropy_continuity_bound(delta, fsc.n_outputs ** (2 * q.horizon))
                out[i] = ContinuityBoundResult(delta=delta, lhs=diff, rhs=rhs, applicable=True)
    return out


@dataclass(frozen=True)
class ZeroCapacityWitness:
    confirmed: bool
    uniform_value: float
    output_independent: bool | None
    upper_nats: float | None

    def __bool__(self) -> bool:
        return self.confirmed


def zero_capacity_witness(
    fsc: FscSpec,
    feedback: FeedbackMap,
    n: int,
) -> ZeroCapacityWitness:
    """Certify a useless channel: zero info under a uniform open-loop input,
    from a uniform initial state, forces the output law to ignore the input,
    and then no causally conditioned law can do better, with or without
    feedback; compute_Cn's certified upper bound, at most GAP_TOL, confirms
    it over every initial state.
    """
    q_u = uniform_policy(n, fsc.n_inputs, 1)
    nofb = no_feedback(fsc.outputs)
    w = policy_weight_table(q_u, fsc.n_outputs, nofb)
    p = channel_prob_table(fsc, n, None)
    uniform_value = information_functional(w, p)
    if uniform_value > 1e-10:
        return ZeroCapacityWitness(
            confirmed=False,
            uniform_value=uniform_value,
            output_independent=None,
            upper_nats=None,
        )
    p_out = (w * p).sum(axis=0)
    output_independent = bool(np.max(np.abs(p - p_out[None, :])) <= 1e-9)
    family = CompoundFamily(members=(fsc,), labels=("witness",))
    report = compute_Cn(family, feedback, n, WITNESS_SOLVER)
    return ZeroCapacityWitness(
        confirmed=output_independent and report.upper_nats <= GAP_TOL,
        uniform_value=uniform_value,
        output_independent=output_independent,
        upper_nats=report.upper_nats,
    )
