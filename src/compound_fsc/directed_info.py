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
    policy_weight_table,
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


def information_functional(w: np.ndarray, p: np.ndarray) -> float:
    """sum_{x,y} w(x,y) p(y||x) log( p(y||x) / sum_x' w p ) with 0 log 0 = 0."""
    joint = w * p
    p_y = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p)
        terms -= np.log(p_y)
        terms *= joint
    return float(terms.sum(where=joint > 0))


def _prefix_entropies(joint: np.ndarray, n: int, x_card: int, y_card: int, keys: list) -> dict:
    """H(X^kx, Y^ky) in nats for each of the distinct (kx, ky) in keys,
    0 log 0 = 0: each prefix marginal of the path joint is reduced once, and
    all their entropies are taken in one pass over the marginals laid end to
    end."""
    t = np.asarray(joint).reshape(x_card ** n, y_card ** n)
    sizes = [x_card ** kx * y_card ** ky for kx, ky in keys]
    m = np.concatenate(
        [t.reshape(x_card ** kx, -1, y_card ** ky, y_card ** (n - ky)).sum(axis=(1, 3)).ravel() for kx, ky in keys]
    )
    plogp = np.log(m, out=np.zeros_like(m), where=m > 0)
    plogp *= m
    h = np.add.reduceat(plogp, list(itertools.accumulate(sizes[:-1], initial=0)))
    return dict(zip(keys, (-h).tolist()))


def per_step_terms(joint: np.ndarray, n: int, x_card: int, y_card: int) -> list[float]:
    """I(Y_i ; X^i | Y^{i-1}) for i = 1..n, from the exact path joint."""
    steps = range(1, n + 1)
    keys = [(0, i) for i in range(n + 1)] + [(i, i - 1) for i in steps] + [(i, i) for i in steps]
    h = _prefix_entropies(joint, n, x_card, y_card, keys)
    return [h[0, i] + h[i, i - 1] - h[i, i] - h[0, i - 1] for i in steps]


def exchange_terms(joint: np.ndarray, n: int, x_card: int, y_card: int) -> list[float]:
    """I(X_i ; Y_i^n | X^{i-1}, Y^{i-1}) for i = 1..n, from the path joint."""
    steps = range(1, n + 1)
    keys = [(i, n) for i in range(n + 1)] + [(i, i - 1) for i in steps] + [(i, i) for i in range(n)]
    h = _prefix_entropies(joint, n, x_card, y_card, keys)
    return [h[i, i - 1] + h[i - 1, n] - h[i, n] - h[i - 1, i - 1] for i in steps]


def directed_information(q: CausalConditioning, fsc: FscSpec, s0, feedback: FeedbackMap) -> DirectedInfoResult:
    """Directed information for one channel member from initial state s0.

    s0 may be a state index or a prior vector over states; a prior computes
    the quantity for the channel law mixed over the initial state.
    """
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    return _directed_info(w, channel_prob_table(fsc, q.horizon, s0), q, fsc.n_outputs)


def _directed_info(w: np.ndarray, p: np.ndarray, q: CausalConditioning, y_card: int) -> DirectedInfoResult:
    """directed_information on q's weight table w and a channel table p."""
    value = information_functional(w, p)
    steps = per_step_terms(w * p, q.horizon, q.x_card, y_card)
    return DirectedInfoResult(value_nats=value, per_step=tuple(steps))


def directed_information_kim(q: CausalConditioning, fsc: FscSpec, s0, feedback: FeedbackMap) -> float:
    """Same quantity through the exchange identity; agrees to 1e-10."""
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    return _exchange_value(w * channel_prob_table(fsc, q.horizon, s0), q, fsc.n_outputs)


def _exchange_value(joint: np.ndarray, q: CausalConditioning, y_card: int) -> float:
    """directed_information_kim on the path joint of q and a channel."""
    return math.fsum(exchange_terms(joint, q.horizon, q.x_card, y_card))


def _routes(q: CausalConditioning, fsc: FscSpec, s0, feedback: FeedbackMap) -> tuple[DirectedInfoResult, float]:
    """directed_information and directed_information_kim on one build of
    the weight and channel tables; each route still computes its own terms
    from them."""
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    p = channel_prob_table(fsc, q.horizon, s0)
    return _directed_info(w, p, q, fsc.n_outputs), _exchange_value(w * p, q, fsc.n_outputs)


@dataclass(frozen=True)
class StateGapResult:
    value_mixed: float
    value_given_state: float
    gap: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound + 1e-9


def state_gap_check(
    q: CausalConditioning,
    fsc: FscSpec,
    feedback: FeedbackMap,
    s0_prior=None,
) -> StateGapResult:
    """Gap between state-marginalized and state-averaged directed information.

    The initial state is drawn from s0_prior (uniform when omitted); the gap
    is bounded by ln of the state count.
    """
    if s0_prior is None:
        s0_prior = np.full(fsc.n_states, 1.0 / fsc.n_states)
    s0_prior = np.asarray(s0_prior, dtype=float)
    w = policy_weight_table(q, fsc.n_outputs, feedback)

    def value(s0) -> float:
        return _directed_info(w, channel_prob_table(fsc, q.horizon, s0), q, fsc.n_outputs).value_nats

    mixed = value(s0_prior)
    given = math.fsum(float(pr) * value(s) for s, pr in enumerate(s0_prior) if pr > 0)
    gap = abs(mixed - given)
    return StateGapResult(
        value_mixed=mixed,
        value_given_state=given,
        gap=gap,
        bound=math.log(fsc.n_states),
    )


@dataclass(frozen=True)
class ContinuityBoundResult:
    delta: float
    lhs: float | None
    rhs: float | None
    applicable: bool

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.lhs <= self.rhs + 1e-9


def continuity_bound_check(
    q1: CausalConditioning,
    q2: CausalConditioning,
    fsc: FscSpec,
    s0,
    feedback: FeedbackMap,
) -> ContinuityBoundResult:
    """|I(q1) - I(q2)| against -delta log(delta / |Y|^{2n}).

    delta sums |q1 - q2| path weights over all (x^n, y^n) pairs. The bound
    only applies for delta <= 1/2; larger perturbations report not-applicable.
    """
    if (q1.horizon, q1.x_card, q1.z_card) != (q2.horizon, q2.x_card, q2.z_card):
        raise ValidationError("policies must share horizon and alphabets")
    w1 = policy_weight_table(q1, fsc.n_outputs, feedback)
    w2 = policy_weight_table(q2, fsc.n_outputs, feedback)
    delta = float(np.abs(w1 - w2).sum())
    if delta > 0.5:
        return ContinuityBoundResult(delta=delta, lhs=None, rhs=None, applicable=False)
    p = channel_prob_table(fsc, q1.horizon, s0)
    lhs = abs(information_functional(w1, p) - information_functional(w2, p))
    rhs = entropy_continuity_bound(delta, fsc.n_outputs ** (2 * q1.horizon))
    return ContinuityBoundResult(delta=delta, lhs=lhs, rhs=rhs, applicable=True)


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
