"""Causally conditioned input laws and channel path probabilities.

An input law over horizon n is a collection of conditionals
q_i(x_i | x^{i-1}, z^{i-1}); its product gives the weight the encoder assigns
an input path given a feedback path. The channel side is the causal law
P(y^n || x^n, s_0), obtained by summing state paths with a forward recursion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import FeedbackMap, FscSpec
from .errors import CapExceededError, ValidationError
from .util import enumerate_paths

ROW_SUM_TOL = 1e-9
TABLE_BYTES = 2 ** 30  # budget for the float64/int64 path tables alive at once


@dataclass(frozen=True, eq=False)
class CausalConditioning:
    """Per-step conditionals q_i(x | history), histories in mixed-radix order.

    conditionals[i] has shape ((x_card*z_card)**i, x_card): one row per joint
    history (x^i, z^i), encoded earliest-pair-most-significant with pair code
    x*z_card + z. child_histories is the one step of that code.
    """

    horizon: int
    x_card: int
    z_card: int
    conditionals: tuple

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if self.x_card < 1 or self.z_card < 1:
            raise ValidationError("alphabet cardinalities must be >= 1")
        conds = tuple(np.ascontiguousarray(c, dtype=float) for c in self.conditionals)
        if len(conds) != self.horizon:
            raise ValidationError("need one conditional table per step")
        base = self.x_card * self.z_card
        for i, c in enumerate(conds):
            want = (base ** i, self.x_card)
            if c.shape != want:
                raise ValidationError(f"step {i} table shape {c.shape} != {want}")
            if not np.all(np.isfinite(c)) or np.any(c < -1e-15):
                raise ValidationError("conditionals must be finite and non-negative")
            if np.max(np.abs(c.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
                raise ValidationError("conditional rows must sum to 1")
        for c in conds:
            c.setflags(write=False)
        object.__setattr__(self, "conditionals", conds)

    def to_dict(self) -> dict:
        flat = []
        for c in self.conditionals:
            flat.extend(c.reshape(-1).tolist())
        return {
            "horizon": self.horizon,
            "x_card": self.x_card,
            "z_card": self.z_card,
            "conditionals": flat,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CausalConditioning":
        if not isinstance(d, dict):
            raise ValidationError("policy JSON must be an object")
        try:
            horizon = int(d["horizon"])
            x_card = int(d["x_card"])
            z_card = int(d["z_card"])
            flat = np.asarray(d["conditionals"], dtype=float)
        except KeyError as e:
            raise ValidationError(f"policy dict missing key {e}") from e
        conds = []
        pos = 0
        for i in range(horizon):
            n = (x_card * z_card) ** i * x_card
            conds.append(flat[pos : pos + n].reshape((x_card * z_card) ** i, x_card))
            pos += n
        if pos != flat.size:
            raise ValidationError("flat conditional array has wrong length")
        return cls(horizon=horizon, x_card=x_card, z_card=z_card, conditionals=tuple(conds))


def child_histories(hist, x, x_card: int, z_card: int) -> np.ndarray:
    """The one step of the encoder-history code: the rows of the histories
    (h, x, z) for every feedback symbol z, (hist * |X| + x) * |Z| + z, on a
    new last axis. hist and x broadcast against each other."""
    return ((np.asarray(hist) * x_card + x) * z_card)[..., None] + np.arange(z_card)


def uniform_policy(n: int, x_card: int, z_card: int) -> CausalConditioning:
    base = x_card * z_card
    conds = tuple(np.full((base ** i, x_card), 1.0 / x_card) for i in range(n))
    return CausalConditioning(horizon=n, x_card=x_card, z_card=z_card, conditionals=conds)


def random_policy(n: int, x_card: int, z_card: int, rng: np.random.Generator) -> CausalConditioning:
    base = x_card * z_card
    conds = []
    for i in range(n):
        c = rng.dirichlet(np.ones(x_card), size=base ** i)
        conds.append(c)
    return CausalConditioning(horizon=n, x_card=x_card, z_card=z_card, conditionals=tuple(conds))


def iid_policy(n: int, marginal, z_card: int) -> CausalConditioning:
    """Same single-letter input marginal at every step, ignoring the history."""
    marginal = np.asarray(marginal, dtype=float)
    x_card = marginal.size
    base = x_card * z_card
    conds = tuple(np.tile(marginal, (base ** i, 1)) for i in range(n))
    return CausalConditioning(horizon=n, x_card=x_card, z_card=z_card, conditionals=conds)


def input_prob(q: CausalConditioning, xs, zs) -> float:
    """Product of the per-step conditionals along one (x, z) path.

    zs covers steps 1..n-1; a trailing feedback symbol, if present, is unused.
    """
    xs = list(xs)
    if len(xs) != q.horizon:
        raise ValidationError("input path length must equal the horizon")
    zs = list(zs)[: q.horizon - 1]
    if len(zs) != q.horizon - 1:
        raise ValidationError("feedback path must cover steps 1..n-1")
    p = 1.0
    h = 0
    for i, x in enumerate(xs):
        p *= q.conditionals[i][h, x]
        if i < q.horizon - 1:
            h = child_histories(h, x, q.x_card, q.z_card)[zs[i]]
    return p


def product_policy(q_head: CausalConditioning, q_tail: CausalConditioning) -> CausalConditioning:
    """Concatenate two input laws; the tail conditions only on its own block.

    A history of the product is the head's history followed by the tail's,
    so each tail conditional repeats once per head history."""
    if q_head.x_card != q_tail.x_card or q_head.z_card != q_tail.z_card:
        raise ValidationError("policies must share alphabets")
    reps = (q_head.x_card * q_head.z_card) ** q_head.horizon
    conds = q_head.conditionals + tuple(np.tile(c, (reps, 1)) for c in q_tail.conditionals)
    return CausalConditioning(
        horizon=q_head.horizon + q_tail.horizon,
        x_card=q_head.x_card,
        z_card=q_head.z_card,
        conditionals=conds,
    )


def sequence_reach(conds) -> list[np.ndarray]:
    """Sequence form of a policy's conditionals, the one prefix-product walk:
    reach[i][h, x] is the product of the conditionals along history h and
    then x, the weight of the input prefix of (h, x) given its feedback
    prefix. The |Z| child rows (h, x, z) of step i + 1 inherit it."""
    reach = [conds[0]]
    for c in conds[1:]:
        reach.append((reach[-1].reshape(-1, 1) * c.reshape(reach[-1].size, -1)).reshape(c.shape))
    return reach


def mixture_policy(q1: CausalConditioning, q2: CausalConditioning, lam: float) -> CausalConditioning:
    """Convex combination in path space, re-factorized into conditionals: the
    row-normalised lam * reach1 + (1 - lam) * reach2 of sequence_reach, so
    its weight table is lam * W1 + (1 - lam) * W2 under any feedback map.

    Histories never reached by the mixture get uniform rows.
    """
    if (q1.horizon, q1.x_card, q1.z_card) != (q2.horizon, q2.x_card, q2.z_card):
        raise ValidationError("policies must share horizon and alphabets")
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lam must lie in [0, 1]")
    conds = []
    for r1, r2 in zip(sequence_reach(q1.conditionals), sequence_reach(q2.conditionals)):
        num = lam * r1 + (1 - lam) * r2
        den = num.sum(axis=1, keepdims=True)
        conds.append(np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0 / q1.x_card))
    return CausalConditioning(horizon=q1.horizon, x_card=q1.x_card, z_card=q1.z_card, conditionals=tuple(conds))


def causal_channel_prob(fsc: FscSpec, xs, ys, s0: int) -> float:
    """P(y^n || x^n, s_0): causal_log_prob_rows on one row."""
    return float(np.exp(causal_log_prob_rows(fsc, [list(xs)], [list(ys)], s0)[0]))


def naive_causal_channel_prob(fsc: FscSpec, xs, ys, s0: int) -> float:
    """Brute-force state-path enumeration; oracle for the forward recursion."""
    xs, ys = list(xs), list(ys)
    n = len(xs)
    total = []
    for path in enumerate_paths(fsc.n_states, n):
        p = 1.0
        prev = s0
        for i in range(n):
            p *= fsc.kernel[prev, xs[i], ys[i], path[i]]
            prev = path[i]
        total.append(p)
    return math.fsum(total)


def causal_log_prob_rows(fsc: FscSpec, x_rows: np.ndarray, y_rows: np.ndarray, s0_prior) -> np.ndarray:
    """Vector of log sum_s0 prior(s0) P(y || x, s0) for row-aligned path
    matrices, by the forward recursion rescaled at every step; -inf for
    impossible rows. The one recursion along given path rows."""
    x_rows = np.asarray(x_rows, dtype=np.int64)
    y_rows = np.asarray(y_rows, dtype=np.int64)
    if x_rows.shape != y_rows.shape:
        raise ValidationError("path matrices must share shape")
    t, n = x_rows.shape
    alpha = np.broadcast_to(_as_prior(fsc, s0_prior), (t, fsc.n_states)).copy()
    log_acc = np.zeros(t)
    for i in range(n):
        step = fsc.kernel[:, x_rows[:, i], y_rows[:, i], :]
        alpha = np.einsum("ts,str->tr", alpha, step)
        scale = alpha.sum(axis=1)
        with np.errstate(divide="ignore"):
            log_acc += np.log(scale)  # -inf once a row is impossible
        alpha /= np.where(scale > 0.0, scale, 1.0)[:, None]  # a dead row stays zero
    return log_acc


def _as_prior(fsc: FscSpec, s0_prior) -> np.ndarray:
    if s0_prior is None:
        return np.full(fsc.n_states, 1.0 / fsc.n_states)
    if np.isscalar(s0_prior):
        if s0_prior not in range(fsc.n_states):  # also rejects nan, inf and non-integers
            raise ValidationError(f"initial state {s0_prior} outside 0..{fsc.n_states - 1}")
        p = np.zeros(fsc.n_states)
        p[int(s0_prior)] = 1.0
        return p
    p = np.asarray(s0_prior, dtype=float)
    if p.shape != (fsc.n_states,) or not np.all(p >= 0) or not abs(p.sum() - 1.0) <= 1e-9:
        raise ValidationError("s0 prior must be a distribution over the states")
    return p


def check_table_bytes(entries: int, arrays: int, what: str) -> None:
    """The one size guard for path tables: `arrays` tables of `entries` 8-byte entries."""
    if entries * 8 * arrays > TABLE_BYTES:
        raise CapExceededError(
            f"{what} would need {entries * 8 * arrays} bytes (budget {TABLE_BYTES}); refusing to approximate"
        )


def channel_prob_table(fsc: FscSpec, n: int, s0_prior) -> np.ndarray:
    """Table P[xcode, ycode] = sum_s0 prior(s0) P(y^n || x^n, s0).

    Path codes are mixed-radix, earliest symbol most significant. One forward
    recursion over the path tree: alpha[xcode, ycode, s] = P(y^i, s_i = s ||
    x^i) grows by one (x, y) level per step, and the state is summed out at
    the end. Refuses past TABLE_BYTES instead of approximating.
    """
    s_card = fsc.n_states
    # peak: about 1.25 |S| tables at the last step (its input and output
    # alpha) or |S| + 1 while summing out the state; 2 |S| + 1 covers both
    check_table_bytes(fsc.n_inputs ** n * fsc.n_outputs ** n, 2 * s_card + 1, "channel table")
    alpha = _as_prior(fsc, s0_prior).reshape(1, 1, s_card)
    for i in range(1, n + 1):
        alpha = np.einsum("abs,sxyt->axbyt", alpha, fsc.kernel, order="C")
        alpha = alpha.reshape(fsc.n_inputs ** i, fsc.n_outputs ** i, s_card)
    return alpha.sum(axis=2)


def history_code(x_card: int, feedback: FeedbackMap, n: int) -> np.ndarray:
    """The int64 code of (x^{n-1}, f(y)^{n-1}, x_{n-1}) into
    CausalConditioning.conditionals[n - 1].ravel(), built step by step as
    code_i = (code_{i-1} * |Z| + f(y_{i-1})) * |X| + x_i.

    The code broadcasts against the (X,)*n + (Y,)*n path tensor (axis k
    holds x_k, axis n + k holds y_k) and spans only the axes of x_0..x_{n-1}
    and y_0..y_{n-2}, not y_{n-1}. With |Z| = 1 the feedback term is always
    0 and the code spans no output axis.
    """
    code = np.zeros((), dtype=np.int64)
    for i in range(n):
        if i and feedback.z_card > 1:
            code = code * feedback.z_card + feedback.table.reshape((-1,) + (1,) * (n - i))
        code = code * x_card + np.arange(x_card).reshape((-1,) + (1,) * (2 * n - 1 - i))
    return code


def weight_table(reach, code: np.ndarray, y_card: int) -> np.ndarray:
    """Table W[xcode, ycode] = q(x^n || f(y)^{n-1}): the last step's
    sequence-form weights read through the history code and spread over
    every output axis the code does not span (the last one, or all n
    without feedback)."""
    last, n = reach[-1].reshape(-1)[code], len(reach)
    full = np.broadcast_to(last, last.shape[:n] + (y_card,) * n)
    return full.reshape(last.shape[0] ** n, -1)


def policy_adjoint(conds, reach, code: np.ndarray, didw: np.ndarray) -> list[np.ndarray]:
    """d/d conds[i] of sum(W * didw) for the W of weight_table, on the
    conditionals' own history rows: U_{n-1} folds sum_{y_{n-1}} didw into the
    entries of conds[-1] by the code, step i's gradient is U_i times the
    reach[i - 1] entry its row extends, and U_{i-1} = sum_{z_{i-1}, x_i}
    conds[i] U_i."""
    u = didw.reshape(code.shape[:-1] + (-1,)).sum(axis=-1)
    u = np.bincount(code.ravel(), u.ravel(), conds[-1].size).reshape(conds[-1].shape)
    grads = [None] * len(conds)
    for i in range(len(conds) - 1, 0, -1):
        # the rows of step i group by the (h, x) entry of step i - 1 they extend
        grads[i] = (reach[i - 1][..., None] * u.reshape(reach[i - 1].shape + (-1,))).reshape(u.shape)
        u = (conds[i] * u).reshape(reach[i - 1].shape + (-1,)).sum(axis=-1)
    grads[0] = u
    return grads


def policy_weight_table(q: CausalConditioning, y_card: int, feedback: FeedbackMap) -> np.ndarray:
    """Table W[xcode, ycode] = q(x^n || f(y)^{n-1}) over all path pairs."""
    if feedback.z_card != q.z_card:
        raise ValidationError("policy and feedback map disagree on |Z|")
    if feedback.table.size != y_card:
        raise ValidationError("feedback table does not cover the output alphabet")
    # measured peak 2.7 tables: the code, the last reach and its gather
    # through the code (half a table each at |Y| = 2), the shorter reach
    # and the weights
    check_table_bytes(q.x_card ** q.horizon * y_card ** q.horizon, 3, "policy weight table")
    code = history_code(q.x_card, feedback, q.horizon)
    return weight_table(sequence_reach(q.conditionals), code, y_card)


def joint_and_output_probs(
    q: CausalConditioning,
    fsc: FscSpec,
    s0,
    feedback: FeedbackMap,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint P[xcode, ycode] and output marginal over all length-n paths.

    s0 may be a state index or a prior vector; the joint mixes over it.
    """
    if q.x_card != fsc.n_inputs:
        raise ValidationError("policy and channel disagree on |X|")
    w = policy_weight_table(q, fsc.n_outputs, feedback)
    p = channel_prob_table(fsc, q.horizon, s0)
    joint = w * p
    return joint, joint.sum(axis=0)


def save_policy(q: CausalConditioning, path) -> None:
    with open(path, "w") as fh:
        json.dump(q.to_dict(), fh)
        fh.write("\n")


def load_policy(path) -> CausalConditioning:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid policy JSON: {e}") from e
    return CausalConditioning.from_dict(d)
