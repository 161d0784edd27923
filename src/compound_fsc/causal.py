"""Causally conditioned input laws and channel path probabilities.

An input law over horizon n is a collection of conditionals
q_i(x_i | x^{i-1}, z^{i-1}); its product gives the weight the encoder assigns
an input path given a feedback path. The channel side is the causal law
P(y^n || x^n, s_0), obtained by summing state paths with a forward recursion.

The weights depend on the outputs only through the feedback prefix, so
code_weights holds them on the history code's own axes, 1/|Y| of the full
weight table or less; policy_weight_tables repeats them over the remaining
output axes, and policy_adjoint takes gradients already summed over those
axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ROW_SUM_TOL, FeedbackMap, FscSpec
from .errors import CapExceededError, ValidationError

TABLE_BYTES = 2 ** 30  # budget for the float64/int64 path tables alive at once


@dataclass(frozen=True, eq=False)
class CausalConditioning:
    """Per-step conditionals q_i(x | history), histories in mixed-radix order.

    conditionals[i] has shape ((x_card*z_card)**i, x_card): one row per joint
    history (x^i, z^i), encoded earliest-pair-most-significant with pair code
    x*z_card + z. child_histories is the one step of that code.

    Every table is read-only. A step whose rows are all one law may be a
    zero-stride view of that row (np.broadcast_to, as uniform_policy and
    iid_policy build it), kept as it is and validated on its one distinct
    row; every other table is made contiguous. Consumers must not assume
    contiguity.
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
        conds = tuple(
            c if isinstance(c, np.ndarray) and c.ndim == 2 and c.dtype == float and c.strides[0] == 0
            else np.ascontiguousarray(c, dtype=float)
            for c in self.conditionals
        )
        if len(conds) != self.horizon:
            raise ValidationError("need one conditional table per step")
        base = self.x_card * self.z_card
        for i, c in enumerate(conds):
            want = (base ** i, self.x_card)
            if c.shape != want:
                raise ValidationError(f"step {i} table shape {c.shape} != {want}")
            if c.strides[0] == 0:
                c = c[:1]  # every row is this one
            dev = c.sum(axis=1)
            dev -= 1.0
            np.abs(dev, out=dev)
            # NaN and +-inf fail one of these two comparisons, so a step that
            # passes both is finite and non-negative; the separate checks run
            # only to name what failed
            if not (c.min() >= -1e-15 and dev.max() <= ROW_SUM_TOL):
                if not np.isfinite(c).all() or (c < -1e-15).any():
                    raise ValidationError("conditionals must be finite and non-negative")
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
    """Uniform inputs at every step: n zero-stride views of one row, so the
    uniform law allocates no step's rows, even at n = 12."""
    return iid_policy(n, np.full(x_card, 1.0 / x_card), z_card)


def random_policy(n: int, x_card: int, z_card: int, rng: np.random.Generator) -> CausalConditioning:
    """Dirichlet-uniform rows, all steps' in one draw: the stream of one draw per step."""
    sizes = [(x_card * z_card) ** i for i in range(n)]
    rows = rng.dirichlet(np.ones(x_card), size=sum(sizes))
    conds = [rows[end - size : end] for size, end in zip(sizes, itertools.accumulate(sizes))]
    return CausalConditioning(horizon=n, x_card=x_card, z_card=z_card, conditionals=tuple(conds))


def iid_policy(n: int, marginal, z_card: int) -> CausalConditioning:
    """Same single-letter input marginal at every step, ignoring the history:
    each table is a zero-stride view of one private copy of the marginal."""
    marginal = np.array(marginal, dtype=float)
    x_card = marginal.size
    base = x_card * z_card
    conds = tuple(np.broadcast_to(marginal, (base ** i, x_card)) for i in range(n))
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
    prefix. The |Z| child rows (h, x, z) of step i + 1 inherit it. Each
    step's table is read as (reach size, |Z|, |X|), which keeps its last
    axis, so a zero-stride step stays a view and is never copied. Tables
    with leading axes (one per start, say) are walked along them at once."""
    reach = [conds[0]]
    for c in conds[1:]:
        prev = reach[-1]
        child = c.reshape(prev.shape[:-2] + (prev.shape[-2] * prev.shape[-1], -1, c.shape[-1]))
        reach.append((prev.reshape(child.shape[:-2] + (1, 1)) * child).reshape(c.shape))
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


def causal_log_prob_rows(fsc: FscSpec, x_rows: np.ndarray, y_rows: np.ndarray, s0_prior) -> np.ndarray:
    """Vector of log sum_s0 prior(s0) P(y || x, s0) for row-aligned path
    matrices, by the forward recursion rescaled at every step; -inf for
    impossible rows. The recursion along given path rows, one forward_step
    per column."""
    x_rows = np.asarray(x_rows, dtype=np.int64)
    y_rows = np.asarray(y_rows, dtype=np.int64)
    if x_rows.shape != y_rows.shape:
        raise ValidationError("path matrices must share shape")
    t, n = x_rows.shape
    table = step_table(fsc)
    alpha = np.broadcast_to(_as_prior(fsc, s0_prior)[:, None], (fsc.n_states, t))
    log_acc = np.zeros(t)
    for i in range(n):
        alpha = forward_step(alpha, log_acc, table, x_rows[:, i] * fsc.n_outputs + y_rows[:, i])
    return log_acc


def step_table(fsc: FscSpec) -> np.ndarray:
    """The kernel as forward_step reads it: table[s, r, x * |Y| + y] =
    kernel[s, x, y, r]."""
    s_card = fsc.n_states
    return np.ascontiguousarray(fsc.kernel.transpose(0, 3, 1, 2)).reshape(s_card, s_card, -1)


def forward_step(alpha: np.ndarray, log_acc: np.ndarray, table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One rescaled step of the forward recursion, the only one in the package.

    alpha is state-major, (S, ...), and idx (...) holds each column's flat
    input-output index x * |Y| + y into step_table. Returns the next alpha,
    each column normalised to sum 1 (a dead column stays zero), and adds the
    log of each column's mass to log_acc in place (-inf once a column is
    impossible). Every sum runs over the states in ascending order, so two
    callers that reach the same column agree bitwise."""
    s_card = alpha.shape[0]
    nxt = np.empty((s_card,) + idx.shape)
    for r in range(s_card):
        np.multiply(alpha[0], table[0, r][idx], out=nxt[r])
        for s in range(1, s_card):
            nxt[r] += alpha[s] * table[s, r][idx]
    scale = nxt[0].copy()
    for r in range(1, s_card):
        scale += nxt[r]
    with np.errstate(divide="ignore"):
        log_acc += np.log(scale)
    nxt /= np.where(scale > 0.0, scale, 1.0)
    return nxt


def _as_prior(fsc: FscSpec, s0_prior) -> np.ndarray:
    s_card = fsc.n_states
    if s0_prior is None:
        return np.full(s_card, 1.0 / s_card)
    if np.isscalar(s0_prior):
        if s0_prior not in range(s_card):  # also rejects nan, inf and non-integers
            raise ValidationError(f"initial state {s0_prior} outside 0..{s_card - 1}")
        p = np.zeros(s_card)
        p[int(s0_prior)] = 1.0
        return p
    p = np.asarray(s0_prior, dtype=float)
    if p.shape != (s_card,) or not np.all(p >= 0) or not abs(p.sum() - 1.0) <= 1e-9:
        raise ValidationError("s0 prior must be a distribution over the states")
    return p


def check_table_bytes(entries: int, arrays: int, what: str) -> None:
    """The one size guard for path tables: `arrays` tables of `entries` 8-byte entries."""
    if entries * 8 * arrays > TABLE_BYTES:
        raise CapExceededError(
            f"{what} would need {entries * 8 * arrays} bytes (budget {TABLE_BYTES}); refusing to approximate"
        )


def spare_tables(entries: int, arrays: int) -> int:
    """How many more tables of `entries` 8-byte entries fit the budget beside
    `arrays` of them; negative once those alone exceed it."""
    return TABLE_BYTES // (entries * 8) - arrays


def channel_prob_table(fsc: FscSpec, n: int, s0_prior, out: np.ndarray | None = None) -> np.ndarray:
    """Table P[xcode, ycode] = sum_s0 prior(s0) P(y^n || x^n, s0):
    channel_prob_tables on one kernel and one prior."""
    return channel_prob_tables(fsc.kernel, _as_prior(fsc, s0_prior), n, out)


def channel_prob_tables(kernels: np.ndarray, priors: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stack of channel tables P[..., xcode, ycode] = sum_s0 priors[..., s0]
    P(y^n || x^n, s0) under the kernels [..., s, x, y, s'], whose leading
    axes (none for one table) match the priors'.

    Path codes are mixed-radix, earliest symbol most significant. One forward
    recursion over the path tree for every table at once: each table's
    alpha[xcode, ycode, t] = P(y^i, s_i = t || x^i) grows by one (x, y) level
    per step as a broadcast multiply-add over the previous state s, in
    ascending order, and the last step sums the state out into `out` (a
    C-contiguous float array of the result's shape, made when None), one
    next state t at a time. Each sum runs in the order of
    einsum("abs,sxyt->axbyt") followed by .sum(axis=2), so below 8 states
    each table is bitwise that recursion's (numpy may add a longer state axis
    in another order) and does not depend on the tables stacked with it.
    Refuses past TABLE_BYTES instead of approximating.
    """
    lead = kernels.shape[:-4]
    s_card, x_card, y_card = kernels.shape[-4:-1]
    rows = math.prod(lead)
    # peak, in tables of the result's size, with r = |S| / (|X||Y|): before
    # the last step a step's input, output and product temporary, (r + 2 |S|)
    # / (|X||Y|) at most; at the last step its input, the result, one next
    # state's partial sum and its product temporary, r + 3 (r + 2 at |S| = 1,
    # with no partial sum); 2 |S| + 1 covers both, for each table
    check_table_bytes(rows * x_card ** n * y_card ** n, 2 * s_card + 1, "channel table")
    # k[s] on the (table, a, x, b, y, t) axes and alpha on (table, a, x, b,
    # y, s), with no table axis for one table
    tables = (rows,) if lead else ()
    k = kernels.reshape(tables + (s_card, 1, x_card, 1, y_card, s_card))
    if lead:
        k = k.swapaxes(0, 1)
    alpha = priors.reshape(tables + (1, 1, 1, 1, s_card))
    for i in range(1, n):
        nxt = alpha[..., None, 0] * k[0]
        for s in range(1, s_card):
            nxt += alpha[..., None, s] * k[s]
        alpha = nxt.reshape(tables + (x_card ** i, 1, y_card ** i, 1, s_card))
    if out is None:
        out = np.empty(lead + (x_card ** n, y_card ** n))
    total = out.reshape(tables + (x_card ** (n - 1), x_card, y_card ** (n - 1), y_card))
    for t in range(s_card):
        # the t = 0 sum goes straight into the result
        part = np.multiply(alpha[..., 0], k[0, ..., t], out=None if t else total)
        for s in range(1, s_card):
            part += alpha[..., s] * k[s, ..., t]
        if t:
            total += part
    return out


def initial_state_tables(fscs, laws, n: int) -> np.ndarray:
    """Channel tables of each member fscs[b] from each of its initial-state
    laws laws[b] (state indices or priors, as channel_prob_table takes them,
    the same count for every member), as a (members, laws, |X|^n, |Y|^n)
    stack built by one channel_prob_tables call."""
    kernels = np.stack([[fsc.kernel] * len(row) for fsc, row in zip(fscs, laws)])
    priors = np.stack([[_as_prior(fsc, s0) for s0 in row] for fsc, row in zip(fscs, laws)])
    return channel_prob_tables(kernels, priors, n)


def path_table_groups(cases, laws):
    """Stacked path tables of (q, fsc, feedback) cases, one shape group at a
    time. Cases group by the shape of their tables and history code
    (horizon, alphabets, state count, feedback table), groups in order of
    first appearance. Yields each group's case indices, in case order, its
    policies' weight tables as one (group, |X|^n, |Y|^n) stack, and its
    channel tables from each case's initial-state laws laws[i] (the same
    count for every case of a group) as one (group, laws, |X|^n, |Y|^n)
    stack: one initial_state_tables build."""
    groups = {}
    for i, (q, fsc, feedback) in enumerate(cases):
        key = (q.horizon, q.x_card, q.z_card, fsc.n_states, fsc.n_inputs, fsc.n_outputs, feedback.table.tobytes())
        groups.setdefault(key, []).append(i)
    for idx in groups.values():
        q, fsc, feedback = cases[idx[0]]
        w = policy_weight_tables([cases[i][0] for i in idx], fsc.n_outputs, feedback)
        p = initial_state_tables([cases[i][1] for i in idx], [laws[i] for i in idx], q.horizon)
        yield idx, w, p


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


def code_weights(reach, code: np.ndarray) -> np.ndarray:
    """Table G[xcode, a] = q(x^n || f(y)^{n-1}) on the axes the history code
    spans: the last step's sequence-form weights read through the code, with
    a the code of the output prefix y_{<n-1} (one column without feedback).
    The weight table repeats each column over the output axes the code does
    not span, so G is 1/|Y| of it with feedback and 1/|Y|^n without. Leading
    axes of the reach stay leading axes of G."""
    last = reach[-1]
    lead = last.shape[:-2]
    return last.reshape(lead + (-1,)).take(code, axis=-1).reshape(lead + (last.shape[-1] ** len(reach), -1))


def policy_adjoint(conds, reach, code: np.ndarray, u: np.ndarray) -> list[np.ndarray]:
    """d/d conds[i] of sum(G * u) for the G of code_weights, on the
    conditionals' own history rows; u = d/dW summed over the output axes the
    code does not span, so u has the code's size. U_{n-1} sums u into the
    entries of conds[-1] by the code (a many-to-one feedback map merges
    entries), step i's gradient is U_i times the reach[i - 1] entry its row
    extends, and U_{i-1} = sum_{z_{i-1}, x_i} conds[i] U_i. With leading
    axes on conds, reach and u (one per start, say), one bincount bins them
    all, each leading index's code offset by the size of one last table. A
    caller that bins the same stack on every call may pass that offset
    index, built once, as `code`."""
    last = conds[-1]
    idx = code.reshape(-1)
    if idx.size < u.size:
        size = last.shape[-2] * last.shape[-1]
        idx = (np.arange(0, last.size, size)[:, None] + idx).reshape(-1)
    u = np.bincount(idx, u.reshape(-1), last.size).reshape(last.shape)
    del idx
    grads = [None] * len(conds)
    for i in range(len(conds) - 1, 0, -1):
        # the rows of step i group by the (h, x) entry of step i - 1 they extend
        grads[i] = (reach[i - 1][..., None] * u.reshape(reach[i - 1].shape + (-1,))).reshape(u.shape)
        u = (conds[i] * u).reshape(reach[i - 1].shape + (-1,)).sum(axis=-1)
    grads[0] = u
    return grads


def policy_best_response(shapes, code: np.ndarray, u: np.ndarray) -> float:
    """max of sum(G * u) over every policy whose conditionals have these
    shapes, G its code_weights: policy_adjoint's backward walk with a max
    over x in place of the conditionals' weights. A linear function of the
    sequence form peaks at a vertex, a deterministic code-tree, so each
    history keeps its best input and its |Z| child rows' values add up into
    the (h, x) entry of the step before."""
    u = np.bincount(code.ravel(), u.ravel(), math.prod(shapes[-1])).reshape(shapes[-1])
    for i in range(len(shapes) - 1, 0, -1):
        u = u.max(axis=-1).reshape(shapes[i - 1] + (-1,)).sum(axis=-1)
    return float(u.max())


def policy_weight_table(q: CausalConditioning, y_card: int, feedback: FeedbackMap) -> np.ndarray:
    """Table W[xcode, ycode] = q(x^n || f(y)^{n-1}) over all path pairs: the
    one-policy stack of policy_weight_tables."""
    return policy_weight_tables([q], y_card, feedback)[0]


def policy_weight_tables(qs, y_card: int, feedback: FeedbackMap) -> np.ndarray:
    """Stack of the weight tables W[b, xcode, ycode] = qs[b](x^n || f(y)^{n-1})
    of policies of one horizon and alphabets, from their conditionals stacked
    step by step. A lone policy's steps are read with a leading axis added,
    so a zero-stride step stays a view."""
    q = qs[0]
    if any((p.horizon, p.x_card, p.z_card) != (q.horizon, q.x_card, q.z_card) for p in qs):
        raise ValidationError("stacked policies must share horizon and alphabets")
    if feedback.z_card != q.z_card:
        raise ValidationError("policy and feedback map disagree on |Z|")
    if feedback.table.size != y_card:
        raise ValidationError("feedback table does not cover the output alphabet")
    # measured peak 2.7 tables: the code, the last reach and its gather
    # through the code (half a table each at |Y| = 2), the shorter reach
    # and the weights
    check_table_bytes(len(qs) * q.x_card ** q.horizon * y_card ** q.horizon, 3, "policy weight table")
    code = history_code(q.x_card, feedback, q.horizon)
    if len(qs) == 1:
        conds = [c[None] for c in q.conditionals]
    else:
        conds = [np.stack(steps) for steps in zip(*(p.conditionals for p in qs))]
    # code_weights spread over every output axis the code does not span (the
    # last one, or all n without feedback)
    g = code_weights(sequence_reach(conds), code)
    return np.repeat(g, y_card ** q.horizon // g.shape[-1], axis=-1)


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
