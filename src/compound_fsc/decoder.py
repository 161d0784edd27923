"""Likelihood rankings over code-trees and their round-robin merge.

Each candidate channel induces a ranking of a tree set by likelihood of the
received sequence; merging the per-candidate rankings round-robin yields a
single decoder whose rank of any tree is within a factor of the candidate
count of each individual rank. Likelihoods are handled in the log domain
here; ties break on the canonical tree encoding so decisions are total.

There is one code-tree scorer, _codebook_log_likelihoods. A tree's input at
step i depends on the outputs only through the feedback prefix, so the
forward recursion factors over the distinct output prefixes: the scorer
runs it once per (tree, distinct prefix) for a block of trees at once, and
decoding costs about (distinct output prefixes) x (distinct trees) steps,
not depth x rows x trees. What does not depend on the trees, the prefix
plan, is built once per decode and read by every block. _scored_blocks, the
scorer's one driver, puts trees through it in blocks on worker_count()
threads, whose level arrays fit SCORER_BYTES together with that plan, so a
large codebook decodes in pieces, never in one trees x rows table.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .causal import _as_prior, channel_prob_table, forward_step, step_table
from .channel import CompoundFamily, FeedbackMap, FscSpec
from .codetree import Codebook, node_columns
from .errors import ValidationError
from .util import chunk_digits, symbol_dtype, worker_count

SEPARABILITY_EXAMPLES = 10  # violations separability_check reports in all
# Budget for a decode: its prefix plan and one block of trees on each of
# worker_count() threads (_tree_blocks). Sweep on simulate-ml (64 trees,
# n = 12, 4094 distinct rows, two threads on 2 CPUs), three runs at 2 / 4 /
# 8 / 16 MiB: run_s 0.088-0.093 / 0.071-0.077 / 0.053-0.056 / 0.048-0.054 s,
# peak RSS 52.9-53.1 / 53.1 / 53.1 / 58.7-58.8 MB. Below 8 MiB the extra
# blocks cost time and no memory: the drive phase, not decoding, sets that peak.
SCORER_BYTES = 8 * 2 ** 20


def tree_log_likelihood(fsc: FscSpec, tree, y, feedback: FeedbackMap, s0_prior=None) -> float:
    """log sum_s0 prior(s0) P(y || x(tree, f(y)), s0); -inf when impossible."""
    return float(_log_likelihood_table(fsc, [tree], [list(y)], feedback, s0_prior)[0, 0])


def _log_likelihood_table(fsc: FscSpec, trees, y_rows, feedback: FeedbackMap, s0_prior) -> np.ndarray:
    """(trees, T) table of tree_log_likelihood for every tree and row of a
    (T, depth) output matrix: each distinct row scored once, block by block."""
    distinct, inverse = _distinct_rows(_output_rows(y_rows, trees[0].depth, fsc.n_outputs))
    blocks = _scored_blocks(fsc, trees, distinct, feedback, s0_prior, lambda lo, ll: ll)
    return np.concatenate(list(blocks))[:, inverse]


def _output_rows(y_rows, depth: int, n_outputs: int) -> np.ndarray:
    """y_rows as an int64 (T, depth) table, refused unless it holds integers
    (not bools) and every row has `depth` outputs, each in 0..n_outputs - 1."""
    y = np.asarray(y_rows)
    if y.dtype.kind not in "iu":  # a cast would truncate 0.5 to 0
        raise ValidationError(f"outputs must be integers, not {y.dtype}")
    y = y.astype(np.int64, copy=False)
    if y.ndim != 2 or y.shape[1] != depth:
        raise ValidationError(f"output rows must be (rows, {depth}), got shape {y.shape}")
    if y.min(initial=0) < 0 or y.max(initial=0) >= n_outputs:
        raise ValidationError(f"outputs must lie in 0..{n_outputs - 1}")
    return y


@dataclass(frozen=True, eq=False)
class _PrefixPlan:
    """The part of the forward recursion over sorted distinct output rows
    that does not depend on the trees, built once per row range and read by
    every tree block. steps[i] = (parent, node, y): for each length-(i + 1)
    output prefix, in run order, the number of its length-i parent prefix,
    its tree node at step i + 1 and its last output. At most 3 x depth int64
    cells per row."""

    rows: np.ndarray
    steps: tuple


def _prefix_plan(tree, rows: np.ndarray, feedback: FeedbackMap) -> _PrefixPlan:
    """The prefix plan of int64 `rows` for trees shaped like `tree`. rows are
    distinct and sorted lexicographically, column 0 most significant, as
    _distinct_rows returns them (whether it counted their codes or sorted
    them), so the rows sharing an output prefix y^i form one run; a tree's
    input at step i depends on y^i only through the feedback prefix, so each
    run's first row stands for the whole run."""
    t, n = rows.shape
    # new[r, i]: row r opens a new run of length-(i + 1) prefixes
    new = np.ones((t, n), dtype=bool)
    np.logical_or.accumulate(rows[1:] != rows[:-1], axis=1, out=new[1:])
    prefix = np.zeros(t, dtype=np.int64)  # each row's length-i prefix, numbered in run order
    cols = node_columns(tree, t)
    col = next(cols)
    steps = []
    for i in range(n):
        first = np.flatnonzero(new[:, i])  # first row of each length-(i + 1) prefix
        steps.append((prefix[first], col[first], rows[first, i]))
        if i < n - 1:
            prefix = np.cumsum(new[:, i]) - 1
            col = cols.send(feedback.table[rows[:, i]])
    return _PrefixPlan(rows, tuple(steps))


def _codebook_log_likelihoods(fsc: FscSpec, trees, plan: _PrefixPlan, s0_prior) -> np.ndarray:
    """(trees, plan.rows) table of tree_log_likelihood, the one code-tree
    scorer. The forward recursion runs once per (tree, output prefix): at
    step i, alpha and log_acc hold one column per tree and length-i prefix,
    and each column extends its parent prefix's. Trees are walked in
    lockstep by the plan's node columns, so they must share one shape.
    The trees' narrow symbols are stacked as intp: in their own dtype,
    symbol * |Y| would wrap once |X| |Y| exceeds its range.
    """
    symbols = np.stack([tree.symbols for tree in trees], dtype=np.intp)
    table = step_table(fsc)
    alpha = np.broadcast_to(_as_prior(fsc, s0_prior)[:, None, None], (fsc.n_states, len(trees), 1))
    log_acc = np.zeros((len(trees), 1))
    for parent, node, y in plan.steps:
        log_acc = log_acc[:, parent]
        idx = symbols[:, node] * fsc.n_outputs + y
        alpha = forward_step(alpha[:, :, parent], log_acc, table, idx)
    return log_acc


@dataclass(frozen=True, eq=False)
class RankingFunction:
    """Bijection from tree keys to ranks 1..|B| for one received sequence."""

    ordered_keys: tuple

    def __post_init__(self):
        keys = tuple(self.ordered_keys)
        if len(set(keys)) != len(keys) or not keys:
            raise ValidationError("ranking needs distinct, non-empty keys")
        object.__setattr__(self, "ordered_keys", keys)
        object.__setattr__(self, "_rank", {k: i + 1 for i, k in enumerate(keys)})

    def rank(self, key) -> int:
        try:
            return self._rank[key]
        except KeyError:
            raise ValidationError("key not in the ranked set") from None

    def __len__(self) -> int:
        return len(self.ordered_keys)


def build_ranking(fsc: FscSpec, trees, y, feedback: FeedbackMap, s0_prior=None) -> RankingFunction:
    """Rank a tree set by decreasing likelihood of y, canonical key on ties."""
    trees = list(trees)
    keys = [t.key for t in trees]
    if len(set(keys)) != len(keys):
        raise ValidationError("tree set contains duplicates")
    if not trees:
        raise ValidationError("ranking needs distinct, non-empty keys")
    ll = _log_likelihood_table(fsc, trees, [list(y)], feedback, s0_prior)[:, 0].tolist()
    order = sorted(range(len(keys)), key=lambda j: (-ll[j], keys[j]))
    return RankingFunction(ordered_keys=tuple(keys[j] for j in order))


def merge_rankings(rankings) -> RankingFunction:
    """Round-robin merge: rank 1 of candidate 1, rank 1 of candidate 2, ...,
    skipping trees already placed. The merged rank of a tree at rank j under
    candidate k is at most (j-1)K + k. The one-case call of round_robin_ranks."""
    rankings = list(rankings)
    if not rankings:
        raise ValidationError("need at least one ranking")
    keys = rankings[0].ordered_keys
    domain = set(keys)
    for r in rankings[1:]:
        if set(r.ordered_keys) != domain:
            raise ValidationError("rankings must share a tree set")
    merged = [None] * len(keys)
    for key, rank in zip(keys, round_robin_ranks([[r.rank(k) for k in keys] for r in rankings]).tolist()):
        merged[rank - 1] = key
    return RankingFunction(ordered_keys=tuple(merged))


def round_robin_ranks(ranks) -> np.ndarray:
    """Merged ranks of the round-robin merge, (..., |B|), from a (..., K, |B|)
    array whose [..., k, t] is tree t's rank 1..|B| under candidate k + 1;
    leading axes are cases. The merge first reaches tree t at its slot
    min_k((rank_k(t) - 1)K + k), so the merged order is the order of the
    slots. Slots are distinct integers in 1..K|B|, so a tree's merged rank
    is the count of slots taken up to its own: counted, never sorted."""
    ranks = np.asarray(ranks, dtype=np.int64)
    big_k, b = ranks.shape[-2:]
    slots = ((ranks - 1) * big_k + np.arange(big_k)[:, None]).min(axis=-2)  # slot - 1
    taken = np.zeros(slots.shape[:-1] + (big_k * b,), dtype=bool)
    np.put_along_axis(taken, slots, True, axis=-1)
    return np.take_along_axis(np.cumsum(taken, axis=-1), slots, axis=-1)


def _codebook_key_table(cb: Codebook):
    """Distinct trees in canonical key order with their smallest message index."""
    rep: dict = {}
    owner: dict = {}
    for idx, tree in enumerate(cb.trees):
        k = tree.key
        if k not in rep:
            rep[k] = tree
            owner[k] = idx
    keys = sorted(rep)
    return keys, [rep[k] for k in keys], owner


def ml_decode(cb: Codebook, y, fsc: FscSpec, feedback: FeedbackMap, s0_prior=None) -> int:
    """Most likely message under one channel.

    Ties break first on the canonical tree encoding, then to the smallest
    message index among duplicates of the winning tree, matching the
    single-candidate merge exactly.
    """
    keys, trees, owner = _codebook_key_table(cb)
    ranking = build_ranking(fsc, trees, y, feedback, s0_prior)
    return owner[ranking.ordered_keys[0]]


def universal_decode(
    cb: Codebook, y, family: CompoundFamily, feedback: FeedbackMap, s0_prior=None
) -> int:
    """Decode via the merged ranking over all family members."""
    keys, trees, owner = _codebook_key_table(cb)
    rankings = [build_ranking(m, trees, y, feedback, s0_prior) for _, m in family]
    merged = merge_rankings(rankings)
    return owner[merged.ordered_keys[0]]


class MLDecoder:
    """Batch decoder tuned to a single channel member."""

    def __init__(self, fsc: FscSpec, feedback: FeedbackMap, s0_prior=None):
        self.fsc = fsc
        self.feedback = feedback
        self.s0_prior = s0_prior

    def decode_rows(self, cb: Codebook, y_rows: np.ndarray) -> np.ndarray:
        return _best_key_rows(cb, y_rows, self.fsc, self.feedback, self.s0_prior)


class UniversalDecoder:
    """Batch decoder that merges the per-member rankings round-robin."""

    def __init__(self, family: CompoundFamily, feedback: FeedbackMap, s0_prior=None):
        self.family = family
        self.feedback = feedback
        self.s0_prior = s0_prior

    def decode_rows(self, cb: Codebook, y_rows: np.ndarray) -> np.ndarray:
        # The merged rank-1 tree is the first member's likelihood winner, so
        # batch decoding only needs that member's scores; agreement with the
        # explicit merge is covered by tests.
        first = self.family.members[0]
        return _best_key_rows(cb, y_rows, first, self.feedback, self.s0_prior)


# Bytes per code of the counting dedupe's tables (a bool presence table and
# an int64 numbering) and per row of the sort's arrays beside the inverse (an
# int64 order, sorted keys and run numbers, and a bool run mask): rows whose
# code space's tables take no more bytes than the sort's are numbered by
# counting, others are sorted.
_CODE_TABLE_BYTES = 9
_SORT_ROW_BYTES = 25


def _pack_rows(cols, card: int, keys: np.ndarray) -> None:
    """Pack the rows whose column j is cols[j] into the (keys, rows) table
    `keys`, mixed-radix in base `card`, chunk_digits(card) columns a key and
    column 0 most significant. Columns are packed one at a time, so narrow
    rows are never copied whole into a wider dtype, and step-major (n, T)
    tables pass their columns contiguously."""
    width = chunk_digits(card)
    for key, j in zip(keys, range(0, len(cols), width)):
        key.fill(0)
        for col in cols[j : j + width]:
            key *= card
            key += col


def _distinct_rows(rows: np.ndarray):
    """(distinct rows, inverse) with rows == distinct[inverse], distinct
    sorted lexicographically with column 0 most significant and in rows'
    dtype, inverse int64. The rows are packed into int64 keys by _pack_rows
    in base max + 1 and deduplicated by _distinct_keys: when one key holds a
    row and the code space is small next to the rows, by numbering the codes
    in a presence table, else by one lexsort; both give the same result."""
    card = int(rows.max(initial=0)) + 1
    keys = np.empty((-(-rows.shape[1] // chunk_digits(card)), rows.shape[0]), dtype=np.int64)
    _pack_rows(rows.T, card, keys)
    distinct, spread = _distinct_keys(rows, keys, card)
    return distinct, spread(np.arange(distinct.shape[0], dtype=np.int64))


def _distinct_keys(rows: np.ndarray, keys: np.ndarray, card: int):
    """(distinct, spread) for `rows`, given their keys as _pack_rows packs
    them in base `card`: distinct as _distinct_rows returns it, and
    spread(values) = values[inverse], one value per distinct row copied to
    every row equal to it. When one key holds a row and the code space's
    tables take no more bytes than the sort's per-row arrays, the codes are
    numbered by counting, in O(rows + card^n): a presence table marks each
    code seen, its cumulative sum numbers the codes in sorted order, the
    distinct rows are the marked codes unpacked, and spread reads values
    through a per-code table, so no per-row inverse is held. Otherwise one
    lexsort over the keys (an unstable argsort for one key: equal keys are
    equal rows) finds the runs of equal keys, and each run's first row is
    gathered."""
    t, n = rows.shape
    if len(keys) == 1 and _CODE_TABLE_BYTES * card**n <= _SORT_ROW_BYTES * t:
        seen = np.zeros(card**n, dtype=bool)
        seen[keys[0]] = True
        number = np.cumsum(seen, dtype=np.int64)
        number -= 1
        codes = np.flatnonzero(seen)
        distinct = np.empty((codes.size, n), dtype=rows.dtype)
        for j in range(n - 1, -1, -1):
            codes, distinct[:, j] = np.divmod(codes, card)
        return distinct, lambda values: values[number][keys[0]]
    order = keys[0].argsort() if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.zeros(t, dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(t, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], lambda values: values[inverse]


def _tree_blocks(fsc: FscSpec, trees, rows: int) -> list:
    """(lo, hi) bounds of consecutive blocks of `trees`, each small enough
    that the prefix plan over `rows` distinct rows and one block on each of
    worker_count() threads fit SCORER_BYTES together (a block of one tree
    when even that does not fit)."""
    shared, per_tree = _block_charge(fsc, trees, rows)
    size = max(1, (SCORER_BYTES - shared) // worker_count() // per_tree)
    return [(lo, min(lo + size, len(trees))) for lo in range(0, len(trees), size)]


def _block_charge(fsc: FscSpec, trees, rows: int):
    """(shared, per_tree) bytes _tree_blocks charges a decode over `rows`
    distinct rows: the plan's and the arrays a block shares, and one tree's."""
    # Charged in 8-byte cells. Per (tree, row) 3 |S| + 8: the block's level
    # arrays, the previous level's alpha and log_acc included, traced at
    # 2.5 |S| + 5.2 at |Y| = 2 and 2.3 |S| + 4.9 at |Y| = 3; per tree its
    # symbols, stacked as intp. Per row the plan's at most 3 depth cells, and
    # depth / 4 + 13 for the run masks, prefix numbers and node columns the
    # plan is built with and the per-row arrays of a block. Traced peaks of building
    # the plan and scoring one block against it held to at most 0.94 of the
    # charge (|Y| = 2, 3, depth 6..40, |S| = 1, 2, 3, 6, 1 to 40 trees, 60
    # to 4000 distinct rows), and to 0.86 from 900 rows up.
    depth, nodes = trees[0].depth, trees[0].symbols.size
    return 8 * rows * (3 * depth + depth // 4 + 13), 8 * (rows * (3 * fsc.n_states + 8) + nodes)


def _scored_blocks(fsc: FscSpec, trees, rows: np.ndarray, feedback: FeedbackMap, s0_prior, reduce):
    """reduce(lo, ll) for each block trees[lo:hi] of _tree_blocks, in block
    order, ll the block's tree_log_likelihood table over `rows`, distinct and
    sorted as _distinct_rows returns them. The blocks read one prefix plan
    and are scored and reduced on worker_count() threads, so only the blocks
    in flight hold a table; when the budget beside the plan holds fewer
    blocks than there are threads, as few run at once, down to one. A block
    is submitted only once the one that many places before it is taken, so
    finished reductions never pile up behind the caller."""
    plan = _prefix_plan(trees[0], rows, feedback)

    def score(lo, hi):
        return reduce(lo, _codebook_log_likelihoods(fsc, trees[lo:hi], plan, s0_prior))

    blocks = _tree_blocks(fsc, trees, rows.shape[0])
    shared, per_tree = _block_charge(fsc, trees, rows.shape[0])
    held = (SCORER_BYTES - shared) // ((blocks[0][1] - blocks[0][0]) * per_tree)
    workers = max(1, min(worker_count(), len(blocks), held))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, hi in blocks:
            pending.append(pool.submit(score, lo, hi))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _best_key_rows(cb: Codebook, y_rows, fsc, feedback, s0_prior) -> np.ndarray:
    """Row-wise message with the best (likelihood, key, index) tree, in
    `symbol_dtype(M)` as run_trials' messages. The decision is a function of
    the row alone, so each distinct row is scored once and its decision
    copied to every row equal to it."""
    keys, trees, owner = _codebook_key_table(cb)
    distinct, inverse = _distinct_rows(_output_rows(y_rows, cb.depth, fsc.n_outputs))
    t = distinct.shape[0]

    def block_best(lo, ll):
        top = ll.argmax(axis=0)  # the first maximum: the smallest key on ties
        return lo + top, ll[top, np.arange(t)]

    best_ll = np.full(t, -np.inf)
    best = np.zeros(t, dtype=np.int64)
    for top, top_ll in _scored_blocks(fsc, trees, distinct, feedback, s0_prior, block_best):
        better = top_ll > best_ll  # strict: an earlier block keeps its smaller keys
        best_ll[better] = top_ll[better]
        best[better] = top[better]
        del top, top_ll  # freed before the next block is taken
    messages = np.array([owner[k] for k in keys], dtype=symbol_dtype(cb.m_count))
    return messages[best][inverse]


@dataclass(frozen=True)
class SeparabilityViolation:
    member: str
    x_code: int
    y_code: int
    side: str
    log_excess: float


@dataclass(frozen=True, eq=False)
class SeparabilityReport:
    n: int
    eps_nats: float
    mu_nats: float
    threshold: float
    best_rep: dict
    violation_count: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def separability_check(
    family: CompoundFamily,
    representatives: CompoundFamily,
    n: int,
    eps_nats: float,
) -> SeparabilityReport:
    """Exhaustive two-sided likelihood-ratio check of representative coverage.

    For each member, the representative with the fewest violations (then
    the smallest largest excess) is chosen; a violation is a path pair above
    the threshold exp(-n(mu + ln|Y|)), with mu = 1 + ln|Y|, whose
    log-likelihood ratio leaves [-n*eps, n*eps] on the required side. Both
    laws start from a uniform initial state. Violations are counted with
    array operations; the report keeps the first SEPARABILITY_EXAMPLES of
    them, member by member, each member's upper side first and then its
    lower, each in argwhere order, and builds no others.
    """
    first = family.members[0]
    mu_nats = 1.0 + math.log(first.n_outputs)
    threshold = math.exp(-n * (mu_nats + math.log(first.n_outputs)))
    rep_tables = [(label, channel_prob_table(m, n, None)) for label, m in representatives]
    best_rep: dict = {}
    examples: list = []
    total = 0
    for label, m in family:
        p = channel_prob_table(m, n, None)
        best = None
        for rep_label, p_rep in rep_tables:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.log(p) - np.log(p_rep)
            # member above threshold: member may not exceed e^{n eps} * rep
            excess_a = np.where(p > threshold, ratio - n * eps_nats, -np.inf)
            # rep above threshold: member may not fall below e^{-n eps} * rep
            excess_b = np.where(p_rep > threshold, -ratio - n * eps_nats, -np.inf)
            sides = (("upper", excess_a), ("lower", excess_b))
            bad = [excess[excess > 1e-12] for _, excess in sides]
            score = (sum(b.size for b in bad), max((float(b.max()) for b in bad if b.size), default=0.0))
            if best is None or score < best[0]:
                best = (score, rep_label, sides)
        best_rep[label] = best[1]
        total += best[0][0]
        # objects only for the violations the report keeps, upper side first
        for side, excess in best[2]:
            for xc, yc in np.argwhere(excess > 1e-12)[: SEPARABILITY_EXAMPLES - len(examples)]:
                examples.append(
                    SeparabilityViolation(
                        member=label, x_code=int(xc), y_code=int(yc), side=side, log_excess=float(excess[xc, yc])
                    )
                )
    return SeparabilityReport(
        n=n,
        eps_nats=eps_nats,
        mu_nats=mu_nats,
        threshold=threshold,
        best_rep=best_rep,
        violation_count=total,
        violations=tuple(examples),
    )
