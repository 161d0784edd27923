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
not depth x rows x trees. Trees go through it in blocks whose level arrays
fit SCORER_BYTES, so a large codebook decodes in pieces, never in one
trees x rows table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import _as_prior, channel_prob_table, forward_step, step_table
from .channel import CompoundFamily, FeedbackMap, FscSpec
from .codetree import Codebook, node_columns
from .errors import ValidationError
from .util import chunk_digits

SEPARABILITY_EXAMPLES = 10  # violations separability_check reports per member and in all
# Budget for the level arrays of one block of trees in one worker thread:
# run_trials decodes one range of the run's distinct output rows per thread,
# so a run's scorer peak is worker_count() x SCORER_BYTES. On simulate-ml
# (64 trees, n = 12, two threads of about 4100 distinct rows each) peak RSS
# was 90 / 90 / 80 / 80 / 80 MB at 32 / 16 / 8 / 4 / 2 MiB; run time held
# from 32 down to 8 MiB and rose by about 40 % at 4 MiB and 60 % at 2 MiB.
SCORER_BYTES = 8 * 2 ** 20


def tree_log_likelihood(fsc: FscSpec, tree, y, feedback: FeedbackMap, s0_prior=None) -> float:
    """log sum_s0 prior(s0) P(y || x(tree, f(y)), s0); -inf when impossible."""
    y = np.asarray(list(y), dtype=np.int64)
    if y.size != tree.depth:
        raise ValidationError("output length must match the tree depth")
    return float(_log_likelihood_table(fsc, [tree], y[None, :], feedback, s0_prior)[0, 0])


def _log_likelihood_table(fsc: FscSpec, trees, y_rows, feedback: FeedbackMap, s0_prior) -> np.ndarray:
    """(trees, T) table of tree_log_likelihood for every tree and row of a
    (T, depth) output matrix: each distinct row scored once, block by block."""
    distinct, inverse = _distinct_rows(np.asarray(y_rows, dtype=np.int64))
    blocks = [
        _codebook_log_likelihoods(fsc, trees[lo:hi], distinct, feedback, s0_prior)
        for lo, hi in _tree_blocks(fsc, len(trees), *distinct.shape)
    ]
    return np.concatenate(blocks)[:, inverse]


def _codebook_log_likelihoods(fsc: FscSpec, trees, rows: np.ndarray, feedback: FeedbackMap, s0_prior) -> np.ndarray:
    """(trees, rows) table of tree_log_likelihood, the one code-tree scorer.

    rows are distinct and sorted lexicographically, column 0 most
    significant, as _distinct_rows returns them, so the rows sharing an
    output prefix y^i form one run. A tree's input at step i depends on y^i
    only through the feedback prefix, so the forward recursion runs once per
    (tree, run): at step i, alpha and log_acc hold one column per tree and
    length-i prefix, and each column extends its parent prefix's. Trees are
    walked in lockstep by node_columns, so they must share one shape.
    """
    t, n = rows.shape
    symbols = np.stack([tree.symbols for tree in trees])
    table = step_table(fsc)
    # new[r, i]: row r opens a new run of length-(i + 1) prefixes
    new = np.ones((t, n), dtype=bool)
    np.logical_or.accumulate(rows[1:] != rows[:-1], axis=1, out=new[1:])
    prefix = np.zeros(t, dtype=np.int64)  # each row's length-i prefix, numbered in run order
    alpha = np.broadcast_to(_as_prior(fsc, s0_prior)[:, None, None], (fsc.n_states, len(trees), 1))
    log_acc = np.zeros((len(trees), 1))
    cols = node_columns(trees[0], t)
    col = next(cols)
    for i in range(n):
        first = np.flatnonzero(new[:, i])  # first row of each length-(i + 1) prefix
        parent = prefix[first]
        log_acc = log_acc[:, parent]
        idx = symbols[:, col[first]] * fsc.n_outputs + rows[first, i]
        alpha = forward_step(alpha[:, :, parent], log_acc, table, idx)
        if i < n - 1:
            prefix = np.cumsum(new[:, i]) - 1
            col = cols.send(feedback.table[rows[:, i]])
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
    y = np.asarray(list(y), dtype=np.int64)
    if y.size != trees[0].depth:
        raise ValidationError("output length must match the tree depth")
    ll = _log_likelihood_table(fsc, trees, y[None, :], feedback, s0_prior)[:, 0].tolist()
    order = sorted(range(len(keys)), key=lambda j: (-ll[j], keys[j]))
    return RankingFunction(ordered_keys=tuple(keys[j] for j in order))


def merge_rankings(rankings) -> RankingFunction:
    """Round-robin merge: rank 1 of candidate 1, rank 1 of candidate 2, ...,
    skipping trees already placed. The merged rank of a tree at rank j under
    candidate k is at most (j-1)K + k."""
    rankings = list(rankings)
    if not rankings:
        raise ValidationError("need at least one ranking")
    domain = set(rankings[0].ordered_keys)
    for r in rankings[1:]:
        if set(r.ordered_keys) != domain:
            raise ValidationError("rankings must share a tree set")
    merged = []
    seen = set()
    for j in range(len(rankings[0])):
        for r in rankings:
            cand = r.ordered_keys[j]
            if cand not in seen:
                seen.add(cand)
                merged.append(cand)
    return RankingFunction(ordered_keys=tuple(merged))


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


def _distinct_rows(rows: np.ndarray):
    """(distinct rows, inverse) with rows == distinct[inverse], distinct
    sorted lexicographically with column 0 most significant: one lexsort
    over the columns packed mixed-radix into as few int64 keys as hold them
    (an unstable argsort when one key holds them: equal keys are equal rows);
    a row opens a new run where any key differs from the one sorted before
    it, and only each run's first row is gathered. Keys are packed a column
    at a time, so narrow rows are never copied whole into int64, and the
    step-major (n, T) tables run_trials passes as .T read contiguously."""
    card = int(rows.max(initial=0)) + 1
    width = chunk_digits(card)
    keys = []
    for j in range(0, rows.shape[1], width):
        key = np.zeros(rows.shape[0], dtype=np.int64)
        for col in rows.T[j : j + width]:
            key *= card
            key += col
        keys.append(key)
    order = keys[0].argsort() if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.zeros(rows.shape[0], dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(rows.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse


def _tree_blocks(fsc: FscSpec, n_trees: int, rows: int, depth: int) -> list:
    """(lo, hi) bounds of consecutive tree blocks, each small enough that the
    scorer's level arrays over `rows` distinct rows of length `depth` fit in
    SCORER_BYTES (a block of one tree when even that does not fit)."""
    # measured tracemalloc peak, in 8-byte cells: 2.5 |S| + 5.2 per (tree,
    # row) at |Y| = 2 and 2.3 |S| + 4.9 at |Y| = 3 (|S| = 1..4, 4- to 40-tree
    # blocks), the previous level's alpha and log_acc included, plus about
    # 15 per row at depth 10 for the arrays a block shares (two run masks of
    # depth / 8 cells, prefix numbers, node columns and their step
    # temporaries). The charge, 3 |S| + 8 per (tree, row) and depth / 4 + 13
    # per row, held every peak to at most 0.89 of it from 1000 rows up
    # (|Y| = 2, 3, depth 6..40, |S| = 1..6, 1 to 40 trees); below a few
    # hundred rows the scorer's fixed few KiB dominate.
    per_tree = 8 * rows * (3 * fsc.n_states + 8)
    shared = 8 * rows * (depth // 4 + 13)
    size = max(1, (SCORER_BYTES - shared) // max(per_tree, 1))
    return [(lo, min(lo + size, n_trees)) for lo in range(0, n_trees, size)]


def _best_key_rows(cb: Codebook, y_rows, fsc, feedback, s0_prior) -> np.ndarray:
    """Row-wise message with the best (likelihood, key, index) tree. The
    decision is a function of the row alone, so each distinct row is scored
    once, against a block of trees at a time, and its decision copied to
    every row equal to it."""
    keys, trees, owner = _codebook_key_table(cb)
    distinct, inverse = _distinct_rows(np.asarray(y_rows, dtype=np.int64))
    t = distinct.shape[0]
    best_ll = np.full(t, -np.inf)
    best = np.zeros(t, dtype=np.int64)
    for lo, hi in _tree_blocks(fsc, len(trees), *distinct.shape):
        ll = _codebook_log_likelihoods(fsc, trees[lo:hi], distinct, feedback, s0_prior)
        top = ll.argmax(axis=0)  # the first maximum: the smallest key on ties
        top_ll = ll[top, np.arange(t)]
        better = top_ll > best_ll  # strict: an earlier block keeps its smaller keys
        best_ll[better] = top_ll[better]
        best[better] = lo + top[better]
    messages = np.array([owner[k] for k in keys], dtype=np.int64)
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

    For each member, the representative with the fewest violations is chosen;
    a violation is a path pair above the threshold exp(-n(mu + ln|Y|)), with
    mu = 1 + ln|Y|, whose log-likelihood ratio leaves [-n*eps, n*eps] on the
    required side. Both laws start from a uniform initial state; the report
    keeps the first SEPARABILITY_EXAMPLES violations of each member, and of
    all members.
    """
    first = family.members[0]
    mu_nats = 1.0 + math.log(first.n_outputs)
    threshold = math.exp(-n * (mu_nats + math.log(first.n_outputs)))
    rep_tables = [(label, channel_prob_table(m, n, None)) for label, m in representatives]
    best_rep: dict = {}
    all_violations: list = []
    total = 0
    for label, m in family:
        p = channel_prob_table(m, n, None)
        best = None
        for rep_label, p_rep in rep_tables:
            viols = []
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.log(p) - np.log(p_rep)
            # member above threshold: member may not exceed e^{n eps} * rep
            mask_a = p > threshold
            excess_a = np.where(mask_a, ratio - n * eps_nats, -np.inf)
            # rep above threshold: member may not fall below e^{-n eps} * rep
            mask_b = p_rep > threshold
            excess_b = np.where(mask_b, -ratio - n * eps_nats, -np.inf)
            for side, excess in (("upper", excess_a), ("lower", excess_b)):
                bad = np.argwhere(excess > 1e-12)
                for xc, yc in bad:
                    viols.append(
                        SeparabilityViolation(
                            member=label,
                            x_code=int(xc),
                            y_code=int(yc),
                            side=side,
                            log_excess=float(excess[xc, yc]),
                        )
                    )
            score = (len(viols), max((v.log_excess for v in viols), default=0.0))
            if best is None or score < best[0]:
                best = (score, rep_label, viols)
        best_rep[label] = best[1]
        total += len(best[2])
        all_violations.extend(best[2][:SEPARABILITY_EXAMPLES])
    return SeparabilityReport(
        n=n,
        eps_nats=eps_nats,
        mu_nats=mu_nats,
        threshold=threshold,
        best_rep=best_rep,
        violation_count=total,
        violations=tuple(all_violations[:SEPARABILITY_EXAMPLES]),
    )
