"""Likelihood rankings over code-trees and their round-robin merge.

Each candidate channel induces a ranking of a tree set by likelihood of the
received sequence; merging the per-candidate rankings round-robin yields a
single decoder whose rank of any tree is within a factor of the candidate
count of each individual rank. Likelihoods are handled in the log domain
here; ties break on the canonical tree encoding so decisions are total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import causal_log_prob_rows, channel_prob_table
from .channel import CompoundFamily, FeedbackMap, FscSpec
from .codetree import Codebook, paths_rows
from .errors import ValidationError

SEPARABILITY_EXAMPLES = 10  # violations separability_check reports per member and in all


def tree_log_likelihood(fsc: FscSpec, tree, y, feedback: FeedbackMap, s0_prior=None) -> float:
    """log sum_s0 prior(s0) P(y || x(tree, f(y)), s0); -inf when impossible."""
    y = np.asarray(list(y), dtype=np.int64)
    if y.size != tree.depth:
        raise ValidationError("output length must match the tree depth")
    return float(batch_tree_log_likelihood(fsc, tree, y[None, :], feedback, s0_prior)[0])


def batch_tree_log_likelihood(
    fsc: FscSpec, tree, y_rows: np.ndarray, feedback: FeedbackMap, s0_prior=None
) -> np.ndarray:
    """tree_log_likelihood for each row of a (T, depth) output matrix: the one
    code-tree scorer, read by the decoders and by exact error enumeration."""
    y_rows = np.asarray(y_rows, dtype=np.int64)
    z_rows = feedback.table[y_rows[:, :-1]]
    x_rows = paths_rows(tree, z_rows)
    return causal_log_prob_rows(fsc, x_rows, y_rows, s0_prior)


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
    scored = sorted(
        zip(keys, trees),
        key=lambda kt: (-tree_log_likelihood(fsc, kt[1], y, feedback, s0_prior), kt[0]),
    )
    return RankingFunction(ordered_keys=tuple(k for k, _ in scored))


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

    def decode(self, cb: Codebook, y) -> int:
        return ml_decode(cb, y, self.fsc, self.feedback, self.s0_prior)


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

    def decode(self, cb: Codebook, y) -> int:
        return universal_decode(cb, y, self.family, self.feedback, self.s0_prior)


def _distinct_rows(rows: np.ndarray):
    """(distinct rows, inverse) with rows == distinct[inverse]: one lexsort
    over the columns, then a new-row mask and its running count."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty(rows.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _best_key_rows(cb: Codebook, y_rows, fsc, feedback, s0_prior) -> np.ndarray:
    """Row-wise message with the best (likelihood, key, index) tree. The
    decision is a function of the row alone, so each distinct row is scored
    once and its decision copied to every row equal to it."""
    keys, trees, owner = _codebook_key_table(cb)
    distinct, inverse = _distinct_rows(np.asarray(y_rows, dtype=np.int64))
    t = distinct.shape[0]
    best_ll = np.full(t, -np.inf)
    best_msg = np.full(t, owner[keys[0]], dtype=np.int64)
    for k, tree in zip(keys, trees):  # ascending keys: strict > keeps the smaller key on ties
        ll = batch_tree_log_likelihood(fsc, tree, distinct, feedback, s0_prior)
        better = ll > best_ll
        best_ll = np.where(better, ll, best_ll)
        best_msg = np.where(better, owner[k], best_msg)
    return best_msg[inverse]


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
