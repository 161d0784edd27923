"""Code-trees: feedback-dependent codewords stored as flat symbol vectors.

A depth-n tree over feedback alphabet Z holds one input symbol per node,
levels concatenated, nodes within a level ordered by the mixed-radix code of
their feedback history. This module alone knows that layout: everything
else reads a tree's symbols through paths_rows or node_columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .causal import CausalConditioning, child_histories
from .errors import ValidationError
from .util import cdf_draw, chunk_digits, sample_rows, symbol_dtype

# Most bytes of float64 uniforms sample_symbols draws at once: a chunk of
# whole trees, 8 trees of 4095 nodes at n = 12 with binary feedback. Sweep
# of sample_codebook(uniform_policy(12, 2, 2), 64) at 32 / 64 / 128 / 256 /
# 512 / 1024 KiB and one 2 MiB chunk: traced peak from a cold start 1.04 /
# 1.12 / 1.28 / 1.59 / 2.21 / 3.46 / 4.65 MiB (6.40 with int64 symbols),
# median time 5.5 / 3.6 / 2.6 / 2.1 / 2.2 / 2.4 / 3.4 ms; simulate-ml peak
# RSS, two 8 s runs each from 64 KiB to 1 MiB, 47.8-48.2 MB throughout, and
# 49.8 MB with one chunk (51.5 MB with int64 symbols).
_DRAW_BYTES = 256 * 2**10


def tree_size(depth: int, z_card: int) -> int:
    """Node count of a depth-n tree: (|Z|^n - 1)/(|Z| - 1), or n when |Z| = 1."""
    if depth < 0 or z_card < 1:
        raise ValidationError("depth must be >= 0 and z_card >= 1")
    if z_card == 1:
        return depth
    return (z_card ** depth - 1) // (z_card - 1)


@dataclass(frozen=True, eq=False)
class CodeTree:
    """A depth-n tree's symbols, read-only, in util.symbol_dtype(x_card), the
    narrowest dtype that holds 0..x_card - 1 (uint8 for binary input). They
    are validated as given, before that cast."""

    depth: int
    x_card: int
    z_card: int
    symbols: np.ndarray

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("depth must be >= 1")
        symbols = np.asarray(self.symbols)
        if symbols.dtype.kind not in "iu":  # a cast would truncate 0.5 to 0
            raise ValidationError(f"tree symbols must be integers, not {symbols.dtype}")
        want = tree_size(self.depth, self.z_card)
        if symbols.shape != (want,):
            raise ValidationError(f"symbol vector must have length {want}")
        if symbols.min() < 0 or symbols.max() >= self.x_card:
            raise ValidationError("symbols outside the input alphabet")
        symbols = np.ascontiguousarray(symbols, dtype=symbol_dtype(self.x_card))
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)

    @cached_property
    def key(self) -> int:
        return tree_code(self)


def tree_code(tree: CodeTree) -> int:
    """Canonical integer encoding: mixed-radix over the flat symbol vector.

    The symbols are first packed, by one matmul, into int64 chunks of
    `util.chunk_digits` digits (zero digits in front of a partial first
    chunk), so the big-int Horner loop runs once per chunk instead of once
    per symbol.
    """
    x_card, symbols = tree.x_card, tree.symbols
    width = chunk_digits(x_card)
    padded = np.concatenate([np.zeros(-symbols.size % width, dtype=np.int64), symbols])
    place = x_card ** np.arange(width - 1, -1, -1, dtype=np.int64)
    base = x_card**width
    code = 0
    for d in (padded.reshape(-1, width) @ place).tolist():
        code = code * base + d
    return code


def node_columns(tree: CodeTree, rows: int):
    """Walk `rows` feedback paths down trees shaped like `tree` in lockstep.

    A generator over positions in `tree.symbols` (levels in order): next()
    gives every row's step-1 node, and send(z) with the step's feedback
    symbols, one per row, gives the next step's node, depth - 1 times.
    """
    z = tree.z_card
    node = np.zeros(rows, dtype=np.int64)
    for j in range(tree.depth):
        fb = yield tree_size(j, z) + node
        node = node * z + fb


def paths_rows(tree: CodeTree, z_rows: np.ndarray) -> np.ndarray:
    """Row-wise tree paths for a matrix of feedback histories (T, depth-1)."""
    z_rows = np.asarray(z_rows, dtype=np.int64)
    t = z_rows.shape[0]
    if z_rows.shape[1] != tree.depth - 1:
        raise ValidationError("feedback matrix must have depth-1 columns")
    symbols = tree.symbols
    cols = node_columns(tree, t)
    out = np.empty((t, tree.depth), dtype=np.int64)
    out[:, 0] = symbols[next(cols)]
    for i in range(1, tree.depth):
        out[:, i] = symbols[cols.send(z_rows[:, i - 1])]
    return out


def sample_symbols(q: CausalConditioning, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` trees level by level, (count, D) symbols for D nodes a
    tree, in util.symbol_dtype(|X|): each node's symbol from the conditional
    for the (input, feedback) history spelled by its root path. The uniforms
    are drawn a chunk of whole trees at a time, at most _DRAW_BYTES of them
    (one tree when even that does not fit), tree t reading its D uniforms
    level by level; successive rng.random calls continue one stream, so the
    trees are those of `count` successive one-tree draws. A step whose rows
    are all one law (row stride 0) draws every node against that row's one
    CDF, and histories are walked only as far as the last step that reads
    them."""
    size = tree_size(q.horizon, q.z_card)
    symbols = np.empty((count, size), dtype=symbol_dtype(q.x_card))
    chunk = max(1, _DRAW_BYTES // (8 * size))
    walk = max((i for i, c in enumerate(q.conditionals) if c.strides[0]), default=0)
    for lo in range(0, count, chunk):
        trees = symbols[lo : lo + chunk]
        u = rng.random(trees.size).reshape(trees.shape)
        hist = np.zeros((trees.shape[0], 1), dtype=np.int64)
        for i, c in enumerate(q.conditionals):
            level = slice(tree_size(i, q.z_card), tree_size(i + 1, q.z_card))
            if c.strides[0]:
                x = sample_rows(c[hist.ravel()], u[:, level].ravel()).reshape(hist.shape)
            else:
                x = cdf_draw(c[0].cumsum()[:-1], u[:, level])
            trees[:, level] = x
            if i < walk:
                hist = child_histories(hist, x, q.x_card, q.z_card).reshape(trees.shape[0], -1)
    return symbols


def sample_codetree(q: CausalConditioning, rng: np.random.Generator) -> CodeTree:
    """Draw one tree: sample_symbols with count 1."""
    return CodeTree(depth=q.horizon, x_card=q.x_card, z_card=q.z_card, symbols=sample_symbols(q, 1, rng)[0])


def tree_prob(q: CausalConditioning, tree: CodeTree) -> float:
    """Probability that sample_codetree returns this tree: the product of the
    node conditionals over every node of the tree."""
    if (tree.depth, tree.x_card, tree.z_card) != (q.horizon, q.x_card, q.z_card):
        raise ValidationError("tree and policy shapes disagree")
    hist = np.zeros(1, dtype=np.int64)
    offset = 0
    p = 1.0
    for i in range(q.horizon):
        x = tree.symbols[offset : offset + hist.size]
        p *= float(np.prod(q.conditionals[i][hist, x]))
        offset += hist.size
        if i < q.horizon - 1:
            hist = child_histories(hist, x, q.x_card, q.z_card).reshape(-1)
    return p


@dataclass(frozen=True, eq=False)
class Codebook:
    """Ordered message-to-tree table; duplicates allowed and kept."""

    trees: tuple

    def __post_init__(self):
        trees = tuple(self.trees)
        if not trees:
            raise ValidationError("codebook must be non-empty")
        shapes = {(t.depth, t.x_card, t.z_card) for t in trees}
        if len(shapes) > 1:
            raise ValidationError("codebook trees must share shape")
        object.__setattr__(self, "trees", trees)

    @property
    def m_count(self) -> int:
        return len(self.trees)

    @property
    def depth(self) -> int:
        return self.trees[0].depth


def sample_codebook(q: CausalConditioning, m_count: int, rng: np.random.Generator) -> Codebook:
    if m_count < 1:
        raise ValidationError("m_count must be >= 1")
    trees = tuple(CodeTree(q.horizon, q.x_card, q.z_card, s) for s in sample_symbols(q, m_count, rng))
    return Codebook(trees=trees)
