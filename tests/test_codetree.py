import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import compound_fsc.codetree as codetree
from compound_fsc import ValidationError, sample_codebook, uniform_policy
from compound_fsc.causal import CausalConditioning, iid_policy, input_prob, random_policy
from compound_fsc.codetree import (
    Codebook,
    CodeTree,
    paths_rows,
    sample_codetree,
    sample_symbols,
    tree_code,
    tree_prob,
    tree_size,
)


def leaf_tree(symbols, depth, z_card=2):
    return CodeTree(depth=depth, x_card=2, z_card=z_card, symbols=np.array(symbols))


def test_tree_size_values():
    assert tree_size(1, 2) == 1
    assert tree_size(2, 2) == 3
    assert tree_size(3, 2) == 7
    assert tree_size(2, 3) == 4
    assert tree_size(5, 1) == 5
    with pytest.raises(ValidationError):
        tree_size(-1, 2)


def test_tree_size_matches_level_sum():
    for depth in range(0, 21):
        for z in (1, 2, 3):
            assert tree_size(depth, z) == sum(z**j for j in range(depth))


def test_codetree_validation():
    with pytest.raises(ValidationError):
        leaf_tree([0, 1], depth=2)  # needs 3 symbols
    with pytest.raises(ValidationError):
        leaf_tree([0, 2, 1], depth=2)  # symbol outside alphabet
    with pytest.raises(ValidationError, match="integers"):
        leaf_tree([0.5, 1.7, 0.0], depth=2)  # a cast would truncate to [0, 1, 0]


def test_codetree_stores_symbols_in_the_narrowest_dtype():
    assert leaf_tree([1, 0, 1], depth=2).symbols.dtype == np.uint8
    tree = CodeTree(depth=2, x_card=300, z_card=1, symbols=np.array([0, 299]))
    assert tree.symbols.dtype == np.uint16
    assert tree.symbols.tolist() == [0, 299]
    assert not tree.symbols.flags.writeable
    # checked as given: uint8 would read 256 as 0 and uint16 would read -1 as 65535
    for bad in ([0, -1], [0, 300]):
        with pytest.raises(ValidationError):
            CodeTree(depth=2, x_card=300, z_card=1, symbols=np.array(bad))
    with pytest.raises(ValidationError):
        leaf_tree([0, 256, 1], depth=2)


def test_tree_code_round_trip():
    tree = leaf_tree([1, 0, 1], depth=2)
    assert tree_code(tree) == 5  # binary digits in level order


def horner_code(symbols, x_card):
    code = 0
    for s in np.asarray(symbols).tolist():
        code = code * x_card + s
    return code


@pytest.mark.parametrize("x_card", [1, 2, 3, 5, 7, 16, 255])
def test_tree_code_matches_horner_oracle(x_card):
    # sizes 1..129 run below, at and across whole multiples of every chunk
    # width here (62 // log2|X| <= 62 digits); the all-top-digit vectors
    # fill each int64 chunk to its largest value
    rng = np.random.default_rng(x_card)
    for size in range(1, 130):
        for symbols in (rng.integers(x_card, size=size), np.full(size, x_card - 1)):
            tree = CodeTree(depth=size, x_card=x_card, z_card=1, symbols=symbols)
            assert tree_code(tree) == horner_code(symbols, x_card)


def test_tree_code_n12_binary_round_trip():
    rng = np.random.default_rng(12)
    tree = sample_codetree(uniform_policy(12, 2, 2), rng)
    code = tree_code(tree)
    assert code == horner_code(tree.symbols, 2) == tree.key


def test_tree_code_orders_trees_canonically():
    codes = set()
    for sym in itertools.product(range(2), repeat=3):
        codes.add(tree_code(leaf_tree(list(sym), depth=2)))
    assert codes == set(range(8))


def test_path_follows_feedback():
    tree = leaf_tree([1, 0, 1], depth=2)  # root emits 1, children 0 / 1
    assert paths_rows(tree, np.array([[0]]))[0].tolist() == [1, 0]
    assert paths_rows(tree, np.array([[1]]))[0].tolist() == [1, 1]
    with pytest.raises(ValidationError):
        paths_rows(tree, np.zeros((1, 0), dtype=np.int64))


def test_paths_rows_matches_scalar_path():
    rng = np.random.default_rng(113)
    q = random_policy(3, 2, 2, rng)
    tree = sample_codetree(q, rng)
    z_rows = np.array(list(itertools.product(range(2), repeat=2)))
    rows = paths_rows(tree, z_rows)
    for z, row in zip(z_rows, rows):
        assert row.tolist() == paths_rows(tree, np.array([z]))[0].tolist()


def test_deterministic_policy_gives_unique_tree():
    q = iid_policy(2, [0.0, 1.0], 2)
    rng = np.random.default_rng(0)
    tree = sample_codetree(q, rng)
    assert tree.symbols.tolist() == [1, 1, 1]
    assert tree_prob(q, tree) == 1.0


def test_tree_prob_product_oracle():
    rng = np.random.default_rng(127)
    q = random_policy(2, 2, 2, rng)
    for sym in itertools.product(range(2), repeat=3):
        tree = leaf_tree(list(sym), depth=2)
        x1, x20, x21 = sym
        want = (
            q.conditionals[0][0, x1]
            * q.conditionals[1][x1 * 2 + 0, x20]
            * q.conditionals[1][x1 * 2 + 1, x21]
        )
        assert tree_prob(q, tree) == pytest.approx(want, abs=1e-15)


def test_tree_probs_sum_to_one():
    rng = np.random.default_rng(131)
    q = random_policy(2, 2, 2, rng)
    total = math.fsum(
        tree_prob(q, leaf_tree(list(sym), depth=2))
        for sym in itertools.product(range(2), repeat=3)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sample_codetree_frequencies():
    q = uniform_policy(2, 2, 2)
    rng = np.random.default_rng(137)
    draws = 8000
    counts = {}
    for _ in range(draws):
        tree = sample_codetree(q, rng)
        counts[tree.key] = counts.get(tree.key, 0) + 1
    assert set(counts) == set(range(8))
    sigma = math.sqrt(0.125 * 0.875 / draws)
    for k in range(8):
        assert abs(counts[k] / draws - 0.125) <= 3 * sigma + 1e-12


@pytest.mark.parametrize(
    "n, x_card, z_card, seed, want",
    [
        (3, 2, 1, 41, [[0, 0, 1], [0, 0, 0], [0, 0, 1]]),
        (2, 3, 2, 43, [[2, 2, 0], [0, 1, 0], [0, 0, 1]]),
        (3, 2, 2, 47, [[0, 0, 0, 1, 1, 0, 1], [0, 0, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1, 1]]),
    ],
    ids=["no-feedback", "x3", "identity"],
)
def test_sample_codetree_stream_is_pinned(n, x_card, z_card, seed, want):
    # seeded codebooks (and so recorded simulations) depend on this exact
    # draw order: one uniform per node, level by level
    rng = np.random.default_rng(seed)
    q = random_policy(n, x_card, z_card, rng)
    assert [sample_codetree(q, rng).symbols.tolist() for _ in range(3)] == want



@pytest.mark.parametrize("n, x_card, z_card", [(3, 2, 1), (2, 3, 2), (3, 2, 2)])
def test_sample_symbols_is_the_stream_of_successive_trees(monkeypatch, n, x_card, z_card):
    # history-dependent policies (no zero-stride step), 7 trees drawn in
    # chunks of 2 (four chunks, the last partial), of one (a budget below one
    # tree's uniforms) and all at once
    q = random_policy(n, x_card, z_card, np.random.default_rng(59))
    assert all(c.strides[0] for c in q.conditionals)
    one = np.random.default_rng(61)
    want = np.stack([sample_codetree(q, one).symbols for _ in range(7)])
    after = one.random()
    per_tree = 8 * tree_size(n, z_card)
    for budget in (2 * per_tree + 7, per_tree - 1, 7 * per_tree):
        monkeypatch.setattr(codetree, "_DRAW_BYTES", budget)
        many = np.random.default_rng(61)
        got = sample_symbols(q, 7, many)
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)
        assert many.random() == after


def test_simulate_ml_codebook_is_pinned():
    # the benchmark's codebook, 8 draw chunks of 8 trees; the digest of its
    # symbols as little-endian int64 was recorded when they were drawn in
    # one rng.random call into an int64 table
    cb = sample_codebook(uniform_policy(12, 2, 2), 64, np.random.default_rng(0))
    symbols = np.stack([tree.symbols for tree in cb.trees]).astype("<i8")
    digest = hashlib.sha256(symbols.tobytes()).hexdigest()
    assert digest == "386e3e3d6be2a1ccf9780b0d3e1c3e36ec2bb027b274cc102afd01c68cad8041"


def _contiguous(q):
    return CausalConditioning(q.horizon, q.x_card, q.z_card, tuple(np.array(c) for c in q.conditionals))


def _iid_then_random(n, x_card, z_card, rng):
    """Zero-stride steps in front of contiguous ones, so that the histories
    must still be walked through the steps drawn against one CDF."""
    tail = random_policy(n, x_card, z_card, rng).conditionals[n // 2 :]
    head = iid_policy(n // 2, rng.dirichlet(np.ones(x_card)), z_card).conditionals
    return CausalConditioning(n, x_card, z_card, head + tail)


@pytest.mark.parametrize(
    "policy",
    [
        lambda rng: uniform_policy(5, 2, 2),
        lambda rng: iid_policy(4, [0.3, 0.2, 0.5], 2),
        lambda rng: iid_policy(3, [0.6, 0.4], 1),
        lambda rng: _iid_then_random(4, 2, 2, rng),
    ],
    ids=["uniform", "iid", "iid-no-feedback", "iid-then-random"],
)
def test_zero_stride_steps_draw_what_a_contiguous_copy_draws(policy):
    q = policy(np.random.default_rng(67))
    assert any(c.strides[0] == 0 for c in q.conditionals)
    one, copy = np.random.default_rng(71), np.random.default_rng(71)
    assert np.array_equal(sample_symbols(q, 9, one), sample_symbols(_contiguous(q), 9, copy))
    assert one.random() == copy.random()


def test_uniform_codebook_peak_memory():
    # the uniform policy is n zero-stride rows, drawn against one CDF with no
    # histories, so the peak is the uint8 symbol table, one chunk's uniforms
    # and the level temporaries, charged at 4 int64 cells per node of a
    # chunk's widest level (its draw, the previous level's and the cast into
    # the table), plus a 128 KiB margin: 1.12 MiB for 64 trees of 4095 nodes
    # (traced 0.88 MiB). What stays is the table and the trees, with 64 KiB
    # for the trees' objects (traced 0.26 MiB).
    q, count, size = uniform_policy(12, 2, 2), 64, tree_size(12, 2)
    sample_codebook(q, count, np.random.default_rng(1))  # first-call costs are not the draw's
    chunk = codetree._DRAW_BYTES // (8 * size)
    table = count * size
    tracemalloc.start()
    try:
        cb = sample_codebook(q, count, np.random.default_rng(0))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cb.m_count == count
    assert peak < table + 8 * chunk * size + 4 * 8 * chunk * 2**11 + 2**17
    assert kept < table + 2**16

def test_sampled_paths_have_positive_input_prob():
    rng = np.random.default_rng(139)
    q = random_policy(3, 2, 2, rng)
    for _ in range(20):
        tree = sample_codetree(q, rng)
        for zs in itertools.product(range(2), repeat=2):
            xs = paths_rows(tree, np.array([zs]))[0]
            assert input_prob(q, xs, zs) > 0.0


def test_codebook_shapes_and_rate():
    rng = np.random.default_rng(167)
    q = uniform_policy(2, 2, 2)
    cb = sample_codebook(q, 4, rng)
    assert cb.m_count == 4
    assert cb.depth == 2
    with pytest.raises(ValidationError):
        Codebook(trees=())
    twos = sample_codebook(uniform_policy(2, 2, 2), 1, rng)
    threes = sample_codebook(uniform_policy(3, 2, 2), 1, rng)
    with pytest.raises(ValidationError, match="share shape"):
        Codebook(trees=twos.trees + threes.trees)
