import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import compound_fsc.decoder as decoder_mod
from compound_fsc import (
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    MLDecoder,
    ValidationError,
    bsc,
    identity_feedback,
    load_preset,
    no_feedback,
    sample_codebook,
    uniform_policy,
)
from compound_fsc.causal import causal_log_prob_rows
from compound_fsc.channel import make_memoryless
from compound_fsc.codetree import Codebook, CodeTree, paths_rows
from compound_fsc.decoder import (
    RankingFunction,
    SeparabilityReport,
    UniversalDecoder,
    build_ranking,
    merge_rankings,
    ml_decode,
    round_robin_ranks,
    separability_check,
    tree_log_likelihood,
    universal_decode,
)
from compound_fsc.util import enumerate_paths
from compound_fsc.verify import random_family, random_fsc
from oracles import round_robin_merge, separability_per_violation


def leaf_tree(symbols, depth):
    return CodeTree(depth=depth, x_card=2, z_card=2, symbols=np.array(symbols))


def all_depth2_trees():
    return [leaf_tree(list(sym), 2) for sym in itertools.product(range(2), repeat=3)]


def test_tree_likelihood_noiseless():
    fsc = make_memoryless(np.eye(2))
    fb = identity_feedback((0, 1))
    tree = leaf_tree([1, 0, 1], 2)
    # feedback after y1=1 steers to the right child, which emits 1
    assert math.exp(tree_log_likelihood(fsc, tree, [1, 1], fb)) == pytest.approx(1.0)
    assert math.exp(tree_log_likelihood(fsc, tree, [1, 0], fb)) == 0.0
    assert tree_log_likelihood(fsc, tree, [1, 0], fb) == -math.inf


def test_tree_likelihood_memoryless_product():
    fsc = bsc(0.2)
    fb = identity_feedback((0, 1))
    tree = leaf_tree([0, 1, 0], 2)
    # y = (0, 0): path is (0, 1), so the second symbol flips
    assert math.exp(tree_log_likelihood(fsc, tree, [0, 0], fb)) == pytest.approx(0.8 * 0.2)
    # y = (1, 1): path is (0, 0): flip then flip
    assert math.exp(tree_log_likelihood(fsc, tree, [1, 1], fb)) == pytest.approx(0.2 * 0.2)


def test_tree_likelihood_state_enumeration_oracle():
    rng = np.random.default_rng(179)
    fsc = random_fsc(rng, 2, 2, 2)
    fb = identity_feedback((0, 1))
    tree = leaf_tree([1, 1, 0], 2)
    for y in itertools.product(range(2), repeat=2):
        xs = [tree.symbols[0], tree.symbols[1 + y[0]]]
        want = 0.0
        for s0 in range(2):
            acc = 0.0
            for s1 in range(2):
                for s2 in range(2):
                    acc += fsc.kernel[s0, xs[0], y[0], s1] * fsc.kernel[s1, xs[1], y[1], s2]
            want += 0.5 * acc
        got = math.exp(tree_log_likelihood(fsc, tree, y, fb))  # uniform prior by default
        assert got == pytest.approx(want, abs=1e-13)


def test_build_ranking_orders_by_likelihood():
    fsc = bsc(0.1)
    fb = identity_feedback((0, 1))
    trees = all_depth2_trees()
    y = [1, 1]
    ranking = build_ranking(fsc, trees, y, fb)
    lls = {t.key: tree_log_likelihood(fsc, t, y, fb) for t in trees}
    ordered = ranking.ordered_keys
    for a, b in zip(ordered, ordered[1:]):
        assert (lls[a], -a) >= (lls[b], -b)  # descending ll, ascending key on ties
    assert len(ranking) == 8
    assert sorted(ordered) == list(range(8))


def test_build_ranking_tie_canonical_order():
    fsc = bsc(0.5)  # every tree equally likely
    fb = identity_feedback((0, 1))
    ranking = build_ranking(fsc, all_depth2_trees(), [0, 1], fb)
    assert ranking.ordered_keys == tuple(range(8))


def test_ranking_function_validation():
    with pytest.raises(ValidationError):
        RankingFunction(ordered_keys=(1, 1, 2))
    r = RankingFunction(ordered_keys=(5, 3, 1))
    assert r.rank(5) == 1
    assert r.rank(1) == 3
    with pytest.raises(ValidationError):
        r.rank(2)


def test_merge_single_ranking_is_identity():
    r = RankingFunction(ordered_keys=(4, 2, 7))
    merged = merge_rankings([r])
    assert merged.ordered_keys == r.ordered_keys


def test_merge_two_reversed_rankings():
    r1 = RankingFunction(ordered_keys=(0, 1, 2))
    r2 = RankingFunction(ordered_keys=(2, 1, 0))
    merged = merge_rankings([r1, r2])
    # round robin: 0 (r1,1), 2 (r2,1), 1 (r1,2); r2's later picks all dupes
    assert merged.ordered_keys == (0, 2, 1)


def test_merge_rank_bounds():
    rng = np.random.default_rng(181)
    keys = list(range(8))
    for _ in range(50):
        k_members = int(rng.integers(1, 4))
        rankings = []
        for _ in range(k_members):
            perm = rng.permutation(keys)
            rankings.append(RankingFunction(ordered_keys=tuple(int(v) for v in perm)))
        merged = merge_rankings(rankings)
        for key in keys:
            m_rank = merged.rank(key)
            best = min(r.rank(key) for r in rankings)
            for k_idx, r in enumerate(rankings, start=1):
                assert m_rank <= (r.rank(key) - 1) * k_members + k_idx
            assert m_rank <= k_members * best


def test_merge_is_bijection():
    r1 = RankingFunction(ordered_keys=(3, 1, 0, 2))
    r2 = RankingFunction(ordered_keys=(2, 3, 1, 0))
    merged = merge_rankings([r1, r2])
    assert sorted(merged.ordered_keys) == [0, 1, 2, 3]


def test_merge_is_the_round_robin_walk_on_every_small_permutation_tuple():
    for b in range(1, 5):
        perms = [RankingFunction(ordered_keys=p) for p in itertools.permutations("abcd"[:b])]
        for big_k in range(1, 4):
            for combo in itertools.product(perms, repeat=big_k):
                assert merge_rankings(combo).ordered_keys == round_robin_merge(combo)


def test_merge_is_the_round_robin_walk_on_random_rankings():
    rng = np.random.default_rng(35)
    for _ in range(200):
        keys = [f"t{v}" for v in rng.permutation(int(rng.integers(1, 9)))]
        rankings = [
            RankingFunction(ordered_keys=tuple(keys[v] for v in rng.permutation(len(keys))))
            for _ in range(int(rng.integers(1, 6)))
        ]
        assert merge_rankings(rankings).ordered_keys == round_robin_merge(rankings)


def test_stacked_merge_is_the_one_case_merge_case_by_case():
    rng = np.random.default_rng(36)
    for b, big_k in ((1, 1), (1, 3), (4, 1), (5, 2), (8, 3)):
        ranks = np.stack(
            [[rng.permutation(b) + 1 for _ in range(big_k)] for _ in range(12)]
        ).reshape(3, 4, big_k, b)
        stacked = round_robin_ranks(ranks)
        assert stacked.shape == (3, 4, b)
        for case in np.ndindex(3, 4):
            assert np.array_equal(stacked[case], round_robin_ranks(ranks[case]))
            rankings = [RankingFunction(ordered_keys=tuple(np.argsort(row).tolist())) for row in ranks[case]]
            merged = merge_rankings(rankings)
            assert [merged.rank(t) for t in range(b)] == stacked[case].tolist()


def test_merge_requires_shared_domain():
    r1 = RankingFunction(ordered_keys=(0, 1))
    r2 = RankingFunction(ordered_keys=(1, 2))
    with pytest.raises(ValidationError):
        merge_rankings([r1, r2])
    with pytest.raises(ValidationError):
        merge_rankings([])


def test_ml_decode_unique_winner_and_duplicates():
    fsc = bsc(0.05)
    fb = identity_feedback((0, 1))
    t_zero = leaf_tree([0, 0, 0], 2)
    t_one = leaf_tree([1, 1, 1], 2)
    cb = Codebook(trees=(t_zero, t_one))
    assert ml_decode(cb, [0, 0], fsc, fb) == 0
    assert ml_decode(cb, [1, 1], fsc, fb) == 1
    # duplicate winning tree: smallest message index wins
    cb_dup = Codebook(trees=(t_one, t_zero, t_zero))
    assert ml_decode(cb_dup, [0, 0], fsc, fb) == 1


def test_ml_decode_matches_argmax_oracle():
    rng = np.random.default_rng(191)
    fb = identity_feedback((0, 1))
    for _ in range(10):
        fsc = random_fsc(rng, 2, 2, 2)
        cb = sample_codebook(uniform_policy(2, 2, 2), 4, rng)
        for y in itertools.product(range(2), repeat=2):
            got = ml_decode(cb, y, fsc, fb)
            scored = []
            for idx, tree in enumerate(cb.trees):
                ll = tree_log_likelihood(fsc, tree, y, fb)
                scored.append((-ll, tree.key, idx))
            want = min(scored)[2]
            assert got == want


def test_universal_single_member_equals_ml():
    rng = np.random.default_rng(193)
    fsc = random_fsc(rng, 2, 2, 2)
    fam = CompoundFamily(members=(fsc,), labels=("only",))
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(3, 2, 2), 5, rng)
    for y in itertools.product(range(2), repeat=3):
        assert universal_decode(cb, y, fam, fb) == ml_decode(cb, y, fsc, fb)


def test_batch_decoders_match_scalar_paths():
    rng = np.random.default_rng(197)
    fam = random_family(rng, 3, n_states=2)
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(3, 2, 2), 4, rng)
    y_rows = rng.integers(0, 2, size=(64, 3))
    uni = UniversalDecoder(fam, fb)
    got_u = uni.decode_rows(cb, y_rows)
    want_u = [universal_decode(cb, y, fam, fb) for y in y_rows]
    assert got_u.tolist() == want_u
    ml = MLDecoder(fam.members[1], fb)
    got_m = ml.decode_rows(cb, y_rows)
    want_m = [ml_decode(cb, y, fam.members[1], fb) for y in y_rows]
    assert got_m.tolist() == want_m


def test_decode_rows_on_repeated_shuffled_rows_equals_row_by_row():
    rng = np.random.default_rng(199)
    fam = random_family(rng, 2, n_states=2)
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(4, 2, 2), 5, rng)
    # message k >= 5 repeats the tree of message 9 - k, so it never wins
    cb = Codebook(trees=cb.trees + cb.trees[::-1])
    y_rows = rng.permutation(np.repeat(enumerate_paths(2, 4), 3, axis=0))
    for dec in (MLDecoder(fam.members[1], fb), UniversalDecoder(fam, fb)):
        got = dec.decode_rows(cb, y_rows)
        want = [int(dec.decode_rows(cb, y[None, :])[0]) for y in y_rows]
        assert got.tolist() == want
        assert got.max() < 5


def test_decode_rows_scores_each_distinct_row_once(monkeypatch):
    scored = []
    real = decoder_mod._codebook_log_likelihoods

    def spy(fsc, trees, plan, s0_prior):
        scored.append((len(trees), plan))
        return real(fsc, trees, plan, s0_prior)

    monkeypatch.setattr(decoder_mod, "_codebook_log_likelihoods", spy)
    rng = np.random.default_rng(211)
    fsc = random_fsc(rng, 2, 2, 2)
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(3, 2, 2), 4, rng)
    y_rows = rng.integers(0, 2, size=(200, 3))
    distinct = {tuple(r) for r in y_rows.tolist()}
    tree_count = len({t.key for t in cb.trees})
    # one call per tree block: one block by default, one tree per block at a 1-byte budget
    for budget, calls in ((decoder_mod.SCORER_BYTES, 1), (1, tree_count)):
        monkeypatch.setattr(decoder_mod, "SCORER_BYTES", budget)
        scored.clear()
        MLDecoder(fsc, fb).decode_rows(cb, y_rows)
        assert len(scored) == calls
        assert sum(count for count, _ in scored) == tree_count
        assert len({id(plan) for _, plan in scored}) == 1  # every block reads one prefix plan
        for _, plan in scored:
            rows = plan.rows
            assert {tuple(r) for r in rows.tolist()} == distinct
            assert rows.shape[0] == len(distinct)
            assert rows.tolist() == sorted(rows.tolist())  # each output prefix is one run


def _distinct_rows_cases():
    rng = np.random.default_rng(233)
    wide = rng.integers(0, 3, size=(400, 50))  # 39 base-3 digits per int64 key: two keys
    wide[200:] = wide[:200]
    tail = np.repeat(wide[:1], 6, axis=0)
    tail[:, -1] = [2, 0, 1, 0, 2, 1]  # rows equal in their first key
    narrow = rng.integers(0, 2, size=(7, 300))
    # 2^10 codes of 10 binary outputs: counted from `least` rows up, sorted below
    least = -(-decoder_mod._CODE_TABLE_BYTES * 2 ** 10 // decoder_mod._SORT_ROW_BYTES)
    return {
        "two-keys": wide,
        "second-key-differs": tail,
        "no-rows": np.zeros((0, 4), dtype=np.int64),
        "one-row": np.array([[1, 0, 2]]),
        "all-equal": np.full((9, 5), 2),
        "f-ordered": narrow.T,  # a transposed view, as run_trials passes its step-major table
        "three-outputs": rng.integers(0, 3, size=(200, 5)).astype(np.uint8),
        "counted-at-the-bound": rng.integers(0, 2, size=(least, 10)),
        "sorted-below-the-bound": rng.integers(0, 2, size=(least - 1, 10)),
    }


@pytest.mark.parametrize("name", sorted(_distinct_rows_cases()))
def test_distinct_rows_matches_unique_oracle(monkeypatch, name):
    rows = _distinct_rows_cases()[name]
    distinct, inverse = decoder_mod._distinct_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert distinct.shape == want.shape and np.array_equal(distinct, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(distinct[inverse], rows)
    assert distinct.dtype == rows.dtype and inverse.dtype == np.int64
    # the same result, dtypes included, with sorting forced, then with
    # counting wherever one key holds a row (two-keys always sorts)
    for bound in (0, 10 ** 30):
        monkeypatch.setattr(decoder_mod, "_SORT_ROW_BYTES", bound)
        for got, kept in zip(decoder_mod._distinct_rows(rows), (distinct, inverse)):
            assert got.dtype == kept.dtype and got.shape == kept.shape and np.array_equal(got, kept)


ROW_MISFITS = {
    "short": [[0, 1, 0]],
    "long": [[0, 1, 0, 1, 0]],
    "negative": [[0, -1, 0, 1]],
    "past-the-alphabet": [[0, 1, 2, 1]],
}


@pytest.mark.parametrize("decoder", ["ml", "universal"])
@pytest.mark.parametrize("misfit", sorted(ROW_MISFITS))
def test_decode_rows_refuses_rows_that_do_not_fit_the_codebook(decoder, misfit):
    fam = load_preset("ge-gap")
    fb = identity_feedback(fam.members[0].outputs)
    cb = sample_codebook(uniform_policy(4, 2, 2), 4, np.random.default_rng(257))
    dec = MLDecoder(fam.members[0], fb) if decoder == "ml" else UniversalDecoder(fam, fb)
    assert dec.decode_rows(cb, [[0, 1, 0, 1]]).shape == (1,)
    with pytest.raises(ValidationError):
        dec.decode_rows(cb, ROW_MISFITS[misfit])


@pytest.mark.parametrize("row", [[0.5, 1.9, 0.0], [0.7, 1.2, 0.0], [True, False, True]], ids=["0.5", "0.7", "bool"])
def test_every_entry_point_refuses_outputs_that_are_not_integers(row):
    # a cast to int64 would decode [0.5, 1.9, 0.0] as [0, 1, 0]
    fsc = bsc(0.1)
    fb = identity_feedback(fsc.outputs)
    cb = sample_codebook(uniform_policy(3, 2, 2), 4, np.random.default_rng(263))
    trees = decoder_mod._codebook_key_table(cb)[1]
    for dec in (MLDecoder(fsc, fb), UniversalDecoder(CompoundFamily(members=(fsc,), labels=("a",)), fb)):
        assert dec.decode_rows(cb, [[0, 1, 0]]).shape == (1,)
        for rows in ([row], np.array([row])):
            with pytest.raises(ValidationError, match="integers"):
                dec.decode_rows(cb, rows)
    for y in (row, np.array(row)):
        with pytest.raises(ValidationError, match="integers"):
            tree_log_likelihood(fsc, trees[0], y, fb)
        with pytest.raises(ValidationError, match="integers"):
            build_ranking(fsc, trees, y, fb)
    # Python ints and any integer dtype still decode
    assert tree_log_likelihood(fsc, trees[0], [0, 1, 0], fb) == tree_log_likelihood(fsc, trees[0], np.array([0, 1, 0], dtype=np.uint8), fb)


def test_scorer_does_not_wrap_wide_alphabets():
    # 17 inputs and 17 outputs: the trees keep uint8 symbols, and symbol * |Y|
    # reaches 16 * 17 = 272, past uint8, so the scorer must widen first
    rng = np.random.default_rng(223)
    fsc = random_fsc(rng, 1, 17, 17)
    fb = identity_feedback(fsc.outputs)
    cb = sample_codebook(uniform_policy(2, 17, 17), 4, rng)
    assert cb.trees[0].symbols.dtype == np.uint8
    assert any(16 in tree.symbols for tree in cb.trees)
    y_rows = enumerate_paths(17, 2)
    got = MLDecoder(fsc, fb).decode_rows(cb, y_rows)
    assert got.tolist() == [ml_decode(cb, y, fsc, fb) for y in y_rows]
    z_rows = fb.table[y_rows[:, :-1]]
    for tree in cb.trees:
        want = causal_log_prob_rows(fsc, paths_rows(tree, z_rows), y_rows, None)
        assert [tree_log_likelihood(fsc, tree, y, fb) for y in y_rows] == want.tolist()


def _score(fsc, trees, rows, fb, s0):
    plan = decoder_mod._prefix_plan(trees[0], rows, fb)
    return decoder_mod._codebook_log_likelihoods(fsc, trees, plan, s0)


def _oracle_table(fsc, trees, rows, fb, s0):
    z_rows = fb.table[rows[:, :-1]]
    return np.stack([causal_log_prob_rows(fsc, paths_rows(t, z_rows), rows, s0) for t in trees])


def _zero_some_transitions(fsc, rng):
    """fsc with a random quarter of its (s, x, y) transitions removed, so that
    some (tree, row) pairs, and some rows for every tree, are impossible."""
    kernel = fsc.kernel.copy()
    kernel[rng.random(kernel.shape[:3]) < 0.25] = 0.0
    kernel[:, :, 0] += 1e-3 * (kernel.sum(axis=(2, 3)) == 0)[..., None]  # keep rows stochastic
    kernel /= kernel.sum(axis=(2, 3), keepdims=True)
    return FscSpec(states=fsc.states, inputs=fsc.inputs, outputs=fsc.outputs, kernel=kernel)


FEEDBACKS = {
    "identity": (2, identity_feedback((0, 1))),
    "coarse": (3, FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1]))),
    "none": (3, no_feedback((0, 1, 2))),
}


@pytest.mark.parametrize("fb_name", sorted(FEEDBACKS))
def test_codebook_scorer_equals_per_tree_oracle(fb_name):
    rng = np.random.default_rng(223)
    y_card, fb = FEEDBACKS[fb_name]
    impossible = dead_rows = 0
    for n_states in range(2, 6):
        fsc = _zero_some_transitions(random_fsc(rng, n_states, 2, y_card), rng)
        cb = sample_codebook(uniform_policy(4, 2, fb.z_card), 6, rng)
        keys, trees, owner = decoder_mod._codebook_key_table(cb)
        rows, _ = decoder_mod._distinct_rows(rng.integers(0, y_card, size=(60, 4)))
        for s0 in (n_states - 1, rng.dirichlet(np.ones(n_states)), None):
            got = _score(fsc, trees, rows, fb, s0)
            assert np.array_equal(got, _oracle_table(fsc, trees, rows, fb, s0))
            impossible += int(np.isneginf(got).sum())
            dead = np.isneginf(got).all(axis=0)
            decided = MLDecoder(fsc, fb, s0).decode_rows(cb, rows[dead])
            assert (decided == owner[keys[0]]).all()
            dead_rows += int(dead.sum())
    assert impossible > dead_rows > 0


def test_all_impossible_row_decodes_to_smallest_key_owner():
    fsc = make_memoryless(np.eye(2))
    fb = identity_feedback((0, 1))
    t_low = leaf_tree([0, 0, 0], 2)  # key 0
    t_high = leaf_tree([0, 1, 1], 2)  # key 3
    cb = Codebook(trees=(t_high, t_low, t_high, t_low))
    y_rows = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
    _, trees, _ = decoder_mod._codebook_key_table(cb)
    rows, _ = decoder_mod._distinct_rows(y_rows)
    ll = _score(fsc, trees, rows, fb, None)
    assert np.isneginf(ll[:, 2:]).all()  # no tree emits 1 at the first step
    got = MLDecoder(fsc, fb).decode_rows(cb, y_rows)
    assert got.tolist() == [1, 1, 0, 1]  # message 1 owns key 0; (0, 1) is t_high's path
    assert got.tolist() == [ml_decode(cb, y, fsc, fb) for y in y_rows]


def test_decoding_in_tree_blocks_matches_one_block(monkeypatch):
    rng = np.random.default_rng(227)
    fsc = _zero_some_transitions(random_fsc(rng, 3, 2, 2), rng)
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(4, 2, 2), 7, rng)
    cb = Codebook(trees=cb.trees + cb.trees[::-1])  # each tree twice: the smaller index owns it
    y_rows = rng.integers(0, 2, size=(300, 4))
    dec = MLDecoder(fsc, fb, 0)
    one_block = dec.decode_rows(cb, y_rows)
    distinct = decoder_mod._distinct_rows(y_rows)[0].shape[0]
    _, trees, _ = decoder_mod._codebook_key_table(cb)
    per_tree = 8 * (distinct * (3 * fsc.n_states + 8) + trees[0].symbols.size)
    shared = 8 * distinct * (3 * 4 + 4 // 4 + 13)
    monkeypatch.setenv("COMPOUND_FSC_THREADS", "1")  # the whole budget less the plan for one block
    monkeypatch.setattr(decoder_mod, "SCORER_BYTES", shared + 2 * per_tree)  # two trees per block
    assert len(decoder_mod._tree_blocks(fsc, trees, distinct)) == 4
    blocks = dec.decode_rows(cb, y_rows)
    assert blocks.tolist() == one_block.tolist()
    assert blocks.tolist() == [ml_decode(cb, y, fsc, fb, 0) for y in y_rows]


@pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
def test_decoding_across_tree_blocks_is_thread_invariant(monkeypatch, threads):
    # on a BSC every tree that emits the same inputs along a row's feedback
    # path ties with the others exactly, and each tree is in the codebook twice
    fsc, fb = bsc(0.1), identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(3, 2, 2), 12, np.random.default_rng(241))
    cb = Codebook(trees=cb.trees + cb.trees[::-1])
    y_rows = np.repeat(enumerate_paths(2, 3), 2, axis=0)[::-1]
    _, trees, _ = decoder_mod._codebook_key_table(cb)
    rows = 8
    per_tree = 8 * (rows * (3 * fsc.n_states + 8) + trees[0].symbols.size)
    monkeypatch.setattr(decoder_mod, "SCORER_BYTES", 8 * rows * (3 * 3 + 3 // 4 + 13) + 2 * per_tree)
    monkeypatch.setenv("COMPOUND_FSC_THREADS", threads)
    blocks = decoder_mod._tree_blocks(fsc, trees, rows)
    assert len(blocks) >= 4
    ll = decoder_mod._log_likelihood_table(fsc, trees, enumerate_paths(2, 3), fb, None)
    block_of = np.concatenate([np.full(hi - lo, k) for k, (lo, hi) in enumerate(blocks)])
    tied_across = [len(set(block_of[ll[:, r] == ll[:, r].max()])) > 1 for r in range(rows)]
    assert sum(tied_across) >= 4  # most rows' best trees tie across blocks
    got = MLDecoder(fsc, fb).decode_rows(cb, y_rows)
    assert got.tolist() == [ml_decode(cb, y, fsc, fb) for y in y_rows]


def _scorer_peaks(fsc, trees, rows, fb):
    """tracemalloc peak of building the prefix plan and scoring one block
    against it, for each block _tree_blocks makes."""
    bounds = decoder_mod._tree_blocks(fsc, trees, rows.shape[0])
    _score(fsc, trees[:1], rows, fb, None)  # warm-up
    peaks = []
    for lo, hi in bounds:
        tracemalloc.start()
        _score(fsc, trees[lo:hi], rows, fb, None)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return bounds, peaks


def _assert_scorer_within_budget(monkeypatch, fsc, fb, cb, rows):
    budget = 2 ** 20
    monkeypatch.setenv("COMPOUND_FSC_THREADS", "1")
    monkeypatch.setattr(decoder_mod, "SCORER_BYTES", budget)
    _, trees, _ = decoder_mod._codebook_key_table(cb)
    bounds, peaks = _scorer_peaks(fsc, trees, rows, fb)
    assert len(bounds) > 1 and bounds[0][1] - bounds[0][0] > 1
    assert max(peaks) <= budget


def test_scorer_level_arrays_stay_within_budget(monkeypatch):
    rng = np.random.default_rng(229)
    fsc = random_fsc(rng, 3, 2, 2)
    cb = sample_codebook(uniform_policy(10, 2, 2), 40, rng)
    _assert_scorer_within_budget(monkeypatch, fsc, identity_feedback((0, 1)), cb, enumerate_paths(2, 10))


def test_scorer_stays_within_budget_when_rows_part_early(monkeypatch):
    # at |Y| = 4 the 1024 random rows part within a few steps, so the plan
    # holds about 17 of its charged 3 x depth = 30 cells a row
    rng = np.random.default_rng(229)
    fsc = random_fsc(rng, 3, 2, 4)
    fb = FeedbackMap(z_alphabet=(0, 1), table=np.arange(4) % 2)
    cb = sample_codebook(uniform_policy(10, 2, 2), 40, rng)
    rows = decoder_mod._distinct_rows(rng.integers(0, 4, (1024, 10)))[0]
    _assert_scorer_within_budget(monkeypatch, fsc, fb, cb, rows)


@pytest.mark.parametrize("size", [1, 4])
def test_small_scorer_blocks_stay_within_budget_at_one_state(monkeypatch, size):
    # at |S| = 1 the arrays a block shares weigh most against its per-tree ones
    rng = np.random.default_rng(239)
    fsc = random_fsc(rng, 1, 2, 2)
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(10, 2, 2), 8, rng)
    _, trees, _ = decoder_mod._codebook_key_table(cb)
    rows = enumerate_paths(2, 10)
    budget = 8 * rows.shape[0] * (3 * 10 + 10 // 4 + 13) + size * 8 * (rows.shape[0] * (3 * fsc.n_states + 8) + 1023)
    monkeypatch.setenv("COMPOUND_FSC_THREADS", "1")
    monkeypatch.setattr(decoder_mod, "SCORER_BYTES", budget)
    bounds, peaks = _scorer_peaks(fsc, trees, rows, fb)
    assert bounds[0] == (0, size)
    assert max(peaks) <= budget


def _separability_cases():
    """(family, representatives, n, eps) of suite_separability's two checks,
    a three-member bsc family at n = 6 whose members choose different
    representatives, and one at n = 1 whose 12 violations span its three
    members and both sides."""
    reps = CompoundFamily(members=(bsc(0.3),), labels=("rep",))
    near = CompoundFamily(members=(bsc(0.3 - 1e-4), bsc(0.3 + 1e-4)), labels=("lo", "hi"))
    yield near, reps, 4, 0.01
    yield CompoundFamily(members=(bsc(0.45),), labels=("far",)), reps, 4, 0.001
    bscs = CompoundFamily(members=(bsc(0.305), bsc(0.45), bsc(0.38)), labels=("near", "far", "mid"))
    yield bscs, CompoundFamily(members=(bsc(0.3), bsc(0.4)), labels=("r3", "r4")), 6, 0.01
    kernels = ([[0.9, 0.1], [0.2, 0.8]], [[0.88, 0.12], [0.2, 0.8]], [[0.9, 0.1], [0.23, 0.77]])
    skewed = CompoundFamily(members=tuple(make_memoryless(np.array(k)) for k in kernels), labels=("a", "b", "c"))
    rep_kernels = ([[0.89, 0.11], [0.21, 0.79]], [[0.7, 0.3], [0.3, 0.7]])
    yield skewed, CompoundFamily(members=tuple(make_memoryless(np.array(k)) for k in rep_kernels), labels=("r", "far")), 1, 0.01


@pytest.mark.parametrize("case", range(4))
def test_separability_report_is_the_one_built_per_violation(case):
    fam, reps, n, eps = list(_separability_cases())[case]
    got = separability_check(fam, reps, n=n, eps_nats=eps)
    want = separability_per_violation(fam, reps, n, eps)
    for f in dataclasses.fields(SeparabilityReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert len(got.violations) == min(got.violation_count, decoder_mod.SEPARABILITY_EXAMPLES)


def test_separability_family_covers_itself():
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.3)), labels=("a", "b"))
    rep = separability_check(fam, fam, n=3, eps_nats=1e-6)
    assert rep.passed
    assert rep.violation_count == 0
    assert rep.best_rep["a"] == "a"
    assert rep.best_rep["b"] == "b"


def test_separability_close_representative_passes():
    fam = CompoundFamily(members=(bsc(0.3),), labels=("true",))
    reps = CompoundFamily(members=(bsc(0.3 + 1e-4),), labels=("rep",))
    rep = separability_check(fam, reps, n=2, eps_nats=0.01)
    assert rep.passed
    assert rep.mu_nats == pytest.approx(1.0 + math.log(2.0))
    assert rep.threshold == pytest.approx(math.exp(-2 * (1 + 2 * math.log(2.0))))


def test_separability_far_representative_fails():
    fam = CompoundFamily(members=(bsc(0.45),), labels=("true",))
    reps = CompoundFamily(members=(bsc(0.3),), labels=("rep",))
    rep = separability_check(fam, reps, n=2, eps_nats=0.001)
    assert not rep.passed
    assert rep.violation_count > 0
    assert rep.violations
    v = rep.violations[0]
    assert v.member == "true"
    assert v.side in ("upper", "lower")
    assert v.log_excess > 0
