import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from compound_fsc import (
    CapExceededError,
    CausalConditioning,
    FeedbackMap,
    SolverConfig,
    ValidationError,
    bsc,
    compute_Cn,
    identity_feedback,
    no_feedback,
    uniform_policy,
)
from compound_fsc import causal as causal_module
from compound_fsc.causal import (
    causal_log_prob_rows,
    channel_prob_table,
    channel_prob_tables,
    code_weights,
    history_code,
    iid_policy,
    initial_state_tables,
    input_prob,
    joint_and_output_probs,
    mixture_policy,
    policy_adjoint,
    policy_best_response,
    policy_weight_table,
    policy_weight_tables,
    product_policy,
    random_policy,
    sequence_reach,
)
from compound_fsc.channel import GilbertElliotParams, make_gilbert_elliot, make_memoryless
from compound_fsc.codetree import sample_codetree, tree_prob
from compound_fsc.util import enumerate_paths
from compound_fsc.verify import random_family
from oracles import causal_channel_prob, einsum_channel_prob_table, naive_causal_channel_prob


def ge(g, b, p_g, p_b):
    return make_gilbert_elliot(GilbertElliotParams(g=g, b=b, p_g=p_g, p_b=p_b))


def random_fsc(rng, n_states, n_inputs, n_outputs):
    rows = rng.dirichlet(np.ones(n_outputs * n_states), size=n_states * n_inputs)
    kernel = rows.reshape(n_states, n_inputs, n_outputs, n_states)
    from compound_fsc import FscSpec

    return FscSpec(
        states=tuple(range(n_states)),
        inputs=tuple(range(n_inputs)),
        outputs=tuple(range(n_outputs)),
        kernel=kernel,
    )


def test_causal_prob_frozen_ge_value():
    fsc = ge(0.5, 0.5, 0.0, 0.5)
    # from good: step 1 emits 0 for sure, step 2 emits 1 only through the bad
    # state reached with prob 1/2, where a flip also costs 1/2
    assert causal_channel_prob(fsc, (0, 0), (0, 1), s0=0) == pytest.approx(0.25)
    # four state paths, written out
    total = 0.0
    for s1 in range(2):
        for s2 in range(2):
            total += fsc.kernel[0, 0, 0, s1] * fsc.kernel[s1, 0, 1, s2]
    assert total == pytest.approx(0.25)


def test_causal_prob_single_state_is_product():
    fsc = bsc(0.2)
    assert causal_channel_prob(fsc, (0, 1), (0, 1), 0) == pytest.approx(0.8 * 0.8)
    assert causal_channel_prob(fsc, (0, 1), (1, 1), 0) == pytest.approx(0.2 * 0.8)


def test_forward_matches_naive_enumeration():
    rng = np.random.default_rng(7)
    for n_states in (1, 2, 3):
        for n in (1, 2, 3, 4):
            fsc = random_fsc(rng, n_states, 2, 2)
            for xs in itertools.product(range(2), repeat=n):
                for ys in itertools.product(range(2), repeat=n):
                    for s0 in range(n_states):
                        fast = causal_channel_prob(fsc, xs, ys, s0)
                        slow = naive_causal_channel_prob(fsc, xs, ys, s0)
                        assert abs(fast - slow) < 1e-12


def test_causal_prob_normalizes_over_outputs():
    rng = np.random.default_rng(11)
    fsc = random_fsc(rng, 3, 2, 2)
    for n in (1, 2, 3):
        for xs in itertools.product(range(2), repeat=n):
            for s0 in range(3):
                tot = math.fsum(
                    causal_channel_prob(fsc, xs, ys, s0)
                    for ys in itertools.product(range(2), repeat=n)
                )
                assert tot == pytest.approx(1.0, abs=1e-12)


def test_causal_channel_prob_prefixes_and_validation():
    fsc = ge(0.5, 0.5, 0.0, 0.5)
    assert causal_channel_prob(fsc, (), (), s0=0) == 1.0
    assert causal_channel_prob(fsc, (0,), (0,), s0=0) == pytest.approx(1.0)  # first output certain
    assert causal_channel_prob(fsc, (0, 0), (0, 1), s0=0) == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        causal_channel_prob(fsc, (0, 0), (0,), s0=0)
    with pytest.raises(ValidationError):
        causal_channel_prob(fsc, (0,), (0,), s0=5)


def test_input_prob_uniform_and_deterministic():
    q = uniform_policy(3, 2, 2)
    assert input_prob(q, (0, 1, 1), (0, 1)) == pytest.approx(1 / 8)
    det = iid_policy(2, [1.0, 0.0], 2)
    assert input_prob(det, (0, 0), (1,)) == 1.0
    assert input_prob(det, (0, 1), (1,)) == 0.0


def test_input_prob_matches_naive_product():
    rng = np.random.default_rng(5)
    q = random_policy(3, 2, 2, rng)
    for xs in itertools.product(range(2), repeat=3):
        for zs in itertools.product(range(2), repeat=2):
            want = 1.0
            h = 0  # row of (x^i, z^i): pairs x*|Z| + z, earliest most significant
            for i in range(3):
                want *= q.conditionals[i][h, xs[i]]
                if i < 2:
                    h = h * 4 + xs[i] * 2 + zs[i]
            assert input_prob(q, xs, zs) == pytest.approx(want, abs=1e-15)


def test_input_prob_sums_to_one_under_any_feedback():
    rng = np.random.default_rng(9)
    q = random_policy(3, 2, 2, rng)
    for zs in itertools.product(range(2), repeat=2):
        tot = math.fsum(input_prob(q, xs, zs) for xs in itertools.product(range(2), repeat=3))
        assert tot == pytest.approx(1.0)


def test_joint_table_is_weight_times_channel():
    rng = np.random.default_rng(13)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(3, 2, 2, rng)
    fb = identity_feedback(fsc.outputs)
    w = policy_weight_table(q, fsc.n_outputs, fb)
    p = channel_prob_table(fsc, 3, 0)
    joint, p_y = joint_and_output_probs(q, fsc, 0, fb)
    assert np.abs(joint - w * p).max() == 0.0
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(p_y - joint.sum(axis=0)).max() == 0.0


# (|X|, feedback map): identity, none, permuted, coarse with 1 < |Z| < |Y|,
# and a non-square alphabet
FEEDBACK_CASES = (
    (2, identity_feedback((0, 1))),
    (2, no_feedback((0, 1))),
    (2, FeedbackMap(z_alphabet=(0, 1, 2), table=np.array([2, 0, 1]))),
    (2, FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1]))),
    (3, identity_feedback((0, 1))),
)


def test_joint_table_brute_force_oracle():
    rng = np.random.default_rng(17)
    for x_card, fb in FEEDBACK_CASES:
        y_card = fb.table.size
        for n in (1, 2, 3):
            fsc = random_fsc(rng, 2, x_card, y_card)
            q = random_policy(n, x_card, fb.z_card, rng)
            w = policy_weight_table(q, y_card, fb)
            joint, _ = joint_and_output_probs(q, fsc, 1, fb)
            for xi, xs in enumerate(itertools.product(range(x_card), repeat=n)):
                for yi, ys in enumerate(itertools.product(range(y_card), repeat=n)):
                    q_path = input_prob(q, xs, [fb.table[y] for y in ys[: n - 1]])
                    assert w[xi, yi] == q_path  # same factors, same order
                    want = q_path * causal_channel_prob(fsc, xs, ys, 1)
                    assert joint[xi, yi] == pytest.approx(want, abs=1e-14)


def _weight_table(conds, code, y_card):
    """W[xcode, ycode] of conditionals that need not be normalized:
    code_weights repeated over the output axes the code does not span, as
    policy_weight_tables builds it."""
    g = code_weights(sequence_reach(conds), code)
    return np.repeat(g, y_card ** len(conds) // g.shape[-1], axis=-1)


def test_policy_adjoint_matches_multilinear_difference():
    # W is linear in each conditional entry, so adding 1 to entry (h, x) of
    # step i changes sum(W * D) by exactly that entry's supergradient
    rng = np.random.default_rng(29)
    for x_card, fb in FEEDBACK_CASES:
        y_card = fb.table.size
        for n in (1, 2, 3):
            q = random_policy(n, x_card, fb.z_card, rng)
            conds = list(q.conditionals)
            code = history_code(x_card, fb, n)
            # x_0..x_{n-1}, then y_0..y_{n-2} only when feedback carries them
            y_axes = (y_card if fb.z_card > 1 else 1,) * (n - 1)
            assert code.shape == (x_card,) * n + y_axes + (1,)
            d = rng.standard_normal((x_card ** n, y_card ** n))
            reach = sequence_reach(conds)
            w = _weight_table(conds, code, y_card)
            assert np.array_equal(w, policy_weight_table(q, y_card, fb))
            # the adjoint takes d summed over the output axes the code does not span
            u = d.reshape(x_card ** n, code.size // x_card ** n, -1).sum(axis=-1)
            grads = policy_adjoint(conds, reach, code, u)
            for i, c in enumerate(conds):
                assert grads[i].shape == c.shape
                for h, x in itertools.product(range(c.shape[0]), range(x_card)):
                    bumped = list(conds)
                    bumped[i] = c.copy()
                    bumped[i][h, x] += 1.0
                    diff = ((_weight_table(bumped, code, y_card) - w) * d).sum()
                    assert grads[i][h, x] == pytest.approx(diff, rel=0, abs=1e-12)


def test_leading_start_axis_matches_lone_starts_bitwise():
    # a stack of policies walks, gathers and bins as each policy alone
    rng = np.random.default_rng(31)
    for x_card, fb in FEEDBACK_CASES:
        for n in (1, 2, 3):
            code = history_code(x_card, fb, n)
            policies = [random_policy(n, x_card, fb.z_card, rng).conditionals for _ in range(3)]
            stacked = [np.stack(steps) for steps in zip(*policies)]
            u = rng.standard_normal((3, x_card ** n, code.size // x_card ** n))
            reach = sequence_reach(stacked)
            g = code_weights(reach, code)
            grads = policy_adjoint(stacked, reach, code, u)
            for s, conds in enumerate(policies):
                lone = sequence_reach(conds)
                assert all(np.array_equal(a[s], b) for a, b in zip(reach, lone, strict=True))
                assert np.array_equal(g[s], code_weights(lone, code))
                want = policy_adjoint(conds, lone, code, u[s])
                assert all(np.array_equal(a[s], b) for a, b in zip(grads, want, strict=True))


@pytest.mark.parametrize(
    "fb, horizons",
    [
        (identity_feedback((0, 1)), (1, 2)),
        (FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1])), (1, 2)),
        (no_feedback((0, 1)), (1, 2, 3)),
    ],
    ids=["identity", "coarse", "none"],
)
def test_policy_best_response_matches_every_code_tree(fb, horizons):
    # the max over the sequence form is attained at a deterministic
    # code-tree: one input per history row of every step
    rng = np.random.default_rng(43)
    for n in horizons:
        code = history_code(2, fb, n)
        shapes = [(2 * fb.z_card) ** i for i in range(n)]
        for _ in range(3):
            u = rng.standard_normal((2 ** n, code.size // 2 ** n))
            best = -math.inf
            for picks in itertools.product(range(2), repeat=sum(shapes)):
                picks = iter(picks)
                conds = [np.eye(2)[[next(picks) for _ in range(rows)]] for rows in shapes]
                best = max(best, float((code_weights(sequence_reach(conds), code) * u).sum()))
            got = policy_best_response([(rows, 2) for rows in shapes], code, u)
            assert got == pytest.approx(best, rel=0, abs=1e-12)


def test_mixture_policy_mixes_weight_tables():
    # the mixture's conditionals re-factorize lam * W1 + (1 - lam) * W2
    rng = np.random.default_rng(37)
    for x_card, fb in (FEEDBACK_CASES[0], FEEDBACK_CASES[3]):
        y_card = fb.table.size
        q1 = random_policy(3, x_card, fb.z_card, rng)
        q2 = random_policy(3, x_card, fb.z_card, rng)
        w1 = policy_weight_table(q1, y_card, fb)
        w2 = policy_weight_table(q2, y_card, fb)
        for lam in (0.0, 0.3, 1.0):
            w = policy_weight_table(mixture_policy(q1, q2, lam), y_card, fb)
            assert np.abs(w - (lam * w1 + (1 - lam) * w2)).max() < 1e-12


def test_joint_table_mixes_over_state_prior():
    rng = np.random.default_rng(19)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(2, 2, 2, rng)
    fb = identity_feedback(fsc.outputs)
    j0, _ = joint_and_output_probs(q, fsc, 0, fb)
    j1, _ = joint_and_output_probs(q, fsc, 1, fb)
    jm, _ = joint_and_output_probs(q, fsc, np.array([0.3, 0.7]), fb)
    assert np.abs(jm - (0.3 * j0 + 0.7 * j1)).max() < 1e-14


def test_no_feedback_factorizes_joint():
    # with |Z| = 1 the joint is Q(x^n) * P(y^n || x^n)
    rng = np.random.default_rng(23)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(2, 2, 1, rng)
    fb = no_feedback(fsc.outputs)
    joint, _ = joint_and_output_probs(q, fsc, 0, fb)
    for xi, xs in enumerate(itertools.product(range(2), repeat=2)):
        qx = input_prob(q, xs, [0])
        for yi, ys in enumerate(itertools.product(range(2), repeat=2)):
            want = qx * causal_channel_prob(fsc, xs, ys, 0)
            assert joint[xi, yi] == pytest.approx(want, abs=1e-14)


def test_causal_prob_rows_matches_scalar():
    rng = np.random.default_rng(29)
    fsc = random_fsc(rng, 2, 2, 3)
    x_rows = rng.integers(0, 2, size=(40, 4))
    y_rows = rng.integers(0, 3, size=(40, 4))
    got = np.exp(causal_log_prob_rows(fsc, x_rows, y_rows, 1))
    scalar = [causal_channel_prob(fsc, x, y, 1) for x, y in zip(x_rows, y_rows)]
    naive = [naive_causal_channel_prob(fsc, x, y, 1) for x, y in zip(x_rows, y_rows)]
    assert np.abs(got - np.array(scalar)).max() < 1e-14
    assert np.abs(got - np.array(naive)).max() < 1e-14


def test_causal_log_prob_rows_impossible_path():
    fsc = make_memoryless(np.eye(2))
    logs = causal_log_prob_rows(fsc, np.array([[0, 1]]), np.array([[0, 0]]), 0)
    assert logs[0] == -np.inf


def test_policy_round_trip():
    # the policy a capacity report carries reads back through JSON bitwise
    rep = compute_Cn(random_family(np.random.default_rng(31), 2), identity_feedback((0, 1)), 3, SolverConfig(max_iters=20))
    back = CausalConditioning.from_dict(json.loads(json.dumps(rep.to_dict()["policy"])))
    assert back.horizon == 3
    for a, b in zip(back.conditionals, rep.policy.conditionals):
        assert np.array_equal(a, b)


def test_load_policy_rejects_non_object():
    with pytest.raises(ValidationError, match="must be an object"):
        CausalConditioning.from_dict([])


def test_policy_validation():
    with pytest.raises(ValidationError):
        CausalConditioning(horizon=1, x_card=2, z_card=2, conditionals=(np.array([[0.7, 0.2]]),))
    with pytest.raises(ValidationError):
        CausalConditioning(horizon=2, x_card=2, z_card=2, conditionals=(np.full((1, 2), 0.5),))
    with pytest.raises(ValidationError):
        CausalConditioning(
            horizon=1, x_card=2, z_card=2, conditionals=(np.array([[1.3, -0.3]]),)
        )
    for bad in (math.nan, math.inf):  # NaN fails every comparison, so no tolerance check sees it
        d = uniform_policy(2, 2, 2).to_dict()
        d["conditionals"][3] = bad
        with pytest.raises(ValidationError):
            CausalConditioning.from_dict(d)
    # each rejection keeps the message of the check that names it; entries
    # 2..5 are step 1's rows (0.5, 0.5) and (0.5, 0.5)
    for pos, bad, message in (
        (3, math.nan, "finite and non-negative"),
        (3, math.inf, "finite and non-negative"),
        (3, -1e-14, "finite and non-negative"),
        (4, 0.5 + 2e-9, "rows must sum to 1"),
    ):
        d = uniform_policy(2, 2, 2).to_dict()
        d["conditionals"][pos] = bad
        with pytest.raises(ValidationError, match=message):
            CausalConditioning.from_dict(d)
    # within both tolerances: a -1e-16 entry whose row still sums to 1
    q = CausalConditioning(horizon=1, x_card=2, z_card=2, conditionals=(np.array([[-1e-16, 1.0 + 1e-16]]),))
    assert q.conditionals[0][0, 0] == -1e-16



@pytest.mark.parametrize("n, x_card, z_card", [(1, 2, 2), (3, 2, 2), (3, 3, 1), (2, 3, 2)])
def test_random_policy_draws_the_per_step_stream(n, x_card, z_card):
    rng, ref = np.random.default_rng(83), np.random.default_rng(83)
    q = random_policy(n, x_card, z_card, rng)
    want = [ref.dirichlet(np.ones(x_card), size=(x_card * z_card) ** i) for i in range(n)]
    assert all(np.array_equal(c, w) for c, w in zip(q.conditionals, want))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


def test_uniform_policy_is_one_row_per_step():
    tracemalloc.start()
    try:
        q = uniform_policy(12, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for i, c in enumerate(q.conditionals):
        assert c.shape == (4**i, 2) and c.strides[0] == 0 and not c.flags.writeable


def test_sequence_reach_of_zero_stride_steps_allocates_only_its_output():
    q = uniform_policy(10, 2, 2)
    tracemalloc.start()
    try:
        reach = sequence_reach(q.conditionals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(r.nbytes for r in reach) + 2**20
    for i, r in enumerate(reach):
        assert np.array_equal(r, np.full((4**i, 2), 0.5 ** (i + 1)))


def test_iid_policy_tables_are_views_of_a_private_marginal():
    marginal = np.array([0.25, 0.75])
    q = iid_policy(3, marginal, 2)
    marginal[0] = 9.0
    for c in q.conditionals:
        assert c.strides[0] == 0 and not c.flags.writeable
        assert c.tolist() == [[0.25, 0.75]] * c.shape[0]
    back = CausalConditioning.from_dict(q.to_dict())
    assert all(c.flags.c_contiguous for c in back.conditionals)


@pytest.mark.parametrize(
    "row", [[math.nan, 1.0], [1.5, -0.5], [0.5, 0.4]], ids=["nan", "negative", "row-sum"]
)
def test_zero_stride_tables_are_validated(row):
    conds = (np.full((1, 2), 0.5), np.broadcast_to(np.array(row), (4, 2)))
    with pytest.raises(ValidationError):
        CausalConditioning(horizon=2, x_card=2, z_card=2, conditionals=conds)


def materialised(q):
    conds = tuple(np.array(c) for c in q.conditionals)
    return CausalConditioning(horizon=q.horizon, x_card=q.x_card, z_card=q.z_card, conditionals=conds)


def same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "fb",
    [
        identity_feedback((0, 1, 2)),
        FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1])),
        no_feedback((0, 1, 2)),
    ],
    ids=["identity", "coarse", "none"],
)
def test_zero_stride_policies_match_materialised_copies_bitwise(fb):
    # every consumer reads a zero-stride table exactly as its contiguous copy
    rng = np.random.default_rng(53)
    y_card = fb.table.size
    for n in (1, 2, 3, 4):
        other = random_policy(n, 2, fb.z_card, rng)
        code = history_code(2, fb, n)
        u = rng.standard_normal((2**n, code.size // 2**n))
        for q in (uniform_policy(n, 2, fb.z_card), iid_policy(n, [0.3, 0.7], fb.z_card)):
            assert all(c.strides[0] == 0 for c in q.conditionals)
            m = materialised(q)
            assert not any(c.strides[0] == 0 and c.shape[0] > 1 for c in m.conditionals)
            for a, b in zip(sequence_reach(q.conditionals), sequence_reach(m.conditionals)):
                assert same(a, b)
            assert same(policy_weight_table(q, y_card, fb), policy_weight_table(m, y_card, fb))
            reach = sequence_reach(q.conditionals)
            for a, b in zip(
                policy_adjoint(q.conditionals, reach, code, u),
                policy_adjoint(m.conditionals, sequence_reach(m.conditionals), code, u),
            ):
                assert same(a, b)
            shapes = [c.shape for c in q.conditionals]
            assert policy_best_response(shapes, code, u) == policy_best_response(
                [c.shape for c in m.conditionals], code, u
            )
            for (l1, r1), (l2, r2) in (((q, other), (m, other)), ((other, q), (other, m)), ((q, q), (m, m))):
                for a, b in zip(product_policy(l1, r1).conditionals, product_policy(l2, r2).conditionals):
                    assert same(a, b)
                for a, b in zip(mixture_policy(l1, r1, 0.3).conditionals, mixture_policy(l2, r2, 0.3).conditionals):
                    assert same(a, b)
            assert q.to_dict() == m.to_dict()
            for _ in range(3):
                tree = sample_codetree(other, rng)
                assert tree_prob(q, tree) == tree_prob(m, tree)
                xs = rng.integers(2, size=n)
                zs = rng.integers(fb.z_card, size=n - 1)
                assert input_prob(q, xs, zs) == input_prob(m, xs, zs)

def test_table_cap_refusal():
    fsc = bsc(0.1)
    with pytest.raises(CapExceededError):
        channel_prob_table(fsc, 13, 0)
    q = uniform_policy(13, 2, 2)
    with pytest.raises(CapExceededError):
        policy_weight_table(q, 2, identity_feedback((0, 1)))


def test_channel_table_non_square_alphabets():
    fsc = random_fsc(np.random.default_rng(41), 3, 3, 2)
    n, prior = 3, np.array([0.2, 0.5, 0.3])
    given = channel_prob_table(fsc, n, 1)
    mixed = channel_prob_table(fsc, n, prior)
    assert given.shape == mixed.shape == (27, 8)
    for (i, xs), (j, ys) in itertools.product(
        enumerate(enumerate_paths(3, n)), enumerate(enumerate_paths(2, n))
    ):
        per_state = [causal_channel_prob(fsc, xs, ys, s) for s in range(3)]
        assert given[i, j] == pytest.approx(per_state[1], rel=1e-12, abs=0)
        assert mixed[i, j] == pytest.approx(float(np.dot(prior, per_state)), rel=1e-12, abs=0)


@pytest.mark.parametrize("s_card", [1, 2, 3])
@pytest.mark.parametrize("x_card,y_card", [(2, 2), (2, 3), (3, 2)])
def test_channel_table_is_the_einsum_recursion_bitwise(s_card, x_card, y_card):
    rng = np.random.default_rng(100 * s_card + 10 * x_card + y_card)
    fsc = random_fsc(rng, s_card, x_card, y_card)
    priors = [0, s_card - 1, None, rng.dirichlet(np.ones(s_card))]
    for n, s0 in itertools.product(range(1, 7), priors):
        want = einsum_channel_prob_table(fsc, n, s0)
        assert np.array_equal(channel_prob_table(fsc, n, s0), want), (n, s0)
        # written into a caller's table, as the solver stacks them
        stack = np.full((2,) + want.shape, np.nan)
        slot = stack[1]
        assert channel_prob_table(fsc, n, s0, out=slot) is slot
        assert np.array_equal(slot, want) and np.isnan(stack[0]).all()


@pytest.mark.parametrize("s_card", [1, 2, 3])
def test_stacked_channel_tables_are_the_lone_tables_bitwise(monkeypatch, s_card):
    # rows of different kernels and priors, a member's mixed prior and its
    # one-hot initial states among them, each bitwise its lone table
    charged = []
    guard = causal_module.check_table_bytes

    def recording(entries, arrays, what):
        charged.append((entries, arrays))
        guard(entries, arrays, what)

    monkeypatch.setattr(causal_module, "check_table_bytes", recording)
    rng = np.random.default_rng(300 + s_card)
    fscs = [random_fsc(rng, s_card, 2, 3) for _ in range(3)]
    laws = [[rng.dirichlet(np.ones(s_card)), *range(s_card)] for _ in fscs]
    for n in (1, 2, 3):
        charged.clear()
        stack = initial_state_tables(fscs, laws, n)
        assert stack.shape == (3, s_card + 1, 2 ** n, 3 ** n)
        assert charged == [(3 * (s_card + 1) * 6 ** n, 2 * s_card + 1)]
        for fsc, row, tables in zip(fscs, laws, stack):
            for s0, table in zip(row, tables):
                assert np.array_equal(table, channel_prob_table(fsc, n, s0))
        out = np.empty(stack.shape)
        kernels = np.stack([[f.kernel] * (s_card + 1) for f in fscs])
        priors = np.stack([[causal_module._as_prior(f, s0) for s0 in row] for f, row in zip(fscs, laws)])
        assert channel_prob_tables(kernels, priors, n, out=out) is out
        assert np.array_equal(out, stack)


def test_stacked_weight_tables_are_the_lone_tables_bitwise():
    rng = np.random.default_rng(311)
    for fb, n in ((identity_feedback((0, 1, 2)), 2), (FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1])), 3)):
        qs = [random_policy(n, 2, fb.z_card, rng) for _ in range(4)] + [uniform_policy(n, 2, fb.z_card)]
        stack = policy_weight_tables(qs, 3, fb)
        assert stack.shape == (5, 2 ** n, 3 ** n)
        for q, w in zip(qs, stack):
            assert np.array_equal(w, policy_weight_table(q, 3, fb))
    with pytest.raises(ValidationError):
        policy_weight_tables([random_policy(2, 2, 3, rng), random_policy(3, 2, 3, rng)], 3, identity_feedback((0, 1, 2)))


@pytest.mark.parametrize("s_card,n", [(2, 10), (3, 7)])
def test_channel_table_peak_stays_within_its_charge(monkeypatch, s_card, n):
    charged = []
    guard = causal_module.check_table_bytes

    def recording(entries, arrays, what):
        charged.append(entries * 8 * arrays)
        guard(entries, arrays, what)

    monkeypatch.setattr(causal_module, "check_table_bytes", recording)
    fsc = random_fsc(np.random.default_rng(s_card), s_card, 2, 2)
    channel_prob_table(fsc, 2, 0)  # warm-up
    charged.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = channel_prob_table(fsc, n, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert charged == [table.nbytes * (2 * s_card + 1)]
    assert peak <= charged[0], f"peak {peak / table.nbytes:.3f} tables"


@pytest.mark.parametrize(
    "s0", [-1, 2, 5, math.nan, math.inf, pytest.param([math.nan, math.nan], id="nan-prior")]
)
def test_channel_table_rejects_out_of_range_state(s0):
    fsc = ge(0.3, 0.4, 0.05, 0.45)
    with pytest.raises(ValidationError):
        channel_prob_table(fsc, 2, s0)


def test_enumerate_paths_order():
    paths = enumerate_paths(2, 2)
    assert paths.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert enumerate_paths(3, 1).tolist() == [[0], [1], [2]]
