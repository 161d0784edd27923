import itertools
import math

import numpy as np
import pytest

from compound_fsc import (
    GilbertElliotParams,
    bsc,
    continuity_bound_check,
    directed_information,
    directed_information_kim,
    exchange_terms,
    identity_feedback,
    iid_policy,
    information_functional,
    joint_and_output_probs,
    make_gilbert_elliot,
    make_memoryless,
    no_feedback,
    per_step_terms,
    product_policy,
    random_policy,
    state_gap_check,
    stationary_distribution,
    uniform_policy,
    zero_capacity_witness,
)
from compound_fsc.capacity import GAP_TOL
from compound_fsc.verify import random_fsc
from oracles import causal_channel_prob, marginal_entropy, state_gap_per_call

LN2 = math.log(2.0)


def _entropy(p):
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def test_useless_channel_gives_zero():
    fsc = make_memoryless(np.full((2, 2), 0.5))
    q = uniform_policy(3, 2, 2)
    res = directed_information(q, fsc, 0, identity_feedback(fsc.outputs))
    assert abs(res.value_nats) < 1e-12
    assert all(abs(t) < 1e-12 for t in res.per_step)


def test_noiseless_channel_gives_log2():
    fsc = make_memoryless(np.eye(2))
    q = uniform_policy(1, 2, 2)
    res = directed_information(q, fsc, 0, identity_feedback(fsc.outputs))
    assert res.value_nats == pytest.approx(LN2, abs=1e-12)


def test_directed_info_is_entropy_difference():
    # I = H(Y^n) - H(Y^n || X^n), both computed from scratch here
    rng = np.random.default_rng(41)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(2, 2, 2, rng)
    fb = identity_feedback(fsc.outputs)
    joint, p_y = joint_and_output_probs(q, fsc, 0, fb)
    h_y = _entropy(p_y)
    h_y_cond = 0.0
    for xi, xs in enumerate(itertools.product(range(2), repeat=2)):
        for yi, ys in enumerate(itertools.product(range(2), repeat=2)):
            if joint[xi, yi] > 0:
                h_y_cond -= joint[xi, yi] * math.log(causal_channel_prob(fsc, xs, ys, 0))
    want = h_y - h_y_cond
    got = directed_information(q, fsc, 0, fb).value_nats
    assert got == pytest.approx(want, abs=1e-12)


def test_three_evaluations_agree():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n_states = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        fsc = random_fsc(rng, n_states, 2, 2)
        q = random_policy(n, 2, 2, rng)
        s0 = int(rng.integers(0, n_states))
        fb = identity_feedback(fsc.outputs)
        res = directed_information(q, fsc, s0, fb)
        joint, _ = joint_and_output_probs(q, fsc, s0, fb)
        per_step = math.fsum(per_step_terms(joint, n, 2, 2))
        kim = directed_information_kim(q, fsc, s0, fb)
        assert abs(res.value_nats - per_step) < 1e-10
        assert abs(res.value_nats - kim) < 1e-10


def test_single_step_kim_is_mutual_information():
    rng = np.random.default_rng(47)
    fsc = random_fsc(rng, 1, 2, 3)
    q = random_policy(1, 2, 3, rng)
    fb = identity_feedback(fsc.outputs)
    kim = directed_information_kim(q, fsc, 0, fb)
    joint, p_y = joint_and_output_probs(q, fsc, 0, fb)
    p_x = joint.sum(axis=1)
    want = _entropy(p_x) + _entropy(p_y) - _entropy(joint)
    assert kim == pytest.approx(want, abs=1e-12)


def test_memoryless_open_loop_is_additive():
    p_x = np.array([0.3, 0.7])
    fsc = bsc(0.15)
    fb = no_feedback(fsc.outputs)
    single = directed_information(iid_policy(1, p_x, 1), fsc, 0, fb).value_nats
    for n in (2, 3):
        total = directed_information(iid_policy(n, p_x, 1), fsc, 0, fb).value_nats
        assert total == pytest.approx(n * single, abs=1e-11)


def test_no_feedback_equals_block_mutual_information():
    rng = np.random.default_rng(53)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(3, 2, 1, rng)
    fb = no_feedback(fsc.outputs)
    got = directed_information(q, fsc, 1, fb).value_nats
    joint, p_y = joint_and_output_probs(q, fsc, 1, fb)
    p_x = joint.sum(axis=1)
    want = _entropy(p_x) + _entropy(p_y) - _entropy(joint)
    assert got == pytest.approx(want, abs=1e-11)


def test_directed_info_bounds():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        fsc = random_fsc(rng, 2, 2, 2)
        q = random_policy(n, 2, 2, rng)
        v = directed_information(q, fsc, 0, identity_feedback(fsc.outputs)).value_nats
        assert -1e-12 <= v <= n * LN2 + 1e-12


def test_per_step_and_exchange_resum():
    rng = np.random.default_rng(61)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(3, 2, 2, rng)
    joint, _ = joint_and_output_probs(q, fsc, 0, identity_feedback(fsc.outputs))
    a = per_step_terms(joint, 3, 2, 2)
    b = exchange_terms(joint, 3, 2, 2)
    assert math.fsum(a) == pytest.approx(math.fsum(b), abs=1e-10)
    assert all(t >= -1e-11 for t in a)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("x_card,y_card", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_per_step_and_exchange_terms_match_brute_force_entropies(n, x_card, y_card):
    # term by term, so a term moved to the wrong step fails; the sparse joint
    # has zero entries and, with x_1 = 0 ruled out, zero marginal cells
    rng = np.random.default_rng(100 * n + 10 * x_card + y_card)
    dense = rng.random((x_card ** n, y_card ** n))
    sparse = np.where(rng.random(dense.shape) < 0.4, 0.0, dense)
    sparse[: x_card ** (n - 1)] = 0.0
    for joint in (dense / dense.sum(), sparse / sparse.sum()):

        def h(kx, ky):
            return marginal_entropy(joint, n, x_card, y_card, kx, ky)

        steps = range(1, n + 1)
        want_di = [h(0, i) + h(i, i - 1) - h(i, i) - h(0, i - 1) for i in steps]
        want_ex = [h(i, i - 1) + h(i - 1, n) - h(i, n) - h(i - 1, i - 1) for i in steps]
        got_di = per_step_terms(joint, n, x_card, y_card)
        got_ex = exchange_terms(joint, n, x_card, y_card)
        assert len(got_di) == len(got_ex) == n
        assert np.max(np.abs(np.subtract(got_di, want_di))) <= 1e-12
        assert np.max(np.abs(np.subtract(got_ex, want_ex))) <= 1e-12


def test_state_gap_single_state_is_zero():
    rng = np.random.default_rng(67)
    fsc = random_fsc(rng, 1, 2, 2)
    q = random_policy(2, 2, 2, rng)
    res = state_gap_check(q, fsc, identity_feedback(fsc.outputs))
    assert res.bound == 0.0
    assert res.gap <= 1e-12
    assert res.passed


def test_state_gap_bounded_by_log_state_count():
    rng = np.random.default_rng(71)
    for _ in range(15):
        n_states = int(rng.integers(2, 4))
        fsc = random_fsc(rng, n_states, 2, 2)
        q = random_policy(2, 2, 2, rng)
        prior = rng.dirichlet(np.ones(n_states))
        res = state_gap_check(q, fsc, identity_feedback(fsc.outputs), s0_prior=prior)
        assert res.passed
        assert res.bound == pytest.approx(math.log(n_states))
        # conditioning on the state never hurts
        assert res.value_given_state >= res.value_mixed - 1e-10


def test_state_gap_shares_one_weight_table_bitwise():
    rng = np.random.default_rng(73)
    for i in range(18):
        fsc = random_fsc(rng, 1 + i % 3, 2, 2)
        fb = identity_feedback(fsc.outputs) if i % 2 == 0 else no_feedback(fsc.outputs)
        q = random_policy(1 + (i // 3) % 3, 2, fb.z_card, rng)
        prior = rng.dirichlet(np.ones(fsc.n_states))
        if i % 4 == 1 and fsc.n_states > 1:
            prior[0] = 0.0  # a state the prior never starts in is skipped
            prior /= prior.sum()
        for p in (prior, None):
            res = state_gap_check(q, fsc, fb, s0_prior=p)
            want = state_gap_per_call(q, fsc, fb, np.full(fsc.n_states, 1.0 / fsc.n_states) if p is None else p)
            assert (res.value_mixed, res.value_given_state) == want


def test_state_gap_degenerate_states():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.5, b=0.5, p_g=0.2, p_b=0.2))
    q = uniform_policy(2, 2, 2)
    res = state_gap_check(q, fsc, identity_feedback(fsc.outputs))
    assert res.gap <= 1e-10


def test_continuity_bound_zero_perturbation():
    rng = np.random.default_rng(73)
    fsc = random_fsc(rng, 2, 2, 2)
    q = random_policy(2, 2, 2, rng)
    res = continuity_bound_check(q, q, fsc, 0, identity_feedback(fsc.outputs))
    assert res.applicable
    assert res.delta == 0.0
    assert res.lhs == 0.0
    assert res.rhs == 0.0


def test_continuity_bound_perturbed_policies():
    rng = np.random.default_rng(79)
    fsc = random_fsc(rng, 2, 2, 2)
    fb = identity_feedback(fsc.outputs)
    for _ in range(25):
        q1 = random_policy(2, 2, 2, rng)
        lam = float(rng.uniform(0.0, 0.04))
        q2_conds = tuple(
            (1 - lam) * c + lam * rng.dirichlet(np.ones(2), size=c.shape[0])
            for c in q1.conditionals
        )
        from compound_fsc import CausalConditioning

        q2 = CausalConditioning(horizon=2, x_card=2, z_card=2, conditionals=q2_conds)
        res = continuity_bound_check(q1, q2, fsc, 0, fb)
        if res.applicable:
            assert res.lhs <= res.rhs + 1e-9


def test_continuity_bound_large_delta_not_applicable():
    fsc = bsc(0.1)
    fb = no_feedback(fsc.outputs)
    q1 = iid_policy(2, [1.0, 0.0], 1)
    q2 = iid_policy(2, [0.0, 1.0], 1)
    res = continuity_bound_check(q1, q2, fsc, 0, fb)
    assert not res.applicable
    assert res.passed  # vacuously


def test_information_functional_matches_kl_form():
    rng = np.random.default_rng(83)
    fsc = random_fsc(rng, 1, 2, 2)
    q = random_policy(1, 2, 1, rng)
    fb = no_feedback(fsc.outputs)
    from compound_fsc import channel_prob_table, policy_weight_table

    w = policy_weight_table(q, 2, fb)
    p = channel_prob_table(fsc, 1, 0)
    val = information_functional(w, p)
    joint = w * p
    p_y = joint.sum(axis=0)
    want = sum(
        joint[x, y] * math.log(p[x, y] / p_y[y])
        for x in range(2)
        for y in range(2)
        if joint[x, y] > 0
    )
    assert val == pytest.approx(want, abs=1e-14)


def test_stationary_start_superadditivity():
    # product policies on a stationary Markov channel chain directed info
    rng = np.random.default_rng(89)
    for _ in range(15):
        params = GilbertElliotParams(
            g=float(rng.uniform(0.05, 0.95)),
            b=float(rng.uniform(0.05, 0.95)),
            p_g=float(rng.uniform(0.0, 0.5)),
            p_b=float(rng.uniform(0.0, 0.5)),
        )
        fsc = make_gilbert_elliot(params)
        pi = stationary_distribution(fsc)
        fb = identity_feedback(fsc.outputs)
        for k, m in ((1, 1), (1, 2)):
            qk = random_policy(k, 2, 2, rng)
            qm = random_policy(m, 2, 2, rng)
            qn = product_policy(qk, qm)
            i_n = directed_information(qn, fsc, pi, fb).value_nats
            i_k = directed_information(qk, fsc, pi, fb).value_nats
            i_m = directed_information(qm, fsc, pi, fb).value_nats
            assert i_n >= i_k + i_m - 1e-9


def test_zero_capacity_witness_confirms_useless_channel():
    fsc = bsc(0.5)
    wit = zero_capacity_witness(fsc, identity_feedback(fsc.outputs), n=2)
    assert wit.confirmed
    assert wit.output_independent
    assert wit.uniform_value <= 1e-10
    assert wit.upper_nats <= GAP_TOL
    assert bool(wit)


def test_zero_capacity_witness_rejects_useful_channel():
    fsc = bsc(0.2)
    wit = zero_capacity_witness(fsc, identity_feedback(fsc.outputs), n=1)
    assert not wit.confirmed
    h2 = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
    assert wit.uniform_value == pytest.approx(LN2 - h2, abs=1e-12)
    assert wit.upper_nats is None
