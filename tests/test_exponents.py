import math

import numpy as np
import pytest

from compound_fsc import (
    GilbertElliotParams,
    ValidationError,
    beta_exponent,
    bsc,
    e0_lower_bound_check,
    f_n_exponent,
    fn_superadditivity_check,
    gallager_e0,
    identity_feedback,
    make_gilbert_elliot,
    make_memoryless,
    no_feedback,
    optimal_rho,
    random_coding_bound,
    random_policy,
    uniform_policy,
)
from compound_fsc.verify import random_fsc
from oracles import (
    e0_lower_bound_per_call,
    f_n_exponent_per_call,
    fn_superadditivity_per_call,
    gallager_e0_per_call,
)

LN2 = math.log(2.0)


def test_e0_zero_at_rho_zero():
    rng = np.random.default_rng(211)
    for _ in range(10):
        fsc = random_fsc(rng, 2, 2, 2)
        q = random_policy(2, 2, 2, rng)
        e0 = gallager_e0(0.0, q, fsc, 0, identity_feedback((0, 1)))
        assert abs(e0) < 1e-12


def test_e0_bsc_closed_form_at_rho_one():
    for p in (0.05, 0.1, 0.3):
        fsc = bsc(p)
        q = uniform_policy(1, 2, 1)
        e0 = gallager_e0(1.0, q, fsc, 0, no_feedback((0, 1)))
        want = LN2 - 2.0 * math.log(math.sqrt(p) + math.sqrt(1.0 - p))
        assert e0 == pytest.approx(want, abs=1e-12)


def test_e0_block_additivity_open_loop():
    p = 0.1
    fsc = bsc(p)
    single = gallager_e0(1.0, uniform_policy(1, 2, 1), fsc, 0, no_feedback((0, 1)))
    for n in (2, 3):
        block = gallager_e0(1.0, uniform_policy(n, 2, 1), fsc, 0, no_feedback((0, 1)))
        assert block == pytest.approx(single, abs=1e-12)  # per-symbol normalized


def test_e0_monotone_in_rho():
    rng = np.random.default_rng(223)
    grid = np.linspace(0.0, 1.0, 11)
    fb = identity_feedback((0, 1))
    for _ in range(15):
        fsc = random_fsc(rng, int(rng.integers(1, 3)), 2, 2)
        q = random_policy(2, 2, 2, rng)
        s0 = int(rng.integers(0, fsc.n_states))
        values = [gallager_e0(float(r), q, fsc, s0, fb) for r in grid]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12


def test_e0_rejects_negative_rho():
    fsc = bsc(0.1)
    with pytest.raises(ValidationError):
        gallager_e0(-0.1, uniform_policy(1, 2, 1), fsc, 0, no_feedback((0, 1)))


def test_f_n_exponent_state_penalty():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.4, p_g=0.05, p_b=0.4))
    q = uniform_policy(2, 2, 2)
    fb = identity_feedback((0, 1))
    rho = 0.7
    want = -rho * LN2 / 2 + min(gallager_e0(rho, q, fsc, s, fb) for s in range(2))
    assert f_n_exponent(rho, q, fsc, fb) == pytest.approx(want, abs=1e-14)
    # single state: no penalty
    m = bsc(0.2)
    q1 = uniform_policy(2, 2, 2)
    assert f_n_exponent(rho, q1, m, fb) == pytest.approx(
        gallager_e0(rho, q1, m, 0, fb), abs=1e-14
    )


def test_random_coding_bound_formula_and_useless_channel():
    fsc = bsc(0.5)
    q = uniform_policy(4, 2, 1)
    fb = no_feedback((0, 1))
    rate = 0.2
    rho = 1.0
    f = f_n_exponent(rho, q, fsc, fb)
    assert abs(f) < 1e-12  # E0 of a useless channel vanishes
    bound = random_coding_bound(rho, q, fsc, fb, rate)
    assert bound == pytest.approx(math.exp(4 * rho * rate), abs=1e-9)
    assert bound > 1.0  # no positive rate is achievable


def test_random_coding_bound_positive_exponent():
    fsc = bsc(0.05)
    q = uniform_policy(6, 2, 1)
    fb = no_feedback((0, 1))
    rate = LN2 / 6
    bound = random_coding_bound(1.0, q, fsc, fb, rate)
    assert 0.0 < bound < 1.0


def test_beta_linear_branch_value():
    # m = 1, binary outputs, eps far above the branch point
    want = 5.0 - (1.0 + LN2) ** 2 / 2.0
    assert beta_exponent(5.0, 1, 2) == pytest.approx(want, abs=1e-12)


def test_beta_quadratic_branch_value():
    big_l = 1.0 + 2 * LN2
    eps = 0.1
    want = 2 * eps * eps / (2 * big_l * big_l)
    assert beta_exponent(eps, 2, 2) == pytest.approx(want, abs=1e-14)


def test_beta_branches_agree_at_crossover():
    for m, y_card in ((1, 2), (3, 2), (2, 4)):
        big_l = 1.0 + m * math.log(y_card)
        eps_star = big_l * big_l / m
        below = beta_exponent(eps_star * (1 - 1e-9), m, y_card)
        above = beta_exponent(eps_star * (1 + 1e-9), m, y_card)
        assert below == pytest.approx(above, abs=1e-7)
        assert beta_exponent(eps_star, m, y_card) == pytest.approx(
            big_l * big_l / (2 * m), abs=1e-12
        )


def test_beta_monotone_in_eps():
    grid = np.linspace(0.01, 10.0, 200)
    vals = [beta_exponent(float(e), 2, 2) for e in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a
    with pytest.raises(ValidationError):
        beta_exponent(0.0, 1, 2)


def test_optimal_rho_values():
    big_l = 1.0 + LN2
    assert optimal_rho(5.0, 1, 2) == 1.0
    eps = 0.1
    assert optimal_rho(eps, 1, 2) == pytest.approx(eps / (big_l * big_l))
    for eps in (0.01, 0.5, 2.0, 50.0):
        assert 0.0 <= optimal_rho(eps, 3, 2) <= 1.0


@pytest.mark.parametrize("args", [(-1.0, 4, 2), (0.0, 4, 2), (0.5, 0, 2), (0.5, 4, 0)])
def test_optimal_rho_shares_beta_domain(args):
    with pytest.raises(ValidationError):
        beta_exponent(*args)
    with pytest.raises(ValidationError):
        optimal_rho(*args)


def _shared_table_instances():
    """Random (fsc, feedback, head, tail, s0) at n = 1..3, 1 to 3 states."""
    rng = np.random.default_rng(239)
    for i in range(18):
        fsc = random_fsc(rng, 1 + i % 3, 2, 2)
        fb = identity_feedback(fsc.outputs) if i % 2 == 0 else no_feedback(fsc.outputs)
        n = 1 + (i // 3) % 3
        head = random_policy(n, 2, fb.z_card, rng)
        tail = random_policy(1 + i % 2, 2, fb.z_card, rng)
        yield fsc, fb, head, tail, int(rng.integers(fsc.n_states))


def test_shared_tables_match_per_call_tables_bitwise():
    rho_grid = np.linspace(0.0, 1.0, 11)
    for fsc, fb, q, tail, s0 in _shared_table_instances():
        assert gallager_e0(rho_grid, q, fsc, s0, fb) == [gallager_e0_per_call(r, q, fsc, s0, fb) for r in rho_grid]
        for rho in (0.0, 0.37, 1.0):
            assert f_n_exponent(rho, q, fsc, fb) == f_n_exponent_per_call(rho, q, fsc, fb)
            lb = e0_lower_bound_check(rho, q, fsc, s0, fb)
            assert (lb.e0, lb.info_rate, lb.bound) == e0_lower_bound_per_call(rho, q, fsc, s0, fb)
            fn = fn_superadditivity_check(rho, q, tail, fsc, fb)
            assert (fn.lhs, fn.rhs) == fn_superadditivity_per_call(rho, q, tail, fsc, fb)


def test_negative_rho_anywhere_is_rejected():
    rng = np.random.default_rng(241)
    fsc = random_fsc(rng, 2, 2, 2)
    fb = identity_feedback(fsc.outputs)
    q = random_policy(2, 2, 2, rng)
    for grid in ([-0.5, 0.5, 1.0], [0.0, 0.5, -1e-9], np.array([0.2, -0.1, 0.3])):
        with pytest.raises(ValidationError):
            gallager_e0(grid, q, fsc, 0, fb)
    with pytest.raises(ValidationError):
        gallager_e0(-0.1, q, fsc, 0, fb)
    with pytest.raises(ValidationError):
        f_n_exponent(-0.1, q, fsc, fb)
    with pytest.raises(ValidationError):
        e0_lower_bound_check(-0.1, q, fsc, 0, fb)


def test_e0_lower_bound_formula_and_sweep():
    fsc = bsc(0.1)
    q = uniform_policy(1, 2, 1)
    fb = no_feedback((0, 1))
    res = e0_lower_bound_check(1.0, q, fsc, 0, fb)
    big_l = 1.0 + LN2
    assert res.bound == pytest.approx(res.info_rate - big_l * big_l / 2.0, abs=1e-12)
    assert res.passed
    rng = np.random.default_rng(227)
    for _ in range(20):
        fsc = random_fsc(rng, int(rng.integers(1, 3)), 2, 2)
        q = random_policy(int(rng.integers(1, 3)), 2, 2, rng)
        rho = float(rng.uniform(0.0, 1.0))
        s0 = int(rng.integers(0, fsc.n_states))
        res = e0_lower_bound_check(rho, q, fsc, s0, identity_feedback((0, 1)))
        assert res.passed
        assert res.e0 >= res.bound - 1e-9


def test_fn_superadditive_under_product_laws():
    rng = np.random.default_rng(229)
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.35, b=0.3, p_g=0.05, p_b=0.4))
    fb = identity_feedback((0, 1))
    for k, m in ((1, 1), (1, 2)):
        for _ in range(5):
            qk = random_policy(k, 2, 2, rng)
            qm = random_policy(m, 2, 2, rng)
            rho = float(rng.uniform(0.0, 1.0))
            res = fn_superadditivity_check(rho, qk, qm, fsc, fb)
            assert res.passed
            assert res.lhs >= res.rhs - 1e-9


def test_fn_superadditivity_vanishes_at_rho_zero():
    rng = np.random.default_rng(233)
    fsc = random_fsc(rng, 2, 2, 2)
    qk = random_policy(1, 2, 2, rng)
    qm = random_policy(1, 2, 2, rng)
    res = fn_superadditivity_check(0.0, qk, qm, fsc, identity_feedback((0, 1)))
    assert abs(res.lhs) < 1e-12
    assert abs(res.rhs) < 1e-12
