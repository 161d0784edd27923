import math

import numpy as np
import pytest

from compound_fsc import (
    CompoundFamily,
    GilbertElliotParams,
    ValidationError,
    blahut_arimoto,
    bsc,
    empirical_violation_rate,
    estimate_memoryless_channel,
    make_gilbert_elliot,
    make_memoryless,
    sanov_pinsker_bound,
    two_phase_scheme,
)
from compound_fsc.estimation import (
    entropy_continuity_bound,
    memoryless_mutual_info,
    mutual_info_continuity_bound,
)
from compound_fsc.util import wilson_interval, xlogy

LN2 = math.log(2.0)


def h_nats(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def test_estimate_noiseless_exact():
    fsc = make_memoryless(np.eye(2))
    rng = np.random.default_rng(0)
    est = estimate_memoryless_channel(fsc, 1, rng)
    assert np.array_equal(est, np.eye(2))


def test_estimate_converges_with_samples():
    fsc = bsc(0.2)
    rng = np.random.default_rng(241)
    est = estimate_memoryless_channel(fsc, 10_000, rng)
    truth = fsc.kernel[0, :, :, 0]
    assert np.abs(est - truth).sum() <= 0.02
    assert np.allclose(est.sum(axis=1), 1.0)


def test_estimate_single_probe_is_point_mass():
    fsc = bsc(0.3)
    rng = np.random.default_rng(7)
    est = estimate_memoryless_channel(fsc, 1, rng)
    for row in est:
        assert sorted(row.tolist()) == [0.0, 1.0]


def test_estimate_rejects_stateful_and_bad_m():
    ge = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.3, p_g=0.1, p_b=0.4))
    rng = np.random.default_rng(1)
    with pytest.raises(ValidationError):
        estimate_memoryless_channel(ge, 10, rng)
    with pytest.raises(ValidationError):
        estimate_memoryless_channel(bsc(0.2), 0, rng)


def test_sanov_pinsker_bound_values():
    want = 101**2 * math.exp(-100 * 0.25 / 2.0)
    assert sanov_pinsker_bound(100, 2, 0.5) == pytest.approx(want)
    assert sanov_pinsker_bound(100, 2, 0.5) == pytest.approx(0.0380156, rel=1e-5)
    with pytest.raises(ValidationError):
        sanov_pinsker_bound(0, 2, 0.5)
    with pytest.raises(ValidationError):
        sanov_pinsker_bound(100, 2, 0.0)


def test_empirical_rate_within_bound():
    rate, bound = empirical_violation_rate(bsc(0.3), 0, m=200, eps1=0.2, trials=4000, seed=3)
    assert rate <= min(1.0, bound)
    # impossible deviation: L1 between distributions is at most 2
    rate2, _ = empirical_violation_rate(bsc(0.3), 0, m=50, eps1=2.5, trials=500, seed=4)
    assert rate2 == 0.0


def test_empirical_rate_seed_stable():
    a = empirical_violation_rate(bsc(0.25), 1, m=100, eps1=0.3, trials=1000, seed=9)
    b = empirical_violation_rate(bsc(0.25), 1, m=100, eps1=0.3, trials=1000, seed=9)
    assert a == b


def test_memoryless_mutual_info_closed_form():
    cond = np.array([[0.8, 0.2], [0.2, 0.8]])
    got = memoryless_mutual_info(np.array([0.5, 0.5]), cond)
    assert got == pytest.approx(LN2 - h_nats(0.2), abs=1e-12)
    assert memoryless_mutual_info(np.array([1.0, 0.0]), cond) == pytest.approx(0.0, abs=1e-12)


def test_continuity_bounds_shapes():
    assert entropy_continuity_bound(0.0, 2) == 0.0
    d = 0.02
    tau = mutual_info_continuity_bound(d, 2)
    assert tau == pytest.approx(-2 * d * math.log(d / 2))
    with pytest.raises(ValidationError):
        entropy_continuity_bound(-0.1, 2)


def test_mismatch_loss_within_eta():
    # optimize the input for a nearby channel, measure the loss on the truth
    p_true, p_near = 0.1, 0.11
    true_cond = bsc(p_true).kernel[0, :, :, 0]
    near_cond = bsc(p_near).kernel[0, :, :, 0]
    delta = float(np.abs(true_cond - near_cond).sum())
    c_true, q_true = blahut_arimoto(true_cond)
    _, q_near = blahut_arimoto(near_cond)
    loss = c_true - memoryless_mutual_info(q_near, true_cond)
    assert 0.0 <= loss + 1e-12
    assert loss <= 2 * mutual_info_continuity_bound(delta, 2)  # eta(delta) = 2 tau(delta)


def test_two_phase_single_member_is_exact():
    fam = CompoundFamily(members=(bsc(0.2),), labels=("only",))
    res = two_phase_scheme(fam, "only", m_train=10, n_total=100, trials=5, seed=2)
    fraction = 1.0 - 10 / 100
    want = fraction * (LN2 - h_nats(0.2))
    assert res.misidentification_rate == 0.0
    assert res.achieved_mean == pytest.approx(want, abs=1e-9)
    assert res.target_rate == pytest.approx(want, abs=1e-9)
    assert np.allclose(res.achieved_rates, want, atol=1e-9)


def test_two_phase_distinguishable_pair():
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.4)), labels=("clean", "noisy"))
    res = two_phase_scheme(fam, "clean", m_train=400, n_total=10_000, trials=50, seed=5)
    assert res.misidentification_rate <= 0.02
    assert res.achieved_mean == pytest.approx(res.target_rate, rel=1e-6)
    # benchmark is the worst member, so the clean channel beats it
    assert res.target_rate >= res.benchmark_rate - 1e-12


def test_two_phase_rate_discount():
    fam = CompoundFamily(members=(bsc(0.2),), labels=("only",))
    res = two_phase_scheme(fam, "only", m_train=5000, n_total=10_000, trials=3, seed=6)
    assert res.target_rate == pytest.approx(0.5 * (LN2 - h_nats(0.2)), abs=1e-9)


def test_two_phase_validation():
    ge = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.3, p_g=0.1, p_b=0.4))
    fam_ge = CompoundFamily(members=(ge,), labels=("ge",))
    with pytest.raises(ValidationError):
        two_phase_scheme(fam_ge, "ge", m_train=10, n_total=100)
    fam = CompoundFamily(members=(bsc(0.2),), labels=("m",))
    with pytest.raises(ValidationError):
        two_phase_scheme(fam, "m", m_train=100, n_total=100)
    with pytest.raises(ValidationError):
        two_phase_scheme(fam, "m", m_train=1, n_total=100)  # cannot probe both inputs


def test_xlogy_conventions_and_broadcasting():
    assert xlogy(0.0, 0.0) == 0.0
    assert xlogy(0.0, 0.5) == 0.0
    with np.errstate(divide="ignore"):
        assert xlogy(2.0, 0.0) == -math.inf
        # x of shape (k, 1) against y of shape (1, m): a (k, m) table
        got = xlogy(np.array([[0.0], [0.5], [2.0]]), np.array([[0.25, 1.0, 0.0]]))
    want = [[0.0, 0.0, 0.0], [0.5 * math.log(0.25), 0.0, -math.inf], [2.0 * math.log(0.25), 0.0, -math.inf]]
    assert got.shape == (3, 3)
    assert np.array_equal(got, want)


def test_wilson_interval_rejects_counts_outside_trials():
    for successes in (0, 10):
        lo, hi = wilson_interval(successes, 10)
        assert 0.0 <= lo < hi <= 1.0
    for successes, trials in ((5, 3), (-1, 10), (11, 10)):
        with pytest.raises(ValidationError):
            wilson_interval(successes, trials)
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)
