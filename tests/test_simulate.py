import itertools
import math

import numpy as np
import pytest

from compound_fsc import (
    CapExceededError,
    CodeTree,
    Codebook,
    CompoundFamily,
    FscSpec,
    GilbertElliotParams,
    MLDecoder,
    TrialConfig,
    ValidationError,
    bsc,
    exact_error_probability,
    example1_config,
    example1_demo,
    example1_row,
    identity_feedback,
    make_gilbert_elliot,
    make_memoryless,
    ml_decode,
    naive_causal_channel_prob,
    no_feedback,
    path,
    paths_rows,
    random_coding_bound,
    run_trials,
    sample_codebook,
    sample_concat_codebook,
    simulate_batch,
    uniform_policy,
)

LN2 = math.log(2.0)


def constant_codebook(n, symbols_per_message, z_card=2):
    trees = tuple(
        CodeTree(
            depth=n,
            x_card=2,
            z_card=z_card,
            symbols=np.full(sum(z_card**j for j in range(n)) if z_card > 1 else n, k),
        )
        for k in symbols_per_message
    )
    return Codebook(trees=trees)


def test_noiseless_channel_zero_errors():
    fsc = make_memoryless(np.eye(2))
    fam = CompoundFamily(members=(fsc,), labels=("id",))
    cfg = TrialConfig(
        family=fam,
        true_label="id",
        codebook=constant_codebook(3, (0, 1)),
        feedback=identity_feedback((0, 1)),
        trials=500,
        seed=5,
    )
    res = run_trials(cfg)
    assert res.errors == 0
    assert res.error_rate == 0.0
    assert res.ci95[0] <= 1e-12


def test_useless_channel_half_error_two_messages():
    fsc = bsc(0.5)
    fam = CompoundFamily(members=(fsc,), labels=("dead",))
    trials = 4000
    cfg = TrialConfig(
        family=fam,
        true_label="dead",
        codebook=constant_codebook(3, (0, 1)),
        feedback=identity_feedback((0, 1)),
        trials=trials,
        seed=11,
    )
    res = run_trials(cfg)
    sigma = math.sqrt(0.25 / trials)
    assert abs(res.error_rate - 0.5) <= 3 * sigma
    lo, hi = res.ci95
    assert lo <= 0.5 <= hi


def test_exact_error_bsc_antipodal_single_use():
    fsc = bsc(0.15)
    fb = identity_feedback((0, 1))
    cb = constant_codebook(1, (0, 1))
    dec = MLDecoder(fsc, fb)
    assert exact_error_probability(cb, fsc, 0, fb, dec) == pytest.approx(0.15, abs=1e-12)
    noiseless = make_memoryless(np.eye(2))
    dec2 = MLDecoder(noiseless, fb)
    assert exact_error_probability(cb, noiseless, 0, fb, dec2) == 0.0


def test_exact_error_enumeration_cap():
    fsc = bsc(0.1)
    fb = identity_feedback((0, 1))
    cb = constant_codebook(13, (0, 1))
    with pytest.raises(CapExceededError):
        exact_error_probability(cb, fsc, 0, fb, MLDecoder(fsc, fb))


@pytest.mark.parametrize(
    "feedback", [identity_feedback((0, 1)), no_feedback((0, 1))], ids=["identity", "none"]
)
def test_exact_error_matches_brute_force_oracle(feedback):
    # every output path, every message the scalar decoder does not pick,
    # weighted by the state-path sum along that message's tree path
    rng = np.random.default_rng(43)
    rows = rng.dirichlet(np.ones(4), size=4)
    fsc = FscSpec(states=(0, 1), inputs=(0, 1), outputs=(0, 1), kernel=rows.reshape(2, 2, 2, 2))
    n, s0 = 3, 1
    cb = sample_codebook(uniform_policy(n, 2, feedback.z_card), 4, rng)
    want = 0.0
    for y in itertools.product(range(2), repeat=n):
        w_hat = ml_decode(cb, y, fsc, feedback)
        z = [feedback.table[v] for v in y[:-1]]
        for w, tree in enumerate(cb.trees):
            if w != w_hat:
                want += naive_causal_channel_prob(fsc, path(tree, z), y, s0)
    got = exact_error_probability(cb, fsc, s0, feedback, MLDecoder(fsc, feedback))
    assert got == pytest.approx(want / cb.m_count, rel=1e-12, abs=0)


@pytest.mark.parametrize("s0", [-1, 2, True])
def test_trial_config_rejects_out_of_range_state(s0):
    fam = CompoundFamily(
        members=(make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.4, p_g=0.05, p_b=0.45)),),
        labels=("ge",),
    )
    with pytest.raises(ValidationError):
        TrialConfig(
            family=fam,
            true_label="ge",
            codebook=constant_codebook(3, (0, 1)),
            feedback=identity_feedback((0, 1)),
            s0=s0,
        )


def _refuse_to_simulate(*args, **kwargs):
    raise AssertionError("a trial ran before the prior was checked")


@pytest.mark.parametrize("field", ["s0_prior", "decoder_s0_prior"])
@pytest.mark.parametrize(
    "prior",
    [(0.2, 0.3, 0.5), (1.5, -0.5), (0.3, 0.3), (math.nan, math.nan), (math.inf, 0.0)],
    ids=["three-states", "negative", "unnormalised", "nan", "inf"],
)
def test_trial_config_rejects_bad_state_prior(monkeypatch, field, prior):
    monkeypatch.setattr("compound_fsc.simulate.simulate_batch", _refuse_to_simulate)
    fam = CompoundFamily(
        members=(make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.4, p_g=0.05, p_b=0.45)),),
        labels=("ge",),
    )
    with pytest.raises(ValidationError):
        run_trials(
            TrialConfig(
                family=fam,
                true_label="ge",
                codebook=constant_codebook(3, (0, 1)),
                feedback=identity_feedback((0, 1)),
                trials=50,
                **{field: prior},
            )
        )


def test_monte_carlo_matches_exact():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.4, p_g=0.05, p_b=0.45))
    fam = CompoundFamily(members=(fsc,), labels=("ge",))
    fb = identity_feedback((0, 1))
    rng = np.random.default_rng(23)
    cb = sample_codebook(uniform_policy(4, 2, 2), 3, rng)
    trials = 20000
    cfg = TrialConfig(
        family=fam,
        true_label="ge",
        codebook=cb,
        feedback=fb,
        trials=trials,
        seed=29,
        s0=0,
    )
    res = run_trials(cfg)
    exact = exact_error_probability(cb, fsc, 0, fb, MLDecoder(fsc, fb))
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(res.error_rate - exact) <= 3 * sigma


def test_same_seed_reproduces_everything():
    fam = CompoundFamily(members=(bsc(0.2),), labels=("m",))
    cfg = TrialConfig(
        family=fam,
        true_label="m",
        codebook=constant_codebook(3, (0, 1)),
        feedback=identity_feedback((0, 1)),
        trials=2000,
        seed=31,
    )
    a = run_trials(cfg)
    b = run_trials(cfg)
    assert np.array_equal(a.messages, b.messages)
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.state_paths, b.state_paths)


def test_results_invariant_to_thread_count(monkeypatch):
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.4, b=0.3, p_g=0.1, p_b=0.4))
    fam = CompoundFamily(members=(fsc,), labels=("ge",))
    rng = np.random.default_rng(37)
    cb = sample_codebook(uniform_policy(2, 2, 2), 2, rng)
    cfg = TrialConfig(
        family=fam,
        true_label="ge",
        codebook=cb,
        feedback=identity_feedback((0, 1)),
        trials=40000,
        seed=41,
    )
    monkeypatch.setenv("COMPOUND_FSC_THREADS", "1")
    single = run_trials(cfg)
    monkeypatch.setenv("COMPOUND_FSC_THREADS", "3")
    multi = run_trials(cfg)
    assert np.array_equal(single.decisions, multi.decisions)
    assert np.array_equal(single.outputs, multi.outputs)
    assert single.errors == multi.errors


def test_run_trials_decisions_pinned():
    # decisions recorded when every trial row was scored on its own; scoring
    # each distinct output row once must not move any of them
    fam = CompoundFamily(
        members=tuple(
            make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.2, p_g=0.05, p_b=p_b)) for p_b in (0.4, 0.3)
        ),
        labels=("a", "b"),
    )
    cb = sample_codebook(uniform_policy(4, 2, 2), 4, np.random.default_rng(11))
    want = {
        ("ml", "a"): [0, 3, 2, 0, 1, 3, 3, 0, 2, 2, 0, 0, 3, 1, 3, 0, 0, 3, 2, 3,
                      0, 2, 1, 0, 0, 0, 2, 1, 0, 3, 2, 3, 2, 3, 3, 2, 0, 2, 3, 0],
        ("universal", "b"): [2, 3, 2, 0, 1, 3, 1, 0, 2, 2, 1, 0, 3, 1, 3, 0, 3, 3, 3, 3,
                             0, 2, 1, 0, 0, 0, 0, 1, 0, 3, 2, 3, 2, 3, 3, 2, 0, 2, 3, 0],
    }
    for (decoder, label), decisions in want.items():
        cfg = TrialConfig(
            family=fam, true_label=label, codebook=cb, feedback=identity_feedback((0, 1)),
            decoder=decoder, trials=40, seed=5,
        )
        res = run_trials(cfg)
        assert res.messages.tolist() == [
            2, 2, 0, 3, 1, 3, 1, 3, 1, 2, 1, 0, 3, 1, 3, 0, 3, 3, 1, 3,
            0, 2, 1, 0, 2, 0, 0, 1, 2, 3, 2, 3, 1, 3, 3, 2, 0, 2, 0, 1,
        ]
        assert res.decisions.tolist() == decisions
        assert len({tuple(y) for y in res.outputs.tolist()}) < cfg.trials  # rows repeat


@pytest.mark.parametrize("concat", [False, True], ids=["plain", "concatenated"])
def test_simulated_inputs_follow_tree_paths(concat):
    # the simulator and the decoder must read trees through the same layout
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.2, p_g=0.05, p_b=0.4))
    fb = identity_feedback(fsc.outputs)
    rng = np.random.default_rng(9)
    if concat:
        cb = sample_concat_codebook(uniform_policy(3, 2, fb.z_card), 2, 6, rng)
    else:
        cb = sample_codebook(uniform_policy(6, 2, fb.z_card), 6, rng)
    trials = 600
    w = rng.integers(cb.m_count, size=trials)
    s0 = rng.integers(fsc.n_states, size=trials)
    xs, ys, _ = simulate_batch(fsc, cb, fb, w, s0, rng.random((trials, cb.depth)))
    z = fb.table[ys[:, :-1]]
    for msg, tree in enumerate(cb.trees):
        rows = w == msg
        assert rows.any()
        assert np.array_equal(xs[rows], paths_rows(tree, z[rows]))


def test_trial_config_validation():
    fam = CompoundFamily(members=(bsc(0.2),), labels=("m",))
    cb = constant_codebook(2, (0, 1))
    fb = identity_feedback((0, 1))
    with pytest.raises(ValidationError):
        TrialConfig(family=fam, true_label="m", codebook=cb, feedback=fb, trials=0)
    with pytest.raises(ValidationError):
        TrialConfig(family=fam, true_label="m", codebook=cb, feedback=fb, decoder="map")
    with pytest.raises(ValidationError):
        run_trials(TrialConfig(family=fam, true_label="nope", codebook=cb, feedback=fb))


def test_example1_slow_mixing_arithmetic():
    cfg = example1_config(theta=3, n=3, trials=10)
    assert cfg.s0 == 1
    assert cfg.codebook.m_count == 2
    row = example1_demo(theta=3, n=3, trials=2000, seed=1)
    # (1 - 2^-theta)^n beats 1 - n 2^-n at theta = n = 3
    assert row.all_bad_exact == pytest.approx(0.875**3)
    assert row.all_bad_exact > row.one_minus_n_2n
    assert row.one_minus_n_2n == pytest.approx(0.625)
    sigma = row.all_bad_sigma
    assert abs(row.all_bad_freq - row.all_bad_exact) <= 3 * sigma
    assert row.rate_floor_nats == pytest.approx(LN2 - (-0.25 * math.log(0.25) - 0.75 * math.log(0.75)))


def test_example1_boundary_case():
    row = example1_demo(theta=1, n=1, trials=500, seed=3)
    assert row.all_bad_exact == pytest.approx(0.5)
    assert row.one_minus_n_2n == pytest.approx(0.5)


def test_example1_error_floor():
    row = example1_demo(theta=8, n=6, trials=5000, seed=7)
    # two random trees collide half the time inside an all-bad burst, and a
    # collision is lost with probability 1/2
    assert row.error_rate >= row.error_floor - 3 * row.error_sigma
    assert row.error_floor == 0.25


def test_random_coding_bound_over_ensemble():
    fsc = bsc(0.05)
    fam_label = "m"
    fam = CompoundFamily(members=(fsc,), labels=(fam_label,))
    n, m_count = 6, 2
    rate = math.log(m_count) / n
    fb = no_feedback((0, 1))
    q = uniform_policy(n, 2, 1)
    rng = np.random.default_rng(43)
    dec = MLDecoder(fsc, fb)
    errs = [
        exact_error_probability(sample_codebook(q, m_count, rng), fsc, 0, fb, dec)
        for _ in range(60)
    ]
    avg = float(np.mean(errs))
    se = float(np.std(errs) / math.sqrt(len(errs)))
    for rho in (0.5, 1.0):
        bound = random_coding_bound(rho, q, fsc, fb, rate)
        assert bound > 0
        assert avg <= bound + 3 * se
