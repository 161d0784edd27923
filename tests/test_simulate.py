import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import compound_fsc.decoder as decoder_mod
import compound_fsc.simulate as simulate_mod
from compound_fsc import (
    CapExceededError,
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    MLDecoder,
    TrialConfig,
    ValidationError,
    bsc,
    exact_error_probability,
    identity_feedback,
    no_feedback,
    run_trials,
    sample_codebook,
    uniform_policy,
)
from compound_fsc.channel import GilbertElliotParams, make_gilbert_elliot, make_memoryless
from compound_fsc.codetree import Codebook, CodeTree, paths_rows
from compound_fsc.decoder import ml_decode
from compound_fsc.exponents import random_coding_bound
from compound_fsc.simulate import example1_config, example1_row, simulate_batch
from compound_fsc.util import worker_count
from compound_fsc.verify import random_fsc
from oracles import naive_causal_channel_prob

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
                want += naive_causal_channel_prob(fsc, paths_rows(tree, np.array([z]))[0], y, s0)
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
    monkeypatch.setattr("compound_fsc.simulate._drive", _refuse_to_simulate)
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


@pytest.mark.parametrize("trials", [40_001, 40_003])
def test_chunk_streams_are_rows_of_one_uniform_matrix(monkeypatch, trials):
    # n + 2 = 5 uniforms a trial, an odd count, and trial counts that split
    # into chunks off the 4-draw Philox block: every chunk must still read
    # its rows of the one (trials, n + 2) matrix, also across the slabs it
    # draws them in, here 3 draw blocks a slab so that every chunk (about
    # 10 000 rows at 4 threads) crosses at least three slab boundaries and
    # ends with a partial slab
    slab = 3 * simulate_mod._DRAW_ROWS
    monkeypatch.setattr(simulate_mod, "_SLAB_ROWS", slab)
    widths = []
    drive = simulate_mod._drive

    def counted_drive(loop, w, *rest):
        widths.append(w.size)
        drive(loop, w, *rest)

    monkeypatch.setattr(simulate_mod, "_drive", counted_drive)
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.2, p_g=0.05, p_b=0.4))
    fam = CompoundFamily(members=(fsc,), labels=("ge",))
    cb = sample_codebook(uniform_policy(3, 2, 2), 3, np.random.default_rng(53))
    cfg = TrialConfig(family=fam, true_label="ge", codebook=cb, feedback=identity_feedback((0, 1)),
                      trials=trials, seed=59)
    fields = ("messages", "initial_states", "outputs", "state_paths", "decisions")
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside each chunk's slices
    try:
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("COMPOUND_FSC_THREADS", threads)
            widths.clear()
            runs[threads] = run_trials(cfg)
            # one partial slab a chunk, behind at least three full ones
            partial = [k for k in widths if k != slab]
            assert len(partial) == int(threads) and 0 < max(partial) < slab, threads
            assert len(widths) >= 4 * int(threads) and sum(widths) == trials, threads
    finally:
        sys.setswitchinterval(interval)
    for threads, res in runs.items():
        for field in fields:
            assert np.array_equal(getattr(res, field), getattr(runs["1"], field)), (threads, field)
    u = np.random.Generator(np.random.Philox(key=cfg.seed)).random((trials, cb.depth + 2))
    res = runs["1"]
    assert np.array_equal(res.messages, np.minimum((u[:, 0] * cb.m_count).astype(np.int64), cb.m_count - 1))
    assert np.array_equal(res.initial_states, (u[:, 1] > 0.5).astype(np.int64))  # uniform prior, two states
    want = simulate_batch(fsc, cb, cfg.feedback, res.messages, res.initial_states, u[:, 2:])
    assert np.array_equal(res.outputs, want[1])
    assert np.array_equal(res.state_paths, want[2])
    assert np.array_equal(res.decisions, MLDecoder(fsc, cfg.feedback).decode_rows(cb, want[1]))


def test_state_row_index_is_computed_past_the_state_dtype():
    # |S| = 129 holds states in uint8, and state 128 with |X| = 2 has CDF
    # rows 256 and 257: the row index s * |X| + x must not wrap at 256
    rng = np.random.default_rng(61)
    n_s = 129
    kernel = rng.dirichlet(np.ones(2 * n_s), size=(n_s, 2)).reshape(n_s, 2, 2, n_s)
    fsc = FscSpec(states=tuple(range(n_s)), inputs=(0, 1), outputs=(0, 1), kernel=kernel)
    fb = identity_feedback((0, 1))
    cb = sample_codebook(uniform_policy(3, 2, 2), 4, rng)
    cfg = TrialConfig(family=CompoundFamily(members=(fsc,), labels=("m",)), true_label="m", codebook=cb,
                      feedback=fb, trials=2000, seed=67)
    res = run_trials(cfg)
    assert res.state_paths.dtype == np.uint8 and res.outputs.dtype == np.uint8
    assert (res.state_paths[:, :-1] == n_s - 1).sum() >= 10  # state 128 is left from, often
    u = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.trials, cb.depth + 2))
    want = scalar_simulation(fsc, cb, fb, res.messages, res.initial_states, u[:, 2:])
    assert np.array_equal(res.outputs, want[1])
    assert np.array_equal(res.state_paths, want[2])
    w = rng.integers(cb.m_count, size=500)
    s0 = np.full(500, n_s - 1)  # every trial's first row index is 256 or 257
    u = rng.random((500, cb.depth))
    for got, expected in zip(simulate_batch(fsc, cb, fb, w, s0, u), scalar_simulation(fsc, cb, fb, w, s0, u)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_trials_memory_is_its_tables_and_scorer_blocks(monkeypatch, threads):
    """A run holds its step-major result tables once, and each worker thread
    one uniform slab and one draw block; beyond them it may use one scorer
    block per worker thread and a slack of 16 int64 values per trial (the
    per-trial messages, initial states and decisions, and the O(trials)
    temporaries of one step of the loop or of the decoder's sort) plus 1 MiB
    (stacked tree symbols, CDF and key tables)."""
    monkeypatch.setenv("COMPOUND_FSC_THREADS", threads)
    monkeypatch.setattr(decoder_mod, "SCORER_BYTES", 2 ** 20)
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.1, b=0.2, p_g=0.05, p_b=0.3))
    fam = CompoundFamily(members=(fsc,), labels=("ge",))
    n, trials = 12, 40_000  # the smallest run that splits into two threads
    cb = sample_codebook(uniform_policy(n, 2, 2), 8, np.random.default_rng(43))
    cfg = TrialConfig(family=fam, true_label="ge", codebook=cb, feedback=identity_feedback((0, 1)),
                      trials=trials, seed=47, s0=0)
    run_trials(TrialConfig(family=fam, true_label="ge", codebook=cb, feedback=cfg.feedback, trials=10))
    tracemalloc.start()
    try:
        res = run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = res.outputs.nbytes + res.state_paths.nbytes
    uniforms = worker_count() * 8 * (n + 2) * (simulate_mod._SLAB_ROWS + simulate_mod._DRAW_ROWS)
    slack = 8 * 16 * trials + 2 ** 20
    assert peak <= tables + uniforms + worker_count() * decoder_mod.SCORER_BYTES + slack
    assert res.outputs.T.flags.c_contiguous and res.state_paths.T.flags.c_contiguous


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


def test_run_trials_sampled_paths_pinned():
    # recorded before the step-major draw: initial states from the prior's CDF,
    # then every (y, s') from the kernel's, over coarse feedback
    fsc = random_fsc(np.random.default_rng(3), 3, 2, 3)
    fb = FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1]))
    cb = sample_codebook(uniform_policy(4, 2, fb.z_card), 5, np.random.default_rng(8))
    cfg = TrialConfig(
        family=CompoundFamily(members=(fsc,), labels=("m",)), true_label="m", codebook=cb,
        feedback=fb, trials=16, seed=6, s0_prior=(0.5, 0.2, 0.3),
    )
    res = run_trials(cfg)
    assert res.messages.tolist() == [3, 2, 4, 2, 2, 1, 0, 3, 1, 3, 0, 4, 0, 3, 2, 4]
    assert res.initial_states.tolist() == [0, 0, 0, 0, 0, 2, 1, 0, 2, 1, 2, 0, 0, 0, 2, 0]
    assert res.outputs.tolist() == [
        [0, 0, 0, 0], [1, 1, 1, 1], [0, 2, 2, 2], [2, 0, 2, 1], [1, 0, 1, 1], [1, 2, 2, 1],
        [1, 1, 0, 2], [2, 1, 0, 0], [1, 2, 1, 1], [2, 0, 0, 1], [0, 1, 1, 0], [1, 0, 2, 2],
        [0, 0, 1, 2], [2, 2, 0, 2], [0, 1, 2, 0], [1, 1, 2, 0],
    ]
    assert res.state_paths.tolist() == [
        [1, 2, 1, 0], [1, 0, 0, 0], [2, 1, 1, 0], [0, 1, 0, 2], [0, 1, 0, 1], [2, 1, 2, 1],
        [1, 2, 2, 1], [0, 1, 2, 0], [0, 0, 0, 0], [0, 2, 1, 2], [2, 0, 2, 1], [0, 2, 1, 0],
        [2, 1, 2, 2], [2, 0, 2, 1], [1, 2, 1, 2], [0, 0, 0, 2],
    ]


def scalar_simulation(fsc, cb, feedback, w, s0, u_steps):
    """One trial at a time: walk the tree by the feedback so far, then draw
    (y, s') by inverse CDF from the cumsum of kernel[s, x]."""
    t, n = u_steps.shape
    xs, ys, states = (np.empty((t, n), dtype=np.int64) for _ in range(3))
    for k in range(t):
        s, z = int(s0[k]), []
        for i in range(n):
            x = int(paths_rows(cb.trees[w[k]], np.array([z + [0] * (n - 1 - len(z))]))[0, i])
            cdf = np.cumsum(fsc.kernel[s, x].ravel())
            pick = min(int(np.searchsorted(cdf, u_steps[k, i], side="left")), cdf.size - 1)
            y, s = divmod(pick, fsc.n_states)
            xs[k, i], ys[k, i], states[k, i] = x, y, s
            z.append(int(feedback.table[y]))
    return xs, ys, states


@pytest.mark.parametrize("feedback", ["identity", "coarse", "none"])
@pytest.mark.parametrize("n_states", [1, 2, 3, 4])
def test_simulate_batch_matches_scalar_oracle(n_states, feedback):
    rng = np.random.default_rng(10 * n_states + len(feedback))
    for x_card, y_card in itertools.product((2, 3), (2, 3)):
        if feedback == "coarse" and y_card != 3:
            continue
        outputs = tuple(range(y_card))
        fb = {
            "identity": identity_feedback(outputs),
            "coarse": FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1])),
            "none": no_feedback(outputs),
        }[feedback]
        # state 0 emits from one row whose CDF ends below 1, whatever the input
        k = y_card * n_states
        row = rng.dirichlet(np.ones(k))
        while np.cumsum(row)[-1] >= 1.0:
            row = rng.dirichlet(np.ones(k))
        kernel = rng.dirichlet(np.ones(k), size=(n_states, x_card))
        kernel[0] = row
        fsc = FscSpec(
            states=tuple(range(n_states)), inputs=tuple(range(x_card)), outputs=outputs,
            kernel=kernel.reshape(n_states, x_card, y_card, n_states),
        )
        cb = sample_codebook(uniform_policy(4, x_card, fb.z_card), 5, rng)
        trials = 30
        w = rng.integers(cb.m_count, size=trials)
        s0 = rng.integers(n_states, size=trials)
        s0[:2] = 0
        u = rng.random((trials, cb.depth))
        cdf = np.cumsum(fsc.kernel[0, 0].ravel())
        u[0, 0] = cdf[-2]  # exactly a CDF entry: picks that entry, not the next
        u[1, 0] = np.nextafter(cdf[-1], 1.0)  # above the last entry: clamps to K - 1
        got = simulate_batch(fsc, cb, fb, w, s0, u)
        want = scalar_simulation(fsc, cb, fb, w, s0, u)
        assert want[1][0, 0] * n_states + want[2][0, 0] == k - 2
        assert want[1][1, 0] * n_states + want[2][1, 0] == k - 1
        for g, e in zip(got, want):
            assert np.array_equal(g, e)


def test_simulated_inputs_follow_tree_paths():
    # the simulator and the decoder must read trees through the same layout
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.3, b=0.2, p_g=0.05, p_b=0.4))
    fb = identity_feedback(fsc.outputs)
    rng = np.random.default_rng(9)
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
    row = example1_row(run_trials(example1_config(3, 3, 2000, seed=1)), 3, 3)
    # (1 - 2^-theta)^n beats 1 - n 2^-n at theta = n = 3
    assert row.all_bad_exact == pytest.approx(0.875**3)
    assert row.all_bad_exact > row.one_minus_n_2n
    assert row.one_minus_n_2n == pytest.approx(0.625)
    sigma = row.all_bad_sigma
    assert abs(row.all_bad_freq - row.all_bad_exact) <= 3 * sigma
    assert row.rate_floor_nats == pytest.approx(LN2 - (-0.25 * math.log(0.25) - 0.75 * math.log(0.75)))


def test_example1_boundary_case():
    row = example1_row(run_trials(example1_config(1, 1, 500, seed=3)), 1, 1)
    assert row.all_bad_exact == pytest.approx(0.5)
    assert row.one_minus_n_2n == pytest.approx(0.5)


def test_example1_error_floor():
    row = example1_row(run_trials(example1_config(8, 6, 5000, seed=7)), 8, 6)
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
