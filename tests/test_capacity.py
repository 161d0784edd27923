import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import compound_fsc.capacity as capmod
from compound_fsc import (
    CapExceededError,
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    SolverConfig,
    ValidationError,
    bsc,
    compute_Cn,
    directed_information,
    ge_feedback_gap,
    ge_gap_family,
    identity_feedback,
    no_feedback,
    uniform_policy,
)
from compound_fsc.capacity import (
    blahut_arimoto,
    compute_Cn_markovian,
    compute_Cn_nofeedback,
    memoryless_compound_fb_capacity,
    superadditivity_check,
)
from compound_fsc.causal import (
    channel_prob_table,
    code_weights,
    history_code,
    input_prob,
    mixture_policy,
    policy_weight_table,
    product_policy,
    random_policy,
    sequence_reach,
)
from compound_fsc.channel import GilbertElliotParams, make_gilbert_elliot, make_memoryless, stationary_distribution
from compound_fsc.directed_info import information_functional
from compound_fsc.util import project_rows_to_simplex
from compound_fsc.verify import random_family

LN2 = math.log(2.0)


def h_nats(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def ge_family(*param_tuples, labels=None):
    members = tuple(
        make_gilbert_elliot(GilbertElliotParams(g=g, b=b, p_g=pg, p_b=pb))
        for g, b, pg, pb in param_tuples
    )
    labels = labels or tuple(f"m{i}" for i in range(len(members)))
    return CompoundFamily(members=members, labels=labels)


LEAN = SolverConfig(max_iters=120, restarts=1, seed=3)


def test_bsc_capacity_closed_form():
    fb = identity_feedback((0, 1))
    for p in (0.05, 0.1, 0.2, 0.3, 0.45):
        fam = CompoundFamily(members=(bsc(p),), labels=("m",))
        rep = compute_Cn(fam, fb, 1, LEAN)
        assert rep.C_n_nats == pytest.approx(LN2 - h_nats(p), abs=1e-3)
        assert rep.hatC_n_nats == rep.C_n_nats  # single state


def test_bsc_pair_worst_case():
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("p10", "p20"))
    rep = compute_Cn(fam, identity_feedback((0, 1)), 1, LEAN)
    assert rep.C_n_nats == pytest.approx(LN2 - h_nats(0.2), abs=1e-3)
    assert rep.worst_case[1] == "p20"


def test_useless_channel_capacity_zero():
    fam = CompoundFamily(members=(bsc(0.5),), labels=("m",))
    rep = compute_Cn(fam, identity_feedback((0, 1)), 1, LEAN)
    assert rep.C_n_nats <= 1e-6


def test_solver_matches_grid_search_oracle():
    # two asymmetric memoryless members, n = 1, scalar input weight grid
    members = (
        make_memoryless([[1.0, 0.0], [0.3, 0.7]]),
        make_memoryless([[0.85, 0.15], [0.15, 0.85]]),
    )
    fam = CompoundFamily(members=members, labels=("z", "s"))
    tables = [m.kernel[0, :, :, 0] for m in members]

    def mutual(q0, cond):
        q = np.array([q0, 1 - q0])
        p_y = q @ cond
        acc = 0.0
        for x in range(2):
            for y in range(2):
                if q[x] > 0 and cond[x, y] > 0:
                    acc += q[x] * cond[x, y] * math.log(cond[x, y] / p_y[y])
        return acc

    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    oracle = max(min(mutual(g, t) for t in tables) for g in grid)
    rep = compute_Cn(fam, identity_feedback((0, 1)), 1, SolverConfig(max_iters=400, restarts=2))
    assert rep.C_n_nats == pytest.approx(oracle, abs=2e-3)


def test_blahut_arimoto_closed_forms():
    c, q = blahut_arimoto(np.array([[0.8, 0.2], [0.2, 0.8]]))
    assert c == pytest.approx(LN2 - h_nats(0.2), abs=1e-8)
    assert q == pytest.approx(np.array([0.5, 0.5]), abs=1e-4)
    # Z-channel: C = ln(1 + (1-q) q^(q/(1-q)))
    qz = 0.3
    c_z = math.log(1.0 + (1 - qz) * qz ** (qz / (1 - qz)))
    c, _ = blahut_arimoto(np.array([[1.0, 0.0], [qz, 1 - qz]]))
    assert c == pytest.approx(c_z, abs=1e-8)
    with pytest.raises(ValidationError):
        blahut_arimoto(np.array([[0.9, 0.2], [0.2, 0.8]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_blahut_arimoto_rejects_non_finite_entries(bad):
    # NaN passes both the sign and the row-sum comparisons, so it must be
    # refused up front rather than iterated on
    with pytest.raises(ValidationError, match="finite"):
        blahut_arimoto(np.array([[bad, 1.0], [0.5, 0.5]]))

def test_solver_consistent_with_blahut_arimoto():
    rng = np.random.default_rng(101)
    for _ in range(3):
        cond = rng.dirichlet(np.ones(2), size=2)
        fam = CompoundFamily(members=(make_memoryless(cond),), labels=("m",))
        rep = compute_Cn(fam, identity_feedback((0, 1)), 1, SolverConfig(max_iters=400, restarts=2))
        c_ba, _ = blahut_arimoto(cond)
        assert rep.C_n_nats == pytest.approx(c_ba, abs=1e-4)


def test_feedback_never_hurts():
    fam = ge_family((0.3, 0.2, 0.05, 0.4), (0.5, 0.5, 0.1, 0.3))
    for n in (1, 2):
        fb = compute_Cn(fam, identity_feedback((0, 1)), n, LEAN)
        nofb = compute_Cn_nofeedback(fam, n, LEAN)
        assert fb.C_n_nats >= nofb.C_n_nats - 1e-9


def test_minmax_dominated_by_singletons():
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.25)), labels=("a", "b"))
    fb = identity_feedback((0, 1))
    whole = compute_Cn(fam, fb, 1, LEAN).C_n_nats
    for member, label in zip(fam.members, fam.labels):
        single = compute_Cn(CompoundFamily(members=(member,), labels=(label,)), fb, 1, LEAN)
        assert whole <= single.C_n_nats + 1e-6


def test_objective_concave_under_path_mixtures():
    rng = np.random.default_rng(103)
    fam = ge_family((0.4, 0.3, 0.05, 0.35), (0.6, 0.2, 0.1, 0.25))
    fb = identity_feedback((0, 1))

    def j(q):
        vals = []
        for m in fam.members:
            for s0 in range(2):
                vals.append(directed_information(q, m, s0, fb).value_nats)
        return min(vals) / q.horizon

    for _ in range(10):
        q1 = random_policy(2, 2, 2, rng)
        q2 = random_policy(2, 2, 2, rng)
        lam = float(rng.uniform())
        mixed = mixture_policy(q1, q2, lam)
        assert j(mixed) >= lam * j(q1) + (1 - lam) * j(q2) - 1e-9


def test_mixture_policy_endpoints_and_rows():
    rng = np.random.default_rng(107)
    q1 = random_policy(2, 2, 2, rng)
    q2 = random_policy(2, 2, 2, rng)
    m0 = mixture_policy(q1, q2, 0.0)
    m1 = mixture_policy(q1, q2, 1.0)
    for got, want in ((m0, q2), (m1, q1)):
        for a, b in zip(got.conditionals, want.conditionals):
            assert np.abs(a - b).max() < 1e-12
    half = mixture_policy(q1, q2, 0.5)
    for c in half.conditionals:
        assert np.abs(c.sum(axis=1) - 1.0).max() < 1e-12
    with pytest.raises(ValidationError):
        mixture_policy(q1, q2, 1.5)


def test_product_policy_blocks_are_independent():
    rng = np.random.default_rng(109)
    qk = random_policy(1, 2, 2, rng)
    qm = random_policy(2, 2, 2, rng)
    qn = product_policy(qk, qm)
    assert qn.horizon == 3
    for xs in itertools.product(range(2), repeat=3):
        for zs in itertools.product(range(2), repeat=2):
            want = input_prob(qk, xs[:1], []) * input_prob(qm, xs[1:], zs[1:])
            assert input_prob(qn, xs, zs) == pytest.approx(want, abs=1e-15)


def test_superadditivity_with_warm_start():
    fam = ge_family((0.35, 0.25, 0.05, 0.4))
    fb = identity_feedback((0, 1))
    for k, m in ((1, 1), (1, 2)):
        (res,) = superadditivity_check([(fam, fb, k, m)], SolverConfig(max_iters=60, restarts=1), slack=1e-3)
        assert res.passed
        assert res.lhs >= res.rhs - 1e-3
        assert res.report_n.n == k + m


def test_markovian_matches_plain_solver_when_memoryless():
    fam = CompoundFamily(members=(bsc(0.15),), labels=("m",))
    fb = identity_feedback((0, 1))
    a = compute_Cn(fam, fb, 2, LEAN)
    b = compute_Cn_markovian(fam, fb, 2, LEAN)
    assert a.C_n_nats == pytest.approx(b.C_n_nats, abs=1e-9)


def test_markovian_state_degenerate_ge_is_bsc():
    fam = ge_family((0.5, 0.5, 0.15, 0.15))
    rep = compute_Cn_markovian(fam, identity_feedback((0, 1)), 1, SolverConfig(max_iters=300, restarts=1))
    assert rep.C_n_nats == pytest.approx(LN2 - h_nats(0.15), abs=1e-6)
    # no ln|S| penalty applies on the stationary-start value itself
    assert rep.hatC_n_nats == pytest.approx(rep.C_n_nats - LN2, abs=1e-12)


def test_markovian_rejects_input_dependent_state():
    from compound_fsc import FscSpec

    k = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for x in range(2):
            k[s, x, x, x] = 1.0
    weird = FscSpec(states=(0, 1), inputs=(0, 1), outputs=(0, 1), kernel=k)
    fam = CompoundFamily(members=(weird,), labels=("w",))
    from compound_fsc.errors import NotMarkovianError

    with pytest.raises(NotMarkovianError):
        compute_Cn_markovian(fam, identity_feedback((0, 1)), 1, LEAN)


def test_zero_capacity_family_both_ways():
    fam = CompoundFamily(members=(bsc(0.5), bsc(0.35)), labels=("half", "p35"))
    for n in (1, 2):
        fb_rep = compute_Cn(fam, identity_feedback((0, 1)), n, LEAN)
        nofb_rep = compute_Cn_nofeedback(fam, n, LEAN)
        assert fb_rep.C_n_nats <= 1e-6
        assert nofb_rep.C_n_nats <= 1e-6


def test_memoryless_compound_fb_capacity():
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("a", "b"))
    assert memoryless_compound_fb_capacity(fam) == pytest.approx(LN2 - h_nats(0.2), abs=1e-7)
    with_dead = CompoundFamily(members=(bsc(0.1), bsc(0.5)), labels=("a", "dead"))
    assert memoryless_compound_fb_capacity(with_dead) == pytest.approx(0.0, abs=1e-7)
    stateful = ge_family((0.3, 0.3, 0.1, 0.2))
    with pytest.raises(ValidationError):
        memoryless_compound_fb_capacity(stateful)


def test_ge_feedback_gap_single_member():
    fam = ge_family((0.4, 0.3, 0.05, 0.35))
    res = ge_feedback_gap(fam, 2, SolverConfig(max_iters=200, restarts=1))
    assert abs(res.gap) <= 2e-3
    assert res.C_fb <= res.uniform_value + 1e-9
    assert res.C_nfb >= res.uniform_value - 1e-9
    assert res.C_fb >= res.C_nfb - 1e-9


def test_ge_feedback_gap_builds_each_channel_table_once(monkeypatch):
    calls = []
    build = capmod.channel_prob_table

    def counting(fsc, n, s0_prior, **kwargs):
        calls.append(s0_prior)
        return build(fsc, n, s0_prior, **kwargs)

    monkeypatch.setattr(capmod, "channel_prob_table", counting)
    fam = ge_gap_family()
    ge_feedback_gap(fam, 2, SolverConfig(max_iters=20, restarts=0))
    assert len(calls) == fam.members[0].n_states * len(fam.members) == 6


class _Built(Exception):
    pass


def _refuse_to_build(*args, **kwargs):
    raise _Built


def test_solver_refuses_past_byte_budget_before_any_table(monkeypatch):
    monkeypatch.setattr(capmod, "channel_prob_table", _refuse_to_build)
    fam = ge_gap_family()
    fb = identity_feedback(fam.members[0].outputs)
    with pytest.raises(CapExceededError):
        compute_Cn(fam, fb, 12)
    with pytest.raises(CapExceededError):
        compute_Cn_markovian(fam, fb, 12)


def test_solver_admits_n10_on_ge_gap(monkeypatch):
    # the guard passes, so the first channel table build is reached
    monkeypatch.setattr(capmod, "channel_prob_table", _refuse_to_build)
    fam = ge_gap_family()
    with pytest.raises(_Built):
        compute_Cn(fam, identity_feedback(fam.members[0].outputs), 10, SolverConfig(max_iters=3, restarts=0))


def test_solver_admits_n11_on_ge_gap(monkeypatch):
    # the working set no longer grows with n, so n = 11 now fits the budget,
    # also with the default starts (their group narrows to what fits); n = 12
    # does not, even with one start
    monkeypatch.setattr(capmod, "channel_prob_table", _refuse_to_build)
    fam = ge_gap_family()
    fb = identity_feedback(fam.members[0].outputs)
    for cfg in (SolverConfig(max_iters=3, restarts=0), SolverConfig()):
        with pytest.raises(_Built):
            compute_Cn(fam, fb, 11, cfg)
        with pytest.raises(CapExceededError):
            compute_Cn(fam, fb, 12, cfg)


def test_solver_charge_bounds_its_measured_peak(monkeypatch):
    charged = []
    guard = capmod.check_table_bytes

    def recording(entries, arrays, what):
        charged.append(entries * 8 * arrays)
        guard(entries, arrays, what)

    monkeypatch.setattr(capmod, "check_table_bytes", recording)
    group = capmod.GROUP_CODE_ENTRIES
    # ge-gap is certified at the uniform start; the random family runs the
    # ascent and then the certificate over every pair
    for fam in (ge_gap_family(), random_family(np.random.default_rng(1), 2, 2)):
        # without restarts, and with the default ones that every CLI solve
        # runs, one at a time (n = 8 is past the group's code span) and all
        # advanced together, the widest group the budget admits
        for restarts, span in ((0, group), (SolverConfig().restarts, group), (SolverConfig().restarts, 2**40)):
            monkeypatch.setattr(capmod, "GROUP_CODE_ENTRIES", span)
            charged.clear()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                cfg = SolverConfig(max_iters=2, restarts=restarts)
                compute_Cn(fam, identity_feedback(fam.members[0].outputs), 8, cfg)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(charged) == 1
            assert peak <= charged[0], f"restarts={restarts}: peak {peak / charged[0]:.3f} of the charge"


def _per_pair_didw(w, p):
    # the per-pair supergradient formula the stacked evaluator replaced
    p_y = (w * p).sum(axis=0)
    return p * (np.log(p, out=np.zeros_like(p), where=p > 0) - np.log(np.maximum(p_y, 1e-300)) - 1.0)


def _zero_entry_family():
    # m0 never emits y = 2 (so p_y = 0 columns); both have p = 0 entries
    m0 = _two_state_three_output(
        [[[0.7, 0.3, 0.0], [0.0, 1.0, 0.0]], [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]],
        [[0.8, 0.2], [0.3, 0.7]],
    )
    m1 = _two_state_three_output(
        [[[0.6, 0.0, 0.4], [0.0, 0.3, 0.7]], [[1.0, 0.0, 0.0], [0.25, 0.25, 0.5]]],
        [[0.9, 0.1], [0.4, 0.6]],
    )
    return CompoundFamily(members=(m0, m1), labels=("m0", "m1"))


@pytest.mark.parametrize("fb_table", [(0, 1, 2), (0, 1, 1), (0, 0, 0)], ids=["identity", "coarse", "none"])
@pytest.mark.parametrize("prior", ["states", "stationary"])
def test_stacked_pair_values_match_per_pair_evaluation(fb_table, prior):
    fam = _zero_entry_family()
    fb = FeedbackMap(z_alphabet=tuple(sorted(set(fb_table))), table=np.array(fb_table))
    n = 3
    if prior == "states":
        starts = [((s, label), m, s) for s in range(2) for label, m in fam]
    else:  # the pairs of compute_Cn_markovian
        starts = [(("stationary", label), m, stationary_distribution(m)) for label, m in fam]
    tables = capmod._fold_for(capmod._pair_tables(fam.members[0], n, [starts], 1), fb)
    code = history_code(2, fb, n)
    rng = np.random.default_rng(11)
    q = random_policy(n, 2, fb.z_card, rng)
    # a deterministic first step leaves half the input paths with weight 0
    onehot = (np.array([[1.0, 0.0]]),) + q.conditionals[1:]
    for conds in (q.conditionals, onehot):
        w = policy_weight_table(replace(q, conditionals=conds), 3, fb)
        # one problem and one start, on the leading problem and start axes
        f, log_py = capmod._pair_values(code_weights(sequence_reach(conds), code)[None, None], tables)
        for k, (_, m, s0) in enumerate(starts):
            p = channel_prob_table(m, n, s0)
            assert f[0, 0, k] == pytest.approx(information_functional(w, p), rel=0, abs=1e-12)
            got = capmod._pair_supergradient(tables, [0], [k], log_py[0])[0]
            # the oracle folded over the output axes the code does not span
            want = _per_pair_didw(w, p).reshape(got.shape + (-1,)).sum(axis=-1)
            assert got.size == code.size
            assert np.max(np.abs(got - want)) <= 1e-12
    assert np.any(tables.probs == 0) and np.any(tables.probs.sum(axis=1) == 0)


def test_flat_projection_matches_per_step_projections_bitwise():
    # the batched step projects every start's steps in one call, bitwise as
    # one projection per start and step
    rng = np.random.default_rng(5)
    starts = [random_policy(4, 3, 2, rng) for _ in range(3)]
    for scale in (0.01, 0.5, 40.0):  # the largest pushes rows onto the boundary
        grads = [[rng.normal(size=c.shape) for c in q.conditionals] for q in starts]
        want = np.stack(
            [
                np.concatenate([project_rows_to_simplex(c + scale * g) for c, g in zip(q.conditionals, gs)])
                for q, gs in zip(starts, grads)
            ]
        )
        flat = np.stack([np.concatenate(q.conditionals) for q in starts])
        got = capmod._flat_step(flat, np.stack([np.concatenate(gs) for gs in grads]), scale)
        assert got.shape == flat.shape
        assert np.array_equal(got, want)


def _sort_projection(v):
    # the sort-based simplex projection, inline, as the two-column oracle
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, n + 1) > 0
    rho = n - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(v.shape[0]), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def test_two_column_projection_matches_sort_path_bitwise():
    rng = np.random.default_rng(41)
    # past 2**53 the larger entry minus 1 rounds back to itself, the case
    # where the sort path falls back to rho = 2
    cases = [rng.normal(size=(4000, 2)) * scale for scale in (1e-300, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e17, 1e300)]
    base = rng.normal(size=4000)
    gap = 1.0 + rng.exponential(size=4000)
    cases.append(np.stack([base + gap, base], axis=1))  # a - b >= 1
    cases.append(np.stack([base, base + gap], axis=1))  # b - a >= 1
    cases.append(np.stack([base, base + 1.0], axis=1))  # |a - b| = 1 up to rounding
    cases.append(np.stack([base, base], axis=1))  # a = b
    cases.append(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [0.5, 0.5], [-0.0, 0.0]]))
    for v in cases:
        want = _sort_projection(v)
        w = v.copy()  # projected in its own place, as the ascent does
        assert project_rows_to_simplex(w) is w and np.array_equal(w, want)


@pytest.mark.parametrize("fb_table", [(0, 1, 2), (0, 1, 1), (0, 0, 0)], ids=["identity", "coarse", "none"])
@pytest.mark.parametrize("markovian", [False, True], ids=["states", "stationary"])
def test_reported_value_is_min_directed_information_of_its_policy(fb_table, markovian):
    # the folded contractions agree with the full weight table of directed_information
    fam = _zero_entry_family()
    fb = FeedbackMap(z_alphabet=tuple(sorted(set(fb_table))), table=np.array(fb_table))
    n = 3
    if markovian:
        rep = compute_Cn_markovian(fam, fb, n, LEAN)
        pairs = {("stationary", label): (m, stationary_distribution(m)) for label, m in fam}
    else:
        rep = compute_Cn_nofeedback(fam, n, LEAN) if fb.z_card == 1 else compute_Cn(fam, fb, n, LEAN)
        pairs = {(str(s), label): (m, s) for s in range(2) for label, m in fam}
    values = {key: directed_information(rep.policy, m, s0, fb).value_nats / n for key, (m, s0) in pairs.items()}
    assert rep.C_n_nats == pytest.approx(min(values.values()), rel=0, abs=1e-12)
    assert values[rep.worst_case] == pytest.approx(rep.C_n_nats, rel=0, abs=1e-12)


@pytest.mark.parametrize("feedback", [identity_feedback, no_feedback], ids=["identity", "none"])
def test_reported_value_is_the_best_visited_value(feedback):
    # a solve that runs the ascent reports the best value of its winning
    # start, and that value is the worst pair's of the policy it returns
    for i in (1, 2, 3):
        fam = random_family(np.random.default_rng(i), 2, 2)
        fb = feedback(fam.members[0].outputs)
        for n in (2, 3):
            rep = compute_Cn(fam, fb, n)
            assert rep.diagnostics.iterations > 0
            assert rep.C_n_nats == max(rep.diagnostics.value_history)
            got = min(
                directed_information(rep.policy, m, s0, fb).value_nats / n for s0 in range(2) for _, m in fam
            )
            assert got == pytest.approx(rep.C_n_nats, rel=0, abs=1e-12)


def test_solvers_reject_horizon_below_one_before_any_table(monkeypatch):
    monkeypatch.setattr(capmod, "channel_prob_table", _refuse_to_build)
    fam = ge_gap_family()
    fb = identity_feedback(fam.members[0].outputs)
    for n in (0, -1):
        with pytest.raises(ValidationError, match="horizon"):
            compute_Cn(fam, fb, n)
        with pytest.raises(ValidationError, match="horizon"):
            compute_Cn_nofeedback(fam, n)
        with pytest.raises(ValidationError, match="horizon"):
            compute_Cn_markovian(fam, fb, n)
        with pytest.raises(ValidationError, match="horizon"):
            ge_feedback_gap(fam, n)


def test_solvers_reject_feedback_map_off_the_outputs_before_any_table(monkeypatch):
    # compute_Cn_markovian once solved a one-entry map silently and failed
    # in numpy on a three-entry one
    monkeypatch.setattr(capmod, "channel_prob_table", _refuse_to_build)
    fam = ge_gap_family()
    for table in ([0], [0, 1, 1]):
        fb = FeedbackMap(z_alphabet=tuple(sorted(set(table))), table=np.array(table))
        for solve in (compute_Cn, compute_Cn_markovian):
            with pytest.raises(ValidationError, match="feedback map"):
                solve(fam, fb, 2)


def test_solver_projects_once_per_ascent_step(monkeypatch):
    calls = []
    project = capmod.project_rows_to_simplex

    def counting(v):
        calls.append(v.shape)
        return project(v)

    monkeypatch.setattr(capmod, "project_rows_to_simplex", counting)
    assert not hasattr(capmod, "information_functional")
    cfg = SolverConfig(max_iters=7, restarts=1)
    fam = ge_gap_family()
    compute_Cn(fam, identity_feedback(fam.members[0].outputs), 3, cfg)
    assert calls == []  # certified at the uniform start: no ascent
    fam = random_family(np.random.default_rng(1), 2, 2)
    rep = compute_Cn(fam, identity_feedback(fam.members[0].outputs), 3, cfg)
    assert not rep.diagnostics.converged
    # 7 steps, each advancing both starts at once; each call covers the rows
    # of all 3 steps of both starts
    assert calls == [(2 * (1 + 4 + 16), 2)] * 7


def _bound_at(fam, fb, q):
    # the one-hot certificate over every pair, evaluated at any policy q
    n = q.horizon
    tables = capmod._fold_for(capmod._pair_tables(fam.members[0], n, [capmod._state_pairs(fam)], 1), fb)
    code = history_code(q.x_card, fb, n)
    reach = sequence_reach([c[None] for c in q.conditionals])  # one start
    f, log_py = capmod._pair_values(code_weights(reach, code)[None], tables)  # one problem
    return capmod._certificate(tables, code, reach, f[0, 0], log_py[0, 0], range(f.shape[-1])) / n


def test_certificate_brackets_n1_grid_oracle():
    fam = random_family(np.random.default_rng(2), 2, 2)
    fb = identity_feedback((0, 1))
    rep = compute_Cn(fam, fb, 1)
    assert not rep.diagnostics.converged  # the bound comes from the returned policy
    grid = [
        min(directed_information(q, m, s0, fb).value_nats for s0 in range(2) for _, m in fam)
        for q in (replace(uniform_policy(1, 2, 2), conditionals=([[p, 1 - p]],)) for p in np.linspace(0, 1, 1001))
    ]
    assert rep.C_n_nats <= max(grid) <= rep.upper_nats


def test_certificate_at_any_policy_bounds_the_ascent():
    fam = random_family(np.random.default_rng(1), 2, 2)
    fb = identity_feedback((0, 1))
    rep = compute_Cn(fam, fb, 2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert _bound_at(fam, fb, random_policy(2, 2, 2, rng)) >= rep.C_n_nats
    assert _bound_at(fam, fb, rep.policy) >= rep.upper_nats >= rep.C_n_nats


def test_ge_gap_certified_at_uniform_start():
    fam = ge_gap_family()
    for fb in (identity_feedback(fam.members[0].outputs), no_feedback(fam.members[0].outputs)):
        for n in range(1, 7):
            rep = compute_Cn(fam, fb, n)
            diag = rep.diagnostics
            assert rep.upper_nats - rep.C_n_nats <= capmod.GAP_TOL and diag.converged
            assert (diag.iterations, diag.restarts, diag.best_start) == (0, 1, 0)
            assert diag.value_history == (rep.C_n_nats,)


def test_ge_feedback_gap_bracket_contains_zero():
    # feedback does not raise compound GE capacity; the bracket is certified
    # up to the rounding that GAP_TOL allows
    fam = ge_gap_family()
    for n in range(1, 5):
        res = ge_feedback_gap(fam, n)
        assert res.gap_lower <= capmod.GAP_TOL and res.gap_upper >= -capmod.GAP_TOL
        assert res.gap_lower <= res.gap_upper <= res.gap_lower + 1e-9


def test_ge_feedback_gap_state_degenerate():
    fam = ge_family((0.5, 0.5, 0.2, 0.2))
    res = ge_feedback_gap(fam, 2, SolverConfig(max_iters=200, restarts=1))
    assert abs(res.gap) <= 1e-6


def test_ge_feedback_gap_rejects_non_ge():
    fam = CompoundFamily(members=(bsc(0.1),), labels=("m",))
    with pytest.raises(ValidationError):
        ge_feedback_gap(fam, 1, LEAN)


def test_burst_truncations_monotone():
    # deeper truncations add burstier members, the worst case only drops
    from compound_fsc.presets import burst_family

    fb = identity_feedback((0, 1))
    values = []
    for depth in (2, 3, 4):
        full = burst_family(depth)
        rep = compute_Cn(full, fb, 2, LEAN)
        values.append(rep.C_n_nats)
    assert values[0] >= values[1] - 1e-9
    assert values[1] >= values[2] - 1e-9


def test_capacity_report_invariant():
    fam = CompoundFamily(members=(bsc(0.2),), labels=("m",))
    rep = compute_Cn(fam, identity_feedback((0, 1)), 1, LEAN)
    # a bound that rounding put below the achieved value is clamped up to it
    assert replace(rep, upper_nats=rep.C_n_nats - 5.6e-17).upper_nats == rep.C_n_nats


def test_state_penalty_applied():
    fam = ge_family((0.3, 0.2, 0.05, 0.4))
    rep = compute_Cn(fam, identity_feedback((0, 1)), 2, LEAN)
    assert rep.hatC_n_nats == pytest.approx(rep.C_n_nats - LN2 / 2, abs=1e-12)
    assert len(rep.worst_case) == 2
    assert rep.diagnostics.value_history


def _two_state_three_output(emit, trans):
    emit, trans = np.asarray(emit), np.asarray(trans)
    return FscSpec(
        states=(0, 1), inputs=(0, 1), outputs=(0, 1, 2), kernel=emit[:, :, :, None] * trans[:, None, None, :]
    )


def test_solver_values_pinned():
    # C_n recorded from the solver at its default budget, to catch any drift
    # in the weight table, the supergradient or the ascent
    cfg = SolverConfig(seed=0)
    fam = ge_gap_family()
    fb = identity_feedback(fam.members[0].outputs)
    for n, want in ((1, 0.005008366846356839), (2, 0.011584283450981595), (3, 0.017256326193651143)):
        rep = compute_Cn(fam, fb, n, cfg)
        assert rep.C_n_nats == pytest.approx(want, rel=0, abs=1e-12)
        assert rep.worst_case == ("B", "ge-c")
    rep = compute_Cn_nofeedback(fam, 2, cfg)
    assert rep.C_n_nats == pytest.approx(0.011584283450981673, rel=0, abs=1e-12)
    m0 = _two_state_three_output(
        [[[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], [[0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]],
        [[0.8, 0.2], [0.3, 0.7]],
    )
    m1 = _two_state_three_output(
        [[[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]], [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]]],
        [[0.9, 0.1], [0.4, 0.6]],
    )
    coarse = FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1]))
    rep = compute_Cn(CompoundFamily(members=(m0, m1), labels=("m0", "m1")), coarse, 2, cfg)
    assert rep.C_n_nats == pytest.approx(0.04067062093392041, rel=0, abs=1e-12)
    assert rep.worst_case == ("1", "m0")


def test_identity_feedback_ascent_pinned():
    # the superadditivity suite's shape: every solve ascends (none certifies
    # at its start), and the n = 3 solve's best start is the product warm
    # start passed as an extra start
    fam = random_family(np.random.default_rng(23), 2, 2)
    fb = identity_feedback(fam.members[0].outputs)
    (res,) = superadditivity_check([(fam, fb, 1, 2)], SolverConfig(max_iters=60, restarts=1, seed=23))
    want = (
        (0.0022559568075244396, 0.0022831965225705853, 0),
        (0.014872619567714795, 0.02210389088572573, 0),
        (0.018175745182856584, 0.026264422945007082, 1),
    )
    for rep, (c_n, upper, best_start) in zip((res.report_k, res.report_m, res.report_n), want):
        assert rep.C_n_nats == pytest.approx(c_n, rel=0, abs=1e-12)
        assert rep.upper_nats == pytest.approx(upper, rel=0, abs=1e-12)
        assert rep.diagnostics.best_start == best_start
        assert not rep.diagnostics.converged


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(max_iters=0)
