import itertools
import math
import tracemalloc

import numpy as np
import pytest

import compound_fsc.capacity as capmod
from compound_fsc import (
    CapExceededError,
    CapacityReport,
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    GilbertElliotParams,
    SolverConfig,
    ValidationError,
    blahut_arimoto,
    bsc,
    compute_Cn,
    compute_Cn_markovian,
    compute_Cn_nofeedback,
    directed_information,
    ge_feedback_gap,
    ge_gap_family,
    identity_feedback,
    input_prob,
    make_gilbert_elliot,
    make_memoryless,
    memoryless_compound_fb_capacity,
    mixture_policy,
    no_feedback,
    product_policy,
    random_policy,
    superadditivity_check,
    uniform_policy,
)

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
        res = superadditivity_check(fam, fb, k, m, SolverConfig(max_iters=60, restarts=1), slack=1e-3)
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
    from compound_fsc import NotMarkovianError

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

    def counting(fsc, n, s0_prior):
        calls.append(s0_prior)
        return build(fsc, n, s0_prior)

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
    # the working set no longer grows with n, so n = 11 now fits the budget
    monkeypatch.setattr(capmod, "channel_prob_table", _refuse_to_build)
    fam = ge_gap_family()
    with pytest.raises(_Built):
        compute_Cn(fam, identity_feedback(fam.members[0].outputs), 11, SolverConfig(max_iters=3, restarts=0))


def test_solver_charge_bounds_its_measured_peak(monkeypatch):
    charged = []
    guard = capmod.check_table_bytes

    def recording(entries, arrays, what):
        charged.append(entries * 8 * arrays)
        guard(entries, arrays, what)

    monkeypatch.setattr(capmod, "check_table_bytes", recording)
    fam = ge_gap_family()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute_Cn(fam, identity_feedback(fam.members[0].outputs), 8, SolverConfig(max_iters=2, restarts=0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(charged) == 1
    assert peak <= charged[0]


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
    from compound_fsc import burst_family

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
    with pytest.raises(ValidationError):
        CapacityReport(
            n=rep.n,
            state_count=rep.state_count,
            C_n_nats=rep.C_n_nats,
            hatC_n_nats=rep.C_n_nats - 0.5,
            worst_case=rep.worst_case,
            policy=rep.policy,
            diagnostics=rep.diagnostics,
        )


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


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(max_iters=0)
