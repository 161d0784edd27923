"""The solver advances all of a solve's starts as one batched ascent, in
groups as wide as the table budget and the groups' code span admit, and
advances independent solves of one shape together (compute_Cn_batch). These
tests check it against the one-start-at-a-time loop it replaced
(oracles.solve_one_start_at_a_time), check a batch against lone solves, and
check that the group width changes nothing but the grouping."""

import numpy as np
import pytest

import compound_fsc.capacity as capmod
import compound_fsc.causal as causal
from compound_fsc import (
    CapExceededError,
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    SolverConfig,
    ValidationError,
    compute_Cn,
    compute_Cn_batch,
    compute_Cn_markovian,
    compute_Cn_nofeedback,
    ge_gap_family,
    identity_feedback,
    no_feedback,
    product_policy,
    random_policy,
    stationary_distribution,
    superadditivity_check,
)
from compound_fsc.causal import history_code, uniform_policy
from compound_fsc.verify import random_family, random_fsc
from oracles import solve_one_start_at_a_time

RESTARTS = (0, 1, 3)
COARSE = FeedbackMap(z_alphabet=(0, 1), table=np.array([0, 1, 1]))


def assert_matches(rep, want):
    assert rep.C_n_nats == pytest.approx(want.C_n_nats, rel=0, abs=1e-12)
    assert rep.upper_nats == pytest.approx(want.upper_nats, rel=0, abs=1e-12)
    assert rep.worst_case == want.worst_case
    for got, row in zip(rep.policy.conditionals, want.policy.conditionals, strict=True):
        assert got.shape == row.shape and np.max(np.abs(got - row)) <= 1e-12
    got, ref = rep.diagnostics, want.diagnostics
    assert (got.best_start, got.iterations, got.restarts, got.converged) == (
        ref.best_start,
        ref.iterations,
        ref.restarts,
        ref.converged,
    )
    assert len(got.value_history) == len(ref.value_history)
    assert np.max(np.abs(np.subtract(got.value_history, ref.value_history))) <= 1e-12


def lone_tables(fam, n, pairs=None):
    """One problem's pair tables without the problem axis, as the oracle reads them."""
    t = capmod._pair_tables(fam.members[0], n, [pairs or capmod._state_pairs(fam)], 1)
    return t._replace(labels=t.labels[0], probs=t.probs[0], folded=t.folded[0])


def three_output_family(rng):
    members = tuple(random_fsc(rng, 2, 2, 3) for _ in range(2))
    return CompoundFamily(members=members, labels=("m0", "m1"))


def markov_family(rng):
    # input-independent state transitions, as compute_Cn_markovian requires
    def member():
        emit = rng.dirichlet(np.ones(2), size=(2, 2))
        trans = rng.dirichlet(np.ones(2), size=2)
        return FscSpec(states=(0, 1), inputs=(0, 1), outputs=(0, 1), kernel=emit[:, :, :, None] * trans[:, None, None, :])

    return CompoundFamily(members=(member(), member()), labels=("a", "b"))


@pytest.mark.parametrize("restarts", RESTARTS)
@pytest.mark.parametrize("case", ["identity", "coarse", "none"])
def test_batched_solver_matches_one_start_at_a_time(case, restarts):
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        if case == "coarse":
            fam, fb = three_output_family(rng), COARSE
        else:
            fam = random_family(rng, 2, 2)
            fb = (identity_feedback if case == "identity" else no_feedback)(fam.members[0].outputs)
        for n in (1, 2, 3):
            cfg = SolverConfig(max_iters=40, restarts=restarts, seed=seed)
            rep = compute_Cn_nofeedback(fam, n, cfg) if case == "none" else compute_Cn(fam, fb, n, cfg)
            assert_matches(rep, solve_one_start_at_a_time(fam, lone_tables(fam, n), fb, n, cfg, ()))
            if n > 1:
                assert rep.diagnostics.iterations > 0


@pytest.mark.parametrize("restarts", RESTARTS)
def test_batched_markovian_matches_one_start_at_a_time(restarts):
    fam = markov_family(np.random.default_rng(4))
    fb = identity_feedback((0, 1))
    for n in (1, 2, 3):
        cfg = SolverConfig(max_iters=40, restarts=restarts, seed=5)
        pairs = [(("stationary", label), m, stationary_distribution(m)) for label, m in fam]
        rep = compute_Cn_markovian(fam, fb, n, cfg)
        assert rep.diagnostics.iterations > 0
        assert_matches(rep, solve_one_start_at_a_time(fam, lone_tables(fam, n, pairs), fb, n, cfg, ()))


@pytest.mark.parametrize("restarts", RESTARTS)
def test_batched_warm_started_solve_matches_one_start_at_a_time(restarts):
    # the superadditivity n-solve: the product warm start is an extra start
    for seed in (23, 24):
        fam = random_family(np.random.default_rng(seed), 2, 2)
        fb = identity_feedback(fam.members[0].outputs)
        cfg = SolverConfig(max_iters=60, restarts=restarts, seed=seed)
        (res,) = superadditivity_check([(fam, fb, 1, 2)], cfg)
        warm = product_policy(res.report_k.policy, res.report_m.policy)
        want = solve_one_start_at_a_time(fam, lone_tables(fam, 3), fb, 3, cfg, (warm,))
        assert res.report_n.diagnostics.restarts == 2 + restarts
        assert_matches(res.report_n, want)


def budget_for_width(fam, n, width):
    """The table budget whose admitted group width is exactly `width`."""
    first = fam.members[0]
    y_card = first.n_outputs
    entries = first.n_inputs ** n * y_card ** n // y_card
    pairs = first.n_states * len(fam.members)
    arrays = (y_card + 1) * pairs + y_card * (capmod.SOLVER_SHARED_TABLES + capmod.SOLVER_START_TABLES * width)
    return entries * 8 * arrays


def traced_solve(monkeypatch, fam, fb, n, cfg):
    """The report, and the solve's events in order: each random start drawn
    and each projection, with the number of rows it moves."""
    events = []
    draw, project = capmod.random_policy, capmod.project_rows_to_simplex

    def drawing(*args):
        q = draw(*args)
        events.append(("draw", np.concatenate(q.conditionals).tobytes()))
        return q

    def projecting(v):
        events.append(("project", v.shape[0]))
        return project(v)

    monkeypatch.setattr(capmod, "random_policy", drawing)
    monkeypatch.setattr(capmod, "project_rows_to_simplex", projecting)
    rep = compute_Cn(fam, fb, n, cfg)
    monkeypatch.setattr(capmod, "random_policy", draw)
    monkeypatch.setattr(capmod, "project_rows_to_simplex", project)
    return rep, events


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("limit", ["budget", "code-span"])
def test_group_width_changes_only_the_grouping(monkeypatch, limit, width):
    fam = random_family(np.random.default_rng(1), 2, 2)
    fb = identity_feedback(fam.members[0].outputs)
    n, iters = 3, 5
    rows = 1 + 4 + 16
    cfg = SolverConfig(max_iters=iters, restarts=3)
    full, full_events = traced_solve(monkeypatch, fam, fb, n, cfg)
    assert capmod._pair_tables(fam.members[0], n, [capmod._state_pairs(fam)], 4).width == 4
    if limit == "budget":
        monkeypatch.setattr(causal, "TABLE_BYTES", budget_for_width(fam, n, width))
        assert capmod._pair_tables(fam.members[0], n, [capmod._state_pairs(fam)], 4).width == width
    else:
        # the group's starts span at most GROUP_CODE_ENTRIES code entries
        span = history_code(2, fb, n).size
        monkeypatch.setattr(capmod, "GROUP_CODE_ENTRIES", (width + 1) * span - 1)
    rep, events = traced_solve(monkeypatch, fam, fb, n, cfg)
    assert_matches(rep, full)
    # the same random starts in the same order, each group's drawn as it begins
    draws = [e for e in events if e[0] == "draw"]
    assert draws == [e for e in full_events if e[0] == "draw"] and len(draws) == 3
    group = [("project", width * rows)] * iters
    if width == 1:
        want = group + [draws[0]] + group + [draws[1]] + group + [draws[2]] + group
    else:
        want = [draws[0]] + group + draws[1:] + group
    assert events == want
    assert full_events == [draws[0], draws[1], draws[2]] + [("project", 4 * rows)] * iters


def test_budget_below_one_start_is_refused(monkeypatch):
    fam = random_family(np.random.default_rng(1), 2, 2)
    fb = identity_feedback(fam.members[0].outputs)
    monkeypatch.setattr(causal, "TABLE_BYTES", budget_for_width(fam, 3, 1) - 1)
    with pytest.raises(CapExceededError):
        compute_Cn(fam, fb, 3, SolverConfig(max_iters=5, restarts=3))


def assert_bitwise(rep, want):
    for field in ("n", "C_n_nats", "upper_nats", "worst_case"):
        assert getattr(rep, field) == getattr(want, field)
    for got, row in zip(rep.policy.conditionals, want.policy.conditionals, strict=True):
        assert got.shape == row.shape and got.tobytes() == row.tobytes()
    assert rep.diagnostics == want.diagnostics  # best_start and value_history included


def mixed_jobs():
    """Jobs of several shapes, most sharing one with others: horizons 1-3,
    2 and 4 pairs, identity, coarse and no feedback, warm starts, and a
    certifying ge-gap job in the same shape as ascending ones."""
    rng = np.random.default_rng(31)
    wrng = np.random.default_rng(32)
    jobs = []
    for n in (1, 2, 3):
        for members in (1, 2, 1, 2):
            fam = random_family(rng, members, 2)
            jobs.append((fam, identity_feedback(fam.members[0].outputs), n, ()))
        for _ in range(2):
            fam = random_family(rng, 2, 2)
            jobs.append((fam, no_feedback(fam.members[0].outputs), n, ()))
            jobs.append((fam, identity_feedback(fam.members[0].outputs), n, (random_policy(n, 2, 2, wrng),)))
    for n in (1, 2):
        for _ in range(2):
            jobs.append((three_output_family(rng), COARSE, n, ()))
    gap = ge_gap_family()  # 6 pairs, certified at the uniform start
    for _ in range(2):
        fam = random_family(rng, 3, 2)
        jobs.append((fam, identity_feedback(fam.members[0].outputs), 2, ()))
        jobs.append((gap, identity_feedback(gap.members[0].outputs), 2, ()))
    return jobs


def traced_batch(monkeypatch, jobs, cfg):
    """The reports, each group's problem count in build order, and every
    random start drawn, in order."""
    groups, draws = [], []
    build, draw = capmod._pair_tables, capmod.random_policy

    def building(first, n, problems, starts):
        groups.append(len(problems))
        return build(first, n, problems, starts)

    def drawing(*args):
        q = draw(*args)
        draws.append(np.concatenate(q.conditionals).tobytes())
        return q

    monkeypatch.setattr(capmod, "_pair_tables", building)
    monkeypatch.setattr(capmod, "random_policy", drawing)
    reps = compute_Cn_batch(jobs, cfg)
    monkeypatch.setattr(capmod, "_pair_tables", build)
    monkeypatch.setattr(capmod, "random_policy", draw)
    return reps, groups, draws


def test_batch_matches_lone_solves(monkeypatch):
    cfg = SolverConfig(max_iters=30, restarts=2, seed=3)
    jobs = mixed_jobs()
    reps, groups, _ = traced_batch(monkeypatch, jobs, cfg)
    assert len(reps) == len(jobs) and max(groups) > 1 and len(groups) < len(jobs)
    for rep, (fam, fb, n, extra) in zip(reps, jobs, strict=True):
        assert_bitwise(rep, compute_Cn(fam, fb, n, cfg, extra_starts=extra))
    converged = [rep.diagnostics.iterations == 0 for rep in reps]
    assert any(converged) and not all(converged)


@pytest.mark.parametrize("limit", ["code-span", "budget"])
def test_problem_groups_change_only_the_grouping(monkeypatch, limit):
    # four same-shape problems that all ascend: one group, then split down
    rng = np.random.default_rng(41)
    fams = [random_family(rng, 2, 2) for _ in range(4)]
    jobs = [(fam, identity_feedback(fam.members[0].outputs), 2, ()) for fam in fams]
    cfg = SolverConfig(max_iters=20, restarts=2, seed=5)
    full, groups, draws = traced_batch(monkeypatch, jobs, cfg)
    assert groups == [4] and len(draws) == 4 * cfg.restarts
    # each problem draws from its own generator, so every problem draws the same starts
    assert draws == draws[: cfg.restarts] * 4
    span = 3 * history_code(2, jobs[0][1], 2).size  # one problem's three starts
    for size in (2, 1):
        if limit == "code-span":
            monkeypatch.setattr(capmod, "GROUP_CODE_ENTRIES", size * span)
        else:
            # room for `size` problems with all their starts, and not one more
            entries, y_card = 2 ** 2 * 2, 2
            per_problem = (y_card + 1) * 4 + y_card * capmod.SOLVER_START_TABLES * 3
            arrays = y_card * capmod.SOLVER_SHARED_TABLES + size * per_problem
            monkeypatch.setattr(causal, "TABLE_BYTES", entries * 8 * arrays)
        reps, split, split_draws = traced_batch(monkeypatch, jobs, cfg)
        assert split == [size] * (4 // size)
        assert split_draws == draws
        for rep, want in zip(reps, full, strict=True):
            assert_bitwise(rep, want)


def test_extra_starts_are_checked_before_any_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a channel table was built")

    monkeypatch.setattr(capmod, "channel_prob_table", refuse)
    fam = ge_gap_family()  # certified at the uniform start, which ignored a bad start
    fb = identity_feedback(fam.members[0].outputs)
    bad = (uniform_policy(3, 2, 2), uniform_policy(2, 2, 1), uniform_policy(2, 3, 2), "not a policy")
    for start in bad:
        with pytest.raises(ValidationError, match="extra start"):
            compute_Cn(fam, fb, 2, SolverConfig(max_iters=5), extra_starts=(start,))
        # a batch checks every job before it builds the first one's tables
        with pytest.raises(ValidationError, match="extra start"):
            compute_Cn_batch([(fam, fb, 2, ()), (fam, fb, 2, (start,))], SolverConfig(max_iters=5))
    monkeypatch.undo()
    rep = compute_Cn(fam, fb, 2, SolverConfig(max_iters=5), extra_starts=(uniform_policy(2, 2, 2),))
    assert rep.diagnostics.iterations == 0
