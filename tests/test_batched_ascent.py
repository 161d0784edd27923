"""The solver advances all of a solve's starts as one batched ascent, in
groups as wide as the table budget and the groups' code span admit. These
tests check it against the one-start-at-a-time loop it replaced
(oracles.solve_one_start_at_a_time) and check that the group width changes
nothing but the grouping."""

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
    compute_Cn,
    compute_Cn_markovian,
    compute_Cn_nofeedback,
    identity_feedback,
    no_feedback,
    product_policy,
    stationary_distribution,
    superadditivity_check,
)
from compound_fsc.causal import history_code
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
            tables = capmod._state_pairs(fam, n, 1)
            assert_matches(rep, solve_one_start_at_a_time(fam, tables, fb, n, cfg, ()))
            if n > 1:
                assert rep.diagnostics.iterations > 0


@pytest.mark.parametrize("restarts", RESTARTS)
def test_batched_markovian_matches_one_start_at_a_time(restarts):
    fam = markov_family(np.random.default_rng(4))
    fb = identity_feedback((0, 1))
    for n in (1, 2, 3):
        cfg = SolverConfig(max_iters=40, restarts=restarts, seed=5)
        pairs = [(("stationary", label), m, stationary_distribution(m)) for label, m in fam]
        tables = capmod._pair_tables(fam, n, pairs, 1)
        rep = compute_Cn_markovian(fam, fb, n, cfg)
        assert rep.diagnostics.iterations > 0
        assert_matches(rep, solve_one_start_at_a_time(fam, tables, fb, n, cfg, ()))


@pytest.mark.parametrize("restarts", RESTARTS)
def test_batched_warm_started_solve_matches_one_start_at_a_time(restarts):
    # the superadditivity n-solve: the product warm start is an extra start
    for seed in (23, 24):
        fam = random_family(np.random.default_rng(seed), 2, 2)
        fb = identity_feedback(fam.members[0].outputs)
        cfg = SolverConfig(max_iters=60, restarts=restarts, seed=seed)
        res = superadditivity_check(fam, fb, 1, 2, cfg)
        warm = product_policy(res.report_k.policy, res.report_m.policy)
        tables = capmod._state_pairs(fam, 3, 1)
        want = solve_one_start_at_a_time(fam, tables, fb, 3, cfg, (warm,))
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
    assert capmod._state_pairs(fam, n, 4).width == 4
    if limit == "budget":
        monkeypatch.setattr(causal, "TABLE_BYTES", budget_for_width(fam, n, width))
        assert capmod._state_pairs(fam, n, 4).width == width
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
