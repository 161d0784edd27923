import pytest

import compound_fsc.causal as causal
from compound_fsc import ValidationError, run_suites
from compound_fsc.verify import SUITES, CheckResult, suite_kim_identity

# (passed, instances, violations, worst) of every suite at seed 0, compared
# with ==, so every worst is pinned bitwise
PINNED = {
    "kim-identity": (True, 100, 0, 2.1519244719492292e-15),
    "continuity-lemma": (True, 100, 0, 0.0),
    "state-gap": (True, 100, 0, -0.6071776848391698),
    "superadditivity": (True, 12, 0, -0.6548320438067025),
    "merge-bounds": (True, 892, 0, 0.0),
    "separability": (True, 2, 0, 0.0),
    "sanov": (True, 4, 0, -0.05084394891926118),
    "exponents": (True, 40, 0, -9.999995559107902e-10),
    "zero-capacity": (True, 5, 0, 0.0),
}

# the same at seed 1, recorded before the suites evaluated their instances
# as stacks; every worst is bitwise that per-instance evaluation's
PINNED_SEED1 = {
    "kim-identity": (True, 100, 0, 1.5543122344752192e-15),
    "continuity-lemma": (True, 100, 0, 0.0),
    "state-gap": (True, 100, 0, -0.6227732788707837),
    "superadditivity": (True, 12, 0, -0.6929152280712807),
    "merge-bounds": (True, 892, 0, 0),
    "separability": (True, 2, 0, 0.0),
    "sanov": (True, 4, 0, -0.05084394891926118),
    "exponents": (True, 40, 0, -9.999997779553951e-10),
    "zero-capacity": (True, 5, 0, 0.0),
}

# the same at seed 2, recorded on the parent of the array-shaped round-robin
# merge and one-pass policy check, before any source edit; merge-bounds'
# worst is the int 0 the suite has always written
PINNED_SEED2 = {
    "kim-identity": (True, 100, 0, 1.5265566588595902e-15),
    "continuity-lemma": (True, 100, 0, 0.0),
    "state-gap": (True, 100, 0, -0.5774350052848515),
    "superadditivity": (True, 12, 0, -0.6519838058844433),
    "merge-bounds": (True, 892, 0, 0),
    "separability": (True, 2, 0, 0.0),
    "sanov": (True, 4, 0, -0.05084394891926118),
    "exponents": (True, 40, 0, -9.99999500399639e-10),
    "zero-capacity": (True, 5, 0, 0.0),
}


@pytest.fixture(scope="module")
def all_results():
    return run_suites()


def test_all_suites_pass(all_results):
    assert len(all_results) == len(SUITES)
    for r in all_results:
        assert r.passed, r.line()
        assert r.violations == 0
        assert r.instances >= 1


def test_suite_values_pinned(all_results):
    assert [r.name for r in all_results] == list(PINNED)
    for r in all_results:
        assert (r.passed, r.instances, r.violations, r.worst) == PINNED[r.name], r.line()


def test_suite_values_pinned_at_seed_1():
    results = run_suites(seed=1)
    assert [r.name for r in results] == list(PINNED_SEED1)
    for r in results:
        assert (r.passed, r.instances, r.violations, r.worst) == PINNED_SEED1[r.name], r.line()


def test_suite_values_pinned_at_seed_2():
    results = run_suites(seed=2)
    assert [r.name for r in results] == list(PINNED_SEED2)
    for r in results:
        assert (r.passed, r.instances, r.violations, r.worst) == PINNED_SEED2[r.name], r.line()
        assert type(r.worst) is type(PINNED_SEED2[r.name][3]), r.line()


def test_kim_identity_builds_each_path_table_once(monkeypatch):
    # the three routes share one weight-table build and one channel-table
    # build per shape group: a group's key (|S|, n) never repeats, and the
    # builds cover the 7 instances once
    weights, channels = [], []
    build_weights, build_channels = causal.policy_weight_tables, causal.channel_prob_tables

    def counting_weights(qs, y_card, feedback):
        weights.append((qs[0].horizon, len(qs)))
        return build_weights(qs, y_card, feedback)

    def counting_channels(kernels, priors, n, out=None):
        channels.append((kernels.shape[-4], n, kernels.shape[0]))
        return build_channels(kernels, priors, n, out)

    monkeypatch.setattr(causal, "policy_weight_tables", counting_weights)
    monkeypatch.setattr(causal, "channel_prob_tables", counting_channels)
    assert suite_kim_identity(instances=7).passed
    assert len({(s_card, n) for s_card, n, _ in channels}) == len(channels) == len(weights)
    assert sum(rows for *_, rows in channels) == sum(count for _, count in weights) == 7
    assert sorted(n for _, n, _ in channels) == sorted(n for n, _ in weights)
    assert len(channels) < 7


def test_single_suite_by_name():
    results = run_suites(["kim-identity"])
    assert len(results) == 1
    assert results[0].name == "kim-identity"
    assert results[0].passed


def test_bare_string_is_one_suite_name():
    results = run_suites("merge-bounds")
    assert [r.name for r in results] == ["merge-bounds"]
    assert (results[0].passed, results[0].instances) == PINNED["merge-bounds"][:2]


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        run_suites(["not-a-suite"])


def test_check_result_line_format():
    ok = CheckResult(name="demo", passed=True, instances=5, violations=0, worst=0.1, detail="x")
    bad = CheckResult(name="demo", passed=False, instances=5, violations=2, worst=0.1, detail="x")
    assert " pass " in ok.line()
    assert " FAIL " in bad.line()
    assert "instances=5" in ok.line()
    assert "violations=2" in bad.line()
