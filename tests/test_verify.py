import pytest

import compound_fsc.directed_info as dimod
from compound_fsc import ValidationError, run_suites
from compound_fsc.verify import SUITES, CheckResult, suite_kim_identity

# (passed, instances, violations, worst) of every suite at seed 0
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
        passed, instances, violations, worst = PINNED[r.name]
        assert (r.passed, r.instances, r.violations) == (passed, instances, violations), r.line()
        assert r.worst == pytest.approx(worst, abs=1e-12), r.line()


def test_kim_identity_builds_each_path_table_once(monkeypatch):
    # the three routes share one weight table and one channel table per instance
    calls = {"policy_weight_table": 0, "channel_prob_table": 0}
    for name in calls:
        build = getattr(dimod, name)

        def counting(*args, _name=name, _build=build):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(dimod, name, counting)
    assert suite_kim_identity(instances=7).passed
    assert calls == {"policy_weight_table": 7, "channel_prob_table": 7}


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
