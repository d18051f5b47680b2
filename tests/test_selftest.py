import pytest

from cyclact.errors import PreconditionFailed
from cyclact.selftest import SCOPES, run_selftest, run_suite


def test_scopes_cover_the_five_suites():
    assert set(SCOPES) == {"ring", "forms", "lagrangian", "ahss", "census"}


def test_all_suites_pass_with_default_seed():
    summary = run_selftest("all", seed=0)
    assert summary.failed == 0
    assert summary.passed == sum(len(s.cases) for s in summary.suites)
    assert {s.name for s in summary.suites} == set(SCOPES)


def test_scope_restricts_to_one_suite():
    summary = run_selftest("census", seed=3)
    assert [s.name for s in summary.suites] == ["census"]
    assert summary.failed == 0
    with pytest.raises(PreconditionFailed):
        run_selftest("nonsense", seed=0)


def test_same_seed_same_outcome():
    a = run_selftest("forms", seed=17)
    b = run_selftest("forms", seed=17)
    assert a.key() == b.key()
    c = run_selftest("forms", seed=18)
    assert c.key() != a.key()


def test_single_suite_is_deterministic_and_named():
    r1 = run_suite("ring", 7)
    r2 = run_suite("ring", 7)
    assert r1 == r2
    assert r1.name == "ring"
    assert all(status in ("pass", "fail", "skip") for _, status, _ in r1.cases)


def test_summary_json_shape():
    payload = run_selftest("ahss", seed=1).to_json()
    assert set(payload) == {
        "scope", "seed", "pass", "fail", "skipped", "total", "suites",
        "elapsedSeconds",
    }
    assert payload["total"] == payload["pass"] + payload["fail"] + payload["skipped"]
    (suite,) = payload["suites"]
    assert set(suite) == {
        "name", "cases", "searchExhausted", "pass", "fail", "skipped",
    }


@pytest.mark.parametrize(
    "bad", ["x" * 5000, 10**5000, ["ring"]], ids=["long-str", "huge-int", "list"]
)
def test_an_unknown_scope_or_suite_is_named_without_its_value(bad):
    # a long string is named by its length and an int past the digit limit
    # by its size, where repr would echo 5,000 characters or raise ValueError
    for run in (run_selftest, lambda s: run_suite(s, 0)):
        with pytest.raises(PreconditionFailed) as info:
            run(bad)
        assert len(str(info.value)) < 60
