"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line; the assertions repeat the verdicts
so a failure names the criterion and its details.
"""

import pytest

from omegadec.acceptance import ALL_CRITERIA, CriterionResult


@pytest.fixture(scope="module")
def results() -> dict[int, CriterionResult]:
    out = {}
    for fn in ALL_CRITERIA:
        res = fn()
        print(res.line())
        out[res.number] = res
    return out


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.details


def test_criterion_5_details_name_no_time_on_a_pass(monkeypatch):
    from omegadec import acceptance

    first, second = acceptance.criterion_5(), acceptance.criterion_5()
    assert first == second and first.passed and first.details == "failures=0"
    clock = iter([100.0, 111.0])
    monkeypatch.setattr(acceptance.time, "monotonic", lambda: next(clock))
    slow = acceptance.criterion_5()
    assert not slow.passed and slow.details == "failures=0 elapsed=11.00s"
