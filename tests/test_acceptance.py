"""Acceptance gate: every paper check in ``verify.CHECKS``, plus the cold CLI run.

The numbered criteria 4, 5 and 9 call the same checks (criterion 4 once per
row of ``verify.FAMILY_CHAINS``) under their own names.

The worked-example assertions live in :mod:`subnorms.verify` only; a failing
check raises ``CheckFailure`` (an ``AssertionError``) with its message.
"""

import subprocess
import sys
import time

import pytest

from subnorms import verify


@pytest.mark.parametrize("name, check", verify.CHECKS,
                         ids=[name for name, _ in verify.CHECKS])
def test_paper_check(name, check):
    check()


@pytest.mark.parametrize("family, fixed, lambdas, criterion, expected",
                         verify.FAMILY_CHAINS)
def test_criterion_4_family_monotonicity(family, fixed, lambdas, criterion,
                                         expected):
    verify.check_family_chain(family, fixed, lambdas, criterion, expected)


def test_criterion_5_converse_failure_fixtures():
    verify.check_converse_fixtures()


def test_criterion_9_strict_dominance_replay():
    verify.check_product_isomorphism_replay()


def test_run_all_reports_a_failing_check(monkeypatch, capsys):
    def failing():
        raise verify.CheckFailure("value drifted")

    monkeypatch.setattr(verify, "CHECKS", [("good", lambda: "fine"), ("bad", failing)])
    assert verify.run_all() is False
    assert capsys.readouterr().out == "PASS good: fine\nFAIL bad: value drifted\n"


def test_criterion_10_verify_paper_cli():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "subnorms.cli", "verify-paper"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS ") == 9
    assert "FAIL" not in proc.stdout
    assert elapsed < 120.0
