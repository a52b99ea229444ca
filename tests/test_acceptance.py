"""Acceptance suite: every criterion as one pass/fail line.

Each test runs the corresponding verification suite on its full default
grid and requires exact equality everywhere; any mismatch fails with the
offending cases attached.
"""

import json
from pathlib import Path

import pytest

from affq import verify as V

# (cases, checks, ok) of every suite on the smallest grid and on the default
# grids (tests/data/make_suite_counts.py); a refactor that silently drops or
# adds checks changes these counts.  A passing report holds nothing else, so
# equal default-grid counts mean a byte-identical `affq verify` report.
DATA = Path(__file__).parent / "data"
SUITE_COUNTS = json.loads((DATA / "suite_counts.json").read_text())
CRITERION_COUNTS = json.loads((DATA / "criterion_counts.json").read_text())

CRITERIA = (
    ("criterion-1-schur-oracle", "schur-oracle"),
    ("criterion-2-coset-length", "coset-length"),
    ("criterion-3-hecke", "hecke"),
    ("criterion-4-hall", "hall"),
    ("criterion-5-commutator", "commutator"),
    ("criterion-6-level-coherence", "level-coherence"),
    ("criterion-7-triangular", "triangular"),
    ("criterion-8-laurent", "laurent"),
)


@pytest.mark.parametrize(
    "label, suite", CRITERIA, ids=[label for label, _ in CRITERIA]
)
def test_criterion(label, suite):
    report = V.run_suite(suite)
    verdict = "PASS" if report["ok"] else "FAIL"
    print(
        "%s: %s (%d checks over %d cases)"
        % (label, verdict, report["checks"], report["cases"])
    )
    assert report["ok"], report["mismatches"]
    got = {key: report[key] for key in ("cases", "checks", "ok")}
    assert got == CRITERION_COUNTS[suite]


def test_suite_check_counts_are_pinned():
    cfg = V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2,))
    assert sorted(SUITE_COUNTS) == sorted(V.SUITE_NAMES)
    for suite in V.SUITE_NAMES:
        report = V.run_suite(suite, cfg)
        got = {key: report[key] for key in ("cases", "checks", "ok")}
        assert got == SUITE_COUNTS[suite], suite
