"""Acceptance suite: every criterion as one pass/fail line.

Each test runs the corresponding verification suite on its full default
grid and requires exact equality everywhere; any mismatch fails with the
offending cases attached.
"""

import json
from pathlib import Path

import pytest

from affq import hall as Ha
from affq import laurent as L
from affq import matrices as M
from affq import permutations as P
from affq import realization as R
from affq import schur as S
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


# ----------------------------------------------------------------------
# negative controls: a broken side must show up as a reported mismatch

SMALL = V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2,))


def test_coset_length_reports_a_shorter_coset_element(monkeypatch):
    # y = (0, 3) has length 1; u y with u the transposition of W_(2,0)
    # lies in the same double coset, and the patch reads it as length 0
    A = M.pmat(2, [(1, 0, 1), (1, 3, 1)])
    y = P.pseudo_matrix_rep(A)
    u = [u for u in P.young_subgroup_elements(M.ro(A)) if u != P.identity(2)][0]
    shorter = P.compose(u, y).window
    assert P.length(y) == 1 and shorter != y.window
    length = P.length
    monkeypatch.setattr(P, "length", lambda w: 0 if w.window == shorter else length(w))
    report = V.run_suite("coset-length", SMALL)
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    # other labels' cosets hold the window too, so A is not the only mismatch
    assert {"matrix": M.to_json(A), "failures": ["shorter coset element found"]} in diffs


def test_level_coherence_reports_a_wrong_diagonal_product(monkeypatch):
    # 0(j') x scaled by v differs from the level-r product wherever it is nonzero
    mul_by_0j = R.mul_by_0j
    monkeypatch.setattr(
        R, "mul_by_0j", lambda jp, x: R.v_scale(L.fraction({1: 1}), mul_by_0j(jp, x))
    )
    report = V.run_suite("level-coherence", SMALL)
    assert not report["ok"]
    ops = {d["op"] for m in report["mismatches"] for d in m["diffs"]}
    assert ops == {"diag-left"}
    assert len(report["mismatches"]) == report["cases"]


def test_schur_oracle_reports_a_dropped_term(monkeypatch):
    # the lower closed form loses the first term of every product
    e_mul_lower = S.e_mul_lower

    def dropped(C, A):
        x = e_mul_lower(C, A)
        return S.SchurElement(x.n, x.r, x.basis, dict(list(x.terms.items())[1:]))

    monkeypatch.setattr(S, "e_mul_lower", dropped)
    report = V.run_suite("schur-oracle", SMALL)
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    assert diffs and all(
        len(d["closed"]["terms"]) == len(d["oracle"]["terms"]) - 1 for d in diffs
    )
    lefts = [M.from_json(d["left"]) for d in diffs]
    assert all(B in S.lower_shapes_for(M.co(B)) for B in lefts)


def test_hall_reports_a_miscounted_hall_number(monkeypatch):
    # the census answers one count of 2E = E + E at q = 2 one too high
    E = M.e_unit(1, 2, 2)
    target = M.mscale(2, E)
    brute = Ha.brute_hall_number

    def off_by_one(A, B, C, q):
        return brute(A, B, C, q) + ((A, B, C, q) == (E, E, target, 2))

    monkeypatch.setattr(Ha, "brute_hall_number", off_by_one)
    report = V.run_suite("hall", SMALL)
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    assert diffs == [
        {
            "alpha": [1, 0],
            "matrix": M.to_json(E),
            "target": M.to_json(target),
            "q": 2,
            "closed": 3,
            "brute": 4,
        }
    ]
