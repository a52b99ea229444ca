"""Acceptance suite: every criterion as one pass/fail line.

Each test runs the corresponding verification suite on its full default
grid and requires exact equality everywhere; any mismatch fails with the
offending cases attached.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from affq import cli as C
from affq import hall as Ha
from affq import hecke as H
from affq import laurent as L
from affq import matrices as M
from affq import permutations as P
from affq import realization as R
from affq import schur as S
from affq import verify as V
from test_hecke import rand_coeff, rand_perm
from test_schur import lower_shapes_for

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
    u = [u for u in P.young_subgroup_elements(M.ro(A)) if u != P.rho_power(0, 2)][0]
    shorter = P.compose(u, y)
    assert P.length(y) == 1 and shorter != y
    length = P.length
    monkeypatch.setattr(P, "length", lambda w: 0 if w == shorter else length(w))
    report = V.run_suite("coset-length", SMALL)
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    # other labels' cosets hold the window too, so A is not the only mismatch
    assert {"matrix": M.to_json(A), "failures": ["shorter coset element found"]} in diffs


def test_coset_length_reports_a_shorter_element_on_the_right(monkeypatch):
    # the mirror of the control above: W_lam is trivial for ro(A) = (1, 1),
    # so only y v with v the transposition of W_mu, mu = co(A) = (2, 0),
    # reaches the window that the patch reads as length 0
    A = M.pmat(2, [(1, -1, 1), (2, 3, 1)])
    y = P.pseudo_matrix_rep(A)
    assert M.ro(A) == (1, 1) and M.co(A) == (2, 0)
    v = [v for v in P.young_subgroup_elements(M.co(A)) if v != P.rho_power(0, 2)][0]
    shorter = P.compose(y, v)
    assert P.length(y) == 1 and shorter != y
    length = P.length
    monkeypatch.setattr(P, "length", lambda w: 0 if w == shorter else length(w))
    report = V.run_suite("coset-length", SMALL)
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    assert {"matrix": M.to_json(A), "failures": ["shorter coset element found"]} in diffs


def test_coset_length_reports_a_longer_representative(monkeypatch, capsys):
    # s_1 d_A lies in the double coset of A and is one step longer than d_A
    # when s_1 is in W_lam: the round trip holds and minimality fails
    rep = P.pseudo_matrix_rep

    def longer(A):
        d = rep(A)
        return P.compose(P.generator_s(1, len(d)), d) if M.ro(A)[0] >= 2 else d

    monkeypatch.setattr(P, "pseudo_matrix_rep", longer)
    report = V.run_suite("coset-length", SMALL)
    assert not report["ok"]
    failures = {
        json.dumps(d["matrix"]): d["failures"]
        for m in report["mismatches"]
        for d in m["diffs"]
    }
    moved = [A for A in M.band_matrices(2, 2, 2) if M.ro(A)[0] >= 2]
    assert sorted(failures) == sorted(json.dumps(M.to_json(A)) for A in moved)
    for bad in failures.values():
        assert "descent minimality" in bad and "round trip" not in bad
    assert C.main(["verify", "--suite", "coset-length", "--n", "2", "--r", "2"]) == 1
    assert "coset-length: FAIL" in capsys.readouterr().err


def test_hecke_coset_reports_a_dropped_coset_factor(monkeypatch):
    # x_lam T_d x_mu is [A]! times the double-coset sum, and [A]! = 1 exactly
    # when no entry of A is 2 or more
    monkeypatch.setattr(H, "coset_factor", lambda A: L.one())
    report = V.run_suite("hecke", SMALL)
    assert not report["ok"]
    # quad, rho and the four assoc chunks still pass
    assert [m["case"] for m in report["mismatches"]] == ["coset-identity n=2,r=2"]
    failed = [json.dumps(d["matrix"]) for m in report["mismatches"] for d in m["diffs"]]
    wide = [A for A in M.band_matrices(2, 2, 2) if any(a >= 2 for _, _, a in A.entries)]
    assert failed and sorted(failed) == sorted(json.dumps(M.to_json(A)) for A in wide)


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


def direct_product(op, A, j, arg, r):
    """The level-r product of level-coherence taken on A_j_r(A, j, r) at the
    weight j itself, by the closed products (diag-right by the oracle): a
    second route beside the reweighted oracle products of _level_products."""
    base = S.A_j_r(A, j, r)
    zero_j = (0,) * A.n
    if op == "diag-left":
        return S.closed_product_upper(S.A_j_r(M.pmat(A.n, []), arg, r), base)
    if op == "diag-right":
        gen = S.convert(S.A_j_r(M.pmat(A.n, []), arg, r), "e")
        return S.convert(S.oracle_product(S.convert(base, "e"), gen), "n")
    if op == "one-layer-upper":
        return S.closed_product_upper(S.A_j_r(M.s_alpha(arg), zero_j, r), base)
    assert op == "one-layer-lower"
    return S.closed_product_lower(S.A_j_r(M.t_s_alpha(arg), zero_j, r), base)


def test_reweighted_level_products_match_the_products_at_each_weight():
    moved = 0  # products whose reweighting changes a coefficient
    for n in (2, 3):
        jgrid, alphas = V._weight_grid(n), V._alpha_grid(n, 2)
        ops = [(op, jp) for jp in jgrid for op in ("diag-left", "diag-right")]
        ops += [(op, a) for a in alphas for op in ("one-layer-upper", "one-layer-lower")]
        for A in V.mixed_labels(n, 2, n):
            for r in range(max(1, M.sigma(A)), 4):
                products = V._level_products(A, r, jgrid, alphas)
                assert list(products) == ops
                for (op, arg), product in products.items():
                    for j in jgrid:
                        got = V._at_weight(product, A, j)
                        assert S.s_eq(got, direct_product(op, A, j, arg, r)), (op, A, j, arg, r)
                        moved += not S.s_eq(got, V._at_weight(product, A, (0,) * n))
    assert moved > 10000  # 10,528 of them


def test_level_coherence_reports_a_dropped_lower_term(monkeypatch):
    # the level-free lower product loses its first term over the denominator
    # 1: a term over another denominator would leave one at every level, an
    # internal error, not a mismatch
    mul_by_semisimple_minus = R.mul_by_semisimple_minus

    def dropped(alpha, x):
        z = mul_by_semisimple_minus(alpha, x)
        polys = [key for key, f in z.terms.items() if f.den == L.one()]
        return R.VElement(z.n, {k: f for k, f in z.terms.items() if k not in polys[:1]})

    monkeypatch.setattr(R, "mul_by_semisimple_minus", dropped)
    report = V.run_suite("level-coherence", SMALL)
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    assert {d["op"] for d in diffs} == {"one-layer-lower"}
    assert {tuple(d["j"]) for d in diffs} == set(V._weight_grid(2))
    for d in diffs:
        A, j, alpha = M.from_json(d["matrix"]), tuple(d["j"]), tuple(d["arg"])
        want = direct_product("one-layer-lower", A, j, alpha, d["r"])
        assert d["level"] == S.to_json(want)


def upper_term_tail_ge(amap, T):
    """S.upper_term with the row tails of T summed over j >= l, not j > l:
    the T-tail edit of the mutant table (tests/data/mutants.py)."""
    cells, tails = amap
    n = T.n
    label = dict(cells)
    below = {}
    for i, l, t in T.entries:
        key = (i + 1, l) if i < n else (1, l - n)
        below[key] = t
        label[key] = label.get(key, 0) - t
        label[i, l] = label.get((i, l), 0) + t
    coeff = L.one()
    total = 0
    for i, l, t in T.entries:
        coeff = L.mul(coeff, L.gauss_sq(cells.get((i, l), 0) + t - below.get((i, l), 0), t))
        s = tails[i, l]
        for (k, j), u in below.items():
            if k == i and j >= l:
                s -= u
        total += t * s
    entries = tuple(sorted((i, j, a) for (i, j), a in label.items() if a))
    return M.PeriodicMatrix(n, entries), L.vshift(coeff, 2 * total)


def test_level_coherence_reports_a_wrong_tail_in_the_per_t_rule(monkeypatch):
    # the level-free one-layer rows read S.upper_term and the level-r
    # products, from the Hecke oracle, do not: the edit moves one side only
    tables = (S._e_mul_upper, R._plus_rows, R._minus_rows)
    for table in tables:
        table.cache_clear()
    monkeypatch.setattr(S, "upper_term", upper_term_tail_ge)
    try:
        report = V.run_suite("level-coherence", SMALL)
    finally:
        monkeypatch.undo()
        for table in tables:
            table.cache_clear()
    assert not report["ok"]
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    assert {d["op"] for d in diffs} == {"one-layer-upper", "one-layer-lower"}
    assert {tuple(d["j"]) for d in diffs} == set(V._weight_grid(2))


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
    assert all(B in lower_shapes_for(M.co(B)) for B in lefts)


def test_schur_oracle_visits_each_label_once_beside_its_negation():
    checks = 0
    for n in (2, 3):
        for r in range(1, 5):
            labels = list(M.band_matrices(n, r, V._BANDS[n]))
            order = V._mirror_order(labels)
            assert len(order) == len(set(order)) == len(labels)
            assert set(order) == set(labels)
            at = {A: k for k, A in enumerate(order)}
            for A in order:
                assert abs(at[A] - at[M.negate(A)]) == (M.negate(A) != A)
            if r >= 2:  # the default grid: an upper pair and its mirror per shape
                checks += 2 * sum(len(S.upper_shapes_for(M.ro(A))) for A in order)
    assert checks == CRITERION_COUNTS["schur-oracle"]["checks"]
    report = V._check_schur_oracle(("schur-oracle", 2, V._BANDS[2], 2))
    assert report["checked"] == SUITE_COUNTS["schur-oracle"]["checks"]


def randrange_elem(rng, r):
    """The hecke suite's random element, drawn with rng.randrange: each
    term's coefficient, then its window."""
    items = []
    for _ in range(rng.randrange(1, 5)):
        f = rand_coeff(rng)
        items.append((rand_perm(rng, r), f))
    return H.h_from_items(r, items)


def test_hecke_draws_are_the_draws_of_randrange():
    # every seed of the quad, rho and assoc cases, at every level the suite
    # takes: the same elements and windows, and the same final state
    for r in range(2, V.MAX_LEVEL + 1):
        streams = [("quad:%d" % r, "elem", 20 * r), ("rho:%d" % r, "perm", 25 * 5)]
        streams += [("assoc:%d:%d" % (r, chunk), "elem", 3 * 120) for chunk in range(4)]
        for seed, kind, count in streams:
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(count):
                if kind == "elem":
                    assert V._rand_elem(got_rng, r) == randrange_elem(want_rng, r)
                else:
                    assert V._rand_perm(got_rng, r) == rand_perm(want_rng, r)
            assert got_rng.getstate() == want_rng.getstate()


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


def test_hall_reports_a_label_outside_the_candidates(monkeypatch):
    # u_{S_1} u_E also returns 3E, whose dimension vector is not that of
    # S_1 + E: hall-closed compares it with the count 0, and hall-twist
    # fails too, since route b sums the patched product
    E = M.e_unit(1, 2, 2)
    stray = M.mscale(3, E)
    product = Ha.semisimple_hall_product

    def extra(alpha, A):
        out = product(alpha, A)
        return {**out, stray: {0: 1}} if (tuple(alpha), A) == ((1, 0), E) else out

    monkeypatch.setattr(Ha, "semisimple_hall_product", extra)
    report = V.run_suite("hall", V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2, 3)))
    cases = ["closed n=2,alpha=[1, 0]", "twist n=2,alpha=[1, 0]"]
    assert [m["case"] for m in report["mismatches"]] == cases
    assert report["mismatches"][0]["diffs"] == [
        {
            "alpha": [1, 0],
            "matrix": M.to_json(E),
            "target": M.to_json(stray),
            "q": q,
            "closed": 1,
            "brute": 0,
        }
        for q in (2, 3)
    ]


def test_hall_closed_reports_a_product_term_that_is_no_label(monkeypatch):
    # a diagonal entry makes no module: hall-closed reports the term, which
    # reads q at each q, against the count 0 and does not hand it to the
    # census, which refuses it
    bad = M.pmat(2, [(1, 1, 1)])
    product = Ha.semisimple_hall_product
    monkeypatch.setattr(
        Ha, "semisimple_hall_product", lambda alpha, A: {**product(alpha, A), bad: {1: 1}}
    )
    diffs = V._check_hall(("hall-closed", 2, (1, 0), (2, 3)))["diffs"]
    assert len(diffs) == 2 * len(list(Ha.enumerate_labels(2, 3, 4)))
    for d in diffs:
        assert (d["target"], d["closed"], d["brute"]) == (M.to_json(bad), d["q"], 0)


def test_hall_twist_reports_a_product_term_that_is_no_label(monkeypatch, tmp_path):
    # route b has no twist exponent for a term that is no label: every twist
    # case reports each label A as a mismatch, and the suite, run in
    # process or through the CLI, still ends with its report
    bad = M.pmat(2, [(1, 1, 1)])
    product = Ha.semisimple_hall_product
    monkeypatch.setattr(
        Ha, "semisimple_hall_product", lambda alpha, A: {**product(alpha, A), bad: {1: 1}}
    )
    report = V.run_suite("hall", V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2, 3)))
    twists = {m["case"]: m["diffs"] for m in report["mismatches"] if m["case"].startswith("twist")}
    labels = Ha.enumerate_labels(2, 3, 5)
    assert twists == {
        "twist n=2,alpha=%s" % list(alpha): [
            {"alpha": list(alpha), "matrix": M.to_json(A)} for A in labels
        ]
        for alpha in V._alpha_grid(2, 2)
    }
    out = tmp_path / "hall.json"
    assert C.main(["verify", "--suite", "hall", "--n", "2", "--jobs", "1", "--out", str(out)]) == 1
    assert out.exists()


def test_hall_twist_reports_a_bent_polynomial_that_both_fields_miss(monkeypatch):
    # (q - 2)(q - 3) added to the 1 + q of u_{S_1} u_E vanishes at q = 2, 3:
    # every hall-closed case passes, and the v-polynomials of the twisted
    # product, compared as polynomials, tell the two routes apart
    E = M.e_unit(1, 2, 2)
    product = Ha.semisimple_hall_product

    def bent(alpha, A):
        out = product(alpha, A)
        if (tuple(alpha), A) == ((1, 0), E):
            out = dict(out)
            out[M.mscale(2, E)] = L.add(out[M.mscale(2, E)], {0: 6, 1: -5, 2: 1})
        return out

    monkeypatch.setattr(Ha, "semisimple_hall_product", bent)
    report = V.run_suite("hall", V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2, 3)))
    assert [m["case"] for m in report["mismatches"]] == ["twist n=2,alpha=[1, 0]"]
    assert report["mismatches"][0]["diffs"] == [{"alpha": [1, 0], "matrix": M.to_json(E)}]


def test_hall_twist_reports_a_plus_product_off_the_weight_zero(monkeypatch):
    # u~_{S_1} u~_E passed through 0(1, 0): the term of 2E moves to the
    # weight (1, 0), which the twisted product read off the plus product
    # must not hold
    E = M.e_unit(1, 2, 2)
    plus = R.mul_by_semisimple_plus

    def shifted(alpha, x):
        out = plus(alpha, x)
        if tuple(alpha) == (1, 0) and x == R.v_basis(2, E, (0, 0)):
            out = R.mul_by_0j((1, 0), out)
        return out

    monkeypatch.setattr(R, "mul_by_semisimple_plus", shifted)
    report = V.run_suite("hall", V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2, 3)))
    assert [m["case"] for m in report["mismatches"]] == ["twist n=2,alpha=[1, 0]"]
    assert report["mismatches"][0]["diffs"] == [{"alpha": [1, 0], "matrix": M.to_json(E)}]


# json.dumps(report, sort_keys=True) of the failing triangular report below
TRIANGULAR_CONTROL_SHA256 = "b1376e24598b837634bcfae7fa5eab6970dfbfbfefa12e977e94979e1c4c9052"


def test_triangular_reports_a_generator_that_drops_its_weight(monkeypatch, tmp_path):
    # 0(j) read as 0(0) at every level: the leading coefficients lose
    # v^(j.(co(upper) + ro(lower)) + mu.j), so every case with j != 0 fails
    # and no label goes missing or leaves the corner order
    level_shadow = S.level_shadow
    monkeypatch.setattr(
        S,
        "level_shadow",
        lambda A, j, r: level_shadow(A, j if M.sigma(A) else (0,) * A.n, r),
    )
    out = tmp_path / "triangular.json"
    assert C.main(["verify", "--suite", "triangular", "--out", str(out)]) == 1
    (report,) = json.loads(out.read_text())["suites"]
    assert report["cases"] == 180 and len(report["mismatches"]) == 135
    diffs = [d for m in report["mismatches"] for d in m["diffs"]]
    assert all(d["j"] != [0, 0] and not d["missing"] for d in diffs)
    assert {b["reason"] for d in diffs for b in d["bad"]} == {"leading coefficient"}
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == TRIANGULAR_CONTROL_SHA256


def test_level_suites_plan_only_labels_that_reach_r_max():
    # each label runs from level sigma(A) up to r_max, so a label of sigma
    # above r_max would check nothing: at r_max = 1 only sigma <= 1 is
    # planned, 9 of the 45 labels of n = 2, and every case checks a level
    cfg = V.Config(n_list=(2,), r_min=1, r_max=1, q_list=(2,))
    for suite, count in (("level-coherence", 9), ("triangular", 36)):
        cases = V._cases(suite, cfg)
        assert len(cases) == count
        results = [V._SUITES[suite][1](case) for case in cases]
        assert all(res["ok"] and res["checked"] > 0 for res in results), suite


def test_every_mutant_edit_finds_its_kernel():
    # tests/data/mutants.py --run applies each edit to a copy of src; an old
    # text that a refactor moved or duplicated would mutate nothing or the
    # wrong line, so it must occur exactly once in src/affq, in its file
    spec = importlib.util.spec_from_file_location("mutants", DATA / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) == 24
    assert mutants.misplaced() == []
