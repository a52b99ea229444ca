"""Tests for the level-free realization elements and their products."""

import doctest
import functools
import itertools
import json
import random

import pytest

from affq import cli
from affq import hall as Ha
from affq import laurent as L
from affq import matrices as M
from affq import realization as R
from affq import schur as S
from affq import verify as V
from test_schur import msub, tilde


def mixed_labels(n, max_sigma, max_dist):
    """Zero-diagonal nonnegative labels with bounded support and size."""
    cells = [
        (i, jj)
        for i in range(1, n + 1)
        for jj in range(i - max_dist, i + max_dist + 1)
        if jj != i
    ]
    labels = set()
    for total in range(max_sigma + 1):
        for combo in itertools.combinations_with_replacement(
            range(len(cells)), total
        ):
            items = {}
            for k in combo:
                items[cells[k]] = items.get(cells[k], 0) + 1
            labels.add(M.pmat(n, [(i, jj, c) for (i, jj), c in items.items()]))
    return sorted(labels, key=lambda a: a.entries)


def test_suite_labels_match_the_combination_enumerator():
    # order and content of the labels the suites and the CLI golden file use
    for args in ((2, 2, 2), (3, 2, 3), (2, 2, 1), (3, 2, 1)):
        assert V.mixed_labels(*args) == mixed_labels(*args)


def frac(num, den=None):
    return L.fraction(L.poly(num), L.poly(den) if den is not None else None)


def velem(n, items):
    """The sum of f * A(j) over the items (A, j, f)."""
    out = R.v_zero(n)
    for A, j, f in items:
        out = R.v_add(out, R.v_scale(f, R.v_basis(n, A, j)))
    return out


def test_doctests():
    failures, attempted = doctest.testmod(R)
    assert failures == 0 and attempted > 0


def test_element_ops_and_validation():
    n = 2
    A = M.e_unit(1, 2, 2)
    x = R.v_basis(n, A, (1, 0))
    assert x.terms
    assert not R.v_sub(x, x).terms
    assert R.v_add(x, x) == R.v_scale(frac([(0, 2)]), x)
    assert not R.v_scale(L.fraction({}), x).terms
    with pytest.raises(ValueError):
        R.v_basis(n, M.diag((1, 0)), (0, 0))
    with pytest.raises(ValueError):
        R.v_basis(n, M.pmat(2, [(1, 2, -1)]), (0, 0))
    with pytest.raises(ValueError):
        R.v_basis(n, A, (0, 0, 0))
    with pytest.raises(ValueError):
        R.v_add(x, R.v_zero(3))


def test_json_round_trip_and_text():
    n = 2
    x = velem(
        n,
        [
            (M.e_unit(1, 2, 2), (0, 1), frac([(1, 1)], [(0, -1), (2, 1)])),
            (M.pmat(2, []), (-1, 2), {0: 3}),
        ],
    )
    obj = R.to_json(x)
    assert R.from_json(obj) == x
    assert obj["terms"] == sorted(
        obj["terms"], key=lambda t: (t["matrix"]["entries"], t["j"])
    )
    assert R.text(R.v_zero(2)) == "0"
    assert "(3)*[](-1, 2)" in R.text(x)


def test_frozen_diagonal_products():
    n = 2
    A = M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2))
    x = R.v_basis(n, A, (0, 0))
    left = R.mul_by_0j((1, 2), x)
    assert left.terms == {(A, (1, 2)): frac([(3, 1)])}
    right = R.mul_0j_right(x, (1, 2))
    assert right.terms == {(A, (1, 2)): frac([(3, 1)])}
    B = M.e_unit(1, 2, 2)
    assert R.mul_by_0j((2, 0), R.v_basis(n, B, (0, 0))).terms == {
        (B, (2, 0)): frac([(2, 1)])
    }
    assert R.mul_0j_right(R.v_basis(n, B, (0, 0)), (2, 0)).terms == {
        (B, (2, 0)): frac([(0, 1)])
    }
    y = R.v_basis(n, B, (3, -1))
    assert R.mul_by_0j((0, 0), y) == y
    composed = R.mul_by_0j((0, 1), R.mul_by_0j((1, 0), y))
    assert composed == R.mul_by_0j((1, 1), y)


def test_frozen_one_layer_on_diagonal():
    for j in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        got = R.mul_by_semisimple_plus((1, 0), R.v_basis(2, M.pmat(2, []), j))
        assert got.terms == {(M.e_unit(1, 2, 2), j): frac([(j[1], 1)])}
    for j in [(0, 0, 0), (1, 2, 3)]:
        got = R.mul_by_semisimple_plus((0, 1, 0), R.v_basis(3, M.pmat(3, []), j))
        assert got.terms == {(M.e_unit(2, 3, 3), j): frac([(j[2], 1)])}
    for j in [(0, 0), (1, 1), (2, 3)]:
        got = R.mul_by_semisimple_minus((0, 1), R.v_basis(2, M.pmat(2, []), j))
        assert got.terms == {(M.pmat(2, [(1, 0, 1)]), j): frac([(j[1], 1)])}


def test_frozen_commutator_products():
    den = [(0, -1), (2, 1)]
    mixed = M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2))
    got = R.mul_by_semisimple_plus((1, 0), R.v_basis(2, M.e_unit(2, 1, 2), (0, 0)))
    assert got.terms == {
        (M.pmat(2, []), (1, -1)): frac([(1, 1)], den),
        (M.pmat(2, []), (-1, -1)): frac([(1, -1)], den),
        (mixed, (0, 0)): frac([(0, 1)]),
    }
    got = R.mul_by_semisimple_minus((1, 0), R.v_basis(2, M.e_unit(1, 2, 2), (0, 0)))
    assert got.terms == {
        (M.pmat(2, []), (-1, 1)): frac([(1, 1)], den),
        (M.pmat(2, []), (-1, -1)): frac([(1, -1)], den),
        (mixed, (0, 0)): frac([(0, 1)]),
    }
    diff = R.v_sub(
        R.mul_by_semisimple_minus((1, 0), R.v_basis(2, M.s_alpha((1, 0)), (0, 0))),
        R.mul_by_semisimple_plus((1, 0), R.v_basis(2, M.t_s_alpha((1, 0)), (0, 0))),
    )
    assert diff.terms == {
        (M.pmat(2, []), (-1, 1)): frac([(1, 1)], den),
        (M.pmat(2, []), (1, -1)): frac([(1, -1)], den),
    }


def test_alpha_zero_identity():
    x = velem(
        2,
        [
            (M.e_unit(1, 2, 2), (0, 1), {1: 2}),
            (M.e_unit(2, 1, 2), (-1, 0), frac([(0, 1)], [(0, -1), (2, 1)])),
        ],
    )
    assert R.mul_by_semisimple_plus((0, 0), x) == x
    assert R.mul_by_semisimple_minus((0, 0), x) == x
    with pytest.raises(ValueError):
        R.mul_by_semisimple_plus((1,), x)
    with pytest.raises(ValueError):
        R.mul_by_semisimple_minus((-1, 1), x)


def test_reduce_frozen():
    zl = M.pmat(2, [])
    red = R.reduce_j_lambda(zl, (0, 0), (1, 0))
    den = [(0, -1), (2, 1)]
    assert red.terms == {
        (zl, (1, 0)): frac([(1, 1)], den),
        (zl, (-1, 0)): frac([(1, -1)], den),
    }
    red = R.reduce_j_lambda(zl, (0, 0), (2, 0))
    den2 = [(0, 1), (2, -1), (4, -1), (6, 1)]
    assert red.terms == {
        (zl, (2, 0)): frac([(2, 1)], den2),
        (zl, (0, 0)): frac([(2, -1), (4, -1)], den2),
        (zl, (-2, 0)): frac([(4, 1)], den2),
    }
    A = M.e_unit(1, 2, 2)
    assert R.reduce_j_lambda(A, (3, -1), (0, 0)) == R.v_basis(2, A, (3, -1))
    with pytest.raises(ValueError):
        R.reduce_j_lambda(A, (0, 0), (-1, 0))
    with pytest.raises(ValueError):
        R.reduce_j_lambda(A, (0, 0), (1, 0, 0))


def test_eval_frozen_and_clearing_error():
    x = R.v_basis(2, M.pmat(2, []), (1, 0))
    got = R.eval_at_level(x, 2)
    assert S.s_eq(got, S.A_j_r(M.pmat(2, []), (1, 0), 2))
    assert S.s_eq(
        R.eval_at_level(R.v_zero(2), 3), S.s_zero(2, 3, "n")
    )
    lifted = R.eval_at_level(R.v_basis(2, M.s_alpha((2, 0)), (0, 0)), 1)
    assert S.s_eq(lifted, S.s_zero(2, 1, "n"))
    # an uncleared denominator is a failed invariant, not an input error
    bad = R.v_scale(frac([(0, 1)], [(0, -1), (2, 1)]), x)
    with pytest.raises(AssertionError):
        R.eval_at_level(bad, 2)
    bad = R.VElement(2, {(M.pmat(2, []), (0, 0)): L.fraction({0: 1}, {0: 1, 2: 1})})
    with pytest.raises(AssertionError):
        R.eval_at_level(bad, 2)
    with pytest.raises(ValueError):
        R.eval_at_level(x, -1)


@pytest.mark.parametrize(
    "A, j, message",
    [
        (M.pmat(2, [(1, 1, 1)]), (0, 0), "nonnegative with zero diagonal"),
        (M.pmat(2, [(1, 2, -1)]), (0, 0), "nonnegative with zero diagonal"),
        (M.e_unit(1, 2, 2), (0, 0, 0), "weight length"),
    ],
    ids=["diagonal-entry", "negative-entry", "weight-length"],
)
def test_eval_at_level_checks_every_symbol(A, j, message):
    # built directly, so no reader has checked the symbol before evaluation
    x = R.VElement(2, {(A, j): L.FRAC_ONE})
    with pytest.raises(ValueError, match=message):
        R.eval_at_level(x, 2)


# ----------------------------------------------------------------------
# evaluation at a level against the term-by-term route


def eval_reference(x, r):
    """eval_at_level term by term: each shadow coefficient is scaled as a
    fraction and added into its label's fraction, which is cleared last."""
    acc = {}
    for (A, j), cf in x.terms.items():
        for label, c in S.A_j_r(A, j, r).terms.items():
            f = L.frac_scale(c, cf)
            if label in acc:
                f = L.frac_add(acc.pop(label), f)
            if not L.frac_is_zero(f):
                acc[label] = f
    items = [(label, L.frac_to_laurent(f)) for label, f in acc.items()]
    return S.s_from_items(x.n, r, [(label, c) for label, c in items if c], "n")


def den_groups(x, r):
    """label -> {denominator: summed numerator} over the terms of x."""
    out = {}
    for (A, j), cf in x.terms.items():
        key = tuple(sorted(cf.den.items()))
        for label, c in S.A_j_r(A, j, r).terms.items():
            L.acc(out.setdefault(label, {}), key, L.mul(c, cf.num))
    return out


def clears(num, key):
    try:
        L.divexact(num, dict(key))
    except ValueError:
        return False
    return True


def eval_per_group(x, r):
    """A wrong evaluator: it clears each denominator's share on its own."""
    items = []
    for label, groups in den_groups(x, r).items():
        for key, num in groups.items():
            items.append((label, L.divexact(num, dict(key))))
    return S.s_from_items(x.n, r, items, "n")


def cancel_pair(A, j):
    """f A(j) + g A(j + 2) with f = 1 / (v^2 - 1) and, over another
    denominator, g = -v^-2 (1 + v^2) / (v^4 - 1) = -v^-2 f.

    At level r the label A + diag(mu) gets f v^(mu.j) (1 - v^(2(r - s - 1)))
    with s = sigma(A): the two groups cancel at r = s + 1 and clear only
    together at every other level.
    """
    n = A.n
    f = L.fraction({0: 1}, {0: -1, 2: 1})
    g = L.LaurentFraction({-2: -1, 0: -1}, {0: -1, 4: 1})
    j2 = tuple(a + 2 for a in j)
    return R.v_add(R.v_scale(f, R.v_basis(n, A, j)), R.v_scale(g, R.v_basis(n, A, j2)))


def denominators(x):
    return {tuple(sorted(f.den.items())) for f in x.terms.values()}


# mul_by_semisimple_plus((0, 2), .) of this symbol has four denominators,
# and at level 2 labels whose groups clear only in their sum
CROSS_SYMBOL = (M.pmat(2, [(1, 0, 2)]), (1, 2))


def shadow_elements():
    zl2, zl3 = M.pmat(2, []), M.pmat(3, [])
    E12, E21 = M.e_unit(1, 2, 2), M.e_unit(2, 1, 2)
    return [
        R.v_add(
            R.reduce_j_lambda(zl2, (0, 0), (1, 0)),
            R.mul_by_semisimple_plus((1, 0), R.v_basis(2, E21, (0, 0))),
        ),
        R.v_add(
            R.reduce_j_lambda(E12, (1, 0), (2, 0)),
            R.mul_by_semisimple_minus((1, 0), R.v_basis(2, E12, (0, 0))),
        ),
        R.v_add(
            R.reduce_j_lambda(zl3, (0, 1, 2), (1, 0, 1)),
            R.mul_by_semisimple_minus((0, 1, 0), R.v_basis(3, M.e_unit(1, 2, 3), (1, 0, 0))),
        ),
        R.mul_by_semisimple_plus((0, 2), R.v_basis(2, *CROSS_SYMBOL)),
    ]


def split_element():
    """Labels that clear only across groups, and at level 2 labels whose
    groups cancel to zero."""
    cross = R.mul_by_semisimple_plus((0, 2), R.v_basis(2, *CROSS_SYMBOL))
    return R.v_add(cross, cancel_pair(M.e_unit(1, 2, 2), (0, 1)))


def test_eval_at_level_matches_the_per_term_reference():
    for x in shadow_elements():
        assert 2 <= len(denominators(x)) <= 4, R.text(x)
    for x in shadow_elements() + [split_element()]:
        for r in range(1, 5):
            assert S.s_eq(R.eval_at_level(x, r), eval_reference(x, r)), (R.text(x), r)


def test_eval_at_level_equals_the_checked_build_on_the_level_coherence_grid():
    # eval_at_level builds its element from the sums, unchecked; every
    # label must pass s_from_items, which merges nothing and drops nothing
    for n in (2, 3):
        for A in V.mixed_labels(n, 2, n):
            for j in V._weight_grid(n):
                x = R.v_basis(n, A, j)
                for y in (x, R.mul_by_semisimple_plus((1,) + (0,) * (n - 1), x)):
                    for r in range(max(1, M.sigma(A)), 4):
                        got = R.eval_at_level(y, r)
                        want = S.s_from_items(n, r, got.terms.items(), "n")
                        assert got == want and all(got.terms.values())
            for lam in V._lambda_grid(n)[:4]:
                red = R.reduce_j_lambda(A, j, lam)
                for r in range(max(1, M.sigma(A)), 4):
                    got = R.eval_at_level(red, r)
                    assert got == S.s_from_items(n, r, got.terms.items(), "n")


def eval_per_fill(x, r):
    """eval_at_level as a straightforward sum: every fill mu of every term,
    enumerated by M.compositions, adds v^(mu.j) cf to its label's fraction
    with L.frac_add, and each label is cleared last."""
    acc = {}
    for (A, j), cf in x.terms.items():
        s = M.sigma(A)
        if s > r:
            continue
        for mu in M.compositions(x.n, r - s):
            label = M.madd(A, M.diag(mu))
            f = L.frac_scale(L.monomial(M.dot(mu, j)), cf)
            acc[label] = L.frac_add(acc[label], f) if label in acc else f
    items = [(label, L.frac_to_laurent(f)) for label, f in acc.items()]
    return S.s_from_items(x.n, r, [(label, c) for label, c in items if c], "n")


def multi_denominator_elements():
    """Seeded sums of reductions and one-layer products of reductions, each
    with terms over two or more denominators."""
    rng = random.Random(79)
    for n, max_sigma in ((2, 2), (3, 1)):
        labels = V.mixed_labels(n, max_sigma, 1)
        for _ in range(12):
            x = R.v_zero(n)
            for _ in range(rng.randrange(2, 4)):
                A = rng.choice(labels)
                j = tuple(rng.randrange(-2, 3) for _ in range(n))
                lam = tuple(rng.randrange(0, 3) for _ in range(n))
                y = R.reduce_j_lambda(A, j, lam)
                alpha = tuple(rng.randrange(0, 2) for _ in range(n))
                op = rng.choice((None, R.mul_by_semisimple_plus, R.mul_by_semisimple_minus))
                x = R.v_add(x, y if op is None else op(alpha, y))
            if len(denominators(x)) > 1:
                yield x


def test_eval_at_level_over_several_denominators_matches_the_per_fill_sum():
    elements = list(multi_denominator_elements()) + shadow_elements() + [split_element()]
    assert len(elements) >= 20
    assert max(len(denominators(x)) for x in elements) >= 3
    for x in elements:
        for r in range(5):
            assert S.s_eq(R.eval_at_level(x, r), eval_per_fill(x, r)), (R.text(x), r)


def test_eval_at_level_clears_each_label_across_its_groups():
    x = split_element()
    got = R.eval_at_level(x, 2)
    groups = den_groups(x, 2)
    split = {
        label
        for label, g in groups.items()
        if not all(clears(num, key) for key, num in g.items())
    }
    # some labels clear only in their cross-group sum, and some cancel to zero
    assert split & set(got.terms)
    assert split - set(got.terms)
    assert all(len(groups[label]) > 1 for label in split)
    with pytest.raises(ValueError):
        eval_per_group(x, 2)


def test_relation_e_all_pairs():
    # the suite's five n = 2 pairs, then four more, three of them with n = 3
    pairs = [
        ((1, 0), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 1), (1, 1)),
        ((2, 0), (2, 0)),
        ((2, 0), (1, 0)),
        ((2, 1), (1, 2)),
        ((1, 0, 0), (1, 0, 0)),
        ((1, 1, 0), (1, 0, 1)),
        ((2, 1, 1), (1, 2, 1)),
    ]
    for lam, mu in pairs:
        assert R.relation_e_difference(lam, mu) == R.v_zero(len(lam)), (lam, mu)
    with pytest.raises(ValueError):
        R.relation_e_difference((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        R.relation_e_difference((-1, 0), (1, 0))


def test_relation_e_fails_with_a_wrong_coefficient(monkeypatch, tmp_path):
    # x_coeff scaled by v breaks every pair whose right side is not empty
    x_coeff = R.x_coeff
    monkeypatch.setattr(
        R, "x_coeff", lambda *args: L.frac_scale(L.monomial(1), x_coeff(*args))
    )
    assert R.relation_e_difference((1, 0), (1, 0)).terms
    report = V.run_suite("commutator")
    assert not report["ok"]
    assert len(report["mismatches"]) == 6
    assert all(m["diffs"][0]["difference"]["terms"] for m in report["mismatches"])
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "commutator", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["ok"] is False


def test_commutator_catches_a_transposed_euler_form_at_n_3(monkeypatch):
    # x_coeff with 2<d, gamma> in place of 2<gamma, d>, d = alpha - gamma -
    # lam: the n = 2 pairs cannot see it, the two n = 3 pairs must
    x_coeff = R.x_coeff

    def transposed(alpha, gamma, lam, mu):
        d = tuple(a - g - l for a, g, l in zip(alpha, gamma, lam))
        shift = 2 * (Ha.euler_form(d, gamma) - Ha.euler_form(gamma, d))
        return L.frac_scale(L.monomial(shift), x_coeff(alpha, gamma, lam, mu))

    monkeypatch.setattr(R, "x_coeff", transposed)
    report = V.run_suite("commutator")
    assert report["cases"] == 7
    assert sorted(m["case"] for m in report["mismatches"]) == [
        "lam=[1, 1, 0],mu=[1, 0, 1]",
        "lam=[2, 1, 0],mu=[1, 1, 0]",
    ]


# ----------------------------------------------------------------------
# the other defining relations of U_v(affine gl_n) on the symbols: E_i and
# F_i are the one-layer products with alpha = e_i, applied right to left
# to 0(0)


def word_on_zero(n, word):
    """The letters (sign, i) of word applied to 0(0), the rightmost first:
    sign +1 is E_i and -1 is F_i."""
    x = R.v_basis(n, M.pmat(n, []), (0,) * n)
    for sign, i in reversed(word):
        mul = R.mul_by_semisimple_plus if sign > 0 else R.mul_by_semisimple_minus
        x = mul(tuple(int(p == i - 1) for p in range(n)), x)
    return x


def word_sum(n, terms):
    """The sum of c * word_on_zero(n, word) over the terms (c, word)."""
    out = R.v_zero(n)
    for c, word in terms:
        out = R.v_add(out, R.v_scale(c, word_on_zero(n, word)))
    return out


def serre(n, sign, i, j, gauss=L.gauss_sym):
    """sum_k (-1)^k [N choose k] X_i^{N-k} X_j X_i^k with N = 1 - a_ij:
    quartic at n = 2, where a_12 = -2, and cubic otherwise."""
    N = 3 if n == 2 else 2
    x, y = (sign, i), (sign, j)
    return word_sum(
        n,
        [
            (gauss(N, k) if k % 2 == 0 else L.neg(gauss(N, k)), (x,) * (N - k) + (y,) + (x,) * k)
            for k in range(N + 1)
        ],
    )


def commutator(n, x, y):
    return word_sum(n, [(L.one(), (x, y)), (L.neg(L.one()), (y, x))])


def test_serre_and_commutation_relations_hold_on_the_symbols():
    checked = 0
    for n in (2, 3, 4):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            adjacent = (i - j) % n in (1, n - 1)
            for sign in (1, -1):
                if adjacent:
                    assert not serre(n, sign, i, j).terms, (n, sign, i, j)
                else:
                    assert not commutator(n, (sign, i), (sign, j)).terms, (n, sign, i, j)
            assert not commutator(n, (1, i), (-1, j)).terms, (n, i, j)
            checked += 3
    assert checked == 60


def test_serre_relation_fails_with_a_wrong_bracket():
    # [2] = v^-1 + v replaced by v + 1 in the n = 3 cubic
    def gauss(N, k):
        return L.poly({0: 1, 1: 1}) if (N, k) == (2, 1) else L.gauss_sym(N, k)

    assert serre(3, 1, 1, 2, gauss).terms


def negate_element(x):
    """Index negation on symbols: A(j) -> (negate A)(j') with j'_{-i} = j_i
    for vertices i mod n, the 0-based index p going to -p - 2 mod n."""
    n = x.n
    out = {}
    for (A, j), f in x.terms.items():
        out[(M.negate(A), tuple(j[(-p - 2) % n] for p in range(n)))] = f
    return R.VElement(n, out)


def minus_reference(alpha, x):
    """The minus product as the conjugate of the plus product under the
    index negation, alpha'[-p-3 mod n] = alpha[p]: both the input and the
    output negated on every call."""
    n = x.n
    alpha_neg = tuple(alpha[(-p - 3) % n] for p in range(n))
    return negate_element(R.mul_by_semisimple_plus(alpha_neg, negate_element(x)))


def test_negate_element_is_an_involution():
    for n in (2, 3):
        for A in [M.pmat(n, []), M.e_unit(1, 2, n), M.e_unit(2, 1, n)]:
            x = R.reduce_j_lambda(A, tuple(range(n)), (1,) + (0,) * (n - 1))
            y = negate_element(x)
            assert {B for B, _ in y.terms} == {M.negate(A)}
            assert negate_element(y) == x
            for j in itertools.product(range(-1, 2), repeat=n):
                assert R._negate_weight(R._negate_weight(j)) == j
                assert negate_element(R.v_basis(n, A, j)).terms == {
                    (M.negate(A), R._negate_weight(j)): L.FRAC_ONE
                }


def test_minus_product_rows_match_the_negated_plus_product():
    # the signed minus rows against negate . plus . negate, with the terms
    # in order and each coefficient's num/den representation
    several = 0
    for _, alpha, x in plus_cases():
        want = exact_terms(minus_reference(alpha, x))
        assert exact_terms(R.mul_by_semisimple_minus(alpha, x)) == want, (alpha, R.text(x))
        several += len(x.terms) > 1 and len(denominators(x)) > 1
    assert several > 100


def test_plus_rows_on_strictly_upper_labels_keep_the_weight_and_the_diagonal():
    # on a strictly upper label no T of the plus product shifts the weight
    # or has a diagonal entry, so no row needs the lambda-reduction; no
    # code relies on it (hall-twist compares the weights of the product)
    rows = 0
    for n in (2, 3):
        zero = (0,) * n
        for A in Ha.enumerate_labels(n, 3, 5):
            for alpha in V._alpha_grid(n, 2):
                for _, _, _, steps in R._plus_rows(alpha, A):
                    # shift = 0 and delta = 0: one step, k = 0 with c = 1
                    ((k, c),) = steps
                    assert k == zero and c is L.FRAC_ONE, (alpha, A)
                    rows += 1
    assert rows == 3207


def test_tilde_exponent_matches_hall_dimensions():
    # M(S_alpha) is semisimple: dim End = sum alpha_i^2, dim = sum alpha_i
    for alpha in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 2)]:
        lab = M.s_alpha(alpha)
        assert Ha.tilde_exponent(lab) == Ha.dim_end(lab) - Ha.dim_rep(lab)
        assert Ha.tilde_exponent(lab) == sum(a * a - a for a in alpha)


# ----------------------------------------------------------------------
# the commutator coefficient


def compositions_nonzero(gamma, m):
    """Ordered decompositions of gamma into m nonzero nonnegative parts."""
    if m == 0:
        if not any(gamma):
            yield ()
        return
    for first in itertools.product(*(range(c + 1) for c in gamma)):
        if any(first):
            rest = tuple(g - f for g, f in zip(gamma, first))
            for tail in compositions_nonzero(rest, m - 1):
                yield (first,) + tail


def oracle_x_coeff(alpha, gamma, lam, mu):
    """x_coeff with its inner alternating sum enumerated over every ordered
    decomposition of gamma into nonzero parts."""

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    amg, lma, mma = sub(alpha, gamma), sub(lam, alpha), sub(mu, alpha)
    exp = (
        Ha.euler_form(alpha, lma)
        + Ha.euler_form(mu, sub(tuple(2 * g for g in gamma), alpha))
        + 2 * Ha.euler_form(gamma, sub(amg, lam))
        + 2 * sum(alpha)
    )
    num = L.monomial(exp)
    num = L.mul(num, L.multinomial_sq(lam, [amg, lma, gamma]))
    num = L.mul(num, L.multinomial_sq(mu, [amg, mma, gamma]))
    num = L.mul(num, L.mul(L.frak_a(amg), L.mul(L.frak_a(lma), L.frak_a(mma))))
    den = L.mul(L.frak_a(lam), L.frak_a(mu))
    inner = L.zero() if any(gamma) else L.one()
    for m in range(1, sum(gamma) + 1):
        for decomp in compositions_nonzero(gamma, m):
            cross = sum(
                Ha.euler_form(decomp[i], decomp[j])
                for i in range(m)
                for j in range(i + 1, m)
            )
            term = L.monomial(2 * cross, (-1) ** m)
            for part in decomp:
                term = L.mul(term, L.frak_a(part))
            mn = L.multinomial_sq(gamma, list(decomp))
            inner = L.add(inner, L.mul(term, L.mul(mn, mn)))
    return L.fraction(L.mul(num, inner), den)


def test_x_coeff_recursion_matches_the_enumeration():
    # every gamma with n = 2 and parts <= 3, and with n = 3 and parts <= 2
    checked = 0
    for top in ((3, 3), (2, 2, 2)):
        for gamma in M.compositions_bounded(top):
            got = R.x_coeff(top, gamma, top, top)
            want = oracle_x_coeff(top, gamma, top, top)
            assert (got.num, got.den) == (want.num, want.den), gamma
            checked += 1
    assert checked == 43


# ----------------------------------------------------------------------
# the plus product from its weight-free rows against the per-T loop


def _coeff_plus(A, T):
    out = L.one()
    for i, jj, t in T.entries:
        if jj == i:
            continue
        N = A.entry(i, jj) + t - T.entry(i - 1, jj)
        out = L.mul(out, L.bar(L.gauss_sq(N, t)))
        if not out:
            break
    return out


def _f_plus(A, T, j):
    total = 0
    for i, l, t in T.entries:
        s = sum(a for jj, a in M.row_support(A, i) if jj >= l and jj != i)
        s -= sum(a for jj, a in M.row_support(A, i + 1) if jj > l and jj != i + 1)
        s -= sum(tv for jj, tv in M.row_support(T, i - 1) if jj >= l and jj != i)
        s += sum(tv for jj, tv in M.row_support(T, i) if jj > l and jj != i and jj != i + 1)
        total += t * s
        if l < i + 1:
            total += t * T.entry(i + 1, i + 1)
    for i in range(1, A.n + 1):
        total += j[i - 1] * (T.entry(i - 1, i) - T.entry(i, i))
    return total


def _j_shift_plus(T, j):
    out = list(j)
    for i in range(1, T.n + 1):
        s = sum(tv for l, tv in M.row_support(T, i) if l < i)
        s -= sum(tv for l, tv in M.row_support(T, i - 1) if l < i)
        out[i - 1] += s
    return tuple(out)


def plus_reference(alpha, x):
    """mul_by_semisimple_plus with every T of M.one_layer_ts on the wide
    diagonal enumerated per term and the hand-derived level-free rule
    (Gaussians _coeff_plus, exponent _f_plus, weight shift _j_shift_plus)
    evaluated at the term's own weight j."""
    out = {}
    for (A, j), cf in x.terms.items():
        for T in M.one_layer_ts(M.madd(A, M.diag(alpha[-1:] + alpha[:-1])), alpha):
            coeff = _coeff_plus(A, T)
            if not coeff:
                continue
            label = M.madd(msub(A, M.offdiag(tilde(T))), M.offdiag(T))
            if not M.is_nonneg(label):
                continue
            delta = tuple(T.entry(i, i) for i in range(1, x.n + 1))
            scalar = L.frac_scale(L.vshift(coeff, _f_plus(A, T, j)), cf)
            piece = R.reduce_j_lambda(label, _j_shift_plus(T, j), delta)
            for key, c in piece.terms.items():
                R._vacc(out, key, L.frac_mul(scalar, c))
    return R.VElement(x.n, out)


def plus_from_rows(rows, alpha, x):
    """mul_by_semisimple_plus with rows(alpha, A) of the form (label, coeff,
    jc, shift, delta) in place of R._plus_rows."""
    out = {}
    for (A, j), cf in x.terms.items():
        for label, coeff, jc, shift, delta in rows(tuple(alpha), A):
            scalar = L.frac_scale(L.vshift(coeff, M.dot(j, jc)), cf)
            piece = R.reduce_j_lambda(label, tuple(a + b for a, b in zip(j, shift)), delta)
            for key, c in piece.terms.items():
                R._vacc(out, key, L.frac_mul(scalar, c))
    return R.VElement(x.n, out)


def plus_without_jc(alpha, x):
    """A wrong product: the rows' coefficients without their v^(j.jc)."""

    def rows(alpha, A):
        return [(C, c, (0,) * A.n, s, d) for C, c, _, s, d in wide_rows(alpha, A)]

    return plus_from_rows(rows, alpha, x)


def wide_rows(alpha, A, normalize=True, divide=True):
    """The rows of R._plus_rows rebuilt from S.upper_term on the wide
    diagonal; normalize=False drops the shift d_C - d_wide - d_B, and
    divide=False the division by the Gaussians gauss_sym(nu_i, t_ii)."""
    n = A.n
    w = alpha[-1:] + alpha[:-1]
    wide = M.madd(A, M.diag(w))
    B = M.madd(M.s_alpha(alpha), M.diag(M.ro(A)))
    out = []
    amap = S.entry_map(wide)
    for T in M.one_layer_ts(wide, alpha):
        C, c = S.upper_term(amap, T)
        nu = tuple(C.entry(i, i) for i in range(1, n + 1))
        delta = tuple(T.entry(i, i) for i in range(1, n + 1))
        if divide:
            for x, t in zip(nu, delta):
                c = L.divexact(c, L.gauss_sym(x, t))
        shift = _j_shift_plus(T, (0,) * n)
        expo = -M.dot(nu, shift)
        if normalize:
            expo += M.d_exponent(C) - M.d_exponent(wide) - M.d_exponent(B)
        jc = tuple(a - b for a, b in zip(w, nu))
        out.append((M.offdiag(C), L.vshift(c, expo), jc, shift, delta))
    return out


def exact_terms(x):
    """The terms in order, with each coefficient's num/den representation."""
    return [(key, f.num, f.den) for key, f in x.terms.items()]


def plus_cases():
    """(n, alpha, x) over |alpha| <= 2 and seeded elements of 2-4 symbols
    with weights in -2..2."""
    rng = random.Random(73)
    coeffs = [frac([(0, 1)]), frac([(1, -2)]), frac([(0, 1)], [(0, -1), (2, 1)])]
    for n, max_sigma in ((2, 2), (3, 1), (4, 1)):
        labels = V.mixed_labels(n, max_sigma, n)
        weights = list(itertools.product(range(-2, 3), repeat=n))
        alphas = [a for s in (1, 2) for a in M.compositions(n, s)]
        for _ in range(8):
            items = [
                (rng.choice(labels), rng.choice(weights), rng.choice(coeffs))
                for _ in range(rng.randrange(2, 5))
            ]
            x = velem(n, items)
            for alpha in alphas:
                yield n, alpha, x


def test_plus_product_rows_match_the_per_t_loop():
    for _, alpha, x in plus_cases():
        got = R.mul_by_semisimple_plus(alpha, x)
        assert exact_terms(got) == exact_terms(plus_reference(alpha, x)), (alpha, R.text(x))


@functools.cache
def reference_cases():
    """plus_cases() with the exact terms of plus_reference on each case."""
    return tuple(
        (n, alpha, x, exact_terms(plus_reference(alpha, x))) for n, alpha, x in plus_cases()
    )


def test_plus_product_rows_need_the_weight_term():
    # the same comparison fails for a product that drops j.jc
    failing = {
        n
        for n, alpha, x, want in reference_cases()
        if exact_terms(plus_without_jc(alpha, x)) != want
    }
    assert failing == {2, 3, 4}


@pytest.mark.parametrize(
    "drop, fails",
    [({}, set()), ({"normalize": False}, {2, 3, 4}), ({"divide": False}, {2})],
    ids=["none", "d-exponent", "gauss_sym"],
)
def test_plus_rows_need_both_wide_diagonal_normalizations(drop, fails):
    # the rows read off S.upper_term match the per-T loop; without the
    # d-exponent shift or without the gauss_sym division they fail it (the
    # division is by 1 unless some t_ii > 0 lies under a diagonal entry
    # nu_i > t_ii, which these cases reach only at n = 2)
    def rows(alpha, A):
        return wide_rows(alpha, A, **drop)

    failing = {
        n
        for n, alpha, x, want in reference_cases()
        if exact_terms(plus_from_rows(rows, alpha, x)) != want
    }
    assert failing == fails
