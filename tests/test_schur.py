import doctest
import functools
import random

import pytest

from affq import hecke as H
from affq import laurent as L
from affq import matrices as M
from affq import permutations as P
from affq import schur as S
from affq import verify as V


def test_doctests():
    failures, _ = doctest.testmod(S)
    assert failures == 0


def v(k, c=1):
    return L.monomial(k, c)


def elem(n, r, items, basis="e"):
    return S.s_from_items(n, r, items, basis)


def test_element_arithmetic_and_validation():
    A = M.diag((1, 1))
    B = M.diag((2, 0))
    x = elem(2, 2, [(A, v(1)), (B, v(0))])
    y = elem(2, 2, [(A, v(1, -1))])
    z = S.s_add(x, y)
    assert z.terms == {B: {0: 1}}
    assert not S.s_add(x, S.s_scale(v(0, -1), x)).terms
    w = S.s_scale(v(2, 3), x)
    assert w.terms[A] == {3: 3}
    with pytest.raises(ValueError):
        S.s_add(x, elem(2, 2, [(A, v(0))], basis="n"))
    with pytest.raises(ValueError):
        elem(2, 3, [(A, v(0))])
    with pytest.raises(ValueError):
        elem(3, 2, [(A, v(0))])
    with pytest.raises(ValueError):
        S.s_zero(2, 2, "x")


def test_basis_conversion_round_trip():
    rng = random.Random(7)
    for n, r in ((2, 3), (3, 3)):
        labels = list(M.band_matrices(n, r, 1))
        for _ in range(20):
            items = []
            for A in rng.sample(labels, min(4, len(labels))):
                items.append((A, {rng.randrange(-3, 4): rng.randrange(1, 5)}))
            x = elem(n, r, items)
            y = S.convert(x, "n")
            assert y.basis == "n"
            assert S.s_eq(S.convert(y, "e"), x)
            assert S.s_eq(S.convert(x, "e"), x)
    # a label with one inversion pair: d_A = 1 shifts the coefficient once
    A = M.pmat(2, [(1, 2, 1), (2, 1, 1)])
    x = S.basis_element(A)
    assert S.convert(x, "n").terms[A] == {M.d_exponent(A): 1}


def test_identity_element_is_unit():
    for n, r in ((2, 2), (2, 3), (3, 2)):
        one = elem(n, r, [(M.diag(mu), L.one()) for mu in M.compositions(n, r)])
        for A in M.band_matrices(n, r, 1):
            x = S.basis_element(A)
            assert S.s_eq(S.oracle_product(one, x), x)
            assert S.s_eq(S.oracle_product(x, one), x)


def test_diagonal_products_are_idempotent_rules():
    # e_X e_diag(nu) keeps X iff co(X) = nu; e_diag(mu) e_X iff ro(X) = mu
    for r in (2, 3):
        for A in M.band_matrices(2, r, 2):
            for mu in M.compositions(2, r):
                d = M.diag(mu)
                left = S.oracle_mul(d, A)
                if M.ro(A) == mu:
                    assert S.s_eq(left, S.basis_element(A))
                else:
                    assert not left.terms
                right = S.oracle_mul(A, d)
                if M.co(A) == mu:
                    assert S.s_eq(right, S.basis_element(A))
                else:
                    assert not right.terms


def test_frozen_upper_product():
    B = M.madd(M.e_unit(1, 2, 2), M.diag((1, 0)))
    A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    expect = elem(2, 2, [(M.diag((2, 0)), L.poly({0: 1, 2: 1}))])
    assert S.s_eq(S.e_mul_upper(B, A), expect)
    assert S.s_eq(S.oracle_mul(B, A), expect)


def test_frozen_lower_product():
    C = M.madd(M.e_unit(2, 1, 2), M.diag((0, 1)))
    A = M.madd(M.e_unit(1, 2, 2), M.diag((0, 1)))
    expect = elem(2, 2, [(M.diag((0, 2)), L.poly({0: 1, 2: 1}))])
    assert S.s_eq(S.e_mul_lower(C, A), expect)
    assert S.s_eq(S.oracle_mul(C, A), expect)


def test_shape_validation_and_mismatch():
    A = M.diag((1, 1))
    bad = M.madd(M.e_unit(2, 1, 2), M.diag((0, 1)))
    with pytest.raises(ValueError):
        S.e_mul_upper(bad, A)
    with pytest.raises(ValueError):
        S.e_mul_lower(M.madd(M.e_unit(1, 2, 2), M.diag((1, 0))), A)
    # mismatched column/row compositions give the zero element, not an error
    B = M.madd(M.e_unit(1, 2, 2), M.diag((0, 1)))
    assert M.co(B) != M.ro(A)
    assert not S.e_mul_upper(B, A).terms
    assert not S.oracle_mul(B, A).terms
    with pytest.raises(ValueError):
        S.oracle_mul(M.diag((1,)), A)
    with pytest.raises(ValueError):
        S.oracle_mul(M.diag((2, 1)), A)


def test_closed_products_reject_a_left_label_that_meets_no_right_label():
    # co(B) = (1, 1) meets no row sum of y, so no label pair is multiplied
    y = elem(2, 2, [(M.diag((2, 0)), L.one())])
    for product, bad in (
        (S.closed_product_upper, M.pmat(2, [(1, 3, 1), (2, 2, 1)])),
        (S.closed_product_lower, M.pmat(2, [(3, 1, 1), (2, 2, 1)])),
    ):
        assert M.co(bad) == (1, 1)
        with pytest.raises(ValueError, match="one-layer shape"):
            product(elem(2, 2, [(bad, L.one())]), y)


def lower_shapes_for(mu):
    """All subdiagonal-plus-diagonal labels C with co(C) = mu: the former
    left factors of the lower schur-oracle checks, kept as the reference
    of their negation mirrors."""
    n = len(mu)
    out = []
    for gamma in M.compositions_bounded(tuple(mu)):
        beta = tuple(mu[i] - gamma[i] for i in range(n))
        out.append(M.madd(M.t_s_alpha(gamma), M.diag(beta)))
    return out


def test_mirrored_pairs_are_the_lower_pairs():
    # schur-oracle checks the mirror (negate B, negate A) of each upper pair
    # (B, A) in place of the lower pairs (C, A), C in lower_shapes_for(ro(A))
    counts = {2: (20, 190, 1180, 5525), 3: (18, 162, 984, 4581)}
    for n, want in counts.items():
        for r in range(1, 5):
            labels = list(M.band_matrices(n, r, V._BANDS[n]))
            lower = [(C, A) for A in labels for C in lower_shapes_for(M.ro(A))]
            mirrored = [
                (M.negate(B), M.negate(A)) for A in labels for B in S.upper_shapes_for(M.ro(A))
            ]
            assert len(lower) == len(set(lower)) == want[r - 1]
            assert len(mirrored) == len(set(mirrored)) == want[r - 1]
            assert set(mirrored) == set(lower)


def test_closed_forms_match_oracle_sweep():
    for n, band in ((2, 2), (3, 1)):
        for r in (1, 2, 3):
            for A in M.band_matrices(n, r, band):
                mu = M.ro(A)
                for B in S.upper_shapes_for(mu):
                    assert S.s_eq(S.e_mul_upper(B, A), S.oracle_mul(B, A))
                for C in lower_shapes_for(mu):
                    assert S.s_eq(S.e_mul_lower(C, A), S.oracle_mul(C, A))


def upper_term_cases(capped=True):
    """(A, T) for every candidate T of _e_mul_upper on the schur-oracle grid
    (band matrices A of size <= 3, every upper_shapes_for factor of ro(A))
    and of _plus_rows on the wide diagonals A + diag(w), w_i = alpha_{i-1},
    of the level-free grid.  capped=False lifts every cell cap of the
    schur-oracle grid to alpha_i."""
    for n in (2, 3):
        for r in range(1, 4):
            for A in M.band_matrices(n, r, V._BANDS[n]):
                for B in S.upper_shapes_for(M.ro(A)):
                    alpha, _ = S.upper_shape(B)
                    cells = [
                        [(j, a if capped else alpha[i - 1]) for j, a in M.row_support(A, i + 1)]
                        for i in range(1, n + 1)
                    ]
                    for T in M.capped_row_matrices(alpha, cells):
                        yield A, T
        if not capped:
            continue
        for A in V.mixed_labels(n, 2, n):
            for alpha in V._alpha_grid(n, 2):
                wide = M.madd(A, M.diag(alpha[-1:] + alpha[:-1]))
                for T in M.capped_row_matrices(alpha, M.one_layer_cells(A, alpha)):
                    yield wide, T


def test_upper_terms_need_no_zero_or_sign_guard():
    # the caps t_{i-1,j} <= a_{i,j} keep every label nonnegative and every
    # Gaussian nonzero, so _e_mul_upper and _plus_rows keep every term
    count = 0
    for A, T in upper_term_cases():
        C, c = S.upper_term(A, T)
        assert M.is_nonneg(C) and c, (A, T)
        count += 1
    assert count == 7060
    # without the caps the same check finds both kinds of bad term
    terms = [S.upper_term(A, T) for A, T in upper_term_cases(capped=False)]
    assert any(not M.is_nonneg(C) for C, _ in terms)
    assert any(not c for _, c in terms)


def test_normalized_rules_match_converted_standard_rules():
    for n, band in ((2, 2), (3, 1)):
        for r in (1, 2, 3):
            for A in M.band_matrices(n, r, band):
                mu = M.ro(A)
                for B in S.upper_shapes_for(mu):
                    lhs = S.n_mul_upper(B, A)
                    rhs = S.convert(S.e_mul_upper(B, A), "n")
                    # e_B e_A in e-basis equals v^(d_B + d_A) [B][A]
                    shift = M.d_exponent(B) + M.d_exponent(A)
                    rhs = S.s_scale(v(-shift), rhs)
                    assert S.s_eq(lhs, rhs)
                for C in lower_shapes_for(mu):
                    lhs = S.n_mul_lower(C, A)
                    rhs = S.convert(S.e_mul_lower(C, A), "n")
                    shift = M.d_exponent(C) + M.d_exponent(A)
                    rhs = S.s_scale(v(-shift), rhs)
                    assert S.s_eq(lhs, rhs)


def test_row_column_bookkeeping():
    # every label in e_B e_A has row composition ro(B) and column co(A)
    for r in (2, 3):
        for A in M.band_matrices(2, r, 2):
            for B in S.upper_shapes_for(M.ro(A)):
                prod = S.e_mul_upper(B, A)
                for D in prod.terms:
                    assert M.ro(D) == M.ro(B)
                    assert M.co(D) == M.co(A)
                    assert M.is_nonneg(D)


def test_oracle_associativity_random_triples():
    rng = random.Random(31)
    for r in (2, 3):
        labels = list(M.band_matrices(2, r, 2))
        by_ro = {}
        for A in labels:
            by_ro.setdefault(M.ro(A), []).append(A)
        for _ in range(30):
            A = rng.choice(labels)
            B = rng.choice(by_ro.get(M.co(A), [])) if M.co(A) in by_ro else None
            C = rng.choice(by_ro.get(M.co(B), [])) if B is not None else None
            if B is None or C is None:
                continue
            ab = S.oracle_mul(A, B)
            bc = S.oracle_mul(B, C)
            lhs = S.oracle_product(ab, S.basis_element(C))
            rhs = S.oracle_product(S.basis_element(A), bc)
            assert S.s_eq(lhs, rhs)


def transpose_element(x):
    """Apply the transpose anti-automorphism label by label."""
    items = [(M.transpose(label), c) for label, c in x.terms.items()]
    return S.s_from_items(x.n, x.r, items, x.basis)


def test_transpose_mirror_of_lower_products():
    # the transpose anti-automorphism carries e_C e_A to e_tA e_tC
    for r in (2, 3):
        for A in M.band_matrices(2, r, 2):
            for C in lower_shapes_for(M.ro(A)):
                lhs = S.e_mul_lower(C, A)
                rhs = transpose_element(
                    S.oracle_mul(M.transpose(A), M.transpose(C))
                )
                assert S.s_eq(lhs, rhs)


def test_negation_automorphism_against_oracle():
    # oracle_mul(-B, -A) = -oracle_mul(B, A) label-wise, on general label
    # pairs: the symmetry from which the lower closed forms are derived,
    # checked on the Hecke route alone.
    checked = 0
    for n, levels in ((2, (1, 2, 3)), (3, (2,))):
        for r in levels:
            labels = list(M.band_matrices(n, r, 1))
            for B in labels:
                for A in labels:
                    if M.co(B) != M.ro(A):
                        continue
                    lhs = S.oracle_mul(M.negate(B), M.negate(A))
                    rhs = S.negate_element(S.oracle_mul(B, A))
                    assert S.s_eq(lhs, rhs)
                    checked += 1
    assert checked == 1370


def test_aj_frozen_example():
    zero_label = M.pmat(2, [])
    x = S.A_j_r(zero_label, (1, 0), 2)
    expect = elem(
        2,
        2,
        [
            (M.diag((2, 0)), v(2)),
            (M.diag((1, 1)), v(1)),
            (M.diag((0, 2)), v(0)),
        ],
        basis="n",
    )
    assert S.s_eq(x, expect)
    # weight zero gives the identity in the normalized basis
    one = elem(2, 3, [(M.diag(mu), L.one()) for mu in M.compositions(2, 3)], "n")
    assert S.s_eq(S.A_j_r(zero_label, (0, 0), 3), one)


def test_aj_level_overflow_and_validation():
    A = M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2))
    assert not S.A_j_r(A, (0, 0), 1).terms
    assert len(S.A_j_r(A, (0, 0), 2).terms) == 1
    with pytest.raises(ValueError):
        S.A_j_r(M.diag((1, 0)), (0, 0), 2)
    with pytest.raises(ValueError):
        S.A_j_r(M.pmat(2, []), (0, 0, 0), 2)


def test_aj_lambda_reduces_to_aj():
    zero_label = M.pmat(2, [])
    E = M.e_unit(1, 2, 2)
    for A in (zero_label, E):
        for j in ((0, 0), (1, 0), (2, -1)):
            for r in (1, 2, 3):
                assert S.s_eq(
                    S.A_j_lambda_r(A, j, (0, 0), r), S.A_j_r(A, j, r)
                )


def test_aj_lambda_frozen_small():
    # lam = (1, 0): coefficient of [diag(mu)] is v^(mu.j) [mu_1 over 1]
    x = S.A_j_lambda_r(M.pmat(2, []), (0, 0), (1, 0), 2)
    sym1 = L.gauss_sym(1, 1)
    sym2 = L.gauss_sym(2, 1)
    expect = elem(
        2,
        2,
        [(M.diag((2, 0)), sym2), (M.diag((1, 1)), sym1)],
        basis="n",
    )
    assert S.s_eq(x, expect)


def test_json_round_trip_and_determinism():
    B = M.madd(M.e_unit(1, 2, 2), M.diag((1, 0)))
    A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    x = S.oracle_mul(B, A)
    obj = S.to_json(x)
    assert obj == S.to_json(S.from_json(obj))
    assert S.s_eq(S.from_json(obj), x)
    y = S.A_j_r(M.pmat(2, []), (1, 0), 2)
    assert S.to_json(y)["basis"] == "n"
    assert S.s_eq(S.from_json(S.to_json(y)), y)


@pytest.mark.parametrize(
    "patch",
    [{"n": 2.0}, {"r": True}, {"r": "1"}, {"basis": "zz"}],
    ids=["float-n", "bool-r", "string-r", "unknown-basis"],
)
def test_from_json_is_strict(patch):
    obj = S.to_json(S.basis_element(M.diag((1, 0))))
    S.from_json(obj)
    obj.update(patch)
    with pytest.raises(ValueError):
        S.from_json(obj)


@functools.lru_cache(maxsize=None)
def double_coset_windows(lam, win, nu):
    return frozenset(H.t_double_coset(lam, P.AffinePermutation(len(win), win), nu).terms)


def full_group_oracle(B, A):
    """e_B e_A in the whole Hecke algebra: e_A(x_nu) is the double-coset sum
    of (ro(A), d_A, co(A)); apply x_lam T_{d_B}, divide by the entry
    factorials of B, and peel full double-coset sums W_lam d W_nu."""
    r, lam, nu = M.sigma(A), M.ro(B), M.co(A)
    d_A = P.pseudo_matrix_rep(A).window
    h = H.h_from_items(r, [(w, L.one()) for w in double_coset_windows(M.ro(A), d_A, nu)])
    g = H.x_mul_left(lam, H.left_mul_basis(P.pseudo_matrix_rep(B), h))
    f = L.one()
    for _, _, b in B.entries:
        f = L.mul(f, L.factorial_sq(b))
    cur = {win: L.divexact(c, f) for win, c in g.terms.items()}
    items = []
    while cur:
        best = min(cur, key=lambda w: (P.length(P.AffinePermutation(r, w)), w))
        d = P.AffinePermutation(r, best)
        c = cur[best]
        for win in double_coset_windows(lam, best, nu):
            assert cur.pop(win) == c
        items.append((P.jmath(lam, d, nu), c))
    return S.s_from_items(A.n, r, items)


def test_module_oracle_matches_full_group_route():
    checked = 0
    for r in (1, 2, 3):
        labels = list(M.band_matrices(2, r, 2))
        for B in labels:
            for A in labels:
                if M.co(B) == M.ro(A):
                    assert S.s_eq(S.oracle_mul(B, A), full_group_oracle(B, A))
                    checked += 1
    assert checked == 14825


def test_peel_invariant_failures_are_internal_errors():
    # T_{s_1} x_nu is not a module element for nu = (2, 0): its window is
    # not the shortest in its coset, so the double coset of (2, 1) has the
    # member (1, 2), already peeled
    bad = H.h_from_items(2, [((1, 2), {0: 2}), ((2, 1), {0: 1})])
    with pytest.raises(AssertionError, match="coefficients differ across a double coset"):
        S._decompose(bad, (2, 0), (2, 0))
    # x_nu itself is the single double coset W_lam W_nu, of label diag(2, 0)
    x_nu = H.h_from_items(2, [((1, 2), {0: 1})])
    assert S._decompose(x_nu, (2, 0), (2, 0)) == {M.diag((2, 0)): {0: 1}}
    # a double coset with a missing member
    part = H.h_from_items(2, [((0, 3), {0: 1})])
    with pytest.raises(AssertionError, match="coefficients differ across a double coset"):
        S._decompose(part, (2, 0), (1, 1))
