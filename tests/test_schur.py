import doctest
import functools
import itertools
import random

import pytest

from affq import hecke as H
from affq import laurent as L
from affq import matrices as M
from affq import permutations as P
from affq import schur as S
from affq import verify as V


def test_doctests():
    failures, attempted = doctest.testmod(S)
    assert failures == 0 and attempted > 0


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
    schur-oracle grid to alpha_i: it enumerates the T of the label with
    each entry of row i+1 raised to at least alpha_i, and pairs them with
    the original A."""
    for n in (2, 3):
        for r in range(1, 4):
            for A in M.band_matrices(n, r, V._BANDS[n]):
                for B in S.upper_shapes_for(M.ro(A)):
                    alpha, _ = S.upper_shape(B)
                    lifted = A
                    if not capped:
                        lifted = M.pmat(n, [(i, j, max(a, alpha[i - 2])) for i, j, a in A.entries])
                    for T in M.one_layer_ts(lifted, alpha):
                        yield A, T
        if capped:
            yield from wide_cases(n)


def wide_cases(n):
    """(wide, T) for every candidate T of _plus_rows on the wide diagonals
    wide = A + diag(w), w_i = alpha_{i-1}, of the level-free grid of n."""
    for A in V.mixed_labels(n, 2, n):
        for alpha in V._alpha_grid(n, 2):
            wide = M.madd(A, M.diag(alpha[-1:] + alpha[:-1]))
            for T in M.one_layer_ts(wide, alpha):
                yield wide, T


def tilde(A):
    """Row shift: the matrix with entries a_{i-1,j} at position (i, j)."""
    return M.pmat(A.n, [(i + 1, j, a) for i, j, a in A.entries])


def msub(A, B):
    return M.madd(A, M.mscale(-1, B))


def exp_upper_e(A, T):
    """The exponent of the v-power of the term of T, read off sorted rows."""
    total = 0
    for i, l, t in T.entries:
        s = sum(a for j, a in M.row_support(A, i) if j > l)
        s -= sum(tv for j, tv in M.row_support(T, i - 1) if j > l)
        total += t * s
    return 2 * total


def upper_term_reference(A, T):
    """S.upper_term(S.entry_map(A), T) from A.entry and T.entry scans, the
    label built in three steps as madd(msub(A, tilde(T)), T)."""
    coeff = L.one()
    for i, j, t in T.entries:
        coeff = L.mul(coeff, L.gauss_sq(A.entry(i, j) + t - T.entry(i - 1, j), t))
    return M.madd(msub(A, tilde(T)), T), L.vshift(coeff, exp_upper_e(A, T))


def test_upper_term_matches_reference():
    # capped and uncapped, and the n = 4 wide diagonals of level-coherence
    cases = [upper_term_cases(), upper_term_cases(capped=False), wide_cases(4)]
    count = 0
    for A, T in (case for grid in cases for case in grid):
        C, c = S.upper_term(S.entry_map(A), T)
        want_C, want_c = upper_term_reference(A, T)
        assert C == want_C and C.entries == want_C.entries and c == want_c, (A, T)
        count += 1
    assert count == 7060 + 4281 + 14223


def test_upper_terms_need_no_zero_or_sign_guard():
    # the caps t_{i-1,j} <= a_{i,j} keep every label nonnegative and every
    # Gaussian nonzero, so _e_mul_upper and _plus_rows keep every term
    count = 0
    for A, T in upper_term_cases():
        C, c = S.upper_term(S.entry_map(A), T)
        assert M.is_nonneg(C) and c, (A, T)
        count += 1
    assert count == 7060
    # without the caps the same check finds both kinds of bad term
    terms = [S.upper_term(S.entry_map(A), T) for A, T in upper_term_cases(capped=False)]
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


def A_j_lambda_r_reference(A, j, lam, r):
    """A_j_lambda_r with its Gaussian products redone on every call: over
    the compositions mu of r - sigma(A), the coefficient of [A + diag(mu)]
    is v^(mu.j) times each gauss_sym(mu_i, lam_i) with lam_i > 0,
    multiplied in one by one, and a zero product is dropped."""
    n = A.n
    S.check_symbol(n, A, j)
    out = {}
    s = M.sigma(A)
    for mu in M.compositions(n, r - s) if s <= r else ():
        coeff = L.monomial(M.dot(mu, j))
        for mi, li in zip(mu, lam):
            if li:
                coeff = L.mul(coeff, L.gauss_sym(mi, li))
            if not coeff:
                break
        if coeff:
            L.acc(out, M.madd(A, M.diag(mu)), coeff)
    return S.SchurElement(n, r, "n", out)


def test_aj_lambda_matches_the_per_call_gaussian_loop():
    # lam reaches parts above mu, where a Gaussian is zero and the row drops
    zeros = 0
    for n, max_sigma, top in ((2, 2, 3), (3, 1, 2)):
        lams = list(itertools.product(range(top + 1), repeat=n))
        for A in V.mixed_labels(n, max_sigma, 1):
            for lam in lams:
                for r in range(5):
                    for j in V._weight_grid(n):
                        got = S.A_j_lambda_r(A, j, lam, r)
                        want = A_j_lambda_r_reference(A, j, lam, r)
                        assert list(got.terms.items()) == list(want.terms.items())
                    if any(t > m for mu, _, _ in S.diag_fill(A, r) for m, t in zip(mu, lam)):
                        zeros += 1
    assert zeros > 100


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
    return frozenset(H.t_double_coset(lam, win, nu).terms)


def full_group_oracle(B, A):
    """e_B e_A in the whole Hecke algebra: e_A(x_nu) is the double-coset sum
    of (ro(A), d_A, co(A)); apply x_lam T_{d_B}, divide by the entry
    factorials of B, and peel full double-coset sums W_lam d W_nu."""
    r, lam, nu = M.sigma(A), M.ro(B), M.co(A)
    d_A = P.pseudo_matrix_rep(A)
    h = H.h_from_items(r, [(w, L.one()) for w in double_coset_windows(M.ro(A), d_A, nu)])
    g = H.x_mul_left(lam, H.left_mul_basis(P.pseudo_matrix_rep(B), h))
    f = L.one()
    for _, _, b in B.entries:
        f = L.mul(f, L.factorial_sq(b))
    cur = {win: L.divexact(c, f) for win, c in g.terms.items()}
    items = []
    while cur:
        best = min(cur, key=lambda w: (P.length(w), w))
        c = cur[best]
        for win in double_coset_windows(lam, best, nu):
            assert cur.pop(win) == c
        items.append((P.jmath(lam, best, nu), c))
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
    # (2, 1) names the double coset of diag(2, 0), whose one coset window
    # (1, 2) is popped, while (2, 1) itself is left
    stuck = H.h_from_items(2, [((2, 1), {0: 1}), ((1, 2), {0: 1})])
    with pytest.raises(AssertionError, match="support did not shrink during peeling"):
        S._decompose(stuck, (2, 0), (2, 0))


def decompose_by_min(h, lam, nu):
    """The repeated-min peel: on every round, pop the double coset of the
    shortest window left, labelled by P.jmath of that window.  The windows
    of H x_nu in a double coset are those of its members that increase on
    every block of nu."""
    inner = P.inner_positions(nu)
    length = {w: P.length(w) for w in h.terms}
    cur = dict(h.terms)
    out = {}
    while cur:
        best = min(cur, key=lambda w: (length[w], w))
        c = cur[best]
        before = len(cur)
        for win in double_coset_windows(lam, best, nu):
            if all(win[p] < win[p + 1] for p in inner) and cur.pop(win, None) != c:
                raise AssertionError("coefficients differ across a double coset")
        if len(cur) >= before:
            raise AssertionError("support did not shrink during peeling")
        out[P.jmath(lam, best, nu)] = c
    return out


def test_one_pass_peel_matches_the_repeated_min_route(monkeypatch):
    # every oracle product of the schur-oracle grid n = 2, 3 and r <= 3 is
    # peeled both ways, to the same labels and coefficients
    decompose = S._decompose
    peeled = []

    def both(h, lam, nu):
        got = decompose(h, lam, nu)
        assert got == decompose_by_min(h, lam, nu)
        peeled.append(len(got))
        return got

    monkeypatch.setattr(S, "_decompose", both)
    S._oracle_mul.cache_clear()  # so that every product is peeled here
    for n in (2, 3):
        for r in (1, 2, 3):
            assert V._check_schur_oracle(("schur-oracle", n, V._BANDS[n], r))["ok"]
    assert (len(peeled), sum(peeled)) == (4604, 5694)  # products, labels


# ----------------------------------------------------------------------
# the level-shadow table and the bilinear products over cached items


def test_level_shadow_matches_the_per_call_build():
    # the per-call build convert(A_j_r(...), "e") is the reference
    for n in (2, 3):
        for A in V.mixed_labels(n, 2, n):
            for j in V._weight_grid(n):
                for r in range(5):
                    got = S.level_shadow(A, j, r)
                    want = S.convert(S.A_j_r(A, j, r), "e")
                    assert got == want, (A, j, r)
                    assert dict(S._shadow(A, j, r)) == want.terms


def bilinear_reference(mul, x, y):
    """The bilinear product with one element per label pair, every term
    multiplied by the pair's scale."""
    rows = {}
    for A, ca in y.terms.items():
        rows.setdefault(M.ro(A), []).append((A, ca))
    out = {}
    for B, cb in x.terms.items():
        for A, ca in rows.get(M.co(B), ()):
            scale = L.mul(cb, ca)
            for label, c in mul(B, A).terms.items():
                L.acc(out, label, L.mul(c, scale))
    return S.SchurElement(x.n, x.r, x.basis, out)


def test_bilinear_products_match_the_per_pair_reference():
    rng = random.Random(35)
    coeffs = ({0: 1}, {0: 1}, {1: 1}, {-1: 1}, {0: 2, 2: -1})
    units = others = 0
    for n, r in ((2, 2), (2, 3), (3, 2)):
        labels = list(M.band_matrices(n, r, 1))
        for _ in range(6):
            mu = M.ro(rng.choice(labels))
            for basis in ("e", "n"):
                y = elem(n, r, [(A, rng.choice(coeffs)) for A in rng.sample(labels, 4)], basis)
                ups = S.upper_shapes_for(mu)
                lows = lower_shapes_for(mu)
                xu = elem(n, r, [(B, rng.choice(coeffs)) for B in ups[:3]], basis)
                xl = elem(n, r, [(C, rng.choice(coeffs)) for C in lows[:3]], basis)
                for x in (xu, xl):
                    for cb in x.terms.values():
                        for ca in y.terms.values():
                            if L.mul(cb, ca) == L.one():
                                units += 1
                            else:
                                others += 1
                upper, lower = (
                    (S.e_mul_upper, S.e_mul_lower)
                    if basis == "e"
                    else (S.n_mul_upper, S.n_mul_lower)
                )
                assert S.closed_product_upper(xu, y) == bilinear_reference(upper, xu, y)
                assert S.closed_product_lower(xl, y) == bilinear_reference(lower, xl, y)
                if basis == "e":
                    for x in (xu, xl, y):
                        assert S.oracle_product(x, y) == bilinear_reference(S.oracle_mul, x, y)
    assert units > 50 and others > 50


def test_the_oracle_and_the_closed_form_agree_at_level_zero():
    # the group is trivial at level 0, and e_0 is the unit
    for n in (2, 3):
        Z = M.pmat(n, [])
        want = elem(n, 0, [(Z, L.one())])
        assert S.oracle_mul(Z, Z) == S.e_mul_upper(Z, Z) == want
        x = S.convert(S.A_j_r(Z, (0,) * n, 0), "e")
        assert S.oracle_product(x, x) == S.closed_product_upper(x, x) == want
