import doctest
import itertools
import random

import pytest

from affq import hall as Ha
from affq import laurent as L
from affq import matrices as M
from affq import realization as R
from affq import schur as S
from test_schur import exp_upper_e, msub, tilde


def test_doctests():
    failures, attempted = doctest.testmod(Ha)
    assert failures == 0 and attempted > 0


def qp(items):
    return L.poly(items)


def dual_label(A):
    """Label of the dual module under the arrow-reversing vertex flip.

    Segments map by (i, j) -> (1 - j, 1 - i); this is an involution on
    the strictly upper labels and satisfies
    phi^C_{A,B} = phi^{dual C}_{dual B, dual A}.
    """
    Ha.check_label(A)
    return M.pmat(A.n, [(1 - j, 1 - i, a) for i, j, a in A.entries])


def intertwiner_matrix(repA, repB):
    """Linear system for maps phi_v: A_v -> B_v with X^B phi = phi X^A."""
    n = repA.n
    offs, total = [], 0
    for v in range(n):
        offs.append(total)
        total += repB.dims[v] * repA.dims[v]
    rows = []
    for v in range(n):
        w = (v + 1) % n
        XA, XB = repA.maps[v], repB.maps[v]
        for r in range(repB.dims[w]):
            for c in range(repA.dims[v]):
                row = [0] * total
                # (phi_w X^A)_{r,c} = sum_a phi_w[r][a] XA[a][c]
                for a in range(repA.dims[w]):
                    row[offs[w] + r * repA.dims[w] + a] += XA[a][c]
                # (X^B phi_v)_{r,c} = sum_b XB[r][b] phi_v[b][c]
                for b in range(repB.dims[v]):
                    row[offs[v] + b * repA.dims[v] + c] -= XB[r][b]
                if any(row):
                    rows.append(row)
    return rows, total


def dim_end_mod(A, p):
    """dim End(M(A)) as the nullity of the intertwiner system over F_p."""
    rep = Ha.concrete_rep(A, p)
    rows, total = intertwiner_matrix(rep, rep)
    return total - Ha._rank([[x % p for x in r] for r in rows], p)


def test_euler_form_values_and_bilinearity():
    assert Ha.euler_form((1, 0), (1, 0)) == 1
    assert Ha.euler_form((1, 0), (0, 1)) == -1
    assert Ha.euler_form((1, 0, 0), (0, 1, 0)) == -1
    assert Ha.euler_form((0, 0, 1), (1, 0, 0)) == -1
    rng = random.Random(11)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        a, b, c = (tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(3))
        s = tuple(x + y for x, y in zip(b, c))
        assert Ha.euler_form(a, s) == Ha.euler_form(a, b) + Ha.euler_form(a, c)
        assert Ha.euler_form(s, a) == Ha.euler_form(b, a) + Ha.euler_form(c, a)
    with pytest.raises(ValueError):
        Ha.euler_form((1, 0), (1, 0, 0))


def test_segments_and_dimension_data():
    A = M.pmat(3, [(1, 2, 2), (2, 5, 1)])
    assert Ha.segments(A) == [(1, 1), (1, 1), (2, 3)]
    assert Ha.dim_vector(A) == (3, 1, 1)
    assert Ha.dim_rep(A) == 5
    with pytest.raises(ValueError):
        Ha.segments(M.diag((1, 0)))
    with pytest.raises(ValueError):
        Ha.segments(M.pmat(2, [(2, 1, 1)]))


def test_dual_label_is_an_involution():
    for n in (2, 3):
        for A in Ha.enumerate_labels(n, 3, 4):
            D = dual_label(A)
            assert M.is_strictly_upper(D)
            assert dual_label(D) == A
            assert Ha.dim_rep(D) == Ha.dim_rep(A)
    # the dual of a simple is the simple at the flipped vertex
    assert sorted(dual_label(M.pmat(2, [(2, 4, 1)])).entries) == [(1, 3, 1)]
    assert sorted(dual_label(M.e_unit(1, 2, 2)).entries) == [(1, 2, 1)]
    assert sorted(dual_label(M.e_unit(1, 2, 3)).entries) == [(2, 3, 1)]


def test_label_recovery_round_trip():
    for n in (2, 3):
        for A in Ha.enumerate_labels(n, 3, 5):
            rep = Ha.concrete_rep(A, 2)
            assert Ha.label_of_rep(rep) == A


def test_subspace_counts():
    assert sum(1 for _ in Ha.subspaces(3, 2)) == 16
    assert sum(1 for _ in Ha.subspaces(2, 3)) == 6
    assert sum(1 for _ in Ha.subspaces(0, 2)) == 1


def test_dim_end_frozen_and_field_independence():
    assert Ha.dim_end(M.e_unit(2, 3, 2)) == 1
    assert Ha.dim_end(M.e_unit(1, 2, 3)) == 1
    assert Ha.dim_end(M.mscale(2, M.e_unit(1, 2, 2))) == 4
    assert Ha.dim_end(M.e_unit(1, 3, 2)) == 1
    # a length-2 segment for n=3 has no self-overlap either
    assert Ha.dim_end(M.e_unit(1, 3, 3)) == 1
    # S_1 + M^{1,3} for n=2: hom both ways through the top
    assert Ha.dim_end(M.pmat(2, [(1, 2, 1), (1, 3, 1)])) == 3
    for n in (2, 3, 4):
        for A in Ha.enumerate_labels(n, 4, 6):
            assert Ha.dim_end(A) == dim_end_mod(A, 2) == dim_end_mod(A, 3)


def test_u_tilde_factor():
    # u~_A = v^tilde_exponent(A) u_A
    assert Ha.tilde_exponent(M.e_unit(1, 2, 2)) == 0
    assert Ha.tilde_exponent(M.mscale(2, M.e_unit(1, 2, 2))) == 2
    assert Ha.tilde_exponent(M.e_unit(1, 3, 2)) == -1


def test_brute_hall_numbers_frozen():
    E = M.e_unit(1, 2, 2)
    two_E = M.mscale(2, E)
    assert Ha.brute_hall_number(E, E, two_E, 2) == 3
    assert Ha.brute_hall_number(E, E, two_E, 3) == 4
    S2 = M.e_unit(2, 3, 2)
    seg = M.e_unit(2, 4, 2)
    assert Ha.brute_hall_number(S2, E, seg, 2) == 1
    assert Ha.brute_hall_number(S2, E, seg, 3) == 1
    split_sum = M.madd(E, S2)
    assert Ha.brute_hall_number(S2, E, split_sum, 2) == 1
    assert Ha.brute_hall_number(S2, E, split_sum, 3) == 1
    # the mirrored factorization of the same middle term
    assert Ha.brute_hall_number(E, S2, seg, 2) == 0
    assert Ha.brute_hall_number(E, S2, split_sum, 2) == 1
    # dimension mismatch short-circuits to zero
    assert Ha.brute_hall_number(E, E, E, 2) == 0


def test_brute_hall_validation():
    E = M.e_unit(1, 2, 2)
    with pytest.raises(ValueError):
        Ha.brute_hall_number(E, E, M.mscale(2, E), 5)
    with pytest.raises(ValueError):
        Ha.submodule_census(M.mscale(6, E), 2)
    with pytest.raises(ValueError):
        Ha.brute_hall_number(M.diag((1, 1)), E, E, 2)


def _reduce_with_coords(basis, pivots, w, q):
    """w less the basis multiples at its pivot coordinates, and those
    multiples (the coordinates of w when it lies in the span)."""
    w = list(w)
    coords = []
    for row, p in zip(basis, pivots):
        c = w[p] % q
        coords.append(c)
        if c:
            w = [(x - c * y) % q for x, y in zip(w, row)]
    return tuple(w), tuple(coords)


def sub_quot_labels(rep, bases):
    """Labels of the subrepresentation spanned by bases and of its quotient,
    through explicit representations; None if the span is not arrow-stable.

    bases[v] = (rref rows, pivots) per vertex.
    """
    n, q = rep.n, rep.q
    sub_dims = [len(rows) for rows, _ in bases]
    quot_dims = [d - k for d, k in zip(rep.dims, sub_dims)]
    nonpiv = [[c for c in range(d) if c not in piv] for d, (_, piv) in zip(rep.dims, bases)]
    sub_maps, quot_maps = [], []
    for v in range(n):
        w = (v + 1) % n
        rows, _ = bases[v]
        trows, tpivots = bases[w]
        smap = [[0] * sub_dims[v] for _ in range(sub_dims[w])]
        for col, b in enumerate(rows):
            img = Ha._mat_vec(rep.maps[v], b, q)
            resid, coords = _reduce_with_coords(trows, tpivots, img, q)
            if any(resid):
                return None
            for r, c in enumerate(coords):
                smap[r][col] = c
        qmap = [[0] * quot_dims[v] for _ in range(quot_dims[w])]
        for col, src in enumerate(nonpiv[v]):
            e = [int(c == src) for c in range(rep.dims[v])]
            img = Ha._mat_vec(rep.maps[v], e, q)
            resid, _ = _reduce_with_coords(trows, tpivots, img, q)
            for r, c in enumerate(nonpiv[w]):
                qmap[r][col] = resid[c]
        sub_maps.append(tuple(tuple(r) for r in smap))
        quot_maps.append(tuple(tuple(r) for r in qmap))
    sub = Ha.ConcreteRep(q, n, tuple(sub_dims), tuple(sub_maps))
    quot = Ha.ConcreteRep(q, n, tuple(quot_dims), tuple(quot_maps))
    return Ha.label_of_rep(sub), Ha.label_of_rep(quot)


def census_by_representations(C, q):
    """The census through a sub- and a quotient representation per
    arrow-stable tuple of subspaces: the reference for the rank tables."""
    rep = Ha.concrete_rep(C, q)
    out = {}
    for bases in itertools.product(*(list(Ha.subspaces(d, q)) for d in rep.dims)):
        pair = sub_quot_labels(rep, bases)
        if pair is not None:
            out[pair] = out.get(pair, 0) + 1
    return out


def test_census_matches_the_representation_route():
    labels = [C for n in (2, 3) for C in Ha.enumerate_labels(n, 4, 4)]
    assert len(labels) == 124
    for C in labels:
        for q in (2, 3):
            assert Ha.submodule_census(C, q) == census_by_representations(C, q), (C, q)


def gaussian_binomial(d, k, q):
    num = den = 1
    for j in range(k):
        num *= q ** (d - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def test_semisimple_census_counts_every_subspace_tuple():
    # every tuple of subspaces is a submodule of S_alpha: N = S_k with
    # quotient S_(alpha - k) in prod_i [alpha_i choose k_i]_q ways
    assert sum(Ha.submodule_census(M.s_alpha((2, 1)), 2).values()) == 10
    for n in (2, 3):
        for alpha in [a for s in range(1, 6) for a in M.compositions(n, s)]:
            for q in (2, 3):
                census = Ha.submodule_census(M.s_alpha(alpha), q)
                total = 1
                for a in alpha:
                    total *= sum(gaussian_binomial(a, k, q) for k in range(a + 1))
                assert sum(census.values()) == total, (alpha, q)
                for k in itertools.product(*(range(a + 1) for a in alpha)):
                    rest = tuple(a - b for a, b in zip(alpha, k))
                    count = 1
                    for a, b in zip(alpha, k):
                        count *= gaussian_binomial(a, b, q)
                    assert census[M.s_alpha(k), M.s_alpha(rest)] == count


def test_census_rejects_pairs_that_miss_the_dimension_vector(monkeypatch):
    monkeypatch.setattr(Ha, "dim_vector", lambda A: (0,) * A.n)
    with pytest.raises(AssertionError, match="do not add up"):
        Ha._census.__wrapped__(M.mscale(2, M.e_unit(1, 2, 2)), 2)


def test_census_is_read_only():
    E = M.e_unit(1, 2, 2)
    C = M.mscale(2, E)
    before = [Ha.brute_hall_number(A, B, C, 2) for A, B in ((E, E), (C, M.pmat(2, [])))]
    census = Ha.submodule_census(C, 2)
    with pytest.raises(TypeError):
        census[(E, E)] = 0
    assert Ha.submodule_census(C, 2) is census
    after = [Ha.brute_hall_number(A, B, C, 2) for A, B in ((E, E), (C, M.pmat(2, [])))]
    assert after == before == [3, 1]


def test_semisimple_product_frozen():
    E = M.e_unit(1, 2, 2)
    assert Ha.semisimple_hall_product((1, 0), E) == {M.mscale(2, E): qp({0: 1, 1: 1})}
    expected = {
        M.madd(E, M.e_unit(2, 3, 2)): qp({0: 1}),
        M.e_unit(2, 4, 2): qp({0: 1}),
    }
    assert Ha.semisimple_hall_product((0, 1), E) == expected
    assert Ha.semisimple_hall_product((0, 0), E) == {E: qp({0: 1})}
    with pytest.raises(ValueError):
        Ha.semisimple_hall_product((1,), E)
    with pytest.raises(ValueError):
        Ha.semisimple_hall_product((-1, 0), E)


def hall_per_t(alpha, A):
    """The per-T closed form, the oracle of the Schur route: its own loop
    over the T matrices of M.one_layer_ts on the wide diagonal
    A + diag(w), w_i = alpha_{i-1}, at the labels A - split(tilde T)[0] + T."""
    out = {}
    for T in M.one_layer_ts(M.madd(A, M.diag(alpha[-1:] + alpha[:-1])), alpha):
        coeff = L.one()
        for i, j, t in T.entries:
            coeff = L.mul(coeff, L.gauss_sq(A.entry(i, j) + t - T.entry(i - 1, j), t))
            if not coeff:
                break
        if not coeff:
            continue
        label = M.madd(msub(A, M.split(tilde(T))[0]), T)
        if M.is_nonneg(label):
            L.acc(out, label, L.vshift(coeff, exp_upper_e(A, T)))
    return {C: {e // 2: c for e, c in f.items()} for C, f in out.items()}


def hall_via_schur(alpha, A, w):
    """The off-diagonal part of e_B e_{A + diag(w)}, B = S_alpha + diag(beta)
    with co(B) = ro(A + diag(w)); None when beta is negative."""
    wide = M.madd(A, M.diag(w))
    beta = [r - a for r, a in zip(M.ro(wide), alpha[-1:] + alpha[:-1])]
    if min(beta) < 0:
        return None
    out = {}
    for C, c in S.e_mul_upper(M.madd(M.s_alpha(alpha), M.diag(beta)), wide).terms.items():
        L.acc(out, M.offdiag(C), c)
    return {C: {e // 2: c for e, c in f.items()} for C, f in out.items()}


def _hall_grid():
    for n, max_sigma, max_dim in ((2, 3, 5), (3, 3, 5), (4, 2, 4)):
        labels = Ha.enumerate_labels(n, max_sigma, max_dim)
        for alpha in [a for s in (0, 1, 2) for a in M.compositions(n, s)]:
            for A in labels:
                yield alpha, A


def test_semisimple_product_matches_the_per_t_loop():
    pairs = 0
    for alpha, A in _hall_grid():
        assert Ha.semisimple_hall_product(alpha, A) == hall_per_t(alpha, A), (alpha, A)
        pairs += 1
    assert pairs == 2645


def test_semisimple_product_needs_a_wide_enough_diagonal():
    differ = 0
    for alpha, A in _hall_grid():
        shifted = alpha[-1:] + alpha[:-1]
        wider = hall_via_schur(alpha, A, [a + 2 for a in shifted])
        assert wider == Ha.semisimple_hall_product(alpha, A), (alpha, A)
        narrow = hall_via_schur(alpha, A, [a // 2 for a in shifted])
        if narrow is not None and narrow != wider:
            differ += 1
    assert differ > 0


def test_dimension_vector_conservation():
    for n in (2, 3):
        for alpha in [a for s in (1, 2) for a in M.compositions(n, s)]:
            da = Ha.dim_vector(M.s_alpha(alpha))
            for A in Ha.enumerate_labels(n, 2, 4):
                target = tuple(x + y for x, y in zip(da, Ha.dim_vector(A)))
                for C in Ha.semisimple_hall_product(alpha, A):
                    assert Ha.dim_vector(C) == target
                for C in twisted(alpha, A):
                    assert Ha.dim_vector(C) == target


def test_closed_form_matches_brute_subgrid():
    # module-scale slice; the full grid runs in the acceptance suite
    for n in (2, 3):
        for alpha in [a for s in (1, 2) for a in M.compositions(n, s)]:
            Sa = M.s_alpha(alpha)
            da = Ha.dim_vector(Sa)
            for A in Ha.enumerate_labels(n, 2, 4 - sum(alpha) // 2):
                if Ha.dim_rep(A) + sum(alpha) > 4:
                    continue
                prod = Ha.semisimple_hall_product(alpha, A)
                dC = tuple(x + y for x, y in zip(da, Ha.dim_vector(A)))
                cands = [
                    C
                    for C in Ha.enumerate_labels(n, sum(dC), sum(dC))
                    if Ha.dim_vector(C) == dC
                ]
                for q in (2, 3):
                    for C in cands:
                        expect = Ha.qp_eval(prod.get(C, {}), q)
                        assert expect == Ha.brute_hall_number(Sa, A, C, q)


def twisted(alpha, A):
    """u~_alpha u~_A as {C: Laurent dict}: the plus product on A(0), whose
    every term must keep the weight 0."""
    zero = (0,) * A.n
    out = {}
    for (C, j), f in R.mul_by_semisimple_plus(alpha, R.v_basis(A.n, A, zero)).terms.items():
        assert j == zero, (alpha, A, C, j)
        out[C] = L.frac_to_laurent(f)
    return out


def test_twisted_routes_agree_subgrid():
    for n in (2, 3):
        for alpha in [a for s in (0, 1, 2) for a in M.compositions(n, s)]:
            for A in Ha.enumerate_labels(n, 2, 4):
                assert twisted(alpha, A) == Ha.twisted_route_b(alpha, A)


def test_twisted_frozen_example():
    E = M.e_unit(1, 2, 2)
    assert twisted((1, 0), E) == {M.mscale(2, E): {1: 1, -1: 1}}


def test_duality_mirror_against_brute():
    # phi^C_{A, S_beta} = phi^{dual C}_{dual S_beta, dual A}
    for n in (2, 3):
        for beta in [b for s in (1, 2) for b in M.compositions(n, s)]:
            Sb = M.s_alpha(beta)
            beta_dual = [0] * n
            for i, j, a in dual_label(Sb).entries:
                assert j == i + 1
                beta_dual[i - 1] = a
            for A in Ha.enumerate_labels(n, 2, 4 - sum(beta)):
                mirror = Ha.semisimple_hall_product(tuple(beta_dual), dual_label(A))
                dC = tuple(
                    x + y for x, y in zip(Ha.dim_vector(Sb), Ha.dim_vector(A))
                )
                cands = [
                    C
                    for C in Ha.enumerate_labels(n, sum(dC), sum(dC))
                    if Ha.dim_vector(C) == dC
                ]
                for q in (2, 3):
                    for C in cands:
                        got = Ha.brute_hall_number(A, Sb, C, q)
                        exp = Ha.qp_eval(mirror.get(dual_label(C), {}), q)
                        assert got == exp


def _scale_product(prod, poly):
    out = {k: L.mul(poly, f) for k, f in prod.items()}
    return {k: f for k, f in out.items() if f}


def _add_products(a, b):
    out = dict(a)
    for k, f in b.items():
        out[k] = L.add(out.get(k, {}), f)
    return {k: f for k, f in out.items() if f}


def _semisimple_weights(label):
    al = [0] * label.n
    for i, j, a in label.entries:
        if j != i + 1:
            return None
        al[i - 1] = a
    return tuple(al)


def test_restricted_associativity():
    for n in (2, 3):
        vecs = [a for s in (1, 2) for a in M.compositions(n, s)]
        for alpha in vecs:
            for beta in vecs:
                head = Ha.semisimple_hall_product(alpha, M.s_alpha(beta))
                gammas = {D: _semisimple_weights(D) for D in head}
                if any(g is None for g in gammas.values()):
                    continue
                for A in Ha.enumerate_labels(n, 2, 3):
                    lhs = {}
                    for D, c in head.items():
                        lhs = _add_products(
                            lhs, _scale_product(Ha.semisimple_hall_product(gammas[D], A), c)
                        )
                    rhs = {}
                    for C, c in Ha.semisimple_hall_product(beta, A).items():
                        rhs = _add_products(
                            rhs, _scale_product(Ha.semisimple_hall_product(alpha, C), c)
                        )
                    assert lhs == rhs
