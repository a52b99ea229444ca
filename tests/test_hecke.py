import doctest
import math
import random

import pytest

from affq import hecke as H
from affq import laurent as L
from affq import matrices as M
from affq import permutations as P
from affq import verify as V


def test_doctests():
    failures, attempted = doctest.testmod(H)
    assert failures == 0 and attempted > 0


def column_parts(A):
    """Composition refining co(A): the entries of each fundamental column,
    top to bottom, concatenated over columns 1..n."""
    out = []
    for l in range(1, A.n + 1):
        rows = sorted((i + l - j, a) for i, j, a in A.entries if (j - l) % A.n == 0)
        out.extend(a for _, a in rows)
    return tuple(out)


def coset_decomposition_identity_check(lam, d, mu):
    """Division-free form: the double-coset sum equals x_lam * T_d * T_X where
    X lists the shortest representatives, inside the mu block subgroup, of the
    cosets of the intersection d^{-1} (lam subgroup) d with that subgroup."""
    omega = column_parts(P.jmath(lam, d, mu))
    tail = H.HeckeElement(
        len(d),
        {
            w: L.one()
            for w in P.young_subgroup_elements(mu)
            if P.is_min_right_coset_rep(w, omega)
        },
    )
    lhs = H.x_mul_left(lam, H.left_mul_basis(d, tail))
    return lhs == H.t_double_coset(lam, d, mu)


def rand_perm(rng, r, steps=8):
    w = P.rho_power(0, r)
    for _ in range(rng.randrange(steps + 1)):
        w = P.compose(w, P.generator_s(rng.randrange(1, r + 1), r))
    return P.compose(P.rho_power(rng.randrange(-2, 3), r), w)


def rand_coeff(rng):
    f = {}
    for _ in range(rng.randrange(1, 3)):
        e, c = rng.randrange(-3, 4), rng.randrange(-3, 4)
        if c:
            f[e] = c
    return f or {0: 1}


def rand_elem(rng, r, max_terms=4):
    items = [
        (rand_perm(rng, r), rand_coeff(rng))
        for _ in range(rng.randrange(1, max_terms + 1))
    ]
    return H.h_from_items(r, items)


def test_quadratic_relation():
    for r in (2, 3, 4):
        one = H.t_basis(P.rho_power(0, r))
        for i in range(1, r + 1):
            s = H.t_basis(P.generator_s(i, r))
            lhs = H.mul(
                H.h_add(s, H.h_scale(L.poly({2: -1}), one)),
                H.h_add(s, one),
            )
            assert not lhs.terms


def test_frozen_generator_square():
    s = H.t_basis(P.generator_s(1, 2))
    expected = H.h_from_items(
        2, [((2, 1), L.poly({2: 1, 0: -1})), ((1, 2), L.monomial(2))]
    )
    assert H.mul(s, s) == expected


def test_rho_rule():
    rng = random.Random(31)
    for _ in range(150):
        r = rng.choice([2, 3, 4])
        w = rand_perm(rng, r)
        m = rng.randrange(-3, 4)
        p = P.rho_power(m, r)
        assert H.mul(H.t_basis(p), H.t_basis(w)) == H.t_basis(P.compose(p, w))
        assert H.mul(H.t_basis(w), H.t_basis(p)) == H.t_basis(P.compose(w, p))


def test_length_additive_products():
    rng = random.Random(32)
    found = 0
    while found < 200:
        r = rng.choice([2, 3, 4])
        y, w = rand_perm(rng, r), rand_perm(rng, r)
        if P.length(P.compose(y, w)) != P.length(y) + P.length(w):
            continue
        found += 1
        assert H.mul(H.t_basis(y), H.t_basis(w)) == H.t_basis(P.compose(y, w))


def test_mul_matches_one_sided_helpers():
    rng = random.Random(33)
    for _ in range(120):
        r = rng.choice([2, 3, 4])
        w = rand_perm(rng, r)
        h = rand_elem(rng, r)
        assert H.mul(H.t_basis(w), h) == H.left_mul_basis(w, h)
        assert H.mul(h, H.t_basis(w)) == H.right_mul_basis(h, w)


# ----------------------------------------------------------------------
# the right action, and H.mul against the left-only route


def mul_left_only(a, b):
    """Every window of a applied to b on the left: the route H.mul had
    before it took each window from the cheaper side."""
    out = {}
    for win in sorted(a.terms):
        for pwin, pc in H.left_mul_basis(win, b).terms.items():
            L.acc(out, pwin, L.mul(pc, a.terms[win]))
    return H.HeckeElement(a.r, out)


def rand_any_elem(rng, r):
    """rand_elem, or a sum of shifts at r = 1, which has no generators."""
    if r > 1:
        return rand_elem(rng, r)
    items = [(P.rho_power(rng.randrange(-3, 4), 1), rand_coeff(rng)) for _ in range(3)]
    return H.h_from_items(1, items)


def test_right_mul_gen_and_rho_match_the_left_only_route():
    rng = random.Random(37)
    for r in (1, 2, 3, 4, 5):
        for _ in range(6):
            h = rand_any_elem(rng, r)
            for m in range(-2 * r - 1, 2 * r + 2):
                want = mul_left_only(h, H.t_basis(P.rho_power(m, r)))
                assert H.right_mul_rho(h, m) == want
            if r == 1:
                continue
            for i in range(-1, r + 3):  # s_r and indices outside 1..r too
                s = H.t_basis(P.generator_s((i - 1) % r + 1, r))
                assert H.right_mul_gen(h, i) == mul_left_only(h, s)
    with pytest.raises(ValueError):
        H.right_mul_gen(H.t_basis(P.rho_power(0, 1)), 1)
    with pytest.raises(ValueError):
        H.right_mul_basis(H.t_basis(P.rho_power(0, 2)), P.rho_power(0, 3))


def test_mul_matches_the_left_only_route(monkeypatch):
    routes = []
    for name in ("left_mul_basis", "right_mul_basis"):
        route = getattr(H, name)
        monkeypatch.setattr(
            H, name, lambda *args, route=route, name=name: routes.append(name) or route(*args)
        )
    seen = set()
    rng = random.Random(38)
    for r in (1, 2, 3, 4):
        gens = [H.t_basis(P.generator_s(i, r)) for i in range(1, r + 1)] if r > 1 else []
        shifts = [H.t_basis(P.rho_power(m, r)) for m in (-2, 1)]
        short = gens + shifts
        for _ in range(12):
            a, b = rand_any_elem(rng, r), rand_any_elem(rng, r)
            ab = mul_left_only(a, b)
            pairs = [(a, b), (ab, a), (a, ab), (ab, ab)]
            pairs += [(ab, x) for x in short] + [(x, ab) for x in short]
            pairs.append((H.h_add(ab, shifts[0]), b))  # a shift beside long windows
            for x, y in pairs:
                del routes[:]
                got = H.mul(x, y)
                if r > 1:
                    seen.add(frozenset(routes))
                assert got == mul_left_only(x, y)
    # at r >= 2 the products take the left route, the right one, and both
    left, right = frozenset({"left_mul_basis"}), frozenset({"right_mul_basis"})
    assert seen == {left, right, left | right}


def test_mul_visits_fewer_terms_than_the_left_only_route(monkeypatch):
    # one hecke-assoc chunk: the terms met by the generator steps of both
    # sides stay well below those of the left-only route
    visits = [0]
    left_gen, right_gen = H.left_mul_gen, H.right_mul_gen

    def counted_left(i, h, nu=()):
        visits[0] += len(h.terms)
        return left_gen(i, h, nu)

    def counted_right(h, i):
        visits[0] += len(h.terms)
        return right_gen(h, i)

    monkeypatch.setattr(H, "left_mul_gen", counted_left)
    monkeypatch.setattr(H, "right_mul_gen", counted_right)
    rng = random.Random("assoc:3:0")
    triples = [[V._rand_elem(rng, 3) for _ in range(3)] for _ in range(120)]
    counts = []
    for mul in (H.mul, mul_left_only):
        visits[0] = 0
        for a, b, c in triples:
            mul(mul(a, b), c)
            mul(a, mul(b, c))
        counts.append(visits[0])
    split, left_only = counts
    assert 0 < split <= 0.75 * left_only


def is_left_descent(w, i):
    """Whether length(compose(s_i, w)) < length(w)."""
    inv = P.inverse(w)
    return P.apply(inv, i) > P.apply(inv, i + 1)


def left_greedy_word(w):
    m = P.rho_part(w)
    r = len(w)
    sigma = P.compose(P.rho_power(-m, r), w)
    word = []
    while not P.is_identity(sigma):
        i = next(i for i in range(1, r + 1) if is_left_descent(sigma, i))
        word.append(i)
        sigma = P.compose(P.generator_s(i, r), sigma)
    return m, tuple(word)


def test_reduced_word_independence():
    rng = random.Random(34)
    for _ in range(120):
        r = rng.choice([2, 3, 4])
        w = rand_perm(rng, r)
        for m, word in (P.reduced_word(w), left_greedy_word(w)):
            assert len(word) == P.length(w)
            prod = H.t_basis(P.rho_power(m, r))
            for i in word:
                prod = H.mul(prod, H.t_basis(P.generator_s(i, r)))
            assert prod == H.t_basis(w)


def test_associativity():
    rng = random.Random(35)
    for _ in range(120):
        r = rng.choice([2, 3, 4])
        a, b, c = (rand_elem(rng, r) for _ in range(3))
        assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))


def test_add_scale_axioms():
    rng = random.Random(36)
    for _ in range(80):
        r = rng.choice([2, 3])
        a, b, c = (rand_elem(rng, r) for _ in range(3))
        assert H.h_add(a, b) == H.h_add(b, a)
        assert H.mul(H.h_add(a, b), c) == H.h_add(H.mul(a, c), H.mul(b, c))
        assert H.mul(a, H.h_add(b, c)) == H.h_add(H.mul(a, b), H.mul(a, c))
        assert not H.h_add(a, H.h_scale(L.monomial(0, -1), a)).terms
    with pytest.raises(ValueError):
        H.mul(H.t_basis(P.rho_power(0, 2)), H.t_basis(P.rho_power(0, 3)))


def x_lambda(lam):
    """Sum of T_u over the block subgroup of lam: the oracle of x_mul_left."""
    return H.HeckeElement(sum(lam), {w: L.one() for w in P.young_subgroup_elements(lam)})


def test_x_lambda_frozen():
    x = x_lambda((2, 0))
    assert sorted(x.terms) == [(1, 2), (2, 1)]
    assert all(f == L.one() for f in x.terms.values())
    assert sorted(x_lambda((1, 1)).terms) == [(1, 2)]
    sq = H.mul(x, x)
    assert sq == H.h_scale(L.poly({0: 1, 2: 1}), x)


def test_stair_matches_subgroup_sum():
    rng = random.Random(37)
    comps = []
    for parts in (2, 3):
        for r in (2, 3, 4):
            comps.extend(M.compositions(parts, r))
    for lam in comps:
        r = sum(lam)
        if r < 2:
            continue
        x = x_lambda(lam)
        for _ in range(4):
            h = rand_elem(rng, r)
            assert H.x_mul_left(lam, h) == H.mul(x, h)


def test_subgroup_intersection_is_column_refinement():
    for n, band, rmax in ((2, 2, 3), (3, 1, 3)):
        for r in range(1, rmax + 1):
            for A in M.band_matrices(n, r, band):
                d = P.pseudo_matrix_rep(A)
                lam, mu = M.ro(A), M.co(A)
                omega = column_parts(A)
                assert sum(omega) == r
                lam_blocks = P.blocks(lam)
                dinv = P.inverse(d)
                brute = set()
                for w in P.young_subgroup_elements(mu):
                    x = P.compose(P.compose(d, w), dinv)
                    if all(
                        {P.apply(x, p) for p in block} == set(block)
                        for block in lam_blocks
                    ):
                        brute.add(w)
                assert brute == set(P.young_subgroup_elements(omega))


def test_t_double_coset_size():
    for n, r in ((2, 3), (2, 4), (3, 3)):
        band = 2 if n == 2 else 1
        for A in M.band_matrices(n, r, band):
            d = P.pseudo_matrix_rep(A)
            lam, mu = M.ro(A), M.co(A)
            omega = column_parts(A)
            size_lam = math.prod(math.factorial(p) for p in lam)
            size_mu = math.prod(math.factorial(p) for p in mu)
            size_omega = math.prod(math.factorial(p) for p in omega)
            coset = H.t_double_coset(lam, d, mu)
            assert len(coset.terms) == size_lam * size_mu // size_omega
    with pytest.raises(ValueError):
        H.t_double_coset((2, 0), P.generator_s(1, 2), (2, 0))


def test_coset_product_identity():
    assert H.coset_product_identity_check((1, 1), P.rho_power(0, 2), (1, 1))
    assert H.coset_product_identity_check((2, 0), P.rho_power(0, 2), (2, 0))
    for r in (1, 2, 3):
        for A in M.band_matrices(2, r, 2):
            d = P.pseudo_matrix_rep(A)
            lam, mu = M.ro(A), M.co(A)
            assert H.coset_product_identity_check(lam, d, mu)
            assert coset_decomposition_identity_check(lam, d, mu)


def test_t_d_x_mu_is_the_sum_of_t_dw():
    # d is shortest in d W_mu, so lengths add: the left side of the identity
    # needs no right action
    labels = 0
    for n, band in ((2, 2), (3, 1)):
        for r in (1, 2, 3):
            for A in M.band_matrices(n, r, band):
                d, mu = P.pseudo_matrix_rep(A), M.co(A)
                t_dw = H.HeckeElement(
                    r, {P.compose(d, w): L.one() for w in P.young_subgroup_elements(mu)}
                )
                assert t_dw == H.mul(H.t_basis(d), x_lambda(mu))
                labels += 1
    assert labels == 504


def test_coset_identity_checks_minimality_once(monkeypatch):
    calls = []
    is_min = P.is_min_double_coset_rep

    def counted(d, lam, mu):
        calls.append(d)
        return is_min(d, lam, mu)

    monkeypatch.setattr(P, "is_min_double_coset_rep", counted)
    A = M.pmat(2, [(1, 0, 1), (1, 3, 1), (2, 2, 1)])
    d = P.pseudo_matrix_rep(A)
    assert H.coset_product_identity_check(M.ro(A), d, M.co(A))
    assert calls == [d]


def test_coset_identity_rejects_a_longer_d_before_any_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("x_mul_left ran on a non-shortest d")

    monkeypatch.setattr(H, "x_mul_left", no_product)
    with pytest.raises(ValueError, match="shortest"):
        H.coset_product_identity_check((2, 0), P.generator_s(1, 2), (2, 0))


# ----------------------------------------------------------------------
# the permutation module H x_nu: {window of d: c} stands for sum c T_d x_nu


def all_nus(r_max=3):
    return [
        nu for parts in (1, 2, 3) for r in range(1, r_max + 1) for nu in M.compositions(parts, r)
    ]


def block_sorted(win, nu):
    return tuple(x for b in P.blocks(nu) for x in sorted(win[p - 1] for p in b))


def rand_module_elem(rng, r, nu, max_terms=4):
    def rand_window():
        w = P.rho_power(rng.randrange(-2, 3), r)
        if r > 1:
            w = P.compose(w, rand_perm(rng, r))
        return block_sorted(w, nu)

    items = [(rand_window(), rand_coeff(rng)) for _ in range(rng.randrange(1, max_terms + 1))]
    return H.h_from_items(r, items)


def expand(h, nu):
    """T_d x_nu = sum of T_{du} over u in W_nu, computed in the whole group."""
    items = [
        (P.compose(win, u), c)
        for win, c in h.terms.items()
        for u in P.young_subgroup_elements(nu)
    ]
    return H.h_from_items(h.r, items)


def assert_module_image(got, want, nu):
    assert all(win == block_sorted(win, nu) for win in got.terms)
    assert expand(got, nu) == want


def test_module_action_commutes_with_expansion():
    rng = random.Random(53)
    for nu in all_nus():
        r = sum(nu)
        for _ in range(6):
            h = rand_module_elem(rng, r, nu)
            full = expand(h, nu)
            for i in range(1, r + 1) if r > 1 else ():
                assert_module_image(H.left_mul_gen(i, h, nu), H.left_mul_gen(i, full), nu)
            for m in (-2, 0, 1):
                w = P.rho_power(m, r)
                if r > 1:
                    w = P.compose(w, rand_perm(rng, r))
                assert_module_image(H.left_mul_basis(w, h, nu), H.left_mul_basis(w, full), nu)


def test_regular_module_is_the_group_action():
    # nu = (1^r) has a trivial block subgroup: the module rule is the regular one
    rng = random.Random(59)
    for r in (2, 3):
        ones = (1,) * r
        for _ in range(10):
            h = rand_elem(rng, r)
            for i in range(1, r + 1):
                assert H.left_mul_gen(i, h, ones) == H.left_mul_gen(i, h)
            w = rand_perm(rng, r)
            assert H.left_mul_basis(w, h, ones) == H.left_mul_basis(w, h)


# ----------------------------------------------------------------------
# the generator kernel against the former route: two position scans and
# the value map of s_i on every window entry


def inv_pos(window, r, val):
    """Position k with w(k) = val."""
    for c in range(r):
        if (window[c] - val) % r == 0:
            return c + 1 + (val - window[c])
    raise AssertionError("window residues must cover all classes")


def gen_value(i, r, x):
    c = (x - i) % r
    return x + 1 if c == 0 else x - 1 if c == 1 else x


def left_mul_gen_scan(i, h, nu=()):
    r = h.r
    inner = P.inner_positions(nu)
    out = {}
    for win, c in h.terms.items():
        k = inv_pos(win, r, i)
        k1 = inv_pos(win, r, i + 1)
        sw = tuple(gen_value(i, r, x) for x in win)
        if k > k1:
            L.acc(out, win, L.mul(c, H._V2M1))
            L.acc(out, sw, L.mul(c, H._V2))
        elif k1 == k + 1 and (k - 1) % r in inner:
            L.acc(out, win, L.mul(c, H._V2))
        else:
            L.acc(out, sw, c)
    return H.HeckeElement(r, out)


def test_left_mul_gen_matches_the_scan_route():
    rng = random.Random(61)
    for r in (2, 3, 4, 5):
        nus = [()] + [nu for parts in (1, 2, 3) for nu in M.compositions(parts, r)]
        for nu in nus:
            for _ in range(4):
                h = rand_module_elem(rng, r, nu) if nu else rand_elem(rng, r)
                for i in range(-1, r + 3):
                    got = H.left_mul_gen(i, h, nu)
                    want = left_mul_gen_scan(i, h, nu)
                    assert list(got.terms.items()) == list(want.terms.items()), (i, h, nu)
    with pytest.raises(ValueError):
        H.left_mul_gen(1, H.t_basis(P.rho_power(0, 1)))


# ----------------------------------------------------------------------
# the former routes: the shift applied after the word, and random windows
# composed from generators


def left_mul_basis_rho_last(w, h, nu=()):
    m, word = P.reduced_word(w)
    for i in reversed(word):
        h = H.left_mul_gen(i, h, nu)
    return H.left_mul_rho(m, h)


def test_left_mul_basis_matches_the_rho_last_route():
    rng = random.Random(71)
    for r in (2, 3, 4):
        nus = [(), (1,) * r, (r,)] + list(M.compositions(2, r))
        for nu in nus:
            for m in range(-2, 3):
                for _ in range(4):
                    h = rand_module_elem(rng, r, nu) if nu else rand_elem(rng, r)
                    x = rand_perm(rng, r)
                    w = P.compose(P.rho_power(m - P.rho_part(x), r), x)
                    assert P.rho_part(w) == m
                    assert H.left_mul_basis(w, h, nu) == left_mul_basis_rho_last(w, h, nu)


def test_verify_rand_perm_matches_the_composed_route():
    # same windows from the same draws, so the hecke suite's inputs are kept
    for r in (2, 3, 4):
        for seed in range(300):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            assert V._rand_perm(got_rng, r) == rand_perm(want_rng, r)
            assert got_rng.getstate() == want_rng.getstate()
