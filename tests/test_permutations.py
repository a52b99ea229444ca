import copy
import doctest
import itertools
import math
import pickle
import random

import pytest

from affq import matrices as M
from affq import permutations as P


def test_doctests():
    failures, attempted = doctest.testmod(P)
    assert failures == 0 and attempted > 0


def rand_perm(rng, r, steps=10):
    w = P.rho_power(0, r)
    for _ in range(rng.randrange(steps + 1)):
        w = P.compose(w, P.generator_s(rng.randrange(1, r + 1), r))
    return P.compose(P.rho_power(rng.randrange(-3, 4), r), w)


def brute_length(w):
    # Inversions need w(j) < w(i) <= max(window); values at j = j0 + t*r grow
    # by t*r, so shifts beyond spread//r + 2 periods cannot contribute.
    r = len(w)
    spread = max(w) - min(w)
    horizon = r + r * (spread // r + 2)
    total = 0
    for i in range(1, r + 1):
        for j in range(i + 1, i + horizon + 1):
            if P.apply(w, i) > P.apply(w, j):
                total += 1
    return total


def finite_perms(r):
    return [P.perm(r, w) for w in itertools.permutations(range(1, r + 1))]


def test_constructor_and_basics():
    assert P.rho_power(1, 3) == (2, 3, 4)
    assert P.generator_s(1, 2) == (2, 1)
    assert P.generator_s(2, 2) == (0, 3)
    assert P.rho_power(0, 4) == (1, 2, 3, 4)
    assert P.rho_power(-2, 2) == (-1, 0)
    w = P.perm(2, [0, 3])
    assert P.apply(w, 0) == w[1] - 2 == 1
    assert P.apply(w, 3) == 2 and P.apply(w, 4) == 5
    with pytest.raises(ValueError):
        P.perm(2, [1])
    with pytest.raises(ValueError):
        P.perm(0, [])
    with pytest.raises(ValueError):
        P.perm(3, [1, 4, 3])
    with pytest.raises(ValueError):
        P.generator_s(3, 2)
    with pytest.raises(ValueError):
        P.generator_s(1, 1)


def test_group_axioms():
    rng = random.Random(21)
    for _ in range(300):
        r = rng.choice([1, 2, 3, 4])
        w = rand_perm(rng, r) if r > 1 else P.rho_power(rng.randrange(-3, 4), 1)
        y = rand_perm(rng, r) if r > 1 else P.rho_power(rng.randrange(-3, 4), 1)
        z = rand_perm(rng, r) if r > 1 else P.rho_power(rng.randrange(-3, 4), 1)
        assert P.compose(P.compose(w, y), z) == P.compose(w, P.compose(y, z))
        assert P.is_identity(P.compose(w, P.inverse(w)))
        assert P.is_identity(P.compose(P.inverse(w), w))
        assert P.compose(P.rho_power(0, r), w) == w == P.compose(w, P.rho_power(0, r))
        for j in range(-5, 6):
            assert P.apply(P.inverse(w), P.apply(w, j)) == j


def test_length_against_brute_inversions():
    rng = random.Random(22)
    for _ in range(300):
        r = rng.choice([2, 3, 4])
        w = rand_perm(rng, r)
        assert P.length(w) == brute_length(w)
    for r in (2, 3, 4, 5):
        assert P.length(P.rho_power(1, r)) == 0
        assert P.length(P.rho_power(-7, r)) == 0
        for i in range(1, r + 1):
            assert P.length(P.generator_s(i, r)) == 1
    assert P.length(P.perm(2, [0, 3])) == 1


def test_length_invariants():
    rng = random.Random(23)
    for _ in range(200):
        r = rng.choice([2, 3, 4])
        w = rand_perm(rng, r)
        lw = P.length(w)
        assert P.length(P.inverse(w)) == lw
        m = rng.randrange(-3, 4)
        assert P.length(P.compose(P.rho_power(m, r), w)) == lw
        assert P.length(P.compose(w, P.rho_power(m, r))) == lw
        for i in range(1, r + 1):
            s = P.generator_s(i, r)
            right = P.length(P.compose(w, s))
            left = P.length(P.compose(s, w))
            assert abs(right - lw) == 1 and abs(left - lw) == 1
            assert P.is_right_descent(w, i) == (right < lw)


def test_reduced_words():
    rng = random.Random(24)
    for _ in range(200):
        r = rng.choice([2, 3, 4])
        w = rand_perm(rng, r)
        m, word = P.reduced_word(w)
        assert m == P.rho_part(w)
        assert len(word) == P.length(w)
        x = P.rho_power(m, r)
        lengths = [P.length(x)]
        for i in word:
            x = P.compose(x, P.generator_s(i, r))
            lengths.append(P.length(x))
        assert x == w
        assert lengths == list(range(len(word) + 1))


def peel(w):
    """reduced_word without its memo: strip rho^m, then peel right descents."""
    m = P.rho_part(w)
    r = len(w)
    sigma = P.compose(P.rho_power(-m, r), w)
    rev = []
    while not P.is_identity(sigma):
        i = next(i for i in range(1, r + 1) if P.is_right_descent(sigma, i))
        rev.append(i)
        sigma = P.compose(sigma, P.generator_s(i, r))
    return m, tuple(reversed(rev))


def test_reduced_word_memo_matches_the_uncached_peel():
    # the windows of test_reduced_words, then every finite permutation
    rng = random.Random(24)
    grid = [rand_perm(rng, rng.choice([2, 3, 4])) for _ in range(200)]
    grid += [w for r in (2, 3, 4) for w in finite_perms(r)]
    for w in grid:
        got = P.reduced_word(w)
        assert got == peel(w) and type(got[1]) is tuple
        assert P.reduced_word(P.perm(len(w), list(w))) == got


def test_min_coset_rep_definition_oracle():
    # d is shortest in its coset exactly when length(u d) = length(u) + length(d)
    # for every u in the block subgroup.
    rng = random.Random(25)
    for r, lam_parts in ((2, 2), (3, 2), (4, 3)):
        for lam in M.compositions(lam_parts, r):
            elements = P.young_subgroup_elements(lam)
            for _ in range(40):
                d = rand_perm(rng, r)
                expected = all(
                    P.length(P.compose(u, d)) == P.length(u) + P.length(d)
                    for u in elements
                )
                assert P.is_min_right_coset_rep(d, lam) == expected
    assert not P.is_min_right_coset_rep(P.generator_s(1, 2), (2, 0))
    for lam in M.compositions(3, 4):
        assert P.is_min_right_coset_rep(P.rho_power(0, 4), lam)


def test_double_coset_rep_counts_match_orbit_partition():
    cases = []
    for r in (2, 3):
        for parts in (2, 3):
            comps = list(M.compositions(parts, r))
            cases.extend((r, lam, mu) for lam in comps for mu in comps)
    comps4 = list(M.compositions(2, 4))
    cases.extend((4, lam, mu) for lam in comps4 for mu in comps4)
    cases.append((4, (2, 1, 1), (1, 2, 1)))
    cases.append((4, (2, 2, 0), (1, 2, 1)))
    for r, lam, mu in cases:
        all_w = finite_perms(r)
        reps = [d for d in all_w if P.is_min_double_coset_rep(d, lam, mu)]
        seen = set()
        orbits = 0
        for x in all_w:
            if x in seen:
                continue
            orbits += 1
            coset = P.double_coset_elements(lam, x, mu)
            seen.update(coset)
            inside = [d for d in coset if d in reps]
            assert len(inside) == 1
            assert P.length(inside[0]) == min(P.length(y) for y in coset)
        assert len(reps) == orbits


def test_jmath_frozen():
    for lam in list(M.compositions(2, 3)) + list(M.compositions(3, 4)):
        n = len(lam)
        assert P.jmath(lam, P.rho_power(0, sum(lam)), lam) == M.diag(lam)
    A = P.jmath((1, 1), P.perm(2, [0, 3]), (1, 1))
    assert A.entries == ((1, 0, 1), (2, 3, 1))
    B = P.jmath((1, 1), P.perm(2, [2, 1]), (1, 1))
    assert B == M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2))
    with pytest.raises(ValueError):
        P.jmath((2, 0), P.generator_s(1, 2), (2, 0))
    with pytest.raises(ValueError):
        P.jmath((1, 1), P.rho_power(0, 3), (1, 1))


def test_pseudo_matrix_rep_frozen():
    for lam in ((2, 1), (1, 1, 2), (0, 3)):
        assert P.is_identity(P.pseudo_matrix_rep(M.diag(lam)))
    A = M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2))
    y = P.pseudo_matrix_rep(A)
    assert y == (2, 1) and P.length(y) == 1
    B = M.madd(M.mscale(2, M.e_unit(1, 2, 2)), M.e_unit(2, 1, 2))
    yB = P.pseudo_matrix_rep(B)
    assert yB == (3, 1, 2) and P.length(yB) == 2
    C = M.madd(M.e_unit(1, 0, 2), M.e_unit(2, 3, 2))
    assert P.pseudo_matrix_rep(C) == (0, 3)
    assert P.length_formula(C) == 1


def test_round_trip_sweep():
    for n, band in ((2, 2), (3, 1)):
        for r in range(1, 5):
            for A in M.band_matrices(n, r, band):
                lam, mu = M.ro(A), M.co(A)
                y = P.pseudo_matrix_rep(A)
                assert P.is_min_double_coset_rep(y, lam, mu)
                assert P.jmath(lam, y, mu) == A
                assert P.length(y) == P.length_formula(A)


def test_every_double_coset_member_gives_its_label():
    # the oracle peel labels a double coset by any window of it
    labels = windows = 0
    for n, band in ((2, 2), (3, 1)):
        for r in (1, 2, 3):
            for A in M.band_matrices(n, r, band):
                lam, mu = M.ro(A), M.co(A)
                for x in P.double_coset_elements(lam, P.pseudo_matrix_rep(A), mu):
                    assert P.double_coset_matrix(lam, x, mu) == A
                    windows += 1
                labels += 1
    assert (labels, windows) == (504, 2324)


def test_minimality_sampling():
    rng = random.Random(26)
    pool = []
    for n, band in ((2, 2), (3, 1)):
        for r in (2, 3, 4):
            pool.extend(M.band_matrices(n, r, band))
    for A in rng.sample(pool, 30):
        y = P.pseudo_matrix_rep(A)
        ly = P.length(y)
        us = P.young_subgroup_elements(M.ro(A))
        vs = P.young_subgroup_elements(M.co(A))
        for _ in range(60):
            u, v = rng.choice(us), rng.choice(vs)
            assert P.length(P.compose(P.compose(u, y), v)) >= ly


def test_young_subgroup_elements():
    for lam in ((2, 2), (3, 1), (1, 1, 2), (0, 4)):
        elements = P.young_subgroup_elements(lam)
        assert len(elements) == math.prod(math.factorial(p) for p in lam)
        assert len(set(elements)) == len(elements)
        blocks = P.blocks(lam)
        for w in elements:
            for block in blocks:
                assert {P.apply(w, p) for p in block} == set(block)


@pytest.mark.parametrize(
    "call",
    [
        lambda: P.perm(2.7, [1.9, 2]),
        lambda: P.perm(True, [1]),
        lambda: P.perm("2", [1, 2]),
        lambda: P.perm(2, [1.0, 2]),
        lambda: P.perm(2, [True, 2]),
        lambda: P.rho_power(0, True),
        lambda: P.rho_power(1, 3.0),
        lambda: P.rho_power(1, "3"),
        lambda: P.generator_s(1, 2.0),
        lambda: P.generator_s(1, True),
    ],
    ids=[
        "perm-float",
        "perm-bool-r",
        "perm-string-r",
        "perm-float-window",
        "perm-bool-window",
        "rho-bool",
        "rho-float",
        "rho-string",
        "generator-float",
        "generator-bool",
    ],
)
def test_constructors_reject_non_integers(call):
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_compose_matches_the_apply_route():
    # the window of w . y indexed directly against P.apply on each entry
    rng = random.Random(67)
    for r in (2, 3, 4, 5):
        for _ in range(40):
            w, y = rand_perm(rng, r), rand_perm(rng, r)
            y = P.compose(P.rho_power(rng.randrange(-9, 10), r), y)
            assert P.compose(w, y) == tuple(P.apply(w, v) for v in y)
    for w in (P.rho_power(0, 1), P.rho_power(-3, 1)):
        assert P.compose(w, P.rho_power(2, 1)) == (w[0] + 2,)


def test_value_types_pickle_hash_and_stay_immutable():
    # labels cross process boundaries in verify --jobs, by pickle
    A = M.pmat(3, [(1, 2, 2), (3, 1, 1)])
    fields = (A.n, A.entries)
    assert hash(A) == hash(fields)
    for y in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A), copy.copy(A)):
        assert type(y) is type(A) and y == A and hash(y) == hash(A)
        assert repr(y) == repr(A)
    for name in ("n", "entries", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(A, name, 0)
    with pytest.raises(AttributeError):
        del A._hash
    assert A != fields and A != fields[1]
    # a label never equals a tuple, not even one with its hash
    label = M.PeriodicMatrix(2, (1, 2))
    assert hash(label) == hash((2, (1, 2))) and label != (2, (1, 2)) != label
    assert len({label, (2, (1, 2))}) == 2


def test_every_permutation_is_a_plain_tuple_of_its_period():
    rng = random.Random(68)
    for r in (1, 2, 3, 4):
        w = P.compose(P.rho_power(rng.randrange(-3, 4), r), rand_perm(rng, r) if r > 1 else (1,))
        lam = (r - r // 2, r // 2)
        A = M.pmat(2, [(1, 1, lam[0]), (2, 0, lam[1])])
        made = [
            P.perm(r, list(w)),
            P.rho_power(0, r),
            P.rho_power(-2, r),
            P.compose(w, w),
            P.inverse(w),
            P.pseudo_matrix_rep(A),
            *(P.generator_s(i, r) for i in range(1, r + 1) if r > 1),
            *P.young_subgroup_elements(lam),
            *P.double_coset_elements(lam, P.pseudo_matrix_rep(A), M.co(A)),
        ]
        for x in made:
            assert type(x) is tuple and len(x) == r
            assert all(type(v) is int for v in x)
        assert P.perm(r, list(w)) == w
    for r, window in ((2, [1.0, 2]), (2, [True, 2]), (2, [1]), (2, [1, 2, 3]), (2, [2, 4])):
        with pytest.raises(ValueError):
            P.perm(r, window)
