"""Periodic-matrix tests: frozen examples, wide-shift oracles, order axioms."""

import doctest
import random

import pytest

from affq import matrices as M
from test_schur import tilde, upper_term_cases


def E(i, j, n=2):
    return M.e_unit(i, j, n)


def test_doctests():
    failures, attempted = doctest.testmod(M)
    assert failures == 0 and attempted > 0


# ---------------------------------------------------------------------------
# Frozen examples.
# ---------------------------------------------------------------------------

def test_entry_accessor_periodicity():
    A = M.madd(E(1, 2), E(2, 1))
    assert A.entry(1, 2) == 1
    assert A.entry(3, 4) == 1
    assert A.entry(-1, 0) == 1
    assert A.entry(2, 3) == 0
    assert A.entry(0, -1) == 1  # copy of (2,1)


def test_sums_of_single_unit():
    A = E(1, 2)
    assert M.sigma(A) == 1
    assert M.ro(A) == (1, 0)
    assert M.co(A) == (0, 1)


def test_s_alpha_row_and_column_sums():
    A = M.s_alpha((1, 1))
    assert A == M.madd(E(1, 2), E(2, 3))
    assert M.ro(A) == (1, 1)
    assert M.co(A) == (1, 1)


def test_transpose():
    assert M.transpose(E(1, 2)) == E(2, 1)
    assert M.transpose(M.t_s_alpha((2, 3))) == M.s_alpha((2, 3))


def test_tilde_examples():
    # the row shift of the tests' reference label A - tilde(T) + T
    assert tilde(E(1, 2)) == E(2, 2)
    assert tilde(E(2, 3)) == E(1, 1)
    # n applications shift the fundamental column index by -n: the orbit of
    # (i, j) moves to the orbit of (i + n, j) = (i, j - n).
    A = M.pmat(2, [(1, -1, 2), (2, 4, 1), (1, 1, 3)])
    B = A
    for _ in range(2):
        B = tilde(B)
    assert B == M.pmat(2, [(i, j - 2, a) for i, j, a in A.entries])


def test_split_examples():
    A = M.madd(E(1, 2), M.diag((1, 0)))
    up, dg, lo = M.split(A)
    assert up == E(1, 2) and dg == M.diag((1, 0)) and lo == M.pmat(2)
    up, dg, lo = M.split(M.diag((3, 1)))
    assert (up, dg, lo) == (M.pmat(2), M.diag((3, 1)), M.pmat(2))
    up, dg, lo = M.split(E(2, 1))
    assert (up, dg, lo) == (M.pmat(2), M.pmat(2), E(2, 1))
    B = M.pmat(2, [(1, -1, 1), (1, 1, 2), (2, 4, 3)])
    p, d, m = M.split(B)
    assert M.madd(M.madd(p, d), m) == B


def test_d_exponent_examples():
    assert M.d_exponent(E(1, 2)) == 0
    assert M.d_exponent(M.madd(E(1, 2), E(1, 1))) == 1
    assert M.d_exponent(M.madd(E(1, 3), E(2, 2))) == 1


def test_preceq_examples():
    A = M.madd(E(1, 2), E(2, 1))
    assert M.preceq(A, A)
    assert M.preceq(M.pmat(2), E(1, 2))
    assert not M.preceq(E(1, 2), M.pmat(2))


def test_json_round_trip():
    A = M.pmat(3, [(1, 5, 2), (3, 1, 1), (2, 2, 4)])
    assert M.from_json(M.to_json(A)) == A
    assert M.to_json(A)["entries"] == sorted(M.to_json(A)["entries"])


# ---------------------------------------------------------------------------
# Wide-shift oracles for the periodic sums.
# ---------------------------------------------------------------------------

WIDE = 30


def oracle_d_exponent(A):
    total = 0
    for i, j, a in A.entries:
        for k0, l0, b in A.entries:
            for s in range(-WIDE, WIDE + 1):
                if k0 + s * A.n <= i and l0 + s * A.n > j:
                    total += a * b
    return total


def oracle_corner_upper(A, i, j):
    total = 0
    for s0, t0, a in A.entries:
        for s in range(-WIDE, WIDE + 1):
            if s0 + s * A.n <= i and t0 + s * A.n >= j:
                total += a
    return total


def oracle_corner_lower(A, i, j):
    total = 0
    for s0, t0, a in A.entries:
        for s in range(-WIDE, WIDE + 1):
            if s0 + s * A.n >= i and t0 + s * A.n <= j:
                total += a
    return total


def _random_matrix(rng, n, max_entries=4, span=3, allow_negative=False):
    items = []
    for _ in range(rng.randint(0, max_entries)):
        i = rng.randint(1, n)
        j = i + rng.randint(-span, span)
        a = rng.randint(-2, 3) if allow_negative else rng.randint(1, 3)
        items.append((i, j, a))
    return M.pmat(n, items)


def test_d_exponent_against_wide_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice([2, 3])
        A = _random_matrix(rng, n)
        assert M.d_exponent(A) == oracle_d_exponent(A)


def test_corner_sums_against_wide_oracle():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.choice([2, 3])
        A = _random_matrix(rng, n, allow_negative=True)
        for i in range(-2, n + 3):
            for j in range(-4, 8):
                assert M.corner_upper(A, i, j) == oracle_corner_upper(A, i, j)


def test_preceq_against_unbounded_sweep():
    rng = random.Random(13)

    def brute(A, B):
        for i in range(1, A.n + 1):
            for j in range(i + 1, i + 40):
                if M.corner_upper(A, i, j) > M.corner_upper(B, i, j):
                    return False
        for j in range(1, A.n + 1):
            for i in range(j + 1, j + 40):
                if oracle_corner_lower(A, i, j) > oracle_corner_lower(B, i, j):
                    return False
        return True

    for _ in range(200):
        n = rng.choice([2, 3])
        A = M.offdiag(_random_matrix(rng, n))
        B = M.offdiag(_random_matrix(rng, n))
        assert M.preceq(A, B) == brute(A, B)


def test_preceq_antisymmetry_on_small_support():
    rng = random.Random(14)
    seen_comparable = 0
    for _ in range(400):
        n = 2
        A = M.offdiag(_random_matrix(rng, n, max_entries=3, span=2))
        B = M.offdiag(_random_matrix(rng, n, max_entries=3, span=2))
        if A == B:
            continue
        both = M.preceq(A, B) and M.preceq(B, A)
        assert not both, (A, B)
        if M.preceq(A, B) or M.preceq(B, A):
            seen_comparable += 1
    assert seen_comparable > 10


# ---------------------------------------------------------------------------
# Structural invariants.
# ---------------------------------------------------------------------------

def test_tilde_invariants():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.choice([2, 3])
        A = _random_matrix(rng, n)
        T = tilde(A)
        assert M.sigma(T) == M.sigma(A)
        r = M.ro(A)
        assert M.ro(T) == tuple(r[(i - 1) % n] for i in range(n))
        assert M.sigma(A) == sum(M.ro(A)) == sum(M.co(A))
        B = A
        for _ in range(n):
            B = tilde(B)
        for i in range(1, n + 1):
            for j in range(-12, 13):
                assert B.entry(i, j) == A.entry(i, j + n)


def test_split_invariants():
    rng = random.Random(16)
    for _ in range(200):
        A = _random_matrix(rng, rng.choice([2, 3]), allow_negative=True)
        up, dg, lo = M.split(A)
        assert M.is_strictly_upper(up)
        assert all(i == j for i, j, _ in dg.entries)
        assert all(j < i for i, j, _ in lo.entries)
        assert M.madd(M.madd(up, dg), lo) == A


def test_pmat_rejects_tiny_period():
    with pytest.raises(ValueError):
        M.pmat(1)


def test_compositions():
    assert list(M.compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in M.compositions(3, 4)) == 15


def test_one_layer_ts_order_and_caps():
    # row 2 holds a lower, a diagonal and an upper entry; row 1 of T takes
    # the cell (1, 2) first, then (1, 1) and (1, 4), each capped by
    # min(alpha_1, a_{2,j}); row 2 of T sits under row 3, and row 3 under
    # the empty row 4
    A = M.pmat(3, [(2, 1, 1), (2, 2, 2), (2, 4, 1), (3, 3, 1)])
    assert [T.entries for T in M.one_layer_ts(A, (2, 1, 0))] == [
        ((1, 1, 1), (1, 4, 1), (2, 3, 1)),
        ((1, 2, 1), (1, 4, 1), (2, 3, 1)),
        ((1, 1, 1), (1, 2, 1), (2, 3, 1)),
        ((1, 2, 2), (2, 3, 1)),
    ]
    assert all(M.ro(T) == (3, 1, 0) for T in M.one_layer_ts(A, (3, 1, 0)))
    assert len(list(M.one_layer_ts(A, (3, 1, 0)))) == 3
    # the caps sum to 4 in row 1, and row 3 of T has no cell
    assert list(M.one_layer_ts(A, (5, 1, 0))) == []
    assert list(M.one_layer_ts(A, (2, 1, 1))) == []
    assert [T.entries for T in M.one_layer_ts(A, (0, 0, 0))] == [()]


def test_one_layer_ts_yield_canonical_labels():
    # each T is built from its cells directly, equal to the pmat of them
    A = M.pmat(3, [(2, 1, 1), (2, 2, 2), (2, 4, 1), (3, 3, 1)])
    alphas = ((2, 1, 0), (3, 1, 0), (5, 1, 0), (2, 1, 1), (0, 0, 0))
    grid = [T for alpha in alphas for T in M.one_layer_ts(A, alpha)]
    grid += [T for _, T in upper_term_cases()]
    for T in grid:
        P = M.pmat(T.n, T.entries)
        assert T.entries == P.entries and hash(T) == hash(P)
        assert T == P and P == T
    assert len(grid) == 4 + 3 + 1 + 7060


def test_band_matrices_counts_and_membership():
    mats = list(M.band_matrices(2, 2, 1))
    assert len(mats) == len(set(mats))
    for A in mats:
        assert M.sigma(A) == 2
        assert M.is_nonneg(A)
        assert all(abs(j - i) <= 1 for i, j, _ in A.entries)
    # 6 band cells for n=2, band=1; weak compositions of 2 into 6 cells.
    assert len(mats) == 21


# ---------------------------------------------------------------------------
# Index negation, the symmetry behind every derived lower/minus rule.
# ---------------------------------------------------------------------------

def test_negate_examples():
    assert M.negate(E(1, 2)) == E(1, 0)
    assert M.negate(E(1, 2, 3)) == E(2, 1, 3)
    assert M.negate(M.diag((1, 2, 3))) == M.diag((2, 1, 3))
    assert M.negate(M.pmat(2, [])) == M.pmat(2, [])


def test_negate_invariants():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(2, 4)
        A = _random_matrix(rng, n, max_entries=5, span=4)
        N = M.negate(A)
        assert M.negate(N) == A
        for sums in (M.ro, M.co):
            got, want = sums(N), sums(A)
            # row (column) i goes to -i, at 0-based index (-i - 1) mod n
            assert all(got[(-i - 1) % n] == want[i - 1] for i in range(1, n + 1))
        assert M.sigma(N) == M.sigma(A)
        assert M.d_exponent(N) == M.d_exponent(A)
        upper, diag, lower = M.split(A)
        assert M.split(N) == (M.negate(lower), M.negate(diag), M.negate(upper))
