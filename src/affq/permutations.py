"""Bijections of the integers commuting with the shift by a period r.

A permutation w of the integers with w(i + r) = w(i) + r for all i is its
window (w(1), ..., w(r)): a plain tuple of r integers, so r is its length.
These bijections form a group under composition, generated by the
transpositions s_1, ..., s_r together with the shift rho: j -> j + 1.  The
module provides the group operations, length as inversion count, reduced
words, shortest coset and double-coset representatives for Young subgroups
attached to compositions, the matrix encoding of double cosets, and the
shortest representative read off a nonnegative periodic matrix.  ``perm``
validates outside input; every function takes and returns windows.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left

from . import laurent as L
from . import matrices as M

def perm(r, window):
    """Validated constructor: the window as a tuple.

    >>> perm(2, [0, 3])
    (0, 3)
    >>> perm(2, [2, 4])
    Traceback (most recent call last):
        ...
    ValueError: window residues mod r must form a permutation
    """
    r = _period(r)
    w = L.json_ints(window)
    if len(w) != r:
        raise ValueError("window must list the r values w(1), ..., w(r)")
    if sorted(x % r for x in w) != list(range(r)):
        raise ValueError("window residues mod r must form a permutation")
    return w


def _period(r):
    """r when it is a positive int: as in L.json_ints, nothing is coerced."""
    if type(r) is not int:
        raise ValueError("expected an integer, got %s %r" % (type(r).__name__, r))
    if r < 1:
        raise ValueError("period must be a positive integer")
    return r


def rho_power(m, r):
    """The shift j -> j + m."""
    return tuple(i + m for i in range(1, _period(r) + 1))


def generator_s(i, r):
    """Coxeter generator exchanging the classes of i and i + 1 mod r.

    >>> generator_s(1, 2)
    (2, 1)
    >>> generator_s(2, 2)
    (0, 3)
    """
    r = _period(r)
    if r < 2 or not 1 <= i <= r:
        raise ValueError("generator index must satisfy 1 <= i <= r with r >= 2")
    a, b = i % r, (i + 1) % r
    out = []
    for j in range(1, r + 1):
        c = j % r
        out.append(j + 1 if c == a else j - 1 if c == b else j)
    return tuple(out)


def apply(w, j):
    """Value w(j) for any integer j."""
    c = (j - 1) % len(w)
    return w[c] + j - 1 - c  # j - 1 - c = r * ((j - 1) // r)


def compose(w, y):
    """(w . y)(k) = w(y(k))."""
    r = len(w)
    if len(y) != r:
        raise ValueError("period mismatch")
    out = []
    for v in y:
        c = (v - 1) % r
        out.append(w[c] + v - 1 - c)  # v - 1 - c = r * ((v - 1) // r)
    return tuple(out)


def inverse(w):
    r = len(w)
    out = [0] * r
    for k, v in enumerate(w, 1):
        c = (v - 1) % r
        out[c] = k - v + 1 + c  # k - r * ((v - 1) // r)
    return tuple(out)


def is_identity(w):
    return w == tuple(range(1, len(w) + 1))


def length(w):
    """Number of pairs (i, j) with 1 <= i <= r, i < j and w(i) > w(j).

    Two members of one class never invert, and the inversions between the
    classes of window positions i < j number |floor((w(j) - w(i)) / r)|
    (Shi's formula), so one pass over the position pairs counts them all.

    >>> length(rho_power(1, 4))
    0
    >>> length(generator_s(3, 3))
    1
    >>> length(perm(2, [0, 3]))
    1
    """
    return _length(w)


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _length(w):
    r = len(w)
    total = 0
    for k, x in enumerate(w, 1):
        for y in w[k:]:
            total += abs((y - x) // r)
    return total


def rho_part(w):
    """Exponent m with w = rho^m * sigma and sigma fixing the window sum."""
    r = len(w)
    return (sum(w) - r * (r + 1) // 2) // r


def is_right_descent(w, i):
    """Whether length(compose(w, s_i)) < length(w)."""
    return apply(w, i) > apply(w, i + 1)


def reduced_word(w):
    """Factor w = rho^m s_{i_1} ... s_{i_k} with k = length(w).

    Returns (m, (i_1, ..., i_k)).  Peels right descents greedily.

    >>> reduced_word(perm(2, [0, 3]))
    (0, (2,))
    >>> reduced_word(rho_power(-3, 4))
    (-3, ())
    """
    return _reduced_word(w)


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _reduced_word(w):
    r = len(w)
    m = rho_part(w)
    sigma = compose(rho_power(-m, r), w)
    rev = []
    while True:
        i = next((i for i in range(1, r + 1) if is_right_descent(sigma, i)), None)
        if i is None:
            break
        rev.append(i)
        sigma = compose(sigma, generator_s(i, r))
    if not is_identity(sigma):
        raise AssertionError("descent peeling must end at the identity")
    return m, tuple(reversed(rev))


def blocks(lam):
    """Consecutive position blocks of sizes lam[0], lam[1], ... starting at 1.

    >>> blocks((2, 0, 1))
    [[1, 2], [], [3]]
    """
    out = []
    pos = 0
    for part in lam:
        out.append(list(range(pos + 1, pos + part + 1)))
        pos += part
    return out


def inner_positions(lam):
    """0-based positions p such that p and p + 1 lie in one block of lam.

    >>> sorted(inner_positions((2, 0, 3)))
    [0, 2, 3]
    """
    out, pos = set(), 0
    for part in lam:
        out.update(range(pos, pos + part - 1))
        pos += part
    return out


def is_min_right_coset_rep(d, lam):
    """Whether d is shortest in its coset (block subgroup) * d.

    Holds exactly when the inverse is increasing on every block of lam.

    >>> is_min_right_coset_rep(generator_s(1, 2), (2, 0))
    False
    >>> is_min_right_coset_rep(rho_power(0, 2), (2, 0))
    True
    """
    if sum(lam) != len(d):
        raise ValueError("composition must sum to the period")
    inv = inverse(d)
    return all(inv[p] < inv[p + 1] for p in inner_positions(lam))


def is_min_double_coset_rep(d, lam, mu):
    """Whether d is shortest in (lam subgroup) * d * (mu subgroup): the
    inverse increases on the blocks of lam and d on the blocks of mu."""
    if sum(mu) != len(d):
        raise ValueError("composition must sum to the period")
    return is_min_right_coset_rep(d, lam) and all(
        d[p] < d[p + 1] for p in inner_positions(mu)
    )


def double_coset_matrix(lam, d, mu):
    """Matrix counting |block_k(lam) intersect d(block_l(mu))|.

    The blocks run over all integer shifts; the count is stored at the
    normalized cell.  The block subgroups preserve every block, so each
    member u d w of the double coset of d gives the same matrix: its label.

    >>> double_coset_matrix((2, 0), (2, 1), (2, 0)) == M.diag((2, 0))
    True
    """
    n = len(lam)
    r = sum(lam)
    if len(mu) != n or sum(mu) != r or len(d) != r:
        raise ValueError("compositions must share length and total")
    lcum = [0]
    for part in lam:
        lcum.append(lcum[-1] + part)
    items = {}
    pos = 0
    for l0 in range(1, n + 1):
        for p in range(pos + 1, pos + mu[l0 - 1] + 1):
            x = d[p - 1]
            t = (x - 1) // r
            x0 = x - t * r
            i0 = bisect_left(lcum, x0)
            key = (i0 + t * n, l0)
            items[key] = items.get(key, 0) + 1
        pos += mu[l0 - 1]
    return M.pmat(n, [(i, j, a) for (i, j), a in items.items()])


def jmath(lam, d, mu):
    """double_coset_matrix of d, which must be shortest in its double coset.

    >>> jmath((1, 1), rho_power(0, 2), (1, 1)) == M.diag((1, 1))
    True
    >>> jmath((1, 1), perm(2, [0, 3]), (1, 1)).entries
    ((1, 0, 1), (2, 3, 1))
    """
    if len(mu) != len(lam) or sum(mu) != sum(lam) or len(d) != sum(lam):
        raise ValueError("compositions must share length and total")
    if not is_min_double_coset_rep(d, lam, mu):
        raise ValueError("d is not the shortest element of its double coset")
    return double_coset_matrix(lam, d, mu)


def pseudo_matrix_rep(A):
    """Shortest double-coset representative attached to a nonnegative matrix.

    Each cell (i, j) of A is replaced by a run of entry(i, j) consecutive
    integers; row i holds the block of row-sum positions for ro(A), doled
    out left to right.  Reading the runs down columns 1..n, rows top to
    bottom, yields the window.

    >>> pseudo_matrix_rep(M.diag((2, 1)))
    (1, 2, 3)
    >>> pseudo_matrix_rep(M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2)))
    (2, 1)
    """
    n = A.n
    r = M.sigma(A)
    if r < 1:
        raise ValueError("matrix must have positive total")
    lam = M.ro(A)
    lcum = [0]
    for part in lam:
        lcum.append(lcum[-1] + part)
    runs = []
    for i0, l0, a in A.entries:
        if a < 0:
            raise ValueError("entries must be nonnegative")
        l_star = (l0 - 1) % n + 1
        k_star = (l_star - l0) // n
        prefix = sum(b for i, t, b in A.entries if i == i0 and t < l0)
        start = k_star * r + lcum[i0 - 1] + prefix
        runs.append((l_star, i0 + k_star * n, [start + s for s in range(1, a + 1)]))
    runs.sort(key=lambda item: (item[0], item[1]))
    window = [x for _, _, run in runs for x in run]
    return perm(r, window)


def length_formula(A):
    """Closed form for length(pseudo_matrix_rep(A)).

    Sums entry(i, j) * entry(k, l) over cell pairs with i in [1, n], i < k
    and j > l; the shifts of each fundamental pair contribute an interval
    of t values, counted exactly.

    >>> length_formula(M.diag((3, 2)))
    0
    >>> length_formula(M.madd(M.e_unit(1, 2, 2), M.e_unit(2, 1, 2)))
    1
    """
    n = A.n
    total = 0
    for i, j, a in A.entries:
        for k0, l0, b in A.entries:
            t_min = (i - k0) // n + 1
            t_max = (j - l0 - 1) // n
            if t_max >= t_min:
                total += a * b * (t_max - t_min + 1)
    return total


def young_subgroup_elements(lam):
    """All window permutations preserving each block of lam, as one tuple
    of windows shared by every call with the same lam.

    >>> young_subgroup_elements((2, 1))
    ((1, 2, 3), (2, 1, 3))
    """
    return _young_subgroup_elements(tuple(lam))


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _young_subgroup_elements(lam):
    r = sum(lam)
    bs = blocks(lam)
    out = []
    for combo in itertools.product(*(itertools.permutations(b) for b in bs)):
        window = [0] * r
        for block, values in zip(bs, combo):
            for pos, val in zip(block, values):
                window[pos - 1] = val
        out.append(tuple(window))
    return tuple(out)


def double_coset_elements(lam, d, mu):
    """The sorted set of products u * d * w with u, w in the block subgroups."""
    out = set()
    mu_elts = young_subgroup_elements(mu)
    for u in young_subgroup_elements(lam):
        ud = compose(u, d)
        out.update(compose(ud, w) for w in mu_elts)
    return sorted(out)
