"""Nilpotent representations of the cyclic quiver with n vertices.

Vertices are Z/n (written 1..n), one arrow i -> i+1.  A strictly upper
periodic matrix A records the multiplicities of the segment modules: the
entry a_{i,j} (i < j) counts copies of the uniserial module of length j-i
with top the simple at vertex i.  The module M(A) has dimension vector d(A)
and total dimension sigma of d(A).

This module provides the homological Euler form, endomorphism dimensions,
brute-force Hall numbers over small finite fields, the closed-form product
of a semisimple module with an arbitrary nilpotent module (polynomials in
q), and ``twisted_route_b``, the twisted (Laurent in v) product obtained
from those Hall polynomials.

Endomorphism dimensions are counted over pairs of segments (Deng-Du-Fu's
segment combinatorics); the F_q linear algebra serves only the census.

The closed-form product is the one-layer formula of the affine q-Schur
algebra at q = v^2, whose positive part is the Hall algebra (Deng-Du-Fu):
``semisimple_hall_product(alpha, A)`` is the off-diagonal part of the
Schur product ``e_B e_{A + diag(w)}`` with ``w_i = alpha_{i-1}`` and
``B = S_alpha + diag(ro(A))``, so that co(B) = ro(A + diag(w)), with its
v-exponents, which are all even, halved.  The diagonal w caps no T: the
cell (i, i+1) of T sits under the entry w_{i+1} = alpha_i, and row i of T
sums to alpha_i.  A is strictly upper, so no other Gaussian and no
exponent of the rule reads the diagonal, and distinct labels of the
product keep distinct off-diagonal parts (their row sums are fixed).  Its
values are ``laurent`` dicts in q; the brute-force census of
``brute_hall_number`` stays its oracle.

The closed form of the twisted product is not kept here: it is the
weight-zero read-off of the level-free one-layer kernel,
``realization.twisted_hall_product(alpha, A)``, the numerators of
``mul_by_semisimple_plus(alpha, A(0))``.  It lives in ``realization``,
which imports this module.
"""

import functools
import types
from dataclasses import dataclass
from itertools import combinations

from . import laurent as L
from . import matrices as M
from . import schur as S


def euler_form(lam, mu):
    """The Euler form <lam, mu> = sum lam_i mu_i - sum lam_i mu_{i+1},
    indices cyclic mod n."""
    n = len(lam)
    if len(mu) != n:
        raise ValueError("component count mismatch")
    return sum(lam[i] * mu[i] - lam[i] * mu[(i + 1) % n] for i in range(n))


def check_label(A):
    if not M.is_strictly_upper(A) or not M.is_nonneg(A):
        raise ValueError("label must be strictly upper with nonnegative entries")


def check_alpha(alpha, n):
    if len(alpha) != n or any(c < 0 for c in alpha):
        raise ValueError("alpha must be a nonnegative vector of length n")


def segments(A):
    """Expanded list of (top vertex, length) pairs, one per segment copy.

    >>> segments(M.pmat(2, [(1, 2, 2), (2, 4, 1)]))
    [(1, 1), (1, 1), (2, 2)]
    """
    check_label(A)
    out = []
    for i, j, a in sorted(A.entries):
        out.extend([(i, j - i)] * a)
    return out


def dim_vector(A):
    """Dimension vector of M(A): each segment covers consecutive residues.

    >>> dim_vector(M.pmat(2, [(2, 4, 1)]))
    (1, 1)
    """
    n = A.n
    d = [0] * n
    for top, length in segments(A):
        for t in range(top, top + length):
            d[(t - 1) % n] += 1
    return tuple(d)


def dim_rep(A):
    """Total dimension of M(A)."""
    return sum(dim_vector(A))


# ----------------------------------------------------------------------
# linear algebra over a prime field


def _rref(rows, q):
    """Row-reduce over F_q; returns (rref rows without zero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = None
        for k in range(rank, len(rows)):
            if rows[k][col] % q:
                piv = k
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], q - 2, q) if q > 2 else 1
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and rows[k][col] % q:
                c = rows[k][col] % q
                rows[k] = [(x - c * y) % q for x, y in zip(rows[k], rows[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in rows[:rank]], pivots


def _rank(rows, q):
    return len(_rref(rows, q)[0])


def _mat_vec(X, u, q):
    return tuple(sum(a * b for a, b in zip(row, u)) % q for row in X)


def _reduce_by(basis, pivots, w, q):
    """Subtract the basis multiples matching the pivot coordinates of w."""
    w = list(w)
    coords = []
    for row, p in zip(basis, pivots):
        c = w[p] % q
        coords.append(c)
        if c:
            w = [(x - c * y) % q for x, y in zip(w, row)]
    return tuple(w), tuple(coords)


def subspaces(d, q):
    """All subspaces of F_q^d as (rref basis rows, pivot columns).

    >>> sum(1 for _ in subspaces(2, 2))
    5
    """
    yield ((), ())
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            free = []
            for r, p in enumerate(pivots):
                for c in range(p + 1, d):
                    if c not in pivots:
                        free.append((r, c))
            for code in range(q ** len(free)):
                rows = [[0] * d for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                x = code
                for r, c in free:
                    rows[r][c] = x % q
                    x //= q
                yield (tuple(tuple(r) for r in rows), tuple(pivots))


# ----------------------------------------------------------------------
# concrete representations


@dataclass
class ConcreteRep:
    """An explicit F_q representation: dims per vertex 0..n-1 and one
    matrix per arrow v -> v+1 (column-vector convention)."""

    q: int
    n: int
    dims: tuple
    maps: tuple


def concrete_rep(A, q):
    """Build the direct sum of segment modules prescribed by the label."""
    check_label(A)
    n = A.n
    dims = [0] * n
    cells = []
    for top, length in segments(A):
        idx = []
        for t in range(top, top + length):
            v = (t - 1) % n
            idx.append((v, dims[v]))
            dims[v] += 1
        cells.append(idx)
    maps = [[[0] * dims[v] for _ in range(dims[(v + 1) % n])] for v in range(n)]
    for idx in cells:
        for (v, a), (_, b) in zip(idx, idx[1:]):
            maps[v][b][a] = 1
    return ConcreteRep(q, n, tuple(dims), tuple(tuple(tuple(r) for r in m) for m in maps))


def label_of_rep(rep):
    """Recover the segment multiset from arrow-composition ranks.

    With f(i, m) the rank of the m-step composite starting at vertex i,
    the count of segments with top i and length m is
    f(i, m-1) - f(i, m) - f(i-1, m) + f(i-1, m+1).
    """
    n, q = rep.n, rep.q
    total = sum(rep.dims)
    f = [[0] * (total + 2) for _ in range(n)]
    for i in range(n):
        f[i][0] = rep.dims[i]
        cur = [[1 if a == b else 0 for b in range(rep.dims[i])] for a in range(rep.dims[i])]
        for m in range(1, total + 1):
            X = rep.maps[(i + m - 1) % n]
            cur = [
                [sum(X[r][k] * cur[k][c] for k in range(len(cur))) % q for c in range(rep.dims[i])]
                for r in range(len(X))
            ]
            f[i][m] = _rank(cur, q)
    items = []
    for i in range(n):
        for m in range(1, total + 1):
            c = f[i][m - 1] - f[i][m] - f[i - 1][m] + f[i - 1][m + 1]
            if c < 0:
                raise AssertionError("negative segment multiplicity")
            if c:
                items.append((i + 1, i + 1 + m, c))
    return M.pmat(n, items)


# ----------------------------------------------------------------------
# brute-force Hall numbers

CENSUS_FIELDS = (2, 3)
MAX_CENSUS_DIM = 5


def _sub_quot_labels(rep, bases):
    """Labels of the subrepresentation spanned by bases and its quotient.

    bases[v] = (rref rows, pivots) per vertex; returns None if the span
    is not stable under the arrows.
    """
    n, q = rep.n, rep.q
    sub_dims, sub_maps = [], []
    quot_dims, quot_maps = [], []
    nonpiv = []
    for v in range(n):
        rows, pivots = bases[v]
        sub_dims.append(len(rows))
        quot_dims.append(rep.dims[v] - len(rows))
        nonpiv.append([c for c in range(rep.dims[v]) if c not in pivots])
    for v in range(n):
        w = (v + 1) % n
        rows, _ = bases[v]
        trows, tpivots = bases[w]
        smap = [[0] * sub_dims[v] for _ in range(sub_dims[w])]
        for col, b in enumerate(rows):
            img = _mat_vec(rep.maps[v], b, q)
            resid, coords = _reduce_by(trows, tpivots, img, q)
            if any(resid):
                return None
            for r, c in enumerate(coords):
                smap[r][col] = c
        qmap = [[0] * quot_dims[v] for _ in range(quot_dims[w])]
        for col, src in enumerate(nonpiv[v]):
            e = [0] * rep.dims[v]
            e[src] = 1
            img = _mat_vec(rep.maps[v], e, q)
            resid, _ = _reduce_by(trows, tpivots, img, q)
            for r, c in enumerate(nonpiv[w]):
                qmap[r][col] = resid[c]
        sub_maps.append(tuple(tuple(r) for r in smap))
        quot_maps.append(tuple(tuple(r) for r in qmap))
    sub = ConcreteRep(q, n, tuple(sub_dims), tuple(sub_maps))
    quot = ConcreteRep(q, n, tuple(quot_dims), tuple(quot_maps))
    return label_of_rep(sub), label_of_rep(quot)


def submodule_census(C, q):
    """Read-only counts of (sub label, quotient label) over submodules of M(C)."""
    if q not in CENSUS_FIELDS:
        raise ValueError("census supports q in %s" % (CENSUS_FIELDS,))
    if dim_rep(C) > MAX_CENSUS_DIM:
        raise ValueError("census caps the total dimension at %d" % MAX_CENSUS_DIM)
    return _census(C, q)


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _census(C, q):
    rep = concrete_rep(C, q)
    if label_of_rep(rep) != C:
        raise AssertionError("segment recovery failed on the built module")
    per_vertex = [list(subspaces(d, q)) for d in rep.dims]

    out = {}

    def rec(v, chosen):
        if v == rep.n:
            pair = _sub_quot_labels(rep, chosen)
            if pair is not None:
                out[pair] = out.get(pair, 0) + 1
            return
        for basis in per_vertex[v]:
            rec(v + 1, chosen + [basis])

    rec(0, [])
    return types.MappingProxyType(out)


def brute_hall_number(A, B, C, q):
    """Submodules N of M(C) with N iso M(B) and M(C)/N iso M(A).

    >>> E = M.e_unit(1, 2, 2)
    >>> brute_hall_number(E, E, M.mscale(2, E), 2)
    3
    >>> brute_hall_number(E, E, M.mscale(2, E), 3)
    4
    """
    for X in (A, B, C):
        check_label(X)
    da, db, dc = dim_vector(A), dim_vector(B), dim_vector(C)
    if tuple(x + y for x, y in zip(da, db)) != dc:
        return 0
    return submodule_census(C, q).get((B, A), 0)


# ----------------------------------------------------------------------
# endomorphism dimensions


def dim_end(A):
    """dim End(M(A)), counted over pairs of segments of A.

    A map from the segment with top i and length l to the one with top j
    and length m sends the top into radical layer k < m of the target, at
    vertex j + k = i mod n, with an image of length m - k <= l; each such
    k spans one dimension of the Hom space.

    >>> dim_end(M.e_unit(1, 2, 2))
    1
    >>> dim_end(M.mscale(2, M.e_unit(1, 2, 2)))
    4
    >>> dim_end(M.e_unit(1, 3, 2))
    1
    """
    segs = segments(A)
    return sum(
        1
        for i, l in segs
        for j, m in segs
        for k in range(max(0, m - l), m)
        if (j + k - i) % A.n == 0
    )


def tilde_exponent(A):
    """c(A) = dim End M(A) - dim M(A): the twisted basis is u~_A = v^c(A) u_A.

    >>> tilde_exponent(M.mscale(2, M.e_unit(1, 2, 2)))
    2
    """
    return dim_end(A) - dim_rep(A)


# ----------------------------------------------------------------------
# closed-form semisimple products


def qp_eval(f, q):
    return sum(c * q ** d for d, c in f.items())


def semisimple_hall_product(alpha, A):
    """Closed form for u_alpha times u_A; values are polynomials in q.

    >>> E = M.e_unit(1, 2, 2)
    >>> semisimple_hall_product((1, 0), E) == {M.mscale(2, E): {0: 1, 1: 1}}
    True
    >>> semisimple_hall_product((0, 0), E) == {E: {0: 1}}
    True
    """
    check_label(A)
    check_alpha(alpha, A.n)
    # the diagonal w_i = alpha_{i-1} caps no T (see the module docstring)
    wide = M.madd(A, M.diag(alpha[-1:] + alpha[:-1]))
    B = M.madd(M.s_alpha(alpha), M.diag(M.ro(A)))
    out = {}
    for C, term in S.e_mul_upper(B, wide).terms.items():
        L.acc(out, M.offdiag(C), term)
    # q = v^2: every exponent of the kernel is even
    return {C: {e // 2: c for e, c in f.items()} for C, f in out.items()}


def twisted_route_b(alpha, A):
    """Independent route to the twisted product through Hall polynomials.

    u~_alpha u~_A = sum_C v^(<alpha, d(A)> + c(S_alpha) + c(A) - c(C))
    phi^C_{S_alpha, A}(v^2) u~_C with c = tilde_exponent.
    """
    check_label(A)
    base = euler_form(alpha, dim_vector(A))
    base += tilde_exponent(M.s_alpha(alpha)) + tilde_exponent(A)
    out = {}
    for label, phi in semisimple_hall_product(alpha, A).items():
        shift = base - tilde_exponent(label)
        out[label] = L.vshift({2 * d: c for d, c in phi.items()}, shift)
    return out


def enumerate_labels(n, max_sigma, max_dim):
    """All strictly upper labels with entry sum and total dimension capped.

    >>> len(enumerate_labels(2, 1, 2))
    5
    """
    pool = [(i, i + m) for i in range(1, n + 1) for m in range(1, max_dim + 1)]

    def rec(k, sig, dim):
        if k == len(pool):
            yield []
        else:
            i, j = pool[k]
            step = j - i
            top = min(max_sigma - sig, (max_dim - dim) // step)
            for c in range(top + 1):
                for rest in rec(k + 1, sig + c, dim + c * step):
                    yield ([(i, j, c)] if c else []) + rest

    return [M.pmat(n, items) for items in rec(0, 0, 0)]
