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

The census counts the submodules N = (N_v) of M(C) over F_q from rank
tables, without building N or M(C)/N.  A label is read off the ranks
f(i, m) of its m-step composites P_{i,m}: V_i -> V_{i+m} (f(i, 0) = dim V_i):
the segment with top i and length m occurs
f(i, m-1) - f(i, m) - f(i-1, m) + f(i-1, m+1) times.  For each subspace of
each vertex the census tables, once, the ranks dim P_{i,m}(N_i) of the
submodule, the ranks dim(im P_{i,m} + N_w) - dim N_w of the quotient (with
w = i + m), and which subspaces of the next vertex hold its image.  The
arrow-stable tuples are then walked edge by edge and counted by their
rank key, and each distinct key becomes a (sub, quotient) label pair once.

The closed-form product is the one-layer formula of the affine q-Schur
algebra at q = v^2, whose positive part is the Hall algebra (Deng-Du-Fu):
``semisimple_hall_product(alpha, A)`` is the off-diagonal part of the
Schur product ``e_B e_{A + diag(w)}`` with ``w_i = alpha_{i-1}`` and
``B = S_alpha + diag(ro(A))``, so that co(B) = ro(A + diag(w)), with its
v-exponents, which are all even, halved.  The diagonal w caps no T of
``M.one_layer_ts`` (see its docstring), and A is strictly upper, so no
other Gaussian and no exponent of the rule reads the diagonal; distinct
labels of the product keep distinct off-diagonal parts (their row sums
are fixed).  Its values are ``laurent`` dicts in q; the brute-force
census of ``brute_hall_number`` stays its oracle.

The twisted product u~_alpha u~_A is the level-free plus product
``realization.mul_by_semisimple_plus(alpha, A(0))``, and
``twisted_route_b`` computes it from the Hall polynomials.
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
    """Row-reduce over F_q; returns the rref rows without zero rows."""
    rows = [list(r) for r in rows]
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
        rank += 1
    return [tuple(r) for r in rows[:rank]]


def _rank(rows, q):
    return len(_rref(rows, q))


def _mat_vec(X, u, q):
    return tuple(sum(a * b for a, b in zip(row, u)) % q for row in X)


def _reduce_by(basis, pivots, w, q):
    """w less the basis multiples matching its pivot coordinates: zero
    exactly when w lies in the span of the rref basis."""
    w = list(w)
    for row, p in zip(basis, pivots):
        c = w[p] % q
        if c:
            w = [(x - c * y) % q for x, y in zip(w, row)]
    return tuple(w)


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


def _image(X, rows, q):
    """The rref basis, as a tuple of rows, of X applied to span(rows)."""
    return tuple(_rref([_mat_vec(X, b, q) for b in rows], q))


def _images(rep):
    """Per vertex i, rref bases of the images P_{i,m}(V_i) of the m-step
    composites P_{i,m}: V_i -> V_{i+m}, for m = 0, 1, ... while nonzero."""
    n, q = rep.n, rep.q
    out = []
    for i, d in enumerate(rep.dims):
        rows, chain = [tuple(int(a == b) for b in range(d)) for a in range(d)], []
        for m in range(sum(rep.dims) + 1):
            if not rows:
                break
            chain.append(rows)
            rows = _image(rep.maps[(i + m) % n], rows, q)
        out.append(chain)
    return out


def _segment_label(f):
    """The label whose m-step composite from vertex i has rank f[i][m].

    f[i][0] is the dimension at vertex i, and ranks past the end of f[i]
    are zero.  The count of segments with top i and length m is
    f(i, m-1) - f(i, m) - f(i-1, m) + f(i-1, m+1).
    """
    top = max(map(len, f))
    f = [list(row) + [0] * (top + 2 - len(row)) for row in f]
    items = [
        (i + 1, i + 1 + m, f[i][m - 1] - f[i][m] - f[i - 1][m] + f[i - 1][m + 1])
        for i in range(len(f))
        for m in range(1, top + 1)
    ]
    if any(c < 0 for _, _, c in items):
        raise AssertionError("negative segment multiplicity")
    return M.pmat(len(f), items)


def label_of_rep(rep):
    """Recover the segment multiset from arrow-composition ranks
    (``_segment_label``)."""
    return _segment_label([[len(rows) for rows in chain] for chain in _images(rep)])


# ----------------------------------------------------------------------
# brute-force Hall numbers

CENSUS_FIELDS = (2, 3)
MAX_CENSUS_DIM = 5


def submodule_census(C, q):
    """Read-only counts of (sub label, quotient label) over submodules of M(C)."""
    if q not in CENSUS_FIELDS:
        raise ValueError("census supports q in %s" % (CENSUS_FIELDS,))
    if dim_rep(C) > MAX_CENSUS_DIM:
        raise ValueError("census caps the total dimension at %d" % MAX_CENSUS_DIM)
    return _census(C, q)


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _census(C, q):
    """The rank-table census of M(C) (see the module docstring)."""
    rep = concrete_rep(C, q)
    if label_of_rep(rep) != C:
        raise AssertionError("segment recovery failed on the built module")
    n, dims, chains = rep.n, rep.dims, _images(rep)
    subs = [list(subspaces(d, q)) for d in dims]
    index = [{rows: a for a, (rows, _) in enumerate(s)} for s in subs]
    # step[v][a]: X_v(N_a), as an index among the subspaces of vertex v + 1
    step = [
        [index[(v + 1) % n][_image(X, N, q)] for N, _ in subs[v]]
        for v, X in enumerate(rep.maps)
    ]
    # into[w]: (i, m, basis of im P_{i,m}) for the composites ending at w
    into = [[] for _ in range(n)]
    for i, chain in enumerate(chains):
        for m in range(1, len(chain)):
            into[(i + m) % n].append((i, m, chain[m]))

    def excess(rows, w, b):
        """dim(span(rows) + N_b) - dim N_b, for subspace b of vertex w."""
        T, pivots = subs[w][b]
        return _rank([_reduce_by(T, pivots, x, q) for x in rows], q)

    def ranks(v, a):
        """Subspace a of vertex v's share of the key: dim N_a, the ranks
        dim P_{v,m}(N_a), and the quotient ranks of the composites into v."""
        down, c = [], a
        for m in range(1, len(chains[v])):
            c = step[(v + m - 1) % n][c]
            down.append(len(subs[(v + m) % n][c][0]))
        up = tuple(excess(img, v, a) for _, _, img in into[v])
        return len(subs[v][a][0]), tuple(down), up

    sig = [[ranks(v, a) for a in range(len(subs[v]))] for v in range(n)]
    # succ[v][a]: the subspaces b of vertex w = v + 1 with X_v(N_a) inside N_b
    succ = []
    for v, row in enumerate(step):
        w = (v + 1) % n
        above = {
            c: [b for b in range(len(subs[w])) if not excess(subs[w][c][0], w, b)]
            for c in set(row)
        }
        succ.append([above[c] for c in row])
    closing = [set(row) for row in succ[-1]]
    counts = {}

    def rec(v, first, prev, key):
        if v == n:
            if first in closing[prev]:
                counts[key] = counts.get(key, 0) + 1
            return
        for b in succ[v - 1][prev]:
            rec(v + 1, first, b, key + (sig[v][b],))

    for a in range(len(subs[0])):
        rec(1, a, a, (sig[0][a],))
    out = {}
    for key, c in counts.items():
        f_sub = [[k, *down] for k, down, _ in key]
        f_quot = [[d - k] + [0] * (len(ch) - 1) for d, (k, _, _), ch in zip(dims, key, chains)]
        for w, (_, _, up) in enumerate(key):
            for (i, m, _), r in zip(into[w], up):
                f_quot[i][m] = r
        sub, quot = _segment_label(f_sub), _segment_label(f_quot)
        if tuple(x + y for x, y in zip(dim_vector(sub), dim_vector(quot))) != dims:
            raise AssertionError("census pair dimensions do not add up to d(C)")
        out[sub, quot] = out.get((sub, quot), 0) + c
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
