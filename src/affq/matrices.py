"""Periodic ZxZ integer matrices with period n.

A matrix A = (a_{i,j}) indexed by i,j in Z satisfies a_{i,j} = a_{i+n,j+n}
and has finitely many nonzero entries per period.  It is stored by one
fundamental-domain representative per orbit: the entry with row index in
[1, n].  Entries may be negative (intermediate results of the product
formulas need that); predicates gate membership in the nonnegative cone and
its upper/lower/zero-diagonal slices.

A ``PeriodicMatrix`` is an immutable value that keys every product table
and memo of the package, so it is slotted, it hashes once, at
construction, and it pickles by value (``verify`` sends labels to its
workers).  The kernels run per label, many thousand times in a suite, so
the sums and predicates below loop inline rather than through generators.

Row sums, column sums, the total sigma, the row-shift tilde, the transpose,
the index negation, the +/0/- splitting, the exponent d_A of the normalized
Schur basis, the corner-sum order, and the one enumerator of the
auxiliary T matrices of the one-layer product rules all live here.
"""

import functools
import operator
from itertools import product

from . import laurent as L

_set = object.__setattr__


class PeriodicMatrix:
    """A label: the period n and the sorted fundamental entries (i, j, a),
    1 <= i <= n, a != 0.  An immutable value type: its hash is computed
    once, at construction, and it equals only a PeriodicMatrix with the
    same n and entries, never a tuple or a permutation."""

    __slots__ = ("n", "entries", "_hash")

    def __init__(self, n, entries):
        _set(self, "n", n)
        _set(self, "entries", entries)
        _set(self, "_hash", hash((n, entries)))

    def __setattr__(self, *args):
        raise AttributeError("PeriodicMatrix is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not PeriodicMatrix:
            return NotImplemented
        return self._hash == other._hash and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return PeriodicMatrix, (self.n, self.entries)

    def entry(self, i, j):
        """The entry a_{i,j} for arbitrary integers i, j."""
        i0 = (i - 1) % self.n + 1
        shift = i - i0
        j0 = j - shift
        for ei, ej, a in self.entries:
            if ei == i0 and ej == j0:
                return a
        return 0

    def __repr__(self):
        return "pmat(%d, %r)" % (self.n, list(self.entries))


def check_period(n):
    if n < 2:
        raise ValueError("period must be at least 2")


def pmat(n, items=()):
    """Build a PeriodicMatrix from an iterable of (i, j, a); indices are
    reduced to the fundamental domain and zeros dropped."""
    check_period(n)
    acc = {}
    for i, j, a in items:
        i0 = (i - 1) % n + 1
        j0 = j - (i - i0)
        key = (i0, j0)
        val = acc.get(key, 0) + a
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return PeriodicMatrix(n, tuple(sorted((i, j, a) for (i, j), a in acc.items())))


def e_unit(i, j, n):
    """The matrix with a single orbit of ones through (i, j)."""
    return pmat(n, [(i, j, 1)])


def diag(mu):
    """The diagonal matrix with period-one diagonal mu (a vector)."""
    return pmat(len(mu), [(i + 1, i + 1, c) for i, c in enumerate(mu) if c])


def s_alpha(alpha):
    """The superdiagonal matrix sum_i alpha_i E_{i,i+1}."""
    return pmat(len(alpha), [(i + 1, i + 2, c) for i, c in enumerate(alpha) if c])


def t_s_alpha(alpha):
    """The subdiagonal matrix sum_i alpha_i E_{i+1,i}."""
    return pmat(len(alpha), [(i + 2, i + 1, c) for i, c in enumerate(alpha) if c])


def madd(A, B):
    if A.n != B.n:
        raise ValueError("period mismatch")
    return pmat(A.n, list(A.entries) + list(B.entries))


def msub(A, B):
    if A.n != B.n:
        raise ValueError("period mismatch")
    return pmat(A.n, list(A.entries) + [(i, j, -a) for i, j, a in B.entries])


def mscale(c, A):
    return pmat(A.n, [(i, j, c * a) for i, j, a in A.entries])


def transpose(A):
    return pmat(A.n, [(j, i, a) for i, j, a in A.entries])


def tilde(A):
    """Row shift: the matrix with entries a_{i-1,j} at position (i,j)."""
    return pmat(A.n, [(i + 1, j, a) for i, j, a in A.entries])


def negate(A):
    """Index negation (i, j) -> (-i, -j): an involution that swaps the
    strictly upper and strictly lower parts, reindexes row and column sums
    by i -> -i mod n, and preserves sigma and d_A.

    >>> negate(pmat(2, [(1, 2, 3), (2, 2, 1)])).entries
    ((1, 0, 3), (2, 2, 1))
    """
    return _negate(A)


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _negate(A):
    return pmat(A.n, [(-i, -j, a) for i, j, a in A.entries])


def sigma(A):
    """Sum of all fundamental-domain entries (the size of the matrix)."""
    total = 0
    for _, _, a in A.entries:
        total += a
    return total


def ro(A):
    """Row sums over the fundamental rows 1..n."""
    out = [0] * A.n
    for i, _, a in A.entries:
        out[i - 1] += a
    return tuple(out)


def co(A):
    """Column sums over columns 1..n, gathering all periodic copies."""
    out = [0] * A.n
    for _, j, a in A.entries:
        out[(j - 1) % A.n] += a
    return tuple(out)


def split(A):
    """Return (A_plus, A_zero, A_minus): strictly upper, diagonal, strictly
    lower parts.  The sign of j - i is shift invariant, so the test on the
    fundamental representative is well defined."""
    up, dg, lo = [], [], []
    for i, j, a in A.entries:
        (up if j > i else dg if j == i else lo).append((i, j, a))
    return pmat(A.n, up), pmat(A.n, dg), pmat(A.n, lo)


def offdiag(A):
    """A with its diagonal removed (the two strict triangles)."""
    return pmat(A.n, [(i, j, a) for i, j, a in A.entries if i != j])


def is_nonneg(A):
    for _, _, a in A.entries:
        if a < 0:
            return False
    return True


def is_strictly_upper(A):
    return all(j > i for i, j, a in A.entries)


def is_zero_diagonal(A):
    for i, j, _ in A.entries:
        if i == j:
            return False
    return True


def d_exponent(A):
    """The exponent d_A = sum over pairs a_{i,j} a_{k,l} with k <= i, l > j,
    counting all periodic shifts of the second index pair.

    For fundamental entries (i,j) and (k0,l0), the shifts s with
    k0+sn <= i and l0+sn > j form the integer interval
    (j-l0)/n < s <= (i-k0)/n, of size (i-k0)//n - (j-l0)//n when positive.
    """
    return _d_exponent(A)


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _d_exponent(A):
    if not is_nonneg(A):
        raise ValueError("d_exponent needs a nonnegative matrix")
    n = A.n
    total = 0
    for i, j, a in A.entries:
        for k0, l0, b in A.entries:
            cnt = (i - k0) // n - (j - l0) // n
            if cnt > 0:
                total += a * b * cnt
    return total


def corner_upper(A, i, j):
    """sum_{s <= i, t >= j} a_{s,t} (finite by periodicity)."""
    n = A.n
    total = 0
    for s0, t0, a in A.entries:
        cnt = (i - s0) // n + (t0 - j) // n + 1
        if cnt > 0:
            total += a * cnt
    return total


def _upper_corners_leq(A, B):
    """Every upper corner sum (i < j) of A is bounded by the same sum of B.
    By periodicity only rows 1..n need checking, with the column swept to
    the supports' reach."""
    n = A.n
    support = A.entries + B.entries
    for i in range(1, n + 1):
        jmax = max((t0 + n * ((i - s0) // n) for s0, t0, _ in support), default=i)
        for j in range(i + 1, jmax + 1):
            if corner_upper(A, i, j) > corner_upper(B, i, j):
                return False
    return True


def preceq(A, B):
    """The dominance-style order: A precedes B when every upper corner sum
    (i < j) and every lower corner sum (i > j) of A is bounded by the same
    sum of B.  The lower sums are the upper sums of the negated matrices."""
    if A.n != B.n:
        raise ValueError("period mismatch")
    return _upper_corners_leq(A, B) and _upper_corners_leq(negate(A), negate(B))


def compositions_bounded(caps):
    """All integer vectors x with 0 <= x_i <= caps[i], lexicographic order.

    >>> list(compositions_bounded((1, 2)))
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    """
    if not all(c >= 0 for c in caps):
        raise ValueError("caps must be nonnegative")
    yield from product(*(range(c + 1) for c in caps))


def _bounded_rows(total, caps):
    """All tuples 0 <= t_k <= caps[k] with sum equal to total."""
    if not caps:
        if total == 0:
            yield ()
        return
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for t in range(min(caps[0], total) + 1):
        for rest in _bounded_rows(total - t, caps[1:]):
            yield (t,) + rest


def one_layer_ts(A, alpha):
    """The auxiliary matrices T of a one-layer product e_B e_A, B the
    superdiagonal layer alpha plus a diagonal: T >= 0 with ro(T) = alpha,
    row i of T on the support cells of row i+1 of A, each cell (i, j)
    capped by min(alpha_i, a_{i+1,j}).  A larger t_{i,j} would give the
    label A - tilde(T) + T a negative entry at (i+1, j) or make the
    Gaussian there vanish.  Row i takes the cell (i, i+1) first, then the
    others in column order; row 1 varies slowest.  On Hall's wide diagonal
    A + diag(w), w_i = alpha_{i-1}, the cell (i, i+1) is capped by alpha_i.

    >>> A = pmat(2, [(2, 1, 1), (2, 2, 1), (2, 3, 3)])
    >>> [T.entries for T in one_layer_ts(A, (2, 0))]
    [((1, 3, 2),), ((1, 1, 1), (1, 3, 1)), ((1, 2, 1), (1, 3, 1)), ((1, 1, 1), (1, 2, 1))]
    """
    rows = []
    for i in range(1, A.n + 1):
        cap = alpha[i - 1]
        cells = sorted(row_support(A, i + 1), key=lambda cell: cell[0] != i + 1)
        rows.append(
            [
                [(i, j, t) for (j, _), t in zip(cells, vals) if t]
                for vals in _bounded_rows(cap, [min(cap, a) for _, a in cells])
            ]
        )
    for choice in product(*rows):
        yield pmat(A.n, [cell for row in choice for cell in row])


def dot(a, b):
    """Componentwise dot product of two integer vectors."""
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return sum(map(operator.mul, a, b))


def row_support(A, i):
    """Sorted (column, value) pairs of row i, for any integer row index."""
    i0 = (i - 1) % A.n + 1
    shift = i - i0
    return sorted((j + shift, a) for k, j, a in A.entries if k == i0)


def to_json(A):
    return {"n": A.n, "entries": [[i, j, a] for i, j, a in A.entries]}


def from_json(obj):
    (n,) = L.json_ints([obj["n"]])
    return pmat(n, [L.json_ints(entry) for entry in obj["entries"]])


def compositions(n, r):
    """All vectors in N^n with component sum r, in lexicographic order."""
    return _bounded_rows(r, (r,) * n)


def band_matrices(n, r, band):
    """All nonnegative periodic matrices of size r supported on the band
    |j - i| <= band (fundamental rows)."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(i - band, i + band + 1)]
    for values in compositions(len(cells), r):
        yield pmat(n, [(i, j, a) for (i, j), a in zip(cells, values) if a])
