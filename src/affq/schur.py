"""Convolution algebra on pairs of periodic step functions of level r.

Elements are Laurent-coefficient combinations of basis labels drawn from
the nonnegative periodic matrices of a fixed size ``sigma(A) = r``.  Two
bases are supported: the standard basis ``e_A`` and the normalized basis
``[A] = v^(-d_A) e_A`` where ``d_A`` counts inversions between entry
pairs of the label.  Elements share coefficient dicts, never mutated (see
``laurent``).

Products are available through two independent routes:

* ``oracle_mul`` realizes ``e_B e_A`` by the defining action on the
  permutation module ``H x_nu`` of the extended affine Hecke algebra,
  ``nu = co(A)`` (see ``hecke``): an element keeps one coefficient per
  shortest coset representative d of ``d W_nu`` instead of all
  ``|W_nu|`` terms of the coset.  It applies T_{d_B} to e_A(x_nu) and
  takes one weighted sum per double coset (see ``oracle_mul``), for
  arbitrary label pairs; it serves as the reference implementation.
* ``e_mul_upper`` / ``e_mul_lower`` / ``n_mul_upper`` / ``n_mul_lower``
  are closed-form multiplication rules that apply when the left factor
  is diagonal plus a single superdiagonal (upper) or subdiagonal
  (lower) layer.

Only the upper rule in the standard basis is implemented, and one per-T
rule, ``upper_term(entry_map(A), T)``, serves three products:
``_e_mul_upper`` sums it over the T of ``M.one_layer_ts``,
``hall.semisimple_hall_product`` reads that table on a wide diagonal (the
Hall product is a Schur product there), and ``realization._plus_rows``
reads the level-free plus product off it on the same wide diagonal.  Each
product builds the entry map of A once; each T then costs one label, A -
tilde(T) + T, built in one pass from that map and the cells of T.
``n_mul_upper`` is a change of basis: ``[B][A] = v^(-d_B - d_A) e_B
e_A``, so each label C of ``e_mul_upper`` has its coefficient shifted by
``d_C - d_B - d_A`` (``test_normalized_rules_match_converted_standard_rules``
checks this basis change).  The index negation ``(i, j) -> (-i, -j)`` is
an automorphism that preserves ``d_A`` and swaps the upper and lower
one-layer shapes, so ``e_mul_lower(C, A) = negate(e_mul_upper(negate C,
negate A))``, and the same for ``n_mul_lower``.  ``oracle_mul`` faces
the standard rules (schur-oracle), and ``oracle_product`` on level
shadows faces the level-free rows that read ``upper_term``
(level-coherence); neither oracle uses these derivations.
"""

import functools
from dataclasses import dataclass

from . import hecke as H
from . import laurent as L
from . import matrices as M
from . import permutations as P


@dataclass
class SchurElement:
    """Formal sum over level-r labels with Laurent coefficients.

    ``basis`` is "e" for the standard basis and "n" for the normalized
    basis.  ``terms`` maps a PeriodicMatrix label to a Laurent dict.
    """

    n: int
    r: int
    basis: str
    terms: dict


def s_zero(n, r, basis="e"):
    return s_from_items(n, r, (), basis)


def s_from_items(n, r, items, basis="e"):
    """Build an element from (label, coeff) pairs, merging duplicates."""
    _check_basis(basis)
    out = {}
    for label, coeff in items:
        _check_label(label, n, r)
        L.acc(out, label, coeff)
    return SchurElement(n, r, basis, out)


def _check_basis(basis):
    if basis not in ("e", "n"):
        raise ValueError("basis must be 'e' or 'n'")


def _check_label(label, n, r):
    """The rule for a basis label of an element of size n and level r."""
    if label.n != n:
        raise ValueError("label size mismatch")
    if M.sigma(label) != r:
        raise ValueError("label level mismatch")
    if not M.is_nonneg(label):
        raise ValueError("labels must be nonnegative")


def basis_element(A, basis="e"):
    """The single basis element attached to a nonnegative label."""
    return s_from_items(A.n, M.sigma(A), [(A, L.one())], basis)


def _check_pair(x, y):
    if x.n != y.n or x.r != y.r:
        raise ValueError("size or level mismatch")
    if x.basis != y.basis:
        raise ValueError("basis mismatch")


def s_add(x, y):
    _check_pair(x, y)
    out = dict(x.terms)
    for label, c in y.terms.items():
        L.acc(out, label, c)
    return SchurElement(x.n, x.r, x.basis, out)


def s_scale(c, x):
    out = {}
    for label, f in x.terms.items():
        g = L.mul(c, f)
        if g:
            out[label] = g
    return SchurElement(x.n, x.r, x.basis, out)


def s_eq(x, y):
    return x == y


def convert(x, basis):
    """Rewrite between the standard and normalized bases.

    e_A = v^(d_A) [A], so moving a term from "e" to "n" shifts its
    coefficient by +d_A and the reverse shifts by -d_A.
    """
    _check_basis(basis)
    if x.basis == basis:
        return SchurElement(x.n, x.r, x.basis, dict(x.terms))
    sign = 1 if basis == "n" else -1
    out = {}
    for label, c in x.terms.items():
        out[label] = L.vshift(c, sign * M.d_exponent(label))
    return SchurElement(x.n, x.r, basis, out)


def text(x):
    parts = []
    for label in sorted(x.terms, key=lambda a: a.entries):
        basis = "e" if x.basis == "e" else "N"
        parts.append("(%s)*%s%s" % (L.text(x.terms[label]), basis, list(label.entries)))
    return " + ".join(parts) if parts else "0"


def to_json(x):
    items = []
    for label in sorted(x.terms, key=lambda a: a.entries):
        items.append(
            {"matrix": M.to_json(label), "coeff": L.json_pairs(x.terms[label])}
        )
    return {"n": x.n, "r": x.r, "basis": x.basis, "terms": items}


def from_json(obj):
    items = [
        (M.from_json(t["matrix"]), L.from_json_pairs(t["coeff"]))
        for t in obj["terms"]
    ]
    n, r = L.json_ints([obj["n"], obj["r"]])
    return s_from_items(n, r, items, obj["basis"])


def negate_element(x):
    """Apply the index negation label by label.

    Negation is an algebra automorphism that preserves d_A, so it acts the
    same way in both bases.
    """
    return SchurElement(x.n, x.r, x.basis, {M.negate(a): c for a, c in x.terms.items()})


# ----------------------------------------------------------------------
# shape helpers for the closed-form rules


def upper_shape(B):
    """Split B as superdiagonal weights alpha plus diagonal beta, or None."""
    n = B.n
    alpha = [0] * n
    beta = [0] * n
    for i, j, a in B.entries:
        if j == i:
            beta[i - 1] = a
        elif j == i + 1:
            alpha[i - 1] = a
        else:
            return None
    return tuple(alpha), tuple(beta)


def _upper_layer(B):
    """upper_shape(B), or ValueError when B is not one-layer upper."""
    shape = upper_shape(B)
    if shape is None:
        raise ValueError("left factor is not of the required one-layer shape")
    return shape


def lower_shape(C):
    """Split C as subdiagonal weights gamma plus diagonal beta, or None;
    gamma_i sits on (i+1, i), the transpose of the cell of alpha_i."""
    return upper_shape(M.transpose(C))


def upper_shapes_for(mu):
    """All superdiagonal-plus-diagonal labels B with co(B) = mu.

    >>> [sorted(B.entries) for B in upper_shapes_for((1, 1))]
    [[(1, 1, 1), (2, 2, 1)], [(2, 2, 1), (2, 3, 1)], [(1, 1, 1), (1, 2, 1)], [(1, 2, 1), (2, 3, 1)]]
    """
    n = len(mu)
    out = []
    for alpha in M.compositions_bounded(tuple(mu[i % n] for i in range(1, n + 1))):
        beta = tuple(mu[i] - alpha[i - 1] for i in range(n))
        out.append(M.madd(M.s_alpha(alpha), M.diag(beta)))
    return out


# ----------------------------------------------------------------------
# closed-form multiplication rules


def e_mul_upper(B, A):
    """Product e_B e_A for B = superdiagonal layer plus diagonal.

    >>> B = M.madd(M.e_unit(1, 2, 2), M.diag((1, 0)))
    >>> A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    >>> text(e_mul_upper(B, A))
    '(1 + v^2)*e[(1, 1, 2)]'
    """
    items = _e_mul_upper(B, A)
    x = s_zero(B.n, M.sigma(A))
    x.terms.update(items)
    return x


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _e_mul_upper(B, A):
    """The terms of e_mul_upper(B, A) as a tuple of (label, coeff) items."""
    if B.n != A.n:
        raise ValueError("size mismatch")
    if M.sigma(B) != M.sigma(A):
        raise ValueError("level mismatch")
    alpha, _ = _upper_layer(B)
    if M.co(B) != M.ro(A):
        return ()
    out = {}
    amap = entry_map(A)
    for T in M.one_layer_ts(A, alpha):
        L.acc(out, *upper_term(amap, T))
    return tuple(out.items())


def entry_map(A):
    """The entries of A that upper_term reads, built once per product: the
    dict {(i, j): a_{i,j}} of the fundamental entries, and the row tails
    {(i, l): sum_{j > l} a_{i,j}} at each cell (i, l) that a T of
    ``M.one_layer_ts(A, alpha)`` can hold, the cells of row i+1 of A moved
    up one row."""
    tails = {}
    for k, j, _ in A.entries:
        i, l = (k - 1, j) if k > 1 else (A.n, j + A.n)
        tails[i, l] = sum(a for i0, j0, a in A.entries if i0 == i and j0 > l)
    return {(i, j): a for i, j, a in A.entries}, tails


def upper_term(amap, T):
    """The term of one candidate T in a one-layer product e_B e_A, amap =
    entry_map(A): the label A - tilde(T) + T and the coefficient v^(2e)
    times the Gaussians [a_{i,l} + t_{i,l} - t_{i-1,l}, t_{i,l}] in v^2,
    e the sum over the cells of T of t_{i,l} (sum_{j > l} a_{i,j} -
    sum_{j > l} t_{i-1,j}).  A first pass over the cells of T keys
    tilde(T) by cell and builds the label, once; a second reads every
    entry and row tail from amap and tilde(T).  Under the cell caps of
    ``M.one_layer_ts`` the label is nonnegative and every Gaussian is
    nonzero.

    >>> A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    >>> C, c = upper_term(entry_map(A), M.e_unit(1, 1, 2))
    >>> sorted(C.entries), L.text(c)
    ([(1, 1, 2)], '1 + v^2')
    """
    cells, tails = amap
    n = T.n
    label = dict(cells)
    below = {}  # tilde(T): t_{i-1,l} at (i, l)
    for i, l, t in T.entries:
        key = (i + 1, l) if i < n else (1, l - n)
        below[key] = t
        label[key] = label.get(key, 0) - t
        label[i, l] = label.get((i, l), 0) + t
    coeff = L.one()
    total = 0
    for i, l, t in T.entries:
        coeff = L.mul(coeff, L.gauss_sq(cells.get((i, l), 0) + t - below.get((i, l), 0), t))
        s = tails[i, l]
        for (k, j), u in below.items():
            if k == i and j > l:
                s -= u
        total += t * s
    entries = tuple(sorted((i, j, a) for (i, j), a in label.items() if a))
    return M.PeriodicMatrix(n, entries), L.vshift(coeff, 2 * total)


def e_mul_lower(C, A):
    """Product e_C e_A for C = subdiagonal layer plus diagonal, derived
    from the upper rule by index negation.

    >>> C = M.madd(M.e_unit(2, 1, 2), M.diag((0, 1)))
    >>> A = M.madd(M.e_unit(1, 2, 2), M.diag((0, 1)))
    >>> text(e_mul_lower(C, A))
    '(1 + v^2)*e[(2, 2, 2)]'
    """
    return negate_element(e_mul_upper(M.negate(C), M.negate(A)))


def n_mul_upper(B, A):
    """Product [B][A] in the normalized basis, upper one-layer left factor,
    read off e_mul_upper by the change of basis [A] = v^(-d_A) e_A."""
    return SchurElement(B.n, M.sigma(A), "n", dict(_n_mul_upper(B, A)))


def _n_mul_upper(B, A):
    """The terms of n_mul_upper(B, A) as a list of (label, coeff) items."""
    items = _e_mul_upper(B, A)
    shift = M.d_exponent(B) + M.d_exponent(A)
    return [(C, L.vshift(c, M.d_exponent(C) - shift)) for C, c in items]


def n_mul_lower(C, A):
    """Product [C][A] in the normalized basis, lower one-layer left factor,
    derived from the upper rule by index negation."""
    return negate_element(n_mul_upper(M.negate(C), M.negate(A)))


# ----------------------------------------------------------------------
# generating elements indexed by an off-diagonal label and a weight j


def A_j_r(A, j, r):
    """Sum of v^(mu.j) [A + diag(mu)] over compositions mu of r - sigma(A).

    >>> text(A_j_r(M.pmat(2, []), (1, 0), 2))
    '(v)*N[(1, 1, 1), (2, 2, 1)] + (v^2)*N[(1, 1, 2)] + (1)*N[(2, 2, 2)]'
    """
    return A_j_lambda_r(A, j, (0,) * A.n, r)


def level_shadow(A, j, r):
    """convert(A_j_r(A, j, r), "e"), the level-r shadow of A(j) in the
    standard basis that the oracle reads, from a memo table: each call
    returns a fresh map of terms over the table's shared coefficients.

    >>> text(level_shadow(M.e_unit(2, 1, 2), (1, 0), 2))
    '(v)*e[(1, 1, 1), (2, 1, 1)] + (v^-1)*e[(2, 1, 1), (2, 2, 1)]'
    """
    return SchurElement(A.n, r, "e", dict(_shadow(A, tuple(j), r)))


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _shadow(A, j, r):
    """The terms of level_shadow(A, j, r), read in one pass off the fill
    table of A at lam = 0: the label A + diag(mu) has the coefficient
    v^(mu.j) in the basis "n", so v^(mu.j - d(A + diag(mu))) in "e"."""
    check_symbol(A.n, A, j)
    return tuple(
        (label, L.monomial(M.dot(mu, j) - M.d_exponent(label)))
        for mu, label, _ in _fill_table(A, (0,) * A.n, r)
    )


def check_symbol(n, A, j):
    """The rule for a symbol A(j) of period n: A is a nonnegative label of
    period n with zero diagonal, and j has length n."""
    if A.n != n:
        raise ValueError("label size mismatch")
    if not M.is_zero_diagonal(A) or not M.is_nonneg(A):
        raise ValueError("label must be nonnegative with zero diagonal")
    if len(j) != n:
        raise ValueError("weight length mismatch")


def A_j_lambda_r(A, j, lam, r):
    """Weighted variant with symmetric Gaussian factors in the weights.

    Coefficient of [A + diag(mu)] is v^(mu.j) times the product of the
    symmetric Gaussians (mu_i over lam_i).  With lam = 0 this is A_j_r.
    The weight-free rows come from the fill table of (A, lam, r), so each
    term costs one v-shift.
    """
    n = A.n
    check_symbol(n, A, j)
    if len(lam) != n:
        raise ValueError("weight length mismatch")
    rows = _fill_table(A, tuple(lam), r)
    terms = {label: L.vshift(c, M.dot(mu, j)) for mu, label, c in rows}
    return SchurElement(n, r, "n", terms)


def diag_fill(A, r):
    """The fill table of A at lam = 0: a tuple of rows (mu, A + diag(mu),
    1) over the compositions mu of r - sigma(A), the weight-free part of
    A_j_r; empty when sigma(A) > r.  The tuple is a shared memo entry,
    read-only like every cached value.

    >>> [(mu, sorted(B.entries), c) for mu, B, c in diag_fill(M.e_unit(1, 2, 2), 2)]
    [((0, 1), [(1, 2, 1), (2, 2, 1)], {0: 1}), ((1, 0), [(1, 1, 1), (1, 2, 1)], {0: 1})]
    """
    return _fill_table(A, (0,) * A.n, r)


@functools.lru_cache(maxsize=L.FILL_CACHE_SIZE)
def _fill_table(A, lam, r):
    """The rows (mu, A + diag(mu), prod_i gauss_sym(mu_i, lam_i)) over the
    compositions mu of r - sigma(A), the rows whose product is zero
    (some 0 <= mu_i < lam_i) dropped: every level-r shadow of A(j, lam)
    is these rows with the coefficient shifted by v^(mu.j).  A nonzero
    lam reads its labels off the rows at lam = 0, where each label is
    checked once, as it is built, so that its readers build elements from
    the rows without checking a label again."""
    if any(lam):
        out = []
        for mu, label, _ in _fill_table(A, (0,) * A.n, r):
            c = L.one()
            for m, t in zip(mu, lam):
                if t:
                    c = L.mul(c, L.gauss_sym(m, t))
            if c:
                out.append((mu, label, c))
        return tuple(out)
    s = M.sigma(A)
    if s > r:
        return ()
    one = L.one()  # shared by the rows, never mutated
    rows = tuple((mu, M.madd(A, M.diag(mu)), one) for mu in M.compositions(A.n, r - s))
    for _, label, _ in rows:
        _check_label(label, A.n, r)
    return rows


# ----------------------------------------------------------------------
# reference product through the Hecke algebra, in the modules H x_nu


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _label_reps(A):
    """(d_A, reps) for the double coset W_lam d_A W_nu of the label A, lam
    and nu its row and column sums: the window of pseudo_matrix_rep(A), and
    the frozenset of the shortest windows of the cosets d W_nu inside it,
    the block-sorted windows of u d_A for u in W_lam, which the oracle
    names all at once by the label."""
    d, blocks = P.pseudo_matrix_rep(A), P.blocks(M.co(A))
    reps = set()
    for u in P.young_subgroup_elements(M.ro(A)):
        ud = P.compose(u, d)
        reps.add(tuple(x for b in blocks for x in sorted(ud[p - 1] for p in b)))
    return d, frozenset(reps)


def oracle_mul(B, A):
    """Product e_B e_A computed in the permutation module H x_nu, nu = co(A).

    e_A sends x_nu to the sum of T_d x_nu over the shortest representatives
    d of the cosets d W_nu in W_mu d_A W_nu (mu = ro(A)).  Applying T_{d_B}
    gives g = sum_u c_u T_u x_nu, and x_lam g is e_B e_A (x_nu) times the
    entry factorials f(B) of B.  For w in W_lam, x_lam T_w = v^(2 l(w))
    x_lam, and x_lam T_{d_C} x_nu is f(C) e_C(x_nu), so the coefficient of
    e_C is f(C) / f(B) times the sum of c_u v^(2 (l(u) - l(d_C))) over the
    windows u of g in the double coset of C, divided exactly.

    >>> B = M.madd(M.e_unit(1, 2, 2), M.diag((1, 0)))
    >>> A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    >>> text(oracle_mul(B, A))
    '(1 + v^2)*e[(1, 1, 2)]'
    """
    return SchurElement(B.n, M.sigma(A), "e", dict(_oracle_mul(B, A)))


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _oracle_mul(B, A):
    """The terms of oracle_mul(B, A) as a tuple of (label, coeff) items.
    The first window of g in a double coset names its label C, by
    P.double_coset_matrix, for every coset window of C."""
    if B.n != A.n:
        raise ValueError("size mismatch")
    r = M.sigma(A)
    if M.sigma(B) != r:
        raise ValueError("level mismatch")
    if not (M.is_nonneg(A) and M.is_nonneg(B)):
        raise ValueError("labels must be nonnegative")
    if M.co(B) != M.ro(A):
        return ()
    if r == 0:  # the group is trivial and e_0 is the unit
        return ((A, L.one()),)
    lam, nu = M.ro(B), M.co(A)
    g = H.HeckeElement(r, {win: L.one() for win in _label_reps(A)[1]})
    g = H.left_mul_basis(_label_reps(B)[0], g, nu)
    names, sums = {}, {}
    for win, c in g.terms.items():
        if win not in names:
            C = P.double_coset_matrix(lam, win, nu)
            d, reps = _label_reps(C)
            if win not in reps:
                raise AssertionError("window not among its label's coset windows")
            names.update(dict.fromkeys(reps, (C, P.length(d))))
        C, base = names[win]
        L.acc(sums, C, L.vshift(c, 2 * (P.length(win) - base)))
    f = H.coset_factor(B)
    try:
        return tuple((C, L.divexact(L.mul(H.coset_factor(C), s), f)) for C, s in sums.items())
    except ValueError as exc:  # the labels are valid: a failed invariant
        raise AssertionError("oracle division failed: %s" % exc) from None


def _bilinear(items, x, y):
    """Extend a product of basis labels bilinearly to x times y, items(B, A)
    the (label, coeff) terms of the product of B and A.  Every product
    here is zero unless co(B) = ro(A), so y is bucketed by row sums and each
    left label meets only its bucket."""
    rows = {}
    for A, ca in y.terms.items():
        rows.setdefault(M.ro(A), []).append((A, ca))
    out = {}
    for B, cb in x.terms.items():
        for A, ca in rows.get(M.co(B), ()):
            scale = L.mul(cb, ca)
            for label, c in items(B, A):
                L.acc(out, label, L.mul(c, scale))
    return SchurElement(x.n, x.r, x.basis, out)


def oracle_product(x, y):
    """Bilinear extension of oracle_mul to standard-basis elements."""
    _check_pair(x, y)
    if x.basis != "e":
        raise ValueError("oracle products act on the standard basis")
    return _bilinear(_oracle_mul, x, y)


def closed_product_upper(x, y):
    """Bilinear closed-form product; x labels must be one-layer upper."""
    _check_pair(x, y)
    if y.terms:  # _bilinear skips the labels that meet no row sum of y
        for B in x.terms:
            _upper_layer(B)
    return _bilinear(_n_mul_upper if x.basis == "n" else _e_mul_upper, x, y)


def closed_product_lower(x, y):
    """Bilinear closed-form product; x labels must be one-layer lower.
    Derived from the upper product by index negation."""
    _check_pair(x, y)
    return negate_element(closed_product_upper(negate_element(x), negate_element(y)))
