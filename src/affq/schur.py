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
  ``|W_nu|`` terms of the coset.  It composes double-coset sums and peels
  the result back into basis labels.  It works for arbitrary label pairs
  and serves as the reference implementation.
* ``e_mul_upper`` / ``e_mul_lower`` / ``n_mul_upper`` / ``n_mul_lower``
  are closed-form multiplication rules that apply when the left factor
  is diagonal plus a single superdiagonal (upper) or subdiagonal
  (lower) layer.

Only the upper rule in the standard basis is implemented, and one per-T
rule, ``upper_term(A, T)``, serves three products: ``_e_mul_upper`` sums
it over the capped T, ``hall.semisimple_hall_product`` reads that table on
a wide diagonal (the Hall product is a Schur product there), and
``realization._plus_rows`` reads the level-free plus product off it on the
same wide diagonal.
``n_mul_upper`` is a change of basis: ``[B][A] = v^(-d_B - d_A) e_B
e_A``, so each label C of ``e_mul_upper`` has its coefficient shifted by
``d_C - d_B - d_A`` (``test_normalized_rules_match_converted_standard_rules``
checks this basis change).  The index negation ``(i, j) -> (-i, -j)`` is
an automorphism that preserves ``d_A`` and swaps the upper and lower
one-layer shapes, so ``e_mul_lower(C, A) = negate(e_mul_upper(negate C,
negate A))``, and the same for ``n_mul_lower``.  The oracles are unchanged:
``oracle_mul`` faces the standard rules (schur-oracle), the level-free
realization faces the normalized ones (level-coherence), and neither
uses these derivations.
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
    if basis not in ("e", "n"):
        raise ValueError("basis must be 'e' or 'n'")
    out = {}
    for label, coeff in items:
        if label.n != n:
            raise ValueError("label size mismatch")
        if M.sigma(label) != r:
            raise ValueError("label level mismatch")
        if not M.is_nonneg(label):
            raise ValueError("labels must be nonnegative")
        L.acc(out, label, coeff)
    return SchurElement(n, r, basis, out)


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
    return (
        x.n == y.n
        and x.r == y.r
        and x.basis == y.basis
        and x.terms == y.terms
    )


def convert(x, basis):
    """Rewrite between the standard and normalized bases.

    e_A = v^(d_A) [A], so moving a term from "e" to "n" shifts its
    coefficient by +d_A and the reverse shifts by -d_A.
    """
    if basis not in ("e", "n"):
        raise ValueError("basis must be 'e' or 'n'")
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


def _exp_upper_e(A, T):
    total = 0
    for i, l, t in T.entries:
        s = sum(a for j, a in M.row_support(A, i) if j > l)
        s -= sum(tv for j, tv in M.row_support(T, i - 1) if j > l)
        total += t * s
    return 2 * total


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
    n = B.n
    if M.co(B) != M.ro(A):
        return ()
    # cell caps t_{i,j} <= a_{i+1,j}: row i of T sits under row i+1 of A
    cells = [M.row_support(A, i + 1) for i in range(1, n + 1)]
    out = {}
    for T in M.capped_row_matrices(alpha, cells):
        L.acc(out, *upper_term(A, T))
    return tuple(out.items())


def upper_term(A, T):
    """The term of one candidate T in a one-layer product e_B e_A: the
    label A - tilde(T) + T and the coefficient v^(_exp_upper_e(A, T))
    times the Gaussians [a_{i,j} + t_{i,j} - t_{i-1,j}, t_{i,j}] in v^2.
    Under the caps t_{i-1,j} <= a_{i,j} of its T the label is nonnegative
    and every Gaussian is nonzero.

    >>> C, c = upper_term(M.madd(M.e_unit(2, 1, 2), M.diag((1, 0))), M.e_unit(1, 1, 2))
    >>> sorted(C.entries), L.text(c)
    ([(1, 1, 2)], '1 + v^2')
    """
    coeff = L.one()
    for i, j, t in T.entries:
        coeff = L.mul(coeff, L.gauss_sq(A.entry(i, j) + t - T.entry(i - 1, j), t))
    return M.madd(M.msub(A, M.tilde(T)), T), L.vshift(coeff, _exp_upper_e(A, T))


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
    items = _e_mul_upper(B, A)
    shift = M.d_exponent(B) + M.d_exponent(A)
    out = {C: L.vshift(c, M.d_exponent(C) - shift) for C, c in items}
    return SchurElement(B.n, M.sigma(A), "n", out)


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
    """
    n = A.n
    check_symbol(n, A, j)
    if len(lam) != n:
        raise ValueError("weight length mismatch")
    out = {}
    for mu, label in diag_fill(A, r):
        coeff = L.monomial(M.dot(mu, j))
        for mi, li in zip(mu, lam):
            if li:
                coeff = L.mul(coeff, L.gauss_sym(mi, li))
            if not coeff:
                break
        if coeff:
            L.acc(out, label, coeff)
    return SchurElement(n, r, "n", out)


def diag_fill(A, r):
    """Tuple of (mu, A + diag(mu)) over the compositions mu of r - sigma(A),
    the weight-free part of A_j_lambda_r; empty when sigma(A) > r.  The
    tuple is a shared memo entry, read-only like every cached value.

    >>> [(mu, sorted(B.entries)) for mu, B in diag_fill(M.e_unit(1, 2, 2), 2)]
    [((0, 1), [(1, 2, 1), (2, 2, 1)]), ((1, 0), [(1, 1, 1), (1, 2, 1)])]
    """
    return _diag_fill(A, r)


@functools.lru_cache(maxsize=L.FILL_CACHE_SIZE)
def _diag_fill(A, r):
    s = M.sigma(A)
    if s > r:
        return ()
    return tuple((mu, M.madd(A, M.diag(mu))) for mu in M.compositions(A.n, r - s))


# ----------------------------------------------------------------------
# reference product through the Hecke algebra, in the modules H x_nu


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _window_length(win):
    return P.length(P.AffinePermutation(len(win), win))


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _coset_reps(lam, win, nu):
    """Frozenset of the shortest windows of the cosets d W_nu inside
    W_lam d W_nu: the block-sorted windows of u d for u in W_lam."""
    d = P.AffinePermutation(len(win), win)
    reps = set()
    for u in P.young_subgroup_elements(lam):
        ud = P.compose(u, d).window
        reps.add(tuple(x for b in P.blocks(nu) for x in sorted(ud[p - 1] for p in b)))
    return frozenset(reps)


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _label_reps(A):
    """_coset_reps of the double coset of label A, cached per label."""
    d = P.pseudo_matrix_rep(A).window
    return _coset_reps(M.ro(A), d, M.co(A))


def _decompose(h, lam, nu):
    """Peel an element of H x_nu, a sum of double cosets W_lam d W_nu, into
    labels with coefficients."""
    cur = dict(h.terms)
    out = {}
    while cur:
        best = min(cur, key=lambda w: (_window_length(w), w))
        c = cur[best]
        before = len(cur)
        for win in _coset_reps(lam, best, nu):
            if cur.pop(win, None) != c:
                raise AssertionError("coefficients differ across a double coset")
        if len(cur) >= before:
            raise AssertionError("support did not shrink during peeling")
        out[P.jmath(lam, P.AffinePermutation(len(best), best), nu)] = c
    return out


def oracle_mul(B, A):
    """Product e_B e_A computed in the permutation module H x_nu, nu = co(A).

    e_A sends x_nu to the sum of T_d x_nu over the shortest representatives
    d of the cosets d W_nu in W_mu d_A W_nu (mu = ro(A)).  Applying T_{d_B},
    then x_lam, gives e_B e_A (x_nu) times the entry factorials of B; the
    result is peeled into standard basis labels, and each coefficient is
    divided exactly by those factorials.

    >>> B = M.madd(M.e_unit(1, 2, 2), M.diag((1, 0)))
    >>> A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    >>> text(oracle_mul(B, A))
    '(1 + v^2)*e[(1, 1, 2)]'
    """
    return SchurElement(B.n, M.sigma(A), "e", dict(_oracle_mul(B, A)))


@functools.lru_cache(maxsize=L.ORACLE_CACHE_SIZE)
def _oracle_mul(B, A):
    """The terms of oracle_mul(B, A) as a tuple of (label, coeff) items."""
    if B.n != A.n:
        raise ValueError("size mismatch")
    r = M.sigma(A)
    if M.sigma(B) != r:
        raise ValueError("level mismatch")
    if not (M.is_nonneg(A) and M.is_nonneg(B)):
        raise ValueError("labels must be nonnegative")
    if M.co(B) != M.ro(A):
        return ()
    lam, nu = M.ro(B), M.co(A)
    g = H.HeckeElement(r, {win: L.one() for win in _label_reps(A)})
    g = H.left_mul_basis(P.pseudo_matrix_rep(B), g, nu)
    g = H.x_mul_left(lam, g, nu)
    f = H.coset_factor(B)
    try:
        return tuple((C, L.divexact(c, f)) for C, c in _decompose(g, lam, nu).items())
    except ValueError as exc:  # the labels are valid: a failed invariant
        raise AssertionError("oracle peeling failed: %s" % exc) from None


def _bilinear(mul, x, y):
    """Extend a product of basis labels bilinearly to x times y.  Every mul
    here is zero unless co(B) = ro(A), so y is bucketed by row sums and each
    left label meets only its bucket."""
    rows = {}
    for A, ca in y.terms.items():
        rows.setdefault(M.ro(A), []).append((A, ca))
    out = {}
    for B, cb in x.terms.items():
        for A, ca in rows.get(M.co(B), ()):
            piece = mul(B, A)
            scale = L.mul(cb, ca)
            for label, c in piece.terms.items():
                L.acc(out, label, L.mul(c, scale))
    return SchurElement(x.n, x.r, x.basis, out)


def oracle_product(x, y):
    """Bilinear extension of oracle_mul to standard-basis elements."""
    _check_pair(x, y)
    if x.basis != "e":
        raise ValueError("oracle products act on the standard basis")
    return _bilinear(oracle_mul, x, y)


def closed_product_upper(x, y):
    """Bilinear closed-form product; x labels must be one-layer upper."""
    _check_pair(x, y)
    if y.terms:  # _bilinear skips the labels that meet no row sum of y
        for B in x.terms:
            _upper_layer(B)
    return _bilinear(n_mul_upper if x.basis == "n" else e_mul_upper, x, y)


def closed_product_lower(x, y):
    """Bilinear closed-form product; x labels must be one-layer lower.
    Derived from the upper product by index negation."""
    _check_pair(x, y)
    return negate_element(closed_product_upper(negate_element(x), negate_element(y)))
