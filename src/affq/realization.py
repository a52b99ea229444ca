"""Level-free elements A(j) over all convolution algebras at once.

A basis symbol A(j) pairs an integer periodic matrix A with zero diagonal
and nonnegative off-diagonal entries with an integer weight vector j; its
level-r shadow is the sum of v^(mu.j) [A + diag(mu)] over all diagonal
completions mu of size r - sigma(A).  The span of these symbols is closed
under multiplication by the diagonal elements 0(j') and by the one-layer
elements S_alpha(0) (superdiagonal) and their transposes (subdiagonal);
this module implements those products by closed formulas, the reduction of
Gaussian-weighted symbols A(j, lambda) to plain symbols, evaluation at a
level, and the structural checks built from them.  The symbols A(j) are a
basis of the level-free algebra, so the commutator relation
(``relation_e_difference``) is decided on the symbols themselves: it holds
exactly when lhs - rhs is the zero element, with no level evaluated.

Coefficients are quotients of Laurent polynomials: the reduction step and
the commutation coefficients introduce denominators, while every level
evaluation clears them (asserted on each label's cross-denominator sum).

Only the superdiagonal product ``mul_by_semisimple_plus`` has a closed
formula here, read off the level-r rule: the level-free structure
constants are the level-r ones with the diagonal made formal
(Beilinson-Lusztig-MacPherson).  For each T of ``M.one_layer_ts`` on
Hall's wide diagonal wide = A + diag(w), w_i = alpha_{i-1},
``S.upper_term(S.entry_map(wide), T)`` gives the label C and coefficient
c of T in e_B e_wide, B = S_alpha + diag(ro A); the entry map of wide is
built once per (alpha, A).  The term of A(j) is
(offdiag C)(j + shift, delta) with delta = diag(T) and shift =
``_j_shift_plus(T)``; its coefficient is c divided exactly by the
Gaussians gauss_sym(nu_i, t_ii), nu = diag(C), which the reduction of the
weighted symbol applies, times v^(d_C - d_wide - d_B - nu.shift + j.(w -
nu)).  The weight j enters only through v^(j.(w - nu)), so the product
reads one weight-free table of rows per (alpha, A) and applies it to
every weight.  The test suite keeps the hand-derived per-T rule,
evaluated at each weight, as its reference.

The subdiagonal product is its conjugate under the index negation
(i, j) -> (-i, -j), which sends A(j) to (negate A)(j') with
j'[-p-2 mod n] = j[p] for 0-based vertex indices p (vertex p+1 goes to
-(p+1)): ``mul_by_semisimple_minus(alpha, x)`` is the negation of
``mul_by_semisimple_plus(alpha', negation of x)``, alpha'[-p-3 mod n] =
alpha[p] (the cell (p+2, p+1) goes to the superdiagonal cell
(-p-2, -p-1)).

The two products share one loop over signed rows (label, coeff, jc,
steps): the term of A(j) is coeff v^(j.jc) c on label(j + k) for each
step (k, c).  The plus rows, ``_plus_rows``, carry the reduction of
label(j + shift, delta) expanded into the steps (shift + k, c) of
``_lambda_table(delta)``.  The minus rows, ``_minus_rows``, are the plus
rows of (alpha', negate A) with the label negated and jc and every k
mapped by the weight negation ``_negate_weight``: the index negation is
applied once per (alpha, A) key of one bounded table, and the mirror rule
stays derived from the one plus rule.
"""

import functools
from dataclasses import dataclass
from itertools import product as iproduct

from . import hall as Ha
from . import laurent as L
from . import matrices as M
from . import schur as S


@dataclass
class VElement:
    """Finitely supported map (label, weight vector) -> LaurentFraction."""

    n: int
    terms: dict


def v_zero(n):
    return VElement(n, {})


def v_basis(n, A, j):
    """The single symbol A(j) with coefficient one."""
    S.check_symbol(n, A, j)
    return VElement(n, {(A, tuple(j)): L.FRAC_ONE})


def _vacc(out, key, f):
    cur = out.get(key)
    f = L.frac_add(cur, f) if cur is not None else f
    if L.frac_is_zero(f):
        out.pop(key, None)
    else:
        out[key] = f


def v_add(x, y):
    if x.n != y.n:
        raise ValueError("size mismatch")
    out = dict(x.terms)
    for key, f in y.terms.items():
        _vacc(out, key, f)
    return VElement(x.n, out)


def v_neg(x):
    return VElement(x.n, {k: L.frac_neg(f) for k, f in x.terms.items()})


def v_sub(x, y):
    return v_add(x, v_neg(y))


def v_scale(c, x):
    """Multiply by a LaurentFraction (or a Laurent polynomial dict)."""
    if isinstance(c, dict):
        c = L.fraction(c)
    if L.frac_is_zero(c):
        return v_zero(x.n)
    return VElement(x.n, {k: L.frac_mul(c, f) for k, f in x.terms.items()})


def text(x):
    """
    >>> text(v_basis(2, M.e_unit(1, 2, 2), (0, 1)))
    '(1)*[(1, 2, 1)](0, 1)'
    """
    if not x.terms:
        return "0"
    bits = []
    for A, j in sorted(x.terms, key=lambda k: (k[0].entries, k[1])):
        f = x.terms[(A, j)]
        if f.den == L.one():
            c = L.text(f.num)
        else:
            c = "%s / %s" % (L.text(f.num), L.text(f.den))
        body = ", ".join(str(t) for t in A.entries)
        bits.append("(%s)*[%s]%s" % (c, body, str(tuple(j))))
    return " + ".join(bits)


def to_json(x):
    terms = []
    for A, j in sorted(x.terms, key=lambda k: (k[0].entries, k[1])):
        f = x.terms[(A, j)]
        terms.append(
            {
                "matrix": M.to_json(A),
                "j": list(j),
                "coeff_num": L.json_pairs(f.num),
                "coeff_den": L.json_pairs(f.den),
            }
        )
    return {"n": x.n, "terms": terms}


def from_json(obj):
    """Read the form ``to_json`` writes: a repeated symbol raises
    ValueError, and a term with a zero numerator is dropped."""
    (n,) = L.json_ints([obj["n"]])
    M.check_period(n)
    out = {}
    for t in obj["terms"]:
        A = M.from_json(t["matrix"])
        j = L.json_ints(t["j"])
        f = L.LaurentFraction(
            L.from_json_pairs(t["coeff_num"]), L.from_json_pairs(t["coeff_den"])
        )
        S.check_symbol(n, A, j)
        if (A, j) in out:
            raise ValueError("repeated symbol [%s]%s" % (", ".join(map(str, A.entries)), j))
        out[(A, j)] = f
    return VElement(n, {k: f for k, f in out.items() if not L.frac_is_zero(f)})


# ----------------------------------------------------------------------
# reduction of Gaussian-weighted symbols to the plain basis


def _shift_coeffs(t):
    """The coefficients {k: c_k} with (x over t)_sym = sum_k c_k v^(k*x).

    The symmetric Gaussian in a formal exponent x is
    prod_{s=1..t} (v^(x-s+1) - v^(-x+s-1)) / (v^s - v^-s); expanding the
    numerator as a Laurent polynomial in X = v^x gives exponents
    k in {-t, -t+2, ..., t}.
    """
    num = {0: L.one()}
    for s in range(1, t + 1):
        nxt = {}
        for k, c in num.items():
            for dk, f in ((1, L.monomial(1 - s)), (-1, L.monomial(s - 1, -1))):
                L.acc(nxt, k + dk, L.mul(c, f))
        num = nxt
    den = L.one()
    for s in range(1, t + 1):
        den = L.mul(den, L.sub(L.monomial(s), L.monomial(-s)))
    return {k: L.fraction(c, den) for k, c in num.items()}


def reduce_j_lambda(A, j, lam):
    """Rewrite the weighted symbol A(j, lambda) as a sum of plain A(j + k).

    >>> red = reduce_j_lambda(M.pmat(2, []), (0, 0), (1, 0))
    >>> sorted(j for (_, j) in red.terms)
    [(-1, 0), (1, 0)]
    >>> len(reduce_j_lambda(M.pmat(2, []), (0, 0), (2, 0)).terms)
    3
    """
    n = A.n
    S.check_symbol(n, A, j)
    Ha.check_alpha(lam, n)
    table = _lambda_table(tuple(lam))
    return VElement(n, {(A, tuple(a + b for a, b in zip(j, k))): f for k, f in table})


@functools.lru_cache(maxsize=L.CACHE_SIZE)
def _lambda_table(lam):
    """The (shift k, prod_i _shift_coeffs(lam_i)[k_i]) pairs of reduce_j_lambda.

    A zero part has the single factor 1, which is not multiplied in, so
    the one row of an all-zero lam is L.FRAC_ONE itself.
    """
    tables = [_shift_coeffs(t) for t in lam]
    out = []
    for combo in iproduct(*(sorted(tb) for tb in tables)):
        f = L.FRAC_ONE
        for k, tb, t in zip(combo, tables, lam):
            if t:
                f = L.frac_mul(f, tb[k])
        out.append((combo, f))
    return tuple(out)


# ----------------------------------------------------------------------
# evaluation at a level


def eval_at_level(x, r):
    """The level-r shadow as a normalized-basis element.

    A term A(j) with coefficient num/den is den^-1 times the sum of
    v^(mu.j) num [A + diag(mu)] over the rows of S.diag_fill(A, r): each
    symbol is checked by S.check_symbol, the rule A_j_r applies, and each
    row adds the shifted numerator straight into the group of terms
    sharing its denominator (at a zero shift the numerator itself, shared
    and never mutated), so no Schur element and no monomial product is
    built per term.  Each label is then cleared once: a label in one
    group by a single exact division of its summed numerator; only a label
    spread over several groups is first summed with L.frac_add.  When every
    term has the denominator 1, which most level-coherence calls do, the
    sums are the result and no label is wrapped as a fraction.  The cleared
    sum must be a Laurent polynomial (one group's share need not be): a
    remaining denominator is a failed invariant and raises AssertionError.
    The fill table checked each label as it built it, so the sums become
    the element as they are.

    >>> S.text(eval_at_level(v_basis(2, M.pmat(2, []), (1, 0)), 2))
    '(v)*N[(1, 1, 1), (2, 2, 1)] + (v^2)*N[(1, 1, 2)] + (1)*N[(2, 2, 2)]'
    """
    if r < 0:
        raise ValueError("level must be nonnegative")
    groups = {}
    den = None
    for (A, j), cf in x.terms.items():
        S.check_symbol(x.n, A, j)
        if cf.den != den:  # terms in a row share their denominator's group
            den = cf.den
            group = groups.setdefault(tuple(sorted(den.items())), (den, {}))[1]
        for mu, label, _ in S.diag_fill(A, r):
            k = M.dot(mu, j)
            L.acc(group, label, L.vshift(cf.num, k) if k else cf.num)
    if list(groups) == [((0, 1),)]:  # every denominator is 1
        return S.SchurElement(x.n, r, "n", groups[((0, 1),)][1])
    sums = {}
    for den, group in groups.values():
        for label, num in group.items():
            f = L.LaurentFraction(num, den)
            sums[label] = L.frac_add(sums[label], f) if label in sums else f
    terms = {}
    for label, f in sums.items():
        try:
            c = L.frac_to_laurent(f)
        except ValueError as exc:
            raise AssertionError("level %d leaves a denominator: %s" % (r, exc)) from None
        if c:
            terms[label] = c
    return S.SchurElement(x.n, r, "n", terms)


# ----------------------------------------------------------------------
# generator products


def _mul_diag(x, jprime, sums):
    """Shift every weight by jprime, scaling A(j) by v^(jprime . sums(A))."""
    S.check_symbol(x.n, M.pmat(x.n, []), jprime)  # the generator 0(jprime)
    out = {}
    for (A, j), cf in x.terms.items():
        expo = M.dot(tuple(jprime), sums(A))
        key = (A, tuple(a + b for a, b in zip(jprime, j)))
        _vacc(out, key, L.frac_scale(L.monomial(expo), cf))
    return VElement(x.n, out)


def mul_by_0j(jprime, x):
    """Left product by the diagonal generator: weight shift and v-power.

    >>> text(mul_by_0j((0, 1), v_basis(2, M.e_unit(1, 2, 2), (0, 0))))
    '(1)*[(1, 2, 1)](0, 1)'
    >>> text(mul_by_0j((1, 0), v_basis(2, M.e_unit(1, 2, 2), (0, 0))))
    '(v)*[(1, 2, 1)](1, 0)'
    """
    return _mul_diag(x, jprime, M.ro)


def mul_0j_right(x, jprime):
    """Right product by the diagonal generator (column sums replace rows)."""
    return _mul_diag(x, jprime, M.co)


def _j_shift_plus(T):
    """shift_i = sum_{l < i} (t_{i,l} - t_{i-1,l}) in one pass: a cell (i, l)
    adds to shift_i if l < i and takes from shift_{i+1 mod n} if l <= i."""
    n = T.n
    out = [0] * n
    for i, l, t in T.entries:
        if l < i:
            out[i - 1] += t
        if l <= i:
            out[i % n] -= t
    return tuple(out)


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _plus_rows(alpha, A):
    """The weight-free rows (label, coeff, jc, steps) of the plus product
    on A(j), one per T, read off ``S.upper_term`` on Hall's wide diagonal:
    the term of A(j) is coeff v^(j.jc) c on label(j + k) for each step
    (k, c), the reduction of label(j + shift, delta) expanded into the
    steps (shift + k, c) of _lambda_table(delta) (see the module
    docstring)."""
    n = A.n
    w = alpha[-1:] + alpha[:-1]
    wide = M.madd(A, M.diag(w))
    base = M.d_exponent(wide) + M.d_exponent(M.madd(M.s_alpha(alpha), M.diag(M.ro(A))))
    out = []
    amap = S.entry_map(wide)
    for T in M.one_layer_ts(wide, alpha):
        C, coeff = S.upper_term(amap, T)
        nu = tuple(C.entry(i, i) for i in range(1, n + 1))
        delta = tuple(T.entry(i, i) for i in range(1, n + 1))
        try:
            for x, t in zip(nu, delta):
                if t:
                    coeff = L.divexact(coeff, L.gauss_sym(x, t))
        except ValueError as exc:  # the labels are valid: a failed invariant
            raise AssertionError("plus row division failed: %s" % exc) from None
        shift = _j_shift_plus(T)
        coeff = L.vshift(coeff, M.d_exponent(C) - base - M.dot(nu, shift))
        steps = tuple((_vec_add(shift, k), c) for k, c in _lambda_table(delta))
        out.append((M.offdiag(C), coeff, _vec_sub(w, nu), steps))
    return tuple(out)


def _negate_weight(j):
    """The weight j' of the negated symbol (negate A)(j'): j'_{-i} = j_i
    for vertices i mod n.  An involution."""
    n = len(j)
    return tuple(j[(-p - 2) % n] for p in range(n))


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _minus_rows(alpha, A):
    """The rows of the minus product on A(j), in the form of _plus_rows:
    the plus rows of (alpha', negate A) with the label negated and jc and
    every k mapped by _negate_weight (module docstring)."""
    n = A.n
    alpha_neg = tuple(alpha[(-p - 3) % n] for p in range(n))
    return tuple(
        (M.negate(label), coeff, _negate_weight(jc), tuple((_negate_weight(k), c) for k, c in steps))
        for label, coeff, jc, steps in _plus_rows(alpha_neg, M.negate(A))
    )


def _one_layer_product(rows, alpha, x):
    """The one-layer product of alpha on x that the row table rows
    (_plus_rows or _minus_rows) gives, one pass over the rows of each
    symbol."""
    Ha.check_alpha(alpha, x.n)
    out = {}
    for (A, j), cf in x.terms.items():
        for label, coeff, jc, steps in rows(tuple(alpha), A):
            scalar = L.frac_scale(L.vshift(coeff, M.dot(j, jc)), cf)
            for k, c in steps:
                f = scalar if c is L.FRAC_ONE else L.frac_mul(scalar, c)
                _vacc(out, (label, _vec_add(j, k)), f)
    return VElement(x.n, out)


def mul_by_semisimple_plus(alpha, x):
    """Left product by the superdiagonal one-layer element of weights alpha.

    The candidate matrices T are those of ``M.one_layer_ts`` on Hall's
    wide diagonal (see the module docstring).

    >>> text(mul_by_semisimple_plus((1, 0), v_basis(2, M.pmat(2, []), (0, 1))))
    '(v)*[(1, 2, 1)](0, 1)'
    >>> x = v_basis(2, M.e_unit(1, 2, 2), (0, 0))
    >>> mul_by_semisimple_plus((0, 0), x) == x
    True
    """
    return _one_layer_product(_plus_rows, alpha, x)


def mul_by_semisimple_minus(alpha, x):
    """Left product by the subdiagonal one-layer element of weights alpha,
    conjugate to the plus product under index negation (module docstring).
    """
    return _one_layer_product(_minus_rows, alpha, x)


# ----------------------------------------------------------------------
# structural checks


def cyclic_difference(nu):
    """The weight j with j_i = nu_i - nu_{i-1}, indices cyclic.

    >>> cyclic_difference((1, 0))
    (1, -1)
    """
    n = len(nu)
    return tuple(nu[i] - nu[i - 1] for i in range(n))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def x_coeff(alpha, gamma, lam, mu):
    """The coefficient x_{alpha,gamma} in the mixed commutation relation,
    as a LaurentFraction.

    Preconditions: 0 <= gamma <= alpha <= lam componentwise, alpha <= mu,
    alpha != 0.  The inner alternating sum I(gamma) over the ordered
    decompositions of gamma into nonzero parts is built by its first part
    beta: I(0) = 1 and

        I(g) = -sum_{0 != beta <= g} v^(2<beta, g-beta>) frak_a(beta)
               [g; beta, g-beta]^2 I(g-beta),

    since the cross term of a decomposition is <beta, g-beta> plus that of
    the rest (the Euler form is bilinear), and the multinomial factors as
    [g; beta, g-beta] [g-beta; rest].
    """
    n = len(alpha)
    if not (len(gamma) == len(lam) == len(mu) == n):
        raise ValueError("component count mismatch")
    if any(g < 0 or g > a for g, a in zip(gamma, alpha)):
        raise ValueError("need 0 <= gamma <= alpha")
    if any(a > l for a, l in zip(alpha, lam)) or any(a > m for a, m in zip(alpha, mu)):
        raise ValueError("need alpha <= lam and alpha <= mu")
    if all(a == 0 for a in alpha):
        raise ValueError("need alpha != 0")

    amg = _vec_sub(alpha, gamma)
    lma = _vec_sub(lam, alpha)
    mma = _vec_sub(mu, alpha)
    exp = (
        Ha.euler_form(alpha, lma)
        + Ha.euler_form(mu, _vec_sub(tuple(2 * g for g in gamma), alpha))
        + 2 * Ha.euler_form(gamma, _vec_sub(amg, lam))
        + 2 * sum(alpha)
    )
    head = L.monomial(exp)
    head = L.mul(head, L.multinomial_sq(lam, [amg, lma, gamma]))
    head = L.mul(head, L.multinomial_sq(mu, [amg, mma, gamma]))
    num = L.mul(head, L.mul(L.frak_a(amg), L.mul(L.frak_a(lma), L.frak_a(mma))))
    den = L.mul(L.frak_a(lam), L.frak_a(mu))

    # lexicographic order lists g - beta before g
    inner = {}
    for g in M.compositions_bounded(gamma):
        total = L.zero() if any(g) else L.one()
        for beta in M.compositions_bounded(g):
            if any(beta):
                rest = _vec_sub(g, beta)
                mn = L.multinomial_sq(g, [beta, rest])
                term = L.mul(L.monomial(2 * Ha.euler_form(beta, rest), -1), L.frak_a(beta))
                total = L.add(total, L.mul(L.mul(term, L.mul(mn, mn)), inner[rest]))
        inner[g] = total
    return L.fraction(L.mul(num, inner[gamma]), den)


def relation_e_difference(lam, mu):
    """Commutator identity between lowering and raising one-layer elements,
    as the element lhs - rhs.

    Both sides are assembled from generator products.  The symbols A(j)
    are a basis, so the identity holds exactly when the difference has no
    terms.

    >>> relation_e_difference((2, 0), (1, 0)) == v_zero(2)
    True
    """
    n = len(lam)
    Ha.check_alpha(lam, n)
    Ha.check_alpha(mu, n)
    zero_j = (0,) * n
    plus_elem = v_basis(n, M.s_alpha(lam), zero_j)
    minus_elem = v_basis(n, M.t_s_alpha(mu), zero_j)
    lhs = v_sub(
        mul_by_semisimple_minus(mu, plus_elem),
        mul_by_semisimple_plus(lam, minus_elem),
    )
    twist = Ha.tilde_exponent(M.s_alpha(lam)) + Ha.tilde_exponent(M.s_alpha(mu))
    lhs = v_scale(L.monomial(-twist), lhs)

    rhs = v_zero(n)
    caps = [min(a, b) for a, b in zip(lam, mu)]
    for alpha in M.compositions_bounded(caps):
        if not any(alpha):
            continue
        lam2 = tuple(a - b for a, b in zip(lam, alpha))
        mu2 = tuple(a - b for a, b in zip(mu, alpha))
        base = mul_by_semisimple_plus(lam2, v_basis(n, M.t_s_alpha(mu2), zero_j))
        twist = Ha.tilde_exponent(M.s_alpha(lam2)) + Ha.tilde_exponent(M.s_alpha(mu2))
        shift = L.monomial(-twist)
        for gamma in M.compositions_bounded(alpha):
            x = x_coeff(alpha, gamma, lam, mu)
            nu = tuple(2 * g - a for g, a in zip(gamma, alpha))
            term = mul_by_0j(cyclic_difference(nu), base)
            rhs = v_add(rhs, v_scale(L.frac_scale(shift, x), term))
    return v_sub(lhs, rhs)
