"""Hecke algebra of the window-permutation group, with parameter v squared.

Elements are finite sums of basis symbols T_w keyed by the window tuple
of w, which is the permutation itself (see ``permutations``), with
coefficients in the Laurent ring of v; elements share coefficient dicts,
never mutated (see ``laurent``).  Products reduce to the one-generator
rules

    T_s T_w = T_{sw}                         if length(sw) > length(w),
    T_s T_w = (v^2 - 1) T_w + v^2 T_{sw}     if length(sw) < length(w),

their mirror images T_w T_s on the right, and T_{rho^m} T_w = T_{rho^m w},
T_w T_{rho^m} = T_{w rho^m} for the length-zero shift.  General basis
products factor a basis element into a shift times a reduced word, and
apply the shift first (see ``left_mul_basis`` and ``right_mul_basis``);
``mul`` takes each window of its left factor from the cheaper side.  Sums
of T_w over block subgroups and their double cosets are provided for the
convolution layer.

The left actions also act on the permutation module H x_nu, x_nu the sum
of T_u over the block subgroup W_nu.  An element there is a HeckeElement
whose windows are the shortest d of their cosets d W_nu (increasing on
every block of nu), standing for sum c_d T_d x_nu.  For the generator
(Deodhar's lemma):

    T_s T_d x_nu = (v^2 - 1) T_d x_nu + v^2 T_{sd} x_nu   if sd < d,
    T_s T_d x_nu = T_{sd} x_nu                           if sd > d, sd shortest,
    T_s T_d x_nu = v^2 T_d x_nu                          otherwise (sd = d s'
                                                         with s' in W_nu).

``left_mul_gen``, ``left_mul_basis`` and ``x_mul_left`` take nu; the
regular action is the case nu = (1^r), whose block subgroup is trivial,
and nu = () means the same.  The right actions (``right_mul_gen``,
``right_mul_rho``, ``right_mul_basis``) act on the regular module only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import laurent as L
from . import permutations as P

_V2 = L.monomial(2)
_V2M1 = L.poly({2: 1, 0: -1})


@dataclass
class HeckeElement:
    """Finite sum over window tuples; coefficients are nonzero Laurent dicts."""

    r: int
    terms: dict


def t_basis(w):
    return HeckeElement(len(w), {w: L.one()})


def h_from_items(r, items):
    out = {}
    for win, c in items:
        L.acc(out, tuple(win), c)
    return HeckeElement(r, out)


def h_add(a, b):
    if a.r != b.r:
        raise ValueError("level mismatch")
    out = dict(a.terms)
    for win, c in b.terms.items():
        L.acc(out, win, c)
    return HeckeElement(a.r, out)


def h_scale(c, h):
    if not c:
        return HeckeElement(h.r, {})
    return HeckeElement(h.r, {win: L.mul(c, f) for win, f in h.terms.items()})


def text(h):
    if not h.terms:
        return "0"
    parts = []
    for win in sorted(h.terms):
        parts.append("(" + L.text(h.terms[win]) + ")*T" + str(list(win)))
    return " + ".join(parts)


def _moved(win, pa, pb):
    """The window of s_i w: the entries of w in the classes of i and i + 1,
    at positions pa and pb, moved by +1 and -1."""
    out = list(win)
    out[pa] += 1
    out[pb] -= 1
    return tuple(out)


def left_mul_gen(i, h, nu=()):
    """T_{s_i} * h, in H x_nu when nu is given (see the module docstring).

    One pass over each window finds the 0-based positions pa, pb of its
    entries in the classes of i and i + 1; then w(k) = i and w(k1) = i + 1
    for k = pa + 1 + i - w(pa + 1) and k1 = pb + 2 + i - w(pb + 1).
    """
    r = h.r
    if r < 2:
        raise ValueError("generators need a period r >= 2")
    inner = P.inner_positions(nu)
    ra, rb = i % r, (i + 1) % r
    out = {}
    for win, c in h.terms.items():
        for p, x in enumerate(win):
            m = x % r
            if m == ra:
                pa = p
            elif m == rb:
                pb = p
        k = pa + 1 + i - win[pa]
        k1 = pb + 2 + i - win[pb]
        if k > k1:
            L.acc(out, win, L.mul(c, _V2M1))
            L.acc(out, _moved(win, pa, pb), L.mul(c, _V2))
        elif k1 == k + 1 and pa in inner:  # (k - 1) % r == pa
            L.acc(out, win, L.mul(c, _V2))
        else:
            L.acc(out, _moved(win, pa, pb), c)
    return HeckeElement(r, out)


def left_mul_rho(m, h):
    """T_{rho^m} * h."""
    if m == 0:
        return h
    return HeckeElement(h.r, {tuple(x + m for x in win): c for win, c in h.terms.items()})


def left_mul_basis(w, h, nu=()):
    """T_w * h via a reduced word of w, in H x_nu when nu is given.

    For w = rho^m s_{i_1} ... s_{i_k}, the shift acts first:
    rho s_i rho^-1 = s_{i+1}, so T_w h = T_{s_{i_1+m}} ... T_{s_{i_k+m}}
    T_{rho^m} h, and the shift rebuilds the input instead of the larger
    product.  This is exact in H x_nu too, since rho^m d, like d, increases
    on every block of nu.
    """
    r = h.r
    if len(w) != r:
        raise ValueError("level mismatch")
    m, word = P.reduced_word(w)
    h = left_mul_rho(m, h)
    for i in reversed(word):
        h = left_mul_gen((i + m - 1) % r + 1, h, nu)
    return h


def right_mul_gen(h, i):
    """h * T_{s_i}.

    The window of w s_i swaps w(i) and w(i + 1), where w(r + 1) = w(1) + r,
    and w s_i < w exactly when w(i) > w(i + 1).
    """
    r = h.r
    if r < 2:
        raise ValueError("generators need a period r >= 2")
    q = (i - 1) % r
    q1, lift = (q + 1, 0) if q < r - 1 else (0, r)
    out = {}
    for win, c in h.terms.items():
        x, y = win[q], win[q1] + lift
        ws = list(win)
        ws[q], ws[q1] = y, x - lift
        ws = tuple(ws)
        if x > y:
            L.acc(out, win, L.mul(c, _V2M1))
            L.acc(out, ws, L.mul(c, _V2))
        else:
            L.acc(out, ws, c)
    return HeckeElement(r, out)


def right_mul_rho(h, m):
    """h * T_{rho^m}: the window of w rho^m is w(1 + m), ..., w(r + m)."""
    if m == 0:
        return h
    r = h.r
    t, q = divmod(m, r)
    lo, hi = t * r, (t + 1) * r
    return HeckeElement(
        r,
        {
            tuple([x + lo for x in win[q:]] + [x + hi for x in win[:q]]): c
            for win, c in h.terms.items()
        },
    )


def right_mul_basis(h, u):
    """h * T_u via the reduced word of u, read left to right:
    T_u = T_{rho^m} T_{s_{i_1}} ... T_{s_{i_k}}, so the shift rebuilds the
    input, as in left_mul_basis."""
    if len(u) != h.r:
        raise ValueError("level mismatch")
    m, word = P.reduced_word(u)
    h = right_mul_rho(h, m)
    for i in word:
        h = right_mul_gen(h, i)
    return h


def mul(a, b):
    """Bilinear product, each window of a multiplied from its cheaper side.

    A window w of a costs length(w) generator steps on each of the |b|
    terms of b when it acts on the left, and the windows u of b cost
    length(u) steps each on T_w when they act on the right.  So w goes
    left when length(w) * |b| <= the sum of length(u); the other windows
    of a form one element, multiplied by each T_u on the right.  Lengths
    are counted with P.length, so a window that goes right never reaches
    the reduced-word table.

    >>> s = t_basis(P.generator_s(1, 2))
    >>> text(mul(s, s))
    '(v^2)*T[1, 2] + (-1 + v^2)*T[2, 1]'
    """
    if a.r != b.r:
        raise ValueError("level mismatch")
    size, steps = len(b.terms), sum(map(P.length, b.terms))
    out, right = {}, {}
    for win in sorted(a.terms):
        c = a.terms[win]
        if P.length(win) * size <= steps:
            for pwin, pc in left_mul_basis(win, b).terms.items():
                L.acc(out, pwin, L.mul(pc, c))
        else:
            right[win] = c
    if right:
        right = HeckeElement(a.r, right)
        for u, c in b.terms.items():
            for pwin, pc in right_mul_basis(right, u).terms.items():
                L.acc(out, pwin, L.mul(pc, c))
    return HeckeElement(a.r, out)


def _stair_left(h, p, m, nu):
    # T over the symmetric group on positions p+1..p+m equals
    # (sum of T over coset leaders s_j...s_{p+m-1}) times the same for m-1;
    # each leader extends the previous by one generator on the left.
    if m <= 1:
        return h
    h1 = _stair_left(h, p, m - 1, nu)
    total = dict(h1.terms)
    g = h1
    for j in range(p + m - 1, p, -1):
        g = left_mul_gen(j, g, nu)
        for win, c in g.terms.items():
            L.acc(total, win, c)
    return HeckeElement(h.r, total)


def x_mul_left(lam, h, nu=()):
    """x_lam * h without expanding the block subgroup, in H x_nu when nu
    is given."""
    if sum(lam) != h.r:
        raise ValueError("composition must sum to the level")
    pos = 0
    for part in lam:
        h = _stair_left(h, pos, part, nu)
        pos += part
    return h


def t_double_coset(lam, d, mu):
    """Sum of T_w over the double coset of d, for d shortest in it."""
    if not P.is_min_double_coset_rep(d, lam, mu):
        raise ValueError("d is not the shortest element of its double coset")
    return HeckeElement(len(d), {w: L.one() for w in P.double_coset_elements(lam, d, mu)})


def coset_factor(A):
    """Product of the bracket factorials [a]! over the entries a of A: the
    scalar by which x_lam T_d x_mu exceeds the double-coset sum of A."""
    f = L.one()
    for _, _, a in A.entries:
        f = L.mul(f, L.factorial_sq(a))
    return f


def coset_product_identity_check(lam, d, mu):
    """Whether x_lam * T_d * x_mu equals the double-coset sum scaled by
    coset_factor of the coset's matrix.

    d is shortest in d W_mu, so lengths add and T_d x_mu is the sum of
    T_{dw} over w in W_mu; only x_lam acts on the left.
    """
    rhs = t_double_coset(lam, d, mu)
    factor = coset_factor(P.double_coset_matrix(lam, d, mu))
    t_d_x_mu = HeckeElement(
        len(d), {P.compose(d, w): L.one() for w in P.young_subgroup_elements(mu)}
    )
    return x_mul_left(lam, t_d_x_mu) == h_scale(factor, rhs)
