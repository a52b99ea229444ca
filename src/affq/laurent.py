"""Exact Laurent polynomial arithmetic over the integers in one variable v.

A Laurent polynomial is a dict mapping exponent (int, possibly negative) to a
nonzero integer coefficient.  The empty dict is zero.  No operation mutates
its arguments, and every polynomial operation returns a fresh dict.

One rule holds across the package: a coefficient dict is never mutated
after it is stored in an element, a cache or another map, and a function
mutates only dicts it created in the same call; so values share dicts and
nothing copies them.  ``acc`` is the one implementation of the rule for
sums of Laurent coefficients: it replaces a stored coefficient by a new
sum instead of adding into it.  The rule lets a fraction share its input:
``fraction`` returns a numerator over the denominator 1 as it is, and
``frac_to_laurent`` returns that numerator, without a copy.

The memo tables are lru_caches on private functions, holding immutable
values; a public wrapper copies a tuple of items into a fresh dict.  They
are listed here, each with its bound and what one suites pass of the
benchmark (one process) puts in it:

* laurent._gauss_sq (CACHE_SIZE): the items of a v^2 Gaussian; 10
  entries, 11,851 hits.
* laurent._factorial_sq (CACHE_SIZE): the items of a v^2 factorial; 5
  entries, 2,456 hits.
* matrices._d_exponent (CACHE_SIZE): the int d_A; 665 entries, 16,486
  hits.
* matrices._negate (PRODUCT_CACHE_SIZE): the label negate returns, shared
  by every call; answers 15,719 of 18,788 calls on 989 labels.
* permutations._length (PRODUCT_CACHE_SIZE): the int length, keyed by the
  window; answers 29,693 of 36,816 calls on 1,032 windows.
* permutations._reduced_word (CACHE_SIZE): (m, word), keyed by the window;
  599 entries, 21,053 hits.
* permutations._young_subgroup_elements (CACHE_SIZE): the tuple of the
  windows of the block subgroup of lam, shared by every call; 30 entries,
  3,833 hits.
* hecke._coset_factor (PRODUCT_CACHE_SIZE): the items of coset_factor;
  answers 4,624 of 5,543 calls on 546 labels.
* schur._label_reps (CACHE_SIZE): the window of d_A beside the frozenset
  of the coset windows of the double coset of A, from which the oracle
  peel reads the windows of each label it names and _oracle_mul reads
  d_B; 1,438 entries, 14,886 hits.
* schur._oracle_mul (PRODUCT_CACHE_SIZE): the items of oracle_mul;
  answers 3,706 of 8,764 calls.
* schur._diag_fill (FILL_CACHE_SIZE): the (mu, A + diag(mu)) pairs, which
  schur.diag_fill returns as is; answers 29,778 of 31,207 calls.
* schur._e_mul_upper (PRODUCT_CACHE_SIZE): the (label, coeff) terms of
  e_mul_upper, which the Hall products also read, keyed by labels and
  never by a weight; keeps 3,366 of the 4,456 hits of its 2,536 label
  pairs.
* realization._lambda_table (CACHE_SIZE): the (k, fraction) pairs that
  reduce_j_lambda and each row of the plus product add to j; 8 entries,
  5,642 hits.
* realization._plus_rows (PRODUCT_CACHE_SIZE): the weight-free rows
  (label, coeff, jc, shift, delta) of the plus product, keyed by (alpha,
  A); keeps 1,816 of the 1,907 hits of its 270 keys.
* hall._census (CACHE_SIZE): the types.MappingProxyType census behind
  hall.submodule_census; the suites pass does not reach it, and all
  eight suites fill it to 536 entries for 7,928 hits.
* cli._parsed (PRODUCT_CACHE_SIZE): the (name, value) items of the
  namespace that the parser makes of one argv, from which cli.main builds
  a fresh namespace per call; the suites pass does not reach it, and one
  queries pass of the benchmark (seed 1) fills it to 7 entries for 2,393
  hits.

CACHE_SIZE bounds the tables whose repeats span a whole run, and none of
them reaches it: all eight suites in one process (affq verify --suite all
--jobs 1) fill the largest, matrices._d_exponent, to 8,481 entries and
schur._label_reps to 6,698.  PRODUCT_CACHE_SIZE and FILL_CACHE_SIZE
bound the tables whose repeats fall within one verify case, so that a
small table keeps almost every hit while peak memory grows with the
bound: the four whose entries hold many labels, schur._oracle_mul,
schur._e_mul_upper and realization._plus_rows (PRODUCT_CACHE_SIZE) and
schur._diag_fill (FILL_CACHE_SIZE), and the three keyed by one label or
window, matrices._negate, permutations._length and hecke._coset_factor.
On the suites pass an unbounded schur._oracle_mul holds 4,856 entries for
3,908 hits, an unbounded schur._diag_fill 980 entries for 30,227 hits,
and _e_mul_upper and _plus_rows unbounded raise the peak from 20.7 to
23.9 MB and save no time; at CACHE_SIZE, the three keyed by one label
or window keep 58,580 hits instead of 50,036 in 2,567 entries, but raise
the peak from 19.80 to 20.82 MB and save no time either.
FILL_CACHE_SIZE stays above the others: at 128, the default
level-coherence grid misses schur._diag_fill 32,796 times instead of
21,681.  PRODUCT_CACHE_SIZE bounds cli._parsed too: --in and --out are
part of its key, so a caller naming a new path on every call would fill
any bound, and a queries pass needs 7 entries.

>>> text(mul(poly({0: 1, 1: 1}), poly({0: -1, 1: 1})))
'-1 + v^2'
>>> text(gauss_sq(2, 1))
'1 + v^2'
>>> text(bar(gauss_sq(2, 1)))
'v^-2 + 1'
"""

import functools
from dataclasses import dataclass
from math import gcd

CACHE_SIZE = 1 << 14
# The repeats of these tables fall within one verify case, so a small
# bound keeps the hits and caps peak memory.
FILL_CACHE_SIZE = 256  # schur._diag_fill: the labels A + diag(mu) per entry
PRODUCT_CACHE_SIZE = 128  # the products, the label maps and cli._parsed


def zero():
    return {}


def one():
    return {0: 1}


def monomial(exp, coeff=1):
    if coeff == 0:
        return {}
    return {exp: coeff}


def poly(items):
    """Normalize a dict or iterable of (exp, coeff) pairs, dropping zeros."""
    out = {}
    pairs = items.items() if isinstance(items, dict) else items
    for e, c in pairs:
        c = out.get(e, 0) + c
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def add(f, g):
    out = dict(f)
    for e, c in g.items():
        c = out.get(e, 0) + c
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def acc(terms, key, coeff):
    """Add coeff to terms[key] by replacement: a new key stores coeff, an
    existing one the new dict add(terms[key], coeff), and a zero sum drops
    the key.  Only the map terms is mutated, never a stored coefficient.

    >>> stored = {0: 1}
    >>> terms = {"x": stored}
    >>> acc(terms, "x", {2: 1})
    >>> terms, stored
    ({'x': {0: 1, 2: 1}}, {0: 1})
    >>> acc(terms, "x", {0: -1, 2: -1})
    >>> terms
    {}
    """
    cur = terms.get(key)
    if cur is not None:
        coeff = add(cur, coeff)
    if coeff:
        terms[key] = coeff
    else:
        terms.pop(key, None)


def neg(f):
    return {e: -c for e, c in f.items()}


def sub(f, g):
    return add(f, neg(g))


def mul(f, g):
    """
    >>> text(mul(poly({1: 2}), poly({-1: 3, 0: 1})))
    '6 + 2*v'
    """
    if len(f) > len(g):
        f, g = g, f
    out = {}
    if len(f) == 1:  # a monomial times g: distinct exponents, nonzero products
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                out[e1 + e2] = c1 * c2
        return out
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def vshift(f, k):
    """Multiply by v^k."""
    return {e + k: c for e, c in f.items()}


def bar(f):
    """The ring involution v -> v^-1 (negates every exponent).

    >>> bar({2: 1, 0: 3}) == {-2: 1, 0: 3}
    True
    """
    return {-e: c for e, c in f.items()}


def divexact(f, g):
    """Return h with f = g*h, raising ValueError if no such Laurent h exists.

    >>> text(divexact(poly({0: -1, 4: 1}), poly({0: -1, 2: 1})))
    '1 + v^2'
    """
    if not g:
        raise ValueError("division by zero")
    if not f:
        return {}
    gtop = max(g)
    gc = g[gtop]
    # Any exact quotient has exponents in [min(f)-min(g), max(f)-max(g)];
    # without this floor an inexact division would descend forever.
    floor_e = min(f) - min(g)
    rem = dict(f)
    quot = {}
    while rem:
        ftop = max(rem)
        e = ftop - gtop
        if e < floor_e:
            raise ValueError("inexact division")
        c, r = divmod(rem[ftop], gc)
        if r:
            raise ValueError("inexact coefficient division")
        quot[e] = c
        for ge, gcoef in g.items():
            ee = ge + e
            cc = rem.get(ee, 0) - gcoef * c
            if cc:
                rem[ee] = cc
            else:
                rem.pop(ee, None)
    return quot


def text(f):
    """Canonical text form: terms sorted by exponent, e.g. '1 + v^2'.

    >>> text({})
    '0'
    >>> text({-2: 1, 0: -3, 1: 1})
    'v^-2 - 3 + v'
    """
    if not f:
        return "0"
    parts = []
    for e in sorted(f):
        c = f[e]
        if e == 0:
            body = str(abs(c))
        else:
            vpow = "v" if e == 1 else "v^%d" % e
            body = vpow if abs(c) == 1 else "%d*%s" % (abs(c), vpow)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def json_pairs(f):
    """JSON form: [[exponent, coefficient], ...] sorted by exponent."""
    return [[e, f[e]] for e in sorted(f)]


def json_ints(values):
    """The values as a tuple, when every one is a JSON integer.

    A bool, float or string raises ValueError: input read from JSON is
    never rounded or coerced to an integer.

    >>> json_ints([3, -1])
    (3, -1)
    >>> json_ints([2.9])
    Traceback (most recent call last):
    ...
    ValueError: expected an integer, got float 2.9
    """
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise ValueError("expected an integer, got %s %r" % (type(x).__name__, x))
    return out


def from_json_pairs(pairs):
    return poly(json_ints(pair) for pair in pairs)


# ---------------------------------------------------------------------------
# Gaussian polynomials in v^2 and the related combinatorial quantities.
# ---------------------------------------------------------------------------

def bracket_sq(m):
    """The v^2-integer (v^{2m}-1)/(v^2-1) = 1 + v^2 + ... + v^{2(m-1)}."""
    if m < 0:
        raise ValueError("bracket_sq needs m >= 0")
    return {2 * k: 1 for k in range(m)}


def factorial_sq(t):
    """Product of the v^2-integers 1..t.

    >>> text(factorial_sq(2))
    '1 + v^2'
    """
    return dict(_factorial_sq(t))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _factorial_sq(t):
    out = one()
    for m in range(1, t + 1):
        out = mul(out, bracket_sq(m))
    return tuple(out.items())


def gauss_sq(N, t):
    """The v^2 Gaussian binomial: prod_{i=1..t} (v^{2(N-i+1)}-1)/(v^{2i}-1).

    Defined for every integer N and t >= 0; zero when 0 <= N < t.  Each
    prefix of the product is an exact Laurent quotient (a unit multiple of a
    Gaussian polynomial), so the stepwise division below never truncates.

    >>> text(gauss_sq(2, 1))
    '1 + v^2'
    >>> gauss_sq(1, 2)
    {}
    >>> text(gauss_sq(-1, 1))
    '-v^-2'
    """
    if t < 0:
        raise ValueError("gauss_sq needs t >= 0")
    return dict(_gauss_sq(N, t))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _gauss_sq(N, t):
    out = one()
    for i in range(1, t + 1):
        num = mul(out, add(monomial(2 * (N - i + 1)), monomial(0, -1)))
        out = divexact(num, add(monomial(2 * i), monomial(0, -1)))
        if not out:
            break
    return tuple(out.items())


def gauss_sym(N, t):
    """The bar-invariant Gaussian: v^{-t(N-t)} * gauss_sq(N, t).

    >>> text(gauss_sym(2, 1))
    'v^-1 + v'
    >>> text(gauss_sym(3, 2))
    'v^-2 + 1 + v^2'
    """
    return vshift(gauss_sq(N, t), -t * (N - t))


def multinomial_sq(lam, parts):
    """Componentwise v^2-multinomial of lam into the given list of parts.

    Every part is a vector of the same length as lam and the parts must sum
    to lam componentwise.
    """
    n = len(lam)
    for p in parts:
        if len(p) != n:
            raise ValueError("component count mismatch")
        if any(c < 0 for c in p):
            raise ValueError("negative part")
    for i in range(n):
        if sum(p[i] for p in parts) != lam[i]:
            raise ValueError("parts do not sum to lam")
    num = one()
    for c in lam:
        num = mul(num, factorial_sq(c))
    for p in parts:
        for c in p:
            num = divexact(num, factorial_sq(c))
    return num


def frak_a(beta):
    """prod_i prod_{s=1..beta_i} (v^{2*beta_i} - v^{2(s-1)}).

    >>> text(frak_a((1, 0)))
    '-1 + v^2'
    >>> text(frak_a((2, 0))) == text(mul(poly({0: -1, 4: 1}), poly({2: -1, 4: 1})))
    True
    """
    out = one()
    for b in beta:
        if b < 0:
            raise ValueError("negative component")
        for s in range(1, b + 1):
            out = mul(out, add(monomial(2 * b), monomial(2 * (s - 1), -1)))
    return out


def subset_sum_identity_check(a, r, t):
    """Check sum_{X subset of {a+1..a+r}, |X|=t} v^{2 sum X} against the
    closed form v^{2at+t(t+1)} * gauss_sq(r, t) by explicit enumeration."""
    from itertools import combinations

    if r < 1 or t < 0 or t > r or a < 0:
        raise ValueError("need a >= 0, r >= 1, 0 <= t <= r")
    total = zero()
    for x in combinations(range(a + 1, a + r + 1), t):
        total = add(total, monomial(2 * sum(x)))
    return total == vshift(gauss_sq(r, t), 2 * a * t + t * (t + 1))


# ---------------------------------------------------------------------------
# Fractions of Laurent polynomials.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LaurentFraction:
    """A quotient num/den of Laurent polynomials with integer coefficients.

    Equality is by cross multiplication; reduction is cosmetic only (common
    monomial and integer content are stripped to keep operands small).
    ``fraction`` returns the normal form: a zero numerator over 1; a
    denominator of 1 as it is, sharing the numerator dict; otherwise the
    lowest exponent of num and den together shifted to 0, then a monomial
    denominator c*v^e that divides every numerator coefficient divided out
    to 1, or else the integer content of num and den together divided out.
    A fraction built directly, like FRAC_ONE or a level-r group sum, need
    not be in normal form.
    """

    num: dict
    den: dict

    def __post_init__(self):
        if not self.den:
            raise ValueError("zero denominator")

    def __eq__(self, other):
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return mul(self.num, other.den) == mul(other.num, self.den)

    def __repr__(self):
        if self.den == one():
            return "(%s)" % text(self.num)
        return "(%s) / (%s)" % (text(self.num), text(self.den))


def _strip(num, den):
    if not num:
        return {}, one()
    if den == {0: 1}:
        return num, den
    shift = min(min(num), min(den))
    if shift:
        num = vshift(num, -shift)
        den = vshift(den, -shift)
    if len(den) == 1:
        # Monomial denominator: divide through completely.
        e, c = next(iter(den.items()))
        if all(k % c == 0 for k in num.values()):
            return {k - e: val // c for k, val in num.items()}, one()
    g = gcd(*num.values(), *den.values())
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den = {e: c // g for e, c in den.items()}
    return num, den


def fraction(num, den=None):
    """The fraction num/den in the normal form of ``LaurentFraction``.

    A pair already in normal form, such as any num over the denominator 1,
    comes back as it is and shares the caller's dicts, which the
    never-mutate rule allows.

    >>> f = {-1: 2}
    >>> fraction(f).num is f
    True
    >>> fraction({1: 2, 3: 4}, {1: 2})
    (1 + 2*v^2)
    >>> fraction({1: 2, 3: 4}, {2: 6, 4: 2})
    (1 + 2*v^2) / (3*v + v^3)
    """
    if den is None:
        den = one()
    num, den = _strip(num, den)
    return LaurentFraction(num, den)


FRAC_ONE = LaurentFraction({0: 1}, {0: 1})


def frac_add(x, y):
    """Sum of two fractions; over their common denominator when the two
    are equal, so that repeated sums of one coefficient keep it.

    >>> f = fraction({0: 1}, {0: 1, 2: 1})
    >>> frac_add(f, f)
    (2) / (1 + v^2)
    """
    if x.den == y.den:
        return fraction(add(x.num, y.num), x.den)
    return fraction(add(mul(x.num, y.den), mul(y.num, x.den)), mul(x.den, y.den))


def frac_neg(x):
    return LaurentFraction(neg(x.num), x.den)


def frac_mul(x, y):
    return fraction(mul(x.num, y.num), mul(x.den, y.den))


def frac_scale(f, x):
    """Multiply the fraction x by the Laurent polynomial f."""
    return fraction(mul(f, x.num), x.den)


def frac_is_zero(x):
    return not x.num


def frac_to_laurent(x):
    """Clear the denominator, raising ValueError when the value is not a
    Laurent polynomial.  The numerator over the denominator 1 comes back as
    it is, shared and not copied.

    >>> text(frac_to_laurent(fraction({0: -1, 4: 1}, {0: -1, 2: 1})))
    '1 + v^2'
    """
    if x.den == {0: 1}:
        return x.num
    return divexact(x.num, x.den)
