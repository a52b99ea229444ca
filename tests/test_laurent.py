"""Ring-layer tests: frozen values, recursion oracles, and ring axioms."""

import doctest
import random
from itertools import product
from math import gcd

import pytest

from affq import laurent as L
from affq import realization as R


def test_doctests():
    failures, attempted = doctest.testmod(L)
    assert failures == 0 and attempted > 0


# ---------------------------------------------------------------------------
# Frozen values.
# ---------------------------------------------------------------------------

def test_gauss_sq_values():
    assert L.gauss_sq(2, 1) == {0: 1, 2: 1}
    assert L.gauss_sq(1, 2) == {}
    assert L.gauss_sq(0, 1) == {}
    assert L.gauss_sq(-1, 1) == {-2: -1}
    assert L.gauss_sq(4, 2) == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    assert L.gauss_sq(3, 0) == {0: 1}


def test_gauss_sym_values():
    assert L.gauss_sym(2, 1) == {-1: 1, 1: 1}
    assert L.gauss_sym(3, 2) == {-2: 1, 0: 1, 2: 1}
    for N in range(0, 9):
        assert L.gauss_sym(N, 0) == {0: 1}


def test_factorial_and_vector_values():
    assert L.factorial_sq(0) == {0: 1}
    assert L.factorial_sq(2) == {0: 1, 2: 1}
    assert L.factorial_sq(3) == L.mul({0: 1, 2: 1}, {0: 1, 2: 1, 4: 1})
    assert L.multinomial_sq((1, 0), [(1, 0)]) == {0: 1}
    assert L.multinomial_sq((2, 0), [(1, 0), (1, 0)]) == {0: 1, 2: 1}
    with pytest.raises(ValueError):
        L.multinomial_sq((2, 0), [(1, 0)])


def test_frak_a_values():
    assert L.frak_a((0, 0)) == {0: 1}
    assert L.frak_a((1, 0)) == {0: -1, 2: 1}
    expected = L.mul({0: -1, 4: 1}, {2: -1, 4: 1})
    assert L.frak_a((2, 0)) == expected


def test_bar_values():
    assert L.bar({1: 1}) == {-1: 1}
    assert L.bar({0: 1, 2: 1}) == {0: 1, -2: 1}
    assert L.bar(L.gauss_sq(2, 1)) == L.vshift(L.gauss_sq(2, 1), -2)


def test_x_coeff_values():
    e1 = (1, 0)
    e2 = (0, 1)
    zero2 = (0, 0)
    num_den = R.x_coeff(e1, e1, e1, e1)
    assert num_den == L.fraction({1: -1}, {0: -1, 2: 1})
    assert R.x_coeff(e1, zero2, e1, e1) == L.fraction({1: 1}, {0: -1, 2: 1})
    # A fraction value exists for the larger case and is finite/nonzero.
    val = R.x_coeff((2, 0), (2, 0), (2, 0), (2, 0))
    assert not L.frac_is_zero(val)
    with pytest.raises(ValueError):
        R.x_coeff(zero2, zero2, e1, e1)
    with pytest.raises(ValueError):
        R.x_coeff(e1, e1, zero2, e1)
    assert R.x_coeff(e2, e2, e2, e2) == num_den


# ---------------------------------------------------------------------------
# Recursion and enumeration oracles.
# ---------------------------------------------------------------------------

def test_q_pascal_recursion_grid():
    for N in range(-5, 11):
        for t in range(0, 11):
            lhs = L.gauss_sq(N, t)
            if t == 0:
                assert lhs == {0: 1}
                continue
            rhs = L.add(
                L.gauss_sq(N - 1, t),
                L.vshift(L.gauss_sq(N - 1, t - 1), 2 * (N - t)),
            )
            assert lhs == rhs, (N, t)


def test_subset_sum_identity_grid():
    for a in range(0, 4):
        for r in range(1, 6):
            for t in range(0, r + 1):
                assert L.subset_sum_identity_check(a, r, t), (a, r, t)


def test_gauss_sym_bar_invariant():
    for N in range(0, 9):
        for t in range(0, N + 1):
            g = L.gauss_sym(N, t)
            assert L.bar(g) == g


def test_gauss_vanishing_range():
    for N in range(0, 8):
        for t in range(N + 1, N + 4):
            assert L.gauss_sq(N, t) == {}


# ---------------------------------------------------------------------------
# Ring axioms on randomized triples.
# ---------------------------------------------------------------------------

def _random_poly(rng):
    return L.poly(
        (rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(0, 5))
    )


def test_ring_axioms_random():
    rng = random.Random(20260814)
    for _ in range(10_000):
        f = _random_poly(rng)
        g = _random_poly(rng)
        h = _random_poly(rng)
        assert L.add(f, g) == L.add(g, f)
        assert L.mul(f, g) == L.mul(g, f)
        assert L.add(L.add(f, g), h) == L.add(f, L.add(g, h))
        assert L.mul(L.mul(f, g), h) == L.mul(f, L.mul(g, h))
        assert L.mul(f, L.add(g, h)) == L.add(L.mul(f, g), L.mul(f, h))
        assert L.sub(f, f) == {}
        assert L.mul(f, L.one()) == f


def test_bar_is_involutive_ring_map():
    rng = random.Random(7)
    for _ in range(2000):
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert L.bar(L.bar(f)) == f
        assert L.bar(L.add(f, g)) == L.add(L.bar(f), L.bar(g))
        assert L.bar(L.mul(f, g)) == L.mul(L.bar(f), L.bar(g))


def test_divexact_round_trip_and_rejection():
    rng = random.Random(99)
    for _ in range(2000):
        f = _random_poly(rng)
        g = _random_poly(rng)
        if not g:
            continue
        assert L.divexact(L.mul(f, g), g) == f
    with pytest.raises(ValueError):
        L.divexact({0: 1, 1: 1}, {0: 2})
    with pytest.raises(ValueError):
        L.divexact({0: 1, 2: 1}, {0: 1, 1: 1})


# ---------------------------------------------------------------------------
# Fractions.
# ---------------------------------------------------------------------------

def test_fraction_equality_cross_multiplication():
    half = L.fraction({0: 1}, {0: 2})
    other = L.fraction({2: 3}, {2: 6})
    assert half == other
    assert L.fraction({1: 1}, {0: 1}) != L.fraction({0: 1}, {1: 1})


def test_fraction_arithmetic():
    x = L.fraction({1: 1}, {0: -1, 2: 1})
    y = L.frac_add(L.FRAC_ONE, L.frac_neg(x))
    assert L.frac_add(x, y) == L.FRAC_ONE
    assert L.frac_to_laurent(L.frac_mul(x, L.fraction({0: -1, 2: 1}))) == {1: 1}
    with pytest.raises(ValueError):
        L.frac_to_laurent(x)


def test_rendering():
    assert L.text({}) == "0"
    assert L.text({0: 1, 2: 1}) == "1 + v^2"
    assert L.json_pairs({2: 1, -1: 3}) == [[-1, 3], [2, 1]]
    assert L.from_json_pairs([[-1, 3], [2, 1]]) == {2: 1, -1: 3}


def mul_double_loop(f, g):
    """The product by the full double loop, with no monomial fast path."""
    if len(f) > len(g):
        f, g = g, f
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def test_mul_matches_the_double_loop():
    rng = random.Random(71)
    polys = [{}, {0: 1}, {3: -2}, {-4: 5}, {0: -1, 2: 1}, {-1: 1, 1: 1}]
    for _ in range(60):
        size = rng.choice((0, 1, 1, 2, 3, 5))
        polys.append(L.poly((rng.randrange(-5, 6), rng.choice((-3, -1, 1, 2))) for _ in range(size)))
    for f in polys:
        for g in polys:
            got, want = L.mul(f, g), mul_double_loop(f, g)
            assert list(got.items()) == list(want.items()), (f, g)


# ---------------------------------------------------------------------------
# The fraction normal form against a reference that takes no shortcut.
# ---------------------------------------------------------------------------

def strip_reference(num, den):
    """The normal form of L.fraction the long way: every pair is shifted,
    its content taken and a monomial denominator divided, with no early
    return for the denominator 1 or a zero shift."""
    if not num:
        return {}, L.one()
    shift = min(min(num), min(den))
    num = L.vshift(num, -shift)
    den = L.vshift(den, -shift)
    g = 0
    for c in num.values():
        g = gcd(g, c)
    for c in den.values():
        g = gcd(g, c)
    if max(den) == min(den):
        e, c = next(iter(den.items()))
        if all(k % c == 0 for k in num.values()):
            return {k - e: val // c for k, val in num.items()}, L.one()
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den = {e: c // g for e, c in den.items()}
    return num, den


def fraction_grid():
    """Seeded (num, den) pairs: the denominator 1, monomial denominators
    with and without divisible content, polynomial denominators, negative
    exponents, integer content above 1 and zero numerators."""
    rng = random.Random(2026)
    dens = [{0: 1}, {0: -1}, {2: 1}, {-3: 1}, {0: 2}, {1: -3}, {-2: 6}]
    dens += [{0: -1, 2: 1}, {-1: 1, 1: -1}, {0: 2, 4: -2}, {-2: 3, 0: 6, 3: 9}]
    for _ in range(20):
        den = _random_poly(rng)
        if den:
            dens.append(den)
    nums = [{}, {0: 1}, {-4: 3}, {0: 6, 2: -4}, {-1: 2, 3: 6}, {5: 9, 7: -3}]
    for _ in range(30):
        nums.append(_random_poly(rng))
    for den in dens:
        for num in nums:
            yield num, den
            for k in (2, 3, 6):  # integer content above 1
                yield {e: k * c for e, c in num.items()}, {e: k * c for e, c in den.items()}
            if len(den) == 1:  # a numerator that the monomial's coefficient divides
                (c,) = den.values()
                yield {e: c * x for e, x in num.items()}, den


def test_fraction_keeps_the_reference_normal_form():
    count = 0
    for num, den in fraction_grid():
        saved = (dict(num), dict(den))
        f = L.fraction(num, den)
        want_num, want_den = strip_reference(num, den)
        assert (f.num, f.den) == (want_num, want_den), (num, den)
        assert (num, den) == saved, (num, den)
        count += 1
    assert count > 1000


def test_unit_denominators_come_back_as_they_are():
    rng = random.Random(5)
    for _ in range(200):
        num = _random_poly(rng)
        f = L.fraction(num)
        assert L.frac_to_laurent(f) == num
        if num:
            assert f.num is num and L.frac_to_laurent(f) is num
    inexact = L.fraction({0: 1}, {0: -1, 2: 1})
    with pytest.raises(ValueError):
        L.frac_to_laurent(inexact)
    with pytest.raises(ValueError):
        L.frac_to_laurent(L.LaurentFraction({0: 1}, {0: 2}))


def lambda_table_reference(lam):
    """The product of one _shift_coeffs factor per part, zero parts too."""
    tables = [R._shift_coeffs(t) for t in lam]
    out = []
    for combo in product(*(sorted(tb) for tb in tables)):
        f = L.FRAC_ONE
        for k, tb in zip(combo, tables):
            f = L.frac_mul(f, tb[k])
        out.append((combo, f))
    return out


def test_lambda_table_matches_the_product_of_every_factor():
    for n in (1, 2, 3):
        for lam in product(range(4), repeat=n):
            got = R._lambda_table(lam)
            want = lambda_table_reference(lam)
            assert [(k, f.num, f.den) for k, f in got] == [(k, f.num, f.den) for k, f in want], lam
    for n in (1, 2, 3):
        ((k, f),) = R._lambda_table((0,) * n)
        assert k == (0,) * n and f is L.FRAC_ONE
