"""The package-wide rule of ``laurent``: a stored coefficient dict is never
mutated, so elements and caches share coefficient dicts without copying.

Every operation that builds an element is called on seeded random inputs;
its result is then added to itself.  Neither step may change an argument,
the result, or what a second call returns (the memo tables behind it).
"""

import copy
import random

from affq import hecke as H
from affq import laurent as L
from affq import matrices as M
from affq import permutations as P
from affq import realization as R
from affq import schur as S
from affq import verify as V
from test_schur import lower_shapes_for


def exact(x):
    # LaurentFraction compares by value; the JSON form pins num and den
    return R.to_json(x) if isinstance(x, R.VElement) else x


def check_pure(op, *args):
    saved = copy.deepcopy(args)
    res = op(*args)
    want = copy.deepcopy(exact(res))
    add = {H.HeckeElement: H.h_add, S.SchurElement: S.s_add, R.VElement: R.v_add}
    add[type(res)](res, res)
    assert [exact(a) for a in args] == [exact(a) for a in saved], op.__name__
    assert exact(res) == want, op.__name__
    assert exact(op(*args)) == want, op.__name__


def rand_coeff(rng):
    return {rng.randrange(-3, 4): rng.choice((-2, -1, 1, 3))}


def rand_perm(rng, r):
    w = P.rho_power(rng.randrange(-1, 2), r)
    for _ in range(rng.randrange(5)):
        w = P.compose(w, P.generator_s(rng.randrange(1, r + 1), r))
    return w


def rand_hecke(rng, r, nu=None):
    items = []
    for _ in range(rng.randrange(1, 4)):
        win = rand_perm(rng, r)
        if nu is not None:
            win = tuple(x for b in P.blocks(nu) for x in sorted(win[p - 1] for p in b))
        items.append((win, rand_coeff(rng)))
    return H.h_from_items(r, items)


def test_hecke_operations_leave_their_arguments_alone():
    rng = random.Random(71)
    r, nu, lam = 3, (2, 1), (1, 2)
    for _ in range(8):
        h, h2, hm = rand_hecke(rng, r), rand_hecke(rng, r), rand_hecke(rng, r, nu)
        w, i = rand_perm(rng, r), rng.randrange(1, r + 1)
        check_pure(H.left_mul_gen, i, h)
        check_pure(H.left_mul_gen, i, hm, nu)
        check_pure(H.left_mul_basis, w, h)
        check_pure(H.left_mul_basis, w, hm, nu)
        check_pure(H.left_mul_basis, P.rho_power(0, r), h)
        check_pure(H.x_mul_left, lam, h)
        check_pure(H.x_mul_left, lam, hm, nu)
        check_pure(H.mul, h, h2)
        check_pure(H.h_add, h, h2)
        check_pure(H.h_add, h, h)


def rand_schur(rng, labels, basis):
    items = [(A, rand_coeff(rng)) for A in rng.sample(labels, min(3, len(labels)))]
    A = items[0][0]
    return S.s_from_items(A.n, M.sigma(A), items, basis)


def test_schur_operations_leave_their_arguments_alone():
    rng = random.Random(72)
    for n, r in ((2, 2), (2, 3), (3, 2)):
        labels = list(M.band_matrices(n, r, 1))
        for _ in range(4):
            A = rng.choice(labels)
            B = rng.choice(S.upper_shapes_for(M.ro(A)))
            C = rng.choice(lower_shapes_for(M.ro(A)))
            check_pure(S.e_mul_upper, B, A)
            check_pure(S.e_mul_lower, C, A)
            check_pure(S.n_mul_upper, B, A)
            check_pure(S.oracle_mul, B, A)
            check_pure(S.A_j_r, M.offdiag(A), tuple(rng.randrange(-1, 2) for _ in range(n)), r)
            for basis in ("e", "n"):
                x, y = rand_schur(rng, labels, basis), rand_schur(rng, labels, basis)
                ups = S.upper_shapes_for(M.ro(A))
                lows = lower_shapes_for(M.ro(A))
                check_pure(S.closed_product_upper, rand_schur(rng, ups, basis), y)
                check_pure(S.closed_product_lower, rand_schur(rng, lows, basis), y)
                check_pure(S.convert, x, "e")
                check_pure(S.convert, x, "n")
                check_pure(S.s_add, x, y)
                check_pure(S.s_add, x, x)


def test_a_caller_cannot_corrupt_the_memoized_schur_values():
    B = M.madd(M.e_unit(1, 2, 2), M.diag((1, 0)))
    A = M.madd(M.e_unit(2, 1, 2), M.diag((1, 0)))
    C = M.madd(M.e_unit(2, 1, 2), M.diag((0, 1)))
    A2 = M.madd(M.e_unit(1, 2, 2), M.diag((0, 1)))
    cases = (
        (S.A_j_r, (M.pmat(2, []), (1, 0), 2)),
        (S.oracle_mul, (B, A)),
        (S.e_mul_upper, (B, A)),
        (S.n_mul_upper, (B, A)),
        (S.e_mul_lower, (C, A2)),
    )
    for op, args in cases:
        got = op(*args)
        want = S.to_json(got)
        got.terms[next(iter(got.terms))] = {7: 1}
        got.terms[M.diag((0, 2))] = {0: 1}
        assert S.to_json(op(*args)) == want, op.__name__
        got.terms.clear()
        assert S.to_json(op(*args)) == want, op.__name__


def test_a_caller_cannot_corrupt_the_memoized_gaussians():
    cases = (
        (L.gauss_sq, (3, 1)),
        (L.gauss_sq, (-1, 2)),
        (L.gauss_sym, (4, 2)),
        (L.factorial_sq, (3,)),
        (H.coset_factor, (M.pmat(2, [(1, 1, 2), (1, 2, 3), (2, 1, 1)]),)),
    )
    for op, args in cases:
        want = dict(op(*args))
        got = op(*args)
        assert got == want and got is not op(*args), op.__name__
        got[next(iter(got))] += 5
        got[99] = 1
        assert op(*args) == want, op.__name__
        got.clear()
        assert op(*args) == want, op.__name__


def test_a_caller_cannot_corrupt_the_memoized_plus_rows():
    # mul_by_semisimple_plus reads one table of rows per (alpha, label)
    x = R.v_add(
        R.v_basis(2, M.e_unit(2, 1, 2), (0, 1)),
        R.v_basis(2, M.pmat(2, []), (1, -1)),
    )
    want = R.to_json(R.mul_by_semisimple_plus((1, 1), x))
    got = R.mul_by_semisimple_plus((1, 1), x)
    first, second = list(got.terms)[:2]
    got.terms[first] = L.fraction({7: 1})
    del got.terms[second]
    got.terms[(M.pmat(2, []), (9, 9))] = L.FRAC_ONE
    assert R.to_json(R.mul_by_semisimple_plus((1, 1), x)) == want
    got.terms.clear()
    assert R.to_json(R.mul_by_semisimple_plus((1, 1), x)) == want


def test_a_caller_cannot_corrupt_the_memoized_reductions():
    # reduce_j_lambda reads one table per lambda, shared by every label and weight
    lam = (2, 1)
    symbols = ((M.e_unit(1, 2, 2), (1, 0)), (M.pmat(2, []), (0, -1)))

    def reductions():
        return [R.to_json(R.reduce_j_lambda(A, j, lam)) for A, j in symbols]

    want = reductions()
    for A, j in symbols:
        got = R.reduce_j_lambda(A, j, lam)
        first, second = list(got.terms)[:2]
        got.terms[first] = L.fraction({7: 1})
        del got.terms[second]
        got.terms[(A, (9, 9))] = L.FRAC_ONE
        assert reductions() == want
        got.terms.clear()
        assert reductions() == want


def rand_velement(rng, n, labels):
    # reduce_j_lambda outputs carry denominators
    x = R.v_zero(n)
    for _ in range(rng.randrange(1, 3)):
        A = rng.choice(labels)
        j = tuple(rng.randrange(-1, 2) for _ in range(n))
        lam = tuple(rng.randrange(0, 2) for _ in range(n))
        x = R.v_add(x, R.reduce_j_lambda(A, j, lam))
    return x


def test_realization_operations_leave_their_arguments_alone():
    rng = random.Random(73)
    for n in (2, 3):
        labels = V.mixed_labels(n, 2, 1)
        for _ in range(4):
            x, y = rand_velement(rng, n, labels), rand_velement(rng, n, labels)
            j = tuple(rng.randrange(-1, 2) for _ in range(n))
            alpha = tuple(rng.randrange(0, 2) for _ in range(n))
            lam = tuple(rng.randrange(0, 3) for _ in range(n))
            check_pure(R.mul_by_0j, j, x)
            check_pure(R.mul_0j_right, x, j)
            check_pure(R.mul_by_semisimple_plus, alpha, x)
            check_pure(R.mul_by_semisimple_minus, alpha, x)
            check_pure(R.reduce_j_lambda, rng.choice(labels), j, lam)
            check_pure(R.eval_at_level, x, 3)
            check_pure(R.v_add, x, y)
            check_pure(R.v_add, x, x)


def test_level_shadows_of_shared_numerators_leave_their_arguments_alone():
    # fraction over the denominator 1 and frac_to_laurent share the numerator
    # dict, so eval_at_level must never add into a numerator it did not make
    Z = M.pmat(2, [])
    unit = R.v_sub(R.v_basis(2, Z, (1, 0)), R.v_scale({1: 1}, R.v_basis(2, Z, (0, 0))))
    assert all(f.den == L.one() for f in unit.terms.values())
    for r in (1, 2, 3):
        check_pure(R.eval_at_level, unit, r)
    # v^mu_1 - v cancels at mu = (1, 1), and only there
    assert M.diag((1, 1)) not in R.eval_at_level(unit, 2).terms
    assert M.diag((2, 0)) in R.eval_at_level(unit, 2).terms
    shared = R.reduce_j_lambda(M.e_unit(1, 2, 2), (0, 1), (1, 0))
    dens = [f.den for f in shared.terms.values()]
    assert len(dens) == 2 and dens[0] == dens[1] != L.one()
    for r in (1, 2, 3):
        check_pure(R.eval_at_level, shared, r)
