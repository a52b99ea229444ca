"""Verification suites: closed formulas against independent oracles.

Each suite expands into a list of independent cases; a case re-derives
both sides of its identity and reports every mismatch with the inputs
and both values.  Cases are picklable so they can be distributed over a
worker pool; reports are sorted before aggregation, so the output does
not depend on the degree of parallelism.

A case does its repeated work once, in locals that die with it: the
length of each sampled coset element u y v per pair (u, v), the level-r
products of level-coherence per level, the left shapes of schur-oracle
per row-sum vector.  Schur-oracle checks each upper pair (B, A) and then
its mirror (negate B, negate A), which runs over the lower pairs: the
lower product is the negated upper one, still in its table.  It visits
negate A right after A, so that the oracle product of a diagonal left
factor, which both turns check, is also still in its table.
Level-coherence builds each level-r product on A_j_r(A, 0, r) and reads
it at every weight j by shifting each label C by v^((co(C) - co(A)).j),
or by ro for diag-right, where A_j_r is the left factor.  The shift is
exact: a product keeps the column sums of its right factor and the row
sums of its left one, so co(C) - co(A) (ro(C) - ro(A))
is the fill mu of the one term v^(mu.j) [A + diag(mu)] of A_j_r(A, j, r)
that reaches C.  The weight j = 0 is on every grid, and there the product
is compared as built, with no shift.

Nothing is kept across cases: with ``--jobs`` above 1 the cases of a
suite run in different workers, so a table shared between cases would
hit in one process and miss in another, and a table keyed by the weight
j holds the whole run (one on ``schur.A_j_r`` raised the peak memory of
a benchmark ``suites`` pass by 64%).
"""

import functools
import itertools
import random
from dataclasses import dataclass

from . import hall as Ha
from . import hecke as H
from . import laurent as L
from . import matrices as M
from . import permutations as P
from . import realization as R
from . import schur as S

_BANDS = {2: 2, 3: 1}
COSET_SAMPLES = 200  # random coset elements per label in coset-length
MAX_JOBS = 64  # worker processes of one run
MAX_LEVEL = 5  # largest r; each level costs about seven times the one below


@dataclass
class Config:
    """Grid bounds shared by the suites."""

    n_list: tuple = (2, 3)
    r_min: int = 2
    r_max: int = 4
    q_list: tuple = (2, 3)
    jobs: int = 1

    def validate(self):
        if any(n < 2 for n in self.n_list):
            raise ValueError("n must be at least 2")
        if not self.n_list or any(n not in _BANDS for n in self.n_list):
            raise ValueError("supported sizes are n in {2, 3}")
        if not 1 <= self.r_min <= self.r_max <= MAX_LEVEL:
            raise ValueError("need 1 <= r_min <= r_max <= %d" % MAX_LEVEL)
        if not self.q_list or any(q not in Ha.CENSUS_FIELDS for q in self.q_list):
            raise ValueError("brute-force suites need one or more q in %s" % (Ha.CENSUS_FIELDS,))
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ValueError("jobs must be between 1 and %d" % MAX_JOBS)


def mixed_labels(n, max_sigma, max_dist):
    """Zero-diagonal nonnegative labels of size at most max_sigma on the
    band |j - i| <= max_dist, sorted by their entries."""
    labels = [
        A
        for sigma in range(max_sigma + 1)
        for A in M.band_matrices(n, sigma, max_dist)
        if M.is_zero_diagonal(A)
    ]
    return sorted(labels, key=lambda a: a.entries)


def _weight_grid(n):
    if n == 2:
        return [(0, 0), (1, 0), (0, 1), (1, 2)]
    return [(0,) * n, (1,) + (0,) * (n - 1), (0,) + (1,) * (n - 1)]


def _alpha_grid(n, max_sigma):
    return [
        a
        for a in itertools.product(range(max_sigma + 1), repeat=n)
        if sum(a) <= max_sigma
    ]


def _case_entry(ok, case_id, checked, diffs):
    return {"case": case_id, "ok": ok, "checked": checked, "diffs": diffs}


def _band_cases(tag, cfg):
    """One case (tag, n, band, r) per size n and level r of the grid."""
    return [
        (tag, n, _BANDS[n], r)
        for n in cfg.n_list
        for r in range(max(1, cfg.r_min), cfg.r_max + 1)
    ]


# ----------------------------------------------------------------------
# suite: schur-oracle


def _mirror_order(labels):
    """The labels, each followed by its negation unless that came before."""
    return list(dict.fromkeys(X for A in labels for X in (A, M.negate(A))))


def _check_schur_oracle(case):
    _, n, band, r = case
    checked = 0
    diffs = []
    shapes = {}  # row sums -> the upper left factors
    for A in _mirror_order(M.band_matrices(n, r, band)):
        mu = M.ro(A)
        if mu not in shapes:
            shapes[mu] = S.upper_shapes_for(mu)
        minus_a = M.negate(A)
        for B in shapes[mu]:
            # The mirror (negate B, negate A) runs over the lower pairs, and
            # e_mul_lower reads it off the upper product just built.
            for left, right, closed in (
                (B, A, S.e_mul_upper),
                (M.negate(B), minus_a, S.e_mul_lower),
            ):
                got = closed(left, right)
                want = S.oracle_mul(left, right)
                checked += 1
                if not S.s_eq(got, want):
                    diffs.append(
                        {
                            "left": M.to_json(left),
                            "right": M.to_json(right),
                            "closed": S.to_json(got),
                            "oracle": S.to_json(want),
                        }
                    )
    return _case_entry(not diffs, "n=%d,r=%d" % (n, r), checked, diffs)


# ----------------------------------------------------------------------
# suite: coset-length


def _indices(rng, size):
    """Endless indices below size, drawn from rng as rng.choice draws them
    from a sequence of that size: getrandbits(size.bit_length()) until the
    value is below size.  Reading two of these in turn gives the indices
    of rng.choice(us), rng.choice(vs) and leaves the same rng state."""
    getrandbits, k = rng.getrandbits, size.bit_length()
    while True:
        i = getrandbits(k)
        if i < size:
            yield i


def _check_coset_length(case):
    _, n, band, r = case
    checked = 0
    diffs = []
    for idx, A in enumerate(M.band_matrices(n, r, band)):
        lam, mu = M.ro(A), M.co(A)
        y = P.pseudo_matrix_rep(A)
        ly = P.length(y)
        bad = []
        if P.double_coset_matrix(lam, y.window, mu) != A:
            bad.append("round trip")
        if ly != P.length_formula(A):
            bad.append("length formula")
        if not P.is_min_double_coset_rep(y, lam, mu):
            bad.append("descent minimality")
        checked += 3
        us = P.young_subgroup_elements(lam)
        vs = P.young_subgroup_elements(mu)
        rng = random.Random("coset:%d:%d:%d" % (n, r, idx))
        uys = [P.compose(u, y) for u in us]
        lengths = {}  # (index of u, index of v) -> length of u y v
        draw_u, draw_v = _indices(rng, len(us)), _indices(rng, len(vs))
        for _ in range(COSET_SAMPLES):
            key = next(draw_u), next(draw_v)
            if key not in lengths:
                lengths[key] = P.length(P.compose(uys[key[0]], vs[key[1]]))
            if lengths[key] < ly:
                bad.append("shorter coset element found")
                break
        checked += COSET_SAMPLES
        if bad:
            diffs.append({"matrix": M.to_json(A), "failures": bad})
    return _case_entry(not diffs, "n=%d,r=%d" % (n, r), checked, diffs)


# ----------------------------------------------------------------------
# suite: hecke


def _cases_hecke(cfg):
    cases = []
    for r in range(max(2, cfg.r_min), cfg.r_max + 1):
        cases.append(("hecke-quad", r))
        cases.append(("hecke-rho", r))
        for chunk in range(4):
            cases.append(("hecke-assoc", r, chunk, 120))
    return cases + _band_cases("hecke-coset", cfg)


def _rand_perm(rng, r, steps=8):
    """rho^m s_{i_1} ... s_{i_k} for random k, i and m, built on the window:
    w s_i swaps w(i) and w(i + 1), where w(r + 1) = w(1) + r."""
    win = list(range(1, r + 1))
    for _ in range(rng.randrange(steps + 1)):
        i = rng.randrange(1, r + 1)
        if i < r:
            win[i - 1], win[i] = win[i], win[i - 1]
        else:
            win[0], win[-1] = win[-1] - r, win[0] + r
    m = rng.randrange(-2, 3)
    return P.AffinePermutation(r, tuple(x + m for x in win))


def _rand_elem(rng, r, max_terms=4):
    items = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        f = {}
        for _ in range(rng.randrange(1, 3)):
            e, c = rng.randrange(-3, 4), rng.randrange(-3, 4)
            if c:
                f[e] = c
        items.append((_rand_perm(rng, r).window, f or {0: 1}))
    return H.h_from_items(r, items)


def _check_hecke(case):
    kind = case[0]
    checked = 0
    diffs = []
    if kind == "hecke-quad":
        r = case[1]
        one = H.t_basis(P.identity(r))
        rng = random.Random("quad:%d" % r)
        for i in range(1, r + 1):
            s = H.t_basis(P.generator_s(i, r))
            for _ in range(20):
                h = _rand_elem(rng, r)
                lhs = H.mul(s, H.mul(s, h))
                rhs = H.h_add(
                    H.h_scale(L.poly({2: 1, 0: -1}), H.mul(s, h)),
                    H.h_scale(L.monomial(2), h),
                )
                checked += 1
                if lhs != rhs:
                    diffs.append({"i": i, "r": r})
        return _case_entry(not diffs, "quad r=%d" % r, checked, diffs)
    if kind == "hecke-rho":
        r = case[1]
        rng = random.Random("rho:%d" % r)
        for m in range(-2, 3):
            rho = P.rho_power(m, r)
            for _ in range(25):
                w = _rand_perm(rng, r)
                lhs = H.mul(H.t_basis(rho), H.t_basis(w))
                rhs = H.t_basis(P.compose(rho, w))
                lhs2 = H.mul(H.t_basis(w), H.t_basis(rho))
                rhs2 = H.t_basis(P.compose(w, rho))
                checked += 2
                if not (lhs == rhs and lhs2 == rhs2):
                    diffs.append({"m": m, "window": list(w.window), "r": r})
        return _case_entry(not diffs, "rho r=%d" % r, checked, diffs)
    if kind == "hecke-assoc":
        _, r, chunk, count = case
        rng = random.Random("assoc:%d:%d" % (r, chunk))
        for _ in range(count):
            a, b, c = (_rand_elem(rng, r) for _ in range(3))
            checked += 1
            if H.mul(H.mul(a, b), c) != H.mul(a, H.mul(b, c)):
                diffs.append({"r": r, "chunk": chunk})
        return _case_entry(not diffs, "assoc r=%d chunk=%d" % (r, chunk), checked, diffs)
    _, n, band, r = case
    for A in M.band_matrices(n, r, band):
        d = P.pseudo_matrix_rep(A)
        lam, mu = M.ro(A), M.co(A)
        checked += 1
        if not H.coset_product_identity_check(lam, d, mu):
            diffs.append({"matrix": M.to_json(A)})
    return _case_entry(not diffs, "coset-identity n=%d,r=%d" % (n, r), checked, diffs)


# ----------------------------------------------------------------------
# suite: hall


def _cases_hall(cfg):
    cases = []
    for n in cfg.n_list:
        for alpha in _alpha_grid(n, 2):
            cases.append(("hall-closed", n, alpha, tuple(cfg.q_list)))
            cases.append(("hall-twist", n, alpha))
    return cases


def _check_hall(case):
    checked = 0
    diffs = []
    if case[0] == "hall-closed":
        _, n, alpha, q_list = case
        lab_alpha = M.s_alpha(alpha)
        # Enumerated once and bucketed by dimension vector; filtering by
        # sigma keeps the order of enumerate_labels(n, sigma(A) + |alpha|, 5).
        by_dim = {}
        for C in Ha.enumerate_labels(n, 3 + sum(alpha), 5):
            by_dim.setdefault(Ha.dim_vector(C), []).append(C)
        for A in Ha.enumerate_labels(n, 3, 5 - sum(alpha)):
            prod = Ha.semisimple_hall_product(alpha, A)
            want_dim = tuple(
                x + y for x, y in zip(Ha.dim_vector(lab_alpha), Ha.dim_vector(A))
            )
            cap = M.sigma(A) + sum(alpha)
            candidates = [C for C in by_dim.get(want_dim, []) if M.sigma(C) <= cap]
            for C in candidates:
                poly = prod.get(C, {})
                for q in q_list:
                    got = Ha.qp_eval(poly, q)
                    want = Ha.brute_hall_number(lab_alpha, A, C, q)
                    checked += 1
                    if got != want:
                        diffs.append(
                            {
                                "alpha": list(alpha),
                                "matrix": M.to_json(A),
                                "target": M.to_json(C),
                                "q": q,
                                "closed": got,
                                "brute": want,
                            }
                        )
            for C in prod:
                if C not in candidates:
                    diffs.append(
                        {
                            "alpha": list(alpha),
                            "matrix": M.to_json(A),
                            "target": M.to_json(C),
                            "reason": "label outside candidate set",
                        }
                    )
        return _case_entry(
            not diffs, "closed n=%d,alpha=%s" % (n, list(alpha)), checked, diffs
        )
    _, n, alpha = case
    for A in Ha.enumerate_labels(n, 3, 5):
        got = R.twisted_hall_product(alpha, A)
        want = Ha.twisted_route_b(alpha, A)
        checked += 1
        if got != want:
            diffs.append({"alpha": list(alpha), "matrix": M.to_json(A)})
    return _case_entry(
        not diffs, "twist n=%d,alpha=%s" % (n, list(alpha)), checked, diffs
    )


# ----------------------------------------------------------------------
# suite: commutator


_COMMUTATOR_PAIRS = (
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1)),
    ((1, 1), (1, 1)),
    ((2, 0), (2, 0)),
    ((2, 0), (1, 0)),
)


def _cases_commutator(cfg):
    return [("commutator", lam, mu) for lam, mu in _COMMUTATOR_PAIRS]


def _check_commutator(case):
    _, lam, mu = case
    diff = R.relation_e_difference(lam, mu)
    diffs = []
    if diff.terms:
        diffs.append({"lam": list(lam), "mu": list(mu), "difference": R.to_json(diff)})
    return _case_entry(not diffs, "lam=%s,mu=%s" % (list(lam), list(mu)), 1, diffs)


# ----------------------------------------------------------------------
# suite: level-coherence


def _cases_level_coherence(cfg):
    cases = []
    for n in cfg.n_list:
        for A in mixed_labels(n, 2, n):
            cases.append(("level-coherence", n, A, cfg.r_max))
    return cases


def _lambda_grid(n):
    cap = 3 if n == 2 else 2
    return [
        lam
        for lam in itertools.product(range(3), repeat=n)
        if sum(lam) <= cap
    ]


def _level_products(A, r, jgrid, alphas):
    """The level-r products of level-coherence on A_j_r(A, 0, r), keyed by
    (op, arg): each value is the product and the sums (M.co or M.ro) that
    its factor A_j_r keeps, so that _at_weight reads it at any weight."""
    n = A.n
    zero_j = (0,) * n
    base = S.A_j_r(A, zero_j, r)
    base_e = S.convert(base, "e")
    out = {}
    for jp in jgrid:
        gen = S.A_j_r(M.pmat(n, []), jp, r)
        out["diag-left", jp] = (S.closed_product_upper(gen, base), M.co)
        right = S.oracle_product(base_e, S.convert(gen, "e"))
        out["diag-right", jp] = (S.convert(right, "n"), M.ro)
    for alpha in alphas:
        plus = S.A_j_r(M.s_alpha(alpha), zero_j, r)
        minus = S.A_j_r(M.t_s_alpha(alpha), zero_j, r)
        out["one-layer-upper", alpha] = (S.closed_product_upper(plus, base), M.co)
        out["one-layer-lower", alpha] = (S.closed_product_lower(minus, base), M.co)
    return out


def _at_weight(product, A, j):
    """A product of _level_products at weight j: the label C takes
    v^((sums(C) - sums(A)).j), since sums(C) - sums(A) is the fill mu of
    the term v^(mu.j) [A + diag(mu)] of A_j_r(A, j, r) that gives C."""
    x, sums = product
    if not any(j):
        return x
    shift = M.dot(sums(A), j)
    terms = {C: L.vshift(c, M.dot(sums(C), j) - shift) for C, c in x.terms.items()}
    return S.SchurElement(x.n, x.r, x.basis, terms)


def _check_level_coherence(case):
    _, n, A, r_max = case
    checked = 0
    diffs = []
    jgrid = _weight_grid(n)
    alphas = _alpha_grid(n, 2)

    def record(tag, j, other, r, got, want):
        diffs.append(
            {
                "op": tag,
                "matrix": M.to_json(A),
                "j": list(j),
                "arg": list(other),
                "r": r,
                "level-free": S.to_json(got),
                "level": S.to_json(want),
            }
        )

    # The level-r products are built once per level of the case, at
    # weight 0, and read at each weight j by _at_weight.
    levels = range(max(1, M.sigma(A)), r_max + 1)
    products = {r: _level_products(A, r, jgrid, alphas) for r in levels}

    for j in jgrid:
        x = R.v_basis(n, A, j)
        # the level-free products do not depend on r: one of each per case
        frees = []
        for jp in jgrid:
            frees.append(("diag-left", jp, R.mul_by_0j(jp, x)))
            frees.append(("diag-right", jp, R.mul_0j_right(x, jp)))
        for alpha in alphas:
            frees.append(("one-layer-upper", alpha, R.mul_by_semisimple_plus(alpha, x)))
            frees.append(("one-layer-lower", alpha, R.mul_by_semisimple_minus(alpha, x)))
        for r in levels:
            for op, arg, free in frees:
                got = R.eval_at_level(free, r)
                want = _at_weight(products[r][op, arg], A, j)
                checked += 1
                if not S.s_eq(got, want):
                    record(op, j, arg, r, got, want)
        for lam in _lambda_grid(n):
            red = R.reduce_j_lambda(A, j, lam)
            for r in levels:
                got = R.eval_at_level(red, r)
                want = S.A_j_lambda_r(A, j, lam, r)
                checked += 1
                if not S.s_eq(got, want):
                    record("reduce", j, lam, r, got, want)
    return _case_entry(
        not diffs, "n=%d,A=%s" % (n, sorted(A.entries)), checked, diffs
    )


# ----------------------------------------------------------------------
# suite: triangular


def _cases_triangular(cfg):
    cases = []
    for A in mixed_labels(2, 2, 2):
        for j in _weight_grid(2):
            cases.append(("triangular", A, j, cfg.r_max))
    return cases


def _check_triangular(case):
    """Upper part, diagonal generator 0(j), lower part of A, multiplied by
    the oracle at each level r: the product must hold every [A + diag(mu)]
    with coefficient v^(mu.j + j.(co(upper) + ro(lower))), and every other
    label must lie strictly below A in the corner order."""
    _, A, j, r_max = case
    zero_j = (0,) * A.n
    upper, _, lower = M.split(A)
    lead = M.dot(j, tuple(x + y for x, y in zip(M.co(upper), M.ro(lower))))
    checked = 0
    diffs = []
    for r in range(max(1, M.sigma(A)), r_max + 1):
        left = S.convert(S.A_j_r(upper, zero_j, r), "e")
        mid = S.convert(S.A_j_r(M.pmat(A.n, []), j, r), "e")
        right = S.convert(S.A_j_r(lower, zero_j, r), "e")
        got = S.convert(S.oracle_product(S.oracle_product(left, mid), right), "n")
        fills = {label: mu for mu, label in S.diag_fill(A, r)}
        bad = []
        for label, coeff in got.terms.items():
            if label in fills:
                if coeff != L.monomial(lead + M.dot(fills[label], j)):
                    bad.append({"matrix": M.to_json(label), "reason": "leading coefficient"})
            elif not M.preceq(M.offdiag(label), A):
                bad.append({"matrix": M.to_json(label), "reason": "not strictly below"})
        missing = [{"matrix": M.to_json(C)} for C in fills if C not in got.terms]
        checked += 1
        if bad or missing:
            diffs.append(
                {"matrix": M.to_json(A), "j": list(j), "r": r, "bad": bad, "missing": missing}
            )
    return _case_entry(
        not diffs, "A=%s,j=%s" % (sorted(A.entries), list(j)), checked, diffs
    )


# ----------------------------------------------------------------------
# suite: laurent


def _cases_laurent(cfg):
    return [("laurent-pascal",), ("laurent-bar",), ("laurent-subset",)]


def _check_laurent(case):
    checked = 0
    diffs = []
    if case[0] == "laurent-pascal":
        for N in range(-5, 11):
            for t in range(0, 11):
                lhs = L.gauss_sq(N, t)
                if t == 0:
                    ok = lhs == {0: 1}
                else:
                    ok = lhs == L.add(
                        L.gauss_sq(N - 1, t),
                        L.vshift(L.gauss_sq(N - 1, t - 1), 2 * (N - t)),
                    )
                checked += 1
                if not ok:
                    diffs.append({"N": N, "t": t})
        return _case_entry(not diffs, "pascal", checked, diffs)
    if case[0] == "laurent-bar":
        rng = random.Random("bar")
        for _ in range(200):
            f = {rng.randrange(-5, 6): rng.randrange(-4, 5) for _ in range(3)}
            f = {e: c for e, c in f.items() if c}
            g = {rng.randrange(-5, 6): rng.randrange(-4, 5) for _ in range(3)}
            g = {e: c for e, c in g.items() if c}
            checked += 2
            if L.bar(L.bar(f)) != f:
                diffs.append({"f": L.json_pairs(f)})
            if L.bar(L.mul(f, g)) != L.mul(L.bar(f), L.bar(g)):
                diffs.append({"f": L.json_pairs(f), "g": L.json_pairs(g)})
        for N in range(0, 9):
            for t in range(0, N + 1):
                g = L.gauss_sym(N, t)
                checked += 2
                if L.bar(g) != g:
                    diffs.append({"N": N, "t": t, "kind": "sym"})
                if L.bar(L.gauss_sq(N, t)) != L.vshift(
                    L.gauss_sq(N, t), -2 * t * (N - t)
                ):
                    diffs.append({"N": N, "t": t, "kind": "sq"})
        return _case_entry(not diffs, "bar", checked, diffs)
    for a in range(0, 4):
        for r in range(1, 6):
            for t in range(0, r + 1):
                checked += 1
                if not L.subset_sum_identity_check(a, r, t):
                    diffs.append({"a": a, "r": r, "t": t})
    return _case_entry(not diffs, "subset-sum", checked, diffs)


# ----------------------------------------------------------------------
# driver

_SUITES = {
    "schur-oracle": (functools.partial(_band_cases, "schur-oracle"), _check_schur_oracle),
    "coset-length": (functools.partial(_band_cases, "coset-length"), _check_coset_length),
    "hecke": (_cases_hecke, _check_hecke),
    "hall": (_cases_hall, _check_hall),
    "commutator": (_cases_commutator, _check_commutator),
    "level-coherence": (_cases_level_coherence, _check_level_coherence),
    "triangular": (_cases_triangular, _check_triangular),
    "laurent": (_cases_laurent, _check_laurent),
}

SUITE_NAMES = tuple(_SUITES)
_N2_SUITES = ("commutator", "triangular")  # their grids are fixed at n = 2


def _validate(name, cfg):
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r" % name)
    cfg.validate()
    if name in _N2_SUITES and 2 not in cfg.n_list:
        raise ValueError("the %s grid is fixed at n = 2, so n must include 2" % name)


def get_context(method):
    """The multiprocessing context of method.  The import waits for the
    first pool, so a run with jobs = 1 never loads multiprocessing."""
    import multiprocessing

    return multiprocessing.get_context(method)


def run_suite(name, cfg=None):
    """Run one suite and return its report dictionary."""
    cfg = cfg or Config()
    _validate(name, cfg)
    builder, checker = _SUITES[name]
    cases = builder(cfg)
    if cfg.jobs > 1 and len(cases) > 1:
        with get_context("fork").Pool(min(cfg.jobs, len(cases))) as pool:
            results = pool.map(checker, cases)
    else:
        results = [checker(c) for c in cases]
    results.sort(key=lambda d: d["case"])
    mismatches = [r for r in results if not r["ok"]]
    return {
        "suite": name,
        "cases": len(results),
        "checks": sum(r["checked"] for r in results),
        "ok": not mismatches,
        "mismatches": mismatches,
    }


def run_suites(names, cfg=None):
    """Run several suites; returns (all_ok, list of reports).  Every suite
    is validated before the first one starts."""
    cfg = cfg or Config()
    for name in names:
        _validate(name, cfg)
    reports = [run_suite(name, cfg) for name in names]
    return all(rep["ok"] for rep in reports), reports
