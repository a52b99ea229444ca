"""Command-line interface with JSON input and output.

Exit codes: 0 computed or verified, 1 mathematical mismatch (a report is
still written), 2 malformed or oversized input, 3 internal error (a failed
invariant of the library).  Output is canonically sorted, so repeated runs
with the same inputs produce identical bytes.

Size caps, checked before any computation: ``coset``, ``schur-mul``,
``reduce`` and ``hall`` accept matrices, and ``vbln-mul`` elements, of
period 2 <= n <= MAX_N, and ``coset`` a total sigma(A) <= MAX_COSET_SIGMA
(the window of the representative has sigma(A) entries and its length
walk is quadratic in it), and ``schur-mul`` labels of sigma <=
MAX_VBLN_SIZE (the one-layer kernel's candidates and Gaussians grow with
it).  ``reduce`` accepts parts
lambda_i <= MAX_REDUCE_PART and prod(lambda_i + 1) <= MAX_REDUCE_TERMS
weight shifts, ``hall`` a total dimension
|alpha| + dim M(A) <= hall.MAX_CENSUS_DIM.  ``vbln-mul`` accepts elements
of at most MAX_REDUCE_TERMS terms with at most 2 * MAX_REDUCE_TERMS
``coeff_den`` pairs in all, whose labels have sigma(A) <= MAX_VBLN_SIZE,
and one-layer weights |alpha| <= MAX_VBLN_SIZE
(the Gaussians of the one-layer products grow with both); a one-layer
product also caps the total size, the sum over the terms of
sigma(A) + |alpha|, at 4 * MAX_VBLN_SIZE.  ``verify`` accepts levels
r <= verify.MAX_LEVEL and starts at most verify.MAX_JOBS worker
processes, and never more than a suite has cases.

``main`` may be called any number of times in one process: the parser is
built on the first call and shared by the later ones, and each distinct
argv is parsed once.  A call reads the parsed items of its argv from a
table and builds a fresh namespace from them, so a command that changes
its arguments leaves the next call's untouched.  A usage error or
``--help`` exits inside the parse and is never stored, so it prints to
the streams of its own call; ``--in`` and ``--out`` are read and
written on every call.  Every call behaves as in a fresh process.
"""

import argparse
import functools
import json
import math
import sys

from . import hall as Ha
from . import laurent as L
from . import matrices as M
from . import permutations as P
from . import realization as R
from . import schur as S
from . import verify as V

MAX_N = 16
MAX_COSET_SIGMA = 64
MAX_REDUCE_PART = 16
MAX_REDUCE_TERMS = 729
MAX_VBLN_SIZE = 16


def _load(path):
    if path in (None, "-"):
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(obj, path):
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if path in (None, "-"):
        sys.stdout.write(data)
    else:
        with open(path, "w") as fh:
            fh.write(data)


def _check_period(n):
    if n > MAX_N:
        raise ValueError("period n = %d exceeds the cap %d" % (n, MAX_N))


def _capped_matrix(obj):
    """The matrix of obj, rejected when its period exceeds MAX_N."""
    A = M.from_json(obj)
    _check_period(A.n)
    return A


def cmd_coset(args):
    A = _capped_matrix(_load(args.infile))
    if not M.is_nonneg(A):
        raise ValueError("matrix entries must be nonnegative")
    if M.sigma(A) > MAX_COSET_SIGMA:
        raise ValueError("sigma = %d exceeds the cap %d" % (M.sigma(A), MAX_COSET_SIGMA))
    y = P.pseudo_matrix_rep(A)
    walked = P.length(y)
    closed = P.length_formula(A)
    _emit(
        {
            "window": list(y),
            "r": len(y),
            "length": walked,
            "length_formula": closed,
        },
        args.out,
    )
    return 0 if walked == closed else 1


def cmd_schur_mul(args):
    obj = _load(args.infile)
    left = _capped_matrix(obj["left"])
    right = _capped_matrix(obj["right"])
    if not (M.is_nonneg(left) and M.is_nonneg(right)):
        raise ValueError("matrix entries must be nonnegative")
    if max(M.sigma(left), M.sigma(right)) > MAX_VBLN_SIZE:
        raise ValueError("a label's sigma exceeds the cap %d" % MAX_VBLN_SIZE)
    if S.upper_shape(left) is not None:
        mul = S.e_mul_upper if args.basis == "e" else S.n_mul_upper
    elif S.lower_shape(left) is not None:
        mul = S.e_mul_lower if args.basis == "e" else S.n_mul_lower
    else:
        raise ValueError("left factor must be a one-layer-plus-diagonal label")
    _emit(S.to_json(mul(left, right)), args.out)
    return 0


def cmd_vbln_mul(args):
    obj = _load(args.infile)
    _check_period(L.json_ints([obj["element"]["n"]])[0])
    terms = obj["element"]["terms"]
    if len(terms) > MAX_REDUCE_TERMS:
        raise ValueError("term count exceeds the cap %d" % MAX_REDUCE_TERMS)
    if sum(len(t["coeff_den"]) for t in terms) > 2 * MAX_REDUCE_TERMS:
        raise ValueError("denominator size exceeds the cap %d" % (2 * MAX_REDUCE_TERMS))
    x = R.from_json(obj["element"])
    op = obj["op"]
    one_layer = op in ("one-layer-upper", "one-layer-lower")
    alpha = L.json_ints(obj["alpha"]) if one_layer else ()
    sizes = [M.sigma(A) for A, _ in x.terms]
    if max([sum(alpha)] + sizes) > MAX_VBLN_SIZE:
        raise ValueError("|alpha| or a label's sigma exceeds the cap %d" % MAX_VBLN_SIZE)
    total = sum(sizes) + len(sizes) * sum(alpha)
    if one_layer and total > 4 * MAX_VBLN_SIZE:
        raise ValueError("total size %d exceeds the cap %d" % (total, 4 * MAX_VBLN_SIZE))
    if op == "diag-left":
        res = R.mul_by_0j(L.json_ints(obj["j"]), x)
    elif op == "diag-right":
        res = R.mul_0j_right(x, L.json_ints(obj["j"]))
    elif op == "one-layer-upper":
        res = R.mul_by_semisimple_plus(alpha, x)
    elif op == "one-layer-lower":
        res = R.mul_by_semisimple_minus(alpha, x)
    else:
        raise ValueError("op must be diag-left, diag-right, one-layer-upper, or one-layer-lower")
    _emit(R.to_json(res), args.out)
    return 0


def cmd_hall(args):
    obj = _load(args.infile)
    alpha = L.json_ints(obj["alpha"])
    A = _capped_matrix(obj["matrix"])
    q_list = _parse_ints(args.q)
    if not q_list or any(q not in Ha.CENSUS_FIELDS for q in q_list):
        raise ValueError("the census needs one or more q in %s" % (Ha.CENSUS_FIELDS,))
    if sum(alpha) + Ha.dim_rep(A) > Ha.MAX_CENSUS_DIM:
        raise ValueError("total dimension exceeds the cap %d" % Ha.MAX_CENSUS_DIM)
    prod = Ha.semisimple_hall_product(alpha, A)
    lab_alpha = M.s_alpha(alpha)
    terms = []
    mismatch = False
    for C in sorted(prod, key=lambda c: c.entries):
        checks = []
        for q in q_list:
            closed = Ha.qp_eval(prod[C], q)
            brute = Ha.brute_hall_number(lab_alpha, A, C, q)
            checks.append([q, closed, brute])
            if closed != brute:
                mismatch = True
        terms.append(
            {"matrix": M.to_json(C), "poly_q": L.json_pairs(prod[C]), "checks": checks}
        )
    _emit({"alpha": list(alpha), "matrix": M.to_json(A), "terms": terms}, args.out)
    return 1 if mismatch else 0


def cmd_reduce(args):
    obj = _load(args.infile)
    A = _capped_matrix(obj["matrix"])
    lam = L.json_ints(obj["lambda"])
    if max(lam, default=0) > MAX_REDUCE_PART:
        raise ValueError("part %d exceeds the cap %d" % (max(lam), MAX_REDUCE_PART))
    if math.prod(t + 1 for t in lam) > MAX_REDUCE_TERMS:
        raise ValueError("term count exceeds the cap %d" % MAX_REDUCE_TERMS)
    res = R.reduce_j_lambda(A, L.json_ints(obj["j"]), lam)
    _emit(R.to_json(res), args.out)
    return 0


def _parse_ints(text):
    return tuple(int(p) for p in str(text).split(",") if p != "")


def cmd_verify(args):
    names = V.SUITE_NAMES if args.suite == "all" else (args.suite,)
    cfg = V.Config(n_list=_parse_ints(args.n), q_list=_parse_ints(args.q), jobs=args.jobs)
    if args.r is not None:
        cfg.r_min = cfg.r_max = args.r
    if args.r_max is not None:
        cfg.r_max = args.r_max
    ok, reports = V.run_suites(names, cfg)
    _emit({"ok": ok, "suites": reports}, args.out)
    for rep in reports:
        sys.stderr.write(
            "%s: %s (%d checks, %d cases)\n"
            % (rep["suite"], "pass" if rep["ok"] else "FAIL", rep["checks"], rep["cases"])
        )
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affq",
        description="Exact computations in affine Hecke, q-Schur, and Hall algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--in", dest="infile", default=None, help="input JSON path (default stdin)")
        p.add_argument("--out", default=None, help="output JSON path (default stdout)")

    p = sub.add_parser("coset", help="shortest double-coset representative of a matrix")
    io_flags(p)
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("schur-mul", help="closed-form one-layer product of two labels")
    io_flags(p)
    p.add_argument("--basis", choices=("e", "n"), default="e")
    p.set_defaults(func=cmd_schur_mul)

    p = sub.add_parser("vbln-mul", help="generator product in the level-free algebra")
    io_flags(p)
    p.set_defaults(func=cmd_vbln_mul)

    p = sub.add_parser("hall", help="semisimple Hall product with brute-force checks")
    io_flags(p)
    p.add_argument("--q", default="2,3", help="comma-separated field sizes")
    p.set_defaults(func=cmd_hall)

    p = sub.add_parser("reduce", help="rewrite a weighted symbol in the plain basis")
    io_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", choices=V.SUITE_NAMES + ("all",), default="all")
    grid = V.Config()
    p.add_argument("--n", default=",".join(map(str, grid.n_list)), help="comma-separated sizes")
    p.add_argument("--r", type=int, default=None, help="smallest level (default %d)" % grid.r_min)
    p.add_argument("--r-max", dest="r_max", type=int, default=None, help="largest level")
    p.add_argument("--q", default=",".join(map(str, grid.q_list)), help="comma-separated field sizes")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 to %d)" % V.MAX_JOBS)
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser():
    return build_parser()


@functools.lru_cache(maxsize=L.PRODUCT_CACHE_SIZE)
def _parsed(argv):
    """The items of the namespace that the shared parser makes of argv."""
    return tuple(vars(_parser().parse_args(argv)).items())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(**dict(_parsed(tuple(argv))))
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    except AssertionError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
