"""The standing mutant table: one-line edits of the kernels, and the suites
that kill them.

Each row of MUTANTS is (file, old text, new text, reason): the file under
src/affq, a text that occurs exactly once in src/affq, its replacement,
and what the edit breaks.  A reason that starts with "equivalent: " marks
an edit that no suite can kill, and says why.  tests/test_acceptance.py
checks that every old text still occurs exactly once, so a refactor that
moves a kernel updates its row in the same change.

With --run, each edit is applied to a temporary copy of src, the copy
runs `affq verify --suite all --jobs 2`, and kill_table.json records per
mutant the exit code and, per suite, the failing cases over the cases,
or the last line of stderr when the run ends with no report.  The run
exits 1 unless every mutant not marked equivalent ends with a nonzero
exit and every equivalent one passes.  It takes a few minutes.  Run from
the repository root:

    python tests/data/mutants.py          # check the old texts only
    python tests/data/mutants.py --run    # run the table
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")
EQUIVALENT = "equivalent: "

MUTANTS = (
    (
        "realization.py",
        "        if l <= i:\n            out[i % n] -= t\n",
        "        if l < i:\n            out[i % n] -= t\n",
        "R._j_shift_plus: l < i to l < i - 1 in the row i - 1 sum",
    ),
    (
        "realization.py",
        "M.d_exponent(C) - base - M.dot(nu, shift))",
        "M.d_exponent(C) - base + M.dot(nu, shift))",
        "R._plus_rows: sign of nu.shift",
    ),
    (
        "realization.py",
        "tuple(j[(-p - 2) % n] for p in range(n))",
        "tuple(j[(-p - 1) % n] for p in range(n))",
        "R._negate_weight: weight index -p - 2 to -p - 1",
    ),
    (
        "realization.py",
        "alpha[(-p - 3) % n]",
        "alpha[(-p - 2) % n]",
        "R._minus_rows: alpha index -p - 3 to -p - 2",
    ),
    (
        "realization.py",
        "2 * Ha.euler_form(gamma, _vec_sub(amg, lam))",
        "2 * Ha.euler_form(_vec_sub(amg, lam), gamma)",
        "R.x_coeff: <gamma, alpha - gamma - lam> transposed",
    ),
    (
        "realization.py",
        "L.monomial(2 * Ha.euler_form(beta, rest), -1)",
        "L.monomial(2 * Ha.euler_form(rest, beta), -1)",
        EQUIVALENT + "R.x_coeff: inner <beta, g - beta> transposed; reversing an "
        "ordered decomposition swaps the two sides of every cross term",
    ),
    (
        "realization.py",
        "tuple(nu[i] - nu[i - 1] for i in range(n))",
        "tuple(nu[i - 1] - nu[i] for i in range(n))",
        "R.cyclic_difference: sign",
    ),
    (
        "realization.py",
        "return _mul_diag(x, jprime, M.co)",
        "return _mul_diag(x, jprime, M.ro)",
        "R.mul_0j_right: M.co to M.ro",
    ),
    (
        "realization.py",
        "lhs = v_scale(L.monomial(-twist), lhs)",
        "lhs = v_scale(L.monomial(twist), lhs)",
        "R.relation_e_difference: sign of the left-side twist",
    ),
    (
        "realization.py",
        "k = M.dot(mu, j)",
        "k = -M.dot(mu, j)",
        "R.eval_at_level: sign of the fill shift",
    ),
    (
        "realization.py",
        "den = L.mul(den, L.sub(L.monomial(s), L.monomial(-s)))",
        "den = L.mul(den, L.add(L.monomial(s), L.monomial(-s)))",
        "R._shift_coeffs: v^s - v^-s to v^s + v^-s",
    ),
    (
        "hall.py",
        "for k in range(max(0, m - l), m)",
        "for k in range(max(0, m - l) - 1, m)",
        "Ha.dim_end: range starts one lower",
    ),
    (
        "hall.py",
        "base = euler_form(alpha, dim_vector(A))",
        "base = euler_form(dim_vector(A), alpha)",
        "Ha.twisted_route_b: Euler form transposed",
    ),
    (
        "schur.py",
        "if i0 == i and j0 > l)",
        "if i0 == i and j0 >= l)",
        "S.entry_map: the row tails of A, j0 > l to j0 >= l",
    ),
    (
        "schur.py",
        "if k == i and j > l:",
        "if k == i and j >= l:",
        "S.upper_term: the row tails of T, j > l to j >= l",
    ),
    (
        "schur.py",
        "cells.get((i, l), 0) + t - below.get((i, l), 0), t)",
        "cells.get((i, l), 0) + t, t)",
        "S.upper_term: Gaussian without - t_{i-1,l}",
    ),
    (
        "schur.py",
        "M.dot(mu, j) - M.d_exponent(label)",
        "M.dot(mu, j) + M.d_exponent(label)",
        "S._shadow: sign of d(label) in the standard-basis shift",
    ),
    (
        "hecke.py",
        "L.acc(out, _moved(win, pa, pb), L.mul(c, _V2))",
        "L.acc(out, _moved(win, pa, pb), L.mul(c, _V2M1))",
        "H.left_mul_gen: v^2 to v^2 - 1 on the moved window",
    ),
    (
        "hecke.py",
        "{tuple(x + m for x in win): c for win, c in h.terms.items()}",
        "{tuple(x - m for x in win): c for win, c in h.terms.items()}",
        "H.left_mul_rho: shift sign",
    ),
)


def misplaced():
    """The rows whose old text does not occur exactly once in the modules
    of src/affq, or not in the row's file."""
    pkg = os.path.join(SRC, "affq")
    texts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                texts[name] = fh.read()
    return [
        row
        for row in MUTANTS
        if sum(t.count(row[1]) for t in texts.values()) != 1 or row[1] not in texts[row[0]]
    ]


def _run_mutant(file, old, new, tmp):
    """Run `affq verify --suite all --jobs 2` on a copy of src with the
    edit applied; the kill record of the run."""
    src = os.path.join(tmp, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, "affq", file)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))
    out = os.path.join(tmp, "report.json")
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, "-m", "affq.cli", "verify", "--suite", "all", "--jobs", "2"]
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(argv + ["--out", out], env=env, capture_output=True, text=True)
    record = {"exit": run.returncode}
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
        record["killed_by"] = {
            rep["suite"]: {
                "failed": [m["case"] for m in rep["mismatches"]],
                "cases": rep["cases"],
            }
            for rep in report["suites"]
            if not rep["ok"]
        }
    else:
        record["stderr"] = (run.stderr.strip().splitlines() or [""])[-1]
    return record


def run_table():
    """Run every mutant; write kill_table.json and return whether the
    table meets its gate."""
    table = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for file, old, new, reason in MUTANTS:
            row = {"file": file, "old": old, "new": new}
            if reason.startswith(EQUIVALENT):
                row["equivalent"] = reason[len(EQUIVALENT):]
            else:
                row["reason"] = reason
            row.update(_run_mutant(file, old, new, tmp))
            killed = row["exit"] != 0
            ok &= killed != ("equivalent" in row)
            table.append(row)
            sys.stdout.write("exit %d: %s\n" % (row["exit"], reason))
    out = os.path.join(HERE, "kill_table.json")
    with open(out, "w") as fh:
        fh.write(json.dumps(table, indent=1) + "\n")
    sys.stdout.write("%d mutants written to %s\n" % (len(table), out))
    return ok


def main(argv):
    bad = misplaced()
    for file, old, _, _ in bad:
        sys.stderr.write("%s: old text does not occur exactly once: %r\n" % (file, old))
    if bad:
        return 1
    if argv == ["--run"]:
        return 0 if run_table() else 1
    if argv:
        sys.stderr.write("usage: mutants.py [--run]\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
